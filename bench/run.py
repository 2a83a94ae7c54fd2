#!/usr/bin/env python3
"""Benchmark of killdiff: times one workload end to end, checks every
output, and prints one JSON result as its last line.

    python3 bench/run.py --workload matrix --seed 0 --seconds 10 --trace 0

Run it from anywhere; it uses the `src/` tree next to its own directory and
no installed copy.  `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run (see bench/README.md).  Scratch
output, the run record and the span file go under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional, Tuple

import calibrate
import metrics
import pins
import spans

# BLAS and OpenMP pools pinned to one thread before NumPy loads, so the MC
# worker processes do not oversubscribe the cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# fresh interpreters that time `import killdiff`, after the workload (so
# they do not count in the MC children's peak RSS); set-up takes their
# median import time, each scaled by a kernel run in the probe.  This
# process's own import is not timed: the calibration baseline loads NumPy
# and SciPy before it.
IMPORT_PROBES = 5
# stop starting passes after this long, whatever the pass count, so that
# a run ends well within three minutes
HARD_LIMIT_S = 120.0
# a second seed, kept out of tuning, for checking later claims
HELD_OUT_SEED = 20261017

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "held_out_seed": HELD_OUT_SEED,
    }


class Pass(NamedTuple):
    wall: float  # without the calibration samples taken during the pass
    items: list


def timed_pass(wl, index: int) -> Pass:
    spent = wl.calibrator.spent
    t0 = time.perf_counter()
    items = wl.run_pass(index)
    t1 = time.perf_counter()
    return Pass(t1 - t0 - (wl.calibrator.spent - spent), items)


def measure(workload, seconds: float, first_index: int) -> list:
    """Passes until the next one would end past `seconds`, at least
    `pool_passes` of them."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(workload, first_index + len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        if len(passes) >= workload.pool_passes and elapsed + passes[-1].wall > seconds:
            break
    return passes


def pass_groups(passes: list, k: int) -> list:
    """The run's passes cut into consecutive groups of k, a short last group
    dropped unless it is the only one.  A group pools enough items for the
    tail percentile, always the same number, so the percentile is the same
    in every run."""
    return [passes[i:i + k] for i in range(0, max(len(passes) - k, 0) + 1, k)]


def item_tail(item_s: list, k: int) -> Optional[Tuple[float, float, int]]:
    """metrics.tail of each group's items (item_s: the item seconds of each
    pass): the median value over the groups, with the percentile and sample
    count of one group."""
    tails = [metrics.tail([t for ts in g for t in ts]) for g in pass_groups(item_s, k)]
    if None in tails:
        return None
    return statistics.median(t[0] for t in tails), tails[0][1], tails[0][2]


def item_scales(passes: list, calibrator) -> list:
    """Each item's calibration scale, from the kernel samples nearest to it."""
    return [
        [calibrator.scale_between(it.start, it.start + it.seconds) for it in p.items]
        for p in passes
    ]


def pass_scale(p: Pass, scales: list) -> float:
    """A pass's scale: its items' scales weighted by their seconds."""
    raw = sum(it.seconds for it in p.items)
    return sum(it.seconds * s for it, s in zip(p.items, scales)) / raw if raw > 0 else 1.0


def pass_metrics(passes: list, scales: list, k: int) -> dict:
    """wall_s, item_p50_ms and item_tail_ms, each item's time multiplied by
    its scale (scales: per pass, per item) and each pass's by pass_scale."""
    item_s = [[it.seconds * s for it, s in zip(p.items, ss)] for p, ss in zip(passes, scales)]
    return {
        "wall_s": statistics.median(p.wall * pass_scale(p, ss) for p, ss in zip(passes, scales)),
        "item_p50_ms": 1e3 * statistics.median(t for ts in item_s for t in ts),
        "item_tail_ms": 1e3 * item_tail(item_s, k)[0],
    }


def layer_hooks(wl) -> dict:
    """Span attributes recorded from the arguments and results of the calls
    that carry the layers' work counts."""

    def cell_steps(fn, args, kwargs, result):
        grid = spans.bound_arguments(fn, args, kwargs)["grid"]
        steps = max(1, round(grid.t_max / grid.dt))
        return {"cells": grid.cell_count, "steps": steps, "cell_steps": grid.cell_count * steps}

    def mc(fn, args, kwargs, result):
        cfg = spans.bound_arguments(fn, args, kwargs)["cfg"]
        wl.capture_mc(fn, args, kwargs, result)
        return metrics.mc_counts(result.time.tolist(), cfg.dt, cfg.n_trajectories, cfg.workers)

    def rows_failed(fn, args, kwargs, result):
        return {"rows_failed": sum(not r.passed for r in result.rows)}

    return {
        "fpe.evolve": cell_steps,
        "fpe.split_statistics": cell_steps,
        "montecarlo.simulate_outcomes": mc,
        "crosscheck.run_matrix": rows_failed,
    }


def import_probe(src: str) -> Tuple[float, float]:
    """Time `import killdiff` in a fresh interpreter, then the calibration
    kernel in that same process: (import seconds, median kernel seconds)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import killdiff; d = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
        "import calibrate, statistics; "
        "print(d, statistics.median(calibrate.kernel() for _ in range(calibrate.PROBE_SAMPLES)))"
    )
    bench = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, src, bench], capture_output=True, text=True, check=True,
        timeout=120,
    )
    import_s, kernel_s = map(float, done.stdout.split())
    return import_s, kernel_s


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "killdiff", "__init__.py")):
        print(f"error: no killdiff sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    calibrator = calibrate.Calibrator()
    calibrator.take_baseline()
    import killdiff

    if os.path.dirname(os.path.abspath(killdiff.__file__)) != os.path.join(src, "killdiff"):
        print(f"error: imported killdiff from {killdiff.__file__}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    scratch = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            root, args.seed, spans.NullTracer(), scratch, calibrator
        )
        return run(wl, args, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_passes(wl, seconds: float):
    """One untraced pass, then traced ones: their difference in pass time
    is the tracing overhead."""
    untraced = timed_pass(wl, 0)
    tracer = spans.Tracer()
    wl.tracer = tracer
    replaced = spans.install(tracer, layer_hooks(wl))
    try:
        passes = measure(wl, seconds, 1)
    finally:
        spans.uninstall(replaced)
        wl.tracer = spans.NullTracer()
    return untraced, passes, tracer


def run(wl, args, out_dir: str) -> int:
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - t0)
    wl.prepare()

    if args.trace:
        untraced, passes, tracer = traced_passes(wl, args.seconds)
        all_passes = [untraced] + passes
    else:
        passes = all_passes = measure(wl, args.seconds, 0)

    items = [it for p in all_passes for it in p.items]
    failed = [it for it in items if it.problems]
    tail = item_tail([[it.seconds for it in p.items] for p in passes], wl.pool_passes)
    walls = [p.wall for p in passes]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "build_s": builds,
        "passes": len(passes),
        "pass_walls_s": walls,
        "item_s": [[it.seconds for it in p.items] for p in passes],
        "item_tail_percentile": tail[1] if tail else None,
        "item_tail_samples": tail[2] if tail else None,
        "item_tail_groups": len(pass_groups(passes, wl.pool_passes)),
        "attempted": len(items),
        "failed": len(failed),
        "fail_share": len(failed) / len(items),
        "failures": [{"item": it.label, "problems": it.problems} for it in failed[:50]],
        # MC values outside the program's own band, but within it of the
        # Euler-shifted reference: the known exit bias, not a failure
        "euler_band_misses": wl.band_misses,
        "run_problems": wl.problems,
        # read before the import probes start children of their own
        "child_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "work": {it.label: it.work for it in passes[0].items},
        **wl.info,
    }

    if args.trace:
        values = metrics.layer_metrics(tracer.spans, len(passes), sorted(pins.MATRIX))
        units = metrics.layer_units(sorted(pins.MATRIX))
        # pass times in reference seconds, as for the end-to-end metrics
        scaled = [
            p.wall * pass_scale(p, ss)
            for p, ss in zip(all_passes, item_scales(all_passes, wl.calibrator))
        ]
        record["untraced_pass_s"] = scaled[0]
        record["traced_pass_s"] = scaled[1:]
        record["tracing_overhead_s"] = statistics.median(scaled[1:]) - scaled[0]
        if wl.captured:
            record["worker_count_mismatch"] = wl.worker_count_mismatch()
        span_path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.jsonl")
        with open(span_path, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.item, s.attrs]) + "\n")
    else:
        src = os.path.join(os.path.dirname(out_dir), "src")
        probes = [import_probe(src) for _ in range(IMPORT_PROBES)]
        record["import_s"] = [i for i, _ in probes]
        record["probe_kernel_s"] = [k for _, k in probes]
        record["probe_drift"] = wl.calibrator.drift([k for _, k in probes])
        raw = pass_metrics(passes, [[1.0] * len(p.items) for p in passes], wl.pool_passes)
        record["raw_metrics"] = raw
        # times in reference seconds (see calibrate.py): each import scaled by
        # the kernel of its own probe, the builds by the run's kernel median,
        # each item by the samples nearest to it, each pass by its items
        scales = item_scales(passes, wl.calibrator)
        record["pass_scales"] = [pass_scale(p, ss) for p, ss in zip(passes, scales)]
        imports = [i * calibrate.REFERENCE_S / k for i, k in probes]
        values = {"setup_s": statistics.median(imports) + statistics.median(builds) * wl.calibrator.scale()}
        values.update(pass_metrics(passes, scales, wl.pool_passes))
        values["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        units = END_TO_END_UNITS
    cal = wl.calibrator
    record["calibration"] = {
        "reference_s": calibrate.REFERENCE_S,
        "samples": len(cal.samples),
        "median_s": statistics.median(cal.samples),
        "scale": cal.scale(),
        "baseline_s": cal.baseline,
        "drift": cal.drift(),
    }
    record["metrics"] = values
    with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)

    for name, value in values.items():
        raw = record.get("raw_metrics", {}).get(name)
        print(f"{name} = {value!r} {units[name]}" + (f" (raw {raw!r})" if raw is not None else ""))
    print(f"fail_share = {record['fail_share']!r} ratio ({len(failed)}/{len(items)} items)")
    if tail:
        print(f"item_tail_ms is p{tail[1]:.2f} of {tail[2]} items; "
              f"groups of passes: {record['item_tail_groups']}")
    if args.trace:
        print(f"tracing overhead = {record['tracing_overhead_s']!r} s per pass")
    drifts = {"in-run": cal.drift()}
    if "probe_drift" in record:
        drifts["import probes"] = record["probe_drift"]
    for where, drift in drifts.items():
        print(f"calibration drift ({where}) = {drift!r} (kernel median / baseline before import)")
        if drift > calibrate.DRIFT_WARN:
            print(f"WARNING: the calibration kernel ran {drift:.2f}x slower ({where}) than before "
                  "killdiff loaded; compare the raw times")
    for miss in wl.band_misses:
        print("KNOWN DEFECT, MC Euler exit bias (not a failure): "
              + ", ".join(f"{k}={v!r}" for k, v in miss.items()))
    for it in failed[:5]:
        print(f"FAILED {it.label}: {'; '.join(it.problems)}")
    for problem in wl.problems:
        print(f"FAILED run: {problem}")
    print(json.dumps({
        "correct": not failed and not wl.problems,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
