"""Metric arithmetic of the benchmark: the latency tail rule, Monte Carlo
work counts rebuilt from trajectory outcomes, and the per-layer metrics
computed from a list of spans.  Pure Python, so it imports nothing heavy."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from spans import Span, self_times

# every per-layer metric: name -> unit.  A layer a workload does not reach
# reads 0.
LAYER_UNITS: Dict[str, str] = {
    "crosscheck.rows_failed": "count",
    "cli.self_s": "s",
    "fpe.split_s": "s",
    "fpe.evolve_s": "s",
    "fpe.ns_per_cell_step": "ns",
    "fpe.steady_ms": "ms",
    "fpe.green_ms": "ms",
    "fpe.decay_ms": "ms",
    "montecarlo.simulate_s": "s",
    "montecarlo.traj_steps": "count",
    "montecarlo.loop_iters": "count",
    "montecarlo.live_per_iter": "ratio",
    "montecarlo.ns_per_traj_step": "ns",
    "montecarlo.worker_imbalance": "ratio",
    "analytic.series_ms": "ms",
    "analytic.closed_ms": "ms",
    "numerics.series_s": "s",
    "numerics.series_calls": "count",
    "numerics.tridiag_s": "s",
}

ANALYTIC_SERIES = {
    "analytic.green_series",
    "analytic.survival_series_free",
    "analytic.green_laplace_series",
    "analytic.green_laplace",
    "analytic.survival_laplace_free",
    "analytic.survival_laplace_dirac",
}


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile that still has at least 10 samples above it.

    Returns (value, percentile, sample count), or None below 11 samples.
    With n samples sorted ascending that is the one at 0-based rank n - 11,
    the (n - 10)/n quantile: p99 at n = 1000, p50 at n = 20."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def worker_counts(n_trajectories: int, workers: int) -> List[int]:
    """Trajectories per worker, in worker order, as `simulate_outcomes`
    splits them (workers with none are not started)."""
    counts = [n_trajectories // workers] * workers
    for w in range(n_trajectories % workers):
        counts[w] += 1
    return [c for c in counts if c > 0]


def mc_counts(times: Iterable[float], dt: float, n_trajectories: int, workers: int) -> dict:
    """Exact work of one `simulate_outcomes` call from its outcome times.

    A trajectory ending at step s (time s*dt) was advanced in loop
    iterations 1..s of its worker, so it did s trajectory-steps; a worker's
    loop runs as many iterations as its longest trajectory has steps."""
    steps = [round(t / dt) for t in times]
    if len(steps) != n_trajectories:
        raise ValueError(f"{len(steps)} outcomes for {n_trajectories} trajectories")
    per_worker = []
    lo = 0
    for count in worker_counts(n_trajectories, workers):
        per_worker.append(max(steps[lo : lo + count]))
        lo += count
    return {
        "traj_steps": sum(steps),
        "loop_iters": sum(per_worker),
        "worker_iters": per_worker,
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_units(scenarios: Sequence[str]) -> Dict[str, str]:
    return dict({f"crosscheck.scenario_s.{name}": "s" for name in scenarios}, **LAYER_UNITS)


def layer_metrics(spans: List[Span], passes: int, scenarios: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.  Totals are per pass; `_ms`
    metrics and a scenario's time are medians per call.  Spans outside any
    item are ignored, except the `run_matrix` calls that hold the items."""
    rows_failed = sum(s.attrs.get("rows_failed", 0) for s in spans if s.name == "crosscheck.run_matrix")
    spans = [s for s in spans if s.item is not None]
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in spans}

    def total(*keys: str) -> float:
        return sum(s.duration for k in keys for s in by_name.get(k, ()))

    def per_call_ms(key: str) -> float:
        return 1e3 * _median([s.duration for s in by_name.get(key, ())])

    own = self_times(spans)
    out: Dict[str, float] = {k: 0.0 for k in layer_units(scenarios)}
    for name in scenarios:
        # a matrix item is one scenario, labelled by its name
        times = [s.duration for s in by_name.get("item", ()) if s.item == name]
        out[f"crosscheck.scenario_s.{name}"] = _median(times)
    out["crosscheck.rows_failed"] = rows_failed / passes
    out["cli.self_s"] = sum(own[s.id] for s in by_name.get("cli.main", ())) / passes

    pde = by_name.get("fpe.split_statistics", []) + by_name.get("fpe.evolve", [])
    out["fpe.split_s"] = total("fpe.split_statistics") / passes
    out["fpe.evolve_s"] = total("fpe.evolve") / passes
    cell_steps = sum(s.attrs["cell_steps"] for s in pde)
    if cell_steps:
        out["fpe.ns_per_cell_step"] = 1e9 * sum(s.duration for s in pde) / cell_steps
    out["fpe.steady_ms"] = per_call_ms("fpe.steady_state")
    out["fpe.green_ms"] = per_call_ms("fpe.green_steady")
    out["fpe.decay_ms"] = per_call_ms("fpe.decay_rate")

    mc = by_name.get("montecarlo.simulate_outcomes", [])
    traj_steps = sum(s.attrs["traj_steps"] for s in mc)
    loop_iters = sum(s.attrs["loop_iters"] for s in mc)
    out["montecarlo.simulate_s"] = total("montecarlo.simulate_outcomes") / passes
    out["montecarlo.traj_steps"] = traj_steps / passes
    out["montecarlo.loop_iters"] = loop_iters / passes
    if loop_iters:
        out["montecarlo.live_per_iter"] = traj_steps / loop_iters
        out["montecarlo.ns_per_traj_step"] = 1e9 * sum(s.duration for s in mc) / traj_steps
        mean_iters = sum(s.attrs["loop_iters"] / len(s.attrs["worker_iters"]) for s in mc)
        out["montecarlo.worker_imbalance"] = (
            sum(max(s.attrs["worker_iters"]) for s in mc) / mean_iters
        )

    # outermost analytic calls only: a series call nests further series calls
    outer = [
        s for s in spans
        if s.name.startswith("analytic.")
        and not names.get(s.parent, "").startswith("analytic.")
    ]
    out["analytic.series_ms"] = 1e3 * _median(
        [s.duration for s in outer if s.name in ANALYTIC_SERIES]
    )
    out["analytic.closed_ms"] = 1e3 * _median(
        [s.duration for s in outer if s.name not in ANALYTIC_SERIES]
    )
    out["numerics.series_s"] = total("numerics.sum_with_tail_bound") / passes
    out["numerics.series_calls"] = len(by_name.get("numerics.sum_with_tail_bound", ())) / passes
    out["numerics.tridiag_s"] = total("numerics.solve_tridiagonal") / passes
    return out
