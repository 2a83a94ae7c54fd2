#!/usr/bin/env python3
"""Run every workload once and print every metric by name, with its unit.

    python3 bench/report.py --seed 0 [--seconds 10] [--trace 0|1]

Each workload runs in its own `bench/run.py` process (set-up time includes
the import), one after the other.  Exits 1 if any workload's outputs fail
their checks.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("matrix", "pde-decay", "mc-parallel", "channel-sweep")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record_path = os.path.join(
            os.path.dirname(BENCH), ".bench_out", f"{name}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(record_path) as f:
            record = json.load(f)
        ok &= result["correct"]
        print(f"[{name}] correct={result['correct']} items={result['attempted']} "
              f"passes={record['passes']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'fail_share':<40} {record['fail_share']:>16.6g} ratio")
        if not args.trace:
            print(f"  {'item_tail_percentile':<40} {record['item_tail_percentile']:>16.6g} "
                  f"% of {record['item_tail_samples']} items")
            print(f"  {'child_peak_rss_mb':<40} {record['child_peak_rss_mb']:>16.6g} MB")
            print(f"  {'calibration_drift':<40} {record['calibration']['drift']:>16.6g} ratio")
        else:
            print(f"  {'tracing_overhead_s':<40} {record['tracing_overhead_s']:>16.6g} s")
        print(f"  {'euler_band_misses':<40} {len(record['euler_band_misses']):>16d} count")
        for failure in record["failures"][:5]:
            print(f"  FAILED {failure['item']}: {'; '.join(failure['problems'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
