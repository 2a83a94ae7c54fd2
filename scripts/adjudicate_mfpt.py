#!/usr/bin/env python3
"""Adjudicate the sign combination in the conditional mean-kill-time closed
form against the Laplace-derivative oracle over a (x1, y, V) grid, and
optionally against Monte Carlo conditional means.

Usage: python scripts/adjudicate_mfpt.py [--mc] [--seed N]
"""

import argparse
import math

from killdiff import crosscheck, montecarlo
from killdiff.model import KillingMeasure, interval

PI = math.pi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mc", action="store_true", help="also run Monte Carlo checks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=8000)
    args = parser.parse_args()

    verdict = crosscheck.adjudicate_conditional_mfpt()
    print(f"{'x1':>8} {'y':>8} {'V':>5} {'oracle':>12} " + " ".join(f"{k:>14}" for k in verdict.table[0][4]))
    for x1, y, V, oracle, values in verdict.table:
        print(
            f"{x1:8.4f} {y:8.4f} {V:5.1f} {oracle:12.6f} "
            + " ".join(f"{v:14.6f}" for v in values.values())
        )
    print(f"\nverdict: E[T | killed] = {verdict.sign_combination}")

    if args.mc:
        print("\nMonte Carlo conditional kill-time means (V > 0 rows):")
        model = interval(PI)
        for x1, y, V, oracle, _ in verdict.table:
            if V == 0:
                continue
            killing = KillingMeasure.dirac([(x1, V)])
            cfg = montecarlo.McConfig(dt=2e-3, n_trajectories=args.n, seed=args.seed)
            stats = montecarlo.simulate_split(model, killing, y, cfg)
            dev = (stats.mean_kill_time - oracle) / stats.mean_kill_time_se
            print(
                f"  x1={x1:.4f} y={y:.4f} V={V:4.1f}: mc={stats.mean_kill_time:.4f}"
                f" +- {stats.mean_kill_time_se:.4f}, oracle={oracle:.4f} ({dev:+.1f} sigma)"
            )


if __name__ == "__main__":
    main()
