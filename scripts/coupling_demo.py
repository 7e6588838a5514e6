#!/usr/bin/env python3
"""Coupled replications of the tandem pair with live flow counters.

Runs the marching-soldiers coupling of the balanced and original
variants from an empty start, checks the cumulative-flow ordering at
every event, and prints the final counters per replication.
"""

import argparse

from floworder import (
    TandemParams,
    build_balanced_tandem,
    build_original_tandem,
    pathwise_flow_order_check,
    replication_seed,
    simulate_coupled,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s1", type=int, default=3)
    ap.add_argument("--s2", type=int, default=3)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--horizon", type=float, default=50.0)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = TandemParams.linear(args.s1, args.s2, args.beta)
    balanced, original = build_balanced_tandem(params), build_original_tandem(params)
    init = (0,) * 2

    print(f"tandem pair s=({args.s1},{args.s2}) beta={args.beta} "
          f"horizon={args.horizon} reps={args.reps}")
    print(f"{'rep':>4} {'events':>7} {'accepted':>12} {'transferred':>12} "
          f"{'departed':>12} {'violations':>11}")
    total_violations = 0
    for k in range(args.reps):
        log = simulate_coupled(
            balanced, original, init, init, args.horizon, replication_seed(args.seed, k)
        )
        violations = pathwise_flow_order_check(log)
        total_violations += len(violations)
        fa, fb = log.flows("a")[-1].tolist(), log.flows("b")[-1].tolist()
        cells = [f"{a}/{b}" for a, b in zip(fa, fb)]
        print(f"{k:>4} {len(log.times):>7} {cells[0]:>12} {cells[1]:>12} "
              f"{cells[2]:>12} {len(violations):>11}")
    print(f"counters shown as balanced/original; "
          f"total ordering violations: {total_violations}")


if __name__ == "__main__":
    main()
