#!/usr/bin/env python3
"""Run the full randomized local-model battery plus the orbital-convexity
probe, with a fixed seed.  Prints one line per suite, with its seconds of
wall-clock time."""
from __future__ import annotations

import argparse
import time

from momentcut.batteries import ALL_BATTERIES
from momentcut.errors import PreconditionError
from momentcut.localmodel import (
    LinearAction,
    default_spec,
    orbital_convexity_probe,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    for battery in ALL_BATTERIES.values():
        start = time.perf_counter()
        rep = battery(trials=args.trials, seed=args.seed)
        status = "ok" if rep.ok else f"{rep.failures} FAILURES"
        print(f"{rep.name:18s} trials={rep.trials:5d} worst={rep.worst_residual:9.2e} "
              f"tol={rep.tolerance:g}  {time.perf_counter() - start:6.2f}s  {status}")

    for weights in [(-1, 1), (-2, 3), (-1, -1, 2), (-2, 1, 1, 0)]:
        action = LinearAction(weights)
        eps_prime = 0.25
        while True:
            try:
                spec = default_spec(action, 0.5, eps_prime)
                break
            except PreconditionError:
                eps_prime /= 2
        start = time.perf_counter()
        rep = orbital_convexity_probe(action, spec, trials=max(100, args.trials // 5),
                                      seed=args.seed)
        status = "ok" if rep.ok else "FAILURES"
        print(f"convexity {str(weights):12s} trials={rep.trials:5d} "
              f"reentries={rep.reentries} clause_failures={rep.exit_clause_failures} "
              f"grid=({rep.grid_points} pts over +-{rep.t_span})  "
              f"{time.perf_counter() - start:6.2f}s  {status}")
    print(f"total {time.perf_counter() - t0:.1f}s (seed {args.seed})")


if __name__ == "__main__":
    main()
