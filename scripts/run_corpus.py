#!/usr/bin/env python3
"""Sweep the bundled polytope corpus: validation, volumes, density profiles,
log-concavity and strict-minimum scans, and wall checks.  Everything printed
is exact.

The walls column counts the interior critical values whose wall check
answers ok / is refused (a zero weight or several negative weights); an
ok: false answer stops the sweep."""
from __future__ import annotations

import argparse
import time

from momentcut.corpus import delzant_corpus
from momentcut.dh import (
    check_log_concavity,
    dh_profile,
    find_strict_local_minima,
    wall_crossing_check,
)
from momentcut.errors import WallNotSimpleCrossing
from momentcut.lattice import format_rational
from momentcut.polytope import validate, vertices, volume


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    print(f"{'name':22s} {'dim':>3s} {'facets':>6s} {'verts':>5s} "
          f"{'volume':>9s} {'chambers':>8s} {'log-concave':>11s} {'minima':>6s} {'walls':>5s} {'s':>6s}")
    for name, P in delzant_corpus():
        t0 = time.perf_counter()
        assert validate(P).valid, name
        nverts = len(vertices(P))
        vol = volume(P)
        if P.dim >= 2:
            prof = dh_profile(P)
            assert prof.total_integral() == vol
            concave = check_log_concavity(prof).ok
            minima = len(find_strict_local_minima(prof))
            chambers = len(prof.chambers)
            walls = [0, 0]
            for a in prof.walls[1:-1]:
                try:
                    assert wall_crossing_check(P, a).ok, (name, a)
                    walls[0] += 1
                except WallNotSimpleCrossing:
                    walls[1] += 1
        else:
            concave, minima, chambers, walls = True, 0, 0, [0, 0]
        dt = time.perf_counter() - t0
        print(f"{name:22s} {P.dim:>3d} {len(P.facets):>6d} {nverts:>5d} "
              f"{format_rational(vol):>9s} {chambers:>8d} {str(concave):>11s} "
              f"{minima:>6d} {f'{walls[0]}/{walls[1]}':>5s} {dt:>5.2f}s")


if __name__ == "__main__":
    main()
