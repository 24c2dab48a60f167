"""Recompute the search references by naive exhaustive enumeration.

For each lattice below, every subset of the fundamental domain with an even
number k = 2, 4, ... of members is checked with the reference checker, at the
lattice's own period (no index-2 refinement, as in ``kinglpds search``),
until some k admits a valid set.  The result is the minimum k, the number of
subsets rejected at each smaller k, and every optimum up to translation.

The 18-cell lattices need this: the 8/37 density bound only shows k >= 4
there, while the minimum is 6.  The 16-cell lattice is included because it
is cheap and makes its optimum list checkable too.

    python3 bench/enumerate_refs.py            # print the references
    python3 bench/enumerate_refs.py --write    # rewrite bench/search_refs.json
    python3 bench/enumerate_refs.py --check    # exit 1 unless the file agrees
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import refcheck as rc

HERE = Path(__file__).resolve().parent
REFS = HERE / "search_refs.json"

LATTICES = [((6, 0), (0, 3)), ((3, 0), (0, 6)), ((4, 0), (0, 4))]


def lattice_id(u, v) -> str:
    return "%d,%d,%d" % rc.hermite([u, v])


def enumerate_lattice(u, v) -> dict:
    torus = rc.Torus(u, v)
    cells = list(torus.reps().values())
    index = {torus.key(p): i for i, p in enumerate(cells)}
    closed = [
        sum(1 << index[torus.key(rc.add(p, s))] for s in rc.CLOSED) for p in cells
    ]
    rejected = {}
    for k in range(2, len(cells) + 1, 2):
        keys = set()
        subsets = 0
        for combo in itertools.combinations(range(len(cells)), k):
            subsets += 1
            mask = sum(1 << i for i in combo)
            if not all(m & mask for m in closed):
                continue  # undominated: no need for the full check
            pat = rc.PeriodicSet(u, v, tuple(cells[i] for i in combo))
            if rc.check_periodic(pat, refine=False).valid:
                keys.add(rc.translation_key(pat))
        if keys:
            return {
                "lattice": [list(u), list(v)],
                "cells": len(cells),
                "min_k": k,
                "rejected_subsets": rejected,
                "subsets_at_min_k": subsets,
                "optima": sorted(keys),
            }
        rejected[str(k)] = subsets
    raise RuntimeError(f"no valid set on lattice {u} {v}")


def compute() -> dict:
    out = {}
    for u, v in LATTICES:
        t = time.perf_counter()
        out[lattice_id(u, v)] = enumerate_lattice(u, v)
        print(f"lattice u={u} v={v}: k={out[lattice_id(u, v)]['min_k']}"
              f" optima={len(out[lattice_id(u, v)]['optima'])}"
              f" ({time.perf_counter() - t:.1f} s)", file=sys.stderr)
    return out


def load() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite search_refs.json")
    mode.add_argument("--check", action="store_true", help="compare with search_refs.json")
    args = ap.parse_args()
    refs = compute()
    text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    if args.write:
        REFS.write_text(text, encoding="utf-8")
    elif args.check:
        if load() != refs:
            print("search_refs.json disagrees with the enumeration", file=sys.stderr)
            return 1
        print("search_refs.json agrees with the enumeration")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
