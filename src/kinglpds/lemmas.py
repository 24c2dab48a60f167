"""Mechanical checks of the local structure claims behind the charge rules.

Each claim says: around a member with a fixed partner (or around two members
in a fixed relative position), every assignment of membership to nearby cells
either satisfies a stated conclusion or already contains a visible violation
of the defining properties.  The checkers enumerate all assignments over a
window, so a "holds" verdict is an exhaustive case analysis, not a sample.

A configuration only counts as a refutation when the conclusion fails AND no
violation certificate is fully visible inside the window, AND the visible
members admit the matching the pairing property demands.  Certificates are
conservative: an equal-neighborhood pair needs both cells plus the symmetric
difference of their neighborhoods decided and member-free (cells shared by
both neighborhoods cannot separate them, so they may stay unknown); a cell
with no member neighbor (undominated, or a member left unpaired) needs its 8
neighbors decided and member-free.
Cells outside the window are unknown, and a real extension could only add
members there, which breaks certificates but never creates them — so relying
only on in-window certificates errs on the side of reporting counterexamples,
never on the side of a false "holds".

The rate claims are not geometric: they quantify over count vectors
(pair kind, i0, p0..p3) allowed by the structure lemmas, so they are checked
by direct enumeration of those vectors with exact arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .discharge import HALF, pendant_rate
from .grid import (
    BLOCK, D4, OPEN, Point, apply, closed_neighborhood, common_neighbors, file_locks, locks,
    neighbors,
)
from .pattern import FiniteWindow, serialize_window
from .verify import saturates


@dataclass
class LemmaVerdict:
    target: str
    verdict: str  # "holds" | "counterexample" | "inconclusive"
    configs_examined: int
    elapsed_ms: float
    witness: str | None = None

    def line(self) -> str:
        if self.verdict == "holds":
            return (
                f"{self.target} holds configs={self.configs_examined}"
                f" elapsed={int(self.elapsed_ms)}ms"
            )
        return f"{self.target} {self.verdict}"


# ---------------------------------------------------------------------------
# window enumeration engine
# ---------------------------------------------------------------------------

class _Found(Exception):
    pass


class _Budget(Exception):
    pass


class _WindowSearch:
    """DFS over in/out assignments of a square window.

    Cells are numbered in the order the search visits them: the endpoints of
    ``forced_pairs`` (members before the search starts, the bits below
    ``start``), then ``early_cells``, then the rest center-outward, so bit i
    is decided at depth i.  Hooks: ``safe(engine)`` prunes a branch once the
    claim can no longer be refuted in any completion; ``fails(engine)``
    decides the conclusion at a fully assigned leaf.  Certificate locks prune
    any branch whose decided cells already force a visible violation in every
    completion.
    """

    def __init__(
        self,
        radius: int,
        forced_pairs: list[tuple[Point, Point]],
        node_budget: int | None = None,
        early_cells: list[Point] | None = None,
    ):
        self.radius = radius
        box = sorted(
            ((x, y) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)),
            key=lambda p: (max(abs(p[0]), abs(p[1])), p[1], p[0]),
        )
        forced = list(dict.fromkeys(p for pair in forced_pairs for p in pair))
        # claim-relevant cells first lets prunes and locks fire at shallow depth
        self.cells = list(dict.fromkeys(forced + (early_cells or []) + box))
        self.start = len(forced)
        self.index = {p: i for i, p in enumerate(self.cells)}
        # where each BLOCK offset of a cell lands; None outside the window
        land = [
            [self.index.get((p[0] + dx, p[1] + dy)) for dx, dy in BLOCK] for p in self.cells
        ]
        self.nbr_idx = [[row[k] for k in OPEN if row[k] is not None] for row in land]
        self.node_budget = node_budget
        self.configs = 0
        self.witness: FiniteWindow | None = None

        self.in_mask = (1 << self.start) - 1
        self.out_mask = 0
        self.ncount = [0] * len(self.cells)
        for i in range(self.start):
            for j in self.nbr_idx[i]:
                self.ncount[j] += 1

        # The certificate locks of the interior cells.  A lock holding a
        # forced member never fires and is dropped; every other lock is
        # decided at its highest cell.
        rows = [
            (i, land[i])
            for i, p in enumerate(self.cells)
            if max(abs(p[0]), abs(p[1])) < radius
        ]
        deps = [dep for dep in locks(rows, {i for i, _ in rows}) if not dep & self.in_mask]
        self.locks_at = file_locks(deps, len(self.cells))

    # -- leaf handling -------------------------------------------------------

    def _extendable(self) -> bool:
        """Can the visible members be matched as pairing demands?

        Members whose whole neighborhood is inside the window need an adjacent
        member partner here and now; others could pair with the unknown
        exterior.  Forced pairs are honored verbatim.
        """
        free = [p for i, p in enumerate(self.cells) if i >= self.start and self.in_mask >> i & 1]
        inner = self.radius - 1
        required = {p for p in free if max(abs(p[0]), abs(p[1])) <= inner}
        return not required or saturates(free, required)

    def _leaf(self, fails: Callable) -> None:
        if not fails(self):
            return
        if not self._extendable():
            return
        pts = frozenset(p for i, p in enumerate(self.cells) if self.in_mask >> i & 1)
        r = self.radius
        self.witness = FiniteWindow(-r, r, -r, r, pts)
        raise _Found

    # -- search --------------------------------------------------------------

    def run(self, safe: Callable, fails: Callable) -> tuple[str, FiniteWindow | None]:
        if safe(self):
            return "holds", None
        try:
            self._dfs(self.start, safe, fails)
        except _Found:
            return "counterexample", self.witness
        except _Budget:
            return "inconclusive", None
        return "holds", None

    def _dfs(self, pos: int, safe: Callable, fails: Callable) -> None:
        self.configs += 1
        if self.node_budget is not None and self.configs > self.node_budget:
            raise _Budget
        if pos == len(self.cells):
            self._leaf(fails)
            return
        bit = 1 << pos

        self.out_mask |= bit
        out = self.out_mask
        for dep in self.locks_at[pos]:
            if out & dep == dep:
                break
        else:
            if not safe(self):
                self._dfs(pos + 1, safe, fails)
        self.out_mask ^= bit

        self.in_mask |= bit
        nc = self.ncount
        for j in self.nbr_idx[pos]:
            nc[j] += 1
        if not safe(self):
            self._dfs(pos + 1, safe, fails)
        for j in self.nbr_idx[pos]:
            nc[j] -= 1
        self.in_mask ^= bit


def _check(target: str, cases: list[tuple], node_budget: int | None) -> LemmaVerdict:
    """Run the cases in turn and report the first that does not hold.

    A case is ``(radius, forced_pairs, make_hooks, early_cells)``, where
    ``make_hooks(engine)`` returns the ``(safe, fails)`` hooks.  Each case
    gets what is left of the budget, so a claim holds under a budget of N
    only when all its cases together examine at most N configs.
    """
    start = time.perf_counter()
    total = 0
    for radius, forced_pairs, make_hooks, early_cells in cases:
        left = None if node_budget is None else node_budget - total
        engine = _WindowSearch(radius, forced_pairs, left, early_cells)
        verdict, witness = engine.run(*make_hooks(engine))
        total += engine.configs
        del engine  # free its tables before the next case builds its own
        if verdict != "holds":
            return LemmaVerdict(
                target,
                verdict,
                total,
                1000 * (time.perf_counter() - start),
                witness=None if witness is None else serialize_window(witness),
            )
    return LemmaVerdict(target, "holds", total, 1000 * (time.perf_counter() - start))


# ---------------------------------------------------------------------------
# structure lemma, parts 1-3
# ---------------------------------------------------------------------------

_FAR_PARTNER = (1, 1)
_CLOSE_PARTNER = (1, 0)
_CENTER = (0, 0)


def _pendants_of(v: Point, m: Point) -> list[Point]:
    return sorted(set(neighbors(v)) - closed_neighborhood(m))


def _part1_hooks(v: Point, m: Point):
    def make(engine: _WindowSearch):
        pend = [engine.index[p] for p in _pendants_of(v, m)]
        nc = engine.ncount

        def safe(e: _WindowSearch) -> bool:
            inm = e.in_mask
            can = 0
            for i in pend:
                if nc[i] == 1 and not inm >> i & 1:
                    can += 1
            return can <= 1

        def fails(e: _WindowSearch) -> bool:
            out = e.out_mask
            t1 = 0
            for i in pend:
                if nc[i] == 1 and out >> i & 1:
                    t1 += 1
            return t1 >= 2

        return safe, fails

    return make


def _part2_hooks(v: Point, m: Point):
    def make(engine: _WindowSearch):
        intv = [engine.index[p] for p in common_neighbors(v, m)]
        nc = engine.ncount
        assert all(nc[i] >= 2 for i in intv), "interval cells must see the fixed pair"

        def safe(e: _WindowSearch) -> bool:
            inm = e.in_mask
            can2 = 0
            for i in intv:
                if nc[i] == 2 and not inm >> i & 1:
                    can2 += 1
            return can2 <= 1

        def fails(e: _WindowSearch) -> bool:
            out = e.out_mask
            t2 = 0
            for i in intv:
                if out >> i & 1:
                    if nc[i] == 1:
                        return True
                    if nc[i] == 2:
                        t2 += 1
            return t2 >= 2

        return safe, fails

    return make


def _part3_hooks(v: Point, m: Point):
    def make(engine: _WindowSearch):
        pend = [engine.index[p] for p in _pendants_of(v, m)]
        pend_mask = sum(1 << i for i in pend)
        nc = engine.ncount

        def safe(e: _WindowSearch) -> bool:
            if e.in_mask & pend_mask:
                return True
            for i in pend:
                if nc[i] >= 3:
                    return True
            return False

        def fails(e: _WindowSearch) -> bool:
            if e.out_mask & pend_mask != pend_mask:
                return False
            for i in pend:
                if nc[i] >= 3:
                    return False
            return True

        return safe, fails

    return make


def check_lemma1(part: int, node_budget: int | None = None) -> LemmaVerdict:
    """Exhaustively confirm one part of the per-member structure lemma.

    Part 1: at most one pendant of any member has a unique member neighbor.
    Part 2: no common neighbor of a pair has a unique member neighbor, and at
            most one has exactly two.
    Part 3: a diagonally paired member has a pendant that is a member or has
            three or more member neighbors.

    Parts 1-2 need only the pair kind, so one diagonal and one orthogonal
    partner position cover everything up to symmetry; part 3 concerns
    diagonal pairs only and needs the larger window because refutations are
    excluded by certificates among second-ring cells.
    """
    return _check(f"lemma1.{part}", _lemma1_cases(part), node_budget)


def _lemma1_cases(part: int) -> list[tuple]:
    if part == 1:
        cases = [(_FAR_PARTNER, 2, _part1_hooks), (_CLOSE_PARTNER, 2, _part1_hooks)]
    elif part == 2:
        cases = [(_FAR_PARTNER, 2, _part2_hooks), (_CLOSE_PARTNER, 2, _part2_hooks)]
    elif part == 3:
        cases = [(_FAR_PARTNER, 3, _part3_hooks)]
    else:
        raise ValueError(f"unknown part {part}")
    return [(radius, [(_CENTER, m)], hooks(_CENTER, m), None) for m, radius, hooks in cases]


# ---------------------------------------------------------------------------
# rate claims (count-vector enumeration)
# ---------------------------------------------------------------------------

def _count_vectors() -> list[tuple[str, int, int, int, int, int]]:
    """All (kind, i0, p0, p1, p2, p3) allowed by the structure lemma.

    Diagonal pairs have 5 pendants and 2 common neighbors, orthogonal pairs 3
    and 4.  Part 1 caps p1 at one; part 3 forces p0 + p3 >= 1 for diagonal
    pairs (a member-or-interval pendant, or a tier-3 one).
    """
    out = []
    for kind, np_, ni in (("far", 5, 2), ("close", 3, 4)):
        for i0 in range(ni + 1):
            for p0 in range(np_ + 1):
                for p1 in range(min(1, np_ - p0) + 1):
                    for p2 in range(np_ - p0 - p1 + 1):
                        p3 = np_ - p0 - p1 - p2
                        if kind == "far" and p0 + p3 < 1:
                            continue
                        out.append((kind, i0, p0, p1, p2, p3))
    return out


def check_r_claims(node_budget: int | None = None) -> list[LemmaVerdict]:
    """Confirm the two facts about the round-2 rate by count enumeration.

    Half-rate: the rate is exactly 1/2 for orthogonal pairs, for members with
    a member-or-interval pendant or a member common neighbor, and for members
    with no tier-1 pendant.  Lower bound: the rate is always at least
    (p3 - 1) / (2 p3).  A claim is inconclusive when the count vectors
    outnumber ``node_budget``.
    """
    vectors = _count_vectors()
    claims = (
        (
            "r-half",
            lambda kind, i0, p0, p1, p2, p3: not (kind == "close" or p0 + i0 >= 1 or p1 == 0)
            or pendant_rate(kind, i0, p1, p2, p3) == HALF,
        ),
        (
            "r-lowerbound",
            lambda kind, i0, p0, p1, p2, p3: p3 == 0
            or pendant_rate(kind, i0, p1, p2, p3) >= Fraction(p3 - 1, 2 * p3),
        ),
    )
    out = []
    for target, holds in claims:
        start = time.perf_counter()
        if node_budget is not None and len(vectors) > node_budget:
            verdict, examined, witness = "inconclusive", 0, None
        else:
            bad = next((v for v in vectors if not holds(*v)), None)
            verdict = "holds" if bad is None else "counterexample"
            examined = len(vectors)
            witness = None if bad is None else f"counts {bad}"
        elapsed = 1000 * (time.perf_counter() - start)
        out.append(LemmaVerdict(target, verdict, examined, elapsed, witness))
    return out


# ---------------------------------------------------------------------------
# adjacent-members rate sum
# ---------------------------------------------------------------------------

def _adjacent_sum_case(v1: Point, m1: Point, v2: Point, m2: Point) -> tuple:
    # decide claim-relevant cells first: pendants and intervals of both
    # members (in-branches prune instantly there), then the cells that fix
    # pendant tiers; certificate locks then kill every branch early
    core: list[Point] = []
    for v, m in ((v1, m1), (v2, m2)):
        for p in _pendants_of(v, m) + sorted(common_neighbors(v, m)):
            if p not in core:
                core.append(p)
    rim: list[Point] = []
    for v, m in ((v1, m1), (v2, m2)):
        for p in _pendants_of(v, m):
            for q in neighbors(p):
                if q not in core and q not in rim:
                    rim.append(q)
    early = core + sorted(
        rim, key=lambda p: (max(abs(p[0]), abs(p[1])), p[1], p[0])
    )

    def make(engine: _WindowSearch):
        idx = engine.index
        nc = engine.ncount
        def_i = frozenset(
            idx[p] for p in set(common_neighbors(v1, m1)) | set(common_neighbors(v2, m2))
        )
        # per side: pendants, intervals, the pendants that can be tier 3
        # (not an interval of either pair) and the mask of pendants and
        # intervals, any member of which grants the side the half rate
        sides = []
        for v, m in ((v1, m1), (v2, m2)):
            pend = [idx[p] for p in _pendants_of(v, m)]
            intv = [idx[p] for p in common_neighbors(v, m)]
            free = [i for i in pend if i not in def_i]
            sides.append((pend, intv, free, sum(1 << i for i in pend + intv)))

        def side_rate(inm: int, pend, intv) -> Fraction:
            i0 = 0
            for i in intv:
                if inm >> i & 1:
                    i0 += 1
            p = [0, 0, 0, 0]
            for i in pend:
                if inm >> i & 1 or i in def_i:
                    p[0] += 1
                else:
                    p[min(nc[i], 3)] += 1
            return pendant_rate("far", i0, p[1], p[2], p[3])

        def safe(e: _WindowSearch) -> bool:
            # each side's least possible rate in quarters: 2 (the half rate)
            # with a member pendant or interval, 1 once two decided tier-3
            # pendants leave at most one possible tier-1 pendant, else 0
            inm, out = e.in_mask, e.out_mask
            quarters = 0
            for pend, _, free, touch in sides:
                if inm & touch:
                    quarters += 2
                    continue
                p3min = 0
                for i in free:
                    if nc[i] >= 3 and out >> i & 1:
                        p3min += 1
                if p3min < 2:
                    continue
                can_t1 = 0
                for i in pend:
                    if nc[i] == 1 and not inm >> i & 1:
                        can_t1 += 1
                if can_t1 <= 1:
                    quarters += 1
            return quarters >= 2

        def fails(e: _WindowSearch) -> bool:
            inm = e.in_mask
            return sum(side_rate(inm, pend, intv) for pend, intv, _, _ in sides) < HALF

        return safe, fails

    return 3, [(v1, m1), (v2, m2)], make, early


def check_adjacent_sum(node_budget: int | None = None) -> LemmaVerdict:
    """Members two apart on a grid line have round-2 rates summing to >= 1/2.

    Only outward diagonal partners are enumerated: an orthogonal partner gives
    its member rate 1/2 outright, and a partner adjacent to the other member
    hands that member a member pendant-or-interval, which also forces 1/2;
    rates are never negative, so those cases cannot refute the claim.  Both
    the horizontal placement and its 90-degree rotation are checked.
    """
    return _check("adjacent-sum", _adjacent_sum_cases(), node_budget)


def _adjacent_sum_cases() -> list[tuple]:
    cases = []
    for mat in (D4[0], D4[2]):  # the identity and the quarter turn
        v1, v2 = apply(mat, (1, 0)), apply(mat, (-1, 0))
        for m1_raw in ((2, 1), (2, -1)):
            for m2_raw in ((-2, 1), (-2, -1)):
                cases.append(_adjacent_sum_case(v1, apply(mat, m1_raw), v2, apply(mat, m2_raw)))
    return cases


# ---------------------------------------------------------------------------
# everything
# ---------------------------------------------------------------------------

def check_all(node_budget: int | None = None) -> list[LemmaVerdict]:
    out = [check_lemma1(part, node_budget) for part in (1, 2, 3)]
    out.extend(check_r_claims(node_budget))
    out.append(check_adjacent_sum(node_budget))
    return out
