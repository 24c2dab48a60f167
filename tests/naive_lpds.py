"""Naive reference checker and brute-force search oracle for the tests.

Shares no code with ``kinglpds.verify`` or ``kinglpds.search``: it unrolls the
torus into a box of world points and compares the member neighbourhoods of
all pairs in it, and it settles pairing by backtracking over member residues
(or, for a finite set, over members).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from kinglpds.pattern import (
    LatticeBasis,
    PeriodicPattern,
    serialize_pattern,
    translation_canonical,
)

MAX_ORACLE_DOMAIN = 16

_STEPS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]


@dataclass
class NaiveReport:
    undominated: set      # domain cells with no member in the closed neighbourhood
    collisions: set       # translation-normalized pairs of non-members that see the same members
    paired: bool          # perfect matching on the loop-free quotient, at the own period

    @property
    def dominated(self) -> bool:
        return not self.undominated

    @property
    def locating(self) -> bool:
        return self.dominated and not self.collisions

    @property
    def valid(self) -> bool:
        return self.locating and self.paired


def _normalized(basis: LatticeBasis, u, w):
    p, q = sorted((u, w))
    anchor = basis.reduce(p)
    return (anchor, (q[0] + anchor[0] - p[0], q[1] + anchor[1] - p[1]))


def _quotient(pattern: PeriodicPattern) -> dict:
    """Each member residue's member residues next to one of its translates."""
    basis = pattern.basis
    adj = {r: set() for r in pattern.base}
    for r in pattern.base:
        for dx, dy in _STEPS:
            q = basis.reduce((r[0] + dx, r[1] + dy))
            if q != r and q in adj:
                adj[r].add(q)
    return adj


def _has_perfect_matching(pattern: PeriodicPattern) -> bool:
    adj = _quotient(pattern)

    def match(free: frozenset) -> bool:
        if not free:
            return True
        v = min(free)
        return any(match(free - {v, w}) for w in adj[v] if w in free)

    return match(frozenset(pattern.base))


def perfect_matchings(pattern: PeriodicPattern) -> int:
    """Number of perfect matchings of the loop-free quotient, by backtracking.

    The least free residue is matched to each free residue next to one of its
    translates in turn.
    """
    adj = _quotient(pattern)

    def count(free: frozenset) -> int:
        if not free:
            return 1
        v = min(free)
        return sum(count(free - {v, w}) for w in adj[v] if w in free)

    return count(frozenset(pattern.base))


def naive_saturates(members, required) -> bool:
    """Does some matching among ``members`` (king steps) cover ``required``?

    Backtracking: the least uncovered required member is matched to each free
    member neighbour in turn.
    """
    def cover(free: frozenset, need: frozenset) -> bool:
        if not need:
            return True
        v = min(need)
        return any(
            cover(free - {v, w}, need - {v, w})
            for w in ((v[0] + dx, v[1] + dy) for dx, dy in _STEPS)
            if w in free
        )

    return cover(frozenset(members), frozenset(required))


def naive_check(pattern: PeriodicPattern, stop_early: bool = False) -> NaiveReport:
    """Decide the three properties from their definitions.

    Every non-member of the domain is compared with every non-member of the
    box that covers the domain with a margin of 3, which holds every cell a
    non-member could share a member with.  ``stop_early`` skips the later
    checks once one has failed (enough to decide ``valid``).
    """
    basis = pattern.basis
    member = lambda p: basis.reduce(p) in pattern.base
    seen = lambda p: frozenset(
        q for q in ((p[0] + dx, p[1] + dy) for dx, dy in _STEPS) if member(q)
    )
    domain = basis.domain_cells()
    undominated = {u for u in domain if not member(u) and not seen(u)}
    report = NaiveReport(undominated, set(), False)
    if stop_early and undominated:
        return report
    a, _, c = basis.hermite
    box = [
        (x, y)
        for x in range(-3, a + 3)
        for y in range(-3, c + 3)
        if not member((x, y))
    ]
    signature = {w: seen(w) for w in box}
    for u in domain:
        if member(u):
            continue
        for w in box:
            if w != u and signature[w] == signature[u]:
                report.collisions.add(_normalized(basis, u, w))
                if stop_early:
                    return report
    report.paired = _has_perfect_matching(pattern)
    return report


@dataclass
class OracleResult:
    status: str
    min_cardinality: int | None
    min_density: Fraction | None
    optima: tuple
    examined: int


def brute_force_oracle(basis: LatticeBasis, max_cardinality: int | None = None) -> OracleResult:
    """Reference answer by checking every even-size subset, smallest first.

    Optima are reported as ``kinglpds search`` reports them: one translation
    class each, in canonical form, sorted by their text.
    """
    cells = basis.cells
    if cells > MAX_ORACLE_DOMAIN:
        raise ValueError(f"oracle limited to {MAX_ORACLE_DOMAIN} cells, basis has {cells}")
    domain = basis.domain_cells()
    limit = cells if max_cardinality is None else min(max_cardinality, cells)
    examined = 0
    for k in range(2, limit + 1, 2):
        canon = {}
        for combo in itertools.combinations(domain, k):
            examined += 1
            pattern = PeriodicPattern.make(basis, combo)
            if naive_check(pattern, stop_early=True).valid:
                tc = translation_canonical(pattern)
                canon[serialize_pattern(tc)] = tc
        if canon:
            optima = tuple(canon[key] for key in sorted(canon))
            return OracleResult("optimumFound", k, Fraction(k, cells), optima, examined)
    return OracleResult("infeasible", None, None, (), examined)
