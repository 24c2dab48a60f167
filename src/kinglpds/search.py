"""Exact minimum-cardinality search over periodic patterns on a fixed lattice.

The search assigns membership to the residues of the fundamental domain,
deepening over even target cardinalities, so the first feasible cardinality
is the exact minimum.  Residues are visited in whichever of row-major,
column-major or breadth-first order (all from residue 0) gives the locks the
smallest total span, so locks close soonest.  Constraint checks fire at
deadlines: the last residue index on which a constraint depends.  A branch
is also cut when the members placed plus ``need[pos]``, a greedy packing of
disjoint locks among the undecided residues (made non-increasing in
``pos``), exceed the target.  Domination and locating are ``grid.locks``,
exact at their deadlines (separation of a vertex pair is translation
invariant, so one representative per pair orbit suffices), so a leaf only
asks for a perfect matching.

Residue 0 is forced in, so every translate of a pattern that holds residue 0
is a leaf of its own; a leaf is kept only when its member mask is the least
of those translates, read off a table of translations, so each translation
class is kept once.  Its members are then paired by backtracking on masks of
their ``OPEN`` neighbours, which is the loop-free quotient of the pattern at
its own period (no lattice refinement), so search answers stay directly
comparable with a brute-force enumeration of subsets.

Odd cardinalities are skipped outright: members are perfectly matched inside
the fundamental domain, so their count per domain is even.

Each k is one depth-first search in this process, and a node budget counts
the nodes of every k tried so far, so a reported count names one tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .grid import OPEN, Point, file_locks, locks, mask
from .pattern import (
    LatticeBasis,
    PeriodicPattern,
    serialize_pattern,
    torus_landing,
    translation_canonical,
)

MAX_DOMAIN = 64


@dataclass(frozen=True)
class SearchConfig:
    basis: LatticeBasis
    max_cardinality: int | None = None
    node_budget: int | None = None


@dataclass
class SearchResult:
    status: str  # "optimumFound" | "infeasible" | "budgetExceeded"
    min_cardinality: int | None
    min_density: Fraction | None
    optima: tuple[PeriodicPattern, ...]
    nodes_explored: int
    reason: str | None = None

    def summary_line(self) -> str:
        if self.status == "optimumFound":
            d = self.min_density
            return (
                f"optimum k={self.min_cardinality}"
                f" density={d.numerator}/{d.denominator}"
                f" patterns={len(self.optima)} nodes={self.nodes_explored}"
            )
        if self.status == "infeasible":
            return f"infeasible {self.reason} nodes={self.nodes_explored}"
        return f"budget-exceeded nodes={self.nodes_explored}"


# ---------------------------------------------------------------------------
# constraint tables
# ---------------------------------------------------------------------------

def _orders(cells: list, land) -> tuple[list[int], ...]:
    """Row-major, column-major and breadth-first (over ``OPEN``) orders from 0."""
    column = sorted(range(len(cells)), key=lambda i: cells[i])
    bfs, seen = [0], {0}
    for i in bfs:
        for j in (land[i][k] for k in OPEN):
            if j not in seen:
                seen.add(j)
                bfs.append(j)
    return list(range(len(cells))), column, bfs


def _relabel(order: list[int], land) -> list[tuple[int, ...]]:
    """``land`` with residue ``order[pos]`` renamed ``pos``."""
    at = {i: pos for pos, i in enumerate(order)}
    return [tuple(at[j] for j in land[i]) for i in order]


def _span(deps: list[int]) -> int:
    """Total over the locks of highest minus lowest position."""
    return sum(dep.bit_length() - (dep & -dep).bit_length() for dep in deps)


def _packing(deps: list[int], pos: int) -> list[int]:
    """Disjoint locks within residues ``pos..n-1``, packed greedily, smallest first.

    At position ``pos`` their residues are all undecided, so each lock takes
    its own member: a branch with ``count + len(packing) > k`` is dead.
    """
    used, packed = 0, []
    for dep in sorted(deps, key=lambda dep: (dep.bit_count(), dep)):
        if dep >> pos << pos == dep and not dep & used:
            used |= dep
            packed.append(dep)
    return packed


class _Tables(NamedTuple):
    """Per-lattice search tables, indexed by position in the chosen order."""

    domain: list[Point]  # the residue at each position
    lock_dl: list[list[int]]  # locks filed at their highest position
    need: list[int]  # members still needed at positions >= pos, a lower bound
    adj: list[int]  # mask of the OPEN landings of each position, itself excluded
    shift: list[list[int]]  # shift[t][i]: where i lands when t is moved onto 0


@lru_cache(maxsize=64)
def _tables(basis: LatticeBasis) -> _Tables:
    cells, land = torus_landing(basis)
    n = len(cells)

    # the order whose locks span the fewest positions decides them soonest;
    # min keeps the earliest on a tie
    ranked = []
    for order in _orders(cells, land):
        rows = _relabel(order, land)
        ranked.append((order, rows, locks(enumerate(rows), range(n))))
    order, rows, deps = min(ranked, key=lambda r: _span(r[2]))
    domain = [cells[i] for i in order]

    # a lock is decided at its highest residue, where "no member" is "all out"
    lock_dl = file_locks(deps, n)

    # a packing for pos + 1 is one for pos too
    need = [len(_packing(deps, pos)) for pos in range(n + 1)]
    for pos in range(n - 1, -1, -1):
        need[pos] = max(need[pos], need[pos + 1])

    position = {c: pos for pos, c in enumerate(domain)}
    shift = [
        [position[basis.reduce((x - tx, y - ty))] for x, y in domain]
        for tx, ty in domain
    ]
    adj = [mask(row, OPEN) & ~(1 << pos) for pos, row in enumerate(rows)]
    return _Tables(domain, lock_dl, need, adj, shift)


def _paired(adj: list[int], members: int) -> bool:
    """Whether ``members`` has a perfect matching along ``adj``.

    The lowest member is matched to each neighbour in turn, then the rest
    recursively: exact, and at most half as deep as the member count.
    """
    if not members:
        return True
    low = members & -members
    rest = members ^ low
    mates = adj[low.bit_length() - 1] & rest
    while mates:
        mate = mates & -mates
        if _paired(adj, rest ^ mate):
            return True
        mates ^= mate
    return False


# ---------------------------------------------------------------------------
# fixed-cardinality DFS
# ---------------------------------------------------------------------------

class _BudgetHit(Exception):
    pass


@dataclass
class _KSearch:
    basis: LatticeBasis
    k: int
    limit: float  # nodes this k may still visit, math.inf without a budget
    nodes: int = 0
    solutions: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        self.domain, self.lock_dl, self.need, self.adj, self.shift = _tables(self.basis)
        self.n = len(self.domain)

    def _leaf(self, in_mask: int) -> None:
        members = [i for i in range(self.n) if in_mask >> i & 1]
        # moving member t onto residue 0 gives another leaf of the same class;
        # keep only the least of them (members[0] is residue 0 itself)
        for t in members[1:]:
            row = self.shift[t]
            moved = 0
            for i in members:
                moved |= 1 << row[i]
            if moved < in_mask:
                return
        if _paired(self.adj, in_mask):
            self.solutions.append(tuple(self.domain[i] for i in members))

    def _dfs(self, pos: int, in_mask: int, out_mask: int, count: int) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetHit
        if pos == self.n:
            if count == self.k:
                self._leaf(in_mask)
            return
        if count + (self.n - pos) < self.k or count + self.need[pos] > self.k:
            return
        # every lock filed at pos holds pos, so only the out-branch can fire one
        if count < self.k:
            self._dfs(pos + 1, in_mask | (1 << pos), out_mask, count + 1)
        if pos == 0:
            return  # residue 0 is always in: some translate of a pattern holds it
        om = out_mask | (1 << pos)
        for dep in self.lock_dl[pos]:
            if om & dep == dep:
                return
        self._dfs(pos + 1, in_mask, om, count)

    def run(self) -> None:
        self._dfs(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _collect_optima(
    basis: LatticeBasis, bases: list[tuple]
) -> tuple[PeriodicPattern, ...]:
    canon: dict[str, PeriodicPattern] = {}
    for base in bases:
        tc = translation_canonical(PeriodicPattern.make(basis, base))
        canon[serialize_pattern(tc)] = tc
    return tuple(canon[key] for key in sorted(canon))


def minimum_lpds(config: SearchConfig) -> SearchResult:
    """Find the minimum members-per-domain over patterns with this lattice.

    Returns every optimum up to translation.  Residue zero is always forced
    in, which loses no translation class because any nonempty pattern can be
    translated to occupy it.
    """
    basis = config.basis
    cells = basis.cells
    if cells > MAX_DOMAIN:
        raise ValueError(f"fundamental domain has {cells} cells; MAX_DOMAIN is {MAX_DOMAIN}")
    if config.max_cardinality is not None and config.max_cardinality < 0:
        raise ValueError("max cardinality must be >= 0")
    if config.node_budget is not None and config.node_budget < 0:
        raise ValueError("node budget must be >= 0")
    max_k = cells if config.max_cardinality is None else min(config.max_cardinality, cells)
    budget = math.inf if config.node_budget is None else config.node_budget

    nodes_total = 0
    for k in range(2, max_k + 1, 2):
        search = _KSearch(basis, k, limit=budget - nodes_total)
        try:
            search.run()
        except _BudgetHit:
            return SearchResult(
                "budgetExceeded",
                None,
                None,
                (),
                nodes_total + search.nodes,
                reason=f"node budget {config.node_budget} exhausted",
            )
        nodes_total += search.nodes
        if search.solutions:
            optima = _collect_optima(basis, search.solutions)
            return SearchResult(
                "optimumFound",
                k,
                Fraction(k, cells),
                optima,
                nodes_total,
            )
    return SearchResult(
        "infeasible",
        None,
        None,
        (),
        nodes_total,
        reason=f"no valid pattern with at most {max_k} members per domain",
    )
