"""Deciding the three defining properties of a candidate set.

A valid set must be dominating (every vertex has a member in its closed
neighborhood), locating (distinct non-members have distinct sets of member
neighbors), and paired (the induced subgraph on members admits a perfect
matching).  For a periodic pattern all three checks run on the quotient by the
period lattice, which makes them exhaustive for the infinite grid.

A member's partner is a member neighbor, so the cells with no member among
their 8 neighbors are exactly the undominated non-members and the members
that cannot be paired; one pass over ``grid.OPEN`` finds both.

Locality of the locating check: if two non-members have equal nonempty member
neighborhoods, a shared member is within distance 1 of both, so the vertices
are within Chebyshev distance 2.  Equal-empty neighborhoods cannot occur once
domination holds, and a vertex never collides with its own lattice translate
(a finite nonempty set is not invariant under a nonzero translation), so only
nearby distinct-residue pairs need comparison.  The check therefore refuses to
run before domination has been established.

Pairing runs on the loop-free quotient graph of member residues; a perfect
matching there lifts to a periodic perfect matching of the infinite induced
subgraph.  A residue adjacent only to its own translates cannot be matched at
the given period, so on failure the search is retried on the three index-2
sublattices, where such loops become ordinary edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from .grid import (
    BLOCK,
    OPEN,
    SEPARATORS,
    Point,
    chebyshev,
    closed_neighborhood,
    common_neighbors,
    neighbors,
)
from .pattern import FiniteWindow, LatticeBasis, PeriodicPattern, torus_landing


# ---------------------------------------------------------------------------
# certificates and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationCertificate:
    """A concrete witness that one of the three properties fails."""

    kind: str  # "undominated" | "unlocatable-pair" | "unpairable"
    witnesses: tuple[Point, ...]
    detail: str = ""

    def line(self) -> str:
        pts = " ".join(f"({x},{y})" for x, y in self.witnesses)
        return f"violation {self.kind} {pts}" + (f" {self.detail}" if self.detail else "")


def _frac(f: Fraction | None) -> str:
    if f is None:
        return "n/a"
    return f"{f.numerator}/{f.denominator}"


@dataclass
class VerificationReport:
    dominating: bool
    locating: bool
    paired: bool | None
    matching: "Matching | None" = None
    lifted_basis: LatticeBasis | None = None
    violations: list[ViolationCertificate] = field(default_factory=list)
    density: Fraction | None = None

    @property
    def valid(self) -> bool:
        return self.dominating and self.locating and self.paired is True

    @cached_property
    def classification(self) -> "Classification | None":
        """The taxonomy under the matching, built on first use."""
        if self.matching is None:
            return None
        return classify(self.matching)

    def machine_line(self) -> str:
        d1, d2 = self.matching.pair_densities() if self.matching else (None, None)
        paired = "n/a" if self.paired is None else str(self.paired).lower()
        return (
            f"verdict dominated={str(self.dominating).lower()}"
            f" locating={str(self.locating).lower()}"
            f" paired={paired}"
            f" density={_frac(self.density)}"
            f" DS1={_frac(d1)} DS2={_frac(d2)}"
        )

    def lines(self) -> list[str]:
        out = [self.machine_line()]
        out.extend(c.line() for c in sorted(self.violations, key=lambda c: (c.kind, c.witnesses)))
        return out


# ---------------------------------------------------------------------------
# domination and locating: evaluations of the grid template
# ---------------------------------------------------------------------------
# ``member`` is indexed by cell; ``rows`` yields, for each cell to check, its
# index and the indices where its BLOCK offsets land; ``checked`` holds the
# indices of the cells whose neighborhoods may be compared.

def _isolated(member, rows) -> list[int]:
    """Cells with no member neighbor: undominated non-members, unpairable members."""
    return [i for i, land in rows if not any(member[land[k]] for k in OPEN)]


def _collisions(member, rows, checked):
    """(i, j, k) for each checked non-member pair i, j = land[k] seeing the same members."""
    for i, land in rows:
        if member[i]:
            continue
        for k, sep in SEPARATORS:
            j = land[k]
            if j == i or member[j] or j not in checked:
                continue
            if not any(member[land[s]] for s in sep):
                yield i, j, k


# The torus of each pattern ``verify_lpds`` is running on, by ``id``; None
# until its first check scans it.
_sharing: dict[int, tuple | None] = {}


def _torus(pattern: PeriodicPattern):
    """Cells, landing table, membership and isolated cells of the pattern's torus.

    While ``verify_lpds`` runs on the pattern, the first scan is kept, so its
    domination and locating checks share one open-neighbourhood pass; a check
    called on its own keeps nothing.
    """
    torus = _sharing.get(id(pattern))
    if torus is None:
        cells, land = torus_landing(pattern.basis)
        member = [c in pattern.base for c in cells]
        torus = cells, land, member, _isolated(member, enumerate(land))
        if id(pattern) in _sharing:
            _sharing[id(pattern)] = torus
    return torus


def check_domination(pattern: PeriodicPattern) -> list[ViolationCertificate]:
    """Certificates for every undominated residue class (empty list = dominating)."""
    cells, _, member, isolated = _torus(pattern)
    return [ViolationCertificate("undominated", (cells[i],)) for i in isolated if not member[i]]


def _normalize_pair(basis: LatticeBasis, u: Point, w: Point) -> tuple[Point, Point]:
    """Translation-canonical form of an unordered vertex pair."""
    p, q = sorted((u, w))
    anchor = basis.reduce(p)
    dx, dy = anchor[0] - p[0], anchor[1] - p[1]
    return (anchor, (q[0] + dx, q[1] + dy))


def check_locating(pattern: PeriodicPattern) -> list[ViolationCertificate]:
    """Certificates for all colliding non-member pairs, up to translation.

    Requires domination (raises ValueError otherwise): it justifies both the
    distance-2 locality and skipping same-residue pairs.
    """
    cells, land, member, isolated = _torus(pattern)
    if any(not member[i] for i in isolated):
        raise ValueError("requires domination")
    keys: dict[tuple[Point, Point], None] = {}
    for i, _, k in _collisions(member, enumerate(land), range(len(cells))):
        (x, y), (dx, dy) = cells[i], BLOCK[k]
        keys[_normalize_pair(pattern.basis, (x, y), (x + dx, y + dy))] = None
    return [ViolationCertificate("unlocatable-pair", key) for key in keys]


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

@dataclass
class Matching:
    """A periodic perfect matching, stored as one king step per member residue.

    ``step[r]`` leads from residue representative r to its partner, and every
    translate of r pairs along the same step.  ``pattern`` is the pattern the
    matching lives on: the refined one when the matching was lifted.
    """

    pattern: PeriodicPattern
    step: dict[Point, Point]

    def partner(self, p: Point) -> Point:
        """The partner of any world member."""
        dx, dy = self.step[self.pattern.basis.reduce(p)]
        return (p[0] + dx, p[1] + dy)

    def validate(self) -> None:
        assert set(self.step) == set(self.pattern.base), "matching must cover all residues"
        for r, (dx, dy) in self.step.items():
            w = (r[0] + dx, r[1] + dy)
            assert self.pattern.basis.reduce(w) != r, f"residue {r} matched to its own translate"
            assert chebyshev(r, w) == 1, f"pair {r}-{w} not adjacent"
            assert self.partner(w) == r, "partner map is not an involution"

    def pair_densities(self) -> tuple[Fraction, Fraction]:
        """Densities of the members in far pairs and in close pairs."""
        far = sum(_PAIR_SLOTS[s][0] == "far" for s in self.step.values())
        cells = self.pattern.basis.cells
        return Fraction(far, cells), Fraction(len(self.step) - far, cells)


@dataclass
class MatchingResult:
    matching: Matching | None
    lifted_basis: LatticeBasis | None = None
    obstruction: str | None = None
    witnesses: tuple[Point, ...] = ()


_STEPS = [BLOCK[k] for k in OPEN]  # the king steps, in OPEN order


def _cover(adj: list[list[int]], required: list[int]) -> list[int]:
    """``mate`` (-1 = free) of a matching covering as many ``required`` vertices as any can.

    Greedy seed: each required vertex still free, in order, takes its first
    free neighbour.  Then ``_augment`` runs from each one still free; the
    covered required vertices only grow, so a root it fails on stays free.
    """
    mate = [-1] * len(adj)
    for v in required:
        w = next((w for w in adj[v] if mate[w] < 0), -1) if mate[v] < 0 else -1
        if w >= 0:
            mate[v], mate[w] = w, v
    need = set(required)
    for root in required:
        if mate[root] < 0:
            _augment(adj, mate, need, root)
    return mate


def _augment(adj: list[list[int]], mate: list[int], need: set[int], root: int) -> None:
    """Grow one Edmonds alternating tree from the free ``root``, breadth first.

    Flip the first path found to a free vertex or an outer vertex not in ``need``.
    """
    base, parent, outer, is_outer = {root: root}, {}, [root], {root}  # outer: the queue

    def flip(v: int) -> None:  # the path from v, whose parent is outer, to the root
        while v >= 0:
            p = parent[v]
            mate[v], mate[p], v = p, v, mate[p]

    def settle(x: int) -> bool:  # x turns outer; flip the path to it if it is not needed
        is_outer.add(x)
        outer.append(x)
        if x not in need:
            y, mate[x] = mate[x], -1
            flip(y)
        return x not in need

    for v in outer:
        for w in adj[v]:
            if base.get(w) == base[v] or mate[v] == w:
                continue
            if w in is_outer:
                fresh = [x for x in _blossom(base, parent, mate, root, v, w) if x not in is_outer]
                if any(settle(x) for x in fresh):
                    return
            elif w not in parent:
                parent[w], base[w] = v, w
                if mate[w] < 0:
                    flip(w)
                    return
                base[mate[w]] = mate[w]
                if settle(mate[w]):
                    return


def _blossom(base: dict, parent: dict, mate: list[int], root: int, v: int, w: int) -> list[int]:
    """Shrink the blossom that outer v-w closes; the vertices it adds to its base's.

    Parents are re-pointed around the blossom, so that each vertex in it has
    an even alternating path to the root.
    """
    path, a = {root}, base[v]
    while a != root:
        path.add(a)
        a = base[parent[mate[a]]]
    b = base[w]
    while b not in path:
        b = base[parent[mate[b]]]
    shrunk = set()
    for x, y in ((v, w), (w, v)):
        while base[x] != b:
            shrunk.update((base[x], base[mate[x]]))
            parent[x], y = y, mate[x]
            x = parent[y]
    inside = [x for x in base if base[x] in shrunk]
    for x in inside:
        base[x] = b
    return inside


def _refinements(basis: LatticeBasis) -> list[tuple[LatticeBasis, Point]]:
    """The three index-2 sublattices with a coset representative for each."""
    u, v = basis.u, basis.v
    double = lambda w: (2 * w[0], 2 * w[1])
    return [
        (LatticeBasis(double(u), v), u),
        (LatticeBasis(u, double(v)), v),
        (LatticeBasis((u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1])), u),
    ]


def _match_at_period(pattern: PeriodicPattern) -> tuple[Matching | None, tuple[Point, ...]]:
    """``_cover`` on the loop-free quotient, every residue required, in sorted order.

    A pair is matched along its lex-least king step; uncovered residues witness a failure.
    """
    if len(pattern.base) % 2:
        return None, tuple(sorted(pattern.base))
    res = sorted(pattern.base)
    index = {r: i for i, r in enumerate(res)}
    step_to: dict[tuple[int, int], Point] = {}  # (i, j): from res[i] to a translate of res[j]
    for i, (x, y) in enumerate(res):
        for d in _STEPS:
            j = index.get(pattern.basis.reduce((x + d[0], y + d[1])), i)
            if j != i:
                step_to[i, j] = min(step_to.get((i, j), d), d)
    adj: list[list[int]] = [[] for _ in res]
    for i, j in step_to:
        adj[i].append(j)
    mate = _cover(adj, list(range(len(res))))
    if -1 in mate:
        return None, tuple(r for r, m in zip(res, mate) if m < 0)
    step = {  # the lower residue of a pair steps along the edge, the higher back
        r: step_to[i, j] if i < j else (-step_to[j, i][0], -step_to[j, i][1])
        for i, (r, j) in enumerate(zip(res, mate))
    }
    return Matching(pattern, step), ()


def find_perfect_matching(pattern: PeriodicPattern) -> MatchingResult:
    """Perfect matching on the loop-free quotient, with index-2 fallback.

    When the quotient at the given period has no perfect matching (odd member
    count, or members reachable only through their own translates), the three
    index-2 sublattices are tried with base points replicated; success there is
    reported through ``lifted_basis``.
    """
    matching, witnesses = _match_at_period(pattern)
    if matching is not None:
        matching.validate()
        return MatchingResult(matching)
    for refined_basis, rep in _refinements(pattern.basis):
        pts = [*pattern.base, *((p[0] + rep[0], p[1] + rep[1]) for p in pattern.base)]
        refined = PeriodicPattern.make(refined_basis, pts)
        m2, _ = _match_at_period(refined)
        if m2 is not None:
            m2.validate()
            return MatchingResult(m2, lifted_basis=refined_basis)
    reason = (
        f"odd member count {len(pattern.base)} in fundamental domain"
        if len(pattern.base) % 2
        else "no perfect matching on the loop-free quotient"
    ) + " or its index-2 refinements"
    return MatchingResult(None, obstruction=reason, witnesses=witnesses)


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------

@dataclass
class PairInfo:
    """Everything the discharge pipelines need about one matched member."""

    kind: str  # "far" (diagonal pair) | "close" (orthogonal pair)
    pendants: tuple[Point, ...]  # neighbors of the member not seen by its partner
    intervals: tuple[Point, ...]  # common neighbors of the pair
    pendant_split: dict[int, tuple[Point, ...]]  # 0: in S or interval; 1..3: by tier
    i0: int  # intervals that are themselves members

    @property
    def p1(self) -> int:
        return len(self.pendant_split[1])

    @property
    def p2(self) -> int:
        return len(self.pendant_split[2])

    @property
    def p3(self) -> int:
        return len(self.pendant_split[3])


@dataclass
class NonMemberInfo:
    tier: int  # member neighbors, capped at 3
    in_interval: bool


@dataclass
class Classification:
    """Per-residue taxonomy of a verified pattern under a fixed matching."""

    matching: Matching
    pairs: dict[Point, PairInfo]
    nonmembers: dict[Point, NonMemberInfo]
    d_far: Fraction
    d_close: Fraction

    @property
    def pattern(self) -> PeriodicPattern:
        return self.matching.pattern

    @property
    def density(self) -> Fraction:
        return self.d_far + self.d_close

    def tier3_outside_interval(self) -> list[Point]:
        return sorted(
            v for v, info in self.nonmembers.items() if info.tier == 3 and not info.in_interval
        )

    def taxonomy_violations(self) -> list[str]:
        """Structural facts that hold in every valid pattern, checked directly.

        Per member: at most one pendant with a single member neighbor; no
        interval vertex with fewer than two member neighbors; at most one
        interval vertex with exactly two; every far-paired member has a pendant
        that is a member or has at least three member neighbors.
        """
        member = cache(self.pattern.contains)
        tier = lambda u: sum(member(n) for n in neighbors(u))
        problems = []
        for v, info in self.pairs.items():
            pendant_t1 = [u for u in info.pendants if not member(u) and tier(u) == 1]
            if len(pendant_t1) > 1:
                problems.append(f"{v}: {len(pendant_t1)} pendants with a unique member neighbor")
            interval_t = [tier(u) for u in info.intervals if not member(u)]
            if any(t < 2 for t in interval_t):
                problems.append(f"{v}: interval vertex with fewer than 2 member neighbors")
            if sum(t == 2 for t in interval_t) > 1:
                problems.append(f"{v}: several interval vertices with exactly 2 member neighbors")
            if info.kind == "far":
                if not any(member(u) or tier(u) >= 3 for u in info.pendants):
                    problems.append(f"{v}: far pair with no pendant in the member-or-tier-3 class")
        return problems


def _pair_slots(step: Point) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Kind, pendant slots and interval slots of a member whose partner is at ``step``.

    Slots are ``BLOCK`` indices, sorted by the offset they name.
    """
    origin = (0, 0)
    common = common_neighbors(origin, step)
    pend = neighbors(origin) - closed_neighborhood(step)
    kind = "far" if len(common) == 2 else "close"
    assert (len(pend), len(common)) == ((5, 2) if kind == "far" else (3, 4))
    slots = lambda offsets: tuple(BLOCK.index(d) for d in sorted(offsets))
    return kind, slots(pend), slots(common)


_PAIR_SLOTS = {step: _pair_slots(step) for step in sorted(neighbors((0, 0)))}


def classify(matching: Matching) -> Classification:
    """The taxonomy, read off the torus landing table of the matched pattern's basis."""
    pattern = matching.pattern
    cells, land = torus_landing(pattern.basis)
    index = {c: i for i, c in enumerate(cells)}
    member = [False] * len(cells)
    tier = [0] * len(cells)  # member count over each cell's OPEN slots
    raw = []
    interval_idx = set()
    for v in pattern.base:
        row = land[index[v]]
        member[index[v]] = True
        for k in OPEN:  # OPEN is symmetric: v is a neighbor of every cell it lands on
            tier[row[k]] += 1
        kind, pend, intv = _PAIR_SLOTS[matching.step[v]]
        raw.append((v, kind, row, pend, intv))
        interval_idx.update(row[k] for k in intv)

    world = lambda v, slots: tuple((v[0] + BLOCK[k][0], v[1] + BLOCK[k][1]) for k in slots)
    pairs: dict[Point, PairInfo] = {}
    for v, kind, row, pend, intv in raw:
        pendants, intervals = world(v, pend), world(v, intv)
        split: dict[int, list[Point]] = {0: [], 1: [], 2: [], 3: []}
        for k, u in zip(pend, pendants):
            j = row[k]
            split[0 if member[j] or j in interval_idx else min(tier[j], 3)].append(u)
        pairs[v] = PairInfo(
            kind=kind,
            pendants=pendants,
            intervals=intervals,
            pendant_split={t: tuple(pts) for t, pts in split.items()},
            i0=sum(member[row[k]] for k in intv),
        )

    nonmembers = {
        cell: NonMemberInfo(min(tier[i], 3), i in interval_idx)
        for i, cell in enumerate(cells)
        if not member[i]
    }
    return Classification(matching, pairs, nonmembers, *matching.pair_densities())


# ---------------------------------------------------------------------------
# full verification
# ---------------------------------------------------------------------------

def verify_lpds(pattern: PeriodicPattern) -> VerificationReport:
    """Compose domination, locating, and pairing; classification waits for first use."""
    _sharing[id(pattern)] = None
    try:
        violations = list(check_domination(pattern))
        dominating = not violations
        locating = False
        if dominating:
            loc = check_locating(pattern)
            locating = not loc
            violations.extend(loc)
    finally:
        del _sharing[id(pattern)]

    mres = find_perfect_matching(pattern)
    paired = mres.matching is not None
    if not paired:
        violations.append(
            ViolationCertificate("unpairable", mres.witnesses, detail=mres.obstruction or "")
        )

    return VerificationReport(
        dominating=dominating,
        locating=locating,
        paired=paired,
        matching=mres.matching,
        lifted_basis=mres.lifted_basis,
        violations=violations,
        density=pattern.density,
    )


# ---------------------------------------------------------------------------
# finite windows
# ---------------------------------------------------------------------------

def saturates(members: list[Point], required: set[Point]) -> bool:
    """Is there a matching among ``members`` (king adjacency) covering ``required``?

    ``required`` is a subset of ``members``; ``_cover`` answers with the
    required members in sorted order and edges along ``OPEN``.
    """
    index = {p: i for i, p in enumerate(members)}
    near = lambda x, y: (index.get((x + dx, y + dy), -1) for dx, dy in _STEPS)
    adj = [[j for j in near(x, y) if j >= 0] for x, y in members]
    mate = _cover(adj, [index[p] for p in sorted(required)])
    return all(mate[index[p]] >= 0 for p in required)


def verify_window(window: FiniteWindow) -> VerificationReport:
    """Partial verification of a finite truncation.

    Only vertices whose full neighborhood is visible can support a verdict:
    domination is checked for interior cells, locating for interior pairs at
    Chebyshev distance at most 2.  Pairing is three-valued: True when a
    matching inside the window saturates every interior member, False when
    some interior member has no adjacent member at all (no extension can fix
    that), and None ("not evaluated") when saturation fails only in ways the
    hidden exterior could repair.
    """
    if window.width < 5 or window.height < 5:
        raise ValueError("window too small: need at least 5x5")
    # cells are indexed row-major over the box padded by 3, so every BLOCK
    # offset of an interior cell lands inside the array without wrapping
    width = window.width + 6
    flat = lambda p: (p[1] - window.y0 + 3) * width + p[0] - window.x0 + 3
    member = bytearray(width * (window.height + 6))
    for p in window.points:
        member[flat(p)] = 1
    at = {flat(p): p for p in window.interior()}
    strides = [dy * width + dx for dx, dy in BLOCK]
    rows = lambda: ((i, [i + s for s in strides]) for i in at)

    isolated = _isolated(member, rows())
    violations = [
        ViolationCertificate("undominated", (at[i],)) for i in isolated if not member[i]
    ]
    dominating = not violations
    loc_certs = [
        ViolationCertificate("unlocatable-pair", (at[i], at[j]))
        for i, j, _ in _collisions(member, rows(), at)
    ]
    locating = not loc_certs
    violations.extend(loc_certs)

    # Pairing: interior members must be saturated by a matching among members.
    stranded = [at[i] for i in isolated if member[i]]
    paired: bool | None
    if stranded:
        paired = False
        for v in stranded:
            violations.append(
                ViolationCertificate("unpairable", (v,), detail="no adjacent member")
            )
    else:
        required = {p for i, p in at.items() if member[i]}
        paired = True if saturates(sorted(window.points), required) else None

    return VerificationReport(
        dominating=dominating,
        locating=locating,
        paired=paired,
        violations=violations,
        density=window.density,
    )
