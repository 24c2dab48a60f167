"""Charge redistribution arguments bounding the density from below.

Every member starts with a fixed charge depending on its pair kind (diagonal
"far" pair or orthogonal "close" pair) and gives portions away along explicit
local rules; non-members start at zero.  When every vertex provably ends with
charge at least 1, the initial average — a weighted sum of the two member
densities — is itself at least 1, which is a linear inequality on the
densities.  Two pipelines with different weightings are run; combining their
inequalities yields the global lower bound 8/37, and each alone pins down the
minority pair kind once the overall density is known.

All arithmetic is exact.  Charges are counted in whole units of 1/UNIT:
weights and tier shares need sixths, and the round-2 rate (ch - 1)/p3 has ch
in halves and p3 <= 5, so UNIT = 2 * lcm(1..5) = 120 holds every amount.
Fractions appear only where a result is read (``ChargeMap.values``,
``minimum``, ``total``, ``average``) and in the transfer and rescue records.

Pipeline 1 (weights 14/3 far, 9/2 close): each member hands every non-member
neighbor with t member neighbors exactly 1/t (t capped at 3).

Pipeline 2 (weights 9/2 far, 5 close) runs three rounds:
  round 1: each member pays 1/2 to every non-member common neighbor of its
           pair, 1 to every tier-1 pendant, 1/2 to every tier-2 pendant;
  round 2: each member pays r(v) to every tier-3 pendant outside the interval
           set, where r(v) = min((ch(v) - 1) / p3(v), 1/2) (and 1/2 when
           p3(v) = 0, where the rate is never exercised);
  round 3: the rare tier-3 vertices outside the interval set that are still
           below 1 each name a nearby "rich" vertex, classified into one of
           four local configurations, and collect 1 or 1/2 from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from .grid import D4, Point, apply, neighbors
from .verify import Classification

HALF = Fraction(1, 2)

FAR_WEIGHT_1 = Fraction(14, 3)
CLOSE_WEIGHT_1 = Fraction(9, 2)
FAR_WEIGHT_2 = Fraction(9, 2)
CLOSE_WEIGHT_2 = Fraction(5)

UNIT = 120  # charges are whole numbers of 1/UNIT


class DischargeError(AssertionError):
    """A charge invariant failed; the input cannot be a valid pattern."""


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass
class ChargeMap:
    stage: str
    units: dict[Point, int]  # charge per residue, in 1/UNIT

    @cached_property
    def values(self) -> dict[Point, Fraction]:
        return {cell: Fraction(n, UNIT) for cell, n in self.units.items()}

    def minimum(self) -> Fraction:
        return Fraction(min(self.units.values()), UNIT)

    def total(self) -> Fraction:
        return Fraction(sum(self.units.values()), UNIT)

    def average(self) -> Fraction:
        return Fraction(sum(self.units.values()), UNIT * len(self.units))


@dataclass(frozen=True)
class Transfer:
    stage: str
    source: Point  # residue representative of the paying vertex
    target: Point  # world coordinates relative to that representative
    amount: Fraction


@dataclass(frozen=True)
class DeficientAssignment:
    """A tier-3 vertex outside the interval set still short after round 2."""

    deficient: Point  # residue representative
    case: str  # "3.3" | "3.4" | "3.5.1" | "3.5.2"
    rich_friend: Point  # world coordinates
    amount: Fraction


@dataclass
class DischargeResult:
    pipeline: int
    classification: Classification
    stages: list[ChargeMap]
    trace: list[Transfer] = field(default_factory=list)
    deficient: list[DeficientAssignment] = field(default_factory=list)

    @property
    def initial(self) -> ChargeMap:
        return self.stages[0]

    @property
    def final(self) -> ChargeMap:
        return self.stages[-1]

    def conservation_ok(self) -> bool:
        totals = {sum(s.units.values()) for s in self.stages}
        return len(totals) == 1


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _units(x: Fraction) -> int:
    """``x`` in whole units of 1/UNIT; raises if UNIT does not divide it."""
    n, rest = divmod(x.numerator * UNIT, x.denominator)
    if rest:
        raise DischargeError(f"charge {x} is not a whole number of 1/{UNIT}")
    return n


@cache
def _amount(n: int) -> Fraction:
    """The transfer record's amount for ``n`` units."""
    return Fraction(n, UNIT)


def _initial_charges(cls: Classification, far_w: Fraction, close_w: Fraction) -> dict[Point, int]:
    units = dict.fromkeys(cls.pattern.basis.domain_cells(), 0)
    far, close = _units(far_w), _units(close_w)
    for v, info in cls.pairs.items():
        units[v] = far if info.kind == "far" else close
    return units


def _move(ch: dict[Point, int], trace: list, stage: str, v: Point, u: Point, r: Point, n: int):
    """Move ``n`` units from ``v`` to residue ``r``, recorded as paid to ``u``."""
    ch[v] -= n
    ch[r] += n
    trace.append(Transfer(stage, v, u, _amount(n)))


def _checked(pipeline, cls, stages, trace, weights, deficient=()) -> DischargeResult:
    """The pipeline's result, after the three checks that close every pipeline.

    Total charge is the same at every stage, the initial average equals the
    weighted pair densities, and no final charge is below 1.
    """
    result = DischargeResult(pipeline, cls, stages, trace, list(deficient))
    if not result.conservation_ok():
        raise DischargeError(f"pipeline {pipeline} total charge not conserved")
    far_w, close_w = weights
    expect = far_w * cls.d_far + close_w * cls.d_close
    initial = result.initial
    if initial.average() != expect:
        raise DischargeError(
            f"average charge drifted: {initial.average()} != {expect} at {initial.stage}"
        )
    final = result.final.units
    if min(final.values()) < UNIT:
        worst = min(final, key=final.get)
        raise DischargeError(
            f"pipeline {pipeline} final charge {result.final.minimum()} < 1 at {worst}"
        )
    return result


# ---------------------------------------------------------------------------
# pipeline 1
# ---------------------------------------------------------------------------

def first_pipeline(cls: Classification) -> DischargeResult:
    """Single-round redistribution: 1/tier to every dominated non-member."""
    reduce = cls.pattern.basis.reduce
    base = cls.pattern.base
    ch0 = _initial_charges(cls, FAR_WEIGHT_1, CLOSE_WEIGHT_1)
    ch1 = dict(ch0)
    trace = []
    for v in cls.pairs:
        for u in neighbors(v):
            r = reduce(u)
            if r not in base:
                _move(ch1, trace, "tier-share", v, u, r, UNIT // cls.nonmembers[r].tier)
    stages = [ChargeMap("initial", ch0), ChargeMap("final", ch1)]
    return _checked(1, cls, stages, trace, (FAR_WEIGHT_1, CLOSE_WEIGHT_1))


# ---------------------------------------------------------------------------
# pipeline 2, rounds 1 and 2
# ---------------------------------------------------------------------------

def pendant_rate(kind: str, i0: int, p1: int, p2: int, p3: int) -> Fraction:
    """Round-2 rate r(v) of a member with these ``PairInfo`` counts.

    Its capped share, among the tier-3 pendants, of the surplus over 1 left
    after round 1 pays 1/2 per non-member interval, 1 per tier-1 pendant and
    1/2 per tier-2 pendant.
    """
    if p3 == 0:
        return HALF
    start, intervals = (FAR_WEIGHT_2, 2) if kind == "far" else (CLOSE_WEIGHT_2, 4)
    ch = start - Fraction(intervals - i0, 2) - p1 - Fraction(p2, 2)
    return min((ch - 1) / p3, HALF)


@cache
def _rate_units(kind: str, i0: int, p1: int, p2: int, p3: int) -> int:
    return _units(pendant_rate(kind, i0, p1, p2, p3))


def second_pipeline(cls: Classification) -> DischargeResult:
    reduce = cls.pattern.basis.reduce
    base = cls.pattern.base
    ch2 = _initial_charges(cls, FAR_WEIGHT_2, CLOSE_WEIGHT_2)
    trace = []
    half = UNIT // 2

    # round 1: intervals and tier-1/2 pendants
    ch3 = dict(ch2)
    for v, info in cls.pairs.items():
        for u in info.intervals:
            r = reduce(u)
            if r not in base:
                _move(ch3, trace, "interval-half", v, u, r, half)
        for u in info.pendant_split[1]:
            _move(ch3, trace, "pendant-unit", v, u, reduce(u), UNIT)
        for u in info.pendant_split[2]:
            _move(ch3, trace, "pendant-half", v, u, reduce(u), half)

    # round 2: tier-3 pendants at the member's own rate
    ch4 = dict(ch3)
    for v, info in cls.pairs.items():
        rate = _rate_units(info.kind, info.i0, info.p1, info.p2, info.p3)
        for u in info.pendant_split[3]:
            _move(ch4, trace, "pendant-rate", v, u, reduce(u), rate)

    for v in cls.pairs:
        if ch4[v] < UNIT:
            raise DischargeError(f"member {v} below 1 after round 2: {Fraction(ch4[v], UNIT)}")
    for u, info in cls.nonmembers.items():
        if (info.in_interval or info.tier <= 2) and ch4[u] < UNIT:
            raise DischargeError(
                f"non-member {u} (tier {info.tier}) below 1 after round 2: {Fraction(ch4[u], UNIT)}"
            )

    # round 3: rescue the deficient tier-3 vertices outside the interval set
    ch5 = dict(ch4)
    assignments = []
    for u0 in cls.tier3_outside_interval():
        if ch4[u0] >= UNIT:
            continue
        case, rich, amount = _classify_deficient(cls, u0)
        rich_rep = reduce(rich)
        assignments.append(DeficientAssignment(u0, case, rich, amount))
        # trace the payment from the rich representative to its own deficient
        # translate, keeping source-pays-target semantics
        target = (u0[0] + rich_rep[0] - rich[0], u0[1] + rich_rep[1] - rich[1])
        _move(ch5, trace, "rescue", rich_rep, target, u0, _units(amount))
    for a in assignments:
        if ch5[reduce(a.rich_friend)] < UNIT:
            raise DischargeError(
                f"rich vertex {a.rich_friend} dropped below 1 rescuing {a.deficient}"
            )

    stages = [
        ChargeMap("initial", ch2),
        ChargeMap("round1", ch3),
        ChargeMap("round2", ch4),
        ChargeMap("final", ch5),
    ]
    return _checked(2, cls, stages, trace, (FAR_WEIGHT_2, CLOSE_WEIGHT_2), assignments)


# ---------------------------------------------------------------------------
# pipeline 2, round 3 case analysis
# ---------------------------------------------------------------------------

_CANONICAL_SHAPE = frozenset({(0, 1), (1, -1), (-1, -1)})

# (partner offset of the (1,-1) dominator, partner offset of the (-1,-1) one)
# in the canonical frame -> case id.  The mirror images appear explicitly.
_CASE_TEMPLATES: dict[tuple[Point, Point], str] = {
    ((1, -2), (-1, -2)): "3.1",
    ((1, -2), (-2, -2)): "3.2",
    ((2, -2), (-1, -2)): "3.2",
    ((0, -2), (-1, -2)): "3.3",
    ((1, -2), (0, -2)): "3.3",
    ((0, -2), (-2, -2)): "3.4:left",
    ((2, -2), (0, -2)): "3.4:right",
    ((2, -2), (-2, -2)): "3.5",
}


def _classify_deficient(cls: Classification, u0: Point) -> tuple[str, Point, Fraction]:
    """Case id, rich vertex (world coordinates), and transfer amount for u0.

    A deficient vertex has at least three pairwise non-adjacent dominators; up
    to rotation/reflection they form one orthogonal neighbor plus the two
    corners on the opposite side.  The case is read off the two corner
    dominators' partner positions.  Configurations whose local shape already
    forces charge at least 1 (adjacent dominators, or three same-side corners)
    can never be deficient, so meeting one here is a hard error.
    """
    member = cls.pattern.contains
    doms = [n for n in neighbors(u0) if member(n)]
    rel = [(p[0] - u0[0], p[1] - u0[1]) for p in doms]
    if len(rel) != 3 or not all(
        max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1 for i, a in enumerate(rel) for b in rel[i + 1:]
    ):
        raise DischargeError(f"unclassifiable deficient vertex {u0}: dominators {sorted(doms)}")

    matches = []
    for mat in D4:
        if frozenset(apply(mat, d) for d in rel) != _CANONICAL_SHAPE:
            continue
        inv = tuple(zip(*mat))  # orthogonal: the inverse is the transpose
        world = {c: (u0[0] + q[0], u0[1] + q[1]) for c in _CANONICAL_SHAPE for q in [apply(inv, c)]}
        m2 = apply(mat, _rel(u0, cls.matching.partner(world[(1, -1)])))
        m3 = apply(mat, _rel(u0, cls.matching.partner(world[(-1, -1)])))
        case = _CASE_TEMPLATES.get((m2, m3))
        if case is None:
            continue
        key = (case, apply(mat, _rel(u0, world[(0, 1)])), m2, m3)
        matches.append((key, case, mat, inv, world))
    if not matches:
        raise DischargeError(f"unclassifiable deficient vertex {u0}: no case template matches")
    matches.sort(key=lambda m: m[0])
    _, case, mat, inv, world = matches[0]

    if case in ("3.1", "3.2"):
        raise DischargeError(f"deficient vertex {u0} in provably non-deficient case {case}")
    if case == "3.3":
        q = apply(inv, (0, -1))
        return "3.3", (u0[0] + q[0], u0[1] + q[1]), Fraction(1)
    if case.startswith("3.4"):
        rich = world[(-1, -1)] if case.endswith("left") else world[(1, -1)]
        return "3.4", rich, HALF
    # case 3.5: a member below the corner dominators separates the two cells
    # under u0; take the lexicographically least such member.
    cands = []
    for c in ((-1, -3), (0, -3), (1, -3)):
        q = apply(inv, c)
        w = (u0[0] + q[0], u0[1] + q[1])
        if member(w):
            cands.append((w, c))
    if not cands:
        raise DischargeError(f"deficient vertex {u0}: no rescuing member below the corner pair")
    cands.sort()
    w, c = cands[0]
    sub = "3.5.2" if c == (0, -3) else "3.5.1"
    return sub, w, HALF


def _rel(origin: Point, p: Point) -> Point:
    return (p[0] - origin[0], p[1] - origin[1])


def run_pipeline(cls: Classification, which: int) -> DischargeResult:
    if which == 1:
        return first_pipeline(cls)
    if which == 2:
        return second_pipeline(cls)
    raise ValueError(f"unknown pipeline {which}")


# ---------------------------------------------------------------------------
# density inequalities
# ---------------------------------------------------------------------------

def inequality_values(d_far: Fraction, d_close: Fraction) -> dict[str, Fraction]:
    """Left-hand sides of the two average-charge inequalities (each >= 1)."""
    return {
        "pipeline1": FAR_WEIGHT_1 * d_far + CLOSE_WEIGHT_1 * d_close,
        "pipeline2": FAR_WEIGHT_2 * d_far + CLOSE_WEIGHT_2 * d_close,
    }


def combined_lower_bound() -> Fraction:
    """Density bound from 3x the first inequality plus the second.

    The combination is chosen so both pair-kind densities get the same
    coefficient, turning the pair of inequalities into one on the total.
    """
    far_c = 3 * FAR_WEIGHT_1 + FAR_WEIGHT_2
    close_c = 3 * CLOSE_WEIGHT_1 + CLOSE_WEIGHT_2
    assert far_c == close_c, "combination must weight both pair kinds equally"
    return Fraction(3 + 1, 1) / far_c


def minority_thresholds(density: Fraction) -> tuple[Fraction, Fraction]:
    """Lower bounds on (far density, close density) forced by a total density.

    Replacing the majority kind's weight with the shared 9/2 in each pipeline
    leaves a deficit only the other kind can cover: the first pipeline gives
    d_far >= 6(1 - 9/2 d) via the far surplus 14/3 - 9/2 = 1/6, the second
    gives d_close >= 2(1 - 9/2 d) via the close surplus 5 - 9/2 = 1/2.
    """
    gap = 1 - Fraction(9, 2) * density
    return (6 * gap, 2 * gap)


def single_type_bounds() -> dict[str, Fraction]:
    """Density needed if every pair had the same kind.

    With one kind only, each inequality reads weight * d >= 1, so the kind's
    smaller weight gives the stronger bound.
    """
    return {
        "all_far": 1 / min(FAR_WEIGHT_1, FAR_WEIGHT_2),  # 2/9
        "all_close": 1 / min(CLOSE_WEIGHT_1, CLOSE_WEIGHT_2),  # 2/9
    }
