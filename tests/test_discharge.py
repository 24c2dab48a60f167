"""Discharge pipelines, deficiency rescue, and the density inequalities."""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from kinglpds.discharge import (
    UNIT,
    DischargeError,
    _classify_deficient,
    _units,
    combined_lower_bound,
    inequality_values,
    minority_thresholds,
    pendant_rate,
    run_pipeline,
    single_type_bounds,
)
from kinglpds.pattern import LatticeBasis, PeriodicPattern, XDescriptor, catalog, lx_pattern
from kinglpds.verify import verify_lpds

F = Fraction
HALF = F(1, 2)


def _cls(name):
    return verify_lpds(catalog(name)).classification


# -- initial weights are exactly spent in the worst cases --------------------

def test_worst_case_budgets_are_tight():
    # a far member may pay one pendant unit, an interval third, three pendant
    # halves, plus the round-two halves and thirds; its weight leaves exactly 1
    assert F(14, 3) - (1 + F(1, 3) + 3 * HALF) - (HALF + F(1, 3)) == 1
    # a close member: one pendant unit and two halves, then a half and thirds
    assert F(9, 2) - (1 + 2 * HALF) - (HALF + 3 * F(1, 3)) == 1


# -- pipelines on the catalog constructions ----------------------------------

def test_first_pipeline_l1():
    res = run_pipeline(_cls("L1"), 1)
    assert [s.stage for s in res.stages] == ["initial", "final"]
    assert res.initial.average() == F(28, 27)
    assert res.final.minimum() == 1
    assert res.final.average() == F(28, 27)
    assert res.conservation_ok()
    # members keep 7/6, every non-member ends at exactly 1
    members = set(res.classification.pairs)
    for cell, charge in res.final.values.items():
        assert charge == (F(7, 6) if cell in members else 1)


def test_second_pipeline_l1_is_exactly_flat():
    res = run_pipeline(_cls("L1"), 2)
    assert [s.stage for s in res.stages] == ["initial", "round1", "round2", "final"]
    assert res.initial.average() == 1
    assert all(charge == 1 for charge in res.final.values.values())
    assert res.conservation_ok()
    assert not res.deficient


def test_pipelines_l2():
    cls = _cls("L2")
    r1 = run_pipeline(cls, 1)
    assert r1.final.minimum() >= 1
    assert r1.final.average() == F(55, 54)
    assert r1.conservation_ok()
    r2 = run_pipeline(cls, 2)
    assert r2.final.minimum() >= 1
    assert r2.final.average() == F(19, 18)
    assert r2.conservation_ok()
    assert not r2.deficient


def test_unknown_pipeline_rejected():
    with pytest.raises(ValueError):
        run_pipeline(_cls("L1"), 3)


# -- integer charge units ----------------------------------------------------

RESCUE_BASES = (
    [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2), (1, 4), (3, 4)],
    [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 3), (4, 4)],
)

# the transfer rules that lead from the previous stage to each later stage
STAGE_RULES = {
    1: {"final": {"tier-share"}},
    2: {
        "round1": {"interval-half", "pendant-unit", "pendant-half"},
        "round2": {"pendant-rate"},
        "final": {"rescue"},
    },
}


def _unit_audit_patterns():
    yield catalog("L1")
    yield catalog("L2")
    for period in range(1, 5):
        for n in range(2 ** period):
            yield lx_pattern(XDescriptor.from_bits(format(n, f"0{period}b")))
    for base in RESCUE_BASES:
        yield PeriodicPattern.make(LatticeBasis((5, 0), (0, 5)), base)


def test_integer_charges_equal_their_fraction_replay():
    rules_seen = set()
    for pattern in _unit_audit_patterns():
        cls = verify_lpds(pattern).classification
        reduce = cls.pattern.basis.reduce
        for pipeline in (1, 2):
            res = run_pipeline(cls, pipeline)
            charges = dict(res.initial.values)
            for stage in res.stages[1:]:
                for t in res.trace:
                    if t.stage in STAGE_RULES[pipeline][stage.stage]:
                        assert isinstance(t.amount, Fraction)
                        rules_seen.add(t.stage)
                        charges[t.source] -= t.amount
                        charges[reduce(t.target)] += t.amount
                assert stage.values == charges, (pattern, pipeline, stage.stage)
            for stage in res.stages:
                values = stage.values
                assert stage.total() == sum(values.values())
                assert stage.minimum() == min(values.values())
                assert stage.average() == sum(values.values()) / len(values)
    assert rules_seen == set().union(*STAGE_RULES[1].values(), *STAGE_RULES[2].values())


def test_unit_covers_every_rate():
    for kind, pendants, intervals in (("far", 5, 2), ("close", 3, 4)):
        for i0, p1, p2, p3 in product(range(intervals + 1), *[range(pendants + 1)] * 3):
            if p1 + p2 + p3 <= pendants:
                assert (pendant_rate(kind, i0, p1, p2, p3) * UNIT).denominator == 1
    with pytest.raises(DischargeError):
        _units(F(1, 7))


# -- density inequalities ----------------------------------------------------

def test_inequality_values():
    assert inequality_values(F(2, 9), F(0)) == {
        "pipeline1": F(28, 27),
        "pipeline2": F(1),
    }
    assert inequality_values(F(1, 9), F(1, 9)) == {
        "pipeline1": F(55, 54),
        "pipeline2": F(19, 18),
    }


def test_combined_lower_bound():
    assert combined_lower_bound() == F(8, 37)


def test_minority_thresholds():
    assert minority_thresholds(F(2, 9)) == (0, 0)
    assert minority_thresholds(F(8, 37)) == (F(6, 37), F(2, 37))


def test_single_type_bounds():
    assert single_type_bounds() == {"all_far": F(2, 9), "all_close": F(2, 9)}


# -- deficient-vertex case analysis (synthetic local configurations) ---------
# A deficient vertex u0 has three pairwise non-adjacent dominators; we build a
# stub classification holding only the local membership and a stub matching
# whose partners are read from a dict, so the classifier's geometry can be
# probed case by case.

U0 = (500, 500)


def _shift(p, mat=None):
    if mat:
        (a, b), (c, d) = mat
        p = (a * p[0] + b * p[1], c * p[0] + d * p[1])
    return (U0[0] + p[0], U0[1] + p[1])


def _stub(partners, extra=(), mat=None, dominators=((0, 1), (1, -1), (-1, -1))):
    """partners: {relative dominator -> relative partner}; extra members."""
    members = set()
    partner = {}
    for d in dominators:
        members.add(_shift(d, mat))
    for d, p in partners.items():
        wd, wp = _shift(d, mat), _shift(p, mat)
        members.update((wd, wp))
        partner[wd] = wp
    members.update(_shift(e, mat) for e in extra)
    return SimpleNamespace(
        pattern=SimpleNamespace(contains=members.__contains__),
        matching=SimpleNamespace(partner=partner.__getitem__),
    )


ROT90 = ((0, -1), (1, 0))
MIRROR = ((-1, 0), (0, 1))


def test_case_33_pays_full_unit():
    cls = _stub({(1, -1): (0, -2), (-1, -1): (-1, -2)})
    assert _classify_deficient(cls, U0) == ("3.3", _shift((0, -1)), F(1))
    # the mirror-image template gives the same rich vertex
    cls = _stub({(1, -1): (1, -2), (-1, -1): (0, -2)})
    assert _classify_deficient(cls, U0) == ("3.3", _shift((0, -1)), F(1))


def test_case_34_pays_the_inward_corner():
    cls = _stub({(1, -1): (0, -2), (-1, -1): (-2, -2)})
    assert _classify_deficient(cls, U0) == ("3.4", _shift((-1, -1)), HALF)
    cls = _stub({(1, -1): (2, -2), (-1, -1): (0, -2)})
    assert _classify_deficient(cls, U0) == ("3.4", _shift((1, -1)), HALF)


def test_case_35_subcases():
    out = {(1, -1): (2, -2), (-1, -1): (-2, -2)}
    # middle rescuer below
    cls = _stub(out, extra=[(0, -3)])
    assert _classify_deficient(cls, U0) == ("3.5.2", _shift((0, -3)), HALF)
    # corner rescuer
    cls = _stub(out, extra=[(1, -3)])
    assert _classify_deficient(cls, U0) == ("3.5.1", _shift((1, -3)), HALF)
    # several rescuers: the lexicographically least member wins
    cls = _stub(out, extra=[(-1, -3), (0, -3), (1, -3)])
    assert _classify_deficient(cls, U0) == ("3.5.1", _shift((-1, -3)), HALF)
    # no rescuer at all is impossible in a verified pattern
    with pytest.raises(DischargeError):
        _classify_deficient(_stub(out), U0)


def test_provably_non_deficient_cases_rejected():
    with pytest.raises(DischargeError):  # 3.1
        _classify_deficient(_stub({(1, -1): (1, -2), (-1, -1): (-1, -2)}), U0)
    with pytest.raises(DischargeError):  # 3.2
        _classify_deficient(_stub({(1, -1): (1, -2), (-1, -1): (-2, -2)}), U0)
    with pytest.raises(DischargeError):  # 3.2 mirror
        _classify_deficient(_stub({(1, -1): (2, -2), (-1, -1): (-1, -2)}), U0)


def test_malformed_dominator_sets_rejected():
    # adjacent dominators
    with pytest.raises(DischargeError):
        _classify_deficient(
            _stub({(1, 1): (2, 1), (-1, -1): (-1, -2)}, dominators=((0, 1), (1, 1), (-1, -1))),
            U0,
        )
    # only two dominators
    with pytest.raises(DischargeError):
        _classify_deficient(
            _stub({(1, -1): (1, -2)}, dominators=((0, 1), (1, -1))), U0
        )
    # corner partner sitting beside its member matches no template
    with pytest.raises(DischargeError):
        _classify_deficient(_stub({(1, -1): (2, -1), (-1, -1): (-1, -2)}), U0)


def test_classification_is_rotation_equivariant():
    for mat in (ROT90, MIRROR):
        cls = _stub({(1, -1): (0, -2), (-1, -1): (-2, -2)}, mat=mat)
        case, rich, amount = _classify_deficient(cls, U0)
        assert case == "3.4"
        assert rich == _shift((-1, -1), mat)
        assert amount == HALF


# -- end-to-end rescue on genuine patterns -----------------------------------

def test_rescue_case_34_end_to_end():
    p = PeriodicPattern.make(
        LatticeBasis((5, 0), (0, 5)),
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2), (1, 4), (3, 4)],
    )
    r = verify_lpds(p)
    assert r.valid
    res = run_pipeline(r.classification, 2)
    assert [(d.deficient, d.case, d.rich_friend, d.amount) for d in res.deficient] == [
        ((2, 3), "3.4", (1, 4), HALF)
    ]
    assert res.final.minimum() == 1
    assert res.conservation_ok()


def test_rescue_case_351_end_to_end():
    p = PeriodicPattern.make(
        LatticeBasis((5, 0), (0, 5)),
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 3), (4, 4)],
    )
    r = verify_lpds(p)
    assert r.valid
    res = run_pipeline(r.classification, 2)
    assert [(d.deficient, d.case, d.rich_friend, d.amount) for d in res.deficient] == [
        ((3, 4), "3.5.1", (0, 5), HALF)
    ]
    assert res.final.minimum() == 1
    assert res.conservation_ok()


# -- taxonomy facts ----------------------------------------------------------

def test_taxonomy_holds_on_valid_patterns():
    patterns = [catalog("L1"), catalog("L2")]
    patterns += [lx_pattern(XDescriptor.from_bits(bits)) for bits in ("0", "10", "101")]
    for base in (
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2), (1, 4), (3, 4)],
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 3), (4, 4)],
    ):
        patterns.append(PeriodicPattern.make(LatticeBasis((5, 0), (0, 5)), base))
    for p in patterns:
        r = verify_lpds(p)
        assert r.valid
        assert r.classification.taxonomy_violations() == []


def test_taxonomy_flags_a_paired_non_locating_pattern():
    p = PeriodicPattern.make(LatticeBasis((4, 0), (0, 4)), [(1, 3), (2, 2), (2, 3), (3, 2)])
    r = verify_lpds(p)
    assert r.paired and not r.locating
    problems = r.classification.taxonomy_violations()
    assert problems
    assert all(
        problem.endswith("far pair with no pendant in the member-or-tier-3 class")
        for problem in problems
    )
