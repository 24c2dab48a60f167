"""Exact-cardinality search vs. the brute-force oracle, plus its contracts."""

from fractions import Fraction

import pytest

from kinglpds.pattern import LatticeBasis, PeriodicPattern, serialize_pattern
from kinglpds.search import SearchConfig, minimum_lpds
from kinglpds.verify import verify_lpds
from naive_lpds import brute_force_oracle, naive_check


def _forms(result):
    return [serialize_pattern(p) for p in result.optima]


# -- agreement with the oracle -----------------------------------------------

@pytest.mark.parametrize(
    "u, v",
    [((2, 0), (0, 2)), ((3, 0), (0, 3)), ((2, 1), (-3, 3))],
)
def test_search_matches_oracle(u, v):
    basis = LatticeBasis(u, v)
    res = minimum_lpds(SearchConfig(basis))
    ora = brute_force_oracle(basis)
    assert res.status == ora.status == "optimumFound"
    assert res.min_cardinality == ora.min_cardinality
    assert res.min_density == ora.min_density
    assert _forms(res) == _forms(ora)


def test_frozen_small_optima():
    res = minimum_lpds(SearchConfig(LatticeBasis((2, 0), (0, 2))))
    assert (res.min_cardinality, res.min_density) == (2, Fraction(1, 2))
    assert res.nodes_explored == 10
    # stripes both ways and the checkerboard, already in canonical form
    assert _forms(res) == [
        "lattice u=(1,0) v=(0,2)\nbase (0,0)\n",
        "lattice u=(2,0) v=(0,1)\nbase (0,0)\n",
        "lattice u=(2,0) v=(1,1)\nbase (0,0)\n",
    ]


def test_frozen_det9():
    res = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    assert (res.min_cardinality, res.min_density) == (4, Fraction(4, 9))
    assert len(res.optima) == 13
    assert res.nodes_explored == 253


def test_frozen_det16():
    res = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 4))))
    assert (res.min_cardinality, res.min_density) == (4, Fraction(1, 4))
    assert len(res.optima) == 25
    assert res.nodes_explored == 1753
    assert res.summary_line() == "optimum k=4 density=1/4 patterns=25 nodes=1753"


def test_density_matches_cardinality():
    res = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    assert res.min_density == Fraction(res.min_cardinality, 9)


def test_period_nine_lattice_reaches_target_density():
    res = minimum_lpds(SearchConfig(LatticeBasis((2, 1), (-3, 3))))
    assert (res.min_cardinality, res.min_density) == (2, Fraction(2, 9))
    assert len(res.optima) == 1
    assert res.nodes_explored == 37


# -- determinism -------------------------------------------------------------

def test_repeat_runs_identical():
    a = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    b = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    assert a.nodes_explored == b.nodes_explored
    assert _forms(a) == _forms(b)


def test_workers_do_not_change_the_answer():
    one = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 4))))
    two = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 4)), workers=2))
    assert one.nodes_explored == two.nodes_explored == 1753
    assert _forms(one) == _forms(two)


# -- optima are genuine (canonical forms may need the index-2 lift) ----------

def test_optima_reverify():
    for uv in [((2, 0), (0, 2)), ((4, 0), (0, 4))]:
        res = minimum_lpds(SearchConfig(LatticeBasis(*uv)))
        for p in res.optima:
            assert verify_lpds(p).valid


def test_canonical_stripes_need_the_lift():
    res = minimum_lpds(SearchConfig(LatticeBasis((2, 0), (0, 2))))
    stripes = res.optima[0]  # canonical form has a single base point
    assert len(stripes.base) == 1
    assert verify_lpds(stripes, allow_refinement=False).paired is False
    assert verify_lpds(stripes).valid


# -- infeasibility, budgets, guards ------------------------------------------

def test_unit_lattice_infeasible():
    res = minimum_lpds(SearchConfig(LatticeBasis((1, 0), (0, 1))))
    assert res.status == "infeasible"
    assert res.nodes_explored == 0
    assert res.summary_line() == (
        "infeasible no valid pattern with at most 1 members per domain nodes=0"
    )


def test_cardinality_cap_infeasible():
    res = minimum_lpds(
        SearchConfig(LatticeBasis((3, 0), (0, 3)), max_cardinality=2)
    )
    assert res.status == "infeasible"
    assert res.min_cardinality is None
    assert res.nodes_explored == 34


def test_node_budget_exceeded():
    res = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 4)), node_budget=50))
    assert res.status == "budgetExceeded"
    assert res.nodes_explored == 51
    assert res.summary_line() == "budget-exceeded nodes=51"
    # budgets force the single-worker path, so the count stays reproducible
    multi = minimum_lpds(
        SearchConfig(LatticeBasis((4, 0), (0, 4)), node_budget=50, workers=4)
    )
    assert multi.nodes_explored == 51


def test_domain_guards():
    with pytest.raises(ValueError, match="allow_large"):
        minimum_lpds(SearchConfig(LatticeBasis((9, 0), (0, 9))))
    with pytest.raises(ValueError, match="16"):
        brute_force_oracle(LatticeBasis((5, 0), (0, 5)))


# -- the leaf asks only for the matching; the locks decide the rest -----------

@pytest.mark.parametrize(
    "u, v",
    [((6, 0), (0, 3)), ((3, 0), (0, 6)), ((4, 0), (0, 4)), ((6, 0), (0, 4)), ((4, 0), (1, 6))],
)
def test_leaf_optima_pass_the_naive_checker(u, v):
    basis = LatticeBasis(u, v)
    res = minimum_lpds(SearchConfig(basis))
    assert res.status == "optimumFound"
    for p in res.optima:
        own = PeriodicPattern.make(basis, [c for c in basis.domain_cells() if p.contains(c)])
        assert len(own.base) == res.min_cardinality
        assert naive_check(own).valid
    if (u, v) == ((4, 0), (1, 6)):
        # the open lock of a cell can fall due before the cell itself
        assert len(res.optima) == 30
        assert res.nodes_explored == 52292
