"""Exact-cardinality search vs. the brute-force oracle, plus its contracts."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import kinglpds.search
from kinglpds.grid import neighbors
from kinglpds.pattern import (
    LatticeBasis,
    PeriodicPattern,
    catalog,
    serialize_pattern,
    translation_canonical,
)
from kinglpds.search import SearchConfig, _packing, _paired, _tables, minimum_lpds
from kinglpds.verify import _match_at_period, verify_lpds
from naive_lpds import brute_force_oracle, naive_check


def _forms(result):
    return [serialize_pattern(p) for p in result.optima]


# -- agreement with the oracle -----------------------------------------------

# the 16-cell lattices are visited row-major, column-major ((8,0)/(0,2)) and
# breadth-first ((8,0)/(1,2), (16,0)/(7,1)), and the lower bound cuts on each
@pytest.mark.parametrize(
    "u, v",
    [
        ((2, 0), (0, 2)), ((3, 0), (0, 3)), ((2, 1), (-3, 3)),
        ((4, 0), (0, 4)), ((8, 0), (0, 2)), ((8, 0), (1, 2)), ((16, 0), (7, 1)),
    ],
)
def test_search_matches_oracle(u, v):
    basis = LatticeBasis(u, v)
    res = minimum_lpds(SearchConfig(basis))
    ora = brute_force_oracle(basis)
    assert res.status == ora.status == "optimumFound"
    assert res.min_cardinality == ora.min_cardinality
    assert res.min_density == ora.min_density
    assert _forms(res) == _forms(ora)


@pytest.mark.parametrize(
    "u, v, head",
    [
        ((4, 0), (0, 4), [(0, 0), (1, 0), (2, 0), (3, 0)]),
        ((8, 0), (0, 2), [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ((8, 0), (1, 2), [(0, 0), (0, 1), (1, 1), (2, 1)]),
        ((16, 0), (7, 1), [(0, 0), (6, 0), (7, 0), (8, 0)]),
    ],
)
def test_residue_order_is_chosen_per_lattice(u, v, head):
    domain = _tables(LatticeBasis(u, v)).domain
    assert domain[:4] == head
    assert sorted(domain) == sorted(LatticeBasis(u, v).domain_cells())


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
    assert res.nodes_explored == 243


def test_frozen_det16():
    res = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 4))))
    assert (res.min_cardinality, res.min_density) == (4, Fraction(1, 4))
    assert len(res.optima) == 25
    assert res.nodes_explored == 1624
    assert res.summary_line() == "optimum k=4 density=1/4 patterns=25 nodes=1624"


def test_density_matches_cardinality():
    res = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    assert res.min_density == Fraction(res.min_cardinality, 9)


def test_period_nine_lattice_reaches_target_density():
    res = minimum_lpds(SearchConfig(LatticeBasis((2, 1), (-3, 3))))
    assert (res.min_cardinality, res.min_density) == (2, Fraction(2, 9))
    assert len(res.optima) == 1
    assert res.nodes_explored == 31


# -- determinism -------------------------------------------------------------

def test_repeat_runs_identical():
    a = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    b = minimum_lpds(SearchConfig(LatticeBasis((3, 0), (0, 3))))
    assert a.nodes_explored == b.nodes_explored
    assert _forms(a) == _forms(b)


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
    assert _match_at_period(stripes)[0] is None
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
    assert res.nodes_explored == 24


def test_node_budget_exceeded():
    res = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 4)), node_budget=50))
    assert res.status == "budgetExceeded"
    assert res.nodes_explored == 51
    assert res.summary_line() == "budget-exceeded nodes=51"
    # nodes of earlier k count against the budget: the optimum needs 1624
    basis = LatticeBasis((4, 0), (0, 4))
    enough = minimum_lpds(SearchConfig(basis, node_budget=1624))
    assert enough.status == "optimumFound"
    assert enough.nodes_explored == 1624
    short = minimum_lpds(SearchConfig(basis, node_budget=1623))
    assert short.status == "budgetExceeded"
    assert short.nodes_explored == 1624


def test_domain_guards():
    with pytest.raises(ValueError, match="81 cells; MAX_DOMAIN is 64"):
        minimum_lpds(SearchConfig(LatticeBasis((9, 0), (0, 9))))
    with pytest.raises(ValueError, match="16"):
        brute_force_oracle(LatticeBasis((5, 0), (0, 5)))


# -- the leaf asks only for the matching; the locks decide the rest -----------

LEAF_LATTICES = [
    ((6, 0), (0, 3)), ((3, 0), (0, 6)), ((4, 0), (0, 4)), ((6, 0), (0, 4)), ((4, 0), (1, 6)),
]


@pytest.mark.parametrize("u, v", LEAF_LATTICES)
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
        assert res.nodes_explored == 42027


# on the 37-cell strip the greedy packing alone grows from position 17 to 18
@pytest.mark.parametrize("u, v", LEAF_LATTICES + [((37, 0), (11, 1))])
def test_need_is_a_sound_lower_bound(u, v):
    basis = LatticeBasis(u, v)
    tables = _tables(basis)
    domain, need = tables.domain, tables.need
    n = len(domain)
    deps = [dep for filed in tables.lock_dl for dep in filed]
    greedy = []
    for pos in range(n + 1):
        packed = _packing(deps, pos)
        greedy.append(len(packed))
        assert all(dep >> pos << pos == dep for dep in packed)
        assert all(not a & b for a, b in combinations(packed, 2))
    # a packing for pos + 1 is one for pos, so need is the suffix maximum
    assert need == [max(greedy[pos:]) for pos in range(n + 1)]
    assert all(a >= b for a, b in zip(need, need[1:]))
    if (u, v) == ((37, 0), (11, 1)):
        assert greedy[17] < greedy[18]
        return  # no optimum within reach of a test
    # every translate of every optimum meets the bound, not only those at 0
    res = minimum_lpds(SearchConfig(basis))
    position = {c: i for i, c in enumerate(domain)}
    for p in res.optima:
        for tx, ty in domain:
            held = [position[c] for c in domain if p.contains((c[0] + tx, c[1] + ty))]
            assert len(held) == res.min_cardinality
            for pos in range(n + 1):
                assert sum(i >= pos for i in held) >= need[pos]


def _count_matchings(basis, members):
    """Perfect matchings of the loop-free quotient, by exhaustive backtracking."""
    adj = {r: set() for r in members}
    for r in members:
        for q in map(basis.reduce, neighbors(r)):
            if q != r and q in adj:
                adj[r].add(q)

    def rec(free):
        if not free:
            return 1
        r = min(free)
        rest = free - {r}
        return sum(rec(rest - {q}) for q in adj[r] if q in rest)

    has_triangle = any(adj[a] & adj[b] for a in adj for b in adj[a])
    return rec(frozenset(members)), has_triangle


# (6,0)/(1,1) holds the neighbour offset (1,1), so every cell sees itself
@pytest.mark.parametrize(
    "u, v",
    [((2, 0), (0, 2)), ((6, 0), (0, 2)), ((2, 1), (-3, 3)), ((6, 0), (1, 1))] + LEAF_LATTICES,
)
def test_mask_pairing_matches_both_oracles(u, v):
    basis = LatticeBasis(u, v)
    tables = _tables(basis)
    n = len(tables.domain)
    rng = random.Random(f"{u}{v}")
    outcomes, odd_cycles = set(), 0
    for _ in range(60):
        positions = rng.sample(range(n), 2 * rng.randrange(1, min(n, 12) // 2 + 1))
        members = [tables.domain[i] for i in positions]
        paired = _paired(tables.adj, sum(1 << i for i in positions))
        p = PeriodicPattern.make(basis, members)
        assert paired == (_match_at_period(p)[0] is not None)
        count, has_triangle = _count_matchings(basis, members)
        assert paired == (count > 0)
        outcomes.add(paired)
        odd_cycles += has_triangle
    assert odd_cycles
    assert outcomes == {True, False} or n <= 4


def test_one_canonicalization_per_optimum(monkeypatch):
    calls = []
    real = kinglpds.search.translation_canonical
    monkeypatch.setattr(
        kinglpds.search, "translation_canonical", lambda p: calls.append(p) or real(p)
    )
    basis = LatticeBasis((6, 0), (0, 3))
    res = minimum_lpds(SearchConfig(basis))
    assert len(res.optima) == len(calls) == 73
    assert res.nodes_explored == 7613


# -- transposing the lattice transposes the search ----------------------------

def _transposed(p):
    u, v = p.basis.u, p.basis.v
    flipped = PeriodicPattern.make(
        LatticeBasis(u[::-1], v[::-1]), [(y, x) for x, y in p.base]
    )
    return serialize_pattern(translation_canonical(flipped))


def test_transposed_lattice_gives_transposed_optima():
    wide = minimum_lpds(SearchConfig(LatticeBasis((9, 0), (0, 4))))
    tall = minimum_lpds(SearchConfig(LatticeBasis((4, 0), (0, 9))))
    assert wide.min_cardinality == tall.min_cardinality == 8
    assert len(wide.optima) == len(tall.optima) == 8
    assert sorted(_transposed(p) for p in wide.optima) == _forms(tall)
    # the chosen orders are transposes too, so the trees are the same size
    assert wide.nodes_explored == tall.nodes_explored == 587910
    l2 = serialize_pattern(translation_canonical(catalog("L2")))
    assert l2 in _forms(wide)
