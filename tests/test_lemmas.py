"""Local structure claims: exhaustive window checks and rate arithmetic."""

import random
import re
from fractions import Fraction

import pytest

from kinglpds.discharge import pendant_rate
from kinglpds.grid import common_neighbors
from kinglpds.lemmas import (
    _CENTER,
    _FAR_PARTNER,
    _WindowSearch,
    _adjacent_sum_cases,
    _count_vectors,
    _lemma1_cases,
    _pendants_of,
    check_adjacent_sum,
    check_all,
    check_lemma1,
    check_r_claims,
)
from kinglpds.pattern import parse_text, serialize_window
from kinglpds.verify import verify_window

HALF = Fraction(1, 2)


def test_all_claims_hold_with_frozen_config_counts():
    verdicts = check_all()
    assert [v.target for v in verdicts] == [
        "lemma1.1",
        "lemma1.2",
        "lemma1.3",
        "r-half",
        "r-lowerbound",
        "adjacent-sum",
    ]
    assert all(v.verdict == "holds" for v in verdicts)
    assert [v.configs_examined for v in verdicts] == [8945, 54332, 218, 182, 182, 4397]
    for v in verdicts:
        assert re.fullmatch(
            rf"{re.escape(v.target)} holds configs={v.configs_examined} elapsed=\d+ms",
            v.line(),
        )


def test_engine_refutes_a_false_claim():
    # "every diagonally paired member has a member pendant" is false; the
    # engine must find a locally consistent counterexample, not loop forever
    def false_hooks(engine):
        pend = [engine.index[p] for p in _pendants_of(_CENTER, _FAR_PARTNER)]

        def safe(e):
            return any(e.in_mask >> i & 1 for i in pend)

        def fails(e):
            return all(e.out_mask >> i & 1 for i in pend)

        return safe, fails

    engine = _WindowSearch(2, [(_CENTER, _FAR_PARTNER)])
    verdict, witness = engine.run(*false_hooks(engine))
    assert verdict == "counterexample"
    assert engine.configs == 24
    assert witness is not None
    # the witness really is a counterexample ...
    assert witness.contains(_CENTER) and witness.contains(_FAR_PARTNER)
    assert not any(witness.contains(p) for p in _pendants_of(_CENTER, _FAR_PARTNER))
    # ... and a locally consistent window, round-trippable as text
    assert parse_text(serialize_window(witness)) == witness
    assert verify_window(witness).valid


def test_node_budget_yields_inconclusive():
    v = check_lemma1(1, node_budget=10)
    assert v.verdict == "inconclusive"
    assert v.line() == "lemma1.1 inconclusive"
    assert check_adjacent_sum(node_budget=50).verdict == "inconclusive"


def test_node_budget_bounds_the_whole_claim():
    # lemma1.1 runs two cases (4494 + 4451 configs) and adjacent-sum eight;
    # the budget counts the configs of all of them together
    assert check_lemma1(1, node_budget=8944).verdict == "inconclusive"
    v = check_lemma1(1, node_budget=8945)
    assert (v.verdict, v.configs_examined) == ("holds", 8945)
    assert check_adjacent_sum(node_budget=4396).verdict == "inconclusive"
    v = check_adjacent_sum(node_budget=4397)
    assert (v.verdict, v.configs_examined) == ("holds", 4397)


# -- hooks against their definitions ----------------------------------------
# Each claim's (safe, fails) as first written: one mask read per cell and
# Fraction grants.  The engine's hooks read its masks and count quarters;
# they must agree with these on every state.

def _def_part1(e, pairs):
    (v, m), = pairs
    pend = [e.index[p] for p in _pendants_of(v, m)]
    nc = e.ncount
    safe = sum(1 for i in pend if not e.in_mask >> i & 1 and nc[i] == 1) <= 1
    fails = sum(1 for i in pend if e.out_mask >> i & 1 and nc[i] == 1) >= 2
    return safe, fails


def _def_part2(e, pairs):
    (v, m), = pairs
    intv = [e.index[p] for p in common_neighbors(v, m)]
    nc = e.ncount
    safe = sum(1 for i in intv if not e.in_mask >> i & 1 and nc[i] == 2) <= 1
    t1 = any(e.out_mask >> i & 1 and nc[i] == 1 for i in intv)
    t2 = sum(1 for i in intv if e.out_mask >> i & 1 and nc[i] == 2)
    return safe, t1 or t2 >= 2


def _def_part3(e, pairs):
    (v, m), = pairs
    pend = [e.index[p] for p in _pendants_of(v, m)]
    nc = e.ncount
    safe = any(e.in_mask >> i & 1 or nc[i] >= 3 for i in pend)
    fails = all(e.out_mask >> i & 1 and nc[i] <= 2 for i in pend)
    return safe, fails


def _def_adjacent_sum(e, pairs):
    idx, nc = e.index, e.ncount
    def_i = {idx[p] for v, m in pairs for p in common_neighbors(v, m)}
    sides = [
        ([idx[p] for p in _pendants_of(v, m)], [idx[p] for p in common_neighbors(v, m)])
        for v, m in pairs
    ]

    def side_rate(pend, intv):
        i0 = sum(1 for i in intv if e.in_mask >> i & 1)
        p = [0, 0, 0, 0]
        for i in pend:
            if e.in_mask >> i & 1 or i in def_i:
                p[0] += 1
            else:
                p[min(nc[i], 3)] += 1
        return pendant_rate("far", i0, p[1], p[2], p[3])

    def side_grant(pend, intv):
        if any(e.in_mask >> i & 1 for i in pend + intv):
            return HALF
        p3min = sum(1 for i in pend if e.out_mask >> i & 1 and nc[i] >= 3 and i not in def_i)
        can_t1 = sum(1 for i in pend if not e.in_mask >> i & 1 and nc[i] == 1)
        if p3min >= 2 and can_t1 <= 1:
            return Fraction(1, 4)
        return Fraction(0)

    safe = sum(side_grant(*s) for s in sides) >= HALF
    fails = sum(side_rate(*s) for s in sides) < HALF
    return safe, fails


def _random_states(engine, rng, count):
    """Set the undecided cells in, out or undecided at random, ``count`` times.

    ``ncount`` is updated in place through ``nbr_idx``, as ``_dfs`` does, so
    the hooks (which hold the list) see each state.  Some states decide a
    prefix of the search order, as the search does, others a random subset;
    some are complete leaves.
    """
    base_in, base_nc = engine.in_mask, list(engine.ncount)
    for n in range(count):
        engine.in_mask, engine.out_mask = base_in, 0
        engine.ncount[:] = base_nc
        p_in = rng.uniform(0.1, 0.6)
        end = len(engine.cells)
        cut = end if n % 3 else rng.randrange(engine.start, end + 1)
        p_open = 0.0 if n % 5 == 0 else rng.uniform(0.0, 0.5)
        for i in range(engine.start, end):
            if i >= cut or rng.random() < p_open:
                continue
            if rng.random() < p_in:
                engine.in_mask |= 1 << i
                for j in engine.nbr_idx[i]:
                    engine.ncount[j] += 1
            else:
                engine.out_mask |= 1 << i
        yield


@pytest.mark.parametrize(
    "target, cases, definition",
    [
        ("lemma1.1", _lemma1_cases(1), _def_part1),
        ("lemma1.2", _lemma1_cases(2), _def_part2),
        ("lemma1.3", _lemma1_cases(3), _def_part3),
        ("adjacent-sum", _adjacent_sum_cases(), _def_adjacent_sum),
    ],
)
def test_hooks_equal_their_definitions(target, cases, definition):
    rng = random.Random(target)
    seen = set()
    for radius, forced_pairs, make_hooks, early_cells in cases:
        engine = _WindowSearch(radius, forced_pairs, None, early_cells)
        safe, fails = make_hooks(engine)
        for _ in _random_states(engine, rng, 400):
            got = (safe(engine), fails(engine))
            assert got == definition(engine, forced_pairs), (target, forced_pairs)
            seen.add(got)
    # both answers of each hook occur, so the comparison is not vacuous
    assert {s for s, _ in seen} == {True, False}
    assert {f for _, f in seen} == {True, False}


# -- rate arithmetic ---------------------------------------------------------

def test_rate_spot_values():
    # the unique tight diagonal profile spends everything: rate drops to 0
    assert pendant_rate("far", 0, 1, 3, 1) == 0
    # a member interval neighbor restores the half rate
    assert pendant_rate("far", 1, 1, 2, 1) == HALF
    # orthogonal pairs always afford the half rate
    assert pendant_rate("close", 0, 1, 0, 2) == HALF
    # no tier-3 pendants at all: rate defaults to the cap
    assert pendant_rate("far", 0, 0, 0, 0) == HALF


def test_count_vector_inventory():
    vecs = _count_vectors()
    assert len(vecs) == 182
    assert len(set(vecs)) == 182
    kinds = {v[0] for v in vecs}
    assert kinds == {"far", "close"}
    for kind, i0, p0, p1, p2, p3 in vecs:
        total = p0 + p1 + p2 + p3
        if kind == "far":
            assert total == 5
            assert p1 <= 1
            assert p0 + p3 >= 1
        else:
            assert total == 3
            assert p1 <= 1


def test_half_rate_conditions_are_exact_and_necessary():
    vecs = _count_vectors()
    covered = [
        v for v in vecs if v[0] == "close" or v[2] + v[1] >= 1 or v[3] == 0
    ]
    assert all(
        pendant_rate(kind, i0, p1, p2, p3) == HALF
        for kind, i0, p0, p1, p2, p3 in covered
    )
    # dropping the side conditions would be wrong: some uncovered profile
    # cannot afford the half rate
    uncovered = [v for v in vecs if v not in covered]
    assert any(
        pendant_rate(kind, i0, p1, p2, p3) < HALF
        for kind, i0, p0, p1, p2, p3 in uncovered
    )


def test_lower_bound_holds_and_is_tight():
    vecs = _count_vectors()
    tight = False
    for kind, i0, p0, p1, p2, p3 in vecs:
        if p3 == 0:
            continue
        bound = Fraction(p3 - 1, 2 * p3)
        rate = pendant_rate(kind, i0, p1, p2, p3)
        assert rate >= bound
        tight = tight or rate == bound
    assert tight


def test_r_claim_verdicts():
    half, low = check_r_claims()
    assert (half.target, half.verdict) == ("r-half", "holds")
    assert (low.target, low.verdict) == ("r-lowerbound", "holds")
    assert half.configs_examined == low.configs_examined == 182
