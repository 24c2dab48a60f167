"""Local structure claims: exhaustive window checks and rate arithmetic."""

import re
from fractions import Fraction

from kinglpds.discharge import pendant_rate
from kinglpds.lemmas import (
    _CENTER,
    _FAR_PARTNER,
    _WindowSearch,
    _count_vectors,
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
            return any(e.is_in(i) for i in pend)

        def fails(e):
            return all(e.is_out(i) for i in pend)

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
