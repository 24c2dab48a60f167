"""Verification: domination, locating, periodic matchings, window checks."""

import gc
import random
import tracemalloc
from fractions import Fraction
from functools import cache

import pytest

import kinglpds.verify
from kinglpds.grid import chebyshev, closed_neighborhood, common_neighbors, locks, neighbors
from kinglpds.pattern import (
    FiniteWindow,
    LatticeBasis,
    PeriodicPattern,
    XDescriptor,
    catalog,
    lx_pattern,
    torus_landing,
    truncate,
)
from kinglpds.search import SearchConfig, minimum_lpds
from kinglpds.verify import (
    Classification,
    NonMemberInfo,
    PairInfo,
    _match_at_period,
    check_domination,
    classify,
    check_locating,
    find_perfect_matching,
    saturates,
    verify_lpds,
    verify_window,
)
from naive_lpds import naive_check, naive_saturates, perfect_matchings


# -- independent matching oracle ---------------------------------------------
# ``perfect_matchings`` counts the perfect matchings of the loop-free quotient
# by backtracking (tests/naive_lpds.py); existence must agree.

_BASES = [
    ((4, 0), (0, 4)),
    ((3, 1), (0, 4)),
    ((2, 1), (-3, 3)),
    ((6, 0), (0, 2)),
    ((5, 0), (0, 3)),
]


def test_matching_existence_matches_oracle_on_catalog():
    for name in ("L1", "L2"):
        p = catalog(name)
        assert perfect_matchings(p) > 0
        matching, _ = _match_at_period(p)
        assert matching is not None
        matching.validate()


def test_matching_existence_matches_oracle_on_random_patterns():
    rng = random.Random(20260822)
    for _ in range(120):
        u, v = _BASES[rng.randrange(len(_BASES))]
        basis = LatticeBasis(u, v)
        cells = basis.domain_cells()
        size = rng.randrange(2, len(cells) + 1)
        pts = rng.sample(cells, size)
        p = PeriodicPattern.make(basis, pts)
        oracle_has = perfect_matchings(p) > 0
        matching, witnesses = _match_at_period(p)
        assert (matching is not None) == oracle_has
        if matching is not None:
            matching.validate()
        else:
            assert witnesses
            full = find_perfect_matching(p)
            assert full.lifted_basis is not None or full.obstruction


def test_l2_quotient_matching_is_unique():
    assert perfect_matchings(catalog("L2")) == 1


# -- full periodic verification ----------------------------------------------

def test_catalog_patterns_are_valid():
    for name in ("L1", "L2"):
        r = verify_lpds(catalog(name))
        assert r.valid
        assert r.density == Fraction(2, 9)
        assert not r.violations
    for bits in ("0", "10", "101"):
        r = verify_lpds(lx_pattern(XDescriptor.from_bits(bits)))
        assert r.valid
        assert r.density == Fraction(2, 9)


def test_machine_line_exact():
    assert verify_lpds(catalog("L1")).machine_line() == (
        "verdict dominated=true locating=true paired=true"
        " density=2/9 DS1=2/9 DS2=0/1"
    )
    assert verify_lpds(catalog("L2")).machine_line() == (
        "verdict dominated=true locating=true paired=true"
        " density=2/9 DS1=1/9 DS2=1/9"
    )


def test_split_densities():
    c1 = verify_lpds(catalog("L1")).classification
    assert (c1.d_far, c1.d_close) == (Fraction(2, 9), 0)
    c2 = verify_lpds(catalog("L2")).classification
    assert (c2.d_far, c2.d_close) == (Fraction(1, 9), Fraction(1, 9))
    assert c2.density == Fraction(2, 9)


def test_undominated_pattern_reported():
    iso = PeriodicPattern.make(LatticeBasis((10, 0), (0, 10)), [(0, 0), (1, 1)])
    assert check_domination(iso)
    r = verify_lpds(iso)
    assert not r.valid and not r.dominating
    assert {c.kind for c in r.violations} == {"undominated"}
    # the diagonal pair itself still matches
    assert r.paired is True


def test_locating_check_requires_domination():
    iso = PeriodicPattern.make(LatticeBasis((10, 0), (0, 10)), [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        check_locating(iso)


def test_verify_checks_domination_once(monkeypatch):
    calls = []
    original = kinglpds.verify.check_domination

    def counting(pattern):
        calls.append(pattern)
        return original(pattern)

    monkeypatch.setattr(kinglpds.verify, "check_domination", counting)
    patterns = [
        catalog("L1"),
        catalog("L2"),
        PeriodicPattern.make(LatticeBasis((3, 0), (0, 1)), [(0, 0)]),
        PeriodicPattern.make(LatticeBasis((10, 0), (0, 10)), [(0, 0), (1, 1)]),
    ]
    for p in patterns:
        verify_lpds(p)
    assert len(calls) == len(patterns)


# bases where a neighbourhood wraps onto itself, plus ordinary ones
_NAIVE_BASES = [
    ((1, 0), (0, 2)),
    ((3, 0), (0, 1)),
    ((2, 1), (-3, 3)),
    ((4, 0), (0, 4)),
    ((3, 1), (0, 4)),
    ((9, 0), (0, 4)),
]


def test_domination_and_locating_match_naive_checker():
    rng = random.Random(20261018)
    dominated = not_locating = 0
    for _ in range(400):
        basis = LatticeBasis(*rng.choice(_NAIVE_BASES))
        cells = basis.domain_cells()
        density = rng.uniform(0.15, 0.7)
        p = PeriodicPattern.make(basis, [c for c in cells if rng.random() < density])
        report = verify_lpds(p)
        naive = naive_check(p)
        assert (report.dominating, report.locating) == (naive.dominated, naive.locating)
        witnesses = lambda kind: {c.witnesses for c in report.violations if c.kind == kind}
        assert witnesses("undominated") == {(u,) for u in naive.undominated}
        if naive.dominated:
            dominated += 1
            not_locating += not naive.locating
            assert witnesses("unlocatable-pair") == naive.collisions
    # both verdicts must be exercised, not hold vacuously
    assert dominated >= 100 and not_locating >= 30


def test_locks_fire_exactly_on_violations():
    # the search and the lemma engine prune on these masks: some lock is
    # entirely non-members exactly when some cell has no member among its 8
    # neighbors (undominated, or a member left unpaired) or locating fails
    rng = random.Random(20261019)
    isolated = not_locating = held = 0
    for _ in range(300):
        basis = LatticeBasis(*rng.choice(_NAIVE_BASES))
        cells, land = torus_landing(basis)
        density = rng.uniform(0.15, 0.7)
        p = PeriodicPattern.make(basis, [c for c in cells if rng.random() < density])
        members = sum(1 << i for i, c in enumerate(cells) if c in p.base)
        locked = any(not members & dep for dep in locks(enumerate(land), range(len(cells))))
        if any(not any(p.contains(n) for n in neighbors(c)) for c in cells):
            assert locked
            isolated += 1
        elif not naive_check(p).locating:
            assert locked
            not_locating += 1
        else:
            assert not locked
            held += 1
    # every outcome is exercised, so neither direction holds vacuously
    assert (isolated, not_locating, held) == (89, 43, 168)


def test_classification_waits_for_first_use(monkeypatch):
    calls = []
    original = kinglpds.verify.classify

    def counting(matching):
        calls.append(matching.pattern)
        return original(matching)

    monkeypatch.setattr(kinglpds.verify, "classify", counting)
    minimum_lpds(SearchConfig(LatticeBasis((6, 0), (0, 3))))
    assert calls == []
    report = verify_lpds(catalog("L2"))
    report.machine_line()
    assert calls == []
    report.classification
    assert len(calls) == 1


def test_verify_lpds_scans_the_torus_once(monkeypatch):
    calls = []
    original = kinglpds.verify._isolated

    def counting(member, rows):
        calls.append(member)
        return original(member, rows)

    monkeypatch.setattr(kinglpds.verify, "_isolated", counting)
    cols = PeriodicPattern.make(LatticeBasis((3, 0), (0, 1)), [(0, 0)])
    for pattern, valid in ((catalog("L2"), True), (cols, False)):
        calls.clear()
        assert verify_lpds(pattern).valid is valid
        assert len(calls) == 1
    # on its own, the locating check still insists on domination
    sparse = PeriodicPattern.make(LatticeBasis((4, 0), (0, 4)), [(0, 0), (1, 0)])
    assert check_domination(sparse)
    with pytest.raises(ValueError, match="requires domination"):
        check_locating(sparse)


def test_verify_holds_no_large_tables_afterwards():
    # verify_lpds drops its torus on return, and torus_landing caches only
    # bases of at most LANDING_CACHE_CELLS cells, so verifying patterns of
    # 4,225 and 5,184 cells leaves none of their tables alive (with both
    # caches unbounded, about 5 MB stays held)
    patterns = [
        PeriodicPattern.make(LatticeBasis((side, 0), (0, side)), [(0, 0), (1, 0)])
        for side in (65, 72)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for pattern in patterns:
            assert not verify_lpds(pattern).dominating
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_checks_on_their_own_hold_no_torus():
    # verify_lpds shares one torus scan between its two checks only while it
    # runs; each check called on its own keeps nothing (a kept torus of
    # (72,0)/(0,72) holds about 3 MB)
    basis = LatticeBasis((72, 0), (0, 72))
    sparse = PeriodicPattern.make(basis, [(0, 0), (1, 0), (0, 36), (1, 36)])
    full = PeriodicPattern.make(basis, [(x, y) for x in range(72) for y in range(72)])
    gc.collect()
    tracemalloc.start()
    try:
        assert check_domination(sparse)
        assert check_locating(full) == []
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_dominating_but_not_locating():
    # full columns at x % 3 == 0: (2,0) and (4,0) see the same members
    cols = PeriodicPattern.make(LatticeBasis((3, 0), (0, 1)), [(0, 0)])
    r = verify_lpds(cols)
    assert r.dominating and not r.locating and not r.valid
    assert any(
        c.kind == "unlocatable-pair" and set(c.witnesses) == {(2, 0), (4, 0)}
        for c in r.violations
    )


# -- index-2 refinement ------------------------------------------------------

def test_refinement_lifts_odd_quotient():
    stripes = PeriodicPattern.make(LatticeBasis((1, 0), (0, 2)), [(0, 0)])
    bare, witnesses = _match_at_period(stripes)
    assert bare is None
    assert witnesses == ((0, 0),)
    lone = find_perfect_matching(PeriodicPattern.make(LatticeBasis((3, 0), (0, 3)), [(0, 0)]))
    assert lone.matching is None
    assert "odd member count 1" in lone.obstruction
    assert lone.witnesses == ((0, 0),)

    lifted = find_perfect_matching(stripes)
    assert lifted.matching is not None
    assert lifted.lifted_basis is not None
    assert abs(lifted.lifted_basis.det) == 2 * abs(stripes.basis.det)

    r = verify_lpds(stripes)
    assert r.valid
    assert r.density == Fraction(1, 2)
    assert r.lifted_basis is not None


# -- partners of world members -----------------------------------------------

def test_matching_partner_answers_for_every_world_member():
    stripes = PeriodicPattern.make(LatticeBasis((1, 0), (0, 2)), [(0, 0)])
    patterns = [catalog("L1"), catalog("L2"), lx_pattern(XDescriptor.from_bits("101")), stripes]
    for base in (  # the two rescue patterns
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2), (1, 4), (3, 4)],
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 3), (4, 4)],
    ):
        patterns.append(PeriodicPattern.make(LatticeBasis((5, 0), (0, 5)), base))
    for pattern in patterns:
        report = verify_lpds(pattern)
        matching = report.matching
        assert (report.lifted_basis is not None) == (pattern is stripes)
        members = [
            (x, y) for x in range(-7, 8) for y in range(-7, 8) if pattern.contains((x, y))
        ]
        assert members
        for p in members:
            q = matching.partner(p)
            assert pattern.contains(q) and chebyshev(p, q) == 1, (pattern, p, q)
            assert matching.partner(q) == p, (pattern, p, q)
        assert report.classification.pairs.keys() == matching.pattern.base


# -- classification on the torus table --------------------------------------
# The reference reads the definition on world points: neighbor sets, the
# pattern's membership test and residues through ``basis.reduce``.

def reference_classify(pattern, matching):
    member = cache(pattern.contains)
    basis = pattern.basis

    interval_residues = set()
    raw = {}
    for v in pattern.base:
        mv = matching.partner(v)
        common = common_neighbors(v, mv)
        kind = "far" if len(common) == 2 else "close"
        pend = tuple(sorted(set(neighbors(v)) - closed_neighborhood(mv)))
        intv = tuple(sorted(common))
        expected = (5, 2) if kind == "far" else (3, 4)
        assert (len(pend), len(intv)) == expected, f"pendant/interval split broken at {v}"
        raw[v] = (kind, pend, intv)
        for u in intv:
            interval_residues.add(basis.reduce(u))

    tier = lambda u: sum(member(n) for n in neighbors(u))
    in_interval = lambda u: basis.reduce(u) in interval_residues

    pairs = {}
    far = close = 0
    for v, (kind, pend, intv) in raw.items():
        split = {0: [], 1: [], 2: [], 3: []}
        for u in pend:
            if member(u) or in_interval(u):
                split[0].append(u)
            else:
                split[min(tier(u), 3)].append(u)
        pairs[v] = PairInfo(
            kind=kind,
            pendants=pend,
            intervals=intv,
            pendant_split={k: tuple(pts) for k, pts in split.items()},
            i0=sum(member(u) for u in intv),
        )
        if kind == "far":
            far += 1
        else:
            close += 1

    nonmembers = {
        cell: NonMemberInfo(min(tier(cell), 3), in_interval(cell))
        for cell in basis.domain_cells()
        if not member(cell)
    }
    return Classification(
        matching=matching,
        pairs=pairs,
        nonmembers=nonmembers,
        d_far=Fraction(far, basis.cells),
        d_close=Fraction(close, basis.cells),
    )


def _classify_inputs():
    yield catalog("L1")
    yield catalog("L2")
    for period in range(1, 5):
        for n in range(2 ** period):
            yield lx_pattern(XDescriptor.from_bits(format(n, f"0{period}b")))
    for base in (
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2), (1, 4), (3, 4)],
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (2, 3), (4, 4)],
    ):
        yield PeriodicPattern.make(LatticeBasis((5, 0), (0, 5)), base)
    for u, v in [((6, 0), (0, 3)), ((4, 0), (1, 6)), ((2, 0), (0, 2))]:
        yield from minimum_lpds(SearchConfig(LatticeBasis(u, v))).optima


def test_torus_classify_equals_world_point_definition():
    lifted = 0
    for pattern in _classify_inputs():
        report = verify_lpds(pattern)
        assert report.valid
        lifted += report.lifted_basis is not None
        got = classify(report.matching)
        ref = reference_classify(report.matching.pattern, report.matching)
        assert got.pairs.keys() == ref.pairs.keys()
        for v, info in ref.pairs.items():
            assert vars(got.pairs[v]) == vars(info), (pattern, v)
        assert got.nonmembers.keys() == ref.nonmembers.keys()
        for u, info in ref.nonmembers.items():
            assert vars(got.nonmembers[u]) == vars(info), (pattern, u)
        assert (got.d_far, got.d_close) == (ref.d_far, ref.d_close)
        assert got.matching is report.matching
    # the (2,0)/(0,2) stripes are matched on an index-2 refinement
    assert lifted


# -- finite windows ----------------------------------------------------------

def test_window_of_valid_pattern_is_clean():
    for name in ("L1", "L2"):
        w = truncate(catalog(name), -5, 5, -5, 5)
        r = verify_window(w)
        assert r.valid
        assert not r.violations
        assert r.machine_line().endswith("DS1=n/a DS2=n/a")


def test_window_too_small():
    with pytest.raises(ValueError):
        verify_window(FiniteWindow(0, 3, 0, 6, frozenset()))


def test_window_pairing_three_valued():
    # a lone interior member can never be paired
    stranded = verify_window(FiniteWindow(0, 6, 0, 6, frozenset({(3, 3)})))
    assert stranded.paired is False
    assert any(c.kind == "unpairable" for c in stranded.violations)
    # three in a row: saturation fails but nobody is stranded -> undecided
    row = verify_window(
        FiniteWindow(0, 6, 0, 6, frozenset({(2, 3), (3, 3), (4, 3)}))
    )
    assert row.paired is None
    assert "paired=n/a" in row.machine_line()


def _spy(monkeypatch, name, record):
    """Wrap ``kinglpds.verify.<name>``; ``record(args, result)`` sees each call."""
    calls = []
    original = getattr(kinglpds.verify, name)

    def spying(*args):
        result = original(*args)
        calls.append(record(args, result))
        return result

    monkeypatch.setattr(kinglpds.verify, name, spying)
    return calls


def _counting_augment(monkeypatch):
    """(root, covered afterwards) for each augmentation ``_cover`` runs."""
    return _spy(monkeypatch, "_augment", lambda args, _: (args[3], args[1][args[3]] >= 0))


def test_saturates_matches_backtracking_oracle(monkeypatch):
    calls = _counting_augment(monkeypatch)
    rng = random.Random(27)
    triangles = [{(0, 0), (1, 0), (0, 1), (1, 1)} - {c} for c in ((0, 0), (1, 0), (0, 1), (1, 1))]
    seen = set()  # (augmented, answer)
    for case in range(1200):
        w, h = rng.randint(2, 5), rng.randint(2, 4)
        cells = [(x, y) for x in range(w) for y in range(h)]
        members = {c for c in cells if rng.random() < rng.uniform(0.3, 0.9)}
        required = {p for p in members if rng.random() < 0.6}
        if case % 4 == 1:
            required = set()
        elif case % 4 == 2:  # an odd king triangle, all of it required
            dx, dy = rng.randint(0, w - 2), rng.randint(0, h - 2)
            tri = {(x + dx, y + dy) for x, y in rng.choice(triangles)}
            members |= tri
            required |= tri
        before = len(calls)
        got = saturates(sorted(members), required)
        assert got == naive_saturates(members, required), (sorted(members), sorted(required))
        seen.add((len(calls) > before, got))
    # a greedy cover answers True alone; both answers also come past it
    assert seen == {(False, True), (True, True), (True, False)}


def test_saturates_falls_back_where_greedy_fails(monkeypatch):
    # (0,0) is matched first, along OPEN, to (1,0), which leaves (2,0) with no
    # free neighbour; one augmentation from (2,0), member 2, then runs
    calls = _counting_augment(monkeypatch)
    required = {(0, 0), (2, 0)}
    assert saturates([(0, 0), (1, 0), (2, 0), (0, 1)], required) is True
    assert saturates([(0, 0), (1, 0), (2, 0)], required) is False
    assert calls == [(2, True), (2, False)]


def test_window_pairing_reaches_matcher_only_past_greedy(monkeypatch):
    def refuse(*args):
        raise AssertionError("augmentation ran")

    monkeypatch.setattr(kinglpds.verify, "_augment", refuse)
    blocks = XDescriptor.explicit([-6, -2, 0, 1, 3, 5, 8, 9, 11, 13])
    lx = catalog("LX", blocks, (-7, 37, 3, 47))
    full = frozenset((x, y) for x in range(100) for y in range(100))
    for window in (lx, FiniteWindow(0, 99, 0, 99, full)):
        assert verify_window(window).paired is True
    # three in a row needs an augmentation (paired=n/a with the real one)
    with pytest.raises(AssertionError, match="augmentation ran"):
        verify_window(FiniteWindow(0, 6, 0, 6, frozenset({(2, 3), (3, 3), (4, 3)})))


def test_dense_window_pairs_by_augmenting_from_the_greedy_gaps(monkeypatch):
    # a 60x60 window keeping each cell with probability 0.9 is one giant
    # member component with a few greedy gaps; each is closed by one path
    calls = _counting_augment(monkeypatch)
    rng = random.Random(30)
    points = frozenset((x, y) for x in range(60) for y in range(60) if rng.random() < 0.9)
    assert verify_window(FiniteWindow(0, 59, 0, 59, points)).paired is True
    assert calls and all(covered for _, covered in calls)


def test_matcher_agrees_with_backtracking_on_blossoms(monkeypatch):
    # both pairing questions on random king subgraphs, where the triangles of
    # the king graph make the augmentation shrink blossoms
    blossoms = _spy(monkeypatch, "_blossom", lambda args, inside: len(inside))
    rng = random.Random(30)
    shrunk = {"window": 0, "period": 0}
    for _ in range(300):
        w, h = rng.randint(3, 6), rng.randint(2, 4)
        cells = [(x, y) for x in range(w) for y in range(h)]
        members = {c for c in cells if rng.random() < rng.uniform(0.4, 0.9)}
        required = {p for p in members if rng.random() < rng.choice((0.6, 1.0))}
        before = len(blossoms)
        got = saturates(sorted(members), required)
        assert got == naive_saturates(members, required), (sorted(members), sorted(required))
        shrunk["window"] += len(blossoms) > before

        basis = LatticeBasis(*rng.choice(_BASES))
        cells = basis.domain_cells()
        p = PeriodicPattern.make(basis, rng.sample(cells, 2 * rng.randint(1, len(cells) // 2)))
        before = len(blossoms)
        matching, witnesses = _match_at_period(p)
        assert (matching is not None) == (perfect_matchings(p) > 0), p
        if matching is None:
            assert witnesses and len(witnesses) % 2 == 0 and set(witnesses) <= p.base
        else:
            matching.validate()
        shrunk["period"] += len(blossoms) > before
    assert shrunk["window"] >= 50 and shrunk["period"] >= 10, shrunk
    # a blossom is an odd cycle of blossoms: it adds an even number of vertices to its base's
    assert all(size >= 2 and size % 2 == 0 for size in blossoms)


# -- the matching rule ---------------------------------------------------------
# Each residue still free, in sorted order, takes the first free member
# residue reached by its king steps in row-major order (by dy, then dx), and
# each pair steps along its lex-least king step.  Where that covers every
# residue, it is the matching reported.

_ROW_MAJOR = sorted(((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy),
                    key=lambda d: (d[1], d[0]))


def _greedy_seed(pattern):
    """The greedy matching as king steps, or None when it leaves a residue free."""
    reduce = pattern.basis.reduce
    lands = lambda r: [(d, reduce((r[0] + d[0], r[1] + d[1]))) for d in _ROW_MAJOR]
    step = {}
    for r in sorted(pattern.base):
        if r in step:
            continue
        q = next((q for _, q in lands(r) if q != r and q in pattern.base and q not in step), None)
        if q is None:
            return None
        d = min(d for d, t in lands(r) if t == q)
        step[r], step[q] = d, (-d[0], -d[1])
    return step


def test_greedy_seed_is_the_matching_where_it_is_perfect():
    patterns = [catalog("L1"), catalog("L2")]
    for period in range(1, 6):
        for n in range(2 ** period):
            patterns.append(lx_pattern(XDescriptor.from_bits(format(n, f"0{period}b"))))
    rng = random.Random(30)
    for _ in range(300):
        basis = LatticeBasis(*rng.choice(_BASES))
        cells = basis.domain_cells()
        patterns.append(
            PeriodicPattern.make(basis, rng.sample(cells, 2 * rng.randint(1, len(cells) // 2)))
        )
    seen = {True: 0, False: 0}  # greedy perfect, among the paired patterns
    for p in patterns:
        matching, _ = _match_at_period(p)
        if matching is None:
            continue
        seed = _greedy_seed(p)
        seen[seed is not None] += 1
        if seed is not None:
            assert matching.step == seed, p
    assert seen[True] >= 50 and seen[False] >= 10, seen


def test_window_flags_planted_hole():
    w = truncate(catalog("L1"), -5, 5, -5, 5)
    holed = FiniteWindow(-5, 5, -5, 5, frozenset(set(w.points) - {(0, 0)}))
    r = verify_window(holed)
    assert not r.valid
    kinds = {c.kind for c in r.violations}
    assert "undominated" in kinds or "unlocatable-pair" in kinds
