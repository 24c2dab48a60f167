"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test is self-contained and asserts both the mathematical content and,
where stated, the runtime budget, so `pytest -v` on this file reads as a
pass/fail checklist of the package's headline claims.
"""

import random
import time
from fractions import Fraction

from kinglpds.discharge import (
    combined_lower_bound,
    inequality_values,
    minority_thresholds,
    run_pipeline,
)
from kinglpds.grid import chebyshev, closed_neighborhood, neighbors
from kinglpds.lemmas import check_all
from kinglpds.pattern import (
    FiniteWindow,
    LatticeBasis,
    PeriodicPattern,
    XDescriptor,
    canonicalize,
    catalog,
    lx_pattern,
    serialize_pattern,
    translation_canonical,
    window_density,
)
from kinglpds.search import SearchConfig, minimum_lpds
from kinglpds.verify import verify_lpds, verify_window
from naive_lpds import brute_force_oracle

F = Fraction

CATALOG = [
    ("L1", catalog("L1")),
    ("L2", catalog("L2")),
    ("LX-empty", lx_pattern(XDescriptor.from_bits("0"))),
    ("LX-even", lx_pattern(XDescriptor.from_bits("10"))),
    ("LX-101", lx_pattern(XDescriptor.from_bits("101"))),
]


def test_criterion_1_catalog_validity():
    """Every catalog construction verifies as an LPDS of density 2/9, < 1 s each."""
    for name, p in CATALOG:
        t0 = time.perf_counter()
        report = verify_lpds(p)
        elapsed = time.perf_counter() - t0
        assert report.valid, name
        assert report.density == F(2, 9), name
        assert elapsed < 1.0, (name, elapsed)


def test_criterion_2_pattern_distinctness():
    """The shifted-column family yields genuinely different patterns, < 1 s."""
    t0 = time.perf_counter()
    # the no-shift and alternating-shift patterns on one common superlattice
    empty = lx_pattern(XDescriptor.from_bits("0"))
    even = lx_pattern(XDescriptor.from_bits("10"))
    super_basis = LatticeBasis((18, 0), (0, 4))
    on_super = PeriodicPattern.make(
        super_basis, [(x + dx, y) for (x, y) in empty.base for dx in (0, 9)]
    )
    assert serialize_pattern(canonicalize(on_super)) != serialize_pattern(
        canonicalize(even)
    )
    # at least three pairwise-distinct family members
    forms = {
        serialize_pattern(canonicalize(lx_pattern(XDescriptor.from_bits(b))))
        for b in ("0", "10", "101")
    }
    assert len(forms) == 3
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_no_tier3_outside_intervals():
    """Classification of every catalog pattern reports T3 outside I empty."""
    for name, p in CATALOG:
        cls = verify_lpds(p).classification
        assert cls.tier3_outside_interval() == [], name


def test_criterion_4_exact_bound_arithmetic():
    """Both average-charge inequalities hold with exact rationals; the
    combination gives exactly 8/37, with zero slack left at density 2/9."""
    for name, p in CATALOG:
        cls = verify_lpds(p).classification
        vals = inequality_values(cls.d_far, cls.d_close)
        assert vals["pipeline1"] >= 1, name
        assert vals["pipeline2"] >= 1, name
    l1 = verify_lpds(catalog("L1")).classification
    assert inequality_values(l1.d_far, l1.d_close) == {
        "pipeline1": F(28, 27),
        "pipeline2": F(1),
    }
    assert combined_lower_bound() == F(8, 37)
    assert minority_thresholds(F(2, 9)) == (F(0), F(0))


def test_criterion_5_discharge_pipelines():
    """Both pipelines end with every charge >= 1 on L1 and L2, conserving the
    exact averages 28/27 and 1 (L1) and 19/18 (L2), < 1 s in total."""
    t0 = time.perf_counter()
    expect = {
        ("L1", 1): F(28, 27),
        ("L1", 2): F(1),
        ("L2", 1): F(55, 54),
        ("L2", 2): F(19, 18),
    }
    for name in ("L1", "L2"):
        cls = verify_lpds(catalog(name)).classification
        for which in (1, 2):
            res = run_pipeline(cls, which)
            assert res.final.minimum() >= 1, (name, which)
            assert res.initial.average() == expect[name, which], (name, which)
            assert res.final.average() == expect[name, which], (name, which)
            assert res.conservation_ok(), (name, which)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_6_mechanized_lemmas():
    """All six local claims verify exhaustively within their time budgets."""
    budgets_s = {
        "lemma1.1": 60,
        "lemma1.2": 60,
        "lemma1.3": 600,
        "r-half": 1,
        "r-lowerbound": 1,
        "adjacent-sum": 600,
    }
    verdicts = check_all()
    assert [v.target for v in verdicts] == list(budgets_s)
    for v in verdicts:
        assert v.verdict == "holds", v.target
        assert v.elapsed_ms / 1000 < budgets_s[v.target], (v.target, v.elapsed_ms)


def test_criterion_7_search_reproduction():
    """Search rediscovers the density-2/9 construction on its own lattice,
    proves the unit lattice infeasible, and matches the brute-force oracle
    (oracle run first; values frozen) on all four reference bases, < 1 min."""
    t0 = time.perf_counter()
    frozen = {
        ((2, 0), (0, 2)): (2, F(1, 2), 3),
        ((3, 0), (0, 3)): (4, F(4, 9), 13),
        ((4, 0), (0, 4)): (4, F(1, 4), 25),
        ((2, 1), (-3, 3)): (2, F(2, 9), 1),
    }
    for (u, v), (k, dens, classes) in frozen.items():
        basis = LatticeBasis(u, v)
        oracle = brute_force_oracle(basis)
        assert (oracle.min_cardinality, oracle.min_density, len(oracle.optima)) == (
            k,
            dens,
            classes,
        ), (u, v)
        res = minimum_lpds(SearchConfig(basis))
        assert res.status == "optimumFound"
        assert [serialize_pattern(p) for p in res.optima] == [
            serialize_pattern(p) for p in oracle.optima
        ], (u, v)

    res = minimum_lpds(SearchConfig(LatticeBasis((2, 1), (-3, 3))))
    assert res.min_cardinality == 2
    l1_form = serialize_pattern(translation_canonical(catalog("L1")))
    assert l1_form in {serialize_pattern(p) for p in res.optima}

    unit = minimum_lpds(SearchConfig(LatticeBasis((1, 0), (0, 1))))
    assert unit.status == "infeasible"
    assert time.perf_counter() - t0 < 60


def test_criterion_8_locating_check_locality():
    """On 500 seeded random 8x8 windows the distance-bounded locating scan
    agrees with the naive all-pairs comparison wherever the locating property
    is evaluable: with a dominated interior the certificate sets (hence the
    verdicts) are identical, and on undominated windows every pair the local
    scan skips consists of cells the same report already flags undominated."""
    rng = random.Random(20260822)
    cells = [(x, y) for x in range(8) for y in range(8)]
    dominated_windows = 0
    for _ in range(500):
        d = rng.uniform(0.15, 0.6)
        pts = frozenset(c for c in cells if rng.random() < d)
        window = FiniteWindow(0, 7, 0, 7, pts)
        interior = window.interior()

        report = verify_window(window)
        local = {
            frozenset(c.witnesses)
            for c in report.violations
            if c.kind == "unlocatable-pair"
        }

        nonmembers = [u for u in interior if u not in pts]
        naive = set()
        for i, u in enumerate(nonmembers):
            nu = {n for n in neighbors(u) if n in pts}
            for w in nonmembers[i + 1:]:
                if {n for n in neighbors(w) if n in pts} == nu:
                    naive.add(frozenset((u, w)))

        assert local <= naive
        dominated = all(
            any(n in pts for n in closed_neighborhood(u)) for u in interior
        )
        if dominated:
            dominated_windows += 1
            assert local == naive
        else:
            undominated = {
                c.witnesses[0]
                for c in report.violations
                if c.kind == "undominated"
            }
            for pair in naive - local:
                assert all(u in undominated for u in pair)
                assert all(chebyshev(u, w) > 2 for u in pair for w in pair - {u})
    # the agreement clause must not hold vacuously
    assert dominated_windows >= 100


def test_criterion_9_window_density_convergence():
    """Window densities of the diagonal construction converge: the error at
    k=100 is within 0.01, and over k in {25, 50, 100} it stays under the
    proven 2/(2k+1) envelope (itself strictly decreasing)."""
    p = catalog("L1")
    target = F(2, 9)
    errors = {}
    for k in (25, 50, 100):
        errors[k] = abs(window_density(p, (0, 0), k) - target)
        assert errors[k] <= F(2, 2 * k + 1), k
    assert errors[100] <= F(1, 100)
    # frozen exact values: the drift never exceeds one row of the period
    assert errors[25] == 0
    assert errors[50] == F(1, 91809)
    assert errors[100] == 0
