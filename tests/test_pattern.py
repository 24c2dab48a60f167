"""Lattice bases, periodic patterns, catalog constructions, text formats."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinglpds.pattern import (
    FiniteWindow,
    LatticeBasis,
    PatternFormatError,
    PeriodicPattern,
    XDescriptor,
    canonicalize,
    catalog,
    lx_member,
    lx_pattern,
    lx_window,
    parse_text,
    serialize_pattern,
    serialize_window,
    translation_canonical,
    truncate,
    window_count,
    window_density,
)

nz = st.integers(min_value=-6, max_value=6)
vec = st.tuples(nz, nz)


def bases(draw):
    u = draw(vec)
    v = draw(vec)
    if u[0] * v[1] - u[1] * v[0] == 0:
        u = (u[0] + 1, u[1])
    if u[0] * v[1] - u[1] * v[0] == 0:
        v = (v[0], v[1] + 1)
    return u, v


basis_st = st.builds(
    lambda u, v: (u, v),
    vec.filter(lambda p: p != (0, 0)),
    vec.filter(lambda p: p != (0, 0)),
).filter(lambda uv: uv[0][0] * uv[1][1] - uv[0][1] * uv[1][0] != 0)


# -- lattice basis -----------------------------------------------------------

def test_degenerate_basis_rejected():
    with pytest.raises(ValueError):
        LatticeBasis((2, 1), (4, 2))


def test_cells_is_abs_det():
    b = LatticeBasis((2, 1), (-3, 3))
    assert b.det == 9
    assert b.cells == 9
    assert len(b.domain_cells()) == 9


@given(basis_st)
def test_reduce_idempotent_and_congruent(uv):
    b = LatticeBasis(*uv)
    for p in [(0, 0), (5, -3), (-7, 11), (100, 99)]:
        r = b.reduce(p)
        assert b.reduce(r) == r
        assert b.reduce((p[0] - r[0], p[1] - r[1])) == b.reduce((0, 0))


@given(basis_st)
def test_domain_cells_are_distinct_residues(uv):
    b = LatticeBasis(*uv)
    cells = b.domain_cells()
    assert len(cells) == b.cells
    assert sorted(b.reduce(c) for c in cells) == sorted(cells)


def test_lattice_vectors_reduce_to_origin():
    b = LatticeBasis((2, 1), (-3, 3))
    for i in range(-3, 4):
        for j in range(-3, 4):
            lam = (2 * i - 3 * j, i + 3 * j)
            assert b.reduce(lam) == (0, 0)


# -- periodic patterns -------------------------------------------------------

def test_pattern_membership_periodic():
    p = catalog("L1")
    assert p.contains((0, 0))
    assert p.contains((-1, 1))
    for t in [(2, 1), (-3, 3), (-1, 4)]:
        assert p.contains(t)  # (2,1), (-3,3), and their sum shift (0,0)
    assert not p.contains((1, 0))


def test_density_exact():
    assert catalog("L1").density == Fraction(2, 9)
    assert catalog("L2").density == Fraction(2, 9)


def test_translate_preserves_density_and_shifts_members():
    p = catalog("L2")
    q = p.translate((3, -2))
    assert q.density == p.density
    assert q.contains((3, -2))
    for b in p.base:
        assert q.contains((b[0] + 3, b[1] - 2))


# -- window operations -------------------------------------------------------

def test_window_count_l1_small():
    # the 3x3 block around the origin holds exactly the two base points
    assert window_count(catalog("L1"), (0, 0), 1) == 2
    assert window_density(catalog("L1"), (0, 0), 1) == Fraction(2, 9)


def test_window_count_matches_cell_by_cell_count():
    # Hermite (a, b, c): L1 (9, 2, 1) repeats its row shifts every 9 rows,
    # (4,0)/(1,6) = (4, 1, 6) every 4 steps of c, L2 and LX have b = 0
    patterns = (
        catalog("L1"),
        catalog("L2"),
        lx_pattern(XDescriptor.from_bits("101")),
        PeriodicPattern.make(
            LatticeBasis((4, 0), (1, 6)), [(0, 0), (0, 1), (0, 3), (1, 3), (2, 5), (3, 1)]
        ),
    )
    for p in patterns:
        for cx, cy in ((0, 0), (7, -5), (-13, 22)):
            for k in range(31):
                cells = sum(
                    p.contains((x, y))
                    for x in range(cx - k, cx + k + 1)
                    for y in range(cy - k, cy + k + 1)
                )
                assert window_count(p, (cx, cy), k) == cells


def test_window_density_frozen_values():
    L1 = catalog("L1")
    assert window_density(L1, (0, 0), 25) == Fraction(2, 9)
    assert window_density(L1, (0, 0), 50) == Fraction(2267, 10201)
    assert window_density(L1, (0, 0), 100) == Fraction(2, 9)


def test_truncate_agrees_with_membership():
    p = catalog("L1")
    w = truncate(p, -5, 5, -5, 5)
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert w.contains((x, y)) == p.contains((x, y))


def test_window_rejects_outside_points():
    with pytest.raises(ValueError):
        FiniteWindow(0, 3, 0, 3, frozenset({(4, 0)}))


def test_interior_excludes_border():
    w = FiniteWindow(0, 7, 0, 7, frozenset())
    inner = w.interior()
    assert len(inner) == 36
    assert (0, 0) not in inner and (1, 1) in inner


# -- canonical forms ---------------------------------------------------------

def test_translation_canonical_dedups_translates():
    p = catalog("L1")
    forms = {
        serialize_pattern(translation_canonical(p.translate(t)))
        for t in [(0, 0), (1, 0), (5, -7), (-2, 3)]
    }
    assert len(forms) == 1


def test_canonicalize_collapses_superlattice_copy():
    # the same point set described on a doubled lattice canonicalizes back
    p = catalog("L2")
    doubled = LatticeBasis((18, 0), (0, 4))
    big = PeriodicPattern.make(
        doubled, [(x + dx, y) for (x, y) in p.base for dx in (0, 9)]
    )
    for probe in [(0, 0), (10, 3), (-4, 7)]:
        assert big.contains(probe) == p.contains(probe)
    assert serialize_pattern(canonicalize(big)) == serialize_pattern(canonicalize(p))


def test_canonical_forms_separate_distinct_patterns():
    a = canonicalize(lx_pattern(XDescriptor.from_bits("0")))
    b = canonicalize(lx_pattern(XDescriptor.from_bits("10")))
    assert serialize_pattern(a) != serialize_pattern(b)


# -- catalog and the shifted-column family -----------------------------------

def test_lx_empty_is_l2():
    assert serialize_pattern(canonicalize(lx_pattern(XDescriptor.from_bits("0")))) == \
        serialize_pattern(canonicalize(catalog("L2")))


def test_lx_period_two_density():
    p = lx_pattern(XDescriptor.from_bits("10"))
    assert p.basis.cells == 72
    assert len(p.base) == 16
    assert p.density == Fraction(2, 9)


def test_lx_member_agrees_with_pattern():
    x = XDescriptor.from_bits("101")
    p = lx_pattern(x)
    for px in range(-10, 30):
        for py in range(-5, 9):
            assert lx_member(x, (px, py)) == p.contains((px, py))


def test_lx_explicit_window():
    x = XDescriptor.explicit([0])  # shift only column block k1 = 0
    w = lx_window(x, -9, 17, 0, 3)
    # block 0 shifts its y-residues up by one: column x=0 held {y=0, y=3},
    # after the shift it holds {y=1, y=0} (3+1 wraps mod 4)
    assert w.contains((0, 0)) and w.contains((0, 1))
    assert not w.contains((0, 3))
    # block -1 and block 1 are unshifted
    assert w.contains((-9, 0)) and w.contains((9, 0))
    assert w.contains((9, 3)) and w.contains((-9, 3))


def test_xdescriptor_text_forms():
    assert XDescriptor.from_text("period=2 bits=10") == XDescriptor.from_bits("10")
    assert XDescriptor.from_text("set={0,2}") == XDescriptor.explicit([0, 2])
    with pytest.raises((ValueError, PatternFormatError)):
        XDescriptor.from_text("period=2 bits=1")


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog("L9")


# -- text round-trips --------------------------------------------------------

def test_pattern_round_trip():
    for name in ("L1", "L2"):
        p = catalog(name)
        q = parse_text(serialize_pattern(p))
        assert isinstance(q, PeriodicPattern)
        assert serialize_pattern(q) == serialize_pattern(p)


def test_window_round_trip():
    w = truncate(catalog("L1"), -4, 6, -3, 5)
    text = serialize_window(w)
    back = parse_text(text)
    assert isinstance(back, FiniteWindow)
    assert back == w
    assert serialize_window(back) == text


def test_parse_rejects_garbage():
    with pytest.raises(PatternFormatError):
        parse_text("neither header\nnor anything")
    with pytest.raises(PatternFormatError):
        parse_text("")
