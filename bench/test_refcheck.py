"""Tests of the benchmark's reference checker.

    python3 -m pytest bench/test_refcheck.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck as rc  # noqa: E402
from workloads import L2, _bit_class, run_cli  # noqa: E402


def _catalog(*argv) -> str:
    from kinglpds.cli import main

    code, text = run_cli(main, ["catalog", *argv])
    assert code == 0
    return text


@pytest.mark.parametrize("name", ["L1", "L2"])
def test_catalog_is_valid_at_two_ninths(name):
    pat = rc.parse_pattern(_catalog(name))
    verdict = rc.check_periodic(pat)
    assert verdict.valid
    assert rc.check_periodic(pat, refine=False).valid
    assert rc.density(pat) == Fraction(2, 9)


def test_hardcoded_l2_is_the_catalog_l2():
    assert rc.translation_key(rc.parse_pattern(_catalog("L2"))) == rc.translation_key(L2)


def test_undominated_row():
    # a horizontal pair on a 4x4 torus leaves the row y = 2 undominated
    verdict = rc.check_periodic(rc.PeriodicSet((4, 0), (0, 4), ((0, 0), (1, 0))))
    assert not verdict.dominated
    assert {p[1] % 4 for p in verdict.undominated} == {2}
    assert len(verdict.undominated) == 4
    assert not verdict.locating  # empty signatures collide with their translates
    assert verdict.paired is True


def test_unlocated_pair():
    # on a 3x3 torus a horizontal pair dominates everything, but (0,1) and
    # (1,1) both see exactly the two members
    verdict = rc.check_periodic(rc.PeriodicSet((3, 0), (0, 3), ((0, 0), (1, 0))))
    assert verdict.dominated and verdict.paired is True
    assert not verdict.locating
    assert any({a, b} == {(0, 1), (1, 1)} for a, b in verdict.collisions)


def test_unpaired_member():
    # L2 without (0,3): its partner (0,0) has no member neighbour left
    pat = rc.PeriodicSet(L2.u, L2.v, tuple(p for p in L2.base if p != (0, 3)))
    assert rc.check_periodic(pat).paired is False
    assert rc.check_periodic(pat, refine=False).paired is False


def test_pairing_needs_refinement():
    # horizontal lines: one member per period, matched only at twice the period
    stripes = rc.PeriodicSet((1, 0), (0, 2), ((0, 0),))
    assert rc.check_periodic(stripes, refine=False).paired is False
    assert rc.check_periodic(stripes).paired is True


def test_check_at_a_finer_lattice():
    pat = rc.parse_pattern(_catalog("L2"))
    assert rc.check_periodic(pat, ((18, 0), (0, 4)), refine=False).valid
    with pytest.raises(ValueError):
        rc.check_periodic(pat, ((1, 0), (0, 4)))


def test_matching_small_graphs():
    path = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
    triangle = {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
    assert rc.has_matching([1, 2, 3, 4], path)
    assert not rc.has_matching([1, 2, 3], triangle)
    assert rc.has_matching([1, 2, 3], triangle, required=[1, 2])
    star = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
    assert not rc.has_matching([0, 1, 2, 3], star, required=[1, 2])


def test_translation_key():
    moved = rc.PeriodicSet(L2.u, L2.v, tuple(((x + 3) % 9, (y + 1) % 4) for x, y in L2.base))
    other_basis = rc.PeriodicSet((9, 0), (9, 4), L2.base)
    assert rc.translation_key(moved) == rc.translation_key(L2)
    assert rc.translation_key(other_basis) == rc.translation_key(L2)
    assert rc.translation_key(L2.transpose()) != rc.translation_key(L2)
    assert rc.translation_key(rc.PeriodicSet((18, 0), (0, 4), L2.base + tuple(
        (x + 9, y) for x, y in L2.base))) == rc.translation_key(L2)


def test_bit_classes():
    assert _bit_class("0101") == _bit_class("1010") == _bit_class("01")
    assert _bit_class("0110") == _bit_class("1001") == _bit_class("0011")
    assert _bit_class("1") == _bit_class("00")
    assert _bit_class("011") != _bit_class("001")


def _lx_key(bits):
    return rc.translation_key(rc.parse_pattern(_catalog("LX", "--x", f"period={len(bits)} bits={bits}")))


def test_lx_translates():
    assert _lx_key("011") == _lx_key("101") == _lx_key("011011")
    assert _lx_key("0") == _lx_key("1")
    assert _lx_key("011") != _lx_key("100")  # a complement is not a translate


def test_windows():
    win = rc.parse_window(_catalog("LX", "--x", "set={0,2,3}", "--bounds", "x=[-5..25] y=[-6..8]"))
    assert rc.check_window(win).valid
    inner = sorted(p for p in win.points if -5 < p[0] < 25 and -6 < p[1] < 8)
    broken = rc.Window(win.x0, win.x1, win.y0, win.y1, win.points - {inner[len(inner) // 2]})
    verdict = rc.check_window(broken)
    assert not verdict.valid
    assert rc.parse_window(rc.format_window(broken)) == broken


def test_window_stranded_member_is_unpaired():
    win = rc.Window(0, 4, 0, 4, frozenset({(2, 2), (0, 0), (0, 4), (4, 0), (4, 4)}))
    verdict = rc.check_window(win)
    assert verdict.paired is False
    assert verdict.dominated  # every interior cell sees (2,2)
