"""Command-line interface: outputs, exit codes, and format round-trips."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kinglpds
from kinglpds.cli import main
from kinglpds.pattern import FiniteWindow, catalog, parse_text, serialize_pattern, truncate
from naive_lpds import perfect_matchings


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verify ------------------------------------------------------------------

def test_verify_valid_pattern(capsys):
    code, out, err = run(capsys, "verify", "catalog:L1")
    assert code == 0
    assert out.splitlines() == [
        "verdict dominated=true locating=true paired=true density=2/9 DS1=2/9 DS2=0/1"
    ]


def test_verify_invalid_pattern(capsys, tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("lattice u=(10,0) v=(0,10)\nbase (0,0) (1,1)\n")
    code, out, _ = run(capsys, "verify", str(src))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("verdict dominated=false")
    assert any(line.startswith("violation undominated") for line in lines[1:])


def test_verify_window_file(capsys, tmp_path):
    src = tmp_path / "w.txt"
    src.write_text(
        "window x=[0..6] y=[0..6]\n"
        + "\n".join("." * 7 for _ in range(3))
        + "\n..XXX..\n"
        + "\n".join("." * 7 for _ in range(3))
        + "\n"
    )
    code, out, _ = run(capsys, "verify", str(src))
    assert code == 1
    assert "paired=n/a" in out.splitlines()[0]


def test_verify_window_pins_row_major_witness_order(capsys, tmp_path):
    # (1,3) and (2,2) see the same members; the witness first in row-major
    # order (by y, then x) is printed first
    src = tmp_path / "w.txt"
    src.write_text(
        "window x=[0..6] y=[0..6]\n"
        ".XXX.XX\n..X.X..\n...X...\n..X.X..\n.X....X\n....X..\nXXXX.XX\n"
    )
    code, out, _ = run(capsys, "verify", str(src))
    assert code == 1
    assert out == (
        "verdict dominated=true locating=false paired=true density=19/49 DS1=n/a DS2=n/a\n"
        "violation unlocatable-pair (2,2) (1,3)\n"
    )


def test_verify_pins_normalized_periodic_pair(capsys, tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("lattice u=(3,0) v=(0,1)\nbase (0,0)\n")
    code, out, _ = run(capsys, "verify", str(src))
    assert code == 1
    assert out == (
        "verdict dominated=true locating=false paired=true density=1/3 DS1=0/1 DS2=1/3\n"
        "violation unlocatable-pair (2,0) (4,0)\n"
    )


def test_verify_window_too_small_exits_2(capsys, tmp_path):
    src = tmp_path / "w.txt"
    src.write_text("window x=[0..3] y=[0..6]\n" + "\n".join("...." for _ in range(7)) + "\n")
    code, out, err = run(capsys, "verify", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error: window too small")


# -- density and catalog -----------------------------------------------------

def test_density_with_window_estimate(capsys):
    code, out, _ = run(capsys, "density", "catalog:L1", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["density 2/9", "window k=2 density=6/25"]


def test_density_large_k_is_fast(capsys):
    # each base point's column floors are summed over the rows in closed form
    start = time.perf_counter()
    code, out, _ = run(capsys, "density", "catalog:L2", "--k", "100000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.splitlines() == [
        "density 2/9",
        "window k=100000 density=8888944445/40000400001",
    ]


def test_density_huge_k_is_exact_and_fast(capsys):
    # every L2 row holds 2 members per 9 columns and 2k+1 = 9 * 111111111,
    # so the window holds exactly 2/9; the cost does not grow with k
    start = time.perf_counter()
    code, out, _ = run(capsys, "density", "catalog:L2", "--k", "499999999")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines() == ["density 2/9", "window k=499999999 density=2/9"]


def test_density_on_a_long_period_is_fast(capsys, tmp_path):
    # the Hermite period a = 10**12 is far longer than the box is high; each
    # row holds two members, and rows q = 0 and q = +-10**12 hold three
    src = tmp_path / "p.txt"
    src.write_text("lattice u=(1000000000000,0) v=(7,1)\nbase (0,0)\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "density", str(src), "--k", "1")
    assert (code, out.splitlines()) == (0, ["density 1/1000000000000", "window k=1 density=1/9"])
    k = 10**12
    code, out, _ = run(capsys, "density", str(src), "--k", str(k))
    assert time.perf_counter() - start < 2
    members = Fraction(4 * k + 5, (2 * k + 1) ** 2)
    assert (code, out.splitlines()[1]) == (0, f"window k={k} density={members}")


def test_density_negative_k_exits_2(capsys):
    code, out, err = run(capsys, "density", "catalog:L2", "--k", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: k must be >= 0")


def test_catalog_emits_parseable_pattern(capsys):
    code, out, _ = run(capsys, "catalog", "L2")
    assert code == 0
    assert serialize_pattern(parse_text(out)) == serialize_pattern(catalog("L2"))


def test_catalog_lx_periodic(capsys):
    code, out, _ = run(capsys, "catalog", "LX", "--x", "period=2 bits=10")
    assert code == 0
    p = parse_text(out)
    assert len(p.base) == 16
    assert abs(p.basis.det) == 72


def test_catalog_lx_explicit_needs_bounds(capsys):
    code, _, err = run(capsys, "catalog", "LX", "--x", "set={0}")
    assert code == 2
    assert "bounds" in err
    code, out, _ = run(
        capsys, "catalog", "LX", "--x", "set={0}", "--bounds", "x=[-2..10] y=[0..3]"
    )
    assert code == 0
    assert out.startswith("window x=[-2..10] y=[0..3]\n")


# -- search ------------------------------------------------------------------

def test_search_reports_optimum(capsys):
    code, out, _ = run(capsys, "search", "--lattice", "u=(2,1) v=(-3,3)")
    assert code == 0
    assert out.splitlines() == [
        "optimum k=2 density=2/9 patterns=1 nodes=31",
        "",
        "lattice u=(9,0) v=(2,1)",
        "base (0,0) (3,0)",
        "",
    ]


def test_search_infeasible_is_a_definite_answer(capsys):
    code, out, _ = run(capsys, "search", "--lattice", "u=(1,0) v=(0,1)")
    assert code == 0
    assert out.startswith("infeasible ")


def test_search_budget_exit(capsys):
    code, out, _ = run(
        capsys, "search", "--lattice", "u=(4,0) v=(0,4)", "--node-budget", "50"
    )
    assert code == 1
    assert out.splitlines() == ["budget-exceeded nodes=51"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "--lattice", "u=(3,0) v=(0,3)", "--max-k", "-2"), "max cardinality"),
        (("search", "--lattice", "u=(4,0) v=(0,4)", "--node-budget", "-1"), "node budget"),
        (("check", "lemma1.1", "--node-budget", "-5"), "node budget"),
    ],
)
def test_negative_counts_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message} must be >= 0")


def test_search_over_max_domain_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--lattice", "u=(300,0) v=(0,300)")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: fundamental domain has 90000 cells; MAX_DOMAIN is 64\n"
    # the flag that once lifted the limit is gone
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["search", "--lattice", "u=(300,0) v=(0,300)", "--allow-large"])
    assert time.perf_counter() - start < 2
    assert exc.value.code == 2


def test_search_max_k_zero_is_infeasible(capsys):
    code, out, _ = run(capsys, "search", "--lattice", "u=(3,0) v=(0,3)", "--max-k", "0")
    assert code == 0
    assert out.splitlines() == [
        "infeasible no valid pattern with at most 0 members per domain nodes=0"
    ]


# -- check -------------------------------------------------------------------

def test_check_r_claims(capsys):
    code, out, _ = run(capsys, "check", "r-claims")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("r-half holds configs=182")
    assert lines[1].startswith("r-lowerbound holds configs=182")


def test_check_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "check", "lemma1.1", "--node-budget", "10")
    assert code == 1
    assert out.splitlines() == ["lemma1.1 inconclusive"]


def test_check_r_claims_budget(capsys):
    code, out, _ = run(capsys, "check", "r-claims", "--node-budget", "181")
    assert code == 1
    assert out.splitlines() == ["r-half inconclusive", "r-lowerbound inconclusive"]
    code, out, _ = run(capsys, "check", "r-claims", "--node-budget", "182")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("r-half holds configs=182 ")
    assert lines[1].startswith("r-lowerbound holds configs=182 ")


# -- discharge ---------------------------------------------------------------

def test_discharge_pipeline1(capsys):
    code, out, _ = run(capsys, "discharge", "catalog:L1", "--theorem", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pipeline 1"
    assert lines[1] == "charge (0,0) ch0=14/3 ch1=7/6"
    assert lines[2] == "charge (1,0) ch0=0/1 ch1=1/1"
    assert len([l for l in lines if l.startswith("charge ")]) == 9
    assert lines[-2] == "min final=1/1"
    assert lines[-1] == "average initial=28/27 final=28/27"


def test_discharge_pipeline2_stage_labels(capsys):
    code, out, _ = run(capsys, "discharge", "catalog:L2", "--theorem", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pipeline 2"
    assert all(
        all(tag in l for tag in ("ch2=", "ch3=", "ch4=", "ch5="))
        for l in lines
        if l.startswith("charge ")
    )
    assert lines[-1] == "average initial=19/18 final=19/18"


# both 5x5 patterns of test_discharge.py that reach a rescue case in round 3
_RESCUE_34_OUT = """\
pipeline 2
charge (0,0) ch2=9/2 ch3=3/1 ch4=5/2 ch5=5/2
charge (1,0) ch2=9/2 ch3=9/2 ch4=9/2 ch5=9/2
charge (2,0) ch2=9/2 ch3=3/1 ch4=3/1 ch5=3/1
charge (3,0) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,0) ch2=0/1 ch3=0/1 ch4=5/4 ch5=5/4
charge (0,1) ch2=9/2 ch3=5/2 ch4=2/1 ch5=2/1
charge (1,1) ch2=9/2 ch3=3/1 ch4=3/1 ch5=3/1
charge (2,1) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (3,1) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,1) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (1,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (2,2) ch2=9/2 ch3=1/1 ch4=1/1 ch5=1/1
charge (3,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (1,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (2,3) ch2=0/1 ch3=0/1 ch4=3/4 ch5=5/4
charge (3,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,4) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (1,4) ch2=9/2 ch3=5/2 ch4=2/1 ch5=3/2
charge (2,4) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (3,4) ch2=9/2 ch3=3/2 ch4=1/1 ch5=1/1
charge (4,4) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
min final=1/1
average initial=36/25 final=36/25
deficient (2,3) case=3.4 rich=(1,4) amount=1/2
"""
_RESCUE_351_OUT = """\
pipeline 2
charge (0,0) ch2=9/2 ch3=3/1 ch4=5/2 ch5=2/1
charge (1,0) ch2=9/2 ch3=9/2 ch4=7/2 ch5=7/2
charge (2,0) ch2=9/2 ch3=5/2 ch4=1/1 ch5=1/1
charge (3,0) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,0) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,1) ch2=9/2 ch3=3/1 ch4=5/2 ch5=5/2
charge (1,1) ch2=9/2 ch3=4/1 ch4=7/2 ch5=7/2
charge (2,1) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (3,1) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,1) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,2) ch2=0/1 ch3=0/1 ch4=3/2 ch5=3/2
charge (1,2) ch2=9/2 ch3=3/1 ch4=5/2 ch5=5/2
charge (2,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (3,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,2) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (1,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (2,3) ch2=9/2 ch3=2/1 ch4=1/1 ch5=1/1
charge (3,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (4,3) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (0,4) ch2=0/1 ch3=1/1 ch4=1/1 ch5=1/1
charge (1,4) ch2=0/1 ch3=0/1 ch4=11/6 ch5=11/6
charge (2,4) ch2=0/1 ch3=0/1 ch4=4/3 ch5=4/3
charge (3,4) ch2=0/1 ch3=0/1 ch4=5/6 ch5=4/3
charge (4,4) ch2=9/2 ch3=1/1 ch4=1/1 ch5=1/1
min final=1/1
average initial=36/25 final=36/25
deficient (3,4) case=3.5.1 rich=(0,5) amount=1/2
"""


@pytest.mark.parametrize(
    "base, expected",
    [
        ("(0,0) (1,0) (2,0) (0,1) (1,1) (2,2) (1,4) (3,4)", _RESCUE_34_OUT),
        ("(0,0) (1,0) (2,0) (0,1) (1,1) (1,2) (2,3) (4,4)", _RESCUE_351_OUT),
    ],
)
def test_discharge_pipeline2_pins_rescue_patterns(capsys, tmp_path, base, expected):
    src = tmp_path / "p.txt"
    src.write_text(f"lattice u=(5,0) v=(0,5)\nbase {base}\n")
    code, out, _ = run(capsys, "discharge", str(src), "--theorem", "2")
    assert code == 0
    assert out == expected


# On 5x5 with 8 members, cases 3.4 and 3.5.1 are reached only by patterns
# with several perfect matchings, so the pins above rest on which one the
# verifier reports.  These patterns have one, so no tie-break can move them.
_UNIQUE_RESCUES = [
    (
        "u=(6,0) v=(0,5)",
        "(0,0) (0,2) (1,1) (1,3) (2,3) (3,0) (3,4) (4,1)",
        "deficient (5,1) case=3.4 rich=(6,2) amount=1/2",
    ),
    (
        "u=(5,0) v=(2,6)",
        "(0,0) (0,3) (1,1) (1,4) (2,1) (3,0) (3,2) (4,3)",
        "deficient (1,5) case=3.5.1 rich=(0,8) amount=1/2",
    ),
    (
        "u=(5,0) v=(2,6)",
        "(0,0) (1,1) (1,4) (2,1) (2,3) (3,0) (3,3) (4,2)",
        "deficient (1,5) case=3.5.2 rich=(1,8) amount=1/2",
    ),
]


@pytest.mark.parametrize("lattice, base, deficient", _UNIQUE_RESCUES)
def test_discharge_pipeline2_rescues_uniquely_matched_patterns(
    capsys, tmp_path, lattice, base, deficient
):
    text = f"lattice {lattice}\nbase {base}\n"
    assert perfect_matchings(parse_text(text)) == 1
    src = tmp_path / "p.txt"
    src.write_text(text)
    code, out, _ = run(capsys, "discharge", str(src), "--theorem", "2")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "min final=1/1",
        "average initial=6/5 final=6/5",
        deficient,
    ]


def test_cli_import_loads_no_networkx():
    src = Path(kinglpds.__file__).resolve().parents[1]
    code = "import sys, kinglpds.cli; assert 'networkx' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_discharge_rejects_invalid_pattern(capsys, tmp_path):
    src = tmp_path / "p.txt"
    src.write_text("lattice u=(10,0) v=(0,10)\nbase (0,0) (1,1)\n")
    code, out, _ = run(capsys, "discharge", str(src), "--theorem", "2")
    assert code == 1
    assert out.splitlines()[-1] == "discharge error: pattern is not a valid LPDS"


def test_discharge_rejects_window_source(capsys, tmp_path):
    src = tmp_path / "w.txt"
    src.write_text("window x=[0..4] y=[0..4]\n" + "\n".join("." * 5 for _ in range(5)) + "\n")
    code, _, err = run(capsys, "discharge", str(src), "--theorem", "1")
    assert code == 2
    assert "periodic pattern" in err


# -- render ------------------------------------------------------------------

def test_render_ascii_round_trip(capsys):
    code, out, _ = run(capsys, "render", "catalog:L1", "--window", "x=[-4..4] y=[-4..4]")
    assert code == 0
    back = parse_text(out)
    assert isinstance(back, FiniteWindow)
    assert back == truncate(catalog("L1"), -4, 4, -4, 4)


def test_render_periodic_requires_window(capsys):
    code, _, err = run(capsys, "render", "catalog:L1")
    assert code == 2
    assert "--window" in err


def test_render_svg(capsys):
    code, out, _ = run(
        capsys, "render", "catalog:L1", "--window", "x=[-2..2] y=[-2..2]",
        "--format", "svg",
    )
    assert code == 0
    assert out.startswith("<svg ")
    assert out.count('fill="#1f3a5f"') == 6  # members in the 5x5 window
    assert 'stroke="#d62828"' in out  # pair segments


def test_render_svg_draws_pairs_of_a_lifted_matching(capsys, tmp_path):
    # full rows at even y pair up only at twice the period: {2i-1, 2i} along
    # each row, so the 6 members of a row in x=[0..5] hold 2 whole pairs
    src = tmp_path / "p.txt"
    src.write_text("lattice u=(1,0) v=(0,2)\nbase (0,0)\n")
    code, out, _ = run(
        capsys, "render", str(src), "--window", "x=[0..5] y=[0..3]", "--format", "svg"
    )
    assert code == 0
    assert out.count('fill="#1f3a5f"') == 12
    assert out.count('stroke="#d62828"') == 4


def test_render_window_subclip(capsys, tmp_path):
    src = tmp_path / "w.txt"
    rows = ["X......", ".......", ".......", "...X...", ".......", ".......", "......X"]
    src.write_text("window x=[0..6] y=[0..6]\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "render", str(src), "--window", "x=[2..6] y=[0..4]")
    assert code == 0
    w = parse_text(out)
    assert w.points == frozenset({(3, 3), (6, 0)})


# -- error handling ----------------------------------------------------------

def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "verify", "catalog:NOPE")
    assert code == 2
    assert err.startswith("error: unknown catalog name")


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "base",
    ["base (0,0) junk (1,1)", "basement (0,0) (1,1)", "base (0,0) (1,1) (", "base (0,0)\nbase (2,2)"],
)
def test_malformed_pattern_text_exits_2(capsys, tmp_path, base):
    src = tmp_path / "p.txt"
    src.write_text(f"lattice u=(4,0) v=(0,4)\n{base}\n")
    code, out, err = run(capsys, "verify", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bad_window_spec(capsys):
    code, _, err = run(
        capsys, "render", "catalog:L1", "--window", "x=[bogus] y=[0..2]"
    )
    assert code == 2
    assert "bad window spec" in err


@pytest.mark.parametrize(
    "argv", [["catalog", "LX"], ["density", "catalog:LX"], ["render", "catalog:LX"]]
)
@pytest.mark.parametrize(
    "bounds, message",
    [("bad", "bad window spec 'bad'"), ("x=[5..1] y=[0..3]", "empty window bounds")],
)
def test_bad_bounds_exit_2(capsys, argv, bounds, message):
    code, out, err = run(capsys, *argv, "--x", "set={0}", "--bounds", bounds)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_non_utf8_file_exits_2(capsys, tmp_path):
    src = tmp_path / "w.txt"
    src.write_bytes(b"window x=[0..2] y=[0..2]\n\xff..\n...\n...\n")
    code, out, err = run(capsys, "verify", str(src))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {src}: not UTF-8 text\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "LX", "--x", "set={0}", "--bounds", "x=[0..99999] y=[0..99999]"],
        ["render", "catalog:L1", "--window", "x=[0..99999] y=[0..99999]"],
        ["verify", "HUGE"],
        ["discharge", "HUGE", "--theorem", "2"],
        ["render", "HUGE", "--window", "x=[0..3] y=[0..3]"],
    ],
)
def test_hostile_sizes_exit_2_quickly(capsys, tmp_path, argv):
    src = tmp_path / "p.txt"
    src.write_text("lattice u=(100000,0) v=(0,100000)\nbase (0,0) (1,0)\n")
    argv = [str(src) if a == "HUGE" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "10000000000 cells" in err


def test_size_limit_is_inclusive(capsys):
    # 512 x 512 = 1 << 18 cells is allowed; one more row is not
    code, out, err = run(capsys, "density", "catalog:LX", "--x", "set={0}",
                         "--bounds", "x=[0..511] y=[0..511]")
    assert code == 0 and out.startswith("density ")
    code, out, err = run(capsys, "density", "catalog:LX", "--x", "set={0}",
                         "--bounds", "x=[0..511] y=[0..512]")
    assert (code, out) == (2, "")
    assert "262656 cells" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "FILE", "--x", "period=2 bits=10"], "--x"),
        (["catalog", "L1", "--x", "period=2 bits=10"], "--x"),
        (["discharge", "catalog:L1", "--x", "period=2 bits=10", "--theorem", "1"], "--x"),
        (
            ["density", "catalog:LX", "--x", "period=2 bits=10", "--bounds", "x=[0..9] y=[0..9]"],
            "--bounds",
        ),
        (["density", "FILE", "--bounds", "x=[0..9] y=[0..9]"], "--bounds"),
    ],
)
def test_option_that_would_be_ignored_exits_2(capsys, tmp_path, argv, option):
    src = tmp_path / "p.txt"
    src.write_text(serialize_pattern(catalog("L1")))
    argv = [str(src) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} applies only to catalog:LX")
