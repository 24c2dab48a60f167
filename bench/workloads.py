"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Every operation is one ``kinglpds`` command line, run through
``kinglpds.cli.main`` in the benchmark's interpreter.  ``build`` makes a
workload's inputs from the seed; ``check`` judges the outputs of one round
against ``refcheck`` and against properties the method must have, never
against stored program output.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import refcheck as rc
from enumerate_refs import load as load_search_refs

NAMES = ("search-dfs", "search-leaf", "certify", "local")

BOUND_8_37 = Fraction(8, 37)
DENSITY_2_9 = Fraction(2, 9)

# The paper's second construction, written out here so that the search
# check does not take it from the program.
L2 = rc.PeriodicSet((9, 0), (0, 4), ((0, 0), (0, 3), (2, 2), (3, 1), (4, 3), (5, 0), (7, 1), (7, 2)))

DFS_LATTICES = [((9, 0), (0, 4)), ((4, 0), (0, 9))]
LEAF_LATTICES = [((6, 0), (0, 3)), ((3, 0), (0, 6)), ((4, 0), (0, 4)), ((6, 0), (0, 4)), ((4, 0), (1, 6))]
# bit strings of every period up to this one are run through both pipelines
CERTIFY_MAX_PERIOD = 5
NEAR_MISS_PERIODS = (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6)
WINDOW_SIDES = (45, 47)
CHECK_ALL_REPEATS = 2
CLAIMS = {"lemma1.1", "lemma1.2", "lemma1.3", "r-half", "r-lowerbound", "adjacent-sum"}


@dataclass
class Op:
    argv: list
    kind: str  # search | discharge | verify-pattern | verify-window | check
    expect_rc: tuple  # exit codes of an answer; others (and exceptions) count as failed
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    ops: list
    context: dict = field(default_factory=dict)


def run_cli(main, argv) -> tuple[int | None, str]:
    """Run one command line with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc_ = main(argv)
    except SystemExit as exc:
        rc_ = exc.code if isinstance(exc.code, int) else 2
    return rc_, out.getvalue()


def normalize(out: str) -> str:
    """Output with the lemma checks' wall-clock field blanked, for comparison."""
    return re.sub(r"elapsed=\d+ms", "elapsed=*", out)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _spec(u, v) -> str:
    return f"u=({u[0]},{u[1]}) v=({v[0]},{v[1]})"


def basis_variant(rng: random.Random, u, v):
    """Another basis of the same lattice: a shear, maybe a swap, maybe a sign."""
    j = rng.choice((-1, 0, 1))
    v = (v[0] + j * u[0], v[1] + j * u[1])
    if rng.random() < 0.5:
        u, v = v, u
    if rng.random() < 0.5:
        u = (-u[0], -u[1])
    return u, v


def _search_ops(rng, lattices) -> list:
    ops = []
    for u, v in lattices:
        bu, bv = basis_variant(rng, u, v)
        ops.append(Op(["search", "--lattice", _spec(bu, bv)], "search", (0,),
                      {"lattice": (u, v), "basis": (bu, bv)}))
    rng.shuffle(ops)
    return ops


def _bits(period: int):
    for n in range(2 ** period):
        yield format(n, f"0{period}b")


def _certify_plan(rng, main, workdir: Path) -> Plan:
    ops = []
    sources = [("catalog:L1", []), ("catalog:L2", [])]
    for p in range(1, CERTIFY_MAX_PERIOD + 1):
        for b in _bits(p):
            sources.append(("catalog:LX", ["--x", f"period={p} bits={b}"]))
    for src, extra in sources:
        for theorem in ("1", "2"):
            ops.append(Op(["discharge", src, *extra, "--theorem", theorem], "discharge", (0, 1),
                          {"source": (src, tuple(extra)), "theorem": int(theorem)}))
    for i, p in enumerate(NEAR_MISS_PERIODS):
        bits = "".join(rng.choice("01") for _ in range(p))
        code, text = run_cli(main, ["catalog", "LX", "--x", f"period={p} bits={bits}"])
        if code != 0:
            raise RuntimeError(f"catalog LX period={p} bits={bits} exited {code}")
        pat = rc.parse_pattern(text)
        base = list(pat.base)
        moved = base.pop(rng.randrange(len(base)))
        # a short move keeps most of the set dominated, so that locating and
        # pairing are exercised too, not only domination
        free = sorted({((moved[0] + dx) % (9 * p), (moved[1] + dy) % 4)
                       for dx, dy in rc.BALL2 if not pat.member(rc.add(moved, (dx, dy)))})
        base.append(rng.choice(free))
        near = rc.PeriodicSet(pat.u, pat.v, tuple(base))
        path = workdir / f"near-{i}.txt"
        path.write_text(rc.format_pattern(near), encoding="utf-8")
        ops.append(Op(["verify", str(path)], "verify-pattern", (0, 1),
                      {"pattern": near, "bits": bits}))
    rng.shuffle(ops)
    return Plan("certify", ops, {"sources": sources})


def _local_plan(rng, main, workdir: Path) -> Plan:
    ops = [Op(["check", "all"], "check", (0, 1)) for _ in range(CHECK_ALL_REPEATS)]
    for n in WINDOW_SIDES:
        blocks = sorted(rng.sample(range(-6, 14), 10))
        x0, y0 = rng.randint(-30, 30), rng.randint(-30, 30)
        bounds = f"x=[{x0}..{x0 + n - 1}] y=[{y0}..{y0 + n - 1}]"
        xspec = "set={" + ",".join(map(str, blocks)) + "}"
        code, text = run_cli(main, ["catalog", "LX", "--x", xspec, "--bounds", bounds])
        if code != 0:
            raise RuntimeError(f"catalog LX --x {xspec!r} --bounds {bounds!r} exited {code}")
        win = rc.parse_window(text)
        inner = sorted(p for p in win.points
                       if win.x0 < p[0] < win.x1 and win.y0 < p[1] < win.y1)
        broken = rc.Window(win.x0, win.x1, win.y0, win.y1,
                           win.points - {rng.choice(inner)})
        for tag, w in (("intact", win), ("broken", broken)):
            path = workdir / f"window-{n}-{tag}.txt"
            path.write_text(rc.format_window(w), encoding="utf-8")
            ops.append(Op(["verify", str(path)], "verify-window", (0, 1), {"window": w}))
    rng.shuffle(ops)
    return Plan("local", ops)


def build(workload: str, seed: int, main, workdir: Path) -> Plan:
    """The operations of one round, with their inputs written to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search-dfs":
        return Plan(workload, _search_ops(rng, DFS_LATTICES))
    if workload == "search-leaf":
        return Plan(workload, _search_ops(rng, LEAF_LATTICES))
    if workload == "certify":
        return _certify_plan(rng, main, workdir)
    if workload == "local":
        return _local_plan(rng, main, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"optimum k=(\d+) density=(\d+)/(\d+) patterns=(\d+) nodes=(\d+)")
_VERDICT = re.compile(r"verdict dominated=(\w+) locating=(\w+) paired=(\S+) density=(\S+)")
_POINT = re.compile(r"\((-?\d+),(-?\d+)\)")
_FRAC = r"(-?\d+)/(\d+)"


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_search(plan: Plan, outputs: list) -> list:
    problems = []
    refs = load_search_refs()
    keys_by_lattice = {}
    for op, code, out in outputs:
        (u, v), basis = op.info["lattice"], op.info["basis"]
        tag = f"search {_spec(u, v)}"
        lines = out.splitlines()
        m = _SUMMARY.fullmatch(lines[0]) if lines else None
        if not m:
            problems.append(f"{tag}: no optimum line")
            continue
        k, count = int(m.group(1)), int(m.group(4))
        cells = abs(rc.cross(u, v))
        if Fraction(int(m.group(2)), int(m.group(3))) != Fraction(k, cells):
            problems.append(f"{tag}: density is not k/cells")
        blocks = [b for b in out.split("\n\n")[1:] if b.strip()]
        if len(blocks) != count:
            problems.append(f"{tag}: {count} optima announced, {len(blocks)} printed")
        keys = {}
        for text in blocks:
            pat = rc.parse_pattern(text)
            if not (pat.is_period(basis[0]) and pat.is_period(basis[1])):
                problems.append(f"{tag}: optimum is not periodic on the lattice: {text!r}")
                continue
            if rc.density(pat, basis) != Fraction(k, cells):
                problems.append(f"{tag}: optimum does not have k={k} members: {text!r}")
            if not rc.check_periodic(pat, basis, refine=False).valid:
                problems.append(f"{tag}: reference checker rejects optimum {text!r}")
            keys.setdefault(rc.translation_key(pat), []).append(pat)
        if any(len(pats) > 1 for pats in keys.values()):
            problems.append(f"{tag}: optima repeat up to translation")
        if Fraction(k, cells) < BOUND_8_37:
            problems.append(f"{tag}: density {k}/{cells} is below 8/37")
        lid = "%d,%d,%d" % rc.hermite([u, v])
        if lid in refs:
            ref = refs[lid]
            if k != ref["min_k"] or sorted(keys) != ref["optima"]:
                problems.append(f"{tag}: optima differ from the exhaustive enumeration")
        elif Fraction(k - 2, cells) >= BOUND_8_37:
            problems.append(f"{tag}: k={k} is not shown minimal by the 8/37 bound")
        keys_by_lattice[lid] = keys
    for lid, keys in keys_by_lattice.items():
        a, b, c = map(int, lid.split(","))
        twin = keys_by_lattice.get("%d,%d,%d" % rc.hermite([(0, a), (c, b)]))
        if twin is None:
            continue
        flipped = {rc.translation_key(p.transpose()) for pats in twin.values() for p in pats}
        if flipped != set(keys):
            problems.append(f"search on lattice {lid}: optima are not the transposes of its twin's")
    if "9,0,4" in keys_by_lattice and rc.translation_key(L2) not in keys_by_lattice["9,0,4"]:
        problems.append("search u=(9,0) v=(0,4): catalog L2 is not among the optima")
    return problems


def _bit_class(bits: str) -> str:
    """Least rotation of the primitive root of a bit string.

    Rotating the string translates L_X by whole blocks, and the two constant
    strings both give L2 (shifted by (0,1) for all ones), so strings in one
    class give translates; strings in different classes must not.
    """
    n = len(bits)
    root = next(bits[:d] for d in range(1, n + 1) if n % d == 0 and bits[:d] * (n // d) == bits)
    if root == "1":
        root = "0"
    return min(root[i:] + root[:i] for i in range(len(root)))


def _check_discharge(op: Op, code: int, out: str, pat: rc.PeriodicSet,
                     inequality_values) -> tuple[list, tuple]:
    tag = "discharge " + " ".join(op.argv[1:])
    if code != 0:
        return [f"{tag}: exit code {code}: {out.strip().splitlines()[-1:]}"], (0, 0)
    problems = []
    theorem = op.info["theorem"]
    far_w, close_w = {1: (Fraction(14, 3), Fraction(9, 2)), 2: (Fraction(9, 2), Fraction(5))}[theorem]
    cells, finals = {}, []
    lines = out.splitlines()
    if not lines or lines[0] != f"pipeline {theorem}":
        return [f"{tag}: no pipeline line"], (0, 0)
    for line in lines:
        if line.startswith("charge "):
            m = re.match(r"charge \((-?\d+),(-?\d+)\) (.*)", line)
            values = [_frac(part.split("=")[1]) for part in m.group(3).split()]
            cells[(int(m.group(1)), int(m.group(2)))] = values
            finals.append(values[-1])
    m_min = re.search(r"^min final=" + _FRAC + "$", out, re.M)
    m_avg = re.search(r"^average initial=" + _FRAC + " final=" + _FRAC + "$", out, re.M)
    if not cells or not m_min or not m_avg:
        return [f"{tag}: charge lines, minimum or average missing"], (0, 0)
    if min(finals) < 1 or Fraction(int(m_min.group(1)), int(m_min.group(2))) != min(finals):
        problems.append(f"{tag}: a final charge is below 1 or the minimum is misreported")
    members = {c for c in cells if pat.member(c)}
    initial = {c: vals[0] for c, vals in cells.items()}
    if {c for c, x in initial.items() if x} != members:
        problems.append(f"{tag}: charged cells are not the pattern's members")
    far = sum(1 for x in initial.values() if x == far_w)
    close = sum(1 for x in initial.values() if x == close_w)
    if far + close != len(members):
        problems.append(f"{tag}: some member starts with neither pair-kind charge")
    n = len(cells)
    avg_init = Fraction(int(m_avg.group(1)), int(m_avg.group(2)))
    avg_final = Fraction(int(m_avg.group(3)), int(m_avg.group(4)))
    if avg_init != avg_final or avg_init != sum(initial.values()) / n:
        problems.append(f"{tag}: average charge is not conserved")
    expected = inequality_values(Fraction(far, n), Fraction(close, n))[f"pipeline{theorem}"]
    if avg_init != expected:
        problems.append(f"{tag}: average {avg_init} differs from inequality_values {expected}")
    return problems, (far, close)


def _verdict(out: str):
    m = _VERDICT.match(out.splitlines()[0]) if out else None
    if not m:
        return None
    paired = {"true": True, "false": False, "n/a": None}[m.group(3)]
    return m.group(1) == "true", m.group(2) == "true", paired


def _check_verify(tag: str, code: int, out: str, member, ref: rc.Verdict) -> list:
    """The verdict and exit code must be the reference's, and every violation
    the program names must be a real one."""
    problems = []
    got = _verdict(out)
    if got != (ref.dominated, ref.locating, ref.paired):
        problems.append(f"{tag}: verdict {got} but the reference gives"
                        f" {(ref.dominated, ref.locating, ref.paired)}")
    if (code == 0) != ref.valid:
        problems.append(f"{tag}: exit code {code} but the reference says valid={ref.valid}")
    closed_empty = lambda p: not any(member(rc.add(p, s)) for s in rc.CLOSED)
    seen = lambda p: {q for q in (rc.add(p, s) for s in rc.STEPS) if member(q)}
    for line in out.splitlines()[1:]:
        pts = [(int(x), int(y)) for x, y in _POINT.findall(line)]
        if line.startswith("violation undominated"):
            if not closed_empty(pts[0]):
                problems.append(f"{tag}: {line!r} names a dominated cell")
        elif line.startswith("violation unlocatable-pair"):
            a, b = pts
            if member(a) or member(b) or a == b or seen(a) != seen(b):
                problems.append(f"{tag}: {line!r} names a located pair")
        elif line.startswith("violation unpairable"):
            if ref.paired is not False:
                problems.append(f"{tag}: {line!r} but the reference pairs the set")
    return problems


def check_certify(plan: Plan, outputs: list, main, inequality_values) -> list:
    problems = []
    patterns = {}
    for src, extra in plan.context["sources"]:
        name = src.split(":")[1]
        code, text = run_cli(main, ["catalog", name, *extra])
        pat = rc.parse_pattern(text) if code == 0 else None
        if pat is None or not rc.check_periodic(pat).valid or rc.density(pat) != DENSITY_2_9:
            problems.append(f"{src} {' '.join(extra)}: not a valid LPDS of density 2/9")
        patterns[(src, tuple(extra))] = pat
    kinds = {}
    for op, code, out in outputs:
        if op.kind == "discharge":
            key = op.info["source"]
            if patterns.get(key) is None:
                continue
            found, fc = _check_discharge(op, code, out, patterns[key], inequality_values)
            problems += found
            kinds.setdefault(key, set()).add(fc)
        else:
            near = op.info["pattern"]
            problems += _check_verify(f"verify near-miss of bits={op.info['bits']}", code, out,
                                      near.member, rc.check_periodic(near))
    for key, seen in kinds.items():
        if len(seen) != 1:
            problems.append(f"{key}: the two pipelines disagree on the pair kinds")
    classes = {}
    for (src, extra), pat in patterns.items():
        if src == "catalog:LX" and pat is not None:
            bits = extra[1].split("bits=")[1]
            classes.setdefault(_bit_class(bits), set()).add(rc.translation_key(pat))
    flat = [k for keys in classes.values() for k in keys]
    if any(len(keys) != 1 for keys in classes.values()) or len(set(flat)) != len(flat):
        problems.append("LX: translates do not correspond exactly to bit strings"
                        " equal up to rotation")
    return problems


def check_local(plan: Plan, outputs: list) -> list:
    problems = []
    for op, code, out in outputs:
        if op.kind == "check":
            seen = {}
            for line in out.splitlines():
                parts = line.split()
                seen[parts[0]] = parts[1:]
            if code != 0 or set(seen) != CLAIMS or any(v[0] != "holds" for v in seen.values()):
                problems.append(f"check all: not every claim holds: {out!r}")
            continue
        win = op.info["window"]
        problems += _check_verify(f"verify window {win.x0}..{win.x1} x {win.y0}..{win.y1}",
                                  code, out, win.points.__contains__, rc.check_window(win))
    return problems


def check(plan: Plan, outputs: list, main) -> list:
    """Problems with the outputs of one round; an empty list means correct."""
    if plan.workload.startswith("search"):
        return check_search(plan, outputs)
    if plan.workload == "certify":
        from kinglpds.discharge import inequality_values

        return check_certify(plan, outputs, main, inequality_values)
    return check_local(plan, outputs)
