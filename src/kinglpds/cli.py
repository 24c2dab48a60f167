"""Command-line front end.

Sources are files in the pattern/window text formats, or catalog entries via
the ``catalog:`` prefix (e.g. ``catalog:L1``, ``catalog:LX --x "period=2
bits=10"``).  Exit codes: 0 success, 1 verification or check failure, 2
argument or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

from .discharge import UNIT, DischargeError, run_pipeline
from .grid import Point
from .lemmas import LemmaVerdict, check_adjacent_sum, check_all, check_lemma1, check_r_claims
from .pattern import (
    FiniteWindow,
    LatticeBasis,
    PatternFormatError,
    PeriodicPattern,
    XDescriptor,
    catalog,
    parse_text,
    serialize_pattern,
    serialize_window,
    truncate,
    window_density,
)
from .render import render_svg
from .search import SearchConfig, minimum_lpds
from .verify import VerificationReport, verify_lpds, verify_window


class CliError(Exception):
    """Raised for bad sources or malformed option values (exit 2)."""


MAX_CELLS = 1 << 18  # largest box or fundamental domain a command enumerates


def _check_size(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise CliError(f"{what} has {cells} cells; the limit is {MAX_CELLS}")


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

_WINDOW_SPEC = re.compile(
    r"^\s*x=\[(-?\d+)\.\.(-?\d+)\]\s+y=\[(-?\d+)\.\.(-?\d+)\]\s*$"
)
_LATTICE_SPEC = re.compile(
    r"^\s*u=\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s+v=\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$"
)


def _parse_bounds(text: str) -> tuple[int, int, int, int]:
    m = _WINDOW_SPEC.match(text)
    if not m:
        raise CliError(f'bad window spec {text!r}; expected x=[a..b] y=[c..d]')
    x0, x1, y0, y1 = map(int, m.groups())
    if x1 < x0 or y1 < y0:
        raise CliError(f"empty window bounds in {text!r}")
    _check_size((x1 - x0 + 1) * (y1 - y0 + 1), f"window {text!r}")
    return x0, x1, y0, y1


def _parse_lattice(text: str) -> LatticeBasis:
    m = _LATTICE_SPEC.match(text)
    if not m:
        raise CliError(f'bad lattice spec {text!r}; expected u=(a,b) v=(c,d)')
    a, b, c, d = map(int, m.groups())
    try:
        return LatticeBasis((a, b), (c, d))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_source(
    src: str, x_spec: str | None, bounds_spec: str | None
) -> PeriodicPattern | FiniteWindow:
    name = src[len("catalog:"):] if src.startswith("catalog:") else None
    is_lx = name is not None and name.strip().upper() == "LX"
    if x_spec is not None and not is_lx:
        raise CliError("--x applies only to catalog:LX")
    x = None
    if x_spec is not None:
        try:
            x = XDescriptor.from_text(x_spec)
        except (ValueError, PatternFormatError) as exc:
            raise CliError(str(exc)) from exc
    if bounds_spec is not None and (not is_lx or (x is not None and x.periodic)):
        raise CliError("--bounds applies only to catalog:LX with an explicit X (set={...})")
    bounds = None if bounds_spec is None else _parse_bounds(bounds_spec)
    if name is not None:
        try:
            return catalog(name, x=x, bounds=bounds)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        with open(src, encoding="utf-8") as fh:
            return parse_text(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {src}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {src}: not UTF-8 text") from exc
    except PatternFormatError as exc:
        raise CliError(str(exc)) from exc


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _frac_units(n: int) -> str:
    """``n``/UNIT in lowest terms, as ``_frac`` prints it."""
    g = math.gcd(n, UNIT)
    return f"{n // g}/{UNIT // g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _verify_periodic(pattern: PeriodicPattern) -> VerificationReport:
    _check_size(pattern.basis.cells, "fundamental domain")
    return verify_lpds(pattern)


def _cmd_verify(args) -> int:
    obj = _load_source(args.source, args.x, None)
    if isinstance(obj, PeriodicPattern):
        report = _verify_periodic(obj)
    else:
        try:
            report = verify_window(obj)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    for line in report.lines():
        print(line)
    return 0 if report.valid else 1


def _cmd_density(args) -> int:
    if args.k is not None and args.k < 0:
        raise CliError("k must be >= 0")
    obj = _load_source(args.source, args.x, args.bounds)
    print(f"density {_frac(obj.density)}")
    if args.k is not None:
        center = (0, 0)
        if isinstance(obj, FiniteWindow):
            center = cx, cy = (obj.x0 + obj.x1) // 2, (obj.y0 + obj.y1) // 2
            if (
                cx - args.k < obj.x0
                or cx + args.k > obj.x1
                or cy - args.k < obj.y0
                or cy + args.k > obj.y1
            ):
                raise CliError(
                    f"k={args.k} neighborhood of ({cx},{cy}) exceeds the window"
                )
        wd = window_density(obj, center, args.k)
        print(f"window k={args.k} density={_frac(wd)}")
    return 0


def _cmd_catalog(args) -> int:
    obj = _load_source(f"catalog:{args.name}", args.x, args.bounds)
    if isinstance(obj, PeriodicPattern):
        print(serialize_pattern(obj))
    else:
        print(serialize_window(obj))
    return 0


def _cmd_search(args) -> int:
    basis = _parse_lattice(args.lattice)
    config = SearchConfig(
        basis=basis,
        max_cardinality=args.max_k,
        node_budget=args.node_budget,
    )
    try:
        result = minimum_lpds(config)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(result.summary_line())
    for pat in result.optima:
        print()
        print(serialize_pattern(pat))
    return 1 if result.status == "budgetExceeded" else 0


_CHECKS = ("lemma1.1", "lemma1.2", "lemma1.3", "r-claims", "adjacent-sum", "all")


def _cmd_check(args) -> int:
    if args.node_budget is not None and args.node_budget < 0:
        raise CliError("node budget must be >= 0")
    verdicts: list[LemmaVerdict] = []
    if args.target == "all":
        verdicts = check_all(args.node_budget)
    elif args.target in ("lemma1.1", "lemma1.2", "lemma1.3"):
        verdicts = [check_lemma1(int(args.target[-1]), args.node_budget)]
    elif args.target == "r-claims":
        verdicts = check_r_claims(args.node_budget)
    elif args.target == "adjacent-sum":
        verdicts = [check_adjacent_sum(args.node_budget)]
    else:
        raise CliError(f"unknown check target {args.target!r}; one of {', '.join(_CHECKS)}")
    ok = True
    for v in verdicts:
        print(v.line())
        if v.verdict != "holds":
            ok = False
            if v.witness:
                print(v.witness)
    return 0 if ok else 1


def _cmd_discharge(args) -> int:
    obj = _load_source(args.source, args.x, None)
    if not isinstance(obj, PeriodicPattern):
        raise CliError("discharge requires a periodic pattern, not a window")
    report = _verify_periodic(obj)
    if not report.valid:
        for line in report.lines():
            print(line)
        print("discharge error: pattern is not a valid LPDS")
        return 1
    try:
        result = run_pipeline(report.classification, args.theorem)
    except DischargeError as exc:
        print(f"discharge error: {exc}")
        return 1
    labels = {1: ("ch0", "ch1"), 2: ("ch2", "ch3", "ch4", "ch5")}[args.theorem]
    print(f"pipeline {args.theorem}")
    cells = report.classification.pattern.basis.domain_cells()
    for cell in cells:
        parts = " ".join(
            f"{label}={_frac_units(stage.units[cell])}"
            for label, stage in zip(labels, result.stages)
        )
        print(f"charge ({cell[0]},{cell[1]}) {parts}")
    print(f"min final={_frac(result.final.minimum())}")
    print(
        f"average initial={_frac(result.initial.average())}"
        f" final={_frac(result.final.average())}"
    )
    for d in result.deficient:
        print(
            f"deficient ({d.deficient[0]},{d.deficient[1]}) case={d.case}"
            f" rich=({d.rich_friend[0]},{d.rich_friend[1]})"
            f" amount={_frac(d.amount)}"
        )
    return 0 if result.final.minimum() >= 1 else 1


def _cmd_render(args) -> int:
    obj = _load_source(args.source, args.x, args.bounds)
    pairs = None
    if isinstance(obj, PeriodicPattern):
        if args.window is None:
            raise CliError("rendering a periodic pattern requires --window")
        bounds = _parse_bounds(args.window)
        window = truncate(obj, *bounds)
        report = _verify_periodic(obj)
        if report.matching is not None:
            pairs = [(p, report.matching.partner(p)) for p in sorted(window.points)]
    else:
        window = obj
        if args.window is not None:
            bounds = _parse_bounds(args.window)
            pts = frozenset(p for p in obj.points if
                            bounds[0] <= p[0] <= bounds[1] and bounds[2] <= p[1] <= bounds[3])
            window = FiniteWindow(*bounds, pts)
    if args.format == "ascii":
        print(serialize_window(window))
    else:
        print(render_svg(window, pairs))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_source(sub, with_bounds: bool = False) -> None:
    sub.add_argument("source", help="pattern/window file or catalog:<name>")
    sub.add_argument("--x", help='X spec for catalog:LX, e.g. "period=2 bits=10"')
    if with_bounds:
        sub.add_argument(
            "--bounds",
            help='window bounds "x=[a..b] y=[c..d]" for explicit-X catalog sources',
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinglpds",
        description="Locating-paired-dominating sets on the king grid.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="verify a pattern or window")
    _add_source(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("density", help="exact density, optional window estimate")
    _add_source(p, with_bounds=True)
    p.add_argument("--k", type=int, help="also report the k-neighborhood density")
    p.set_defaults(func=_cmd_density)

    p = subs.add_parser("catalog", help="emit a catalog construction")
    p.add_argument("name", help="L1, L2, or LX")
    p.add_argument("--x", help="X spec for LX")
    p.add_argument("--bounds", help="bounds for explicit X")
    p.set_defaults(func=_cmd_catalog)

    p = subs.add_parser("search", help="minimum members per fundamental domain")
    p.add_argument("--lattice", required=True, help='basis "u=(a,b) v=(c,d)"')
    p.add_argument("--max-k", type=int, dest="max_k")
    p.add_argument("--node-budget", type=int, dest="node_budget")
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("check", help="run a mechanical lemma check")
    p.add_argument("target", help="|".join(_CHECKS))
    p.add_argument("--node-budget", type=int, dest="node_budget")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("discharge", help="run a charge pipeline on a pattern")
    _add_source(p)
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=_cmd_discharge)

    p = subs.add_parser("render", help="draw a pattern window")
    _add_source(p, with_bounds=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--window", help='bounds "x=[a..b] y=[c..d]" for periodic sources')
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
