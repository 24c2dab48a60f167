"""Periodic point patterns on the integer grid.

A pattern is a full-rank sublattice of Z^2 together with a finite set of base
residues; the infinite point set is the union of the base orbits under lattice
translation.  Everything density-related is exact rational arithmetic.

Canonical form: every lattice has a unique Hermite-style basis (a,0),(b,c) with
a,c > 0 and 0 <= b < a, and every point reduces to a unique representative in
the half-open box [0,a) x [0,c).  Two patterns describe the same infinite point
set iff their canonicalized forms (maximal translation lattice plus reduced,
sorted base) are identical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .grid import BLOCK, Point


class PatternFormatError(ValueError):
    """Raised when pattern or window text cannot be parsed."""


# ---------------------------------------------------------------------------
# lattice algebra
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite_triple(gens: list[Point]) -> tuple[int, int, int]:
    """Hermite data (a, b, c) of the lattice spanned by gens: basis (a,0),(b,c).

    Requires the generators to span a rank-2 lattice.
    """
    c = 0
    wx = 0
    for x, y in gens:
        if y == 0:
            continue
        if c == 0:
            c, wx = (y, x) if y > 0 else (-y, -x)
        else:
            g, s, t = _xgcd(c, y)
            wx = s * wx + t * x
            c = g
    if c == 0:
        raise ValueError("degenerate lattice")
    a = 0
    for x, y in gens:
        x0 = x - (y // c) * wx
        a = math.gcd(a, abs(x0))
    if a == 0:
        raise ValueError("degenerate lattice")
    b = wx % a
    return a, b, c


@dataclass(frozen=True)
class LatticeBasis:
    """Two integer vectors spanning a full-rank sublattice of Z^2."""

    u: Point
    v: Point

    def __post_init__(self) -> None:
        if self.det == 0:
            raise ValueError("degenerate lattice")

    @property
    def det(self) -> int:
        return self.u[0] * self.v[1] - self.u[1] * self.v[0]

    @property
    def cells(self) -> int:
        """Size of the fundamental domain."""
        return abs(self.det)

    @cached_property
    def hermite(self) -> tuple[int, int, int]:
        return _hermite_triple([self.u, self.v])

    def reduce(self, p: Point) -> Point:
        """Canonical representative of p modulo the lattice, in [0,a) x [0,c)."""
        a, b, c = self.hermite
        x, y = p
        k = y // c
        return ((x - k * b) % a, y - k * c)

    def domain_cells(self) -> list[Point]:
        """All canonical representatives, row-major (by y, then x)."""
        a, _, c = self.hermite
        return [(x, y) for y in range(c) for x in range(a)]


LANDING_CACHE_CELLS = 1 << 12  # the largest basis whose landing table is cached


def torus_landing(basis: LatticeBasis) -> tuple[list[Point], tuple[tuple[int, ...], ...]]:
    """Domain cells of ``basis`` and, per cell, where each ``BLOCK`` offset lands.

    ``land[i][k]`` is the index of the domain cell congruent to
    ``cells[i] + BLOCK[k]``: 49 entries per domain cell.  The tables of the
    last eight bases of at most ``LANDING_CACHE_CELLS`` cells are cached;
    larger ones are rebuilt on each call, so no caller holds them for long.
    """
    if basis.cells > LANDING_CACHE_CELLS:
        return _landing.__wrapped__(basis)
    return _landing(basis)


@lru_cache(maxsize=8)
def _landing(basis: LatticeBasis) -> tuple[list[Point], tuple[tuple[int, ...], ...]]:
    cells = basis.domain_cells()
    index = {c: i for i, c in enumerate(cells)}
    land = tuple(
        tuple(index[basis.reduce((x + dx, y + dy))] for dx, dy in BLOCK) for x, y in cells
    )
    return cells, land


# ---------------------------------------------------------------------------
# periodic patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicPattern:
    """A lattice-periodic point set; base points are canonical representatives."""

    basis: LatticeBasis
    base: frozenset[Point]

    def __post_init__(self) -> None:
        for p in self.base:
            if self.basis.reduce(p) != p:
                raise ValueError(f"base point {p} is not a canonical representative")

    @classmethod
    def make(cls, basis: LatticeBasis, points) -> "PeriodicPattern":
        """Build a pattern, reducing points; rejects duplicates modulo the lattice."""
        pts = list(points)
        reduced = {basis.reduce(p) for p in pts}
        if len(reduced) != len(pts):
            raise ValueError("base points are not pairwise distinct modulo the lattice")
        return cls(basis, frozenset(reduced))

    def contains(self, p: Point) -> bool:
        return self.basis.reduce(p) in self.base

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.base), self.basis.cells)

    def translate(self, t: Point) -> "PeriodicPattern":
        moved = (self.basis.reduce((p[0] + t[0], p[1] + t[1])) for p in self.base)
        return PeriodicPattern(self.basis, frozenset(moved))

    def sorted_base(self) -> list[Point]:
        return sorted(self.base)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of ``(a*t + b) // m`` over ``0 <= t < n``, for m > 0, in O(log m) steps."""
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


def window_count(pattern: PeriodicPattern | FiniteWindow, center: Point, k: int) -> int:
    """Number of pattern (or window) points at graph distance <= k from center.

    Base point (x, r) lies in row y = q*c + r at the columns x + q*b + j*a, so
    the box holds floor((cx+k - x - q*b)/a) - floor((cx-k-1 - x - q*b)/a) of
    them in that row; these floors are summed over the box's rows in closed
    form, so the cost does not grow with k or with the Hermite period a.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    cx, cy = center
    if isinstance(pattern, FiniteWindow):
        ys = range(cy - k, cy + k + 1)
        return sum(pattern.contains((x, y)) for x in range(cx - k, cx + k + 1) for y in ys)
    a, b, c = pattern.basis.hermite
    n = 0
    for x, r in pattern.base:
        q0 = -((r - cy + k) // c)  # the rows of residue r in the box: q0 <= q <= q1
        rows = (cy + k - r) // c - q0 + 1
        if rows > 0:
            x0 = x + q0 * b
            n += _floor_sum(rows, a, -b, cx + k - x0) - _floor_sum(rows, a, -b, cx - k - 1 - x0)
    return n


def window_density(pattern: PeriodicPattern | FiniteWindow, center: Point, k: int) -> Fraction:
    """Exact fraction of pattern points within the distance-k ball around center."""
    side = 2 * k + 1
    return Fraction(window_count(pattern, center, k), side * side)


def canonicalize(pattern: PeriodicPattern) -> PeriodicPattern:
    """Normal form: maximal translation lattice, Hermite basis, reduced base.

    Two patterns define the same infinite point set iff their canonicalized
    forms are equal.  The maximal lattice is found by testing every base-point
    difference as a translation symmetry of the point set.
    """
    if not pattern.base:
        return PeriodicPattern(LatticeBasis((1, 0), (0, 1)), frozenset())
    base_sorted = pattern.sorted_base()
    p0 = base_sorted[0]
    gens: list[Point] = [pattern.basis.u, pattern.basis.v]
    for q in base_sorted:
        t = (q[0] - p0[0], q[1] - p0[1])
        if t == (0, 0):
            continue
        if all(pattern.contains((p[0] + t[0], p[1] + t[1])) for p in base_sorted):
            gens.append(t)
    a, b, c = _hermite_triple(gens)
    nb = LatticeBasis((a, 0), (b, c))
    nbase = frozenset(nb.reduce(p) for p in base_sorted)
    return PeriodicPattern(nb, nbase)


def translation_canonical(pattern: PeriodicPattern) -> PeriodicPattern:
    """Representative of the pattern's translation class (used to dedupe optima).

    Canonicalizes, then picks the translate with lexicographically least sorted
    base.  Patterns are translation-equivalent iff these representatives match.
    """
    canon = canonicalize(pattern)
    if not canon.base:
        return canon
    best = None
    for t in canon.basis.domain_cells():
        cand = canon.translate((-t[0], -t[1]))
        key = tuple(cand.sorted_base())
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


# ---------------------------------------------------------------------------
# finite windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteWindow:
    """An axis-aligned box [x0..x1] x [y0..y1] with an explicit member set."""

    x0: int
    x1: int
    y0: int
    y1: int
    points: frozenset[Point]

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("empty window bounds")
        for x, y in self.points:
            if not (self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1):
                raise ValueError(f"point ({x},{y}) outside window bounds")

    def contains(self, p: Point) -> bool:
        return p in self.points

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def cells(self) -> int:
        return self.width * self.height

    def interior(self) -> list[Point]:
        """Cells whose closed neighborhood lies inside the bounds."""
        return [
            (x, y)
            for y in range(self.y0 + 1, self.y1)
            for x in range(self.x0 + 1, self.x1)
        ]

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.points), self.cells)


def truncate(pattern: PeriodicPattern, x0: int, x1: int, y0: int, y1: int) -> FiniteWindow:
    pts = {
        (x, y)
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if pattern.contains((x, y))
    }
    return FiniteWindow(x0, x1, y0, y1, frozenset(pts))


# ---------------------------------------------------------------------------
# catalog constructions
# ---------------------------------------------------------------------------

# Diagonal-stripe pattern: two points repeated along (2,1) and (-3,3).
_L1_BASIS = LatticeBasis((2, 1), (-3, 3))
_L1_BASE = ((0, 0), (-1, 1))

# Eight-point block repeated along (9,0) and (0,4).
_L2_BASE = ((0, 0), (0, 3), (2, 2), (3, 1), (4, 3), (5, 0), (7, 1), (7, 2))
_L2_BASIS = LatticeBasis((9, 0), (0, 4))


@dataclass(frozen=True)
class XDescriptor:
    """Column-shift selector for the L_X family.

    Either an explicit finite set of column indices, or a periodic indicator
    given by a bit tuple of period len(bits).  Column k of the L2 tiling is
    shifted up by one exactly when the indicator is 1 at k.
    """

    members: frozenset[int] | None = None
    bits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.members is None) == (self.bits is None):
            raise ValueError("exactly one of members/bits must be given")
        if self.bits is not None:
            if len(self.bits) == 0 or any(b not in (0, 1) for b in self.bits):
                raise ValueError("bits must be a nonempty 0/1 tuple")

    @property
    def periodic(self) -> bool:
        return self.bits is not None

    def indicator(self, k: int) -> int:
        if self.bits is not None:
            return self.bits[k % len(self.bits)]
        return 1 if k in self.members else 0

    @classmethod
    def explicit(cls, members) -> "XDescriptor":
        return cls(members=frozenset(members))

    @classmethod
    def from_bits(cls, bits: str) -> "XDescriptor":
        return cls(bits=tuple(int(ch) for ch in bits))

    @classmethod
    def from_text(cls, text: str) -> "XDescriptor":
        """Parse 'period=<P> bits=<b1..bP>' or 'set={k1,k2,...}' (set may be empty)."""
        text = text.strip()
        m = re.fullmatch(r"period\s*=\s*(\d+)\s+bits\s*=\s*([01]+)", text)
        if m:
            period, bits = int(m.group(1)), m.group(2)
            if period != len(bits):
                raise PatternFormatError("period does not match bit count")
            return cls.from_bits(bits)
        m = re.fullmatch(r"set\s*=\s*\{([-\d,\s]*)\}", text)
        if m:
            body = m.group(1).strip()
            members = [int(tok) for tok in body.split(",") if tok.strip()] if body else []
            return cls.explicit(members)
        raise PatternFormatError(f"cannot parse X descriptor: {text!r}")


def lx_member(x: XDescriptor, p: Point) -> bool:
    """Membership in the (infinite) L_X point set, for any X descriptor."""
    px, py = p
    for ax, ay in _L2_BASE:
        if (px - ax) % 9 == 0:
            k1 = (px - ax) // 9
            if (py - ay - x.indicator(k1)) % 4 == 0:
                return True
    return False


def lx_pattern(x: XDescriptor) -> PeriodicPattern:
    """L_X as a periodic pattern; requires a periodic X descriptor."""
    if not x.periodic:
        raise ValueError("explicit X gives a non-periodic set; use lx_window")
    period = len(x.bits)
    basis = LatticeBasis((9 * period, 0), (0, 4))
    pts = []
    for k1 in range(period):
        shift = x.indicator(k1)
        for ax, ay in _L2_BASE:
            pts.append((ax + 9 * k1, ay + shift))
    return PeriodicPattern.make(basis, pts)


def lx_window(x: XDescriptor, x0: int, x1: int, y0: int, y1: int) -> FiniteWindow:
    """Truncation of L_X to a finite box; works for explicit X descriptors."""
    pts = {
        (px, py)
        for px in range(x0, x1 + 1)
        for py in range(y0, y1 + 1)
        if lx_member(x, (px, py))
    }
    return FiniteWindow(x0, x1, y0, y1, frozenset(pts))


def catalog(
    name: str,
    x: XDescriptor | None = None,
    bounds: tuple[int, int, int, int] | None = None,
) -> PeriodicPattern | FiniteWindow:
    """Fetch a named catalog construction.

    L1: density-2/9 pattern on basis (2,1),(-3,3).
    L2: density-2/9 pattern on basis (9,0),(0,4) with an 8-point base.
    LX: the shifted-column family; periodic X yields a PeriodicPattern,
        explicit X yields a FiniteWindow over the given bounds.
    """
    key = name.strip().upper()
    if key == "L1":
        return PeriodicPattern.make(_L1_BASIS, _L1_BASE)
    if key == "L2":
        return PeriodicPattern.make(_L2_BASIS, _L2_BASE)
    if key == "LX":
        if x is None:
            raise ValueError("LX requires an X descriptor")
        if x.periodic:
            return lx_pattern(x)
        if bounds is None:
            raise ValueError("explicit X requires window bounds")
        return lx_window(x, *bounds)
    raise ValueError(f"unknown catalog name: {name}")


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

_POINT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def serialize_pattern(pattern: PeriodicPattern) -> str:
    u, v = pattern.basis.u, pattern.basis.v
    pts = " ".join(f"({x},{y})" for x, y in pattern.sorted_base())
    return f"lattice u=({u[0]},{u[1]}) v=({v[0]},{v[1]})\nbase {pts}\n"


def serialize_window(window: FiniteWindow) -> str:
    lines = [f"window x=[{window.x0}..{window.x1}] y=[{window.y0}..{window.y1}]"]
    for y in range(window.y1, window.y0 - 1, -1):
        row = "".join(
            "X" if (x, y) in window.points else "."
            for x in range(window.x0, window.x1 + 1)
        )
        lines.append(row)
    return "\n".join(lines) + "\n"


def _parse_pattern_lines(lines: list[str]) -> PeriodicPattern:
    if len(lines) < 2:
        raise PatternFormatError("pattern text needs a lattice line and a base line")
    m = re.fullmatch(
        r"lattice\s+u\s*=\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s+"
        r"v\s*=\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)",
        lines[0].strip(),
    )
    if not m:
        raise PatternFormatError(f"bad lattice line: {lines[0]!r}")
    ux, uy, vx, vy = (int(g) for g in m.groups())
    base_line = lines[1].strip()
    if not base_line.startswith("base"):
        raise PatternFormatError(f"bad base line: {lines[1]!r}")
    pts = [(int(a), int(b)) for a, b in _POINT_RE.findall(base_line[4:])]
    try:
        basis = LatticeBasis((ux, uy), (vx, vy))
        return PeriodicPattern.make(basis, pts)
    except ValueError as exc:
        raise PatternFormatError(str(exc)) from exc


def _parse_window_lines(lines: list[str]) -> FiniteWindow:
    m = re.fullmatch(
        r"window\s+x\s*=\s*\[\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*\]\s+"
        r"y\s*=\s*\[\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*\]",
        lines[0].strip(),
    )
    if not m:
        raise PatternFormatError(f"bad window header: {lines[0]!r}")
    x0, x1, y0, y1 = (int(g) for g in m.groups())
    if x1 < x0 or y1 < y0:
        raise PatternFormatError("empty window bounds")
    height = y1 - y0 + 1
    width = x1 - x0 + 1
    rows = [ln.strip() for ln in lines[1:] if ln.strip()]
    if len(rows) != height:
        raise PatternFormatError(f"expected {height} rows, got {len(rows)}")
    pts = set()
    for i, row in enumerate(rows):
        if len(row) != width or any(ch not in "X." for ch in row):
            raise PatternFormatError(f"bad window row: {row!r}")
        y = y1 - i
        for j, ch in enumerate(row):
            if ch == "X":
                pts.add((x0 + j, y))
    return FiniteWindow(x0, x1, y0, y1, frozenset(pts))


def parse_text(text: str) -> PeriodicPattern | FiniteWindow:
    """Parse either pattern text (lattice/base) or window text (header/rows)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PatternFormatError("empty input")
    head = lines[0].lstrip()
    if head.startswith("lattice"):
        return _parse_pattern_lines(lines)
    if head.startswith("window"):
        return _parse_window_lines(lines)
    raise PatternFormatError("input must start with 'lattice' or 'window'")
