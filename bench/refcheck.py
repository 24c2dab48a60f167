"""Reference checker for locating-paired-dominating sets on the king grid.

It imports nothing from ``kinglpds``: lattice classes, torus unrolling,
neighbourhood signatures and perfect matchings are all computed here, from the
definitions, so that the benchmark can check the program's answers with code
that does not share the program's mistakes.

Periodic sets are checked on the torus Z^2 / L for a period lattice L.  A
point's class is keyed by its integer coordinates in the basis (u, v), taken
modulo |det|; two points are equivalent exactly when both keys agree.

- Domination: every class has a member in its closed neighbourhood.
- Locating: the member-neighbourhood signature (the set of member neighbours,
  in world coordinates) of each non-member class representative is compared
  with every non-member of the 5x5 block around it.  Two non-members with the
  same nonempty signature share a member neighbour, so they are at most 2
  apart, which makes the comparison exhaustive for the infinite grid; an empty
  signature always collides with its own translates.
- Pairing: a perfect matching of the loop-free torus graph on member classes,
  found by backtracking.  With ``refine=True`` the three index-2 sublattices
  of L are tried as well.

Windows follow the conservative window rules: domination and locating are
judged on interior cells only (locating for pairs at distance at most 2), and
pairing is ``False`` when an interior member has no member neighbour, ``True``
when a matching among the window's members covers every interior member, and
``None`` otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

STEPS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0))
CLOSED = STEPS + ((0, 0),)
BALL2 = tuple((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3) if (dx, dy) != (0, 0))


def add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


# ---------------------------------------------------------------------------
# lattices and periodic sets
# ---------------------------------------------------------------------------

class Torus:
    """The quotient Z^2 / L for the lattice L spanned by u and v."""

    def __init__(self, u, v):
        self.u, self.v = tuple(u), tuple(v)
        self.det = abs(cross(self.u, self.v))
        if self.det == 0:
            raise ValueError("degenerate lattice")

    def key(self, p):
        return (cross(p, self.v) % self.det, cross(self.u, p) % self.det)

    def reps(self) -> dict:
        """One representative per class, found breadth-first from the origin."""
        out = {self.key((0, 0)): (0, 0)}
        frontier = [(0, 0)]
        while frontier:
            nxt = []
            for p in frontier:
                for s in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    q = add(p, s)
                    k = self.key(q)
                    if k not in out:
                        out[k] = q
                        nxt.append(q)
            frontier = nxt
        assert len(out) == self.det
        return out


def index2_sublattices(u, v):
    """The three sublattices of index 2 in the lattice spanned by u and v."""
    return [
        ((2 * u[0], 2 * u[1]), v),
        (u, (2 * v[0], 2 * v[1])),
        (add(u, v), sub(u, v)),
    ]


@dataclass(frozen=True)
class PeriodicSet:
    """The union of the orbits of ``base`` under the lattice spanned by u, v."""

    u: tuple
    v: tuple
    base: tuple

    def __post_init__(self):
        torus = Torus(self.u, self.v)
        keys = {torus.key(b) for b in self.base}
        if len(keys) != len(self.base):
            raise ValueError("base points repeat modulo the lattice")
        object.__setattr__(self, "_torus", torus)
        object.__setattr__(self, "_keys", frozenset(keys))

    def member(self, p) -> bool:
        return self._torus.key(p) in self._keys

    def is_period(self, w) -> bool:
        return all(self.member(add(b, w)) for b in self.base)

    def transpose(self) -> "PeriodicSet":
        sw = lambda p: (p[1], p[0])
        return PeriodicSet(sw(self.u), sw(self.v), tuple(sw(b) for b in self.base))


_POINT = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_pattern(text: str) -> PeriodicSet:
    """Read ``lattice u=(a,b) v=(c,d)`` / ``base (x,y) ...`` text."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("lattice") or not lines[1].startswith("base"):
        raise ValueError(f"not a pattern: {text!r}")
    vecs = [(int(a), int(b)) for a, b in _POINT.findall(lines[0])]
    if len(vecs) != 2:
        raise ValueError(f"bad lattice line {lines[0]!r}")
    pts = tuple((int(a), int(b)) for a, b in _POINT.findall(lines[1]))
    return PeriodicSet(vecs[0], vecs[1], pts)


def format_pattern(pat: PeriodicSet) -> str:
    pts = " ".join(f"({x},{y})" for x, y in sorted(pat.base))
    return (f"lattice u=({pat.u[0]},{pat.u[1]}) v=({pat.v[0]},{pat.v[1]})\n"
            f"base {pts}\n")


# ---------------------------------------------------------------------------
# perfect matchings
# ---------------------------------------------------------------------------

def _cover(nbr: list[int], required: int, free: int, failed: set) -> bool:
    """Can every vertex in ``required`` be matched inside ``free``?"""
    if not required:
        return True
    state = (required, free)
    if state in failed:
        return False
    best, best_opts = -1, None
    rest = required
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        rest ^= low
        opts = nbr[i] & free
        if not opts:
            failed.add(state)
            return False
        if best_opts is None or opts.bit_count() < best_opts.bit_count():
            best, best_opts = i, opts
    while best_opts:
        low = best_opts & -best_opts
        best_opts ^= low
        gone = (1 << best) | low
        if _cover(nbr, required & ~gone, free & ~gone, failed):
            return True
    failed.add(state)
    return False


def has_matching(nodes: list, adj: dict, required=None) -> bool:
    """True when some matching of the graph covers every required node.

    ``required`` defaults to all nodes (a perfect matching).  The search runs
    per connected component, matching a required node with the fewest free
    neighbours first and remembering failed states.
    """
    req_set = set(nodes) if required is None else set(required)
    seen: set = set()
    for start in nodes:
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in adj[a]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        idx = {a: i for i, a in enumerate(comp)}
        nbr = [sum(1 << idx[b] for b in adj[a]) for a in comp]
        req = sum(1 << idx[a] for a in comp if a in req_set)
        if not _cover(nbr, req, (1 << len(comp)) - 1, set()):
            return False
    return True


# ---------------------------------------------------------------------------
# periodic verdicts
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    dominated: bool
    locating: bool
    paired: bool | None
    undominated: list = field(default_factory=list)
    collisions: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.dominated and self.locating and self.paired is True


def _signature(member, p):
    return frozenset(q for q in (add(p, s) for s in STEPS) if member(q))


def _paired_on(pat: PeriodicSet, u, v) -> bool:
    torus = Torus(u, v)
    reps = torus.reps()
    classes = [k for k, r in reps.items() if pat.member(r)]
    adj = {k: set() for k in classes}
    for k in classes:
        r = reps[k]
        for s in STEPS:
            q = add(r, s)
            kq = torus.key(q)
            if kq != k and pat.member(q):
                adj[k].add(kq)
                adj[kq].add(k)
    return len(classes) % 2 == 0 and has_matching(classes, adj)


def check_periodic(pat: PeriodicSet, lattice=None, refine: bool = True) -> Verdict:
    """Decide the three properties of ``pat`` on the torus of ``lattice``.

    ``lattice`` (a pair of vectors) defaults to the pattern's own basis and
    must consist of periods of the set.  Pairing asks for a matching at that
    period, or with ``refine`` at one of its index-2 sublattices.
    """
    u, v = lattice if lattice is not None else (pat.u, pat.v)
    if not (pat.is_period(u) and pat.is_period(v)):
        raise ValueError("lattice vectors are not periods of the set")
    torus = Torus(u, v)
    reps = list(torus.reps().values())
    member = pat.member

    undominated = [r for r in reps if not any(member(add(r, s)) for s in CLOSED)]

    sigs: dict = {}
    for r in reps:
        for d in BALL2 + ((0, 0),):
            w = add(r, d)
            if w not in sigs and not member(w):
                sigs[w] = _signature(member, w)
    by_sig: dict = {}
    for w, sg in sigs.items():
        by_sig.setdefault(sg, []).append(w)
    collisions = []
    for r in reps:
        if member(r):
            continue
        sg = sigs[r]
        if not sg:
            collisions.append((r, add(r, u)))
            continue
        collisions.extend((r, w) for w in by_sig[sg] if w != r)

    paired = _paired_on(pat, u, v)
    if not paired and refine:
        paired = any(_paired_on(pat, a, b) for a, b in index2_sublattices(u, v))
    return Verdict(not undominated, not collisions, paired, undominated, collisions)


def density(pat: PeriodicSet, lattice=None) -> Fraction:
    u, v = lattice if lattice is not None else (pat.u, pat.v)
    torus = Torus(u, v)
    hits = sum(1 for r in torus.reps().values() if pat.member(r))
    return Fraction(hits, torus.det)


# ---------------------------------------------------------------------------
# translation classes
# ---------------------------------------------------------------------------

def hermite(gens) -> tuple[int, int, int]:
    """(a, b, c) with the lattice spanned by gens equal to <(a,0), (b,c)>."""
    pivot = None
    row: list[int] = []
    for x, y in gens:
        if y == 0:
            row.append(x)
            continue
        if pivot is None:
            pivot = (x, y) if y > 0 else (-x, -y)
            continue
        px, py = pivot
        while y:
            q = py // y
            px, py, x, y = x, y, px - q * x, py - q * y
        row.append(x)
        pivot = (px, py) if py > 0 else (-px, -py)
    a = 0
    for x in row:
        a = math.gcd(a, x)
    if pivot is None or a == 0:
        raise ValueError("generators do not span a full-rank lattice")
    return a, pivot[0] % a, pivot[1]


def translation_key(pat: PeriodicSet) -> str:
    """A string that two periodic sets share exactly when they are translates.

    The full translation group of the set is the lattice plus every base
    difference that maps the set onto itself; the key is that group's Hermite
    form and the least sorted base among the translates that put a member at
    the origin.
    """
    if not pat.base:
        return "empty"
    b0 = pat.base[0]
    gens = [pat.u, pat.v]
    gens += [sub(b, b0) for b in pat.base[1:] if pat.is_period(sub(b, b0))]
    a, b, c = hermite(gens)

    def red(p):
        k = p[1] // c
        return ((p[0] - k * b) % a, p[1] - k * c)

    points = {red(p) for p in pat.base}
    best = min(tuple(sorted(red(sub(q, p)) for q in points)) for p in points)
    pts = " ".join(f"({x},{y})" for x, y in best)
    return f"{a},{b},{c}: {pts}"


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    x0: int
    x1: int
    y0: int
    y1: int
    points: frozenset


def parse_window(text: str) -> Window:
    """Read ``window x=[a..b] y=[c..d]`` text with rows from top to bottom."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    m = re.fullmatch(r"window x=\[(-?\d+)\.\.(-?\d+)\] y=\[(-?\d+)\.\.(-?\d+)\]", lines[0])
    if not m:
        raise ValueError(f"bad window header {lines[0]!r}")
    x0, x1, y0, y1 = map(int, m.groups())
    rows = lines[1:]
    if len(rows) != y1 - y0 + 1 or any(len(r) != x1 - x0 + 1 for r in rows):
        raise ValueError("window rows do not match the header")
    pts = frozenset(
        (x0 + j, y1 - i) for i, r in enumerate(rows) for j, ch in enumerate(r) if ch == "X"
    )
    return Window(x0, x1, y0, y1, pts)


def format_window(w: Window) -> str:
    rows = [f"window x=[{w.x0}..{w.x1}] y=[{w.y0}..{w.y1}]"]
    for y in range(w.y1, w.y0 - 1, -1):
        rows.append("".join("X" if (x, y) in w.points else "." for x in range(w.x0, w.x1 + 1)))
    return "\n".join(rows) + "\n"


def check_window(w: Window) -> Verdict:
    pts = w.points
    member = pts.__contains__
    interior = [(x, y) for x in range(w.x0 + 1, w.x1) for y in range(w.y0 + 1, w.y1)]
    undominated = [p for p in interior if not any(member(add(p, s)) for s in CLOSED)]

    by_sig: dict = {}
    for p in interior:
        if not member(p):
            by_sig.setdefault(_signature(member, p), []).append(p)
    collisions = []
    for group in by_sig.values():
        for i, p in enumerate(group):
            for q in group[i + 1:]:
                if max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= 2:
                    collisions.append((p, q))

    inner = set(interior)
    adj = {p: {q for q in (add(p, s) for s in STEPS) if member(q)} for p in pts}
    required = [p for p in pts if p in inner]
    if any(not adj[p] for p in required):
        paired = False
    else:
        paired = True if has_matching(sorted(pts), adj, required) else None
    return Verdict(not undominated, not collisions, paired, undominated, collisions)
