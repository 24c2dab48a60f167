"""King-grid geometry and the one encoding of the LPDS constraints.

Vertices are integer points; two vertices are adjacent exactly when their
Euclidean distance is at most sqrt(2), i.e. when their Chebyshev distance is 1.
Graph distance on this grid coincides with Chebyshev distance, so the distance-k
ball is the (2k+1) x (2k+1) square.

Domination and locating are written once, as offsets from a cell named by
their slot in the 7x7 block ``BLOCK``.  Domination is total: every vertex,
member or not, needs a member among its 8 neighbors (a member's partner is
one), so the open neighborhood ``OPEN`` is the only neighborhood slot set.
Every checker evaluates these slots, and ``locks`` compiles them into the
masks both searches prune on; a domain only says where ``cell + BLOCK[k]``
lands.  Both exhaustive engines (the lattice search and the lemma engine)
number their cells in the order they visit them, so a lock is decided at its
top bit, and ``file_locks`` files every lock of both there.  The symmetries
of the grid that fix the origin are written once too, as the matrices ``D4``.
"""

from __future__ import annotations

Point = tuple[int, int]

_NEIGHBOR_STEPS: tuple[Point, ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
)


def chebyshev(p: Point, q: Point) -> int:
    """Chebyshev distance; equals the graph distance on the king grid."""
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def neighbors(p: Point) -> set[Point]:
    """The 8 vertices at Chebyshev distance exactly 1 from p."""
    x, y = p
    return {(x + dx, y + dy) for dx, dy in _NEIGHBOR_STEPS}


def closed_neighborhood(p: Point) -> set[Point]:
    out = neighbors(p)
    out.add(p)
    return out


def common_neighbors(p: Point, q: Point) -> set[Point]:
    return neighbors(p) & neighbors(q)


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------

# The 8 symmetries of the grid that fix the origin, as integer matrices
# ((a, b), (c, d)) acting on columns: the four rotations, each followed by its
# composition with the x-mirror.  Each is orthogonal, so its inverse is its
# transpose.  D4[2] is the quarter turn counterclockwise.
D4 = (
    ((1, 0), (0, 1)), ((-1, 0), (0, 1)),
    ((0, -1), (1, 0)), ((0, 1), (1, 0)),
    ((-1, 0), (0, -1)), ((1, 0), (0, -1)),
    ((0, 1), (-1, 0)), ((0, -1), (-1, 0)),
)


def apply(mat, p: Point) -> Point:
    (a, b), (c, d) = mat
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


# ---------------------------------------------------------------------------
# constraint template
# ---------------------------------------------------------------------------

# offsets within distance 3, row-major (by dy, then dx)
BLOCK: tuple[Point, ...] = tuple((dx, dy) for dy in range(-3, 4) for dx in range(-3, 4))


def _slots(offsets) -> tuple[int, ...]:
    return tuple(sorted(BLOCK.index(d) for d in offsets))


OPEN = _slots(_NEIGHBOR_STEPS)  # the cells whose members a vertex sees

# Non-members u and u + d see the same members exactly when no member lies in
# N(0) xor N(d), shifted by u.  Equal nonempty member sets share a member, so
# d is within distance 2; the 12 such d after the cell in row-major order (by
# y, then x) reach every pair once.
SEPARATORS: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
    (BLOCK.index(d), _slots(neighbors((0, 0)) ^ neighbors(d)))
    for d in BLOCK
    if 0 < chebyshev((0, 0), d) <= 2 and (d[1], d[0]) > (0, 0)
)


def mask(land, slots) -> int:
    """Bitmask of the cells where ``slots`` land; ``land[k]`` is a cell index."""
    out = 0
    for k in slots:
        out |= 1 << land[k]
    return out


def locks(rows, checked) -> list[int]:
    """Distinct masks of cells that must never be entirely non-members.

    ``rows`` yields each cell ``i`` to check with its landing ``land``: its
    open neighborhood is a lock, and so is, for each ``j = land[k] != i`` in
    ``checked``, the pair ``i, j`` with its separator cells.  No member among
    the 8 neighbors leaves a non-member undominated and a member unpaired.
    """
    out: dict[int, None] = {}
    for i, land in rows:
        out[mask(land, OPEN)] = None
        for k, sep in SEPARATORS:
            j = land[k]
            if j != i and j in checked:
                out[1 << i | 1 << j | mask(land, sep)] = None
    return list(out)


def file_locks(deps, n: int) -> list[list[int]]:
    """The locks ``deps`` over cells ``0..n-1``, filed under their highest cell.

    With cells numbered in visiting order, a lock can become all-out only when
    its highest cell is set out, so it is tested there alone.
    """
    filed: list[list[int]] = [[] for _ in range(n)]
    for dep in deps:
        filed[dep.bit_length() - 1].append(dep)
    return filed
