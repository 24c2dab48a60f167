"""Grid primitives against a breadth-first-search oracle."""

from collections import deque

from hypothesis import given
from hypothesis import strategies as st

from kinglpds.grid import (
    BLOCK,
    OPEN,
    SEPARATORS,
    chebyshev,
    closed_neighborhood,
    common_neighbors,
    neighbors,
)

coord = st.integers(min_value=-50, max_value=50)
point = st.tuples(coord, coord)


# -- oracle ------------------------------------------------------------------

def bfs_distance(src, dst, bound=12):
    """Hop distance in the king graph, expanded edge by edge."""
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        p, d = frontier.popleft()
        if d >= bound:
            continue
        for n in neighbors(p):
            if n == dst:
                return d + 1
            if n not in seen:
                seen.add(n)
                frontier.append((n, d + 1))
    return None


def test_chebyshev_matches_bfs_distance():
    src = (0, 0)
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert chebyshev(src, (x, y)) == bfs_distance(src, (x, y))


# -- neighborhood structure --------------------------------------------------

def test_eight_neighbors():
    n = neighbors((3, -2))
    assert len(n) == 8
    assert (3, -2) not in n
    assert all(chebyshev((3, -2), p) == 1 for p in n)


def test_closed_neighborhood_adds_center():
    assert closed_neighborhood((0, 0)) == set(neighbors((0, 0))) | {(0, 0)}


def test_diagonal_pair_shares_two_common_neighbors():
    assert common_neighbors((0, 0), (1, 1)) == {(0, 1), (1, 0)}


def test_orthogonal_pair_shares_four_common_neighbors():
    assert common_neighbors((0, 0), (1, 0)) == {(0, -1), (0, 1), (1, -1), (1, 1)}


# -- constraint template -----------------------------------------------------

def test_template_neighborhoods():
    assert {BLOCK[k] for k in OPEN} == neighbors((0, 0))


def test_separator_offsets_reach_every_pair_once():
    ds = [BLOCK[k] for k, _ in SEPARATORS]
    both = set(ds) | {(-dx, -dy) for dx, dy in ds}
    assert len(ds) == 12
    assert both == {(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)} - {(0, 0)}
    for k, sep in SEPARATORS:
        assert {BLOCK[s] for s in sep} == neighbors((0, 0)) ^ neighbors(BLOCK[k])


# -- properties --------------------------------------------------------------

@given(point, point)
def test_chebyshev_symmetric(p, q):
    assert chebyshev(p, q) == chebyshev(q, p)


@given(point, point, point)
def test_chebyshev_triangle(p, q, r):
    assert chebyshev(p, r) <= chebyshev(p, q) + chebyshev(q, r)


@given(point)
def test_neighborhood_translation_invariant(p):
    base = neighbors((0, 0))
    assert set(neighbors(p)) == {(p[0] + d[0], p[1] + d[1]) for d in base}


@given(point, point)
def test_common_neighbors_symmetric(p, q):
    assert common_neighbors(p, q) == common_neighbors(q, p)
    assert set(common_neighbors(p, q)) == set(neighbors(p)) & set(neighbors(q))
