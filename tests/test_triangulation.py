import itertools

import pytest

from curvelab.triangulation import BASE, NUM_EDGES, PUNCTURES, Triangulation
from oracles import (
    corner_counts,
    count_components,
    flippable,
    is_essential,
    is_valid_coords,
    peripheral_coords,
)


def test_base_is_valid():
    BASE.validate()


def test_validate_raises_on_matching_orientation():
    # triangle 0 mirrored: same edges and punctures, reversed cyclic order,
    # so edges 0 and 1 run the same way on both of their sides
    edges = ((1, 0, 5),) + BASE.tri_edges[1:]
    corners = ((1, 3, 2),) + BASE.tri_corners[1:]
    with pytest.raises(RuntimeError, match="matching orientation"):
        Triangulation(edges, corners).validate()


def test_edge_endpoints():
    assert BASE.edge_endpoints(0) == (1, 2)
    assert BASE.edge_endpoints(2) == (3, 4)
    assert BASE.edge_endpoints(5) == (1, 3)
    assert BASE.edge_endpoints(8) == (1, 4)


def test_every_edge_flippable_in_base():
    assert all(flippable(BASE, e) for e in range(NUM_EDGES))


def test_flip_involution():
    for e in range(NUM_EDGES):
        flipped = BASE.flip(e)
        flipped.validate()
        back = flipped.flip(e)
        back.validate()
        # same combinatorial type: identical edge endpoint multiset per edge
        for f in range(NUM_EDGES):
            assert back.edge_endpoints(f) == BASE.edge_endpoints(f)


def test_flip_coords_involution():
    coords = BASE.neighborhood_pattern(5)
    for e in range(NUM_EDGES):
        state = BASE.flip(e)
        once = BASE.flip_coords(e, coords)
        assert is_valid_coords(state, once)
        assert BASE.flip_coords is not None
        assert state.flip_coords(e, once) == coords


def test_peripheral_coords_valid_but_inessential():
    for v in PUNCTURES:
        coords = peripheral_coords(BASE, v)
        assert is_valid_coords(BASE, coords)
        assert not is_essential(BASE, coords)


def test_neighborhood_pattern_essential():
    for e in range(NUM_EDGES):
        assert is_essential(BASE, BASE.neighborhood_pattern(e))


def test_neighborhood_pattern_rejects_loops():
    # find a state with a loop edge by trying short flip sequences
    state, loop_edge = None, None
    for seq in itertools.product(range(NUM_EDGES), repeat=2):
        cur = BASE
        reachable = True
        for e in seq:
            if not flippable(cur, e):
                reachable = False
                break
            cur = cur.flip(e)
        if not reachable:
            continue
        for e in range(NUM_EDGES):
            u, v = cur.edge_endpoints(e)
            if u == v:
                state, loop_edge = cur, e
                break
        if loop_edge is not None:
            break
    assert loop_edge is not None
    with pytest.raises(ValueError):
        state.neighborhood_pattern(loop_edge)


def test_corner_counts_parity():
    assert corner_counts(BASE, 0, (1, 0, 0, 0, 0, 0, 0, 0, 0)) is None
    coords = BASE.neighborhood_pattern(0)
    for t in range(6):
        n = corner_counts(BASE, t, coords)
        assert n is not None and all(c >= 0 for c in n)


def test_count_components_multicurve():
    c1 = BASE.neighborhood_pattern(0)  # around punctures 1, 2
    c2 = BASE.neighborhood_pattern(2)  # around punctures 3, 4 — disjoint
    both = tuple(a + b for a, b in zip(c1, c2))
    assert count_components(BASE, c1) == 1
    assert count_components(BASE, both) == 2


def test_invalid_coords_rejected():
    assert not is_valid_coords(BASE, (-1,) * NUM_EDGES)
    assert not is_valid_coords(BASE, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert not is_essential(BASE, (0,) * NUM_EDGES)
