import json
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import farey, s5windows
from curvelab.serialize import json_object
from curvelab.window import Window
from oracles import DisjointSets, rows_from_edges


def bfs_components(keys, edges):
    """Connected components by breadth-first search, as a set of frozensets."""
    adj = {k: [] for k in keys}
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    seen, out = set(), set()
    for k in keys:
        if k in seen:
            continue
        seen.add(k)
        comp, queue = {k}, deque([k])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        out.add(frozenset(comp))
    return out


def check_groups(keys, edges):
    ds = DisjointSets(keys)
    for x, y in edges:
        ds.union(x, y)
    groups = ds.groups()
    assert {frozenset(g) for g in groups} == bfs_components(keys, edges)
    # classes by first-added key, each class in insertion order
    position = {k: n for n, k in enumerate(keys)}
    assert sum(len(g) for g in groups) == len(keys)
    for g in groups:
        assert [position[k] for k in g] == sorted(position[k] for k in g)
    assert [position[g[0]] for g in groups] == sorted(position[g[0]] for g in groups)
    for g in groups:
        assert all(ds.find(k) == ds.find(g[0]) for k in g)


@st.composite
def graphs(draw, key):
    keys = draw(st.lists(key, min_size=1, max_size=30, unique=True))
    pair = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    return keys, draw(st.lists(pair, max_size=40))


@settings(max_examples=200, deadline=None)
@given(graphs(st.integers(-50, 50)))
def test_groups_match_bfs_components_int_keys(graph):
    check_groups(*graph)


# keys shaped like the arc-complement regions of oracles.arc_endpoints:
# (triangle, corner, depth) and (triangle, "center"), which must never be
# ordered against each other
MIXED_KEYS = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.integers(0, 5), st.just("center")),
)


@settings(max_examples=200, deadline=None)
@given(graphs(MIXED_KEYS))
def test_groups_match_bfs_components_mixed_keys(graph):
    check_groups(*graph)


def test_keys_are_added_on_first_use():
    ds = DisjointSets()
    ds.union((0, "center"), (0, 1, 2))
    assert ds.find((3, 0, 0)) == (3, 0, 0)
    assert ds.groups() == [[(0, "center"), (0, 1, 2)], [(3, 0, 0)]]


def test_json_round_trip_farey_windows():
    for height in range(1, 56):
        w = farey.farey_window(height)
        data = json.loads("".join(json_object(w.json_fields(str))))
        assert Window.from_json(data, farey.Slope.parse, "farey") == w, height


def test_json_round_trip_s5_windows(w2, w3):
    for w in (s5windows.build_window(0), s5windows.build_window(1), w2, w3,
              s5windows.build_window(4)):
        data = json.loads("".join(json_object(w.json_fields(s5windows.curve_key_str))))
        back = Window.from_json(data, s5windows.parse_curve_key, s5windows.S5_INSTANCE)
        assert back == w, w.bound


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, draw(st.sets(st.sampled_from(pairs))) if pairs else set()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(simple_graphs())
def test_edges_are_read_off_the_rows(graph):
    # edges and the JSON edge text list each pair once, in order, and
    # from_json builds the same rows back from them
    n, edges = graph
    w = Window("t", 0, 0, tuple(range(n)), rows_from_edges(n, edges))
    assert w.edges == tuple(sorted(edges))
    data = json.loads("".join(json_object(w.json_fields(str))))
    assert data["edges"] == [list(e) for e in sorted(edges)]
    assert Window.from_json(data, int, "t") == w

