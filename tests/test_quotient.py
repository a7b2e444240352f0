import json

import pytest

from curvelab import farey, quotient
from curvelab.quotient import (
    build_quotient,
    farey_contract,
    s5_contract,
    s5_sample,
)
from curvelab.serialize import CACHE_ENV, json_object
from oracles import check_rows, representative, set_adjacency
from test_json_text import QUOTIENT_ENTRIES, _quotient_of

BASE = farey.IntMatrix(2, 1, 1, 1)


@pytest.fixture(scope="module")
def contract():
    return farey_contract(BASE)


@pytest.fixture(scope="module")
def w20():
    return farey.farey_window(20)


@pytest.fixture(scope="module")
def sample():
    return farey.sample_closure(farey.FareyClosureSpec(BASE, 8, 1))


@pytest.fixture(scope="module")
def q20(w20, sample, contract):
    return build_quotient(w20, tuple(e.word for e in sample), contract)


def test_empty_sample_is_identity(w20, contract):
    q = build_quotient(w20, (), contract)
    assert len(q) == len(w20)
    assert all(len(m) == 1 for m in q.classes)
    assert q.graph.edges == w20.edges
    assert q.stars.loops == ()
    assert q.displacement == ()


def test_classes_partition(q20, w20):
    seen = sorted(i for m in q20.classes for i in m)
    assert seen == list(range(len(w20)))
    for c, m in enumerate(q20.classes):
        assert all(q20.class_of[i] == c for i in m)


def test_representative_is_minimum_key(q20, w20):
    for m in q20.classes:
        keys = [w20.vertices[i] for i in m]
        assert w20.vertices[m[0]] == min(keys)


def test_classes_ordered_by_representative(q20, w20):
    reps = [w20.vertices[m[0]] for m in q20.classes]
    assert reps == sorted(reps)


def test_transporters_carry_representative(q20, w20, contract):
    for m in q20.classes:
        rep = w20.vertices[m[0]]
        for i in m:
            fn = contract.act(q20.transporter[i])
            assert fn(rep) == w20.vertices[i]


def test_classes_match_sample_orbits(q20, w20, sample, contract):
    # direct double loop over sample x vertices
    identified = set()
    for elem in sample:
        for i, v in enumerate(w20.vertices):
            img = elem.matrix.apply(v)
            j = w20.index.get(img)
            if j is not None and j != i:
                identified.add((min(i, j), max(i, j)))
    for i, j in identified:
        assert q20.class_of[i] == q20.class_of[j]
    n_pairs = sum(len(m) - 1 for m in q20.classes)
    assert len(q20) == len(w20) - n_pairs


def test_displacement_report(q20, sample, w20):
    assert len(q20.displacement) == len(sample)
    for rec, elem in zip(q20.displacement, sample):
        assert rec["word"] == elem.word
        argmin = farey.Slope.parse(rec["argmin"])
        assert farey.distance(argmin, elem.matrix.apply(argmin)) == rec["min"]
    assert q20.min_displacement == min(r["min"] for r in q20.displacement)


def test_quotient_idempotent(q20, contract):
    qw = q20.graph
    again = build_quotient(qw, (), contract)
    assert len(again) == len(q20)
    assert again.graph.edges == qw.edges


def test_quotient_edges_project_window_edges(q20, w20):
    qadj = set_adjacency(q20.graph)
    for i, j in w20.edges:
        ci, cj = q20.class_of[i], q20.class_of[j]
        if ci != cj:
            assert cj in qadj[ci]
        else:
            assert (ci, i, j) in q20.stars.loops


def test_as_window_sorted(q20, w3):
    qw = q20.graph
    assert list(qw.vertices) == sorted(qw.vertices)
    assert qw.instance == "farey/quotient"
    # vertex c of the quotient graph is the representative of class c, which
    # is what lets suites use class indices as quotient-graph vertices
    q3 = build_quotient(w3, s5_sample(("aa",)), s5_contract())
    assert len(q3) < len(w3)
    for q, w in ((q20, q20.window), (q3, w3)):
        assert q.graph.vertices == tuple(
            w.vertices[representative(q, c)] for c in range(len(q)))
        assert list(q.graph.vertices) == sorted(q.graph.vertices)
        check_rows(q.graph)
        assert q.graph.instance == f"{q.window.instance}/quotient"
    assert q3.graph.instance == "s5/quotient"


def assert_graph_neighbors(q) -> bool:
    """The quotient graph's rows have a window's shape, and are the
    window's own tuples when no class merges; returns whether none
    merged."""
    w, qw = q.window, q.graph
    check_rows(qw)
    unmerged = len(q) == len(w)
    if unmerged:
        assert qw.vertices is w.vertices and qw.neighbors is w.neighbors
    return unmerged


def assert_edges_join_classes(q) -> None:
    """The quotient edges are the class pairs of the window edges between
    distinct classes: every quotient edge has a window edge between its two
    classes, which is why support-sets counts its part (b) without a search,
    and every window edge between distinct classes is a quotient edge."""
    pairs = {tuple(sorted((q.class_of[i], q.class_of[j]))) for i, j in q.window.edges}
    assert q.graph.edges == tuple(sorted(p for p in pairs if p[0] != p[1]))


@pytest.mark.parametrize("height", range(1, 61))
def test_graph_neighbors_match_quotient_edges_farey(height, contract):
    w = farey.farey_window(height)
    for power in range(2, 9):
        spec = farey.FareyClosureSpec(BASE, power, 1)
        words = tuple(e.word for e in farey.sample_closure(spec))
        q = build_quotient(w, words, contract)
        assert_graph_neighbors(q)
        assert_edges_join_classes(q)


@pytest.mark.parametrize("bound", range(4))
def test_graph_neighbors_match_quotient_edges_s5(bound):
    from curvelab import s5windows

    w = s5windows.build_window(bound)
    unmerged = {}
    for word in ("", "aa", "abc"):
        q = build_quotient(w, s5_sample((word,)), s5_contract())
        unmerged[word] = assert_graph_neighbors(q)
        assert_edges_join_classes(q)
    assert unmerged[""]  # the empty sample merges nothing


@pytest.mark.parametrize("entry", sorted(QUOTIENT_ENTRIES))
def test_quotient_edges_join_classes_of_artifact_entries(entry, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert_edges_join_classes(_quotient_of(QUOTIENT_ENTRIES[entry]))


def test_quotient_json(q20, contract, w20):
    data = json.loads("".join(json_object({**w20.json_fields(contract.key_str),
                                           **q20.json_fields()})))
    assert data["classes"] == [list(m) for m in q20.classes]
    assert data["displacement"] == list(q20.displacement)
    assert len(data["vertices"]) == len(w20)


def test_s5_quotient_maps_each_word_over_its_window_once(monkeypatch):
    # the images hook and the displacement hook read one mapping per word
    # and window (s5windows.word_images), made on its first use
    from curvelab import s5windows

    real, calls = s5windows.apply_word_many, []

    def counting(word, coords):
        calls.append(word)
        return real(word, coords)

    monkeypatch.setattr(s5windows, "apply_word_many", counting)
    w = s5windows.build_window(2)
    calls.clear()  # the build maps its own generator words
    words = s5_sample(("ab", "cdcd"))
    q = build_quotient(w, words, s5_contract())
    assert sorted(calls) == sorted(words) and q.displacement
    assert build_quotient(w, words, s5_contract()).displacement == q.displacement
    assert sorted(calls) == sorted(words)  # a second quotient of w maps none again


def test_s5_sample_inverse_closed():
    s = s5_sample(("ab", "r"))
    assert set(s) == {"ab", "BA", "r"}
    assert s5_sample(()) == ()
    assert s5_sample(("aA",)) == ()


@pytest.mark.parametrize("words", [("a",), ("aa", "tat")])
def test_sample_not_closed_under_inverses_is_refused(w20, contract, words):
    with pytest.raises(RuntimeError, match="not closed under inverses"):
        build_quotient(w20, words, contract)


def test_s5_sample_not_closed_under_inverses_is_refused(w2):
    # the words as given, not passed through s5_sample, which closes them
    with pytest.raises(RuntimeError, match="not closed under inverses"):
        build_quotient(w2, ("ab",), s5_contract())
    assert len(build_quotient(w2, s5_sample(("ab",)), s5_contract())) < len(w2)


def test_s5_contract_certificates():
    # every ordered pair of the bound-1 window, against the window's rows:
    # equal, an edge and a common neighbour are exact; the rest is a floor
    from curvelab import s5windows

    w = s5windows.build_window(1)
    c = s5_contract()
    rows = [set(row) for row in w.neighbors]
    seen = set()
    for i in range(len(w)):
        for j, b in enumerate(w.vertices):
            if i == j:
                expected = (0, True)
            elif j in rows[i]:
                expected = (1, True)
            elif rows[i] & rows[j]:
                expected = (2, True)
            else:
                expected = (2, False)
            assert c.certificate(w, i, b) == expected, (i, j)
            seen.add(expected)
    assert seen == {(0, True), (1, True), (2, True), (2, False)}


def test_farey_contract_word_actions(contract):
    a = contract.element("a")
    fn = contract.act(a)
    assert fn(farey.ZERO) == BASE.apply(farey.ZERO)
    fn_inv = contract.act(contract.invert(a))
    assert fn_inv(fn(farey.ZERO)) == farey.ZERO
    composed = contract.act(contract.compose(a, contract.element("t")))
    assert composed(farey.ZERO) == farey.GENERATORS["t"].apply(BASE.apply(farey.ZERO))
