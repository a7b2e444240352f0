"""The quotient's fast paths against the paths they replaced.

``farey.window_images`` finds a Farey sample's in-window images by
enumerating lattice points, the displacement report reads its minimum off
the axis ladder, and the lifting and local-covering suites decide the sites
at singleton classes without lifting them.  Each must agree exactly with its
oracle: applying every element to every vertex
(``oracles.apply_and_lookup_moves``), searching from every vertex for the
classes that ``build_quotient`` finds from the moved vertices alone
(``oracles.reference_quotient``), scanning every vertex with plain
distances (``test_displacement.check_report``) and lifting at every site
(``oracles.per_site_lipschitz_lifting``, ``oracles.per_site_local_covering``).
The simplicial, lifting, 2-ball and local-covering suites read only the
stars next to a merged class (``stars.near``) and count the other
sites; they must agree with the same suites walking every vertex, edge and
distance-2 pair (``oracles.walk_*``), and the Farey count of distance-2
pairs (``InstanceContract.distance_two_pairs``) with a walk of the window.
Those four suites read the merged members' stars in one walk
(``QuotientWindow.stars``), which must agree with its plain definitions
over every class, vertex and window edge.
The pentagon-transfer suite decides its sites by membership between the
window's and the quotient's pentagon enumerations, and must agree with
testing each projected cycle edge by edge and searching each quotient
pentagon for a lift (``oracles.transfer_pentagons``).
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import farey, quotient, suites
from curvelab.farey import IntMatrix
from curvelab.mcg import WORD_ALPHABET
from oracles import (
    _edge_lifts,
    apply_and_lookup_moves,
    check_rows,
    per_site_lipschitz_lifting,
    per_site_local_covering,
    reference_quotient,
    transfer_pentagons,
    walk_ball2_isometry,
    walk_lipschitz_lifting,
    walk_local_covering,
    walk_simplicial,
)
from test_displacement import MENU_SPECS, SWEEP_MATRICES, check_report, plain_displacements
from test_quotient import assert_edges_join_classes

# old item 1's sweep: (matrix, power, conjugator length) at height 20
SWEEP = [(m, k, c) for m in SWEEP_MATRICES for k in (1, 2, 4, 8) for c in (0, 1, 2)]

# the bound-2 S5 words of test_suites' sample sweep
S5_SWEEP = ["".join(x) for n in (1, 2, 3) for x in itertools.product("abcdr", repeat=n)]

STATUSES = ("pass", "fail", "out-of-hypothesis")


@lru_cache(maxsize=None)
def window(height):
    return farey.farey_window(height)


def farey_case(matrix, power, conj_len, height, depth=1):
    base = IntMatrix.parse(matrix)
    spec = farey.FareyClosureSpec(base, power, conj_len, depth)
    words = tuple(e.word for e in farey.sample_closure(spec))
    return window(height), words, quotient.farey_contract(base)


def assert_build_matches(w, words, contract) -> quotient.QuotientWindow:
    """``contract.images`` gives each element's in-window pairs, in the order
    of the moves found by applying it to every vertex, and ``build_quotient``
    equals the reference build field by field; returns the quotient."""
    moves = apply_and_lookup_moves(w, words, contract)
    images = [[] for _ in range(len(w))]
    for word in words:
        g = contract.element(word)
        for i, j in contract.images(w, g):
            images[i].append((j, g))
    assert images == moves
    q = quotient.build_quotient(w, words, contract)
    reference = reference_quotient(w, words, contract, moves)
    for field in ("class_of", "classes", "merged", "transporter", "displacement"):
        assert getattr(q, field) == getattr(reference, field), field
    return q


def walked_distance_two_pairs(w) -> int:
    """The pairs at distance 2 in the window graph, by walking every vertex."""
    rows, total = w.neighbors, 0
    for x, row in enumerate(rows):
        total += len(set().union(*map(rows.__getitem__, row)) - set(row) - {x})
    return total // 2


def assert_suites_match(w, q, contract) -> None:
    """The suites equal the walking oracles, lifting and local covering also
    their per-site oracles, and every quotient suite of the instance is
    total.  On S5 the pentagon-transfer suite also equals its oracle, which
    tests each site edge by edge.  On the Farey graph the count of
    distance-2 pairs equals the walk."""
    simplicial = suites.check_simplicial(q)
    lifting = suites.verify_lipschitz_lifting(q)
    ball2 = suites.verify_ball2_isometry(q)
    covering = suites.verify_local_covering(q)
    assert simplicial == walk_simplicial(q)
    assert ball2 == walk_ball2_isometry(q)
    assert lifting == walk_lipschitz_lifting(q)
    assert covering == walk_local_covering(q)
    assert lifting == per_site_lipschitz_lifting(w, q, contract)
    assert covering == per_site_local_covering(w, q, contract)
    if contract.distance_two_pairs is not None:
        assert contract.distance_two_pairs(w) == walked_distance_two_pairs(w)
    reports = [simplicial, lifting, ball2, covering]
    if w.instance == "s5":
        transfer = suites.transfer_pentagons(q)
        assert transfer == transfer_pentagons(w, q, contract)
        reports += [transfer, suites.check_support_sets(q)]
    for r in reports:
        assert set(r) >= {"suite", "status", "eligible", "truncated", "witnesses"}
        assert r["status"] in STATUSES
        assert r["eligible"] >= 0 and r["truncated"] >= 0


# ---------------------------------------------------------------- images


@pytest.mark.parametrize("m", [
    farey.IDENTITY, *farey.GENERATORS.values(), IntMatrix(2, 1, 1, 1),
    IntMatrix(3, 1, 1, 0), IntMatrix(0, 1, -1, 3), IntMatrix(0, -1, 1, 0),
    IntMatrix(-1, 0, 0, 1), IntMatrix(1000001, 1000000, 1, 1),
], ids=str)
def test_window_images_are_the_in_window_pairs(m):
    for height in range(1, 7):
        slopes = farey.slopes_of_height(height)
        expected = {(s, m.apply(s)) for s in slopes if m.apply(s).height <= height}
        pairs = list(farey.window_images(m, height))
        assert len(pairs) == len(set(pairs)) and set(pairs) == expected


@pytest.mark.parametrize("matrix,power,conj_len", SWEEP)
def test_images_match_apply_and_lookup_sweep(matrix, power, conj_len):
    case = farey_case(matrix, power, conj_len, 20)
    assert_build_matches(*case)
    assert any(apply_and_lookup_moves(*case)) or power > 1


@pytest.mark.parametrize("height", [30, 55])
@pytest.mark.parametrize("matrix,power,conj_len", MENU_SPECS)
def test_images_match_apply_and_lookup_menu(matrix, power, conj_len, height):
    assert_build_matches(*farey_case(matrix, power, conj_len, height))


@pytest.mark.parametrize("matrix,power,conj_len,depth,height", [
    ("3,1,1,0", 1, 1, 1, 20),  # determinant -1
    ("3,1,1,0", 2, 2, 1, 20),
    ("2,1,1,1", 1, 1, 2, 20),  # products of two conjugates
    ("3,2,1,1", 2, 0, 2, 20),
    ("2,1,1,1", 1, 1, 1, 1),  # the smallest windows
    ("2,1,1,1", 1, 2, 1, 2),
    ("3,1,1,0", 1, 1, 2, 3),
    ("0,1,-1,3", 1, 1, 1, 20),  # zero entries
    ("0,1,-1,3", 2, 2, 1, 20),
    ("1000001,1000000,1,1", 1, 1, 1, 20),  # nothing lands in the window
])
def test_images_match_apply_and_lookup_edge_cases(matrix, power, conj_len, depth, height):
    w, words, contract = farey_case(matrix, power, conj_len, height, depth)
    assert_suites_match(w, assert_build_matches(w, words, contract), contract)


# ---------------------------------------------------------------- suites


@pytest.mark.parametrize("matrix,power,conj_len", SWEEP)
def test_singleton_shortcuts_match_per_site_sweep(matrix, power, conj_len):
    w, words, contract = farey_case(matrix, power, conj_len, 20)
    assert_suites_match(w, quotient.build_quotient(w, words, contract), contract)


# the farey-verify menu of the benchmark (curvebench/workloads.py)
FAREY_MENU = [(30, *spec) for spec in MENU_SPECS] + [(40, "2,1,1,1", 8, 1),
                                                     (55, "2,1,1,1", 8, 1)]


@pytest.mark.parametrize("height,matrix,power,conj_len", FAREY_MENU)
def test_suites_match_walks_menu(height, matrix, power, conj_len):
    w, words, contract = farey_case(matrix, power, conj_len, height)
    assert_suites_match(w, quotient.build_quotient(w, words, contract), contract)


def test_suites_match_walks_out_of_hypothesis():
    # K=2 merges classes all over the window, so lifting walks every class
    w, words, contract = farey_case("2,1,1,1", 2, 2, 30)
    q = quotient.build_quotient(w, words, contract)
    assert 2 * len(q.stars.near) > len(w)
    assert_suites_match(w, q, contract)
    assert suites.verify_lipschitz_lifting(q)["status"] == "out-of-hypothesis"


def test_lifts_are_taken_next_to_a_merge():
    # the h=55 benchmark entry: 14 merged classes, whose one-step
    # neighbourhood is a small part of the window
    w, words, contract = farey_case("2,1,1,1", 8, 1, 55)
    q = quotient.build_quotient(w, words, contract)
    assert len(q.merged) == 14
    members = {i for c in q.merged for i in q.classes[c]}
    near = members.union(*map(w.neighbors.__getitem__, members))
    assert q.stars.near == near and 10 * len(near) < len(w)
    lift, at, every_edge = q.lift, [], _edge_lifts(q, contract)

    def spy(i, other_class):
        at.append(i)
        v = lift(i, other_class)
        assert v == every_edge(i, other_class)[1]  # the lift's window index, or None
        return v

    q.__dict__["lift"] = spy  # where cached_property stores it
    for suite in (suites.check_simplicial, suites.verify_lipschitz_lifting,
                  suites.verify_ball2_isometry, suites.verify_local_covering):
        suite(q)
    assert at and set(at) <= near
    # the rows rebuilt near the merges and renumbered elsewhere have a
    # window's shape, and their edges join the classes of window edges
    check_rows(q.graph)
    assert_edges_join_classes(q)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 60))
def test_window_rows_and_distance_two_count(height):
    # farey_window's rows have a window's shape, and the count of
    # distance-2 pairs read off their lengths is the walked one
    w = farey.farey_window(height)
    check_rows(w)
    count = quotient.farey_contract(IntMatrix(2, 1, 1, 1)).distance_two_pairs
    assert count(w) == walked_distance_two_pairs(w)


def test_singleton_shortcuts_match_per_site_s5_sweep(w2):
    contract = quotient.s5_contract()
    for word in S5_SWEEP:
        words = quotient.s5_sample((word,))
        assert_suites_match(w2, assert_build_matches(w2, words, contract), contract)


@pytest.mark.parametrize("instance", ["farey-h55-k2-c2", "s5-bound3-aa"])
def test_truncated_lifting_sites_touch_a_larger_class(w3, instance):
    # the lifting suite decides singleton sites without a lift, so its
    # truncated sites are all at classes with more than one member; the
    # per-site path alone runs here, since the Farey case takes seconds
    if instance.startswith("farey"):
        w, words, contract = farey_case("2,1,1,1", 2, 2, 55)
    else:
        w, words, contract = w3, quotient.s5_sample(("aa",)), quotient.s5_contract()
    q = quotient.build_quotient(w, words, contract)
    sites = []
    report = per_site_lipschitz_lifting(w, q, contract, sites)
    assert len(sites) == report["truncated"] > 0
    single = [len(members) == 1 for members in q.classes]
    for kind, a, *rest in sites:
        touched = (a,) if kind == "edge" else (a, rest[0])
        assert not all(single[c] for c in touched), (kind, a, *rest)


# ---------------------------------------------------------------- the star walk

# the s5-verify menu of the benchmark: (word bound, sample words)
S5_MENU = [(2, "aaaa"), (2, "abab"), (2, "ac"), (3, ""), (3, "aa"), (3, "r"),
           (3, "bb,dd"), (3, "abc"), (3, "cdcd"), (3, "aaaa"), (3, "abab")]


def assert_stars_match(q) -> None:
    """``QuotientWindow.stars`` and ``merged`` equal their definitions, read
    over every class, vertex and window edge."""
    w, class_of, classes = q.window, q.class_of, q.classes
    merged = [c for c, members in enumerate(classes) if len(members) > 1]
    assert q.merged == tuple(merged)
    big = [len(members) > 1 for members in classes]
    near = {i for i in range(len(w))
            if big[class_of[i]] or any(big[class_of[j]] for j in w.neighbors[i])}
    loops, least, singleton_edges = [], {}, 0
    for i, j in w.edges:  # in increasing order, so the first edge is the least
        a, b = class_of[i], class_of[j]
        if a == b:
            loops.append((a, i, j))
        elif big[a] or big[b]:
            least.setdefault((min(a, b), max(a, b)), (i, j))
        else:
            singleton_edges += 1
    assert q.stars == (frozenset(near), tuple(sorted(loops)), least, singleton_edges)


@pytest.mark.parametrize("height,matrix,power,conj_len",
                         FAREY_MENU + [(55, "2,1,1,1", 2, 2)])
def test_star_walk_matches_definitions_farey(height, matrix, power, conj_len):
    # K=2, c=2 at h=55 merges most of the window's vertices
    assert_stars_match(assert_build_matches(*farey_case(matrix, power, conj_len, height)))


def s5_menu_case(w2, w3, bound, sample):
    words = quotient.s5_sample(tuple(x for x in sample.split(",") if x))
    return w2 if bound == 2 else w3, words, quotient.s5_contract()


@pytest.mark.parametrize("bound,sample", S5_MENU)
def test_star_walk_matches_definitions_s5(w2, w3, bound, sample):
    assert_stars_match(assert_build_matches(*s5_menu_case(w2, w3, bound, sample)))


def assert_support_sets_count_quotient_edges(q) -> None:
    """Support-sets part (b) counts each quotient edge once.  Parts (a), (c)
    and (d) read the window alone, and the quotient by the empty sample has
    the window's edges, so the eligible counts differ by part (b)'s."""
    unmerged = quotient.build_quotient(q.window, (), q.contract)
    share = (suites.check_support_sets(q)["eligible"]
             - suites.check_support_sets(unmerged)["eligible"])
    assert share == len(q.graph.edges) - len(q.window.edges)


@pytest.mark.parametrize("bound,sample", S5_MENU)
def test_support_sets_count_quotient_edges_menu(w2, w3, bound, sample):
    assert_support_sets_count_quotient_edges(
        quotient.build_quotient(*s5_menu_case(w2, w3, bound, sample)))


def test_support_sets_count_quotient_edges_sweep(w2):
    contract = quotient.s5_contract()
    for word in S5_SWEEP:
        assert_support_sets_count_quotient_edges(
            quotient.build_quotient(w2, quotient.s5_sample((word,)), contract))


def test_json_fields_leave_the_star_walk_unmade(w3):
    # the quotient's JSON reads the classes and the displacement report only
    for q in (quotient.build_quotient(*farey_case("2,1,1,1", 8, 1, 55)),
              quotient.build_quotient(w3, quotient.s5_sample(("aa",)),
                                      quotient.s5_contract())):
        assert q.merged
        q.json_fields()
        assert "stars" not in q.__dict__  # where cached_property would keep it


# ---------------------------------------------------------------- properties

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

# hyperbolic bases of determinant +-1 with entries in [-5, 5]
SMALL_BASES = [
    IntMatrix(*e) for e in itertools.product(range(-5, 6), repeat=4)
    if abs(e[0] * e[3] - e[1] * e[2]) == 1 and abs(e[0] + e[3]) > 2
]


@PROPERTY
@given(st.sampled_from(SMALL_BASES), st.integers(1, 20), st.integers(1, 8),
       st.integers(0, 2))
def test_farey_suites_total_and_fast_paths_exact(base, height, power, conj_len):
    w, words, contract = farey_case(str(base), power, conj_len, height)
    assert_suites_match(w, assert_build_matches(w, words, contract), contract)
    # the ladder report against a full scan with plain distances
    sample = farey.sample_closure(farey.FareyClosureSpec(base, power, conj_len))
    plain = {e.word: plain_displacements(w.vertices, e.matrix) for e in sample}
    check_report(w, sample, base, plain)


@PROPERTY
@given(st.sampled_from(SMALL_BASES), st.integers(1, 40), st.integers(1, 8),
       st.integers(0, 2))
def test_build_matches_reference_farey(base, height, power, conj_len):
    assert_build_matches(*farey_case(str(base), power, conj_len, height))


@PROPERTY
@given(st.lists(st.text(WORD_ALPHABET, min_size=1, max_size=4), min_size=1, max_size=2))
def test_s5_suites_total_and_fast_paths_exact(w2, words):
    contract = quotient.s5_contract()
    sample = quotient.s5_sample(tuple(words))
    assert_suites_match(w2, assert_build_matches(w2, sample, contract), contract)
