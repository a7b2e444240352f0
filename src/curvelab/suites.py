"""Verification suites, each over one quotient window.

A suite takes only the ``QuotientWindow``, which holds its window and the
contract it was built with.  Every suite returns a report dict {suite,
status, eligible, truncated, witnesses, ...}.  ``truncated`` counts the
sites left undecided because the window ends first (locally infinite graphs
force this bookkeeping; there is no cap on the sites a suite enumerates, so
no site is excluded for any other reason), and ``witnesses`` carries
falsifying data.  What ``eligible`` counts differs: lifting parts (b) and
(c), ball2-isometry and pentagon-transfer count every site they reach,
truncated ones included; support-sets counts only the sites it decides;
local-covering counts vertices, while its ``truncated`` counts star edges
whose lift leaves the window.

When violations occur while the sampled displacement is below the
governing threshold (3 for simpliciality, 8 for the lifting, 2-ball,
covering and pentagon-transfer statements), the status is
``out-of-hypothesis`` rather than ``fail``: the bound is a hypothesis and
its necessity is worth exhibiting, not hiding.  On the five-punctured
sphere the displacement of a nonempty sample is a certified lower bound of
at most 3, so a threshold-8 suite there that finds a witness reports
``out-of-hypothesis``, never ``fail``.

Distance facts are exact on the Farey instance and {0, 1, 2}-certificates on
the five-punctured sphere; checks that would need more are counted as
truncated, never silently assumed.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from typing import Callable

from . import s5windows
from .quotient import QuotientWindow
from .window import Window

SIMPLICIAL_THRESHOLD = 3
LIFTING_THRESHOLD = 8


def _status(witnesses: list, q: QuotientWindow, threshold: int) -> str:
    if not witnesses:
        return "pass"
    d = q.min_displacement
    if d is not None and d < threshold:
        return "out-of-hypothesis"
    return "fail"


def _report(suite: str, status: str, eligible: int, truncated: int,
            witnesses: list, **extra) -> dict:
    return {
        "suite": suite,
        "status": status,
        "eligible": eligible,
        "truncated": truncated,
        "witnesses": witnesses,
        **extra,
    }


def _edge_lifts(q: QuotientWindow):
    """The lift of a quotient edge at a window vertex.

    For each quotient edge and endpoint class one witnessing window edge
    (u0, v0) is fixed, with u0 in the class.  The true neighbour of a member
    i of that class over the other class is then the image of v0 under the
    element carrying u0 to i (transporter of u0 inverted, then transporter
    of i).  That map is built at most once per (u0, i), and not at all when
    i is u0.  ``lift(i, other_class)`` returns the neighbour's key and its
    window index, or None when it lies outside the window.  Two singleton
    classes are joined by one window edge, so no witness is stored for them.
    """
    w, contract = q.window, q.contract
    class_of, vertices, index, classes = q.class_of, w.vertices, w.index, q.classes
    rep_edge: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j in w.edges:
        ci, cj = class_of[i], class_of[j]
        if ci == cj or len(classes[ci]) == len(classes[cj]) == 1:
            continue
        rep_edge.setdefault((ci, cj), (i, j))
        rep_edge.setdefault((cj, ci), (j, i))
    transports: dict[tuple[int, int], Callable] = {}

    def lift(i: int, other_class: int):
        witness = rep_edge.get((class_of[i], other_class))
        if witness is None:  # i and the one member of other_class
            v0 = classes[other_class][0]
            return vertices[v0], v0
        u0, v0 = witness
        if u0 == i:
            return vertices[v0], v0
        fn = transports.get((u0, i))
        if fn is None:
            g = contract.compose(contract.invert(q.transporter[u0]), q.transporter[i])
            fn = transports[(u0, i)] = contract.act(g)
        v_key = fn(vertices[v0])
        return v_key, index.get(v_key)

    return lift


def _window_certifies_two(w: Window, i: int, m: int, v: int) -> bool:
    """Whether the window alone shows d(i, v) = 2 along the path i, m, v.

    A window is an induced subgraph, so a missing edge between distinct
    vertices means distance at least 2, and the path gives at most 2.
    """
    near = w.neighbors[i]
    return i != v and v not in near and m in near and v in w.neighbors[m]


def check_simplicial(q: QuotientWindow) -> dict:
    """No identified pair is adjacent; no star maps two neighbors together.

    A collapsed window edge is a loop in the quotient; two distinct
    neighbors of one vertex falling into the same class create a parallel
    edge.  Both are ruled out by displacement >= 3.
    """
    witnesses = []
    w, key = q.window, q.contract.key_str
    for c, i, j in q.loops:
        witnesses.append({
            "kind": "loop", "class": c,
            "edge": [key(w.vertices[i]), key(w.vertices[j])],
        })
    for i in range(len(w)):
        seen: dict[int, int] = {}
        for j in w.neighbors[i]:
            c = q.class_of[j]
            if c in seen and q.class_of[i] != c:
                witnesses.append({
                    "kind": "parallel", "at": key(w.vertices[i]),
                    "neighbors": [key(w.vertices[seen[c]]), key(w.vertices[j])],
                })
            else:
                seen[c] = j
    return _report(
        "simplicial", _status(witnesses, q, SIMPLICIAL_THRESHOLD),
        eligible=len(q), truncated=0, witnesses=witnesses,
    )


def verify_lipschitz_lifting(q: QuotientWindow) -> dict:
    """Edges project to edges; quotient edges and geodesics lift.

    (a) no window edge collapses to a point; (b) every quotient edge lifts
    at every member of either endpoint class (edge-by-edge path lifting
    follows by induction); (c) every pair of classes at quotient distance 2
    admits a lift realizing true distance 2.  Lifts leaving the window are
    truncated sites.  In (c), a lift that lands outside the class it was
    taken over (possible out of hypothesis), first to the middle class or
    then to the far one, is an eligible ``geodesic-lift`` witness naming
    the class reached, never a truncated site, and no distance is measured
    to it.

    Sites at singleton classes are counted as eligible and decided without
    a lift.  In (b), the lift at the only member of a class is the
    representative window edge itself: adjacent, inside the window and in
    the other class.  In (c), when the first class and the middle one are
    singletons, both lifts are representative edges, and the window
    certifies distance 2: the two ends are distinct, and not adjacent,
    since every window edge between distinct classes is a quotient edge.
    So every truncated site touches a class with more than one member.
    """
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0

    for c, i, j in q.loops:
        eligible += 1
        witnesses.append({
            "kind": "collapsed-edge",
            "edge": [key(w.vertices[i]), key(w.vertices[j])],
        })

    lift = _edge_lifts(q)
    nbrs, class_of, classes = w.neighbors, q.class_of, q.classes
    single = [len(members) == 1 for members in classes]
    for ci, cj in q.edges:
        for a, b in ((ci, cj), (cj, ci)):
            if single[a]:
                eligible += 1
                continue
            for i in classes[a]:
                eligible += 1
                v_key, v = lift(i, b)
                if v is None:
                    truncated += 1
                    continue
                if not (v in nbrs[i] and class_of[v] == b):
                    witnesses.append({
                        "kind": "edge-lift", "at": key(w.vertices[i]),
                        "to_class": b, "lift": key(v_key),
                    })

    # distance-2 geodesics, exhaustively over class pairs a < b, each taken
    # over its least common neighbour mid; a lift that leaves the class it
    # was taken over (possible out of hypothesis) is a witness naming the
    # class reached.  Witnesses are listed in (mid, a, b) order.
    qnbrs = q.graph.neighbors
    geodesic = []

    def witness(mid, a, b, lifted, **extra):
        geodesic.append(((mid, a, b), {
            "kind": "geodesic-lift", "classes": [a, b],
            "lift": [key(x) for x in lifted], **extra,
        }))

    for a in range(len(q)):
        i = classes[a][0]
        seen = set(qnbrs[a])
        for mid in qnbrs[a]:
            later = qnbrs[mid]
            later = later[bisect_right(later, a):]
            if single[a] and single[mid]:
                seen.update(later)  # decided without a lift
                continue
            for b in later:
                if b in seen:
                    continue
                seen.add(b)
                m_key, m = lift(i, mid)
                if m is None:
                    truncated += 1
                elif class_of[m] != mid:
                    witness(mid, a, b, (w.vertices[i], m_key),
                            mid_class=mid, reached_class=class_of[m])
                else:
                    v_key, v = lift(m, b)
                    if v is None:
                        truncated += 1
                    elif class_of[v] != b:
                        witness(mid, a, b, (w.vertices[i], m_key, v_key),
                                reached_class=class_of[v])
                    elif not _window_certifies_two(w, i, m, v):
                        d = q.contract.certificate(w.vertices[i], v_key, w)
                        if d != 2:
                            witness(mid, a, b, (w.vertices[i], m_key, v_key),
                                    distance=d)
        # every site of a is a class b it saw beyond its own neighbours
        eligible += len(seen) - len(qnbrs[a])
    geodesic.sort(key=lambda site: site[0])
    witnesses.extend(x for _, x in geodesic)
    return _report(
        "lipschitz-lifting", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


def verify_ball2_isometry(q: QuotientWindow) -> dict:
    """The projection is injective and distance-preserving on 2-balls.

    Reformulated over classes, which is exact and free of window-boundary
    effects: an injectivity failure on some B(x, 2) is a distinct identified
    pair at distance <= 4, and a distance distortion is an adjacent class
    pair with a cross-distance in {2, 3, 4} (both endpoints then lie in a
    common 2-ball centred on the short path).  Sites where the instance
    cannot certify "distance >= 5" are truncated, not passed.
    """
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0

    def far_apart(x, y) -> bool | None:
        cert = q.contract.certificate(x, y, w)
        return None if cert is None else cert >= 5

    for members in q.classes:
        for i, j in combinations(members, 2):
            eligible += 1
            far = far_apart(w.vertices[i], w.vertices[j])
            if far is None:
                truncated += 1
            elif not far:
                witnesses.append({
                    "kind": "ball-injectivity",
                    "pair": [key(w.vertices[i]), key(w.vertices[j])],
                })
    nbrs = w.neighbors
    for a, b in q.edges:
        for i in q.classes[a]:
            for j in q.classes[b]:
                eligible += 1
                if j in nbrs[i]:  # the window is an induced subgraph
                    continue
                x, y = w.vertices[i], w.vertices[j]
                far = far_apart(x, y)
                if far is None:
                    truncated += 1
                elif not far:
                    witnesses.append({
                        "kind": "distance-distortion",
                        "pair": [key(x), key(y)],
                        "classes": [a, b],
                    })
    return _report(
        "ball2-isometry", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


def verify_local_covering(q: QuotientWindow) -> dict:
    """Stars map isomorphically: injective on neighbors, surjective onto the
    quotient star, and triangle-reflecting (two neighbors with adjacent
    classes must be adjacent; both lie in a 2-ball, so this is exact).

    The triangle scan skips every pair of neighbours in singleton classes:
    two singleton classes are adjacent exactly when their members are, since
    quotient edges are the window edges between classes.  The pairs it reads
    come in the order of ``itertools.combinations`` over the star."""
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0
    lift = _edge_lifts(q)
    nbrs, qnbrs, class_of = w.neighbors, q.graph.neighbors, q.class_of
    single = [len(members) == 1 for members in q.classes]
    for i in range(len(w)):
        eligible += 1
        ci = class_of[i]
        star = nbrs[i]
        by_class: dict[int, int] = {}
        for j in star:
            cj = class_of[j]
            if cj in by_class:
                witnesses.append({
                    "kind": "star-collapse", "at": key(w.vertices[i]),
                    "neighbors": [key(w.vertices[by_class[cj]]), key(w.vertices[j])],
                })
            by_class[cj] = j
        for b in qnbrs[ci]:
            if b in by_class:
                continue
            if lift(i, b)[1] is None:
                truncated += 1
            else:
                witnesses.append({
                    "kind": "star-missing-edge", "at": key(w.vertices[i]),
                    "to_class": b,
                })
        merged = [p for p, j in enumerate(star) if not single[class_of[j]]]
        if not merged:
            continue
        larger = [star[p] for p in merged]
        for p, j in enumerate(star):
            cj = class_of[j]
            # a neighbour in a singleton class pairs only with larger classes
            later = larger[bisect_right(merged, p):] if single[cj] else star[p + 1:]
            for k in later:
                if class_of[k] in qnbrs[cj] and k not in nbrs[j]:
                    witnesses.append({
                        "kind": "star-false-triangle", "at": key(w.vertices[i]),
                        "pair": [key(w.vertices[j]), key(w.vertices[k])],
                    })
    return _report(
        "local-covering", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
    )


def transfer_pentagons(q: QuotientWindow) -> dict:
    """Pentagons project to quotient pentagons and lift back.

    Upstairs pentagons must project to chordless 5-cycles on distinct
    classes; every quotient pentagon must lift to a window pentagon, with
    boundary-touching classes counted as truncated when no lift exists.

    Both sides are decided by membership between the two pentagon
    enumerations, which hold canonical cycles.  An upstairs pentagon
    projects to a quotient pentagon iff the canonical form of its class
    cycle is a quotient pentagon.  A quotient pentagon lifts iff some
    upstairs pentagon projects onto it: any window 5-cycle over it has
    distinct vertices, and no chords, since a chord would project to a
    chord of the quotient pentagon (quotient edges are the classes of
    window edges), so it is an upstairs pentagon.
    """
    w, key = q.window, q.contract.key_str
    witnesses = []
    eligible = truncated = 0
    up = s5windows.enumerate_pentagons(w)
    down = s5windows.enumerate_pentagons(q.graph)
    quotient_pentagons = set(down)
    projected: set[tuple[int, ...]] = set()
    for pent in up:
        eligible += 1
        canon = s5windows.canonical_cycle(tuple(q.class_of[v] for v in pent))
        if canon in quotient_pentagons:
            projected.add(canon)
        else:
            witnesses.append({
                "kind": "projection-not-pentagon",
                "pentagon": [key(w.vertices[v]) for v in pent],
            })

    boundary = _boundary_vertices(w)
    lifted = 0
    for classes in down:
        eligible += 1
        if classes in projected:
            lifted += 1
        elif any(v in boundary for c in classes for v in q.classes[c]):
            truncated += 1
        else:
            witnesses.append({"kind": "pentagon-no-lift", "classes": list(classes)})
    return _report(
        "pentagon-transfer", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=eligible, truncated=truncated, witnesses=witnesses,
        upstairs=len(up), downstairs=len(down), lifted=lifted,
        projected_distinct=len(projected),
    )


def _boundary_vertices(w: Window) -> set[int]:
    """Vertices generated at the window's outermost word length."""
    if w.words is None:
        return set()
    out = set()
    for i in range(len(w)):
        word, _ = s5windows.parse_witness(w.words[i])
        if len(word) >= w.bound:
            out.add(i)
    return out


# (name, left word, right word): the generator relations check_relations
# tests as equal actions on curves
RELATIONS = (
    ("braid-ab", "aba", "bab"), ("braid-bc", "bcb", "cbc"),
    ("braid-cd", "cdc", "dcd"),
    ("commute-ac", "ac", "ca"), ("commute-ad", "ad", "da"),
    ("commute-bd", "bd", "db"),
    ("involution-r", "rr", ""),
    ("conjugate-ra", "rar", "A"), ("conjugate-rb", "rbr", "B"),
    ("conjugate-rc", "rcr", "C"), ("conjugate-rd", "rdr", "D"),
)
RELATION_CURVES, RELATION_WORD_LENGTH = 100, 8  # check_relations' random curves


def check_relations(seed: int) -> dict:
    """Generator relations as coordinate equalities on random curves.

    Braid relations, far commutation, the reflection being an involution
    fixing the five base curves and conjugating each half-twist to its
    inverse — checked on the base curves and ``RELATION_CURVES`` random curves
    with words of at most ``RELATION_WORD_LENGTH`` letters, seeded by ``seed``.
    """
    import random

    from .curves import BASE_CURVES
    from .mcg import WORD_ALPHABET, apply_word

    rng = random.Random(seed)
    coords = [c.coords for c in BASE_CURVES]
    while len(coords) < 5 + RELATION_CURVES:
        word = "".join(rng.choice(WORD_ALPHABET)
                       for _ in range(rng.randint(1, RELATION_WORD_LENGTH)))
        coords.append(apply_word(word, coords[rng.randrange(5)]))

    witnesses = []
    eligible = 0
    for name, left, right in RELATIONS:
        for c in coords:
            eligible += 1
            if apply_word(left, c) != apply_word(right, c):
                witnesses.append({"kind": name, "curve": list(c)})
    for i, base in enumerate(BASE_CURVES, start=1):
        eligible += 1
        if apply_word("r", base.coords) != base.coords:
            witnesses.append({"kind": "r-moves-base-curve", "curve": i})
    status = "pass" if not witnesses else "fail"
    return _report("relations", status, eligible=eligible, truncated=0,
                   witnesses=witnesses, seed=seed)


def check_support_sets(q: QuotientWindow) -> dict:
    """Complexity-2 structure of the curve graph window of ``q``.

    (a) no three pairwise-disjoint curves (pants decompositions have size 2);
    (b) orbit pairs joined by a quotient edge have in-window disjoint
    representatives (``build_quotient`` makes each quotient edge from a
    window edge, so each is an eligible site that holds);
    (c) distinct vertices have distinct in-window links, collisions at the
    window boundary being truncated; (d) every interior curve lies in two
    pants decompositions meeting exactly in it (two distinct neighbors).
    """
    w = q.window
    witnesses = []
    eligible = truncated = 0
    boundary = _boundary_vertices(w)
    key = s5windows.curve_key_str

    nbrs = w.neighbors
    adj = [set(ns) for ns in nbrs]  # for this call only
    for i, j in w.edges:
        eligible += 1
        common = adj[i] & adj[j]
        if common:
            k = min(common)
            witnesses.append({
                "kind": "triple-disjoint",
                "curves": [key(w.vertices[v]) for v in (i, j, k)],
            })
    eligible += len(q.edges)  # (b)

    # sorted neighbour tuples are equal exactly when the links are
    links: dict[tuple[int, ...], int] = {}
    for i in range(len(w)):
        link = nbrs[i]
        if link in links:
            other = links[link]
            if i in boundary or other in boundary:
                truncated += 1
            else:
                eligible += 1
                witnesses.append({
                    "kind": "equal-links",
                    "curves": [key(w.vertices[other]), key(w.vertices[i])],
                })
        else:
            links[link] = i
            eligible += 1

    for i in range(len(w)):
        if len(nbrs[i]) >= 2:
            eligible += 1
        elif i in boundary:
            truncated += 1
        else:
            eligible += 1
            witnesses.append({
                "kind": "missing-pants-pair", "curve": key(w.vertices[i]),
            })

    status = "pass" if not witnesses else "fail"
    return _report("support-sets", status, eligible=eligible,
                   truncated=truncated, witnesses=witnesses)
