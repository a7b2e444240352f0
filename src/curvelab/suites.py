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

Away from the merged classes the quotient map is the identity on stars, so
no suite finds a witness or a truncation there.  The simplicial, lifting,
2-ball and local-covering suites therefore read what one walk over the
merged members' stars gives (``QuotientWindow.stars``): the window vertices
within one step of a merged class (``near``), the collapsed edges, and the
quotient edges at a merged class, each with its least window edge.  They
also read the quotient rows (``QuotientWindow.row``) of the classes they
reach, and count every other site: each vertex or class is one, each
quotient edge between singleton classes (a window edge with no end in a
merged class, which the walk counts) is one 2-ball site and two lifting
sites, and the distance-2 class pairs away from the merges are the
window's pairs at distance 2, counted by the contract's
``distance_two_pairs`` (the Farey graph has it), less those near a merge.
Without that count, or where the merges reach most of the window, lifting
walks every class, row by row.  ``QuotientWindow.lift`` gives a lift as a
window index, or None outside the window, and every witness names window
vertices through ``QuotientWindow.key``, so each key is formatted once per
quotient however many witnesses name it.  Pentagon transfer and support
sets read the whole window; support sets count the quotient edges off the
walk, as its singleton edges plus its least edges.

When violations occur while the sampled displacement is below the
governing threshold (3 for simpliciality, 8 for the lifting, 2-ball,
covering and pentagon-transfer statements), the status is
``out-of-hypothesis`` rather than ``fail``: the bound is a hypothesis and
its necessity is worth exhibiting, not hiding.  On the five-punctured
sphere the displacement of a nonempty sample is a floor of at most 2, so
every suite there that weighs its witnesses against a threshold reports
``out-of-hypothesis``, never ``fail``.

Only the 2-ball suite reads distances, as ``contract.certificate`` floors,
exact on the Farey instance and at most 2 on the five-punctured sphere; a
site that an inexact floor cannot decide is counted as truncated, never
silently assumed.  The lifting suite's geodesics are decided by the
window's own edges.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

from . import s5windows
from .quotient import QuotientWindow

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


def _pairs_near(rows, near: set[int], merged) -> int:
    """The pairs at distance 2 in the graph of the neighbour tuples ``rows``
    with both ends in ``near``, or one end in ``merged``, a subset of it."""
    twice = once = 0
    for x in near:
        reach = set()
        for m in rows[x]:
            reach.update(rows[m])
        reach.difference_update(rows[x])
        reach.discard(x)
        inside = len(reach & near)
        twice += inside
        if x in merged:
            once += len(reach) - inside
    return twice // 2 + once


def check_simplicial(q: QuotientWindow) -> dict:
    """No identified pair is adjacent; no star maps two neighbors together.

    A collapsed window edge is a loop in the quotient; two distinct
    neighbors of one vertex falling into the same class create a parallel
    edge.  Both are ruled out by displacement >= 3.  Two neighbours share a
    class only if it is merged, so only stars next to one are read.
    """
    witnesses = []
    w, key = q.window, q.key
    for c, i, j in q.stars.loops:
        witnesses.append({"kind": "loop", "class": c, "edge": [key(i), key(j)]})
    for i in sorted(q.stars.near):
        seen: dict[int, int] = {}
        for j in w.neighbors[i]:
            c = q.class_of[j]
            if c in seen and q.class_of[i] != c:
                witnesses.append({
                    "kind": "parallel", "at": key(i), "neighbors": [key(seen[c]), key(j)],
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
    to it.  A (c) lift that stays in its classes is a path i, m, v of
    window edges, since each lift carries an edge to an edge.  Its ends lie
    in distinct classes that are not adjacent, so they are distinct and not
    adjacent, and the window itself shows distance 2: no certificate is
    read.

    Sites at singleton classes are counted as eligible and decided without
    a lift.  In (b), the lift at the only member of a class is the
    representative window edge itself: adjacent, inside the window and in
    the other class.  In (c), when the first class and the middle one are
    singletons, both lifts are representative edges, and the window
    certifies distance 2: the two ends are distinct, and not adjacent,
    since every window edge between distinct classes is a quotient edge.
    So every truncated site touches a class with more than one member, and
    (c) walks only from the classes of ``q.stars.near``.  The pairs it
    counts there have both classes near a merge, or one class merged.
    Every other pair joins two singleton classes, one with only singleton
    neighbours, and is at quotient distance 2 exactly when its two vertices
    are at window distance 2; those pairs are counted as the window's pairs
    at distance 2 (the contract's ``distance_two_pairs``) less the window's
    pairs of the first two kinds.  Without that count, or where the merges
    reach most of the window and a walk costs less, every class is walked.
    """
    w, key = q.window, q.key
    witnesses = []
    eligible = truncated = 0

    for c, i, j in q.stars.loops:
        eligible += 1
        witnesses.append({"kind": "collapsed-edge", "edge": [key(i), key(j)]})

    lift = q.lift
    nbrs, class_of, classes = w.neighbors, q.class_of, q.classes
    merged = set(q.merged)
    eligible += 2 * q.stars.singleton_edges  # decided at both ends
    for ci, cj in sorted(q.stars.least):
        for a, b in ((ci, cj), (cj, ci)):
            if a not in merged:
                eligible += 1
                continue
            for i in classes[a]:
                eligible += 1
                v = lift(i, b)
                if v is None:
                    truncated += 1
                    continue
                if not (v in nbrs[i] and class_of[v] == b):
                    witnesses.append({
                        "kind": "edge-lift", "at": key(i), "to_class": b, "lift": key(v),
                    })

    # distance-2 geodesics over class pairs a < b, each taken over its least
    # common neighbour mid; a lift that leaves the class it was taken over
    # (possible out of hypothesis) is a witness naming the class reached.
    # Witnesses are listed in (mid, a, b) order.
    count, row = q.contract.distance_two_pairs, q.row
    if count is None or 2 * len(q.stars.near) > len(w):  # walking every class costs less
        starts, near, pairs = range(len(q)), None, 0
    else:
        near = {class_of[i] for i in q.stars.near}
        starts = sorted(near)
        members = {i for c in merged for i in classes[c]}
        pairs = count(w) - _pairs_near(nbrs, set(q.stars.near), members)
    geodesic = []

    def witness(mid, a, b, lifted, **extra):
        geodesic.append(((mid, a, b), {
            "kind": "geodesic-lift", "classes": [a, b],
            "lift": list(map(key, lifted)), **extra,
        }))

    for a in starts:
        i = classes[a][0]
        row_a = row(a)
        seen = set(row_a)
        for mid in row_a:
            later = row(mid)
            later = later[bisect_right(later, a):]
            if a not in merged and mid not in merged:
                seen.update(later)  # decided without a lift
                continue
            m = -1  # lift(i, mid), once the first unseen b needs it
            for b in later:
                if b in seen:
                    continue
                seen.add(b)
                if m == -1:
                    m = lift(i, mid)
                if m is None:
                    truncated += 1
                elif class_of[m] != mid:
                    witness(mid, a, b, (i, m), mid_class=mid, reached_class=class_of[m])
                else:
                    v = lift(m, b)
                    if v is None:
                        truncated += 1
                    elif class_of[v] != b:
                        witness(mid, a, b, (i, m, v), reached_class=class_of[v])
        seen.difference_update(row_a)  # the classes b > a at distance 2
        if near is None:
            pairs += len(seen)
        else:
            pairs += len(seen & near)
            if a in merged:  # and, on either side, those away from every merge
                pairs += len(set().union(*map(row, row_a)) - near)
    eligible += pairs
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
    common 2-ball centred on the short path).  A site whose floor is below 5
    and not exact is truncated, not passed.  A quotient
    edge between singleton classes is one window edge, a site decided
    without a distance.
    """
    w, key = q.window, q.key
    witnesses = []
    eligible = truncated = 0

    def far_apart(i: int, j: int) -> bool | None:
        d, exact = q.contract.certificate(w, i, w.vertices[j])
        return None if d < 5 and not exact else d >= 5

    for c in q.merged:
        for i, j in combinations(q.classes[c], 2):
            eligible += 1
            far = far_apart(i, j)
            if far is None:
                truncated += 1
            elif not far:
                witnesses.append({"kind": "ball-injectivity", "pair": [key(i), key(j)]})
    nbrs = w.neighbors
    eligible += q.stars.singleton_edges
    for a, b in sorted(q.stars.least):
        for i in q.classes[a]:
            for j in q.classes[b]:
                eligible += 1
                if j in nbrs[i]:  # the window is an induced subgraph
                    continue
                far = far_apart(i, j)
                if far is None:
                    truncated += 1
                elif not far:
                    witnesses.append({
                        "kind": "distance-distortion", "pair": [key(i), key(j)],
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

    Every window vertex is a site, but only stars next to a merged class
    (``q.stars.near``) are read: elsewhere the star's classes are its
    singleton neighbours.  The triangle scan skips every pair of neighbours in
    singleton classes: two singleton classes are adjacent exactly when
    their members are, since quotient edges are the window edges between
    classes.  The pairs it reads come in the order of
    ``itertools.combinations`` over the star."""
    w, key = q.window, q.key
    witnesses = []
    truncated = 0
    lift = q.lift
    nbrs, class_of = w.neighbors, q.class_of
    merged = set(q.merged)
    for i in sorted(q.stars.near):
        ci = class_of[i]
        star = nbrs[i]
        by_class: dict[int, int] = {}
        for j in star:
            cj = class_of[j]
            if cj in by_class:
                witnesses.append({
                    "kind": "star-collapse", "at": key(i),
                    "neighbors": [key(by_class[cj]), key(j)],
                })
            by_class[cj] = j
        for b in q.row(ci):
            if b in by_class:
                continue
            if lift(i, b) is None:
                truncated += 1
            else:
                witnesses.append({"kind": "star-missing-edge", "at": key(i), "to_class": b})
        larger = [p for p, j in enumerate(star) if class_of[j] in merged]
        if not larger:
            continue
        larger_star = [star[p] for p in larger]
        for p, j in enumerate(star):
            cj = class_of[j]
            # a neighbour in a singleton class pairs only with larger classes
            later = star[p + 1:] if cj in merged else larger_star[bisect_right(larger, p):]
            if not later:
                continue
            row_j = q.row(cj)
            for k in later:
                if class_of[k] in row_j and k not in nbrs[j]:
                    witnesses.append({
                        "kind": "star-false-triangle", "at": key(i), "pair": [key(j), key(k)],
                    })
    return _report(
        "local-covering", _status(witnesses, q, LIFTING_THRESHOLD),
        eligible=len(q.window), truncated=truncated, witnesses=witnesses,
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
    window edges), so it is an upstairs pentagon.  When no class merges, the
    quotient graph shares the window's vertices and rows, so its pentagons
    are the window's and are not walked again.
    """
    w, key = q.window, q.key
    witnesses = []
    eligible = truncated = 0
    up = s5windows.enumerate_pentagons(w)
    down = s5windows.enumerate_pentagons(q.graph) if q.merged else up
    quotient_pentagons = set(down)
    projected: set[tuple[int, ...]] = set()
    for pent in up:
        eligible += 1
        canon = s5windows.canonical_cycle(tuple(q.class_of[v] for v in pent))
        if canon in quotient_pentagons:
            projected.add(canon)
        else:
            witnesses.append({"kind": "projection-not-pentagon",
                              "pentagon": list(map(key, pent))})

    boundary = s5windows.boundary(w)
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
    Each side of a relation is mapped over all the curves at once
    (``mcg.apply_word_many``), onto the images of its first letter, which
    are made once and shared by every side that starts with it; no longer
    prefix starts two sides, so each distinct prefix is mapped once.  r's
    images of the base curves are the first of its images.
    """
    import random

    from .curves import BASE_CURVES
    from .mcg import WORD_ALPHABET, apply_word_many

    rng = random.Random(seed)
    bases = [c.coords for c in BASE_CURVES]
    coords = list(bases)
    while len(coords) < 5 + RELATION_CURVES:
        word = "".join(rng.choice(WORD_ALPHABET)
                       for _ in range(rng.randint(1, RELATION_WORD_LENGTH)))
        coords += apply_word_many(word, [bases[rng.randrange(5)]])

    firsts: dict[str, list] = {}  # letter -> its images of coords

    def image(word: str) -> list:
        if not word:
            return coords
        if word[0] not in firsts:
            firsts[word[0]] = apply_word_many(word[0], coords)
        return apply_word_many(word[1:], firsts[word[0]])

    witnesses = []
    for name, left, right in RELATIONS:
        for c, a, b in zip(coords, image(left), image(right)):
            if a != b:
                witnesses.append({"kind": name, "curve": list(c)})
    for i, (base, moved) in enumerate(zip(bases, image("r")), start=1):
        if moved != base:
            witnesses.append({"kind": "r-moves-base-curve", "curve": i})
    status = "pass" if not witnesses else "fail"
    return _report("relations", status, eligible=len(RELATIONS) * len(coords) + len(bases),
                   truncated=0, witnesses=witnesses, seed=seed)


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
    w, key = q.window, q.key
    witnesses = []
    eligible = truncated = 0
    boundary = s5windows.boundary(w)

    nbrs = w.neighbors
    adj = [set(ns) for ns in nbrs]  # for this call only
    for i, row in enumerate(nbrs):
        for j in filter(i.__lt__, row):  # each edge (i, j) once, in order
            eligible += 1
            common = adj[i] & adj[j]
            if common:
                curves = [key(i), key(j), key(min(common))]
                witnesses.append({"kind": "triple-disjoint", "curves": curves})
    eligible += q.stars.singleton_edges + len(q.stars.least)  # (b): the quotient edges

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
                witnesses.append({"kind": "equal-links", "curves": [key(other), key(i)]})
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
            witnesses.append({"kind": "missing-pants-pair", "curve": key(i)})

    status = "pass" if not witnesses else "fail"
    return _report("support-sets", status, eligible=eligible,
                   truncated=truncated, witnesses=witnesses)
