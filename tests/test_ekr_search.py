import hashlib
import itertools
import random
from math import comb

import networkx as nx
import pytest
from hypothesis import event, given, settings, strategies as st

from _oracles import (
    descendent_families_by_filter,
    distances_by_bfs,
    is_automorphism,
    max_clique_reference,
    span,
    x2_counts_by_pairs,
    x2_distance_counts_by_search,
)
from drgcert import ekr_search, graphs, lp_cert
from drgcert.errors import DrgError, ParameterError, TierLimitExceeded, UnsupportedField
from drgcert.exact import canonical_json, q_binomial
from drgcert.graphs import (
    Graph,
    IntersectionArray,
    build_hamming,
    build_johnson,
    distance_census,
    iter_bits,
    twisted_intersection_array,
    twisted_x2_distance_counts,
    twisted_x2_vertices,
)
from drgcert.ekr_search import (
    enumerate_descendent_families,
    max_clique,
    search,
    threshold_graph,
    verify_descendent_family,
    verify_theorem,
)
from drgcert.lp_cert import solve_certificate
from drgcert.scheme import eigensystem_from_array


def test_threshold_graph_basics(built):
    g, census, _, _ = built("twisted", 2, 2)
    thr = threshold_graph(g, census, 1)
    assert thr.adj == g.adj  # d=2, t=1: distance <= 1 is the graph itself
    g, census, _, _ = built("johnson", 7, 3)
    thr = threshold_graph(g, census, 1)
    # distance <= 2 in J(7,3) means nonempty intersection
    for i in range(0, g.n, 5):
        for j in range(i + 1, g.n, 7):
            expects = bool(set(g.vertices[i]) & set(g.vertices[j]))
            assert thr.is_edge(i, j) == expects
    thr2 = threshold_graph(g, census, 2)
    assert thr2.adj == g.adj  # t = d-1 keeps only the distance-1 relation
    with pytest.raises(ParameterError):
        threshold_graph(g, census, 3)


def test_max_clique_complete_graph():
    k6 = build_hamming(1, 6)
    res = max_clique(k6)
    assert res.optimum == 6
    assert res.families == (tuple(range(6)),)
    assert not res.truncated


def test_johnson_stars_are_the_maximizers(built):
    g, census, _, _ = built("johnson", 7, 3)
    thr = threshold_graph(g, census, 1)
    res = max_clique(thr)
    assert res.optimum == 15 and len(res.families) == 7 and not res.truncated
    stars = {
        frozenset(i for i, lab in enumerate(g.vertices) if x in lab)
        for x in range(1, 8)
    }
    assert {frozenset(f) for f in res.families} == stars


def test_johnson_t2_families(built):
    g, census, _, _ = built("johnson", 7, 3)
    thr = threshold_graph(g, census, 2)
    res = max_clique(thr)
    assert res.optimum == 5 and len(res.families) == 21
    pair_stars = {
        frozenset(i for i, lab in enumerate(g.vertices) if set(pair) <= set(lab))
        for pair in itertools.combinations(range(1, 8), 2)
    }
    assert {frozenset(f) for f in res.families} == pair_stars


def test_enumeration_cap_truncates(built):
    g, census, _, _ = built("johnson", 7, 3)
    thr = threshold_graph(g, census, 2)
    res = max_clique(thr, enum_cap=5)
    assert res.optimum == 5
    assert len(res.families) == 5 and res.truncated
    # the cap applies to the closed set, in a fixed order
    assert max_clique(thr, enum_cap=5).families == res.families
    assert set(res.families) < set(max_clique(thr).families)
    assert not max_clique(thr, enum_cap=21).truncated


def test_truncation_is_forgotten_when_the_optimum_grows():
    res = max_clique(_two_triangles_and_k4(), enum_cap=1)
    assert res.optimum == 4 and res.families == ((5, 6, 7, 8),) and not res.truncated


@pytest.mark.parametrize("enum_cap", [0, -3])
def test_enumeration_cap_below_one_is_refused(enum_cap):
    with pytest.raises(ParameterError, match="enum_cap"):
        max_clique(build_hamming(1, 6), enum_cap=enum_cap)


def test_search_stops_at_a_full_list_of_proven_maxima(built, deadline):
    # J(8,4) t=1: f = (1,0,1,0,1) is not strictly positive, so the bound 35
    # is not reported, but it is proven, and the stars and many more
    # families reach it; the search stops once 10,000 of them are listed,
    # where the full search runs for over 15 minutes
    deadline(60)
    g, census, _, sys_ = built("johnson", 8, 4)
    cert, _, res = search(g, census, sys_, 1)
    assert cert.proves_bound and not cert.feasible and cert.bound == 35
    assert res.optimum == 35 and res.truncated
    assert len(res.families) == 10_000 and res.nodes == 20_030
    assert all(len(f) == 35 for f in res.families)


def _two_triangles_and_k4():
    # two triangles through vertex 0 fill the cap before the K4 on 5..8
    adj = [0] * 9
    for clique in [(0, 1, 2), (0, 3, 4), (5, 6, 7, 8)]:
        for i, j in itertools.combinations(clique, 2):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph("two-triangles-and-k4", {}, list(range(9)), adj)


def _fields(res):
    return res.optimum, res.nodes, res.families, res.truncated


#: the ekr-search benchmark rows, and J(10,4) t=1
SEARCH_ROWS = [
    ("johnson", (10, 4), 2), ("johnson", (11, 4), 2), ("johnson", (12, 4), 2),
    ("johnson", (10, 5), 3), ("johnson", (10, 3), 1), ("johnson", (12, 3), 1),
    ("hamming", (5, 3), 2), ("hamming", (4, 4), 1), ("hamming", (4, 4), 2),
    ("hamming", (4, 4), 3), ("hamming", (3, 5), 1), ("grassmann", (2, 6, 2), 1),
    ("grassmann", (3, 4, 2), 1), ("bilinear", (2, 2, 4), 1), ("twisted", (2, 2), 1),
    ("johnson", (10, 4), 1),
]


@pytest.mark.parametrize("family,args,t", SEARCH_ROWS)
def test_search_matches_the_colour_list_reference(family, args, t, built):
    # the pipeline, hint and warm start included, walks the reference's
    # tree: same optimum, node count, maxima and truncation flag
    g, census, _, sys_ = built(family, *args)
    _, descendents, res = search(g, census, sys_, t)
    warm = max(descendents, key=len) if descendents else None
    thr = threshold_graph(g, census, t)
    assert _fields(res) == max_clique_reference(thr.adj, thr.automorphisms, warm)
    assert not res.truncated


@pytest.mark.parametrize("enum_cap", [1, 3, 10_000])
def test_two_triangles_match_the_reference(enum_cap):
    g = _two_triangles_and_k4()
    assert _fields(max_clique(g, enum_cap=enum_cap)) == \
        max_clique_reference(g.adj, enum_cap=enum_cap)


@st.composite
def random_graphs(draw):
    """A graph on at most 40 vertices; a doubled one is two copies of a
    graph on m vertices, with cross edges {i, m+j} and {j, m+i} together,
    so that swapping the copies is an automorphism it is searched with."""
    m = draw(st.integers(1, 20))
    doubled = draw(st.booleans())
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = 2 * m if doubled else 2 * m - draw(st.integers(0, 1))
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if doubled and j >= m:
            continue
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    generators = ()
    if doubled:
        for i in range(m):
            for j in range(m):
                if i < j and adj[i] >> j & 1:
                    adj[m + i] |= 1 << m + j
                    adj[m + j] |= 1 << m + i
                if i <= j and rng.random() < density / 4:
                    for a, b in {(i, m + j), (j, m + i)}:
                        adj[a] |= 1 << b
                        adj[b] |= 1 << a
        generators = ([*range(m, n), *range(m)],)
    return Graph("random", {}, list(range(n)), adj, generators)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_graphs(), st.sampled_from([1, 3, 10_000]))
def test_random_graphs_match_the_reference(g, enum_cap):
    assert all(is_automorphism(g.adj, perm) for perm in g.automorphisms)
    ref = max_clique_reference(g.adj, g.automorphisms, enum_cap=enum_cap)
    assert _fields(max_clique(g, enum_cap=enum_cap)) == ref
    # the optimum as a proven hint: the same maxima and flag, and fewer
    # nodes only where the search stopped
    hinted = max_clique(g, upper_bound_hint=ref[0], enum_cap=enum_cap)
    assert (hinted.optimum, hinted.families, hinted.truncated) == (ref[0], *ref[2:])
    assert hinted.nodes == ref[1] or hinted.truncated and hinted.nodes < ref[1]
    if hinted.nodes < ref[1]:
        event("stopped at the hint")


def nx_maximum_cliques(graph):
    G = nx.Graph()
    G.add_nodes_from(range(graph.n))
    G.add_edges_from((i, j) for i in range(graph.n) for j in iter_bits(graph.adj[i]) if i < j)
    cliques = [frozenset(c) for c in nx.find_cliques(G)]
    best = max(map(len, cliques))
    return best, {c for c in cliques if len(c) == best}


@pytest.mark.parametrize("family,args", [
    ("johnson", (7, 3)),
    ("hamming", (4, 3)),
    ("grassmann", (2, 5, 2)),
    ("bilinear", (2, 2, 3)),
    ("twisted", (2, 2)),
])
def test_rooted_search_matches_networkx_cliques(family, args, built):
    g, census, _, _ = built(family, *args)
    for t in range(1, census.diameter):
        thr = threshold_graph(g, census, t)
        best, maxima = nx_maximum_cliques(thr)
        res = max_clique(thr)
        assert res.optimum == best and not res.truncated
        assert {frozenset(f) for f in res.families} == maxima


@pytest.mark.parametrize("v", [10, 11])
def test_rooted_search_finds_the_stars_of_j_v4(v, built):
    g, census, _, _ = built("johnson", v, 4)
    res = max_clique(threshold_graph(g, census, 1))
    stars = {
        frozenset(i for i, lab in enumerate(g.vertices) if a in lab) for a in range(1, v + 1)
    }
    assert res.optimum == comb(v - 1, 3) and not res.truncated
    assert {frozenset(f) for f in res.families} == stars


def test_hint_and_warm_start_do_not_change_results(built):
    g, census, _, sys_ = built("twisted", 2, 2)
    thr = threshold_graph(g, census, 1)
    x2 = [i for i, lab in enumerate(g.vertices) if lab[0] == "X2"]
    plain = max_clique(thr)
    hinted = max_clique(thr, upper_bound_hint=15)
    warmed = max_clique(thr, warm_start=x2)
    both = max_clique(thr, upper_bound_hint=15, warm_start=x2)
    assert plain.optimum == hinted.optimum == warmed.optimum == both.optimum == 15
    assert plain.families == hinted.families == warmed.families == both.families
    non_edge = next(
        (i, j) for i in range(thr.n) for j in range(i + 1, thr.n) if not thr.is_edge(i, j)
    )
    with pytest.raises(ParameterError):
        max_clique(thr, warm_start=list(non_edge))


def test_warm_start_outside_the_vertices_is_refused(built, monkeypatch):
    # J(5,2), n = 10: no vertex 15 or -1, refused before the search and
    # before any edge of the warm start is looked up
    g = built("johnson", 5, 2)[0]
    monkeypatch.setattr(graphs.Graph, "is_edge", lambda *args: pytest.fail("edge looked up"))
    for ws in ([15], [-1], [14, 15]):
        with pytest.raises(ParameterError, match="not a set of vertices 0..9"):
            max_clique(g, warm_start=ws)


def test_result_independent_of_vertex_order(built):
    g, census, _, _ = built("johnson", 7, 3)
    thr = threshold_graph(g, census, 1)
    perm = list(range(g.n))[::-1]
    inv = {old: new for new, old in enumerate(perm)}
    adj = [0] * g.n
    for new_i, old_i in enumerate(perm):
        for old_j in range(g.n):
            if thr.is_edge(old_i, old_j):
                adj[new_i] |= 1 << inv[old_j]
    shuffled = Graph("shuffled", {}, [thr.vertices[i] for i in perm], adj)
    res_a = max_clique(thr)
    res_b = max_clique(shuffled)
    assert res_a.optimum == res_b.optimum
    fams_a = {frozenset(thr.vertices[i] for i in f) for f in res_a.families}
    fams_b = {frozenset(shuffled.vertices[i] for i in f) for f in res_b.families}
    assert fams_a == fams_b


def test_wrong_upper_bound_hint_detected():
    k6 = build_hamming(1, 6)
    with pytest.raises(DrgError):
        max_clique(k6, upper_bound_hint=3)


def test_lp_consistency_on_feasible_instances(built):
    rows = [
        ("johnson", (7, 3), 1, 15),
        ("johnson", (7, 3), 2, 5),
        ("grassmann", (2, 4, 2), 1, 7),
        ("grassmann", (2, 5, 2), 1, 15),
        ("bilinear", (2, 2, 2), 1, 4),
        ("twisted", (2, 2), 1, 15),
    ]
    for family, args, t, expected in rows:
        g, census, _, sys_ = built(family, *args)
        cert = solve_certificate(sys_, t)
        res = max_clique(threshold_graph(g, census, t))
        assert res.optimum <= cert.bound
        assert res.optimum == expected
        if cert.feasible:
            assert cert.bound == expected  # equality observed on all of these


def test_grassmann_vs_twisted_maximizer_counts(built):
    # ordinary J_2(5,2) has 31 maximum 1-intersecting families (the pencils);
    # the twisted graph collapses that to the single family X2
    g, census, _, _ = built("grassmann", 2, 5, 2)
    res = max_clique(threshold_graph(g, census, 1))
    assert res.optimum == 15 and len(res.families) == 31
    g, census, _, _ = built("twisted", 2, 2)
    res = max_clique(threshold_graph(g, census, 1))
    assert res.optimum == 15 and len(res.families) == 1


# ---------------------------------------------------------------------------
# descendent families


def test_descendent_families_221(built):
    fams = enumerate_descendent_families(2, 2, 1)
    assert len(fams) == 1
    fam = fams[0]
    assert fam.u == () and fam.size == 15
    g, _, _, _ = built("twisted", 2, 2)
    x2_labels = {lab for lab in g.vertices if lab[0] == "X2"}
    assert set(fam.labels()) == x2_labels


def test_descendent_families_232():
    fams = enumerate_descendent_families(2, 3, 2)
    # oracle: count the 1-dim subspaces of GF(2)^6 directly
    assert len(fams) == 63 == 2 ** 6 - 1 == q_binomial(6, 1, 2)
    assert all(f.size == 31 for f in fams)
    assert all(len(f.u) == 1 for f in fams)
    # membership oracle on the first family: planes of H containing u
    fam = fams[0]
    assert all(span(fam.u, 2, 7) <= span(x, 2, 7) for x in fam.members)


def test_descendent_families_231():
    fams = enumerate_descendent_families(2, 3, 1)
    assert len(fams) == 1
    assert fams[0].size == 651 == q_binomial(6, 2, 2)


@pytest.mark.parametrize("q,d,t", [
    (2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (5, 2, 1), (7, 2, 1),
])
def test_descendent_families_match_pool_filter(q, d, t):
    # same u in the same order, same members in the same order, as the
    # whole X2 pool filtered by containment of u on point sets
    found = [(f.u, list(f.members)) for f in enumerate_descendent_families(q, d, t)]
    assert found == descendent_families_by_filter(q, d, t)


def test_descendent_family_errors():
    with pytest.raises(ParameterError):
        enumerate_descendent_families(2, 3, 3)
    with pytest.raises(UnsupportedField):
        enumerate_descendent_families(4, 2, 1)
    # the X2 pool is refused before it is enumerated
    with pytest.raises(TierLimitExceeded):
        enumerate_descendent_families(2**61 - 1, 2, 1)
    with pytest.raises(TierLimitExceeded):
        enumerate_descendent_families(5, 3, 1)


def test_verify_descendent_family_parameter_tier():
    arr = twisted_intersection_array(2, 3)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fams = enumerate_descendent_families(2, 3, 2)
    for fam in fams[:5]:
        wr, cr = verify_descendent_family(fam, 2, 3, 2, sys_)
        assert (wr.width, wr.dual_width, wr.descendent) == (1, 2, True)
        assert cr.verdict == "tight" and cr.size == 31 == cr.bound


@pytest.mark.parametrize("q,d,t,count,size", [(2, 3, 2, 63, 31), (3, 3, 2, 364, 121)])
def test_descendent_families_share_one_certificate_solve(q, d, t, count, size, monkeypatch):
    # every family of twisted(q,d) at t is tight on the parameter tier, and
    # the families checked against one eigensystem share one solve and,
    # as they share one distance histogram, one inner distribution
    real = lp_cert._pinned_solution
    solves, dists = [], []

    def counted(M, t_):
        solves.append(t_)
        return real(M, t_)

    real_dist = ekr_search.inner_distribution_from_counts
    monkeypatch.setattr(lp_cert, "_pinned_solution", counted)
    monkeypatch.setattr(ekr_search, "inner_distribution_from_counts",
                        lambda counts, s: dists.append(counts) or real_dist(counts, s))
    arr = twisted_intersection_array(q, d)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fams = enumerate_descendent_families(q, d, t)
    assert len(fams) == count == q_binomial(2 * d, t - 1, q)
    for fam in fams:
        wr, cr = verify_descendent_family(fam, q, d, t, sys_)
        assert (wr.width, wr.dual_width, wr.descendent) == (d - t, t, True)
        assert cr.verdict == "tight" and fam.size == cr.size == size == cr.bound
    assert solves == [t]
    assert len(dists) == 1


def test_strict_subfamily_after_its_family_keeps_its_own_verdict():
    # the verdicts kept on sys are keyed by the histogram as well as by t
    arr = twisted_intersection_array(2, 3)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fam = enumerate_descendent_families(2, 3, 1)[0]
    sub = ekr_search.DescendentFamily(fam.u, fam.members[::4])
    assert verify_descendent_family(fam, 2, 3, 1, sys_)[1].verdict == "tight"
    wr, cr = verify_descendent_family(sub, 2, 3, 1, sys_)
    assert cr.verdict == "strict" and cr.size == sub.size == 163 < cr.bound == 651
    assert (wr, cr) == verify_descendent_family(sub, 2, 3, 1)
    assert len(sys_.verdicts) == 2


def test_same_histogram_at_another_t_gets_that_ts_certificate():
    # the verdicts kept on sys are keyed by t as well as by the histogram:
    # a family of t = 2, checked again at t = 1, is strict below 651
    arr = twisted_intersection_array(2, 3)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fam = enumerate_descendent_families(2, 3, 2)[0]
    assert verify_descendent_family(fam, 2, 3, 2, sys_)[1].verdict == "tight"
    wr, cr = verify_descendent_family(fam, 2, 3, 1, sys_)
    assert cr.verdict == "strict" and cr.size == 31 < cr.bound == 651
    assert (wr, cr) == verify_descendent_family(fam, 2, 3, 1)
    assert verify_descendent_family(fam, 2, 3, 2, sys_)[1].bound == 31


@pytest.mark.parametrize("q,d,t,digest", [
    (2, 3, 2, "2370316eb7e8f5c2ac12f7b85b5876ed7c845a8e7278e02c393293c99735f6f3"),
    (2, 3, 1, "7b9c62f8117fc95bc424fa675d78e80a618b814c4cc253291737a24426f2e995"),
    (5, 2, 1, "37d4e956a8a7c11565f8c6bd20fb47add53de9b4e7194f4ec476292bb0b75111"),
    (2, 2, 1, "afc5a7148fc446112047eb4c9b4afb6a68286f34639ba06060b216966cb02b5f"),
    (3, 2, 1, "62f33a5f7188df29fe44e524bdb79c115b59c4e42b6f9e7c491648f4a53caf43"),
])
def test_descendent_enumeration_bytes(q, d, t, digest):
    # every family's u and members, in order, byte for byte
    fams = enumerate_descendent_families(q, d, t)
    doc = canonical_json([[f.u, f.members] for f in fams])
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _count_spans(monkeypatch, q, d):
    # the members handed to the span kernel, over all its batches, after
    # the kernel's own span for the cached `_hyperplane_positions(d-1, q)`
    graphs._hyperplane_positions(d - 1, q)
    real = graphs._span_points
    spans = []

    def counted(bases, q_):
        spans.extend(bases)
        return real(bases, q_)

    monkeypatch.setattr(graphs, "_span_points", counted)
    return spans


@pytest.mark.parametrize("q,d,t,vertices,samples", [
    (2, 3, 2, 651, (0, 17, 62)),
    (3, 3, 2, 11_011, (363,)),
])
def test_descendent_families_span_each_x2_vertex_once(q, d, t, vertices, samples, monkeypatch):
    # the families of one enumeration share one point index, so each X2
    # vertex is spanned once, and each histogram is the one a fresh index
    # of the family alone gives
    histograms = []

    def recorded(members, *args):
        histograms.append(twisted_x2_distance_counts(members, *args))
        return histograms[-1]

    monkeypatch.setattr(ekr_search, "twisted_x2_distance_counts", recorded)
    arr = twisted_intersection_array(q, d)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fams = enumerate_descendent_families(q, d, t)
    assert len({id(rows) for fam in fams for rows in fam.members}) == vertices
    spans, checks, shaped = _count_spans(monkeypatch, q, d), [], graphs._x2_shaped

    def counted(members, *args):
        checks.extend(members)
        return shaped(members, *args)

    monkeypatch.setattr(graphs, "_x2_shaped", counted)
    for fam in fams:
        verify_descendent_family(fam, q, d, t, sys_)
    assert len(spans) == len(set(spans)) == vertices == q_binomial(2 * d, d - 1, q)
    assert len(checks) == vertices  # each X2 vertex is one tuple, checked once
    assert len({id(fam.points) for fam in fams}) == 1
    monkeypatch.undo()
    assert histograms == [twisted_x2_distance_counts(list(fam.members), q, d) for fam in fams]
    for i in samples:
        assert histograms[i] == x2_distance_counts_by_search(fams[i].members, q, d)


def test_second_enumeration_spans_afresh(monkeypatch):
    spans = _count_spans(monkeypatch, 2, 3)
    for _ in range(2):
        fams = enumerate_descendent_families(2, 3, 2)
        for fam in fams:
            verify_descendent_family(fam, 2, 3, 2)
    assert len(spans) == 2 * 651 and len(set(spans)) == 651


def test_hand_built_subfamily_gets_its_own_index(monkeypatch):
    # a subset of a family, built as the benchmark builds one, is strictly
    # below the bound, and spans its own members afresh
    fam = enumerate_descendent_families(2, 3, 1)[0]
    sub = ekr_search.DescendentFamily(fam.u, fam.members[::4])
    assert sub.points is None and sub == ekr_search.DescendentFamily(fam.u, fam.members[::4],
                                                                     fam.points)
    spans = _count_spans(monkeypatch, 2, 3)
    wr, cr = verify_descendent_family(sub, 2, 3, 1)
    assert cr.verdict == "strict" and cr.size == sub.size == 163 and wr.width <= 2
    assert len(spans) == 163
    monkeypatch.undo()
    assert twisted_x2_distance_counts(list(sub.members), 2, 3, fam.points) == \
        twisted_x2_distance_counts(list(sub.members), 2, 3)


def _count_batches(monkeypatch, q, d):
    # each call of the span kernel and of the shape check, with its members,
    # after the kernel's own span for the cached `_hyperplane_positions(d-1, q)`
    graphs._hyperplane_positions(d - 1, q)
    real_span, real_shaped = graphs._span_points, graphs._x2_shaped
    batches, shaped = [], []
    monkeypatch.setattr(graphs, "_span_points",
                        lambda bases, q_: batches.append(list(bases)) or real_span(bases, q_))
    monkeypatch.setattr(graphs, "_x2_shaped",
                        lambda members, *args: shaped.append(list(members))
                        or real_shaped(members, *args))
    return batches, shaped


def test_descendent_verifications_check_and_span_in_one_batch(monkeypatch):
    # the enumeration registers its 651 distinct members on the shared
    # index, so the first of the 63 histograms shape-checks and spans them
    # all at once, and the rest read them by id
    arr = twisted_intersection_array(2, 3)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fams = enumerate_descendent_families(2, 3, 2)
    batches, shaped = _count_batches(monkeypatch, 2, 3)
    for fam in fams:
        verify_descendent_family(fam, 2, 3, 2, sys_)
    assert [len(batch) for batch in batches] == [651] == [len(set(batches[0]))]
    assert [len(members) for members in shaped] == [651]
    assert set(map(id, shaped[0])) == {id(rows) for fam in fams for rows in fam.members}
    assert len(fams[0].points.held) == 651 and not fams[0].points.pending


def test_second_pass_over_descendent_families_checks_and_spans_nothing(monkeypatch):
    arr = twisted_intersection_array(2, 3)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fams = enumerate_descendent_families(2, 3, 2)
    first = [twisted_x2_distance_counts(list(fam.members), 2, 3, fam.points) for fam in fams]
    batches, shaped = _count_batches(monkeypatch, 2, 3)
    assert [twisted_x2_distance_counts(list(fam.members), 2, 3, fam.points)
            for fam in fams] == first
    for fam in fams:
        verify_descendent_family(fam, 2, 3, 2, sys_)
    assert batches == shaped == []


WRONG_SHAPES = [
    (((1, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0)), "is not 2 rows"),  # outside H
    (((1.0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)), "is not 2 rows"),  # equal to a vertex
    (((0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)), "echelon"),
]


@pytest.mark.parametrize("rows,match", WRONG_SHAPES)
def test_malformed_member_on_a_warm_index_is_refused(rows, match, monkeypatch):
    # a new object among held members is checked as on a fresh index, with
    # the same message, and the refused call keeps nothing
    fams = enumerate_descendent_families(2, 3, 2)
    for fam in fams:
        verify_descendent_family(fam, 2, 3, 2)
    points = fams[0].points
    before = (dict(points.held), dict(points.masks), dict(points.bits))
    members = [rows, *fams[0].members[1:]]
    with pytest.raises(ParameterError) as fresh:
        twisted_x2_distance_counts(members, 2, 3)
    batches, shaped = _count_batches(monkeypatch, 2, 3)
    with pytest.raises(ParameterError, match=match) as warm:
        twisted_x2_distance_counts(members, 2, 3, points)
    assert str(warm.value) == str(fresh.value)
    assert (dict(points.held), dict(points.masks), dict(points.bits)) == before
    assert shaped[0] == [rows] and batches == ([[rows]] if match == "echelon" else [])


def test_hand_built_members_on_a_shared_index_count_as_on_a_fresh_one():
    # a hand-built subfamily of two families, as new tuples, as the held
    # tuples and as lists, on the enumeration's index before and after the
    # families are verified: each histogram is the one a fresh index gives
    fams = enumerate_descendent_families(2, 3, 2)
    points = fams[0].points
    originals = sorted(set(fams[0].members[::3] + fams[5].members[::2]))
    copies = [tuple(map(tuple, map(list, rows))) for rows in originals]
    lists = [list(map(list, rows)) for rows in originals]
    expected = twisted_x2_distance_counts(originals, 2, 3)
    assert expected == x2_counts_by_pairs(originals, 2, 3)
    assert twisted_x2_distance_counts(copies, 2, 3, points) == expected
    for fam in fams:
        verify_descendent_family(fam, 2, 3, 2)
    for members in (originals, copies, lists):
        assert twisted_x2_distance_counts(members, 2, 3, points) == expected
        sub = ekr_search.DescendentFamily(fams[0].u, tuple(members), points)
        assert verify_descendent_family(sub, 2, 3, 1) == \
            verify_descendent_family(ekr_search.DescendentFamily(fams[0].u, tuple(originals)),
                                     2, 3, 1)
    assert not any(id(rows) in points.held for rows in lists)


def test_copies_of_held_members_are_not_held():
    # each pass over the (2,3,2) families, with every member a freshly
    # built copy, gives the histograms of the members themselves; held
    # keeps only the first object of each subspace, so it never has more
    # entries than the index has subspaces
    fams = enumerate_descendent_families(2, 3, 2)
    points = fams[0].points
    expected = [twisted_x2_distance_counts(list(fam.members), 2, 3, points) for fam in fams]
    for _ in range(3):
        copies = [[tuple(map(tuple, map(list, rows))) for rows in fam.members] for fam in fams]
        assert [twisted_x2_distance_counts(members, 2, 3, points) for members in copies] == expected
        assert len(points.held) <= len(points.masks) == 651


def test_repeated_member_is_spanned_once(monkeypatch):
    # a member listed twice goes to the kernel once and is still refused
    x, y = twisted_x2_vertices(2, 3)[:2]
    spans = _count_spans(monkeypatch, 2, 3)
    with pytest.raises(ParameterError, match="same subspace"):
        twisted_x2_distance_counts([x, y, x], 2, 3)
    assert spans == [x, y]


@pytest.mark.parametrize("q,d", [(3, 2), (2, 3)])
def test_family_verified_at_another_q_or_d_is_refused(q, d):
    # the lines of GF(2)^4 are lines of GF(3)^4 too, so only the index
    # knows which field they were enumerated over
    (fam,) = enumerate_descendent_families(2, 2, 1)
    with pytest.raises(ParameterError, match=r"twisted\(2,2\)"):
        verify_descendent_family(fam, q, d, 1)


@pytest.mark.parametrize("q,d,t,other", [(2, 2, 1, (3, 2)), (3, 3, 2, (2, 3))])
def test_family_verified_against_another_graphs_eigensystem_is_refused(q, d, t, other):
    # the (2,2,1) family once came back strict with bound 40, and the
    # (3,3,2) family raised FundamentalInequalityViolated
    arr = twisted_intersection_array(*other)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fam = enumerate_descendent_families(q, d, t)[0]
    with pytest.raises(ParameterError, match=rf"not that of twisted\({q},{d}\)"):
        verify_descendent_family(fam, q, d, t, sys_)


def test_verify_descendent_family_graph_tier_agrees(built):
    g, census, _, sys_ = built("twisted", 2, 2)
    fams = enumerate_descendent_families(2, 2, 1)
    wr, cr = verify_descendent_family(fams[0], 2, 2, 1, sys_)
    assert (wr.width, wr.dual_width) == (1, 1)
    assert cr.verdict == "tight" and cr.size == 15
    # cross-check histogram against the materialized graph census
    from drgcert.graphs import twisted_x2_distance_counts

    counts = twisted_x2_distance_counts(list(fams[0].members), 2, 2)
    idx = [g.index_of(lab) for lab in fams[0].labels()]
    dist = distances_by_bfs(g.adj)
    expected = [0] * (census.diameter + 1)
    for i in idx:
        for j in idx:
            expected[dist[i][j]] += 1
    assert counts == expected


def test_large_q_x2_family_is_tight():
    # GF(7)^5 has 16,807 points, more than any ambient-space bitmask should
    # span; the 400 members are the lines of H = GF(7)^4
    q, d, t = 7, 2, 1
    (fam,) = enumerate_descendent_families(q, d, t)
    assert fam.size == 400 == q_binomial(4, 1, q)
    wr, cr = verify_descendent_family(fam, q, d, t)
    assert (wr.width, wr.dual_width, wr.descendent) == (1, 1, True)
    assert cr.verdict == "tight" and cr.size == 400 == cr.bound
    # oracle: two lines are equal (distance 0) or meet in the zero vector
    # alone, which is the adjacency rule (distance 1)
    points = [span(label[1], q, 2 * d + 1) for label in fam.labels()]
    expected = [0] * (d + 1)
    for x in points:
        for y in points:
            expected[{q: 0, 1: 1}[len(x & y)]] += 1
    assert twisted_x2_distance_counts(list(fam.members), q, d) == expected


def test_whole_x2_is_descendent_at_t1_parameter_tier():
    arr = twisted_intersection_array(2, 3)
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    fams = enumerate_descendent_families(2, 3, 1)
    wr, cr = verify_descendent_family(fams[0], 2, 3, 1, sys_)
    assert (wr.width, wr.dual_width, wr.descendent) == (2, 1, True)
    assert cr.verdict == "tight" and cr.size == 651 == cr.bound


# ---------------------------------------------------------------------------
# the theorem pipeline


def test_verify_theorem_221():
    report = verify_theorem(2, 2, 1)
    assert report.passed
    assert report.arrays_match
    assert report.certificate_feasible
    assert report.bound == report.expected == report.optimum == 15
    assert report.n_maximizers == 1 and report.maximizers_match
    assert not report.truncated


def test_verify_theorem_builds_no_grassmann_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_theorem built J_q(2d+1,d)")

    monkeypatch.setattr(graphs, "build_grassmann", refuse)
    monkeypatch.setattr(ekr_search, "build_grassmann", refuse, raising=False)
    assert verify_theorem(2, 2, 1).passed


def test_verify_theorem_builds_under_its_search_cap(monkeypatch):
    # one cap governs the build and the search
    caps = []
    build = ekr_search.build_twisted_grassmann

    def spy(q, d, vertex_cap=graphs.DEFAULT_VERTEX_CAP):
        caps.append(vertex_cap)
        return build(q, d, vertex_cap)

    monkeypatch.setattr(ekr_search, "build_twisted_grassmann", spy)
    assert verify_theorem(2, 2, 1, search_cap=500).passed
    assert caps == [500]


def test_verify_theorem_refuses_a_wrong_closed_form_array(monkeypatch):
    # K_155 has as many vertices as twisted(2,2), and a valid eigensystem
    monkeypatch.setattr(ekr_search, "twisted_intersection_array",
                        lambda q, d: IntersectionArray((154,), (1,)))
    report = verify_theorem(2, 2, 1)
    assert not report.arrays_match
    assert not report.passed
    assert report.certificate_feasible and report.maximizers_match


def test_verify_theorem_321():
    # the q = 3 case of the theorem, on the 1,210-vertex twisted graph
    report = verify_theorem(3, 2, 1, search_cap=2000)
    assert report.passed and report.n == 1210
    assert report.bound == report.expected == report.optimum == 40
    assert report.n_maximizers == 1 and report.maximizers_match and not report.truncated


def test_verify_theorem_parameter_errors():
    with pytest.raises(ParameterError):
        verify_theorem(2, 2, 0)
    with pytest.raises(ParameterError):
        verify_theorem(2, 2, 2)
    with pytest.raises(ParameterError):
        verify_theorem(2, 1, 1)
    with pytest.raises(UnsupportedField):
        verify_theorem(9, 2, 1, search_cap=10**6)  # below the cap, so q is tested


def test_verify_theorem_tier_refusals():
    with pytest.raises(TierLimitExceeded):
        verify_theorem(2, 5, 2)  # astronomically large; refused before any work
    with pytest.raises(TierLimitExceeded):
        verify_theorem(2, 3, 1)  # 11811 vertices > default search_cap
    with pytest.raises(TierLimitExceeded):
        verify_theorem(3, 2, 1)  # 1210 vertices > default cap
    with pytest.raises(TierLimitExceeded, match="at least 2"):
        # at least 2^(t-1)(2d-t+1) descendent families: refused unformed
        verify_theorem(2, 10 ** 6, 5 * 10 ** 5)


def test_verify_theorem_needs_an_enum_cap_for_every_descendent_family():
    # twisted(2,3) at t = 2 has [6, 1]_2 = 63 descendent families: a cap of
    # 63 lists every maximizer and the theorem passes; a list cut at 62
    # could not be compared, so that cap is refused before the build
    assert verify_theorem(2, 3, 2, search_cap=20000, enum_cap=63).passed
    with pytest.raises(TierLimitExceeded, match="has 63 descendent families; cap is 62"):
        verify_theorem(2, 3, 2, search_cap=20000, enum_cap=62)
