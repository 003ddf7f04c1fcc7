import dataclasses
import itertools
import random
import time
from collections import Counter

import networkx as nx
import pytest
from hypothesis import event, given, settings, strategies as st

from _oracles import (
    adjacency_by_rule,
    census_by_bfs,
    distances_by_bfs,
    elements,
    is_automorphism,
    is_clique_cover,
    is_clique_partition,
    label_maps,
    orbit_representatives,
    parse_graph_cache,
    projective_points,
    rref_label,
    rref_rows,
    span,
    sub_subspaces,
    subspaces_by_cells,
    threshold_by_levels,
    x2_counts_by_pairs,
    x2_distance_by_search,
    x2_distance_counts_by_search,
)
from drgcert import graphs
from drgcert.cli import FAMILY_PARAMS
from drgcert.ekr_search import threshold_graph
from drgcert.errors import (
    DisconnectedGraph,
    DistanceUndetermined,
    DrgError,
    NotDistanceRegular,
    ParameterError,
    TierLimitExceeded,
    UnsupportedField,
)
from drgcert.exact import q_binomial, q_int
from drgcert.graphs import (
    Graph,
    IntersectionArray,
    all_subspaces,
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_twisted_grassmann,
    check_distance_regular,
    classical_array,
    distance_census,
    family_array,
    grassmann_intersection_array,
    graph_cache_text,
    hamming_intersection_array,
    iter_bits,
    orbits,
    representatives,
    twisted_intersection_array,
    twisted_x2_distance_counts,
    twisted_x2_vertices,
    within,
)
from drgcert.lp_cert import solve_certificate
from drgcert.scheme import eigensystem_from_array, eigensystem_to_json, materialize_idempotents
from drgcert.subsets import VertexSubset, distance_counts


def is_complete(graph):
    return all(
        graph.is_edge(i, j) for i in range(graph.n) for j in range(i + 1, graph.n)
    )


# ---------------------------------------------------------------------------
# subspace machinery


@pytest.mark.parametrize("n,k,q", [(4, 1, 2), (4, 2, 2), (5, 2, 2), (3, 1, 3), (4, 2, 3)])
def test_subspace_enumeration_count(n, k, q):
    bases = list(all_subspaces(n, k, q))
    assert len(bases) == q_binomial(n, k, q)
    assert len(set(bases)) == len(bases)
    for rows in bases[:20]:
        assert len(rows) == k
        assert rref_label(span(rows, q, n)) == rows


@pytest.mark.parametrize("n,k,q", [
    (n, k, q) for q, top in [(2, 7), (3, 6), (5, 4)] for n in range(1, top + 1)
    for k in range(n + 1)
])
def test_subspace_enumeration_order_matches_cell_fill(n, k, q):
    # the first descendent family seeds search's warm start, so the order
    # of the bases reaches the `nodes` field of reports
    assert list(all_subspaces(n, k, q)) == list(subspaces_by_cells(n, k, q))


def test_sub_subspaces():
    # the oracle's subspaces of a subspace, used by the X2 search oracle
    rows = ((1, 0, 0, 0), (0, 1, 0, 0))
    subs = sub_subspaces(rows, 2, 4, 1)
    assert len(subs) == 3
    assert all(sub <= span(rows, 2, 4) for sub in subs)
    assert len(sub_subspaces(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3, 3, 2)) == q_binomial(3, 2, 3)


def test_subspace_elements():
    assert elements(((1, 0, 0), (0, 1, 0)), 2, 3) == [(0, 1, 0), (1, 0, 0), (1, 1, 0)]


# ---------------------------------------------------------------------------
# builders


def test_johnson_small():
    g = build_johnson(4, 1)
    assert g.n == 4 and is_complete(g)
    g = build_johnson(7, 3)
    assert g.n == 35
    assert all(g.degree(i) == 12 for i in range(g.n))
    g = build_johnson(5, 2)
    c = distance_census(g)
    assert g.n == 10 and g.degree(0) == 6 and c.diameter == 2


def test_johnson_normalizes_large_d():
    g = build_johnson(5, 3)
    assert g.params == {"v": 5, "d": 2}
    assert g.n == 10


def test_johnson_errors():
    with pytest.raises(ParameterError):
        build_johnson(3, 0)
    with pytest.raises(ParameterError):
        build_johnson(2, 3)
    with pytest.raises(ParameterError):
        build_johnson(4, 4)


def test_hamming_small():
    assert is_complete(build_hamming(1, 3))
    g = build_hamming(3, 3)
    c = distance_census(g)
    assert g.n == 27 and g.degree(0) == 6 and c.diameter == 3
    sq = build_hamming(2, 2)
    assert sq.n == 4 and all(sq.degree(i) == 2 for i in range(4))
    assert distance_census(sq).diameter == 2
    with pytest.raises(ParameterError):
        build_hamming(0, 2)
    with pytest.raises(ParameterError):
        build_hamming(2, 1)


def test_grassmann_small():
    g = build_grassmann(2, 4, 1)
    assert g.n == 15 and is_complete(g)
    g = build_grassmann(2, 5, 2)
    assert g.n == 155
    g = build_grassmann(2, 4, 2)
    assert g.n == 35 and distance_census(g).diameter == 2
    with pytest.raises(UnsupportedField):
        build_grassmann(4, 4, 2)
    with pytest.raises(ParameterError):
        build_grassmann(2, 2, 0)


def test_bilinear_small():
    assert build_bilinear(2, 1, 1).n == 2
    assert is_complete(build_bilinear(2, 1, 2))
    g = build_bilinear(2, 2, 2)
    assert g.n == 16
    assert all(g.degree(i) == 9 for i in range(16))
    assert distance_census(g).diameter == 2
    with pytest.raises(ParameterError):
        build_bilinear(2, 3, 2)


def test_twisted_small():
    g = build_twisted_grassmann(2, 2)
    parts = [lab[0] for lab in g.vertices]
    assert parts.count("X1") == 140 and parts.count("X2") == 15
    assert g.n == 155
    x2 = [i for i, lab in enumerate(g.vertices) if lab[0] == "X2"]
    # X2 is a clique: distinct 1-dim subspaces meet in 0
    assert all(g.is_edge(i, j) for i in x2 for j in x2 if i < j)
    # X1-X2 adjacency is containment
    points = [span(lab[1], 2, 5) for lab in g.vertices]
    x1 = [i for i, lab in enumerate(g.vertices) if lab[0] == "X1"]
    for i in x1[::7]:
        for j in x2:
            assert g.is_edge(i, j) == (points[j] <= points[i])
    assert distance_census(g).diameter == 2
    with pytest.raises(ParameterError):
        build_twisted_grassmann(2, 1)
    with pytest.raises(UnsupportedField):
        build_twisted_grassmann(6, 2)


def test_vertex_cap():
    with pytest.raises(TierLimitExceeded):
        build_johnson(7, 3, vertex_cap=10)
    # huge counts must be refused before enumeration; the last five have
    # hundreds of thousands to millions of digits and are never formed
    start = time.perf_counter()
    for build, args in [(build_grassmann, (2, 11, 5)), (build_johnson, (200, 8)),
                        (build_hamming, (12, 9)), (build_hamming, (40, 2)),
                        (build_hamming, (3_000_000, 9)),
                        (build_johnson, (2_000_000, 1_000_000)),
                        (build_twisted_grassmann, (2, 3000)),
                        (build_grassmann, (2, 3000, 1000)), (build_bilinear, (2, 300, 3000)),
                        # a huge q is refused before its primality is tested
                        (build_grassmann, (2**61 - 1, 4, 2)), (build_bilinear, (2**61 - 1, 2, 2)),
                        (build_twisted_grassmann, (2**61 - 1, 2))]:
        with pytest.raises(TierLimitExceeded):
            build(*args)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("build,args,n", [
    (build_johnson, (7, 3), 35),
    (build_hamming, (4, 3), 81),
    (build_grassmann, (2, 4, 2), 35),
    (build_bilinear, (2, 2, 2), 16),
    (build_twisted_grassmann, (2, 2), 155),
])
def test_vertex_cap_is_exact(build, args, n):
    assert build(*args, vertex_cap=n).n == n
    with pytest.raises(TierLimitExceeded):
        build(*args, vertex_cap=n - 1)


_BUILD = {
    "johnson": build_johnson,
    "hamming": build_hamming,
    "grassmann": build_grassmann,
    "bilinear": build_bilinear,
    "twisted": build_twisted_grassmann,
}


@pytest.mark.parametrize("family,params", [
    ("johnson", {"v": 7, "d": 3}),
    ("johnson", {"v": 8, "d": 5}),
    ("johnson", {"v": 10, "d": 4}),
    ("hamming", {"d": 3, "q": 2}),
    ("hamming", {"d": 4, "q": 3}),
    ("hamming", {"d": 3, "q": 5}),
    ("grassmann", {"q": 2, "v": 4, "d": 1}),
    ("grassmann", {"q": 2, "v": 5, "d": 2}),
    ("grassmann", {"q": 3, "v": 4, "d": 2}),
    ("bilinear", {"q": 2, "d": 2, "e": 2}),
    ("bilinear", {"q": 2, "d": 2, "e": 3}),
    ("bilinear", {"q": 3, "d": 2, "e": 2}),
    ("bilinear", {"q": 2, "d": 1, "e": 3}),
    ("twisted", {"q": 2, "d": 2}),
    ("twisted", {"q": 3, "d": 2}),
])
def test_clique_keys_match_pairwise_rule(family, params):
    g = _BUILD[family](**params)
    vertices, adj = adjacency_by_rule(family, params)
    assert g.vertices == vertices
    assert g.adj == adj


# ---------------------------------------------------------------------------
# automorphism generators


ORBIT_INSTANCES = [
    ("johnson", (5, 2)),
    ("johnson", (7, 3)),
    ("johnson", (8, 4)),
    ("hamming", (3, 2)),
    ("hamming", (4, 3)),
    ("hamming", (2, 5)),
    ("grassmann", (2, 4, 2)),
    ("grassmann", (3, 4, 2)),
    ("grassmann", (2, 5, 2)),
    ("grassmann", (5, 3, 1)),
    ("bilinear", (2, 2, 2)),
    ("bilinear", (2, 2, 3)),
    ("bilinear", (3, 2, 2)),
    ("bilinear", (2, 1, 3)),
    ("twisted", (2, 2)),
    ("twisted", (3, 2)),
]


@pytest.mark.parametrize("family,args", ORBIT_INSTANCES)
def test_generators_are_automorphisms_with_expected_orbits(family, args, built):
    g, census, _, _ = built(family, *args)
    assert len(g.automorphisms) >= 2
    thresholds = [threshold_graph(g, census, t) for t in range(1, census.diameter)]
    for graph in [g] + thresholds:
        assert graph.automorphisms == g.automorphisms
        for perm in g.automorphisms:
            assert is_automorphism(graph.adj, perm)
    # one orbit; the twisted graph's are its parts X1 and X2, in label order
    parts = sorted({lab[0] for lab in g.vertices}) if family == "twisted" else [None]
    assert orbits(g) == [
        sum(1 << i for i, lab in enumerate(g.vertices) if part in (None, lab[0]))
        for part in parts
    ]


def test_tampered_generators_are_refused():
    def johnson52(generator):
        # the labels are their own codes, and each generator a label map
        labels = list(itertools.combinations(range(1, 6), 2))
        keys = [[(i, x[:1]) for i, x in enumerate(labels)],
                [(i, x[1:]) for i, x in enumerate(labels)]]
        return graphs._assemble(
            "johnson", {"v": 5, "d": 2}, labels, labels, keys, 10, [list(map(generator, labels))],
        )

    assert johnson52(lambda x: x).automorphisms == (tuple(range(10)),)
    swap = {(1, 2): (1, 3), (1, 3): (1, 2)}
    with pytest.raises(DrgError, match="does not preserve the edges"):
        johnson52(lambda x: swap.get(x, x))
    with pytest.raises(DrgError, match="not a bijection"):
        johnson52(lambda x: (1, 2))
    with pytest.raises(DrgError, match="not a bijection"):
        johnson52(lambda x: x + (6,))
    hand_built = Graph("k3", {}, [0, 1, 2], [6, 5, 3])
    assert hand_built.automorphisms == () and orbits(hand_built) == [1, 2, 4]


def path_graph(generators):
    """The path 0-1-2-3 from the keys {0,1}, {1,2} and {2,3}, each vertex its
    own code."""
    keys = [[(0, "low"), (1, "low"), (1, "mid"), (2, "mid"), (2, "high"), (3, "high")]]
    return graphs._assemble("path", {}, range(4), range(4), keys, 4,
                            [list(map(g, range(4))) for g in generators])


def test_generators_must_map_link_pairs_onto_link_pairs():
    reflection = path_graph([lambda x: 3 - x])
    assert reflection.adj == [0b10, 0b101, 0b1010, 0b100]
    assert reflection.automorphisms == ((3, 2, 1, 0),)
    assert is_automorphism(reflection.adj, (3, 2, 1, 0))
    # 0 <-> 1 keeps the end cliques {0,1} and {2,3} but moves the middle
    # one {1,2} onto 0-2
    assert not is_automorphism(reflection.adj, (1, 0, 2, 3))
    with pytest.raises(DrgError, match="does not preserve the edges at 1"):
        path_graph([lambda x: {0: 1, 1: 0}.get(x, x)])


@pytest.mark.parametrize("family,args", [
    ("grassmann", (2, 5, 2)),
    ("grassmann", (3, 4, 2)),
    ("grassmann", (5, 4, 2)),
    ("grassmann", (2, 6, 3)),
    ("twisted", (2, 2)),
    ("twisted", (3, 2)),
    ("johnson", (7, 3)),
    ("johnson", (10, 7)),
    ("hamming", (3, 2)),
    ("hamming", (4, 3)),
    ("hamming", (1, 3)),
    ("bilinear", (2, 2, 3)),
    ("bilinear", (3, 2, 2)),
    ("bilinear", (2, 3, 3)),
    ("bilinear", (2, 1, 3)),
])
def test_generators_match_label_maps_by_row_reduction(family, args, built):
    # the maps on the codes give the permutations of the label maps: for a
    # subspace, the point permutations give those of row-reducing f(R) for
    # every label R; for a set, a word or a matrix, the bit and field moves
    # give those of the maps on its elements or entries
    g = built(family, *args)[0]
    assert g.automorphisms == tuple(
        tuple(g.index_of(m(lab)) for lab in g.vertices) for m in label_maps(family, *args)
    )


@pytest.mark.parametrize("family,args", [
    ("johnson", (5, 2)),
    ("hamming", (3, 3)),
    ("grassmann", (2, 4, 2)),
    ("bilinear", (2, 2, 3)),
    ("twisted", (2, 2)),
])
def test_every_builder_checks_its_generators(family, args, monkeypatch):
    # the builder's own codes, keys and images, with the images of its
    # first generator changed once formed: with those of vertices 0 and 1
    # swapped the map is no automorphism, as no two vertices of these
    # graphs have the same neighbours, and with a code no vertex has it is
    # no bijection
    real = graphs._assemble

    def swap(moved, codes):
        moved[0], moved[1] = moved[1], moved[0]

    def stray(moved, codes):
        moved[0] = max(codes) + 1

    def tampered(change):
        def assemble(family, params, labels, codes, keys, n, images):
            images = [list(moved) for moved in images]
            change(images[0], codes)
            return real(family, params, labels, codes, keys, n, images)
        return assemble

    expected = _BUILD[family](*args).automorphisms
    monkeypatch.setattr(graphs, "_assemble", tampered(lambda moved, codes: None))
    assert _BUILD[family](*args).automorphisms == expected
    for change, message in ((swap, "does not preserve the edges"), (stray, "not a bijection")):
        monkeypatch.setattr(graphs, "_assemble", tampered(change))
        with pytest.raises(DrgError, match=message):
            _BUILD[family](*args)


def test_singular_map_is_refused():
    points = graphs._PointSets(4, 3)
    subspaces = sorted(all_subspaces(4, 2, 3))
    columns = points.columns(subspaces)
    codes = points.sums(columns)
    # x -> (0, x_2, x_3, x_4) sends (1, 0, 0, 0) to 0, so the image of a
    # plane through it is no vertex's mask
    plane = points.columns([((1, 0, 0, 0), (0, 1, 0, 0))])
    assert points.sums(plane, points.moved(lambda x: (0,) + x[1:]))[0] not in codes
    with pytest.raises(DrgError, match="not a bijection"):
        graphs._assemble(
            "grassmann", {}, subspaces, codes, map(enumerate, points.hyperplanes(columns, 2)), 130,
            [points.sums(columns, points.moved(lambda x: (x[0], x[0]) + x[2:]))],
        )


# ---------------------------------------------------------------------------
# clique-key helpers


@given(st.integers(0, 2 ** 300))
def test_iter_bits_lists_the_set_bits(mask):
    assert list(iter_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def unpack(x, n, q):
    """The vector of GF(q)^n that graphs._pack took to x."""
    w, _, offsets = graphs._fields(n, q)
    return tuple(x >> s & (1 << w) - 1 for s in offsets)


def random_rref(rng, n, k, q, pivots):
    """The canonical RREF basis of a k-dim subspace of GF(q)^n with the
    given pivots and random free entries."""
    rows = [[int(j == p) for j in range(n)] for p in pivots]
    for i, p in enumerate(pivots):
        for j in range(p + 1, n):
            if j not in pivots:
                rows[i][j] = rng.randrange(q)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("q,n,ks", [
    (2, 7, (1, 2, 3, 4)), (3, 6, (1, 2, 3, 4)), (5, 5, (1, 2, 3, 4)),
    (7, 5, (1, 2, 3, 4)),  # the tightest odd field: 2^(w-1) = 8
    (23, 4, (1, 2, 3)),
])
def test_packed_span_matches_oracle_span(q, n, ks):
    # one batch of bases with mixed pivot patterns: each basis gets the
    # points of its row space, each once, the i-th being c . R for the i-th
    # packed c of the identity basis; alone in a batch of one it gets the
    # same, and an empty batch gets none
    rng = random.Random(q)
    assert graphs._span_points([], q) == []
    for k in ks:
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        packed = [x for (x,) in graphs._span_points([identity], q)]
        cs = [unpack(x, k, q) for x in packed]
        patterns = list(itertools.combinations(range(n), k))
        batch = [random_rref(rng, n, k, q, rng.choice(patterns)) for _ in range(8)]
        batch += [random_rref(rng, n, k, q, pivots) for pivots in (patterns[0], patterns[-1])]
        spans = list(zip(*graphs._span_points(batch, q)))  # a tuple of points per basis
        assert len(spans) == len(batch)
        for rows, points in zip(batch, spans):
            found = [unpack(x, n, q) for x in points]
            assert len(found) == len(set(found)) == q_int(k, q)
            assert frozenset(found) == projective_points(span(rows, q, n))
            assert found == [tuple(sum(c * r[j] for c, r in zip(cv, rows)) % q for j in range(n))
                             for cv in cs]
            assert graphs._span_points([rows], q) == [[x] for x in points]


def mask_points(points, mask):
    """The points of a _PointSets mask."""
    return frozenset(points.points[i] for i in iter_bits(mask))


@pytest.mark.parametrize("n,k,q", [(4, 1, 2), (5, 2, 2), (5, 3, 2), (4, 2, 3), (5, 3, 3)])
def test_hyperplanes_match_sub_subspaces(n, k, q):
    sample = list(all_subspaces(n, k, q))[::37]
    points = graphs._PointSets(n, q)
    everything = frozenset(itertools.product(range(q), repeat=n))
    listed = points.points
    assert len(listed) == q_int(n, q) and frozenset(listed) == projective_points(everything)
    columns = points.columns(sample)
    masks = points.sums(columns)
    assert len(set(masks)) == len(sample)
    for rows, whole, found in zip(sample, masks, zip(*points.hyperplanes(columns, k)), strict=True):
        assert mask_points(points, whole) == projective_points(span(rows, q, n))
        assert len(found) == q_int(k, q)
        assert len(set(found)) == len(found)
        assert all(m & whole == m for m in found)
        assert sorted((mask_points(points, m) for m in found), key=sorted) == sorted(
            (projective_points(pts) for pts in sub_subspaces(rows, q, n, k - 1)), key=sorted
        )


@pytest.mark.parametrize("q,rows", [
    (2, ((1, 0, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 0, 1))),  # pivot in the last column
    (2, ((1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1))),  # no pivot there
    (3, ((1, 0, 2, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))),
    (3, ((1, 2, 0, 0, 2), (0, 0, 1, 0, 1), (0, 0, 0, 1, 0))),
])
def test_meet_h_on_both_rref_shapes(q, rows):
    # x meet H, for x not inside H, is the mask of x AND the points of H,
    # and the one hyperplane key of x inside H
    n = len(rows[0])
    points = graphs._PointSets(n, q)
    columns = points.columns([rows])
    in_h = sum(1 << i for i, p in enumerate(points.points) if not p[-1])
    meet = points.sums(columns)[0] & in_h
    assert [m for (m,) in points.hyperplanes(columns, len(rows)) if m & in_h == m] == [meet]
    meet_points = frozenset(p for p in span(rows, q, n) if p[-1] == 0)
    assert meet_points in sub_subspaces(rows, q, n, len(rows) - 1)
    assert mask_points(points, meet) == projective_points(meet_points)


@pytest.mark.parametrize("q,d,cliques,members", [
    (2, 2, 155, 1085),
    (3, 2, 1210, 15730),
    (2, 3, 11811, 177165),
])
def test_twisted_cover_counts(q, d, cliques, members):
    # one clique per d-space of GF(q)^(2d+1), [d+1]_q members each: for a
    # d-space W of H the q^d X1 vertices through W and the [d]_q X2
    # vertices inside it, for any other the X1 vertices through it; X2 has
    # no key of its own, and every edge lies in exactly one clique
    g = build_twisted_grassmann(q, d)
    assert len(g.cliques) == cliques == q_binomial(2 * d + 1, d, q)
    assert sum(map(len, g.cliques)) == members == cliques * q_int(d + 1, q)
    parts = Counter(frozenset(Counter(g.vertices[i][0] for i in c).items()) for c in g.cliques)
    in_h = q_binomial(2 * d, d, q)
    assert parts == {
        frozenset({("X1", q ** d), ("X2", q_int(d, q))}): in_h,
        frozenset({("X1", q_int(d + 1, q))}): cliques - in_h,
    }
    assert is_clique_partition(g.adj, g.cliques)


# ---------------------------------------------------------------------------
# census + distance regularity


def nx_distances(graph):
    G = nx.Graph()
    G.add_nodes_from(range(graph.n))
    G.add_edges_from(
        (i, j) for i in range(graph.n) for j in range(i + 1, graph.n) if graph.is_edge(i, j)
    )
    return dict(nx.all_pairs_shortest_path_length(G))


@pytest.mark.parametrize(
    "builder,args",
    [
        (build_johnson, (5, 2)),
        (build_hamming, (3, 2)),
        (build_bilinear, (2, 2, 2)),
        (build_grassmann, (2, 4, 2)),
    ],
)
def test_census_matches_networkx(builder, args):
    g = builder(*args)
    census = distance_census(g)
    oracle = nx_distances(g)
    assert census.diameter == max(max(row.values()) for row in oracle.values())
    assert census.levels == {
        i: [sum(1 << j for j in range(g.n) if oracle[i][j] == k) for k in range(census.diameter + 1)]
        for i in range(g.n)
    }


def test_census_trivia():
    k3 = build_hamming(1, 3)
    c = distance_census(k3)
    assert c.levels == {i: [1 << i, 0b111 ^ 1 << i] for i in range(3)}
    sq = build_hamming(2, 2)
    c = distance_census(sq)
    assert [mask.bit_count() for mask in c.row(0)] == [1, 2, 1]
    # level masks per vertex, padded with empty levels up to the diameter
    path = Graph("path", {}, [0, 1, 2], [2, 5, 2])
    assert distance_census(path).levels == {
        0: [0b001, 0b010, 0b100],
        1: [0b010, 0b101, 0],
        2: [0b100, 0b010, 0b001],
    }


def test_census_disconnected():
    for adj in (
        [2, 1, 8, 4],  # two components, K2 + K2
        [2, 1, 0],  # K2 and an isolated vertex
        [0, 0],  # two isolated vertices
        [6, 5, 3, 0],  # a triangle and an isolated vertex
    ):
        bad = Graph("bad", {}, list(range(len(adj))), adj)
        with pytest.raises(DisconnectedGraph):
            distance_census(bad)
        with pytest.raises(ValueError):
            census_by_bfs(adj)


CENSUS_INSTANCES = [
    ("johnson", (7, 3)),
    ("johnson", (12, 4)),
    ("hamming", (5, 4)),
    ("grassmann", (2, 5, 2)),
    ("bilinear", (2, 2, 3)),
    ("twisted", (2, 2)),
    ("twisted", (3, 2)),
]
#: every builder instance of the lists above, each once
BUILDER_INSTANCES = ORBIT_INSTANCES + [x for x in CENSUS_INSTANCES if x not in ORBIT_INSTANCES]


@pytest.mark.parametrize("family,args", CENSUS_INSTANCES)
def test_census_matches_bfs_oracle(family, args, built):
    g, census, _, _ = built(family, *args)
    levels, diameter = census_by_bfs(g.adj)
    assert (census.levels, census.diameter) == (dict(enumerate(levels)), diameter)


@pytest.mark.parametrize("family,args", CENSUS_INSTANCES)
def test_builder_cliques_cover_the_edges(family, args, built):
    g = built(family, *args)[0]
    assert g.cliques and is_clique_cover(g.adj, g.cliques)


@pytest.mark.parametrize("family,args", BUILDER_INSTANCES)
def test_builder_cliques_partition_the_edges(family, args, built):
    # every edge of every builder lies in exactly one clique of its cover
    g = built(family, *args)[0]
    assert is_clique_partition(g.adj, g.cliques)


def test_census_needs_the_whole_cover():
    # In H(3,3) a word two steps from x is reached through two of x's three
    # cliques, so no single dropped clique shows; dropping two of them does.
    g = build_hamming(3, 3)
    levels, diameter = census_by_bfs(g.adj)
    oracle = (dict(enumerate(levels)), diameter)
    census = distance_census(g)
    assert (census.levels, census.diameter) == oracle
    through_0 = [c for c in g.cliques if 0 in c]
    cut = [c for c in g.cliques if c not in through_0[1:]]
    assert len(cut) == len(g.cliques) - 2 and not is_clique_cover(g.adj, cut)
    census = distance_census(Graph(g.family, g.params, g.vertices, g.adj, cliques=cut))
    assert (census.levels, census.diameter) != oracle
    # the path 0-1-2-3 without its middle clique {1, 2}: the rounds never
    # cross from 1 to 2, though adj (and so B_1) still has the edge
    path = path_graph([])
    assert [list(c) for c in path.cliques] == [[0, 1], [1, 2], [2, 3]]
    assert distance_census(path).levels == dict(enumerate(census_by_bfs(path.adj)[0]))
    path.cliques = path.cliques[::2]
    with pytest.raises(DisconnectedGraph):
        distance_census(path)


@pytest.mark.parametrize(
    "name,adj,levels",
    [
        ("K1", [0], [[1]]),
        # P4: the ends have eccentricity 3, the middle vertices 2
        ("P4", [2, 5, 10, 4], [
            [0b0001, 0b0010, 0b0100, 0b1000],
            [0b0010, 0b0101, 0b1000, 0],
            [0b0100, 0b1010, 0b0001, 0],
            [0b1000, 0b0100, 0b0010, 0b0001],
        ]),
    ],
)
def test_census_small_graphs(name, adj, levels):
    g = Graph(name, {}, list(range(len(adj))), adj)
    census = distance_census(g)
    assert census.levels == dict(enumerate(levels)) and census.diameter == len(levels[0]) - 1
    assert (levels, census.diameter) == census_by_bfs(adj)
    # within at radius 1, 2, 3 and past the diameter; K1 has no vertex at
    # distance 1 or more, so its one mask is empty at every radius
    for radius in (1, 2, 3, 4):
        assert within(g, radius) == [sum(row[1:radius + 1]) for row in levels]
    # a radius below 1 is refused, not read as every vertex at distance >= 1
    for radius in (0, -1):
        with pytest.raises(ParameterError, match=f"radius >= 1, got {radius}"):
            within(g, radius)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 14), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_census_matches_networkx_on_random_graphs(n, p, seed):
    G = nx.gnp_random_graph(n, p, seed=seed)
    adj = [sum(1 << j for j in G[i]) for i in range(n)]
    graph = Graph("gnp", {}, list(range(n)), adj)
    if not nx.is_connected(G):
        event("disconnected")
        with pytest.raises(DisconnectedGraph):
            distance_census(graph)
        return
    census = distance_census(graph)
    dist = dict(nx.all_pairs_shortest_path_length(G))
    assert census.diameter == nx.diameter(G)
    assert census.levels == {
        i: [sum(1 << j for j in range(n) if dist[i][j] == k) for k in range(census.diameter + 1)]
        for i in range(n)
    }
    # the other two consumers of the ball rounds, over the 2-cliques of a
    # graph with no cover
    for radius in range(1, census.diameter + 1):
        assert within(graph, radius) == [
            sum(1 << j for j in range(n) if 1 <= dist[i][j] <= radius) for i in range(n)
        ]
    rng = random.Random(seed)
    idx = rng.sample(range(n), rng.randint(1, n))
    expected = Counter(dist[i][j] for i in idx for j in idx)
    assert distance_counts(VertexSubset(graph, idx)) == [
        expected[k] for k in range(max(expected) + 1)
    ]


#: a star of each family, of width below the diameter
STARS = {
    "johnson": lambda label: 1 in label,
    "hamming": lambda label: label[0] == 0,
    "twisted": lambda label: label[0] == "X2",
}


@pytest.mark.parametrize(
    "family,args", [("johnson", (7, 3)), ("hamming", (4, 3)), ("twisted", (2, 2))]
)
def test_census_consumers_match_networkx(family, args, built):
    # threshold graphs for every t from the census, and subset histograms
    # from ball rounds, on every pair; the rounds stop at the subset's
    # width, which for the star is below the diameter
    g, census, _, _ = built(family, *args)
    oracle = nx_distances(g)
    d = census.diameter
    for t in range(1, d):
        thr = threshold_graph(g, census, t)
        for i in range(g.n):
            expected = sum(1 << j for j in range(g.n) if 1 <= oracle[i][j] <= d - t)
            assert thr.adj[i] == expected
    rng = random.Random(g.n)
    star = [i for i, label in enumerate(g.vertices) if STARS[family](label)]
    subsets = [rng.sample(range(g.n), size) for size in (1, 2, 7, g.n // 3, g.n)]
    for idx in subsets + [star, [g.n - 1], list(range(g.n))]:
        expected = Counter(oracle[i][j] for i in idx for j in idx)
        width = max(expected)
        assert distance_counts(VertexSubset(g, idx)) == [expected[k] for k in range(width + 1)]
    assert max(oracle[i][j] for i in star for j in star) < d


def test_subset_histogram_on_a_disconnected_graph():
    # two edges, 0-1 and 2-3: a pair across them has no distance
    g = Graph("two edges", {}, list(range(4)), [2, 1, 8, 4])
    assert distance_counts(VertexSubset(g, [0, 1])) == [2, 2]
    for idx in ([0, 2], [1, 2, 3], range(4)):
        with pytest.raises(DisconnectedGraph):
            distance_counts(VertexSubset(g, idx))


@pytest.mark.parametrize("family,args", BUILDER_INSTANCES)
def test_representative_census_matches_bfs_oracle(family, args, built):
    # one source per orbit, found by the oracle's own closure; the twisted
    # graph has two, X1 and X2
    g, full, _, _ = built(family, *args)
    reps = orbit_representatives(g.n, g.automorphisms)
    assert representatives(g) == reps
    assert len(reps) == (2 if family == "twisted" else 1)
    census = distance_census(g, reps)
    levels, diameter = census_by_bfs(g.adj, reps)
    assert census.levels == dict(zip(reps, levels))
    assert census.diameter == diameter == full.diameter


@pytest.mark.parametrize("family,args", BUILDER_INSTANCES)
def test_threshold_graph_matches_levels_oracle(family, args, built):
    g = built(family, *args)[0]
    levels, d = census_by_bfs(g.adj)
    census = distance_census(g, representatives(g))
    for t in range(1, d):
        thr = threshold_graph(g, census, t)
        assert thr.adj == threshold_by_levels(levels, d, t)
        assert orbits(thr) is orbits(g)  # found once, for G, and taken over


@pytest.mark.parametrize("name,adj,sources", [
    ("K1", [0], [0]),
    ("P4", [2, 5, 10, 4], [0, 1, 2, 3]),
    ("P4", [2, 5, 10, 4], [1, 2]),  # the middle: eccentricity 2
    ("P4", [2, 5, 10, 4], [2, 0]),  # the row of 2 is padded to the end's 3
])
def test_census_from_sources_small_graphs(name, adj, sources):
    g = Graph(name, {}, list(range(len(adj))), adj)
    assert representatives(g) == list(range(len(adj)))  # the trivial group
    census = distance_census(g, sources)
    levels, diameter = census_by_bfs(adj, sources)
    assert census.levels == dict(zip(sources, levels)) and census.diameter == diameter


def test_census_from_sources_disconnected():
    for adj in ([2, 1, 8, 4], [2, 1, 0], [0, 0], [6, 5, 3, 0]):
        bad = Graph("bad", {}, list(range(len(adj))), adj)
        for sources in [representatives(bad)] + [[s] for s in range(len(adj))]:
            with pytest.raises(DisconnectedGraph):
                distance_census(bad, sources)
            with pytest.raises(ValueError):
                census_by_bfs(adj, sources)


def test_census_consumers_refuse_a_missing_row(built):
    g, _, _, sys_ = built("twisted", 2, 2)
    x1, x2 = representatives(g)
    census = distance_census(g, [x1])  # no X2 source
    with pytest.raises(ParameterError, match=f"no row for vertex {x2}"):
        check_distance_regular(g, census)
    with pytest.raises(ParameterError, match=f"no row for vertex {x2}"):
        threshold_graph(g, census, 1)
    with pytest.raises(ParameterError, match="no row for vertex 1"):
        materialize_idempotents(g, distance_census(g, [x1, x2]), sys_)
    for sources in ([], [g.n], [-1]):
        with pytest.raises(ParameterError):
            distance_census(g, sources)


def test_census_refuses_a_negative_vertex(built):
    # a negative vertex has no row in a census from every vertex nor in one
    # from some sources
    g, census, _, _ = built("johnson", 5, 2)
    some = distance_census(g, representatives(g))
    for c in (census, some):
        for x in (-1, -g.n, g.n):
            with pytest.raises(ParameterError, match=f"no row for vertex {x}"):
                c.row(x)
    assert census.row(g.n - 1) is census.levels[g.n - 1]


def test_orbits_are_found_once_per_generating_tuple():
    g = build_twisted_grassmann(2, 2)
    first = orbits(g)
    assert orbits(g) is first
    assert orbits(threshold_graph(g, distance_census(g, representatives(g)), 1)) is first
    g.automorphisms = g.automorphisms[1:]  # other generators: found again
    assert orbits(g) is not first
    assert representatives(g) == orbit_representatives(g.n, g.automorphisms)


def test_check_distance_regular_examples(built):
    g, c, arr, _ = built("johnson", 5, 2)
    assert arr.d == 2 and arr.b0 == 6
    assert arr.b == (6, 2) and arr.c == (1, 4)
    k4 = build_hamming(1, 4)
    arr4 = check_distance_regular(k4, distance_census(k4))
    assert arr4.d == 1 and arr4.b == (3,) and arr4.c == (1,)


def test_not_distance_regular_witness():
    # path on 3 vertices: end vertices have degree 1, middle 2
    path = Graph("path", {}, [0, 1, 2], [2, 5, 2])
    census = distance_census(path)
    with pytest.raises(NotDistanceRegular) as err:
        check_distance_regular(path, census)
    assert err.value.witness is not None
    # triangular prism: 3-regular, but the pairs (0,1) and (0,3) at distance 1
    # see (c, a, b) = (1, 1, 1) and (1, 0, 2)
    adj = [0] * 6
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    prism = Graph("prism", {}, list(range(6)), adj)
    with pytest.raises(NotDistanceRegular) as err:
        check_distance_regular(prism, distance_census(prism))
    assert err.value.witness == (0, 3)
    assert "sees (1, 0, 2), expected (1, 1, 1)" in str(err.value)
    # with its rotation and triangle swap the prism has one orbit, so only
    # vertex 0 is a source, and the witness is the same
    turn_and_swap = ((1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2))
    prism = Graph("prism", {}, list(range(6)), adj, turn_and_swap)
    assert orbits(prism) == [0b111111]
    with pytest.raises(NotDistanceRegular) as err:
        check_distance_regular(prism, distance_census(prism))
    assert err.value.witness == (0, 3)


def test_intersection_array_validation():
    with pytest.raises(ParameterError, match="integral"):
        IntersectionArray((3, 2), (1, 4))  # k_2 = 6/4 not integral
    with pytest.raises(ParameterError, match="c_1 = 2"):
        IntersectionArray((2,), (2,))  # no distance-regular graph has c_1 != 1
    arr = IntersectionArray((6, 2), (1, 4))
    assert arr.valencies() == (1, 6, 3)
    assert arr.a() == (0, 3, 2)
    assert arr.vertex_count() == 10


@pytest.mark.parametrize(
    "family,args",
    [
        ("johnson", (7, 3)),
        ("hamming", (3, 3)),
        ("grassmann", (2, 4, 2)),
        ("grassmann", (2, 5, 2)),
        ("bilinear", (2, 2, 2)),
        ("twisted", (2, 2)),
    ],
)
def test_every_family_is_distance_regular(family, args, built):
    g, census, arr, _ = built(family, *args)
    assert census.diameter == arr.d
    counts = {
        "johnson": lambda v, d: __import__("math").comb(v, d),
        "hamming": lambda d, q: q ** d,
        "grassmann": lambda q, v, d: q_binomial(v, d, q),
        "bilinear": lambda q, d, e: q ** (d * e),
        "twisted": lambda q, d: q_binomial(2 * d + 1, d, q),
    }
    assert g.n == counts[family](*args)


def test_twisted_matches_grassmann_array(built):
    _, _, arr_tw, _ = built("twisted", 2, 2)
    _, _, arr_gr, _ = built("grassmann", 2, 5, 2)
    assert arr_tw == arr_gr


# ---------------------------------------------------------------------------
# closed-form arrays cross-validated against BFS extraction


def test_grassmann_closed_form_array(built):
    for args in [(2, 4, 2), (2, 5, 2), (3, 5, 2)]:
        _, _, arr, _ = built("grassmann", *args)
        assert grassmann_intersection_array(*args) == arr
    arr73 = grassmann_intersection_array(2, 7, 3)
    assert arr73.b == (210, 168, 96) and arr73.c == (1, 9, 49)
    assert arr73.vertex_count() == 11811 == q_binomial(7, 3, 2)


def test_hamming_closed_form_array(built):
    for args in [(3, 3), (3, 2)]:
        _, _, arr, _ = built("hamming", *args)
        assert hamming_intersection_array(*args) == arr


def test_twisted_closed_form_array(built):
    _, _, arr, _ = built("twisted", 2, 2)
    assert twisted_intersection_array(2, 2) == arr


def _q_sum(m, q):
    """1 + q + ... + q^(m-1), term by term."""
    return sum(q ** j for j in range(m))


#: (d, b, alpha, beta) of each builder's family at the builder's arguments,
#: d <= v/2 in every Johnson and Grassmann instance
CLASSICAL_PARAMETERS = {
    "johnson": lambda v, d: (d, 1, 1, v - d),
    "hamming": lambda d, q: (d, 1, 0, q - 1),
    "grassmann": lambda q, v, d: (d, q, q, _q_sum(v - d + 1, q) - 1),
    "bilinear": lambda q, d, e: (d, q, q - 1, q ** e - 1),
    "twisted": lambda q, d: (d, q, q, _q_sum(d + 2, q) - 1),  # J_q(2d+1, d)
}


@pytest.mark.parametrize("family,args", BUILDER_INSTANCES)
def test_bfs_arrays_have_classical_parameters(family, args, built):
    arr = built(family, *args)[2]
    closed = classical_array(*CLASSICAL_PARAMETERS[family](*args))
    assert (closed.b, closed.c) == (arr.b, arr.c)
    assert arr.classical is None and closed.classical == CLASSICAL_PARAMETERS[family](*args)[1:]


@pytest.mark.parametrize("family,args", BUILDER_INSTANCES + [("johnson", (10, 7)),
                                                            ("grassmann", (2, 6, 4))])
def test_family_array_agrees_with_the_built_graph(family, args, built):
    # the route of eigensystem and plain certify: the builder's normalized
    # params, its BFS array, the same eigensystem bytes and certificates
    g, _, arr, sys_ = built(family, *args)
    params, closed = family_array(family, dict(zip(FAMILY_PARAMS[family], args)))
    assert params == g.params and (closed.b, closed.c) == (arr.b, arr.c)
    closed_sys = eigensystem_from_array(closed, closed.vertex_count())
    assert (eigensystem_to_json(closed_sys, family, params)
            == eigensystem_to_json(sys_, family, g.params))
    for t in range(1, arr.d):
        assert solve_certificate(closed_sys, t) == solve_certificate(sys_, t)


CLOSED_FORM_ARRAYS = {"hamming": hamming_intersection_array,
                      "grassmann": grassmann_intersection_array,
                      "twisted": twisted_intersection_array}


@pytest.mark.parametrize("family,args",
                         [x for x in BUILDER_INSTANCES if x[0] in CLOSED_FORM_ARRAYS]
                         + [("grassmann", (2, 5, 3)), ("grassmann", (2, 6, 4))])
def test_closed_form_array_functions_equal_family_array(family, args):
    # both state the classical parameters; J_2(5,3) and J_2(6,4), at
    # d > v/2, were once refused by the first and normalized by the second
    _, arr = family_array(family, dict(zip(FAMILY_PARAMS[family], args)))
    closed = CLOSED_FORM_ARRAYS[family](*args)
    assert (closed, closed.classical) == (arr, arr.classical)


def test_classical_parameters_stay_out_of_equality_hash_and_repr():
    arr = hamming_intersection_array(3, 4)
    plain = IntersectionArray(arr.b, arr.c)
    assert arr.classical == (1, 0, 3) and plain.classical is None
    assert arr == plain and hash(arr) == hash(plain) and repr(arr) == repr(plain)
    assert twisted_intersection_array(2, 3).classical == (2, 2, 30)


def test_stated_classical_parameters_must_give_the_array(monkeypatch):
    # refused on construction, so no eigenvalue is ever taken from them
    from drgcert import scheme

    taken = []
    monkeypatch.setattr(scheme, "_scaled_minors", lambda *args: taken.append(args))
    h33 = hamming_intersection_array(3, 3)
    with pytest.raises(ParameterError, match="classical parameters"):
        IntersectionArray(h33.b, h33.c, classical=(1, 0, 3))  # those of H(3,4)
    with pytest.raises(ParameterError, match="classical parameters"):
        dataclasses.replace(h33, b=(9, 4, 1), c=(1, 4, 9))  # J(6,3), which is valid
    with pytest.raises(ParameterError, match="b >= 1"):
        classical_array(2, 0, 0, 2)
    with pytest.raises(ParameterError, match="b >= 1"):
        IntersectionArray((21, 20, 16), (1, 2, 12), classical=(-2, -3, 7))  # Her(3,4)
    with pytest.raises(ParameterError, match="positive"):
        classical_array(3, 1, 1, 2)  # "J(5,3)" at d > v/2: b_2 = 0
    assert taken == []


def test_closed_form_arrays_take_a_huge_prime_q():
    q = 2**61 - 1
    start = time.perf_counter()
    arr = grassmann_intersection_array(q, 4, 2)
    assert time.perf_counter() - start < 1
    assert arr.vertex_count() == q_binomial(4, 2, q)
    assert twisted_intersection_array(q, 2) == grassmann_intersection_array(q, 5, 2)
    with pytest.raises(UnsupportedField):
        grassmann_intersection_array(2**61 + 1, 4, 2)  # divisible by 3
    with pytest.raises(TierLimitExceeded):
        grassmann_intersection_array(2**89 - 1, 4, 2)  # prime, above the proven bound


# ---------------------------------------------------------------------------
# X2 distances on the parameter tier


def test_x2_pool_sizes():
    assert len(twisted_x2_vertices(2, 2)) == 15
    assert len(twisted_x2_vertices(2, 3)) == 651 == q_binomial(6, 2, 2)


def test_x2_distance_counts_match_full_graph(built):
    g, census, _, _ = built("twisted", 2, 2)
    pool = twisted_x2_vertices(2, 2)
    counts = twisted_x2_distance_counts(pool, 2, 2)
    idx = [g.index_of(("X2", rows)) for rows in pool]
    dist = distances_by_bfs(g.adj)
    expected = [0] * (census.diameter + 1)
    for i in idx:
        for j in idx:
            expected[dist[i][j]] += 1
    assert counts == expected


def test_x2_distance_two_pairs():
    # at d=3 two disjoint planes of H are at distance exactly 2
    pool = twisted_x2_vertices(2, 3)
    x = pool[0]
    y = next(p for p in pool if len(span(p, 2, 7) & span(x, 2, 7)) == 1)
    counts = twisted_x2_distance_counts([x, y], 2, 3)
    assert counts == [2, 0, 2, 0]


@pytest.mark.parametrize("q", [2, 3])
def test_x2_distance_counts_match_search_oracle(q):
    members = random.Random(40 + q).sample(twisted_x2_vertices(q, 3), 40)
    counts = twisted_x2_distance_counts(members, q, 3)
    assert counts == x2_distance_counts_by_search(members, q, 3)
    assert counts[2] > 0


def test_x2_distance_counts_at_q23_match_search_oracle():
    # d = 2, so the members are points of H = GF(23)^4 and every pair of
    # distinct ones is adjacent
    members = random.Random(23).sample(twisted_x2_vertices(23, 2), 30)
    counts = twisted_x2_distance_counts(members, 23, 2)
    assert counts == x2_distance_counts_by_search(members, 23, 2) == [30, 870, 0]


def test_x2_meet_dims_match_point_sets():
    # planes of H = GF(q)^6 spanned by two of eight random vectors, so that
    # many pairs share a line; at q = 5, GF(q)^7 has 78,125 points.  The
    # distance of a pair is 2 - log_q |x meet y|
    for q in (2, 5):
        rng = random.Random(q)
        vectors = [[rng.randrange(q) for _ in range(6)] for _ in range(8)]
        planes = {span(pair, q, 6) for pair in itertools.combinations(vectors, 2)}
        members = sorted(tuple(row + (0,) for row in rref_label(pts))
                         for pts in planes if len(pts) == q * q)
        points = [span(rows, q, 7) for rows in members]
        expected = [0] * 4
        for x in points:
            for y in points:
                expected[{q * q: 0, q: 1, 1: 2}[len(x & y)]] += 1
        assert expected[1] and expected[2]
        assert twisted_x2_distance_counts(members, q, 3) == expected


def _x2_member(vectors, q):
    """The X2 label of the span of vectors of H = GF(q)^(2d), or None when
    they are dependent."""
    rows = rref_rows(vectors, q)
    return tuple(row + (0,) for row in rows) if len(rows) == len(vectors) else None


def _vector(*entries):
    """The vector of GF(q)^8 with the given entries first and zeros after;
    a member of H = GF(q)^(2d) takes its first 2d entries."""
    return entries + (0,) * (8 - len(entries))


# at each d a set with pairs at gap 1 and at gap 2 (none at d = 2), then a
# member at gap 3 from the first; an entry -1 is q - 1
X2_GAPS = {
    2: ([[_vector(1)], [_vector(0, 1)], [_vector(1, -1)]], [3, 6, 0], None),
    3: ([[_vector(1), _vector(0, 1)],
         [_vector(1), _vector(0, 1, -1)],
         [_vector(0, 0, 1), _vector(0, 0, 0, 1)]], [3, 2, 4, 0], None),
    4: ([[_vector(1), _vector(0, 1), _vector(0, 0, 1)],
         [_vector(1), _vector(0, 1), _vector(0, 0, -1, 1)],
         [_vector(1), _vector(0, 0, 0, 0, 1), _vector(0, 1, 0, 0, 0, 1)]], [3, 2, 4, 0, 0],
        [_vector(0, 0, 0, 1), _vector(0, 0, 0, 0, 1), _vector(0, 0, 0, 0, 0, 1)]),
}


@pytest.mark.parametrize("q,d", [(q, d) for d in (2, 3, 4) for q in (2, 3, 5)])
def test_x2_histogram_counts_each_gap(q, d):
    # at d = 4 the pair at gap 1 shares q + 1 lines, the first of them with
    # the third member too, so the [d-2]_q term, the codim-2 pass and its
    # one count of each meet a member repeats all change the result
    vectors, expected, far = X2_GAPS[d]
    members = [_x2_member([v[:2 * d] for v in vs], q) for vs in vectors]
    assert twisted_x2_distance_counts(members, q, d) == expected
    assert x2_counts_by_pairs(members, q, d) == expected
    if q ** (d - 1) <= 9:
        assert x2_distance_counts_by_search(members, q, d) == expected
    if far:
        members.append(_x2_member([v[:2 * d] for v in far], q))
        with pytest.raises(ValueError, match="distance >= 3"):
            x2_counts_by_pairs(members, q, d)
        with pytest.raises(DistanceUndetermined):
            twisted_x2_distance_counts(members, q, d)


@pytest.mark.parametrize("q,d", [(q, d) for d in (2, 3, 4) for q in (2, 3, 5)])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_x2_histogram_matches_pair_count(q, d, data):
    # (d-1)-spaces spanned by a few of at most d+2 vectors of H, so that
    # many pairs share a hyperplane or a codim-2 space, and at d = 4 some
    # meet in 0
    vector = st.tuples(*[st.integers(0, q - 1)] * (2 * d))
    pool = data.draw(st.lists(vector, min_size=d, max_size=d + 2))
    picks = data.draw(st.lists(st.sampled_from(list(itertools.combinations(pool, d - 1))),
                               min_size=2, max_size=10))
    members = sorted({_x2_member(list(p), q) for p in picks} - {None})
    try:
        expected = x2_counts_by_pairs(members, q, d)
    except ValueError:  # the members are distinct, so a pair is at gap >= 3
        event("gap >= 3")
        with pytest.raises(DistanceUndetermined):
            twisted_x2_distance_counts(members, q, d)
        return
    event(f"gaps {[gap for gap in (1, 2) if expected[gap]]}")
    assert twisted_x2_distance_counts(members, q, d) == expected
    if q ** (d - 1) <= 9 and len(members) <= 6:
        assert x2_distance_counts_by_search(members, q, d) == expected


def test_whole_x2_of_twisted_3_3_is_a_grassmann_histogram(deadline):
    # X2 induces J_3(6, 2), of diameter 2, so each of its n members has k1
    # members at distance 1 and n - 1 - k1 at distance 2: 60.6M pairs
    deadline(10)
    q = 3

    def bracket(k):
        return (q ** k - 1) // (q - 1)

    n = bracket(6) * bracket(5) // (bracket(2) * bracket(1))
    k1 = q * bracket(2) * bracket(4)
    assert (n, k1) == (11_011, 480)
    counts = twisted_x2_distance_counts(twisted_x2_vertices(q, 3), q, 3)
    assert counts == [n, n * k1, n * (n - 1 - k1), 0]


@pytest.mark.parametrize("members", [
    [[[1, 0, 0, 0, 0]], [[0, 1, 0, 0, 0]]],  # as json.loads returns X2 rows
    [([1, 0, 0, 0, 0],), ([0, 1, 0, 0, 0],)],
])
def test_x2_members_given_as_lists(members):
    # lists are unhashable; the members are keyed as tuples of tuples
    points = graphs.X2PointIndex(2, 2)
    assert twisted_x2_distance_counts(members, 2, 2, points) == [2, 2, 0]
    assert list(points.masks) == [((1, 0, 0, 0, 0),), ((0, 1, 0, 0, 0),)]
    assert not points.held  # a list can change, so it is checked at each call
    with pytest.raises(ParameterError, match="same subspace"):
        twisted_x2_distance_counts(members + [((1, 0, 0, 0, 0),)], 2, 2, points)


@pytest.mark.parametrize("members", [
    [((1, 0, 0, 0, 0),), ((2, 0, 0, 0, 0),)],  # one line twice, the second unscaled
    [((0, 0, 0, 0, 0),)],
    [((0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0))],  # pivots out of order
    [((1, 2, 0, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0, 0))],
])
def test_x2_members_must_be_echelon_with_leading_ones(members):
    # the packed points are only points for such a basis, so any other is
    # refused rather than counted wrongly
    with pytest.raises(ParameterError, match="echelon"):
        twisted_x2_distance_counts(members, 3, len(members[0]) + 1)


def test_x2_distance_beyond_two_is_undetermined():
    # two 3-dim subspaces of GF(2)^8 (inside GF(2)^9) with a trivial meet
    def unit(i):
        return tuple(int(j == i) for j in range(9))

    x = (unit(0), unit(1), unit(2))
    y = (unit(3), unit(4), unit(5))
    assert x2_distance_by_search(x, y, 2) is None
    with pytest.raises(DistanceUndetermined):
        twisted_x2_distance_counts([x, y], 2, 4)


@pytest.mark.parametrize("y", [
    ((1, 0, 0, 0, 0, 0, 0), (0, 1, 2, 0, 0, 0, 0)),  # Z/4 spans sharing no [k]_4 points
    ((1, 0, 2, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)),  # Z/4 spans, a meaningless histogram
])
def test_x2_distance_counts_refuse_a_q_that_is_not_prime(y):
    x = ((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0))
    with pytest.raises(UnsupportedField, match="q=4 is not prime"):
        twisted_x2_distance_counts([x, y], 4, 3)


PLANE = ((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0))
SKEW = ((0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("members,match", [
    ([PLANE, PLANE], "same subspace"),
    ([PLANE, ((1, 0, 0, 0, 0, 0, 0),)], "not 2 rows"),  # a point next to a plane at d = 3
    ([((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 1))], "last entry 0"),  # outside H
    ([((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))], "length 7"),
    ([((0, 1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0))], "last entry 0"),  # shape before echelon
    ([SKEW, SKEW], "echelon"),  # echelon before repeats
])
def test_x2_distance_counts_refuse_what_has_no_histogram(members, match):
    # the first four once got a histogram ([PLANE, PLANE] gave [4, 0, 0, 0]);
    # the last two pin the order of the checks
    with pytest.raises(ParameterError, match=match):
        twisted_x2_distance_counts(members, 2, 3)


@pytest.mark.parametrize("members,q", [
    ([((1, 0, 0, 0, 0),), ((1, 8, 0, 0, 0),)], 2),
    ([((1, 0, -1, 0, 0),), ((1, 0, 2, 0, 0),)], 3),
    ([((1, 0, 7, 0, 0),), ((1, 0, 1, 0, 0),)], 3),
    ([((1.0, 0, 0, 0, 0),), ((0, 1, 0, 0, 0),)], 2),
    ([(("1", 0, 0, 0, 0),)], 2),
    ([[[0, 1, 0, 0, 0]], [[1, 0, 0, 0, 0.0]]], 2),  # as JSON with a float reads back
])
def test_x2_distance_counts_refuse_entries_outside_the_field(members, q):
    # the first three pairs are each one GF(q) point listed twice; an entry
    # outside 0..q-1 overflows or mis-sums its packed field, and the
    # histogram once came back [2, 2, 0]; an entry that is no int once
    # raised TypeError from the packing or the range check
    with pytest.raises(ParameterError, match=rf"over 0\.\.{q - 1}"):
        twisted_x2_distance_counts(members, q, 2)


def test_x2_members_equal_to_held_ones_are_checked_too():
    # 1.0 == 1, so the member below equals one the index holds; it is
    # refused all the same
    points = graphs.X2PointIndex(2, 2)
    assert twisted_x2_distance_counts([((1, 0, 0, 0, 0),)], 2, 2, points) == [1, 0, 0]
    with pytest.raises(ParameterError, match=r"over 0\.\.1"):
        twisted_x2_distance_counts([((1.0, 0, 0, 0, 0),)], 2, 2, points)


def test_x2_point_index_serves_one_q_and_d():
    members = twisted_x2_vertices(2, 3)[:20]
    points = graphs.X2PointIndex(2, 3)
    counts = twisted_x2_distance_counts(members, 2, 3, points)
    assert counts == twisted_x2_distance_counts(members, 2, 3) == \
        twisted_x2_distance_counts(iter(members), 2, 3)  # the members are read more than once
    assert twisted_x2_distance_counts(members[5:], 2, 3, points) == \
        twisted_x2_distance_counts(members[5:], 2, 3)
    for q, d in [(3, 3), (2, 4)]:
        with pytest.raises(ParameterError, match=r"twisted\(2,3\)"):
            twisted_x2_distance_counts(members, q, d, points)
    with pytest.raises(UnsupportedField):
        twisted_x2_distance_counts(members, 4, 3, points)  # q first
    with pytest.raises(ParameterError, match="d >= 2"):
        twisted_x2_distance_counts([((1, 0, 0),)], 2, 1)


def test_x2_point_index_keeps_only_checked_members():
    points = graphs.X2PointIndex(2, 3)
    with pytest.raises(ParameterError, match="echelon"):
        twisted_x2_distance_counts([PLANE, SKEW], 2, 3, points)
    with pytest.raises(ParameterError, match="same subspace"):
        twisted_x2_distance_counts([PLANE, PLANE], 2, 3, points)
    assert list(points.masks) == [PLANE]
    assert twisted_x2_distance_counts([PLANE], 2, 3, points) == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# cache files


def test_cache_roundtrip(built):
    g, census, arr, _ = built("twisted", 2, 2)
    text = graph_cache_text(g)
    assert text.startswith("DRGCACHE 1\n")
    again = build_twisted_grassmann(2, 2)
    assert graph_cache_text(again) == text  # bit-exact reproducibility
    meta, labels, edges = parse_graph_cache(text)
    assert meta == {"edges": g.edge_count(), "family": g.family,
                    "params": g.params, "vertices": g.n}
    assert labels == g.vertices
    assert edges == [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.is_edge(i, j)]
