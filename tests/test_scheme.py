import dataclasses
import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, event, example, given, settings, strategies as st

from _oracles import (
    adjacency_matrix,
    census_by_bfs,
    certificate_by_fractions,
    full_matrix_failure,
    inner_distribution_by_fractions,
    integer_form,
    krein_by_triple_sum,
    lagrange_idempotents,
    mat_eye,
    mat_mul,
    mat_rank,
    mat_scale,
    orderings_by_search,
)
from drgcert import lp_cert, scheme
from drgcert.errors import (
    DrgError,
    FundamentalInequalityViolated,
    IrrationalEigenvalue,
    NotQPolynomial,
    ParameterError,
    TierLimitExceeded,
)
from drgcert.exact import ExactMatrix, q_binomial
from drgcert.graphs import (
    DistanceCensus,
    Graph,
    IntersectionArray,
    build_hamming,
    distance_census,
    grassmann_intersection_array,
    hamming_intersection_array,
    twisted_intersection_array,
)
from drgcert.subsets import inner_distribution_from_counts
from drgcert.scheme import (
    KreinTensor,
    eigensystem_cache_key,
    eigensystem_from_array,
    eigensystem_to_json,
    krein_cross_check,
    krein_parameters,
    materialize_idempotents,
    verify_q_polynomial,
)

SMALL = [
    ("hamming", (1, 3)),
    ("hamming", (2, 2)),
    ("johnson", (5, 2)),
    ("bilinear", (2, 2, 2)),
    ("hamming", (3, 3)),
    ("johnson", (7, 3)),
    ("grassmann", (2, 4, 2)),
]

LARGER = SMALL + [
    ("johnson", (9, 4)),
    ("twisted", (2, 2)),
    ("grassmann", (2, 5, 2)),
]


def test_complete_graph_eigensystem():
    for n in (3, 4, 7):
        g = build_hamming(1, n)
        from drgcert.graphs import check_distance_regular

        arr = check_distance_regular(g, distance_census(g))
        sys_ = eigensystem_from_array(arr, n)
        assert sys_.eigenvalues == (n - 1, -1)
        assert sys_.Q == ExactMatrix([[1, n - 1], [1, -1]])
        assert sys_.m == (1, n - 1)


def test_johnson73_eigenvalues_against_numpy(built):
    g, census, arr, sys_ = built("johnson", 7, 3)
    A = np.array(adjacency_matrix(g), dtype=float)
    vals = np.linalg.eigvalsh(A)
    rounded = sorted({int(round(v)) for v in vals}, reverse=True)
    assert max(abs(v - round(v)) for v in vals) < 1e-8
    assert tuple(rounded) == sys_.eigenvalues == (12, 5, 0, -3)
    assert sys_.m == (1, 6, 14, 14)


@pytest.mark.parametrize("family,args", LARGER)
def test_eigensystem_identities(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    d = sys_.d
    n = sys_.n
    assert mat_mul(sys_.P.rows, sys_.Q.rows) == mat_scale(n, mat_eye(d + 1))
    assert mat_mul(sys_.Q.rows, sys_.P.rows) == mat_scale(n, mat_eye(d + 1))
    assert sys_.P.rows[0] == tuple(Fraction(x) for x in sys_.k)
    assert tuple(row[0] for row in sys_.P.rows) == (Fraction(1),) * (d + 1)
    assert tuple(row[0] for row in sys_.Q.rows) == (Fraction(1),) * (d + 1)
    assert tuple(int(x) for x in sys_.Q.rows[0]) == sys_.m
    assert all(mj > 0 for mj in sys_.m)
    assert sum(sys_.m) == n
    assert sum(sys_.k) == n


@pytest.mark.parametrize("family,args", LARGER)
def test_krein_basics(family, args, built):
    _, _, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    oracle = krein_by_triple_sum(sys_.P.rows, sys_.Q.rows, sys_.n)
    assert [[list(row) for row in plane] for plane in kt.values] == oracle
    d = sys_.d
    for j in range(d + 1):
        for kk in range(d + 1):
            assert kt.q(kk, 0, j) == (1 if j == kk else 0)
    assert tuple(range(d + 1)) in verify_q_polynomial(kt.support())


def test_negative_krein_parameter_is_reported():
    # swapping two columns of Q only relabels the idempotents, which permutes
    # the tensor; swapping two rows pairs Q with the wrong distance classes.
    # The error must name the first negative entry in (k, i, j) order.
    sys_ = eigensystem_from_array(IntersectionArray((12, 6, 2), (1, 4, 9)), 35)  # J(7,3)
    swapped = [sys_.Q.rows[r] for r in (0, 2, 1, 3)]
    tampered = dataclasses.replace(sys_, Q=ExactMatrix(swapped))
    oracle = krein_by_triple_sum(sys_.P.rows, swapped, sys_.n)
    r = range(sys_.d + 1)
    k, i, j = next((k, i, j) for k in r for i in r for j in r if oracle[k][i][j] < 0)
    assert (k, i, j, oracle[k][i][j]) == (0, 0, 3, -1)
    with pytest.raises(DrgError) as exc:
        krein_parameters(tampered)
    assert str(exc.value) == "Krein parameter q^0_{0,3} = -1 < 0; invalid scheme data"


def _odd_graph(k):
    """O_k: b_i = k - ceil(i/2), c_i = ceil(i/2), diameter k - 1."""
    return IntersectionArray(tuple(k - (i + 1) // 2 for i in range(k - 1)),
                             tuple((i + 1) // 2 for i in range(1, k)))


# H(d,q) for 2 <= d, q <= 10, the parameter tier's 14 arrays, the odd graphs
# O_3..O_13 (Q-polynomial only reordered, from O_4 on) and H(12,2), which,
# like H(8,2), has two orderings
GRID = (
    [("hamming", {"d": d, "q": q}, hamming_intersection_array(d, q))
     for d in range(2, 11) for q in range(2, 11)]
    + [("grassmann", {"q": q, "v": v, "d": d}, grassmann_intersection_array(q, v, d))
       for q, v, d in [(2, 16, 8), (3, 12, 6), (5, 8, 4), (3, 10, 5)]]
    + [("twisted", {"q": q, "d": d}, twisted_intersection_array(q, d))
       for q, d in [(2, 6), (3, 3), (2, 3), (5, 2)]]
    + [("odd", {"k": k}, _odd_graph(k)) for k in range(3, 14)]
    + [("hamming", {"d": 12, "q": 2}, hamming_intersection_array(12, 2))]
)


def test_grid_reports_are_byte_identical():
    # sha256 of every grid eigensystem's cache text, of the repr of its
    # certificate at every t, and of the MDS-route certificate of H(d,q) at
    # every t for 2 <= d, q <= 10; a change in any digit of P, Q, m, an
    # ordering or a certificate changes a digest
    eig, certs, mds = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for family, params, arr in GRID:
        sys_ = eigensystem_from_array(arr, arr.vertex_count())
        eig.update(eigensystem_to_json(sys_, family, params).encode() + b"\n")
        for t in range(1, sys_.d):
            certs.update(repr(lp_cert.solve_certificate(sys_, t)).encode() + b"\n")
    for d in range(2, 11):
        for q in range(2, 11):
            for t in range(1, d):
                mds.update(repr(lp_cert.hamming_certificate(d, q, t)).encode() + b"\n")
    assert [h.hexdigest() for h in (eig, certs, mds)] == [
        "864435143e9b13a2af0b5bf2c4bcafa144647e1deb70c1e01343fa8e08f3c4bb",
        "a60f04308a08a07179767f22a4656d53228dc71a621f3752b4a25e1278f81fdb",
        "832025713a5f430edd6a6a6a0362262a10eeadd24f216fb45cdc0ea590a8d77f",
    ]


def test_krein_values_match_the_triple_sum_oracle_on_the_grid():
    # the Q-only symmetric sums give every q^k_ij that the oracle's
    # n^{-1} sum_l Q_li Q_lj P_kl gives, in Fractions entry by entry
    for _, _, arr in GRID:
        sys_ = eigensystem_from_array(arr, arr.vertex_count())
        kt = krein_parameters(sys_)
        oracle = krein_by_triple_sum(sys_.P.rows, sys_.Q.rows, sys_.n)
        assert [[list(row) for row in plane] for plane in kt.values] == oracle
        assert kt.support() == scheme._support(
            scheme._krein_sums(sys_.n, sys_.k, sys_.m, sys_.D, sys_.DQ), sys_.d)


def test_krein_check_forms_no_fraction_per_entry(monkeypatch):
    # the Krein check and the ordering walks run on integer sums: building
    # an eigensystem with them forms exactly the Fractions it forms without
    # them (the multiplicities, P and Q), on the natural and the reordering
    # path alike
    arrays = [hamming_intersection_array(10, 10), grassmann_intersection_array(2, 16, 8),
              twisted_intersection_array(2, 6), _odd_graph(9)]
    real, count = Fraction.__new__, [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return real(cls, *args, **kwargs)

    def made(arr, check):
        count[0] = 0
        eigensystem_from_array(arr, arr.vertex_count(), check_q_polynomial=check)
        return count[0]

    monkeypatch.setattr(Fraction, "__new__", counted)
    for arr in arrays:
        assert made(arr, True) == made(arr, False) > 0


def test_replace_derives_fresh_integer_forms():
    # the integer forms and the certificate memo belong to one object: a
    # replaced Q gets its own D*Q and an empty memo, and the original keeps
    # its own
    sys_ = eigensystem_from_array(IntersectionArray((12, 6, 2), (1, 4, 9)), 35)  # J(7,3)
    assert (sys_.D, sys_.DQ) == integer_form(sys_.Q.rows)
    assert sys_.certificates == {}
    originals = {t: lp_cert.solve_certificate(sys_, t) for t in (1, 2)}
    swapped = ExactMatrix([sys_.Q.rows[r] for r in (0, 2, 1, 3)])  # same D
    # columns 1..d over 7: D grows sevenfold, and column 0 keeps (eQ)_0 = |Y|
    scaled = ExactMatrix([[x / (7 if j else 1) for j, x in enumerate(row)]
                          for row in sys_.Q.rows])
    for Q in (swapped, scaled):
        tampered = dataclasses.replace(sys_, Q=Q)
        assert integer_form(Q.rows) != (sys_.D, sys_.DQ)
        assert (tampered.D, tampered.DQ) == integer_form(Q.rows)
        assert tampered.certificates == {}
        for t in (1, 2):
            cert = lp_cert.solve_certificate(tampered, t)
            assert dataclasses.asdict(cert) == certificate_by_fractions(Q.rows, t)
        counts = [15, 120, 90, 0]  # a star, e = (1, 8, 6, 0)
        e, eq = inner_distribution_by_fractions(counts, Q.rows)
        if min(eq) < 0:
            with pytest.raises(FundamentalInequalityViolated):
                inner_distribution_from_counts(counts, tampered)
        else:
            dist = inner_distribution_from_counts(counts, tampered)
            assert (dist.e, dist.eq) == (tuple(e), tuple(eq))
    assert sys_.certificates == originals
    assert (sys_.D, sys_.DQ) == integer_form(sys_.Q.rows)


def test_replace_refuses_a_fractional_p():
    sys_ = eigensystem_from_array(IntersectionArray((12, 6, 2), (1, 4, 9)), 35)
    with pytest.raises(DrgError, match="P is not integral"):
        dataclasses.replace(sys_, P=ExactMatrix(mat_scale(Fraction(1, 2), sys_.P.rows)))


def test_reorder_derives_fresh_integer_forms():
    arr = IntersectionArray((4, 3, 3), (1, 1, 2))  # O_4, Q-polynomial only reordered
    natural = eigensystem_from_array(arr, 35, check_q_polynomial=False)
    lp_cert.solve_certificate(natural, 1)
    assert set(natural.certificates) == {1}
    reordered = scheme._reorder(natural, (0, 3, 1, 2), ((0, 3, 1, 2),))
    assert reordered == eigensystem_from_array(arr, 35)
    assert reordered.Q != natural.Q
    assert (reordered.D, reordered.DQ) == integer_form(reordered.Q.rows)
    assert reordered.certificates == {}
    o8 = eigensystem_from_array(IntersectionArray((8, 7, 7, 6, 6, 5, 5), (1, 1, 2, 2, 3, 3, 4)),
                                6435)
    assert o8.ordering == (0, 7, 1, 6, 2, 5, 3, 4)
    assert (o8.D, o8.DQ) == integer_form(o8.Q.rows)
    assert o8.certificates == {}


def test_krein_k3_by_hand(built):
    _, _, _, sys_ = built("hamming", 1, 3)
    kt = krein_parameters(sys_)
    # 3x3 case by hand: E_1 = I - J/3, (E_1 o E_1) = (1/9)[[4,1,1],...]
    # expansion coefficients: q^0_11 = 2, q^1_11 = 1
    assert kt.q(0, 1, 1) == 2
    assert kt.q(1, 1, 1) == 1


@pytest.mark.parametrize("family,args", SMALL)
def test_idempotents_match_lagrange_oracle(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    mats = materialize_idempotents(g, census, sys_)
    oracle = lagrange_idempotents(adjacency_matrix(g), list(sys_.eigenvalues))
    for (M, D), E in zip(mats, oracle):
        for x in range(g.n):
            for y in range(g.n):
                assert Fraction(int(M[x, y]), D) == E[x][y]


def test_k3_idempotent_values(built):
    g, census, arr, sys_ = built("hamming", 1, 3)
    mats = materialize_idempotents(g, census, sys_)
    M0, D0 = mats[0]
    assert all(Fraction(int(M0[i, j]), D0) == Fraction(1, 3) for i in range(3) for j in range(3))
    M1, D1 = mats[1]
    expect = [[Fraction(2, 3) if i == j else Fraction(-1, 3) for j in range(3)] for i in range(3)]
    assert all(Fraction(int(M1[i, j]), D1) == expect[i][j] for i in range(3) for j in range(3))


def test_idempotent_ranks_are_multiplicities(built):
    g, census, arr, sys_ = built("johnson", 5, 2)
    mats = materialize_idempotents(g, census, sys_)
    ranks = []
    for M, D in mats:
        E = [[Fraction(int(M[i, j]), D) for j in range(g.n)] for i in range(g.n)]
        ranks.append(mat_rank(E))
    assert tuple(ranks) == sys_.m
    assert sum(ranks) == g.n


FULL_TIER = SMALL + [("twisted", (2, 2)), ("grassmann", (2, 5, 2))]


@pytest.mark.parametrize("family,args", FULL_TIER)
def test_krein_cross_check(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    krein_cross_check(g, census, sys_)


def test_full_matrix_tier_refuses_above_its_cap(built):
    # H(5,4) has 1,024 vertices, above FULL_MATRIX_CAP = 1,000
    g, census, _, sys_ = built("hamming", 5, 4)
    assert g.n == 1024 > scheme.FULL_MATRIX_CAP
    message = "1024 vertices exceeds the full-matrix cap 1000"
    with pytest.raises(TierLimitExceeded, match=message):
        materialize_idempotents(g, census, sys_)
    with pytest.raises(TierLimitExceeded, match=message):
        krein_cross_check(g, census, sys_)


def _hand_built(g):
    """g with the trivial group, so the full-matrix tier checks every row."""
    copy = Graph(g.family, g.params, g.vertices, g.adj)
    assert copy.automorphisms == ()
    return copy


def _full_tier_verdict(g, census, sys_, kt):
    """(mats, None) when the full-matrix tier passes, (None, message) when it
    raises."""
    try:
        mats = materialize_idempotents(g, census, sys_)
        krein_cross_check(g, census, sys_, kt)
    except DrgError as exc:
        return None, str(exc)
    return mats, None


def _oracle(census_levels, sys_, kt, rows=None):
    Q = [list(row) for row in sys_.Q.rows]
    return full_matrix_failure(census_levels, Q, kt.values, rows)


@pytest.mark.parametrize("family,args", FULL_TIER)
def test_full_matrix_tier_matches_all_rows_oracle(family, args, built):
    # the oracle builds its distance matrices from its own BFS and checks
    # every row; the package checks one row per orbit (two for twisted)
    g, census, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    levels, _ = census_by_bfs(g.adj)
    want, message = _oracle(levels, sys_, kt)
    assert message is None
    for graph in (g, _hand_built(g)):
        mats, verdict = _full_tier_verdict(graph, census, sys_, kt)
        assert verdict is None
        assert [D for _, D in mats] == [D for _, D in want]
        assert all(np.array_equal(M, W) for (M, _), (W, _) in zip(mats, want))


@pytest.mark.parametrize("family,args", [
    ("johnson", (7, 3)), ("twisted", (2, 2)), ("hamming", (3, 3)), ("grassmann", (2, 5, 2)),
])
def test_full_matrix_tier_refuses_swapped_q_rows(family, args, built):
    g, census, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    rows = list(sys_.Q.rows)
    rows[1], rows[2] = rows[2], rows[1]
    tampered = dataclasses.replace(sys_, Q=ExactMatrix(rows))
    assert _oracle(census_by_bfs(g.adj)[0], tampered, kt)[1] == "E_0 E_1 != 0"
    for graph in (g, _hand_built(g)):
        assert _full_tier_verdict(graph, census, tampered, kt) == (None, "E_0 E_1 != 0")


@pytest.mark.parametrize("family,args", FULL_TIER)
def test_full_matrix_tier_refuses_a_wrong_krein_parameter(family, args, built):
    g, census, _, sys_ = built(family, *args)
    values = [[list(row) for row in plane] for plane in krein_parameters(sys_).values]
    values[1][1][1] += 1
    kt = KreinTensor(tuple(tuple(map(tuple, plane)) for plane in values))
    message = "Krein expansion of E_1 o E_1 fails entrywise"
    assert _oracle(census_by_bfs(g.adj)[0], sys_, kt)[1] == message
    for graph in (g, _hand_built(g)):
        assert _full_tier_verdict(graph, census, sys_, kt) == (None, message)


def _switch_unseen_from_row_0(census):
    """A copy of the census with the distance classes l of (x1, y1), (x2, y2)
    and l' of (x1, y2), (x2, y1) exchanged, where x1, x2 share a level of
    vertex 0 and so do y1, y2.  Every row keeps its class sizes, and row 0 of
    every product of the tampered matrices is unchanged, so only a check of
    another row can see the switch."""
    n = len(census.levels)
    dist = [[census.d(x, y) for y in range(n)] for x in range(n)]
    for x1, x2, y1, y2 in itertools.permutations(range(1, n), 4):
        if (dist[0][x1] == dist[0][x2] and dist[0][y1] == dist[0][y2]
                and dist[x1][y1] == dist[x2][y2] != dist[x1][y2] == dist[x2][y1]):
            levels = [list(row) for row in census.levels]
            for (x, y), (old, new) in [
                ((x1, y1), (dist[x1][y1], dist[x1][y2])),
                ((x2, y2), (dist[x1][y1], dist[x1][y2])),
                ((x1, y2), (dist[x1][y2], dist[x1][y1])),
                ((x2, y1), (dist[x1][y2], dist[x1][y1])),
            ]:
                for a, b in ((x, y), (y, x)):
                    levels[a][old] ^= 1 << b
                    levels[a][new] ^= 1 << b
            return DistanceCensus(levels, census.diameter)
    raise AssertionError("no switch found")


@pytest.mark.parametrize("family,args", [("johnson", (5, 2)), ("johnson", (7, 3))])
def test_trivial_group_checks_every_row(family, args, built):
    # with the trivial group every vertex is a representative, so a switch
    # that row 0 cannot see is still refused, with the all-rows verdict
    g, census, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    switched = _switch_unseen_from_row_0(census)
    assert _oracle(switched.levels, sys_, kt, rows=[0])[1] is None
    _, message = _oracle(switched.levels, sys_, kt)
    assert message is not None
    assert _full_tier_verdict(_hand_built(g), switched, sys_, kt) == (None, message)


def test_twisted_and_grassmann_share_eigensystem(built):
    _, _, _, sys_tw = built("twisted", 2, 2)
    _, _, _, sys_gr = built("grassmann", 2, 5, 2)
    assert sys_tw.Q == sys_gr.Q
    assert sys_tw.P == sys_gr.P
    assert sys_tw.m == sys_gr.m
    assert sys_tw.passing_orderings == sys_gr.passing_orderings


def test_irrational_eigenvalues_rejected():
    for b, c, n in [
        ((2, 1), (1, 1), 5),  # pentagon: golden-ratio eigenvalues
        ((5, 1, 1), (1, 1, 5), 12),  # 1 - sqrt 6 lies within 1/2 of the eigenvalue -1
    ]:
        with pytest.raises(IrrationalEigenvalue):
            eigensystem_from_array(IntersectionArray(b, c), n)


def test_fractional_p_rejected():
    # the spectrum {4, 2, 0, -3} is integral, but P_2 = 5/2 at the eigenvalue -3:
    # no graph has this array, and the integer recurrence says so
    arr = IntersectionArray((4, 3, 1), (1, 2, 2))
    with pytest.raises(DrgError, match="P_2 at eigenvalue -3 is not an integer"):
        eigensystem_from_array(arr, arr.vertex_count(), check_q_polynomial=False)


def test_vertex_count_mismatch():
    arr = IntersectionArray((2, 1), (1, 1))
    with pytest.raises(ParameterError):
        eigensystem_from_array(arr, 6)


def test_not_q_polynomial_tensor():
    # synthetic tensor with every q^k_{1i}, k = i +- 1, equal to zero: no
    # ordering can pass, at d = 2 or at d = 7, above the d <= 6 that the
    # test hook also searches
    for d in (2, 7):
        vals = tuple(
            tuple(
                tuple(Fraction(1 if i == j == kk else 0) for j in range(d + 1))
                for i in range(d + 1)
            )
            for kk in range(d + 1)
        )
        with pytest.raises(NotQPolynomial):
            verify_q_polynomial(KreinTensor(vals).support())


def _relabelled(kt, s):
    r = range(kt.d + 1)
    return tuple(tuple(tuple(kt.q(s[k], s[i], s[j]) for j in r) for i in r) for k in r)


@pytest.mark.parametrize("arr,n", [
    (IntersectionArray((12, 6, 2), (1, 4, 9)), 35),  # J(7,3)
    (IntersectionArray((4, 3, 3), (1, 1, 2)), 35),  # O_4
    (hamming_intersection_array(4, 2), 16),
])
def test_constructed_orderings_match_search_under_relabelling(arr, n):
    # relabelling E_1..E_d moves the Q-polynomial orderings; the construction
    # must follow them under every labelling, as the (d)! search does
    kt = krein_parameters(eigensystem_from_array(arr, n, check_q_polynomial=False))
    seen = set()
    for perm in itertools.permutations(range(1, kt.d + 1)):
        vals = _relabelled(kt, (0,) + perm)
        found = orderings_by_search(vals)
        assert found and verify_q_polynomial(KreinTensor(vals).support()) == found
        seen.add(len(found))
    assert seen == ({2} if arr.d == 4 else {1})


def test_walk_that_completes_is_still_confirmed():
    # d = 2: from E_1 the walk steps to E_2 and completes (0, 1, 2), which
    # only reads q^2_{1,1}; but q^0_{1,2} != 0 puts E_0 next to E_2, so the
    # ordering fails, and the walk from E_2 stalls (q^1_{2,2} = 0)
    q = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        q[k][0][k] = q[k][k][0] = Fraction(1)
    for k, i, j in [(0, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 1), (0, 1, 2)]:
        q[k][i][j] = Fraction(1)
    kt = KreinTensor(tuple(tuple(map(tuple, plane)) for plane in q))
    assert scheme._walk(kt.support(), 1) == (0, 1, 2)
    assert scheme._walk(kt.support(), 2) is None
    assert orderings_by_search(kt.values) == ()
    with pytest.raises(NotQPolynomial):
        verify_q_polynomial(kt.support())


def test_hypercube_h82_has_two_orderings():
    # H(8,2) is Q-polynomial in the natural ordering and, as an even
    # hypercube, also in the one that starts at E_7; the (d)! search agrees
    arr = hamming_intersection_array(8, 2)
    sys_ = eigensystem_from_array(arr, 2 ** 8)
    assert sys_.eigenvalues == tuple(8 - 2 * j for j in range(9))
    assert sys_.passing_orderings == (tuple(range(9)), (0, 7, 2, 5, 4, 3, 6, 1, 8))
    kt = krein_parameters(eigensystem_from_array(arr, 2 ** 8, check_q_polynomial=False))
    assert orderings_by_search(kt.values) == sys_.passing_orderings


def test_odd_graph_o8_needs_reordering():
    # O_8 = Kneser K(15,7), d = 7, on 6,435 vertices: Q-polynomial only in
    # the ordering that alternates between the ends of the spectrum
    arr = IntersectionArray((8, 7, 7, 6, 6, 5, 5), (1, 1, 2, 2, 3, 3, 4))
    sys_ = eigensystem_from_array(arr, 6435)
    assert sys_.ordering == (0, 7, 1, 6, 2, 5, 3, 4)
    assert sys_.passing_orderings == (sys_.ordering,)
    assert sys_.eigenvalues == (8, -7, 6, -5, 4, -3, 2, -1)
    kt = krein_parameters(eigensystem_from_array(arr, 6435, check_q_polynomial=False))
    assert orderings_by_search(kt.values) == sys_.passing_orderings


def test_eigensystem_cache_roundtrip(built):
    _, _, _, sys_ = built("johnson", 7, 3)
    text = eigensystem_to_json(sys_, "johnson", {"v": 7, "d": 3})
    doc = json.loads(text)
    assert (doc["family"], doc["params"], doc["version"]) == ("johnson", {"v": 7, "d": 3}, 1)
    assert (doc["n"], doc["d"], tuple(doc["eigenvalues"])) == (sys_.n, sys_.d, sys_.eigenvalues)
    assert tuple(Fraction(x) for x in doc["k"]) == sys_.k
    assert tuple(Fraction(x) for x in doc["m"]) == sys_.m
    assert ExactMatrix([[Fraction(x) for x in row] for row in doc["P"]]) == sys_.P
    assert ExactMatrix([[Fraction(x) for x in row] for row in doc["Q"]]) == sys_.Q
    assert tuple(doc["ordering"]) == sys_.ordering
    assert tuple(tuple(p) for p in doc["passing_orderings"]) == sys_.passing_orderings
    assert eigensystem_to_json(sys_, "johnson", {"d": 3, "v": 7}) == text
    key = eigensystem_cache_key("johnson", {"v": 7, "d": 3})
    assert key == eigensystem_cache_key("johnson", {"d": 3, "v": 7})
    assert key != eigensystem_cache_key("johnson", {"v": 9, "d": 4})


def test_odd_graph_needs_reordering():
    # O_4 = Kneser K(7,3): the descending ordering is not Q-polynomial
    sys_ = eigensystem_from_array(IntersectionArray((4, 3, 3), (1, 1, 2)), 35)
    assert sys_.ordering == (0, 3, 1, 2)
    assert sys_.eigenvalues == (4, -3, 2, -1)
    assert sys_.m == (1, 6, 14, 14)
    triples = [set(t) for t in itertools.combinations(range(7), 3)]
    adj = np.array([[int(not x & y) for y in triples] for x in triples], dtype=float)
    eigs = np.linalg.eigvalsh(adj)
    rounded = np.rint(eigs)
    assert np.allclose(eigs, rounded)
    assert Counter(int(x) for x in rounded) == dict(zip(sys_.eigenvalues, sys_.m))


@pytest.mark.parametrize("q,v,d", [(2, 30, 15), (7, 16, 8)])
def test_grassmann_eigenvalues_beyond_valency_scan(q, v, d):
    # b_0 is about 2.1e9 for J_2(30,15) and 6.5e12 for J_7(16,8)
    def qi(m):
        return (q ** m - 1) // (q - 1)

    arr = grassmann_intersection_array(q, v, d)
    sys_ = eigensystem_from_array(arr, arr.vertex_count(), check_q_polynomial=False)
    assert sys_.eigenvalues == tuple(
        q ** (j + 1) * qi(d - j) * qi(v - d - j) - qi(j) for j in range(d + 1)
    )
    assert sys_.m == tuple(
        q_binomial(v, j, q) - (q_binomial(v, j - 1, q) if j else 0) for j in range(d + 1)
    )


def p_row_by_fractions(arr, th):
    """P_0(th), ..., P_d(th) by the three-term recurrence in rationals."""
    a, v = arr.a(), [Fraction(1), Fraction(th)]
    for j in range(1, arr.d):
        v.append(((th - a[j]) * v[j] - arr.b[j - 1] * v[j - 1]) / arr.c[j])
    return v


@st.composite
def intersection_arrays(draw):
    """Arrays with d <= 4, c_1 = 1, every a_i >= 0 and integral valencies:
    arbitrary ones (often irrational spectra) and Hamming and Johnson ones."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["any", "hamming", "johnson"]))
    if kind == "hamming":
        q = draw(st.integers(2, 40))
        b = [(d - i) * (q - 1) for i in range(d)]
        c = list(range(1, d + 1))
    elif kind == "johnson":
        v = draw(st.integers(2 * d, 40))
        b = [(d - i) * (v - d - i) for i in range(d)]
        c = [i * i for i in range(1, d + 1)]
    else:
        b0 = draw(st.integers(2, 12))
        b = [b0] + [draw(st.integers(1, b0 - 1)) for _ in range(d - 1)]
        c = [1] + [draw(st.integers(1, b0 - bi)) for bi in b[2:]]
        if d > 1:
            c.append(draw(st.integers(1, b0)))
    try:
        return IntersectionArray(tuple(b), tuple(c))
    except ParameterError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(intersection_arrays())
@example(IntersectionArray((9, 8), (1, 4)))  # integral spectrum, a Krein condition fails
@example(IntersectionArray((4, 3, 1), (1, 2, 2)))  # integral spectrum, P_2 = 5/2 at -3
def test_eigenvalues_match_sympy_charpoly(arr):
    d, a = arr.d, arr.a()
    L = sympy.zeros(d + 1, d + 1)
    for i in range(d + 1):
        L[i, i] = a[i]
        if i < d:
            L[i, i + 1] = arr.b[i]
            L[i + 1, i] = arr.c[i]
    x = sympy.Symbol("x")
    roots = sympy.Poly(L.charpoly(x).as_expr(), x).ground_roots()
    n = arr.vertex_count()
    if sum(roots.values()) < d + 1:
        event("irrational spectrum")
        with pytest.raises(IrrationalEigenvalue):
            eigensystem_from_array(arr, n, check_q_polynomial=False)
        return
    try:
        sys_ = eigensystem_from_array(arr, n, check_q_polynomial=False)
    except ParameterError as exc:  # a feasibility condition, past the spectrum
        assert "multiplicit" in str(exc)
        event("integral spectrum, infeasible multiplicities")
        return
    except DrgError as exc:  # P is not integral, so no graph has the array
        assert "not an integer" in str(exc)
        assert any(x.denominator != 1 for th in roots for x in p_row_by_fractions(arr, th))
        event("integral spectrum, fractional P")
        return
    event("integral spectrum, eigensystem built")
    assert sys_.eigenvalues == tuple(sorted((int(r) for r in roots), reverse=True))
    assert mat_mul(sys_.P.rows, sys_.Q.rows) == mat_scale(n, mat_eye(d + 1))
    oracle = krein_by_triple_sum(sys_.P.rows, sys_.Q.rows, n)
    if min(x for plane in oracle for row in plane for x in row) < 0:
        event("a Krein condition fails")
        with pytest.raises(DrgError, match="Krein parameter"):
            krein_parameters(sys_)
    else:
        event("Krein conditions hold")
        kt = krein_parameters(sys_)
        assert [[list(row) for row in plane] for plane in kt.values] == oracle
