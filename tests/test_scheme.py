import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, event, example, given, settings, strategies as st

from _oracles import (
    adjacency_matrix,
    census_by_bfs,
    certificate_by_fractions,
    distances_by_bfs,
    full_matrix_failure,
    inner_distribution_by_fractions,
    integer_form,
    krein_by_triple_sum,
    krein_support,
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
    assert [[list(row) for row in plane] for plane in kt] == oracle
    d = sys_.d
    for j in range(d + 1):
        for kk in range(d + 1):
            assert kt[kk][0][j] == (1 if j == kk else 0)
    assert tuple(range(d + 1)) in verify_q_polynomial(krein_support(kt))


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
        assert [[list(row) for row in plane] for plane in kt] == oracle
        assert krein_support(kt) == scheme._support(
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

    def made(build, arr):
        count[0] = 0
        build(arr, arr.vertex_count())
        return count[0]

    monkeypatch.setattr(Fraction, "__new__", counted)
    for arr in arrays:
        assert made(eigensystem_from_array, arr) == made(scheme._descending_eigensystem, arr) > 0


def test_replace_derives_fresh_integer_forms():
    # the integer forms belong to one object: a replaced Q gets its own D*Q,
    # and the original keeps its own
    sys_ = eigensystem_from_array(IntersectionArray((12, 6, 2), (1, 4, 9)), 35)  # J(7,3)
    assert (sys_.D, sys_.DQ) == integer_form(sys_.Q.rows)
    originals = {t: lp_cert.solve_certificate(sys_, t) for t in (1, 2)}
    swapped = ExactMatrix([sys_.Q.rows[r] for r in (0, 2, 1, 3)])  # same D
    # columns 1..d over 7: D grows sevenfold, and column 0 keeps (eQ)_0 = |Y|
    scaled = ExactMatrix([[x / (7 if j else 1) for j, x in enumerate(row)]
                          for row in sys_.Q.rows])
    for Q in (swapped, scaled):
        tampered = dataclasses.replace(sys_, Q=Q)
        assert integer_form(Q.rows) != (sys_.D, sys_.DQ)
        assert (tampered.D, tampered.DQ) == integer_form(Q.rows)
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
    assert {t: lp_cert.solve_certificate(sys_, t) for t in (1, 2)} == originals
    assert (sys_.D, sys_.DQ) == integer_form(sys_.Q.rows)


def test_replace_refuses_a_fractional_p():
    sys_ = eigensystem_from_array(IntersectionArray((12, 6, 2), (1, 4, 9)), 35)
    with pytest.raises(DrgError, match="P is not integral"):
        dataclasses.replace(sys_, P=ExactMatrix(mat_scale(Fraction(1, 2), sys_.P.rows)))


def test_reorder_derives_fresh_integer_forms():
    arr = IntersectionArray((4, 3, 3), (1, 1, 2))  # O_4, Q-polynomial only reordered
    natural = scheme._descending_eigensystem(arr, 35)
    reordered = scheme._reorder(natural, (0, 3, 1, 2), ((0, 3, 1, 2),))
    assert reordered == eigensystem_from_array(arr, 35)
    assert reordered.Q != natural.Q
    assert (reordered.D, reordered.DQ) == integer_form(reordered.Q.rows)
    o8 = eigensystem_from_array(IntersectionArray((8, 7, 7, 6, 6, 5, 5), (1, 1, 2, 2, 3, 3, 4)),
                                6435)
    assert o8.ordering == (0, 7, 1, 6, 2, 5, 3, 4)
    assert (o8.D, o8.DQ) == integer_form(o8.Q.rows)


def test_krein_k3_by_hand(built):
    _, _, _, sys_ = built("hamming", 1, 3)
    kt = krein_parameters(sys_)
    # 3x3 case by hand: E_1 = I - J/3, (E_1 o E_1) = (1/9)[[4,1,1],...]
    # expansion coefficients: q^0_11 = 2, q^1_11 = 1
    assert kt[0][1][1] == 2
    assert kt[1][1][1] == 1


@pytest.mark.parametrize("family,args", SMALL)
def test_idempotents_match_lagrange_oracle(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    mats = materialize_idempotents(g, census, sys_)
    oracle = lagrange_idempotents(adjacency_matrix(g), list(sys_.eigenvalues))
    dist = distances_by_bfs(g.adj)
    for (C, D), E in zip(mats, oracle):
        for x in range(g.n):
            for y in range(g.n):
                assert Fraction(C[dist[x][y]], D) == E[x][y]


def test_k3_idempotent_values(built):
    g, census, arr, sys_ = built("hamming", 1, 3)
    mats = materialize_idempotents(g, census, sys_)
    dist = distances_by_bfs(g.adj)
    C0, D0 = mats[0]
    assert all(Fraction(C0[dist[i][j]], D0) == Fraction(1, 3) for i in range(3) for j in range(3))
    C1, D1 = mats[1]
    expect = [[Fraction(2, 3) if i == j else Fraction(-1, 3) for j in range(3)] for i in range(3)]
    assert all(Fraction(C1[dist[i][j]], D1) == expect[i][j] for i in range(3) for j in range(3))


def test_idempotent_ranks_are_multiplicities(built):
    g, census, arr, sys_ = built("johnson", 5, 2)
    mats = materialize_idempotents(g, census, sys_)
    dist = distances_by_bfs(g.adj)
    ranks = []
    for C, D in mats:
        ranks.append(mat_rank([[Fraction(C[l], D) for l in row] for row in dist]))
    assert tuple(ranks) == sys_.m
    assert sum(ranks) == g.n


FULL_TIER = SMALL + [("twisted", (2, 2)), ("grassmann", (2, 5, 2))]


@pytest.mark.parametrize("family,args", FULL_TIER)
def test_krein_cross_check(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    krein_cross_check(g, census, sys_)


def test_full_matrix_tier_runs_on_1024_vertices(built, deadline):
    # H(5,4): 1,024 vertices in one orbit, so the tier reads 1,024 x 36
    # popcounts of row 0 against each row, and forms no n x n matrix
    g, census, _, sys_ = built("hamming", 5, 4)
    assert g.n == 1024
    deadline(10)
    mats = materialize_idempotents(g, census, sys_)
    krein_cross_check(g, census, sys_)
    # C_i / D_i is column i of Q over |X|
    assert [[Fraction(c, D) * g.n for c in C] for C, D in mats] == list(
        map(list, zip(*sys_.Q.rows)))


def _hand_built(g):
    """g with the trivial group, so the full-matrix tier checks every row."""
    copy = Graph(g.family, g.params, g.vertices, g.adj)
    assert copy.automorphisms == ()
    return copy


def _full_tier_verdict(g, census, sys_):
    """(mats, None) when the full-matrix tier passes, (None, message) when it
    raises."""
    try:
        mats = materialize_idempotents(g, census, sys_)
        krein_cross_check(g, census, sys_)
    except DrgError as exc:
        return None, str(exc)
    return mats, None


def _oracle(census_levels, sys_, kt, rows=None):
    Q = [list(row) for row in sys_.Q.rows]
    return full_matrix_failure(census_levels, Q, kt, rows)


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
        mats, verdict = _full_tier_verdict(graph, census, sys_)
        assert verdict is None
        assert [D for _, D in mats] == [D for _, D in want]
        dist = distances_by_bfs(g.adj)
        for (C, _), (W, _) in zip(mats, want):
            assert all(C[l] == W[x, y] for x, row in enumerate(dist) for y, l in enumerate(row))


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
        assert _full_tier_verdict(graph, census, tampered) == (None, "E_0 E_1 != 0")


@pytest.mark.parametrize("family,args", FULL_TIER)
def test_full_matrix_tier_refuses_a_wrong_krein_parameter(family, args, built, monkeypatch):
    g, census, _, sys_ = built(family, *args)
    kt = [[list(row) for row in plane] for plane in krein_parameters(sys_)]
    kt[1][1][1] += 1
    message = "Krein expansion of E_1 o E_1 fails entrywise"
    assert _oracle(census_by_bfs(g.adj)[0], sys_, kt)[1] == message
    monkeypatch.setattr(scheme, "krein_parameters", lambda _: kt)
    for graph in (g, _hand_built(g)):
        assert _full_tier_verdict(graph, census, sys_) == (None, message)


def _switch_unseen_from_row_0(g, census):
    """A copy of g's census with the distance classes l of (x1, y1), (x2, y2)
    and l' of (x1, y2), (x2, y1) exchanged, where x1, x2 share a level of
    vertex 0 and so do y1, y2.  Every row keeps its class sizes, and row 0 of
    every product of the tampered matrices is unchanged, so only a check of
    another row can see the switch."""
    dist = distances_by_bfs(g.adj)
    for x1, x2, y1, y2 in itertools.permutations(range(1, g.n), 4):
        if (dist[0][x1] == dist[0][x2] and dist[0][y1] == dist[0][y2]
                and dist[x1][y1] == dist[x2][y2] != dist[x1][y2] == dist[x2][y1]):
            levels = {x: list(row) for x, row in census.levels.items()}
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
    switched = _switch_unseen_from_row_0(g, census)
    levels = list(switched.levels.values())
    assert _oracle(levels, sys_, kt, rows=[0])[1] is None
    _, message = _oracle(levels, sys_, kt)
    assert message is not None
    assert _full_tier_verdict(_hand_built(g), switched, sys_) == (None, message)


def _with_q_columns(sys_, cols):
    """sys_ with Q's columns replaced by cols."""
    return dataclasses.replace(sys_, Q=ExactMatrix([list(row) for row in zip(*cols)]))


@pytest.mark.parametrize("family,args", [("johnson", (7, 3)), ("twisted", (2, 2))])
def test_full_matrix_tier_names_each_failing_pair(family, args, built, monkeypatch):
    # column j of Q doubled makes E_j' = 2 E_j, which first fails as
    # "E_j is not idempotent"; column i added to column j (i < j) makes
    # E_j' = E_i + E_j, still idempotent, with E_j' E_i = E_i != 0, so the
    # first failure is "E_i E_j != 0"; q^0_ij raised by 1 first fails the
    # Krein expansion of E_i o E_j.  So each (i, j) is checked.
    g, census, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    levels = census_by_bfs(g.adj)[0]
    graphs = (g, _hand_built(g))
    r = range(sys_.d + 1)
    for i, j in itertools.combinations_with_replacement(r, 2):
        cols = [list(col) for col in zip(*sys_.Q.rows)]
        if i == j:
            cols[j] = [2 * x for x in cols[j]]
            message = f"E_{j} is not idempotent"
        else:
            cols[j] = [x + y for x, y in zip(cols[i], cols[j])]
            message = f"E_{i} E_{j} != 0"
        tampered = _with_q_columns(sys_, cols)
        assert _oracle(levels, tampered, kt)[1] == message
        for graph in graphs:
            assert _full_tier_verdict(graph, census, tampered) == (None, message)
        wrong = [[list(row) for row in plane] for plane in kt]
        wrong[0][i][j] += 1
        message = f"Krein expansion of E_{i} o E_{j} fails entrywise"
        assert _oracle(levels, sys_, wrong)[1] == message
        with monkeypatch.context() as m:
            m.setattr(scheme, "krein_parameters", lambda _: wrong)
            for graph in graphs:
                assert _full_tier_verdict(graph, census, sys_) == (None, message)


@pytest.mark.parametrize("family,args", [("johnson", (5, 2)), ("johnson", (7, 3)),
                                         ("twisted", (2, 2))])
def test_full_matrix_tier_refuses_a_row_copied_from_vertex_0(family, args, built):
    # with z the last vertex and its row a copy of row 0, (0, z) has the
    # popcounts of (0, 0) while z lies at a level other than 0 of row 0: an
    # entry that only a check keyed on the level as well as the popcounts
    # can see
    g, census, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    levels = [list(row) for row in census.levels.values()]
    levels[-1] = list(levels[0])
    copied = DistanceCensus(dict(enumerate(levels)), census.diameter)
    message = "E_1 is not idempotent"
    assert _oracle(levels, sys_, kt)[1] == message
    for graph in (g, _hand_built(g)):
        assert _full_tier_verdict(graph, copied, sys_) == (None, message)


@pytest.mark.parametrize("tamper", [
    "a vertex at two levels", "a vertex at two levels and one at none", "a level past d",
])
def test_full_matrix_tier_refuses_a_census_row_that_is_not_a_partition(tamper, built):
    g, census, _, sys_ = built("johnson", 5, 2)
    levels = {x: list(row) for x, row in census.levels.items()}
    row = levels[3]
    if tamper == "a level past d":
        row.append(0)
    else:
        row[1] |= row[2] & -row[2]  # a vertex at distance 2 also at level 1
        if tamper == "a vertex at two levels and one at none":
            row[2] ^= 1 << row[2].bit_length() - 1  # another one at none
    tampered = DistanceCensus(levels, census.diameter)
    message = "census row 3 does not partition the vertices into levels 0..2"
    with pytest.raises(DrgError, match=message):
        materialize_idempotents(g, tampered, sys_)
    with pytest.raises(DrgError, match=message):
        krein_cross_check(g, tampered, sys_)


def test_full_matrix_tier_runs_without_numpy():
    # numpy blocked: importing it raises ImportError, yet every drgcert
    # module imports and the full-matrix tier runs
    script = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
import drgcert
for module in pkgutil.iter_modules(drgcert.__path__):
    importlib.import_module(f"drgcert.{module.name}")
from drgcert import graphs, scheme
g = graphs.build_johnson(7, 3)
census = graphs.distance_census(g)
sys_ = scheme.eigensystem_from_array(graphs.check_distance_regular(g, census), g.n)
scheme.krein_cross_check(g, census, sys_)
"""
    src = str(Path(scheme.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
        scheme._descending_eigensystem(arr, arr.vertex_count())


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
            verify_q_polynomial(krein_support(vals))


def _relabelled(kt, s):
    r = range(len(kt))
    return tuple(tuple(tuple(kt[s[k]][s[i]][s[j]] for j in r) for i in r) for k in r)


@pytest.mark.parametrize("arr,n", [
    (IntersectionArray((12, 6, 2), (1, 4, 9)), 35),  # J(7,3)
    (IntersectionArray((4, 3, 3), (1, 1, 2)), 35),  # O_4
    (hamming_intersection_array(4, 2), 16),
])
def test_constructed_orderings_match_search_under_relabelling(arr, n):
    # relabelling E_1..E_d moves the Q-polynomial orderings; the construction
    # must follow them under every labelling, as the (d)! search does
    kt = krein_parameters(scheme._descending_eigensystem(arr, n))
    seen = set()
    for perm in itertools.permutations(range(1, len(kt))):
        vals = _relabelled(kt, (0,) + perm)
        found = orderings_by_search(vals)
        assert found and verify_q_polynomial(krein_support(vals)) == found
        seen.add(len(found))
    assert seen == ({2} if arr.d == 4 else {1})


def test_walk_that_completes_is_still_confirmed():
    # d = 2: from E_1 a walk that read only the unvisited entries would step
    # to E_2 and complete (0, 1, 2); but q^0_{1,2} != 0 puts E_0 next to E_2,
    # a visited E_b other than its predecessor, so the walk refuses it at
    # position 2, and the walk from E_2 stalls (q^1_{2,2} = 0)
    q = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        q[k][0][k] = q[k][k][0] = Fraction(1)
    for k, i, j in [(0, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 1), (0, 1, 2)]:
        q[k][i][j] = Fraction(1)
    support = krein_support(q)
    assert scheme._walk(support, 1) is None
    assert scheme._walk(support, 2) is None
    assert orderings_by_search(q) == ()
    with pytest.raises(NotQPolynomial):
        verify_q_polynomial(support)


@pytest.mark.parametrize("support", [
    # row 1 of support[1] leads on to E_2 but lacks its predecessor E_0
    # (q^0_{1,1} = 0), and row 2 holds E_1 alone: only the predecessor check
    # refuses (0, 1, 2)
    ((1, 2, 4), (2, 4, 2), (4, 0, 0)),
    # row 1 of support[1] holds E_0 alone: the walk from E_1 ends at
    # position 1 < d, and only the length check refuses (0, 1)
    ((1, 2, 4), (2, 1, 0), (4, 0, 0)),
    # d = 1: row 0 of support[1] is empty (q^1_{1,0} = 0), and row 1 holds
    # E_0 alone: only the check at position 0 refuses (0, 1)
    ((1, 2), (0, 1)),
])
def test_walk_refuses_hand_made_supports(support):
    # masks support[j][c] that no scheme has (the Krein support is symmetric
    # and q^0_{j,j} = m_j > 0); the test hook's search agrees that no
    # ordering passes
    assert scheme._walk(support, 1) is None
    with pytest.raises(NotQPolynomial):
        verify_q_polynomial(support)


def test_hypercube_h82_has_two_orderings():
    # H(8,2) is Q-polynomial in the natural ordering and, as an even
    # hypercube, also in the one that starts at E_7; the (d)! search agrees
    arr = hamming_intersection_array(8, 2)
    sys_ = eigensystem_from_array(arr, 2 ** 8)
    assert sys_.eigenvalues == tuple(8 - 2 * j for j in range(9))
    assert sys_.passing_orderings == (tuple(range(9)), (0, 7, 2, 5, 4, 3, 6, 1, 8))
    kt = krein_parameters(scheme._descending_eigensystem(arr, 2 ** 8))
    assert orderings_by_search(kt) == sys_.passing_orderings


def test_odd_graph_o8_needs_reordering():
    # O_8 = Kneser K(15,7), d = 7, on 6,435 vertices: Q-polynomial only in
    # the ordering that alternates between the ends of the spectrum
    arr = IntersectionArray((8, 7, 7, 6, 6, 5, 5), (1, 1, 2, 2, 3, 3, 4))
    sys_ = eigensystem_from_array(arr, 6435)
    assert sys_.ordering == (0, 7, 1, 6, 2, 5, 3, 4)
    assert sys_.passing_orderings == (sys_.ordering,)
    assert sys_.eigenvalues == (8, -7, 6, -5, 4, -3, 2, -1)
    kt = krein_parameters(scheme._descending_eigensystem(arr, 6435))
    assert orderings_by_search(kt) == sys_.passing_orderings


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
    sys_ = scheme._descending_eigensystem(arr, arr.vertex_count())
    assert sys_.eigenvalues == tuple(
        q ** (j + 1) * qi(d - j) * qi(v - d - j) - qi(j) for j in range(d + 1)
    )
    assert sys_.m == tuple(
        q_binomial(v, j, q) - (q_binomial(v, j - 1, q) if j else 0) for j in range(d + 1)
    )


def _param_tier_arrays():
    """The 14 closed-form arrays of the parameter-tier benchmark, each with
    its eigenvalues by the textbook formulas (Hamming: (q-1)d - qj;
    Grassmann: q^(j+1) [d-j][v-d-j] - [j])."""
    def qi(m, q):
        return (q ** m - 1) // (q - 1)

    def grassmann(q, v, d):
        return grassmann_intersection_array(q, v, d), tuple(
            q ** (j + 1) * qi(d - j, q) * qi(v - d - j, q) - qi(j, q) for j in range(d + 1))

    def hamming(d, q):
        return hamming_intersection_array(d, q), tuple((q - 1) * d - q * j for j in range(d + 1))

    cases = [hamming(d, q) for d, q in [(4, 4), (7, 7), (10, 10), (5, 5), (6, 6), (8, 8)]]
    cases += [grassmann(*p) for p in [(2, 16, 8), (3, 12, 6), (5, 8, 4), (3, 10, 5)]]
    for q, d in [(2, 6), (3, 3), (2, 3), (5, 2)]:
        arr, thetas = grassmann(q, 2 * d + 1, d)
        assert twisted_intersection_array(q, d) == arr
        cases.append((arr, thetas))
    return cases


def _count_minors(monkeypatch) -> list:
    real, calls = scheme._scaled_minors, []
    monkeypatch.setattr(scheme, "_scaled_minors", lambda *args: calls.append(1) or real(*args))
    return calls


def test_eigenvalue_bisections_start_from_the_valency_bound(monkeypatch):
    # the param-tier arrays without their classical parameters, as BFS reads
    # them off a graph: each bisection for j >= 1 runs from -b_0 - 1 up to
    # theta_{j-1}, 898 minor evaluations in all
    cases = [(IntersectionArray(arr.b, arr.c), thetas) for arr, thetas in _param_tier_arrays()]
    calls = _count_minors(monkeypatch)
    for arr, thetas in cases:
        assert arr.classical is None
        assert scheme._eigenvalues(arr, arr.a()) == thetas
    assert len(calls) == 898


def test_classical_eigenvalues_take_one_confirmation_each(monkeypatch):
    # with their classical parameters the same arrays take theta_i in closed
    # form and confirm each root once: sum of (d+1) = 91 evaluations
    cases = _param_tier_arrays()
    calls = _count_minors(monkeypatch)
    for arr, thetas in cases:
        assert arr.classical is not None
        assert scheme._eigenvalues(arr, arr.a()) == thetas
    assert len(calls) == sum(arr.d + 1 for arr, _ in cases) == 91


def test_classical_eigensystems_equal_the_bisected_ones():
    for arr, _ in _param_tier_arrays():
        n = arr.vertex_count()
        closed = eigensystem_from_array(arr, n)
        bisected = eigensystem_from_array(IntersectionArray(arr.b, arr.c), n)
        assert closed == bisected
        assert (closed.D, closed.DQ) == (bisected.D, bisected.DQ)
        assert eigensystem_to_json(closed, "x", {}) == eigensystem_to_json(bisected, "x", {})


@pytest.mark.parametrize("family", ["hamming", "grassmann", "twisted"])
def test_closed_form_eigenvalues_match_the_bisection(family):
    # every array of the family with d <= 8 and prime q <= 7 (Grassmann at
    # v = 2d and 2d + 3): the closed form on the array equals the Sturm
    # bisection on the same b and c with no parameters
    primes = (2, 3, 5, 7)
    if family == "hamming":
        arrays = [hamming_intersection_array(d, q) for d in range(1, 9) for q in primes]
    elif family == "grassmann":
        arrays = [grassmann_intersection_array(q, v, d) for d in range(1, 9)
                  for q in primes for v in (2 * d, 2 * d + 3)]
    else:
        arrays = [twisted_intersection_array(q, d) for d in range(2, 9) for q in primes]
    for arr in arrays:
        plain = IntersectionArray(arr.b, arr.c)
        assert scheme._eigenvalues(arr, arr.a()) == scheme._eigenvalues(plain, plain.a()), arr


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda th: (th[0] + 1,) + th[1:], id="theta_0+1"),
    pytest.param(lambda th: th[:3] + (th[3] - 1,) + th[4:], id="theta_3-1"),
    pytest.param(lambda th: th[:-1] + (th[-1] + 1,), id="theta_d+1"),
    pytest.param(lambda th: (th[0], th[2], th[1]) + th[3:], id="swapped"),
    pytest.param(lambda th: (th[0], th[1], th[1]) + th[3:], id="repeated"),
])
def test_a_wrong_closed_form_eigenvalue_is_refused(monkeypatch, tamper):
    # a root one off, or true roots out of order or repeated: the exact
    # check refuses each, as no eigenvalue is taken from the formula alone
    arr = grassmann_intersection_array(3, 12, 6)
    real = scheme._classical_eigenvalues
    monkeypatch.setattr(scheme, "_classical_eigenvalues", lambda a: tamper(real(a)))
    with pytest.raises(DrgError, match="closed-form eigenvalue"):
        eigensystem_from_array(arr, arr.vertex_count())


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
            scheme._descending_eigensystem(arr, n)
        return
    try:
        sys_ = scheme._descending_eigensystem(arr, n)
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
        assert [[list(row) for row in plane] for plane in kt] == oracle
