from fractions import Fraction

import numpy as np
import pytest

from _oracles import adjacency_matrix, lagrange_idempotents, mat_mul, mat_rank, mat_scale
from drgcert.errors import IrrationalEigenvalue, NotQPolynomial, ParameterError
from drgcert.exact import ExactMatrix
from drgcert.graphs import IntersectionArray, build_hamming, distance_census
from drgcert.scheme import (
    KreinTensor,
    eigensystem_cache_key,
    eigensystem_from_array,
    eigensystem_from_json,
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
    assert sys_.P * sys_.Q == ExactMatrix.identity(d + 1).scale(n)
    assert sys_.Q * sys_.P == ExactMatrix.identity(d + 1).scale(n)
    assert sys_.P.row(0) == tuple(Fraction(x) for x in sys_.k)
    assert sys_.P.column(0) == (Fraction(1),) * (d + 1)
    assert sys_.Q.column(0) == (Fraction(1),) * (d + 1)
    assert tuple(int(x) for x in sys_.Q.row(0)) == sys_.m
    assert all(mj > 0 for mj in sys_.m)
    assert sum(sys_.m) == n
    assert sum(sys_.k) == n


@pytest.mark.parametrize("family,args", LARGER)
def test_krein_basics(family, args, built):
    _, _, _, sys_ = built(family, *args)
    kt = krein_parameters(sys_)
    d = sys_.d
    for j in range(d + 1):
        for kk in range(d + 1):
            assert kt.q(kk, 0, j) == (1 if j == kk else 0)
    verdict = verify_q_polynomial(kt)
    assert verdict.natural_ok
    assert tuple(range(d + 1)) in verdict.passing


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


@pytest.mark.parametrize("family,args", SMALL + [("twisted", (2, 2)), ("grassmann", (2, 5, 2))])
def test_krein_cross_check(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    krein_cross_check(g, census, sys_)


def test_twisted_and_grassmann_share_eigensystem(built):
    _, _, _, sys_tw = built("twisted", 2, 2)
    _, _, _, sys_gr = built("grassmann", 2, 5, 2)
    assert sys_tw.Q == sys_gr.Q
    assert sys_tw.P == sys_gr.P
    assert sys_tw.m == sys_gr.m
    assert sys_tw.passing_orderings == sys_gr.passing_orderings


def test_irrational_eigenvalues_rejected():
    # pentagon: {2, 1; 1, 1}, spectrum contains golden-ratio values
    arr = IntersectionArray((2, 1), (1, 1))
    with pytest.raises(IrrationalEigenvalue):
        eigensystem_from_array(arr, 5)


def test_vertex_count_mismatch():
    arr = IntersectionArray((2, 1), (1, 1))
    with pytest.raises(ParameterError):
        eigensystem_from_array(arr, 6)


def test_not_q_polynomial_tensor():
    # synthetic tensor with every q^k_{1i}, k = i +- 1, equal to zero:
    # no ordering can pass
    d = 2
    vals = tuple(
        tuple(
            tuple(Fraction(1 if i == j == kk else 0) for j in range(d + 1))
            for i in range(d + 1)
        )
        for kk in range(d + 1)
    )
    with pytest.raises(NotQPolynomial):
        verify_q_polynomial(KreinTensor(vals))


def test_eigensystem_cache_roundtrip(built):
    _, _, _, sys_ = built("johnson", 7, 3)
    text = eigensystem_to_json(sys_, "johnson", {"v": 7, "d": 3})
    back, family, params = eigensystem_from_json(text)
    assert family == "johnson" and params == {"v": 7, "d": 3}
    assert back == sys_
    assert eigensystem_to_json(back, family, params) == text
    key = eigensystem_cache_key("johnson", {"v": 7, "d": 3})
    assert key == eigensystem_cache_key("johnson", {"d": 3, "v": 7})
    assert key != eigensystem_cache_key("johnson", {"v": 9, "d": 4})
