import dataclasses
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from _oracles import certificate_by_fractions, hamming_certificate_by_fractions, krawtchouk_by_sum
from drgcert import exact, lp_cert, scheme
from drgcert.errors import (
    DrgError,
    InfeasibleCertificate,
    ParameterError,
    UnsupportedFamily,
    WidthTooLarge,
)
from drgcert.exact import solve_linear_exact
from drgcert.graphs import (
    grassmann_intersection_array,
    hamming_intersection_array,
    twisted_intersection_array,
)
from drgcert.lp_cert import (
    certify_subset,
    expected_bound,
    hamming_certificate,
    krawtchouk_matrix,
    solve_certificate,
)
from drgcert.scheme import eigensystem_from_array
from drgcert.subsets import VertexSubset, inner_distribution, width_and_dual_width

F = Fraction


def pair_histogram(words, dist_fn, dmax):
    counts = [0] * (dmax + 1)
    for a in words:
        for b in words:
            counts[dist_fn(a, b)] += 1
    return counts


def hamming_dist(a, b):
    return sum(x != y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# the generic linear-solve route; expected f vectors frozen from an
# independent exact eigendecomposition of each graph


def test_johnson73_certificate(built):
    _, _, _, sys_ = built("johnson", 7, 3)
    cert = solve_certificate(sys_, 1)
    assert cert.f == (1, 0, F(5, 7), F(2, 7))
    assert cert.feasible and cert.bound == 15


def test_johnson94_certificates(built):
    _, _, _, sys_ = built("johnson", 9, 4)
    cert1 = solve_certificate(sys_, 1)
    assert cert1.f == (1, 0, F(7, 9), F(2, 9), F(5, 9))
    assert cert1.feasible and cert1.bound == 56
    # at t=2 the unique solution has f_4 = 0: infeasible, and indeed the
    # published hypothesis v > (t+1)(d-t+1) fails here (9 = 9).  The bound
    # value still evaluates to 21.
    cert2 = solve_certificate(sys_, 2)
    assert cert2.f == (1, 0, 0, F(5, 12), 0)
    assert not cert2.feasible
    assert not cert2.positive_tail
    assert cert2.dual_constraints_ok
    assert cert2.bound == 21
    assert cert2.proves_bound  # f >= 0 still gives the inequality
    cert3 = solve_certificate(sys_, 3)
    assert cert3.f == (1, 0, 0, 0, F(5, 42))
    assert cert3.feasible and cert3.bound == 6


def test_a_negative_tail_proves_no_bound(built):
    # J(10,5) t=3, in the Ahlswede-Khachatrian regime: the pinned value 21
    # is below the optimum 26, and f says nothing about it
    _, _, _, sys_ = built("johnson", 10, 5)
    cert = solve_certificate(sys_, 3)
    assert cert.f == (1, 0, 0, 0, F(5, 12), F(-5, 12)) and cert.bound == 21
    assert cert.dual_constraints_ok and not cert.proves_bound and not cert.feasible


def test_hamming33_certificates(built):
    _, _, _, sys_ = built("hamming", 3, 3)
    cert = solve_certificate(sys_, 1)
    assert cert.f == (1, 0, F(1, 2), F(1, 4))
    assert cert.feasible and cert.bound == 9
    cert2 = solve_certificate(sys_, 2)
    assert cert2.f == (1, 0, 0, F(1, 4))
    assert cert2.feasible and cert2.bound == 3


def test_hamming44_certificates(built):
    _, _, _, sys_ = built("hamming", 4, 4)
    expected = {
        1: ((1, 0, F(1, 3), F(2, 9), F(7, 27)), 64),
        2: ((1, 0, 0, F(1, 9), F(1, 27)), 16),
        3: ((1, 0, 0, 0, F(1, 27)), 4),
    }
    for t, (f, bound) in expected.items():
        cert = solve_certificate(sys_, t)
        assert cert.f == f and cert.feasible and cert.bound == bound


def test_grassmann_and_bilinear_certificates(built):
    _, _, _, sys_ = built("grassmann", 2, 4, 2)
    cert = solve_certificate(sys_, 1)
    assert cert.f == (1, 0, F(3, 10)) and cert.feasible and cert.bound == 7
    _, _, _, sys_ = built("grassmann", 2, 5, 2)
    cert = solve_certificate(sys_, 1)
    assert cert.f == (1, 0, F(7, 62)) and cert.feasible and cert.bound == 15
    _, _, _, sys_ = built("bilinear", 2, 2, 2)
    cert = solve_certificate(sys_, 1)
    assert cert.f == (1, 0, F(1, 2)) and cert.feasible and cert.bound == 4


def test_twisted_certificate(built):
    _, _, _, sys_ = built("twisted", 2, 2)
    cert = solve_certificate(sys_, 1)
    assert cert.f == (1, 0, F(7, 62)) and cert.feasible and cert.bound == 15


def test_certificate_t_range(built):
    _, _, _, sys_ = built("johnson", 7, 3)
    with pytest.raises(ParameterError):
        solve_certificate(sys_, 0)
    with pytest.raises(ParameterError):
        solve_certificate(sys_, 3)


def test_solution_independent_of_equation_order(built):
    # the constraint system is square and nonsingular, so any row/column
    # permutation must give the same f
    _, _, _, sys_ = built("johnson", 9, 4)
    t = 1
    d = sys_.d
    m = d - t
    rows = [sys_.Q.rows[j][t + 1:] for j in range(1, m + 1)]
    rhs = [-sys_.Q.rows[j][0] for j in range(1, m + 1)]
    base = solve_linear_exact(rows, rhs)
    rng = random.Random(4)
    for _ in range(5):
        perm = list(range(m))
        rng.shuffle(perm)
        colperm = list(range(m))
        rng.shuffle(colperm)
        shuffled = [[rows[p][c] for c in colperm] for p in perm]
        sol = solve_linear_exact(shuffled, [rhs[p] for p in perm])
        assert tuple(sol[colperm.index(c)] for c in range(m)) == base


@pytest.mark.parametrize("arr", [
    *(pytest.param(hamming_intersection_array(d, d), id=f"H({d},{d})")
      for d in (4, 5, 6, 7, 8, 10)),
    *(pytest.param(grassmann_intersection_array(q, v, d), id=f"J_{q}({v},{d})")
      for q, v, d in [(2, 16, 8), (3, 12, 6), (5, 8, 4), (3, 10, 5)]),
    *(pytest.param(twisted_intersection_array(q, d), id=f"twisted({q},{d})")
      for q, d in [(2, 6), (3, 3), (2, 3), (5, 2)]),
])
def test_certificates_match_fraction_elimination(arr):
    # every array the parameter tier certifies, every t: each field equals
    # the one from Gauss-Jordan over Fractions
    sys_ = eigensystem_from_array(arr, arr.vertex_count())
    Q = [list(row) for row in sys_.Q.rows]
    for t in range(1, arr.d):
        cert = solve_certificate(sys_, t)
        fields = certificate_by_fractions(Q, t)
        assert dataclasses.asdict(cert) == fields
        assert cert.proves_bound == (fields["normalization_ok"] and fields["zero_block_ok"]
                                     and fields["dual_constraints_ok"] and min(fields["f"]) >= 0)


@pytest.mark.parametrize("d,q", [(3, 2), (5, 5), (6, 6), (8, 8)])
def test_mds_certificates_match_fraction_elimination(d, q):
    for t in range(1, d):
        assert (dataclasses.asdict(hamming_certificate(d, q, t))
                == hamming_certificate_by_fractions(d, q, t))


# ---------------------------------------------------------------------------
# the MDS route for Hamming graphs


def mds_inner_distribution(d, q, t):
    """e'_i = f_i C(d,i) (q-1)^i from the MDS-route certificate."""
    f = hamming_certificate(d, q, t).f
    return tuple(fi * comb(d, i) * (q - 1) ** i for i, fi in enumerate(f))


def test_mds_vector_matches_code_census():
    # oracle: the 9-word ternary parity code {(a, b, a+b)}
    code = [(a, b, (a + b) % 3) for a in range(3) for b in range(3)]
    counts = pair_histogram(code, hamming_dist, 3)
    e_code = tuple(F(c, len(code)) for c in counts)
    assert e_code == (1, 0, 6, 2)
    assert mds_inner_distribution(3, 3, 1) == (1, 0, 6, 2)


def test_mds_vector_repetition_codes():
    code = [(0, 0, 0), (1, 1, 1)]
    counts = pair_histogram(code, hamming_dist, 3)
    assert tuple(F(c, 2) for c in counts) == (1, 0, 0, 1)
    assert mds_inner_distribution(3, 2, 2) == (1, 0, 0, 1)
    assert mds_inner_distribution(2, 2, 1) == (1, 0, 1)
    # ternary repetition: e' = (1, 0, 0, 2)
    assert mds_inner_distribution(3, 3, 2) == (1, 0, 0, 2)


def test_hamming_certificate_route():
    cert = hamming_certificate(3, 3, 1)
    assert cert.f == (1, 0, F(1, 2), F(1, 4))
    assert cert.feasible and cert.bound == 9
    cert = hamming_certificate(3, 3, 2)
    assert cert.f == (1, 0, 0, F(1, 4))
    assert cert.feasible and cert.bound == 3


def test_hamming_certificate_infeasible_boundary():
    # binary even-weight code: e' = (1, 0, 3, 0), so f_3 = 0
    code = [w for w in itertools.product(range(2), repeat=3) if sum(w) % 2 == 0]
    counts = pair_histogram(code, hamming_dist, 3)
    assert tuple(F(c, 4) for c in counts) == (1, 0, 3, 0)
    cert = hamming_certificate(3, 2, 1)
    assert cert.f == (1, 0, 1, 0)
    assert not cert.feasible
    assert not cert.positive_tail
    assert cert.zero_block_ok and cert.normalization_ok and cert.dual_constraints_ok
    assert cert.bound == 4  # value computed, validity not asserted
    cert2 = hamming_certificate(3, 2, 2)
    assert cert2.f == (1, 0, 0, 1) and cert2.feasible and cert2.bound == 2


@pytest.mark.parametrize(
    "d,q,ts",
    [(3, 3, (1, 2)), (4, 4, (1, 2, 3)), (3, 2, (1, 2)),
     (5, 5, range(1, 5)), (6, 6, range(1, 6)), (8, 8, range(1, 8))],
)
def test_routes_agree_on_hamming(d, q, ts):
    sys_ = eigensystem_from_array(hamming_intersection_array(d, q), q ** d)
    assert krawtchouk_matrix(d, q) == sys_.Q.rows
    for t in ts:
        assert hamming_certificate(d, q, t).f == solve_certificate(sys_, t).f


def test_krawtchouk_recurrence_matches_the_closed_form():
    for q in range(2, 11):
        for d in range(11):
            K = krawtchouk_matrix(d, q)
            assert K == tuple(map(tuple, krawtchouk_by_sum(d, q))), (d, q)
            assert all(type(x) is int for row in K for x in row)


def test_mds_route_builds_no_eigensystem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the MDS route must not build an eigensystem")

    sys_ = eigensystem_from_array(hamming_intersection_array(5, 5), 5 ** 5)
    solved = [solve_certificate(sys_, t) for t in range(1, 5)]
    monkeypatch.setattr(scheme, "eigensystem_from_array", refuse)
    monkeypatch.setattr(lp_cert, "eigensystem_from_array", refuse, raising=False)
    for t, expected in enumerate(solved, start=1):
        cert = hamming_certificate(5, 5, t)
        assert cert == expected and cert.feasible and cert.bound == 5 ** (5 - t)


def test_certificates_solve_on_integer_rows(monkeypatch):
    # once an eigensystem exists, neither route forms a matrix of Fractions:
    # the solve takes D*Q, or the Krawtchouk rows, as integer rows
    arrays = [hamming_intersection_array(5, 5), twisted_intersection_array(2, 3)]
    fresh = [eigensystem_from_array(arr, arr.vertex_count()) for arr in arrays]

    def refuse(self, rows):
        raise AssertionError("a certificate built an ExactMatrix")

    monkeypatch.setattr(exact.ExactMatrix, "__init__", refuse)
    for sys_ in fresh:
        assert sys_.certificates == {}
        for t in range(1, sys_.d):
            assert dataclasses.asdict(solve_certificate(sys_, t)) == \
                certificate_by_fractions(sys_.Q.rows, t)
    for t in range(1, 5):
        assert dataclasses.asdict(hamming_certificate(5, 5, t)) == \
            hamming_certificate_by_fractions(5, 5, t)


def test_certificates_fail_re_substitution_after_a_bad_elimination(monkeypatch):
    # both routes keep the solve's integers over its determinant; an
    # elimination that gets one numerator wrong must not become a certificate
    real = exact._eliminate

    def off_by_one(M, n):
        det = real(M, n)
        M[n - 1][n] += 1
        return det

    sys_ = eigensystem_from_array(hamming_intersection_array(5, 5), 5 ** 5)
    monkeypatch.setattr(exact, "_eliminate", off_by_one)
    for solve in (lambda: solve_certificate(sys_, 2), lambda: hamming_certificate(5, 5, 2)):
        with pytest.raises(DrgError) as exc:
            solve()
        assert exc.type is DrgError and "re-substitution" in str(exc.value)
    assert sys_.certificates == {}


@pytest.mark.parametrize("d,q,t", [(3, 3, 0), (3, 3, 3), (1, 3, 1), (3, 1, 1)])
def test_hamming_certificate_refuses_out_of_range_parameters(d, q, t):
    with pytest.raises(ParameterError):
        hamming_certificate(d, q, t)


# ---------------------------------------------------------------------------
# closed-form bound table


def test_expected_bound_values():
    assert expected_bound("johnson", {"v": 7, "d": 3}, 1) == (15, True)
    assert expected_bound("johnson", {"v": 9, "d": 4}, 1) == (56, True)
    # 9 = (2+1)(4-2+1): the strict hypothesis fails at the boundary
    assert expected_bound("johnson", {"v": 9, "d": 4}, 2) == (21, False)
    assert expected_bound("hamming", {"d": 3, "q": 3}, 1) == (9, True)
    assert expected_bound("hamming", {"d": 3, "q": 2}, 1) == (4, False)
    assert expected_bound("hamming", {"d": 3, "q": 2}, 2) == (2, True)
    assert expected_bound("grassmann", {"q": 2, "v": 4, "d": 2}, 1) == (7, True)
    assert expected_bound("grassmann", {"q": 2, "v": 5, "d": 2}, 1) == (15, True)
    assert expected_bound("bilinear", {"q": 2, "d": 2, "e": 2}, 1) == (4, True)
    assert expected_bound("twisted", {"q": 2, "d": 2}, 1) == (15, True)
    assert expected_bound("twisted", {"q": 2, "d": 3}, 2) == (31, True)
    with pytest.raises(UnsupportedFamily):
        expected_bound("petersen", {}, 1)
    with pytest.raises(ParameterError):
        expected_bound("johnson", {"v": 7, "d": 3}, 3)


def test_feasible_bounds_match_table(built):
    rows = [
        ("johnson", (7, 3), 1),
        ("johnson", (9, 4), 1),
        ("hamming", (3, 3), 1),
        ("hamming", (3, 3), 2),
        ("hamming", (4, 4), 1),
        ("hamming", (4, 4), 2),
        ("hamming", (4, 4), 3),
        ("grassmann", (2, 4, 2), 1),
        ("grassmann", (2, 5, 2), 1),
        ("bilinear", (2, 2, 2), 1),
        ("twisted", (2, 2), 1),
    ]
    for family, args, t in rows:
        graph, _, _, sys_ = built(family, *args)
        cert = solve_certificate(sys_, t)
        value, _ = expected_bound(family, graph.params, t)
        assert cert.feasible, (family, args, t)
        assert cert.bound == value, (family, args, t)


# ---------------------------------------------------------------------------
# certifying subsets


def test_certify_star_tight(built):
    g, census, _, sys_ = built("johnson", 7, 3)
    cert = solve_certificate(sys_, 1)
    star = VertexSubset(g, [i for i, lab in enumerate(g.vertices) if 1 in lab])
    dist = inner_distribution(star, census, sys_)
    report = certify_subset(dist, cert)
    assert report.verdict == "tight"
    assert report.size == report.bound == 15
    assert report.width_is_extremal and report.dual_width_is_extremal
    assert report.slack == 0


def test_certify_singleton_strict(built):
    g, census, _, sys_ = built("johnson", 7, 3)
    cert = solve_certificate(sys_, 1)
    dist = inner_distribution(VertexSubset(g, [0]), census, sys_)
    report = certify_subset(dist, cert)
    assert report.verdict == "strict"
    assert report.size == 1 and report.bound == 15
    assert report.slack == report.bound - report.size


def test_certify_twisted_x2_tight(built):
    g, census, _, sys_ = built("twisted", 2, 2)
    cert = solve_certificate(sys_, 1)
    x2 = VertexSubset(g, [i for i, lab in enumerate(g.vertices) if lab[0] == "X2"])
    dist = inner_distribution(x2, census, sys_)
    report = certify_subset(dist, cert)
    assert report.verdict == "tight" and report.size == 15


def test_certify_width_too_large(built):
    g, census, _, sys_ = built("johnson", 7, 3)
    cert = solve_certificate(sys_, 1)
    a = g.index_of((1, 2, 3))
    b = g.index_of((4, 5, 6))  # disjoint triples: width 3 > d - t = 2
    dist = inner_distribution(VertexSubset(g, [a, b]), census, sys_)
    with pytest.raises(WidthTooLarge):
        certify_subset(dist, cert)


def test_certify_requires_feasible(built):
    g, census, _, sys_ = built("hamming", 3, 2)
    cert = solve_certificate(sys_, 1)
    assert not cert.feasible
    dist = inner_distribution(VertexSubset(g, [0]), census, sys_)
    with pytest.raises(InfeasibleCertificate):
        certify_subset(dist, cert)


def test_random_intersecting_families_bounded(built):
    # grow greedy width-limited families and check |Y| <= bound throughout
    g, census, _, sys_ = built("johnson", 7, 3)
    cert = solve_certificate(sys_, 1)
    rng = random.Random(11)
    for _ in range(50):
        order = list(range(g.n))
        rng.shuffle(order)
        chosen = []
        for v in order:
            if all(census.d(v, u) <= 2 for u in chosen):
                chosen.append(v)
        dist = inner_distribution(VertexSubset(g, chosen), census, sys_)
        report = certify_subset(dist, cert)
        assert report.size <= report.bound
        rep = width_and_dual_width(dist)
        if report.verdict == "tight":
            assert rep.descendent
