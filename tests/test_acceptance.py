"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
All checks are exact (rational arithmetic); no tolerances anywhere.
"""
import contextlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from _oracles import mat_eye, mat_mul, mat_scale
from drgcert.exact import q_binomial
from drgcert.ekr_search import (
    enumerate_descendent_families,
    max_clique,
    threshold_graph,
    verify_descendent_family,
    verify_theorem,
)
from drgcert.graphs import twisted_intersection_array
from drgcert.lp_cert import (
    expected_bound,
    hamming_certificate,
    solve_certificate,
)
from drgcert.scheme import (
    eigensystem_from_array,
    krein_cross_check,
    krein_parameters,
)
from drgcert.subsets import VertexSubset, inner_distribution, width_and_dual_width


@contextlib.contextmanager
def criterion(cid, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} [{description}]: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {cid} [{description}]: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_1_twisted_theorem_at_221(built):
    with criterion(1, "twisted theorem at (q,d,t)=(2,2,1)"):
        report = verify_theorem(2, 2, 1)
        assert report.passed
        assert report.optimum == 15 == q_binomial(4, 1, 2)
        assert report.n_maximizers == 1
        assert report.maximizers_match and not report.truncated


def test_criterion_2_parameter_coincidence(built):
    with criterion(2, "twisted(2,2) and J_2(5,2) share array and Q"):
        _, _, arr_tw, sys_tw = built("twisted", 2, 2)
        _, _, arr_gr, sys_gr = built("grassmann", 2, 5, 2)
        assert arr_tw == arr_gr
        assert sys_tw.Q == sys_gr.Q
        assert sys_tw.P == sys_gr.P
        assert sys_tw.m == sys_gr.m


def test_criterion_3_classical_ekr_oracle(built):
    with criterion(3, "J(7,3) t=1: bound 15, exactly the 7 stars"):
        g, census, _, sys_ = built("johnson", 7, 3)
        cert = solve_certificate(sys_, 1)
        assert cert.feasible and cert.bound == 15
        result = max_clique(threshold_graph(g, census, 1), upper_bound_hint=15)
        assert result.optimum == 15 and not result.truncated
        stars = {
            frozenset(i for i, lab in enumerate(g.vertices) if x in lab)
            for x in range(1, 8)
        }
        assert {frozenset(f) for f in result.families} == stars


def test_criterion_4_fundamental_inequality_suite(built):
    with criterion(4, "w + w* >= d on 1000 random subsets across 5 graphs"):
        instances = [
            ("johnson", (7, 3)),
            ("hamming", (3, 3)),
            ("grassmann", (2, 4, 2)),
            ("bilinear", (2, 2, 2)),
            ("twisted", (2, 2)),
        ]
        rng = random.Random(20110529)
        checked = 0
        for family, args in instances:
            g, census, _, sys_ = built(family, *args)
            for _ in range(200):
                sub = VertexSubset(g, rng.sample(range(g.n), rng.randint(1, g.n)))
                dist = inner_distribution(sub, sys_)
                rep = width_and_dual_width(dist)  # raises on any violation
                assert rep.width + rep.dual_width >= sys_.d
                assert rep.descendent == (rep.width + rep.dual_width == sys_.d)
                checked += 1
        assert checked == 1000


def test_criterion_5_certificate_table(built):
    rows = [
        ("johnson", (7, 3), 1, 15),
        ("johnson", (9, 4), 2, 21),
        ("hamming", (3, 3), 1, 9),
        ("hamming", (3, 3), 2, 3),
        ("hamming", (4, 4), 1, 64),
        ("hamming", (4, 4), 2, 16),
        ("hamming", (4, 4), 3, 4),
        ("grassmann", (2, 4, 2), 1, 7),
        ("grassmann", (2, 5, 2), 1, 15),
        ("bilinear", (2, 2, 2), 1, 4),
        ("twisted", (2, 2), 1, 15),
    ]
    with criterion(5, "closed-form bound table reproduction"):
        failures = []
        for family, args, t, table in rows:
            graph, _, _, sys_ = built(family, *args)
            cert = solve_certificate(sys_, t)
            value, hypothesis_met = expected_bound(family, graph.params, t)
            assert value == table
            if cert.bound != table:
                failures.append((family, args, t, "bound", str(cert.bound)))
            if not (cert.normalization_ok and cert.zero_block_ok
                    and cert.dual_constraints_ok):
                failures.append((family, args, t, "constraints", str(cert.f)))
            # feasible means a strictly positive tail, which also proves that
            # only descendents reach the bound; it must track the hypothesis
            if cert.feasible is not hypothesis_met:
                failures.append((family, args, t, "feasible", str(cert.f)))
            if not hypothesis_met:
                # Boundary row J(9,4) t=2: f = (1, 0, 0, 5/12, 0).  A
                # nonnegative f still proves the table bound; a zero in the
                # tail only loses the equality clause, since non-descendent
                # Frankl families also reach it (see the companion test
                # test_exact_behaviour_at_johnson94_t2 and drgcert.lp_cert).
                tail = cert.f[t + 1:]
                if not (all(x >= 0 for x in cert.f) and 0 in tail):
                    failures.append((family, args, t, "boundary", str(cert.f)))
        assert failures == [], f"table rows not reproduced exactly: {failures}"


def test_criterion_6_hamming_infeasibility_boundary():
    with criterion(6, "H(3,2) t=1 certificate infeasible with f_3 = 0"):
        cert = hamming_certificate(3, 2, 1)
        assert not cert.feasible
        assert cert.f[3] == 0
        assert cert.f == (1, 0, 1, 0)
        assert not cert.positive_tail
        assert cert.dual_constraints_ok
        _, hypothesis = expected_bound("hamming", {"d": 3, "q": 2}, 1)
        assert hypothesis is False


def test_criterion_7_eigensystem_self_consistency(built):
    instances = [
        ("hamming", (1, 3)),
        ("hamming", (2, 2)),
        ("johnson", (5, 2)),
        ("bilinear", (2, 2, 2)),
        ("hamming", (3, 3)),
        ("johnson", (7, 3)),
        ("grassmann", (2, 4, 2)),
        ("johnson", (9, 4)),
        ("twisted", (2, 2)),
        ("grassmann", (2, 5, 2)),
    ]
    with criterion(7, "PQ = |X| I, multiplicities, Krein vs idempotents, tridiagonality"):
        for family, args in instances:
            g, census, _, sys_ = built(family, *args)
            assert g.n <= 200
            d = sys_.d
            assert mat_mul(sys_.P.rows, sys_.Q.rows) == mat_scale(g.n, mat_eye(d + 1))
            assert all(isinstance(mj, int) and mj > 0 for mj in sys_.m)
            assert sum(sys_.m) == g.n
            kt = krein_parameters(sys_)
            for i in range(d + 1):
                for kk in range(d + 1):
                    val = kt[kk][1][i]
                    if abs(kk - i) > 1:
                        assert val == 0, (family, args, kk, i)
                    if abs(kk - i) == 1:
                        assert val != 0, (family, args, kk, i)
            krein_cross_check(g, census, sys_)


def test_criterion_8_descendent_forward_check_232():
    with criterion(8, "(2,3,2): all 63 families size 31, w=1, w*=2, tight"):
        # parameter tier only: the 11811-vertex graph is never materialized
        arr = twisted_intersection_array(2, 3)
        n = arr.vertex_count()
        assert n == 11811
        sys_ = eigensystem_from_array(arr, n)
        cert = solve_certificate(sys_, 2)
        assert cert.feasible
        assert cert.bound == 31 == q_binomial(5, 1, 2)
        families = enumerate_descendent_families(2, 3, 2)
        assert len(families) == 63
        for fam in families:
            assert fam.size == 31
            wr, cr = verify_descendent_family(fam, 2, 3, 2, sys_)
            assert wr.width == 1
            assert wr.dual_width == 2
            assert wr.descendent
            assert cr.verdict == "tight"
            assert cr.size == Fraction(31) == cr.bound


def test_exact_behaviour_at_johnson94_t2(built):
    """Companion to criterion 5: pins the true exact outcome at the
    boundary row v = (t+1)(d-t+1), where the bound holds but the extremal
    families are not only descendents, so no strictly positive certificate
    can exist."""
    g, census, _, sys_ = built("johnson", 9, 4)
    cert = solve_certificate(sys_, 2)
    assert cert.f == (1, 0, 0, Fraction(5, 12), 0)
    assert cert.bound == 21
    assert cert.dual_constraints_ok and cert.zero_block_ok
    assert not cert.positive_tail and not cert.feasible
    value, hypothesis_met = expected_bound("johnson", {"v": 9, "d": 4}, 2)
    assert value == 21 and hypothesis_met is False

    # Independent witness: the maxima are the 36 stars {A : A >= {a,b}}
    # (descendents) and the 126 Frankl families {A : |A & T| >= 3}, |T| = 4
    # (not descendents), so a strictly positive f, which would allow only
    # descendents at equality, is impossible here.
    result = max_clique(threshold_graph(g, census, 2))
    assert result.optimum == 21 and not result.truncated
    assert len(result.families) == 162

    def family(member):
        return frozenset(i for i, lab in enumerate(g.vertices) if member(set(lab)))

    def widths(fam):
        dist = inner_distribution(VertexSubset(g, sorted(fam)), sys_)
        return width_and_dual_width(dist)

    stars = {family(lambda A: set(p) <= A) for p in combinations(range(1, 10), 2)}
    frankl = {family(lambda A: len(A & set(T)) >= 3) for T in combinations(range(1, 10), 4)}
    maxima = {frozenset(f) for f in result.families}
    assert maxima == stars | frankl
    for star in stars:
        rep = widths(star)
        assert (rep.width, rep.dual_width, rep.descendent) == (2, 2, True)
    witness = family(lambda A: len(A & {1, 2, 3, 4}) >= 3)
    assert witness in maxima
    rep = widths(witness)
    assert (rep.width, rep.dual_width, rep.descendent) == (2, 4, False)
