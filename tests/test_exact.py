import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import event, given, strategies as st

from _oracles import mat_eye, mat_from_int, mat_mul, mat_rank
from drgcert import exact
from drgcert.errors import DrgError, ParameterError, SingularSystem, TierLimitExceeded
from drgcert.exact import (
    ExactMatrix,
    format_fraction,
    is_prime,
    q_binomial,
    q_int,
    rref_gf,
    solve_linear_exact,
)


def brute_subspace_count(n, k):
    # oracle: enumerate spanning sets over GF(2)^n, close under addition,
    # deduplicate by the resulting point set
    seen = set()
    for combo in itertools.combinations(range(1, 2 ** n), k):
        span = {0}
        for v in combo:
            span |= {x ^ v for x in span}
        if len(span) == 2 ** k:
            seen.add(frozenset(span))
    return len(seen)


def test_q_binomial_against_enumeration():
    assert q_binomial(4, 0, 2) == 1
    assert q_binomial(4, 1, 2) == 15 == brute_subspace_count(4, 1)
    assert q_binomial(5, 2, 2) == 155 == brute_subspace_count(5, 2)


def test_q_binomial_edge_cases():
    assert q_binomial(3, 5, 2) == 0
    assert q_binomial(0, 0, 2) == 1
    with pytest.raises(ParameterError):
        q_binomial(-1, 0, 2)
    with pytest.raises(ParameterError):
        q_binomial(3, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_q_binomial_symmetry_and_pascal(q):
    for m in range(9):
        for n in range(m + 1):
            assert q_binomial(m, n, q) == q_binomial(m, m - n, q)
            if m >= 1 and n >= 1:
                assert q_binomial(m, n, q) == (
                    q_binomial(m - 1, n - 1, q) + q ** n * q_binomial(m - 1, n, q)
                )


def test_q_int():
    assert q_int(3, 2) == 7
    assert q_int(1, 5) == 1
    assert q_int(4, 3) == 40


def test_solve_identity():
    assert solve_linear_exact(mat_eye(3), [1, 2, 3]) == (1, 2, 3)


def test_solve_diagonal():
    assert solve_linear_exact([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))


def test_solve_singular():
    with pytest.raises(SingularSystem):
        solve_linear_exact([[1, 1], [2, 2]], [1, 1])


def test_solve_takes_integer_rows_as_they_are():
    # a tuple of int rows, as an eigensystem's D*Q is, scaled by D or not,
    # has the solution of the same rows as Fractions
    A = ((3, -1, 2), (0, 5, 7), (4, 4, -6))
    b = (1, -2, 9)
    x = solve_linear_exact(A, b)
    assert all(type(v) is Fraction for v in x)
    assert x == solve_linear_exact([[Fraction(a) for a in row] for row in A], b)
    assert x == solve_linear_exact([[6 * a for a in row] for row in A], [6 * v for v in b])


@pytest.mark.parametrize("A,b", [
    ([[0.5, 1], [1, 2]], [1, 1]),
    ([[1, 2], [3, Fraction(1, 2)]], [1.0, 1]),
    ([[1, 2], [3, 4.0]], [1, 1]),
])
def test_solve_refuses_a_float_anywhere(A, b):
    with pytest.raises(TypeError, match="float"):
        solve_linear_exact(A, b)


@pytest.mark.parametrize("A,b", [
    ([[1, 2], [3]], [1, 1]),  # ragged
    ([[1], [3, 4]], [1, 1]),  # ragged
    ([[1, 2, 3], [4, 5, 6]], [1, 1]),  # 2 x 3
    ([[1, 2], [3, 4], [5, 6]], [1, 1, 1]),  # 3 x 2
    ([[1, 2], [3, 4]], [1, 1, 1]),  # b too long
])
def test_solve_refuses_a_non_square_or_ragged_system(A, b):
    with pytest.raises(ParameterError):
        solve_linear_exact(A, b)


def test_solve_random_systems_resubstitute():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        try:
            x = solve_linear_exact(A, b)
        except SingularSystem:
            continue
        assert [sum(a * xj for a, xj in zip(row, x)) for row in A] == b


def test_matrix_inverse_and_product():
    A = ExactMatrix([[1, 2], [3, 5]])
    inv = A.inverse()
    assert mat_mul(A.rows, inv.rows) == mat_eye(2)
    assert mat_mul(inv.rows, A.rows) == mat_eye(2)
    with pytest.raises(SingularSystem):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rational_systems(draw):
    """(A, b) with A n x n, n <= 5; about half have a row of A that is a
    rational combination of the others, so A is singular."""
    n = draw(st.integers(1, 5))
    A = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        coeffs = [draw(rationals) for _ in range(n)]
        A[r] = [sum((c * row[j] for i, (c, row) in enumerate(zip(coeffs, A)) if i != r),
                    Fraction(0)) for j in range(n)]
    return A, [draw(rationals) for _ in range(n)]


def _from_sympy(x):
    return Fraction(int(x.p), int(x.q))


@given(rational_systems())
def test_solve_and_inverse_match_sympy(system):
    A, b = system
    n = len(A)
    M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in A])
    singular = M.rank() < n
    event("singular" if singular else "nonsingular")
    if singular:
        with pytest.raises(SingularSystem):
            solve_linear_exact(A, b)
        with pytest.raises(SingularSystem):
            ExactMatrix(A).inverse()
        return
    x = M.LUsolve(sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b]))
    assert solve_linear_exact(A, b) == tuple(_from_sympy(v) for v in x)
    inv = M.inv()
    assert ExactMatrix(A).inverse() == ExactMatrix(
        [[_from_sympy(inv[i, j]) for j in range(n)] for i in range(n)])


def test_wrong_numerator_fails_resubstitution(monkeypatch):
    # an elimination that gets one numerator wrong must not return a solution
    real = exact._eliminate

    def off_by_one(M, n):
        det = real(M, n)
        M[n - 1][n] += 1
        return det

    monkeypatch.setattr(exact, "_eliminate", off_by_one)
    A = [[2, 1], [Fraction(1, 3), 3]]
    for solve in (lambda: solve_linear_exact(A, [1, 2]), ExactMatrix(A).inverse):
        with pytest.raises(DrgError) as exc:
            solve()
        assert exc.type is DrgError and "re-substitution" in str(exc.value)


def test_matrix_rejects_floats_and_ragged():
    with pytest.raises(TypeError):
        ExactMatrix([[0.5]])
    with pytest.raises(ParameterError):
        ExactMatrix([[1, 2], [3]])


def test_matrix_rank():
    assert mat_rank(mat_from_int([[1, 2], [2, 4]])) == 1
    assert mat_rank(mat_eye(4)) == 4


def test_rref_fixed_cases():
    assert rref_gf([[0, 0], [0, 0]], 2) == ((), 0)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rref_gf(eye, 2) == (tuple(map(tuple, eye)), 3)
    # worked by hand: add row 2 to row 1 to clear the second column
    assert rref_gf([[1, 1, 0], [0, 1, 1]], 2) == (((1, 0, 1), (0, 1, 1)), 2)


def row_space(rows, p, n):
    # oracle: all linear combinations, as a frozen set of tuples
    if not rows:
        return frozenset({(0,) * n})
    space = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % p
        space.add(tuple(v))
    return frozenset(space)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_random_properties(p):
    rng = random.Random(p * 11)
    for _ in range(40):
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        red, rank = rref_gf(rows, p)
        assert rref_gf(red, p) == (red, rank)
        assert rank == len(red)
        assert row_space(red, p, 4) == row_space(rows, p, 4)
        pivots = []
        for row in red:
            j = next(i for i, x in enumerate(row) if x)
            assert row[j] == 1
            pivots.append(j)
            assert all(other[j] == 0 for other in red if other is not row)
        assert pivots == sorted(pivots)


def test_rank_gf():
    assert rref_gf([[1, 1], [1, 1]], 2)[1] == 1
    # (2,1) = 2*(1,2) over GF(3), so rank 1; (2,2) is independent
    assert rref_gf([[1, 2], [2, 1]], 3)[1] == 1
    assert rref_gf([[1, 2], [2, 2]], 3)[1] == 2


def test_prime_field():
    # the pivot is scaled by 3^(7-2) = 5 = 1/3 mod 7
    assert rref_gf([[3, 1]], 7) == (((1, 5),), 1)
    assert rref_gf([[0, 4], [2, 6]], 7) == (((1, 0), (0, 1)), 2)
    with pytest.raises(ParameterError):
        rref_gf([[1, 1]], 6)
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


# psi_k, the least strong pseudoprime to each of the first k prime bases
# (Jaeschke 1993; Sorenson and Webster 2015): the distinct values for k = 1..12
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461)
PSI_13 = 3317044064679887385961981


def test_is_prime_matches_sympy():
    assert [p for p in range(-3, 30000) if is_prime(p)] == list(sympy.primerange(30000))
    # Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1)
    carmichael = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 3000)
                  if all(sympy.isprime(f * k + 1) for f in (6, 12, 18))]
    assert len(carmichael) > 50 and carmichael[0] == 1729
    for n in carmichael + [561, 1105, 2465, 2821, 6601, 8911] + list(STRONG_PSEUDOPRIMES):
        assert not sympy.isprime(n) and not is_prime(n), n
    for p in (2**31 - 1, 2**61 - 1, sympy.prevprime(PSI_13), sympy.nextprime(3825123056546413051)):
        assert is_prime(p), p


@given(st.integers(min_value=0, max_value=PSI_13 - 1))
def test_is_prime_matches_sympy_below_the_proven_bound(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_refuses_above_the_proven_bound():
    # psi_13 passes all 13 bases; at and above it no answer is given,
    # except where a base divides
    for n in (PSI_13, 2**89 - 1, sympy.nextprime(PSI_13)):
        with pytest.raises(TierLimitExceeded):
            is_prime(n)
    assert not is_prime(2**100) and not is_prime(3 * PSI_13)


def test_fraction_strings():
    assert format_fraction(Fraction(-3, 6)) == "-1/2"
    assert format_fraction(5) == "5/1"
    for x in (Fraction(-3, 6), 7, Fraction(10 ** 20, 3)):
        assert Fraction(format_fraction(x)) == x
    with pytest.raises(TypeError):
        format_fraction(0.5)
