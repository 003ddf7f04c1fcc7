"""Exact arithmetic: q-analogues, rational dense linear algebra, GF(p) row
reduction, and `canonical_json`, the one encoder of reports and caches.

Every quantity in this package is an int or a fractions.Fraction; nothing is
ever rounded.  Rational systems are solved by fraction-free Gauss-Jordan
elimination (Bareiss 1968) over integers: each row is cleared of
denominators once, every intermediate value is an integer, and rationals
are formed only for the final solution.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DrgError, ParameterError, SingularSystem, TierLimitExceeded

Scalar = int | Fraction


def as_fraction(x) -> Fraction:
    """Coerce an exact value to Fraction.  Floats are rejected outright."""
    if type(x) is Fraction:  # immutable, so shared rather than copied
        return x
    if isinstance(x, float):
        raise TypeError("refusing float %r; this library is exact" % (x,))
    return Fraction(x)


def format_fraction(x) -> str:
    """Render a rational as the canonical 'num/den' string."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


# one encoder for every call: json.dumps with options builds a new one each
# time, and a graph cache encodes each vertex label on its own
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False, default=format_fraction)


def canonical_json(doc) -> str:
    """The one encoder of every report and cache: sorted keys, no spaces,
    each Fraction as its 'num/den' string (any other value JSON does not
    know raises TypeError).  A document is a fresh tree of plain values, so
    it holds no cycle to look for."""
    return _ENCODER.encode(doc)


# ---------------------------------------------------------------------------
# q-analogues


def q_int(m: int, q: int) -> int:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return (q ** m - 1) // (q - 1)


def q_binomial(m: int, n: int, q: int) -> int:
    """Gaussian binomial coefficient: number of n-dim subspaces of F_q^m.

    Integer-only: the numerator product is accumulated first and divided at
    the end, which is exact because the result is an integer.
    """
    if m < 0 or n < 0:
        raise ParameterError(f"q_binomial needs nonnegative arguments, got ({m},{n})")
    if q < 2:
        raise ParameterError(f"q_binomial needs q >= 2, got q={q}")
    if n > m:
        return 0
    num = 1
    den = 1
    for i in range(n):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise DrgError(f"q_binomial({m},{n},{q}): {num}/{den} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# dense exact linear algebra over Q


def scaled_ints(rows: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """(D, D*rows) with D the lcm of the entries' denominators, so D*rows is
    integral."""
    D = lcm(*(x.denominator for row in rows for x in row))
    return D, [[x.numerator * (D // x.denominator) for x in row] for row in rows]


class ExactMatrix:
    """Immutable rectangular matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        mat = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if not mat or not mat[0]:
            raise ParameterError("empty matrix")
        if any(len(r) != len(mat[0]) for r in mat):
            raise ParameterError("ragged rows")
        self.rows = mat

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"ExactMatrix({len(self.rows)}x{len(self.rows[0])}: {body})"

    def inverse(self) -> "ExactMatrix":
        """Inverse by `_gauss_jordan`; raises SingularSystem if rank-deficient."""
        n = len(self.rows)
        if n != len(self.rows[0]):
            raise ParameterError("inverse of a non-square matrix")
        aug = [self.rows[i] + tuple(int(i == j) for j in range(n)) for i in range(n)]
        return ExactMatrix(_gauss_jordan(aug, n))


def _eliminate(M: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan elimination of the integer matrix
    M = [A | B], A n x n, in place; returns p_n = +-det A and leaves
    M = [p_n I | p_n A^{-1} B].  Raises SingularSystem when A is singular.

    Step k picks a row r >= k with M[r][k] != 0, swaps it into row k, and
    sets row_i <- (p_{k+1} row_i - M[i][k] row_k) / p_k for every i != k,
    where p_{k+1} = M[k][k] and p_0 = 1.  Every division is exact.  Write
    A (rows permuted by the swaps so far) as [[S, R], [U, T]] with S its
    leading k x k block and p_k = det S.  Ordinary Gauss-Jordan turns [A | B]
    after k steps into G_k = [[I, S^{-1} R], [0, T - U S^{-1} R]] (B's columns
    being part of R and T); the claim is that M = p_k G_k.  Both blocks of
    p_k G_k are integral: p_k S^{-1} = adj S, and
    p_k (T - U S^{-1} R) = p_k T - U adj(S) R.  The pivot M[k][k] is p_k
    times the top-left entry of the Schur complement T - U S^{-1} R, which is
    det S_{k+1} / det S_k, so it is p_{k+1}.  Gauss-Jordan step k maps
    g_ij to g_ij - g_ik g_kj / g_kk for i != k, and row k to g_kj / g_kk.
    With M = p_k G_k and g_kk = p_{k+1} / p_k, the update above gives
    (p_{k+1} p_k g_ij - p_k^2 g_ik g_kj) / p_k = p_{k+1} (g_ij - g_ik g_kj / g_kk),
    and row k, left as it is, equals p_{k+1} g_kj / g_kk; so M = p_{k+1} G_{k+1},
    an integer matrix, and the quotient is exact.  A swap among rows >= k
    only permutes the rows of U and T, so the claim holds for the permuted A.
    When column k is zero in rows >= k, the Schur complement has a zero
    column and A is singular.
    """
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            raise SingularSystem(f"singular at column {k}")
        M[k], M[piv] = M[piv], M[k]
        rowk = M[k]
        p = rowk[k]
        for i in range(n):
            if i != k:
                row = M[i]
                a = row[k]
                if a:
                    M[i] = [(p * x - a * y) // prev for x, y in zip(row, rowk)]
                elif p != prev:
                    M[i] = [p * x // prev for x in row]
        prev = p
    return prev


def solve_integer_rows(rows: Sequence[Sequence[int]], n: int) -> tuple[int, list[list[int]]]:
    """(det, X) with A X = det B for the integer rows [A | B], A n x n:
    det = +-det A and X = det A^{-1} B, both integral, from one
    `_eliminate`.  X is re-substituted, A X = det B, before it is
    returned; a mismatch raises DrgError.  Raises SingularSystem when A
    is singular."""
    M = [list(r) for r in rows]
    det = _eliminate(M, n)
    X = [r[n:] for r in M]
    for r in rows:
        for c, b in enumerate(r[n:]):
            if sum(map(mul, r[:n], (x[c] for x in X))) != det * b:
                raise DrgError("exact solve failed re-substitution")
    return det, X


def _gauss_jordan(aug: Sequence[Sequence[Scalar]], n: int) -> list[list[Fraction]]:
    """A^{-1} B for the augmented matrix [A | B], A n x n, over Q; raises
    SingularSystem when A is singular.

    Each row is scaled to integers by the lcm of its denominators, which
    leaves A^{-1} B unchanged, and solved by `solve_integer_rows`; the
    rationals X / det are formed from its re-substituted integer X."""
    det, X = solve_integer_rows([scaled_ints((r,))[1][0] for r in aug], n)
    return [[Fraction(x, det) for x in r] for r in X]


def solve_linear_exact(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Solve Ax = b exactly for square nonsingular A, rows of ints and
    Fractions.  Raises TypeError on a float, ParameterError on a ragged or
    non-square A or a b of the wrong length, SingularSystem when A has no
    unique solution, and DrgError when the solution fails re-substitution.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ParameterError("solve_linear_exact needs a square matrix")
    if len(b) != n:
        raise ParameterError("right-hand side has wrong length")
    aug = [[*row, v] for row, v in zip(A, b)]
    if any(isinstance(x, float) for row in aug for x in row):
        raise TypeError("refusing a float; this library is exact")
    return tuple(row[0] for row in _gauss_jordan(aug, n))


# ---------------------------------------------------------------------------
# prime fields


#: the first 13 primes: as Miller-Rabin bases they decide every p below
#: psi_13 (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < 3.3 * 10^24.  A larger p
    with no factor among the bases raises TierLimitExceeded: no finite base
    set is proven there."""
    if p < 2:
        return False
    if any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    if p >= _MR_EXACT_BELOW:
        raise TierLimitExceeded(f"primality of {p} is not decided above 3.3*10^24")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s r with r odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and p - 1 not in (pow(x, 2 ** i, p) for i in range(s)):
            return False
    return True


def rref_gf(rows: Sequence[Sequence[int]], p: int):
    """Reduced row echelon form over GF(p).

    Returns (rref_rows, rank) where rref_rows is a tuple of tuples with zero
    rows dropped.  The output is the canonical representative of the row
    space: two inputs have equal output iff they span the same subspace.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime; GF(p^k) fields are not supported")
    work = [[x % p for x in row] for row in rows]
    if not work:
        return (), 0
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ParameterError("ragged rows")
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [(x - factor * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank]), rank
