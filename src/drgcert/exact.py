"""Exact arithmetic: q-analogues, rational dense linear algebra, GF(p) row
reduction.

Every quantity in this package is an int or a fractions.Fraction; nothing is
ever rounded.  Matrices are small (at most (d+1) x (d+1) for scheme work), so
plain Gaussian elimination over Q is entirely adequate.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ParameterError, SingularSystem, TierLimitExceeded

Scalar = int | Fraction


def as_fraction(x) -> Fraction:
    """Coerce an exact value to Fraction.  Floats are rejected outright."""
    if isinstance(x, float):
        raise TypeError("refusing float %r; this library is exact" % (x,))
    return Fraction(x)


def format_fraction(x) -> str:
    """Render a rational as the canonical 'num/den' string."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


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
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# dense exact linear algebra over Q


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

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"ExactMatrix({self.nrows}x{self.ncols}: {body})"

    def row(self, i) -> tuple[Fraction, ...]:
        return self.rows[i]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ParameterError("dimension mismatch in matrix product")
        cols = other.transpose().rows
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def scale(self, c: Scalar) -> "ExactMatrix":
        c = as_fraction(c)
        return ExactMatrix([[c * x for x in row] for row in self.rows])

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse; raises SingularSystem if rank-deficient."""
        n = self.nrows
        if n != self.ncols:
            raise ParameterError("inverse of a non-square matrix")
        aug = [list(self.rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return ExactMatrix(_gauss_jordan(aug))


def _gauss_jordan(aug: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduce the augmented matrix [A | B], A square, in place to
    [I | A^{-1} B] over Q and return A^{-1} B; raises SingularSystem when A
    is singular."""
    n = len(aug)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularSystem(f"singular at column {col}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve_linear_exact(A: ExactMatrix, b: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Solve Ax = b exactly for square nonsingular A.

    Raises SingularSystem when A has no unique solution.  The result is
    re-substituted before returning; an inexact solve is impossible by
    construction, so the check is a plain assert.
    """
    n = A.nrows
    if n != A.ncols:
        raise ParameterError("solve_linear_exact needs a square matrix")
    if len(b) != n:
        raise ParameterError("right-hand side has wrong length")
    rhs = [as_fraction(x) for x in b]
    x = [row[0] for row in _gauss_jordan([list(r) + [v] for r, v in zip(A.rows, rhs)])]
    assert all(sum(A.rows[i][j] * x[j] for j in range(n)) == rhs[i] for i in range(n))
    return tuple(x)


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
