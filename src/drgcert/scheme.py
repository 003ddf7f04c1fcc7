"""Association-scheme eigensystem of a distance-regular graph, exactly.

The eigenvalues of the distance-1 matrix are the roots of the characteristic
polynomial of the (d+1) x (d+1) tridiagonal intersection matrix; for every
in-scope family they are integers, found by integer bisection on Sturm sign
counts and each confirmed as an exact root.  P is filled by the three-term
recurrence of the distance polynomials in integers, each division checked
exact (P_ji is a rational eigenvalue of the integer matrix A_i, so an
integer, for every distance-regular graph), Q by the orthogonality relations
m_j = |X| / sum_i P_ji^2 / k_i and Q_ij = m_j P_ji / k_i (checked by
PQ = |X| I), and the Krein tensor certifies the Q-polynomial ordering: its
sign check and the ordering walks read the integer sums
S_ijk = sum_l k_l (DQ)_li (DQ)_lj (DQ)_lk, symmetric in i, j and k and
formed for i <= j <= k only; Fractions are formed only when
`krein_parameters` is asked for the values.  The full-matrix tier (up to
FULL_MATRIX_CAP vertices) builds the E_i explicitly and checks their product and Krein identities on one row per
orbit of the graph's verified automorphisms.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import mul
from typing import TYPE_CHECKING

from .errors import (
    IrrationalEigenvalue,
    DrgError,
    NotQPolynomial,
    ParameterError,
    TierLimitExceeded,
)
from .exact import ExactMatrix, canonical_json, format_fraction, scaled_ints
from .graphs import DistanceCensus, Graph, IntersectionArray, representatives

if TYPE_CHECKING:  # numpy loads only with the full-matrix tier, which no CLI command uses
    import numpy as np

FULL_MATRIX_CAP = 1_000


@dataclass(frozen=True)
class SchemeEigensystem:
    """Exact eigendata of a (d+1)-class symmetric scheme.

    The idempotent ordering is Q-polynomial; `ordering` maps position to the
    index in descending-eigenvalue order (identity unless the descending
    candidate failed), and `passing_orderings` records every ordering that
    satisfies the tridiagonality test.

    `__post_init__` derives the integer forms from P and Q on every
    construction, `dataclasses.replace` and `_reorder` included, so they
    never go stale: `D`, the lcm of Q's denominators, and `DQ` = D*Q.
    P is integral for every distance-regular graph; a fractional P is
    refused.  `certificates` memoizes `lp_cert.solve_certificate` by t,
    for this object alone.
    """

    n: int
    d: int
    eigenvalues: tuple[int, ...]
    k: tuple[int, ...]
    m: tuple[int, ...]
    P: ExactMatrix
    Q: ExactMatrix
    ordering: tuple[int, ...]
    passing_orderings: tuple[tuple[int, ...], ...]
    D: int = field(init=False, compare=False, repr=False)
    DQ: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    certificates: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if any(x.denominator != 1 for row in self.P.rows for x in row):
            raise DrgError("P is not integral; no distance-regular graph has it")
        D, DQ = scaled_ints(self.Q.rows)
        put = object.__setattr__  # the dataclass is frozen
        put(self, "D", D)
        put(self, "DQ", tuple(map(tuple, DQ)))
        put(self, "certificates", {})


@dataclass(frozen=True)
class KreinTensor:
    """Structure constants of entrywise multiplication in the E-basis."""

    values: tuple[tuple[tuple[Fraction, ...], ...], ...]  # values[k][i][j]

    @property
    def d(self) -> int:
        return len(self.values) - 1

    def q(self, k: int, i: int, j: int) -> Fraction:
        return self.values[k][i][j]

    def support(self) -> tuple[tuple[int, ...], ...]:
        """support[j][c], the mask of the b with q^b_{j,c} != 0, which is
        all that `verify_q_polynomial` reads."""
        r = range(self.d + 1)
        return tuple(tuple(sum(1 << b for b in r if self.values[b][j][c]) for c in r)
                     for j in r)


def _scaled_minors(arr: IntersectionArray, a: tuple[int, ...], y: int) -> list[int]:
    """P_i = 2^i p_i(y/2) for i = 0..d+1, where p_i(x) is the i-th leading
    principal minor of xI - L.  All integers, by the three-term recurrence
    P_{i+1} = (y - 2a_i) P_i - 4 b_{i-1} c_i P_{i-1}."""
    P = [1, y - 2 * a[0]]
    for i in range(1, arr.d + 1):
        P.append((y - 2 * a[i]) * P[i] - 4 * arr.b[i - 1] * arr.c[i - 1] * P[i - 1])
    return P


def _eigenvalues(arr: IntersectionArray, a: tuple[int, ...]) -> tuple[int, ...]:
    """The d+1 eigenvalues of the intersection matrix L, descending.

    L is a Jacobi matrix (every b_{i-1} c_i > 0), so its leading principal
    minors p_0 = 1, p_1, ..., p_{d+1} = det(xI - L) form a Sturm sequence:
    the number N(x) of sign changes in p_0(x), ..., p_{d+1}(x) is the number
    of eigenvalues above x.  Each p_i is monic of degree i, so N = d+1 as
    x -> -inf and N = 0 as x -> +inf.  N can only change where some p_i
    vanishes.  An interior zero p_i(x) = 0, 1 <= i <= d, forces
    p_{i+1}(x) = -b_{i-1} c_i p_{i-1}(x): p_{i-1} and p_{i+1} have opposite
    signs, so (p_{i-1}, p_i, p_{i+1}) holds one sign change on either side
    of x.  Two consecutive minors never vanish together (the recurrence
    would then reach p_0 = 0), so N changes only at roots of p_{d+1}, by at
    most one each; it falls by d+1 in all, so p_{d+1} has d+1 distinct roots
    and N drops by one at each.

    The p_i are monic integer polynomials, and a rational root of one is an
    integer, so at x = y/2 with y odd no p_i vanishes and N is read off the
    signs of the integers P_i = 2^i p_i(y/2), with no zero to skip.

    All eigenvalues lie in [-b_0, b_0]: L >= 0 entrywise with every row
    sum c_i + a_i + b_i = b_0, so |theta| <= b_0 for each eigenvalue (take
    the largest |x_i| of an eigenvector x).  And L 1 = b_0 1, so b_0 is the
    largest eigenvalue theta_0; it is taken with no bisection, and still
    confirmed by p_{d+1}(b_0) = 0.  For the other d, integer bisection on
    N(m + 1/2) puts the j-th largest eigenvalue in (m - 1/2, m + 1/2); it
    equals m exactly when p_{d+1}(m) = 0 and is irrational otherwise.  d+1
    distinct confirmed integers are all the roots.  Raises
    IrrationalEigenvalue when a root is not an integer.
    """
    d = arr.d

    def above(m: int) -> int:  # N(m + 1/2)
        P = _scaled_minors(arr, a, 2 * m + 1)
        return sum((u < 0) != (v < 0) for u, v in zip(P, P[1:]))

    thetas: list[int] = []
    hi = arr.b0
    for j in range(d + 1):
        # invariant: above(lo) > j >= above(hi); theta_0 = b_0 is not bisected
        lo = -arr.b0 - 1 if j else hi - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid) > j:
                lo = mid
            else:
                hi = mid
        if _scaled_minors(arr, a, 2 * hi)[-1] != 0 or hi in thetas:
            raise IrrationalEigenvalue(
                f"eigenvalue {j + 1} of {d + 1} (descending) lies within 1/2 of {hi}"
                " and is not an integer"
            )
        thetas.append(hi)
    return tuple(thetas)


def eigensystem_from_array(
    arr: IntersectionArray, n_vertices: int, check_q_polynomial: bool = True
) -> SchemeEigensystem:
    """Exact eigensystem from an intersection array.

    Raises IrrationalEigenvalue when the characteristic polynomial has fewer
    than d+1 integer roots, and NotQPolynomial when no idempotent ordering is
    Q-polynomial.  The descending ordering is kept when it passes, and the
    first passing ordering is taken otherwise; with check_q_polynomial off,
    it is kept and no passing ordering is listed.  The checks read D*Q
    before the eigensystem is made, so it is constructed once; only an
    ordering other than the descending one goes through `_reorder`.
    """
    k = arr.valencies()
    if sum(k) != n_vertices:
        raise ParameterError(
            f"vertex count {n_vertices} does not match valency sum {sum(k)}"
        )
    d = arr.d
    a = arr.a()
    thetas = _eigenvalues(arr, a)
    prows = []
    for th in thetas:
        v = [1, th]
        for j in range(1, d):
            nxt, rem = divmod((th - a[j]) * v[j] - arr.b[j - 1] * v[j - 1], arr.c[j])
            if rem:
                raise DrgError(f"P_{j + 1} at eigenvalue {th} is not an integer;"
                               " no distance-regular graph has this array")
            v.append(nxt)
        prows.append(v)
    if tuple(prows[0]) != k:
        raise DrgError(f"P row 0 is {tuple(prows[0])}, not the valencies {k}")
    m, K = [], lcm(*k)
    for j, row in enumerate(prows):
        mj = Fraction(n_vertices * K, sum(x * x * (K // kk) for x, kk in zip(row, k)))
        if mj.denominator != 1:
            raise ParameterError(f"multiplicity m_{j} = {mj} is not a positive integer")
        m.append(mj.numerator)
    Q = ExactMatrix([[Fraction(mj * row[i], k[i]) for mj, row in zip(m, prows)]
                     for i in range(d + 1)])
    D, DQ = scaled_ints(Q.rows)
    if any(sum(map(mul, row, col)) != (r == c) * n_vertices * D
           for r, row in enumerate(prows) for c, col in enumerate(zip(*DQ))):
        raise DrgError("PQ != |X| I; the eigensystem is inconsistent")
    natural = tuple(range(d + 1))
    passing = ()
    if check_q_polynomial:
        passing = verify_q_polynomial(_support(_krein_sums(n_vertices, k, m, D, DQ), d))
    sys = SchemeEigensystem(n=n_vertices, d=d, eigenvalues=thetas, k=k, m=tuple(m),
                            P=ExactMatrix(prows), Q=Q, ordering=natural,
                            passing_orderings=passing)
    return sys if not passing or natural in passing else _reorder(sys, passing[0], passing)


def _reorder(sys: SchemeEigensystem, perm, passing) -> SchemeEigensystem:
    """sys with its idempotents in the order perm and passing_orderings set."""
    return replace(
        sys,
        eigenvalues=tuple(sys.eigenvalues[j] for j in perm),
        m=tuple(sys.m[j] for j in perm),
        P=ExactMatrix([sys.P.rows[j] for j in perm]),
        Q=ExactMatrix([[row[j] for j in perm] for row in sys.Q.rows]),
        ordering=tuple(perm),
        passing_orderings=passing,
    )


def _krein_sums(n: int, k, m, D: int, DQ) -> dict[tuple[int, int, int], int]:
    """S_ijk = sum_l k_l (DQ)_li (DQ)_lj (DQ)_lk for i <= j <= k, keyed
    (i, j, k); q^k_ij = S_sorted(i,j,k) / (|X| D^3 m_k) by the identity in
    `krein_parameters`.  |X|, D and m_k are positive, so q^k_ij has the
    sign and the zero pattern of the sum, and a negative sum is reported as
    a data error naming the first negative q^k_ij in (k, i, j) order."""
    r = range(len(DQ))
    cols = list(zip(*DQ))
    sums = {}
    for i in r:
        wi = list(map(mul, k, cols[i]))
        for j in r[i:]:
            wij = list(map(mul, wi, cols[j]))
            for kk in r[j:]:
                sums[i, j, kk] = sum(map(mul, wij, cols[kk]))
    if min(sums.values()) < 0:
        (kk, i, j), s = min((key, s) for sorted_key, s in sums.items() if s < 0
                            for key in permutations(sorted_key))
        raise DrgError(f"Krein parameter q^{kk}_{{{i},{j}}} = {Fraction(s, n * D ** 3 * m[kk])}"
                       " < 0; invalid scheme data")
    return sums


def _support(sums: dict[tuple[int, int, int], int], d: int) -> tuple[tuple[int, ...], ...]:
    """support[j][c], the mask of the b with q^b_{j,c} != 0, from the
    symmetric sums of `_krein_sums`: a nonzero S_ijk makes q^b_{j,c}
    nonzero for each ordering (b, j, c) of its indices."""
    sup = [[0] * (d + 1) for _ in range(d + 1)]
    for (i, j, kk), s in sums.items():
        if s:
            sup[i][j] |= 1 << kk
            sup[j][i] |= 1 << kk
            sup[i][kk] |= 1 << j
            sup[kk][i] |= 1 << j
            sup[j][kk] |= 1 << i
            sup[kk][j] |= 1 << i
    return tuple(map(tuple, sup))


def krein_parameters(sys: SchemeEigensystem) -> KreinTensor:
    """q^k_{ij} = |X|^{-1} sum_l Q_li Q_lj P_kl; nonnegative for any scheme,
    so a negative entry is reported as a data error.

    The orthogonality relation Q_lk = m_k P_kl / k_l gives
    P_kl = k_l Q_lk / m_k, so

        m_k q^k_ij = |X|^{-1} sum_l k_l Q_li Q_lj Q_lk,

    which is symmetric in i, j and k (Brouwer, Cohen and Neumaier 1989,
    section 2.3).  With D*Q integral (the eigensystem's `DQ`) the sum is
    the integer S_ijk / D^3 of `_krein_sums`, which forms it for
    i <= j <= k only, from Q, so a tampered Q is judged by its own sums;
    the Fraction S / (|X| D^3 m_k) is formed once for each k and i <= j
    and mirrored to (k, j, i)."""
    d, n, D, m = sys.d, sys.n, sys.D, sys.m
    sums = _krein_sums(n, sys.k, m, D, sys.DQ)
    r = range(d + 1)
    vals = [[[None] * (d + 1) for _ in r] for _ in r]
    for kk in r:
        den = n * D ** 3 * m[kk]
        for i in r:
            for j in r[i:]:
                vals[kk][i][j] = vals[kk][j][i] = Fraction(sums[tuple(sorted((i, j, kk)))], den)
    return KreinTensor(tuple(tuple(map(tuple, plane)) for plane in vals))


def _ordering_passes(support, perm) -> bool:
    """For k != i, q^{perm[k]}_{perm[1],perm[i]} != 0 exactly when |k - i| = 1:
    row perm[i] of support[perm[1]], less perm[i] itself, holds exactly
    perm[i-1] and perm[i+1]."""
    row = support[perm[1]]
    ends = (0, *(1 << b for b in perm), 0)  # ends[i + 1] is the bit of perm[i]
    return all(row[c] & ~(1 << c) == ends[i] | ends[i + 2] for i, c in enumerate(perm))


def _walk(support, j: int) -> tuple[int, ...] | None:
    """The ordering 0, j, ... that steps from each E_c to the one unvisited
    E_b with q^b_{j,c} != 0; None when some step has no such b or several."""
    row, perm, seen = support[j], [0, j], 1 | 1 << j
    while len(perm) < len(row):
        nxt = row[perm[-1]] & ~seen
        if not nxt or nxt & (nxt - 1):
            return None
        perm.append(nxt.bit_length() - 1)
        seen |= nxt
    return tuple(perm)


def verify_q_polynomial(support) -> tuple[tuple[int, ...], ...]:
    """Every ordering that fixes E_0 and makes q^k_{1i} tridiagonal, in
    lexicographic order, from the Krein tensor's support (support[j][c] is
    the mask of the b with q^b_{j,c} != 0: `KreinTensor.support`, or the
    support of the integer sums that `eigensystem_from_array` forms);
    raises NotQPolynomial when there is none.

    The orderings are constructed, not searched.  Let perm pass with
    perm[1] = j.  By `_ordering_passes`, for each position i < d the b != perm[i]
    with q^b_{j,perm[i]} != 0 are exactly perm[i-1] (when i > 0) and perm[i+1].
    perm[i-1] is among perm[0..i] and perm[i+1] is not, so perm[i+1] is the
    one b outside perm[0..i] with q^b_{j,perm[i]} != 0: the walk `_walk(support, j)`
    takes that step, and by induction on i it returns perm.  So each j gives
    at most one passing ordering, the walk from j, and confirming each walk
    with `_ordering_passes` (the walk reads only the unvisited entries) finds
    them all, at every d.  Orderings with a smaller perm[1] come first in
    the lexicographic order of `itertools.permutations`, so ascending j
    lists them in that order.
    """
    walks = (_walk(support, j) for j in range(1, len(support)))
    passing = tuple(p for p in walks if p is not None and _ordering_passes(support, p))
    if not passing:
        raise NotQPolynomial("no idempotent ordering is Q-polynomial")
    return passing


# ---------------------------------------------------------------------------
# full-matrix tier


def materialize_distance_matrices(G: Graph, census: DistanceCensus) -> list[np.ndarray]:
    """Explicit 0/1 distance matrices A_0..A_d as int64 arrays; row x of A_k
    is the level mask levels[x][k] unpacked.  Refused above FULL_MATRIX_CAP
    vertices, and with ParameterError when the census lacks a row (one
    taken from some sources only)."""
    import numpy as np

    n = G.n
    if n > FULL_MATRIX_CAP:
        raise TierLimitExceeded(f"{n} vertices exceeds the full-matrix cap {FULL_MATRIX_CAP}")
    rows = list(map(census.row, range(n)))
    width = (n + 7) // 8
    mats = []
    for k in range(census.diameter + 1):
        packed = b"".join(row[k].to_bytes(width, "little") for row in rows)
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
        mats.append(np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(np.int64))
    return mats


def materialize_idempotents(
    G: Graph, census: DistanceCensus, sys: SchemeEigensystem
) -> list[tuple[np.ndarray, int]]:
    """Explicit primitive idempotents E_i = M_i / D_i with integer M_i.

    Verifies, exactly in integer arithmetic: each E_i is idempotent, distinct
    idempotents are orthogonal, the E_i sum to the identity, and E_0 is the
    normalized all-ones matrix.

    The products are checked on the rows R of the orbit representatives of
    G.automorphisms only, in O(|R| n^2) each.  Every g in the group the
    verified generators generate is an automorphism, so it preserves
    distance: with P_g its permutation matrix, P_g A_l P_g^T = A_l for each
    distance matrix A_l, and so for each M_i = sum_l c_il A_l, each product
    M_i M_j and each entrywise product M_i o M_j.  Any X among these then
    has X[gx, gy] = X[x, y], so an identity X = Y that holds on row x holds
    on row gx, and every row is gx for some representative x.  A hand-built
    graph has the trivial group, and then R is every row.
    """
    import numpy as np

    mats = materialize_distance_matrices(G, census)
    n = G.n
    d = sys.d
    out = []
    for i in range(d + 1):
        col = [row[i] for row in sys.Q.rows]
        scale = lcm(*(x.denominator for x in col))
        M = np.zeros((n, n), dtype=np.int64)
        for j in range(d + 1):
            coeff = col[j] * scale
            if coeff.denominator != 1:
                raise DrgError(f"E_{i} coefficient {coeff} is not an integer")
            M += int(coeff) * mats[j]
        out.append((M, n * scale))
    peak = max(int(np.abs(M).max()) for M, _ in out)
    if n * peak * peak >= 2 ** 62:
        raise TierLimitExceeded("idempotent entries too large for int64 verification")
    reps = representatives(G)
    for i, (Mi, Di) in enumerate(out):
        if not np.array_equal(Mi[reps] @ Mi, Di * Mi[reps]):
            raise DrgError(f"E_{i} is not idempotent")
        for j in range(i + 1, d + 1):
            if np.any(out[j][0][reps] @ Mi):
                raise DrgError(f"E_{i} E_{j} != 0")
    total = lcm(*(D for _, D in out))
    acc = np.zeros((n, n), dtype=np.int64)
    for Mi, Di in out:
        acc += (total // Di) * Mi
    if not np.array_equal(acc, total * np.eye(n, dtype=np.int64)):
        raise DrgError("idempotents do not sum to the identity")
    M0, D0 = out[0]
    if not np.all(M0 * n == D0):
        raise DrgError("E_0 is not |X|^{-1} J")
    return out


def krein_cross_check(
    G: Graph,
    census: DistanceCensus,
    sys: SchemeEigensystem,
    kt: KreinTensor | None = None,
) -> None:
    """Entrywise check that E_i o E_j = |X|^{-1} sum_k q^k_ij E_k on the
    materialized matrices, on the rows of the orbit representatives (enough
    by the argument in `materialize_idempotents`).  Raises on any mismatch."""
    import numpy as np

    if kt is None:
        kt = krein_parameters(sys)
    mats = materialize_idempotents(G, census, sys)
    d = sys.d
    n = sys.n
    reps = representatives(G)
    # object dtype keeps the elementwise arithmetic in exact Python ints
    big = [M[reps].astype(object) for M, _ in mats]
    for i in range(d + 1):
        Mi, Di = big[i], mats[i][1]
        for j in range(i, d + 1):
            Mj, Dj = big[j], mats[j][1]
            coeffs = [kt.q(kk, i, j) / (n * mats[kk][1]) for kk in range(d + 1)]
            den = lcm(Di * Dj, *(c.denominator for c in coeffs))
            lhs = (den // (Di * Dj)) * (Mi * Mj)
            rhs = np.zeros((len(reps), n), dtype=object)
            for kk in range(d + 1):
                c = coeffs[kk] * den
                if c.denominator != 1:
                    raise DrgError(f"Krein coefficient {c} of E_{kk} is not an integer")
                rhs += int(c) * big[kk]
            if not np.array_equal(lhs, rhs):
                raise DrgError(f"Krein expansion of E_{i} o E_{j} fails entrywise")


# ---------------------------------------------------------------------------
# eigensystem cache


CACHE_VERSION = 1


def eigensystem_cache_key(family: str, params: dict) -> str:
    blob = canonical_json({"family": family, "params": params, "version": CACHE_VERSION})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def eigensystem_doc(sys: SchemeEigensystem) -> dict:
    """The eigensystem fields for `canonical_json`; the integer k and m are
    written as 'num/den' like the rationals of P and Q."""
    return {
        "n": sys.n,
        "d": sys.d,
        "eigenvalues": sys.eigenvalues,
        "k": [format_fraction(x) for x in sys.k],
        "m": [format_fraction(x) for x in sys.m],
        "P": sys.P.rows,
        "Q": sys.Q.rows,
        "ordering": sys.ordering,
        "passing_orderings": sys.passing_orderings,
    }


def eigensystem_to_json(sys: SchemeEigensystem, family: str, params: dict) -> str:
    return canonical_json(
        {"family": family, "params": params, "version": CACHE_VERSION, **eigensystem_doc(sys)})
