"""Association-scheme eigensystem of a distance-regular graph, exactly.

The eigenvalues of the distance-1 matrix are the roots of the characteristic
polynomial of the (d+1) x (d+1) tridiagonal intersection matrix; for every
in-scope family they are integers, taken in closed form for an array with
classical parameters and otherwise found by integer bisection on Sturm sign
counts, and each confirmed as an exact root.  P is filled by the three-term
recurrence of the distance polynomials in integers, each division checked
exact (P_ji is a rational eigenvalue of the integer matrix A_i, so an
integer, for every distance-regular graph), Q by the orthogonality relations
m_j = |X| / sum_i P_ji^2 / k_i and Q_ij = m_j P_ji / k_i (checked by
PQ = |X| I), and the Krein tensor certifies the Q-polynomial ordering: its
sign check and the ordering walks read the integer sums
S_ijk = sum_l k_l (DQ)_li (DQ)_lj (DQ)_lk, symmetric in i, j and k and
formed for i <= j <= k only; Fractions are formed only when
`krein_parameters` is asked for the values.

The full-matrix tier re-checks the idempotent and Krein identities on a
built graph, on the census's level masks, in integers, with no n x n
matrix formed.  E_i = M_i / D_i with M_i = sum_l C_il A_l, so
M_i[x, y] = C_il for l = d(x, y).  With L_l(x) the level-l mask of x's
row and distance symmetric,

    (M_i M_j)[x, z] = sum_y C_i[d(x, y)] C_j[d(z, y)]
                    = sum_{l, l'} C_il C_jl' |L_l(x) & L_l'(z)|,

so an entry of a product, and of the identity it must equal (D_i M_i, or
0), depends only on the key (d(x, z), the (d+1)^2 popcounts): each
identity is checked once for each distinct key, which checks it on every
entry of the row.  An entry of sum_i E_i, of E_0 or of either side of
E_i o E_j = |X|^{-1} sum_k q^k_ij E_k depends on d(x, z) alone, so those
are checked once for each level that occurs.  Only the rows of the orbit
representatives of the graph's verified automorphisms are checked, which
is enough by the argument in `materialize_idempotents`; the work is
|R| n (d+1)^2 popcounts, with R those rows.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import lcm
from operator import mul, or_

from .errors import IrrationalEigenvalue, DrgError, NotQPolynomial, ParameterError
from .exact import ExactMatrix, canonical_json, format_fraction, q_int, scaled_ints
from .graphs import DistanceCensus, Graph, IntersectionArray, iter_bits, representatives


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
    and `verdicts` keeps the (WidthReport, CertReport) of
    `ekr_search.verify_descendent_family` by (t, distance histogram), for
    this object alone: both reports are functions of the histogram, the
    eigensystem and t, so the families with one histogram (all the
    descendent families of one t are images of each other under the
    automorphism group) share one verdict, while each histogram is still
    counted from its own family's members.
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
    verdicts: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if any(x.denominator != 1 for row in self.P.rows for x in row):
            raise DrgError("P is not integral; no distance-regular graph has it")
        D, DQ = scaled_ints(self.Q.rows)
        put = object.__setattr__  # the dataclass is frozen
        put(self, "D", D)
        put(self, "DQ", tuple(map(tuple, DQ)))
        put(self, "certificates", {})
        put(self, "verdicts", {})


def _scaled_minors(arr: IntersectionArray, a: tuple[int, ...], y: int) -> list[int]:
    """P_i = 2^i p_i(y/2) for i = 0..d+1, where p_i(x) is the i-th leading
    principal minor of xI - L.  All integers, by the three-term recurrence
    P_{i+1} = (y - 2a_i) P_i - 4 b_{i-1} c_i P_{i-1}."""
    P = [1, y - 2 * a[0]]
    for i in range(1, arr.d + 1):
        P.append((y - 2 * a[i]) * P[i] - 4 * arr.b[i - 1] * arr.c[i - 1] * P[i - 1])
    return P


def _classical_eigenvalues(arr: IntersectionArray) -> tuple[int, ...]:
    """theta_i = [d-i] (beta - alpha [i]) - [i] for i = 0..d, from the
    classical parameters (b, alpha, beta) that `arr` carries, [i] =
    1 + b + ... + b^(i-1) (Brouwer, Cohen and Neumaier 1989, section 8.4);
    `_eigenvalues` confirms them."""
    b, alpha, beta = arr.classical
    e = [q_int(i, b) for i in range(arr.d + 1)]
    return tuple(e[arr.d - i] * (beta - alpha * e[i]) - e[i] for i in range(arr.d + 1))


def _eigenvalues(arr: IntersectionArray, a: tuple[int, ...]) -> tuple[int, ...]:
    """The d+1 eigenvalues of the intersection matrix L, descending.

    An array with classical parameters (`graphs.classical_array`) takes
    them in closed form, `_classical_eigenvalues`, and confirms them
    exactly: theta_0 > theta_1 > ... > theta_d, and p_{d+1}(theta_i) = 0
    for each, p_{d+1} = det(xI - L) as below, one `_scaled_minors` call a
    root.  Then they are d+1 distinct roots of p_{d+1}, which is monic of
    degree d+1, so they are all its roots, in the descending order the
    bisection below gives; nothing is taken from the formula unchecked, and
    a value that fails is refused as a DrgError.  Every other array (one
    read off a graph by BFS, an odd graph's, one built by hand) is
    bisected.

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
    equals m exactly when p_{d+1}(m) = 0 and is irrational otherwise.  Every
    count taken is kept: the bisection for eigenvalue j runs from
    hi = theta_{j-1} and from lo, the largest m probed so far with
    N(m + 1/2) > j (-b_0 - 1 if none), as more than j eigenvalues lie above
    lo + 1/2 and j - 1 above theta_{j-1} + 1/2.  d+1 distinct confirmed
    integers are all the roots.  Raises IrrationalEigenvalue when a root is
    not an integer.
    """
    d = arr.d
    if arr.classical is not None:
        thetas = _classical_eigenvalues(arr)
        for j, th in enumerate(thetas):
            if j and th >= thetas[j - 1] or _scaled_minors(arr, a, 2 * th)[-1]:
                raise DrgError(f"closed-form eigenvalue {j + 1} of {d + 1} (descending), {th},"
                               f" of the classical parameters {arr.classical} is not a root"
                               " of det(xI - L) below the one before it")
        return thetas
    counts: dict[int, int] = {}  # m -> N(m + 1/2), every count taken

    def above(m: int) -> int:
        P = _scaled_minors(arr, a, 2 * m + 1)
        counts[m] = sum((u < 0) != (v < 0) for u, v in zip(P, P[1:]))
        return counts[m]

    thetas: list[int] = []
    hi = arr.b0
    for j in range(d + 1):
        # invariant: N(lo + 1/2) > j >= N(hi + 1/2); theta_0 = b_0 is not bisected
        lo = max((m for m, c in counts.items() if c > j), default=-arr.b0 - 1) if j else hi - 1
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
    it is kept and no passing ordering is listed.  The eigensystem is
    constructed as soon as Q is formed, and the PQ check and the Krein sums
    read its own D and DQ, so D*Q is formed once; only an ordering other
    than the descending one goes through `_reorder`, which forms it again
    for the permuted Q.
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
    natural = tuple(range(d + 1))
    sys = SchemeEigensystem(n=n_vertices, d=d, eigenvalues=thetas, k=k, m=tuple(m),
                            P=ExactMatrix(prows), Q=Q, ordering=natural,
                            passing_orderings=())
    D, DQ = sys.D, sys.DQ
    if any(sum(map(mul, row, col)) != (r == c) * n_vertices * D
           for r, row in enumerate(prows) for c, col in enumerate(zip(*DQ))):
        raise DrgError("PQ != |X| I; the eigensystem is inconsistent")
    if not check_q_polynomial:
        return sys
    passing = verify_q_polynomial(_support(_krein_sums(n_vertices, k, m, D, DQ), d))
    if natural not in passing:
        return _reorder(sys, passing[0], passing)
    object.__setattr__(sys, "passing_orderings", passing)  # frozen; not yet shared
    return sys


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


def krein_parameters(sys: SchemeEigensystem) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The Krein tensor as nested tuples q[k][i][j] = q^k_{ij}, the structure
    constants of entrywise multiplication in the E-basis:
    q^k_{ij} = |X|^{-1} sum_l Q_li Q_lj P_kl; nonnegative for any scheme, so
    a negative entry is reported as a data error.

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
    return tuple(tuple(map(tuple, plane)) for plane in vals)


def _walk(support, j: int) -> tuple[int, ...] | None:
    """The ordering 0, j, ... that passes, confirmed as it is walked, or None:
    row 0 of support[j], less 0, must be {j}; at each later position i, row
    c = perm[i] less c must hold perm[i-1], no other visited E_b, and one
    unvisited E_b, taken as perm[i+1], or none, which must come at i = d."""
    row = support[j]
    if row[0] & ~1 != 1 << j:
        return None
    perm, seen = [0, j], 1 | 1 << j
    while True:
        c, prev = perm[-1], 1 << perm[-2]
        rest = row[c] & ~(1 << c)
        if not rest & prev or rest & seen & ~prev:
            return None
        new = rest & ~seen
        if not new:
            return tuple(perm) if len(perm) == len(row) else None
        if new & (new - 1):
            return None
        perm.append(new.bit_length() - 1)
        seen |= new


def verify_q_polynomial(support) -> tuple[tuple[int, ...], ...]:
    """Every ordering that fixes E_0 and makes q^k_{1i} tridiagonal, in
    lexicographic order, from the Krein tensor's support (support[j][c] is
    the mask of the b with q^b_{j,c} != 0, as `_support` forms it);
    raises NotQPolynomial when there is none.

    The orderings are constructed, not searched.  perm passes, with
    perm[1] = j, when row perm[i] of support[j], less perm[i], is exactly
    {perm[i-1], perm[i+1]} (the ends that exist) at every i.  Then row 0 is
    {j}, and by induction each row perm[i] holds perm[i-1], no other of
    perm[0..i], and one more, perm[i+1], or none at i = d: `_walk(support, j)`
    takes the steps of perm and returns it.  Conversely a returned walk has
    d+1 distinct entries, as each step is unvisited, and each row it passed
    held perm[i-1], perm[i+1] and nothing else (at i = d every E_b is
    visited), so perm passes.  So each j gives at most one ordering, and
    ascending j lists them in the lexicographic order of
    `itertools.permutations`.
    """
    walks = (_walk(support, j) for j in range(1, len(support)))
    passing = tuple(p for p in walks if p is not None)
    if not passing:
        raise NotQPolynomial("no idempotent ordering is Q-polynomial")
    return passing


# ---------------------------------------------------------------------------
# full-matrix tier


def materialize_idempotents(
    G: Graph, census: DistanceCensus, sys: SchemeEigensystem
) -> list[tuple[tuple[int, ...], int]]:
    """The primitive idempotents as (C_i, D_i): E_i[x, y] = C_i[d(x, y)] / D_i,
    with C_i = scale_i (column i of Q) in integers, scale_i the lcm of that
    column's denominators, and D_i = |X| scale_i.

    Verifies, exactly in integer arithmetic: each E_i is idempotent, distinct
    idempotents are orthogonal, the E_i sum to the identity, and E_0 is the
    normalized all-ones matrix, by the popcount identity and the per-key and
    per-level checks of the module docstring.  Every vertex needs a census
    row (ParameterError otherwise, as for a census from some sources only),
    and each row must partition the vertices into levels 0..d (DrgError
    otherwise).

    The identities are checked on the rows R of the orbit representatives
    of G.automorphisms only.  Every g in the group the verified generators
    generate is an automorphism, so it preserves distance: with P_g its
    permutation matrix, P_g A_l P_g^T = A_l for each distance matrix A_l,
    and so for each M_i = sum_l C_il A_l, each product M_i M_j and each
    entrywise product M_i o M_j.  Any X among these then has
    X[gx, gy] = X[x, y], so an identity X = Y that holds on row x holds on
    row gx, and every row is gx for some representative x.  A hand-built
    graph has the trivial group, and then R is every row.
    """
    n, w = G.n, sys.d + 1
    rows = list(map(census.row, range(n)))  # ParameterError when one is missing
    full = (1 << n) - 1
    for x, row in enumerate(rows):
        if len(row) != w or sum(map(int.bit_count, row)) != n or reduce(or_, row) != full:
            raise DrgError(f"census row {x} does not partition the vertices"
                           f" into levels 0..{w - 1}")
    out = []
    for col in zip(*sys.Q.rows):
        scale = lcm(*(x.denominator for x in col))
        out.append((tuple(int(x * scale) for x in col), n * scale))
    keys = set()
    for x in representatives(G):
        rx = rows[x]
        for level, mask in enumerate(rx):
            for z in iter_bits(mask):
                rz = rows[z]
                keys.add((level, tuple([(a & b).bit_count() for a in rx for b in rz])))
    # per key, the vectors N C_b, N[l][l'] = |L_l(x) & L_l'(z)| the counts
    # in rows of d+1, so that (M_a M_b)[x, z] = C_a . N C_b
    products = [(level, [[sum(map(mul, counts[at:at + w], C)) for at in range(0, w * w, w)]
                         for C, _ in out]) for level, counts in keys]
    for i, (Ci, Di) in enumerate(out):
        if any(sum(map(mul, Ci, NC[i])) != Di * Ci[level] for level, NC in products):
            raise DrgError(f"E_{i} is not idempotent")
        for j in range(i + 1, w):
            # row x of M_j M_i
            if any(sum(map(mul, out[j][0], NC[i])) for _, NC in products):
                raise DrgError(f"E_{i} E_{j} != 0")
    levels = {level for level, _ in keys}
    total = lcm(*(D for _, D in out))
    if any(sum(total // D * C[l] for C, D in out) != total * (l == 0) for l in levels):
        raise DrgError("idempotents do not sum to the identity")
    C0, D0 = out[0]
    if any(C0[l] * n != D0 for l in levels):
        raise DrgError("E_0 is not |X|^{-1} J")
    return out


def krein_cross_check(
    G: Graph,
    census: DistanceCensus,
    sys: SchemeEigensystem,
    kt: tuple | None = None,
) -> None:
    """Entrywise check that E_i o E_j = |X|^{-1} sum_k q^k_ij E_k, with
    q^k_ij = kt[k][i][j] (`krein_parameters(sys)` by default), on the
    idempotents of `materialize_idempotents`, on the rows of the orbit
    representatives: each side's entry depends on the level of the pair
    alone, so it is checked once for each level that occurs in those rows.
    Raises on any mismatch."""
    if kt is None:
        kt = krein_parameters(sys)
    out = materialize_idempotents(G, census, sys)
    r = range(sys.d + 1)
    levels = {l for x in representatives(G) for l, mask in enumerate(census.row(x)) if mask}
    for i in r:
        Ci, Di = out[i]
        for j in r[i:]:
            Cj, Dj = out[j]
            coeffs = [kt[kk][i][j] / (sys.n * out[kk][1]) for kk in r]
            den = lcm(Di * Dj, *(c.denominator for c in coeffs))
            ints = [int(c * den) for c in coeffs]
            lhs = den // (Di * Dj)
            if any(lhs * Ci[l] * Cj[l] != sum(c * C[l] for c, (C, _) in zip(ints, out))
                   for l in levels):
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
