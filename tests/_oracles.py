"""Independent oracle helpers for the tests.

Deliberately shares no code with the package: plain list-of-list Fraction
matrices, Lagrange interpolation in the adjacency matrix, subspaces of
GF(q)^n as explicit point sets, generator label maps by row reduction of
every label, the full-matrix idempotent checks on every row, and maximum
cliques by a colour list of vertices at every node.  Slow but obviously
correct; used on small inputs only.
"""
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb, lcm
from operator import and_

import numpy as np


def mat_from_int(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    Bt = list(zip(*B))
    return [[sum(A[i][k] * Bt[j][k] for k in range(m)) for j in range(p)] for i in range(n)]


def mat_scale(c, A):
    c = Fraction(c)
    return [[c * x for x in row] for row in A]


def mat_sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_rank(A):
    """Rank by Gaussian elimination over Q."""
    work = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for col in range(len(work[0])):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def adjacency_matrix(graph):
    n = graph.n
    return [[1 if graph.is_edge(i, j) else 0 for j in range(n)] for i in range(n)]


def lagrange_idempotents(adj_int, thetas):
    """E_i = prod_{j != i} (A - theta_j I) / (theta_i - theta_j)."""
    n = len(adj_int)
    A = mat_from_int(adj_int)
    out = []
    for th in thetas:
        E = mat_eye(n)
        for other in thetas:
            if other == th:
                continue
            factor = mat_sub(A, mat_scale(other, mat_eye(n)))
            E = mat_scale(Fraction(1, th - other), mat_mul(E, factor))
        out.append(E)
    return out


def quad_form(E, indices):
    """chi^T E chi for the 0/1 indicator of the index set."""
    return sum(E[i][j] for i in indices for j in indices)


def krein_by_triple_sum(P, Q, n):
    """values[k][i][j] = q^k_ij = n^{-1} sum_l Q_li Q_lj P_kl, summed in
    Fractions entry by entry, with no sign check."""
    r = range(len(P))
    return [
        [[sum(Fraction(Q[l][i]) * Q[l][j] * P[k][l] for l in r) / n for j in r] for i in r]
        for k in r
    ]


def full_matrix_failure(levels, Q, krein, rows=None):
    """The full-matrix identities checked on the given rows (every row by
    default): (mats, message), with mats the list of (M_i, D_i), E_i = M_i/D_i
    = sum_l Q_li A_l / |X| built from the level masks, and message the first
    failure in the order and wording of the package's checks, or None.

    Q is a list of rows of Fractions and krein[k][i][j] = q^k_ij."""
    n, d = len(levels), len(Q) - 1
    A = [np.array([[mask >> y & 1 for y in range(n)] for mask in (row[l] for row in levels)],
                  dtype=np.int64) for l in range(d + 1)]
    mats = []
    for i in range(d + 1):
        scale = lcm(*(Fraction(Q[l][i]).denominator for l in range(d + 1)))
        M = sum(int(Fraction(Q[l][i]) * scale) * A[l] for l in range(d + 1))
        mats.append((M, n * scale))
    R = list(range(n)) if rows is None else list(rows)
    peak = max(int(np.abs(M).max()) for M, _ in mats)
    if n * peak * peak >= 2 ** 62:
        return mats, "idempotent entries too large for int64 verification"
    for i, (Mi, Di) in enumerate(mats):
        prod = Mi @ Mi
        if not np.array_equal(prod[R], Di * Mi[R]):
            return mats, f"E_{i} is not idempotent"
        for j in range(i + 1, d + 1):
            if np.any((mats[j][0] @ Mi)[R]):
                return mats, f"E_{i} E_{j} != 0"
    total = lcm(*(D for _, D in mats))
    if not np.array_equal(sum((total // D) * M for M, D in mats), total * np.eye(n, dtype=np.int64)):
        return mats, "idempotents do not sum to the identity"
    if not np.all(mats[0][0] * n == mats[0][1]):
        return mats, "E_0 is not |X|^{-1} J"
    big = [M[R].astype(object) for M, _ in mats]
    for i in range(d + 1):
        for j in range(i, d + 1):
            Di, Dj = mats[i][1], mats[j][1]
            coeffs = [Fraction(krein[k][i][j]) / (n * mats[k][1]) for k in range(d + 1)]
            den = lcm(Di * Dj, *(c.denominator for c in coeffs))
            lhs = (den // (Di * Dj)) * (big[i] * big[j])
            rhs = sum(int(coeffs[k] * den) * big[k] for k in range(d + 1))
            if not np.array_equal(lhs, rhs):
                return mats, f"Krein expansion of E_{i} o E_{j} fails entrywise"
    return mats, None


# ---------------------------------------------------------------------------
# Q-polynomial orderings by search, and certificates by Fraction elimination


def orderings_by_search(krein):
    """Every ordering (0, ...) of the idempotents under which, with
    j = order[1], q^{order[k]}_{j,order[i]} is nonzero for |k - i| = 1 and
    zero for |k - i| > 1: all (d)! candidates, in lexicographic order.
    krein[k][i][j] = q^k_ij."""
    d = len(krein) - 1

    def passes(order):
        return all((krein[order[k]][order[1]][order[i]] != 0) == (abs(k - i) == 1)
                   for i in range(d + 1) for k in range(d + 1) if k != i)

    return tuple((0,) + p for p in itertools.permutations(range(1, d + 1)) if passes((0,) + p))


def krein_support(krein):
    """support[j][c], the mask of the b with q^b_{j,c} != 0, read entry by
    entry off krein[k][i][j] = q^k_ij."""
    r = range(len(krein))
    return tuple(tuple(sum(1 << b for b in r if krein[b][j][c]) for c in r) for j in r)


def integer_form(rows):
    """(D, D*rows) with D the lcm of the entries' denominators, as tuples."""
    D = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return D, tuple(tuple(int(Fraction(x) * D) for x in row) for row in rows)


def inner_distribution_by_fractions(counts, Q):
    """(e, eQ) of an ordered-pair distance histogram, in Fractions from the
    rows of Q: e_i = counts_i / |Y| and (eQ)_j = sum_i e_i Q_ij."""
    e = [Fraction(c, counts[0]) for c in counts]
    return e, [sum(e[i] * Fraction(Q[i][j]) for i in range(len(e))) for j in range(len(Q[0]))]


def solve_by_fractions(A, b):
    """x with Ax = b by Gauss-Jordan over Fractions; None when A is singular."""
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def _pinned_by_fractions(M, t):
    """x with x_0 = 1, x_1..x_t = 0 and sum_i x_i M[j][i] = 0, j = 1..d-t."""
    d = len(M) - 1
    A = [[M[j][i] for i in range(t + 1, d + 1)] for j in range(1, d - t + 1)]
    tail = solve_by_fractions(A, [-M[j][0] for j in range(1, d - t + 1)])
    return [Fraction(1)] + [Fraction(0)] * t + tail


def _certificate_fields(f, t, Q):
    d = len(Q) - 1
    transform = [sum(Fraction(f[i]) * Q[j][i] for i in range(d + 1)) for j in range(d + 1)]
    fields = {
        "t": t,
        "f": tuple(f),
        "bound": transform[0],
        "normalization_ok": f[0] == 1,
        "zero_block_ok": all(x == 0 for x in f[1:t + 1]),
        "positive_tail": all(x > 0 for x in f[t + 1:]),
        "dual_constraints_ok": all(x == 0 for x in transform[1:d - t + 1]),
    }
    fields["feasible"] = (fields["normalization_ok"] and fields["zero_block_ok"]
                          and fields["positive_tail"] and fields["dual_constraints_ok"])
    return fields


def certificate_by_fractions(Q, t):
    """The dual certificate's fields for threshold t from the rows of Q: f
    pinned by (fQ^T)_j = 0, j = 1..d-t, solved by Gauss-Jordan over
    Fractions."""
    return _certificate_fields(_pinned_by_fractions(Q, t), t, Q)


def krawtchouk_by_sum(d, q):
    """K[i][j] = K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i,s) C(d-i,j-s), the
    closed form of the Krawtchouk polynomials."""
    return [[sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(d - i, j - s)
                 for s in range(j + 1)) for j in range(d + 1)] for i in range(d + 1)]


def hamming_certificate_by_fractions(d, q, t):
    """The MDS-route certificate of H(d,q): K[i][j] = K_j(i) is the z^j
    coefficient of (1 + (q-1) z)^(d-i) (1 - z)^i, e' is pinned by
    (e'K)_j = 0, j = 1..d-t, and f_i = e'_i / (C(d,i) (q-1)^i)."""
    K = []
    for i in range(d + 1):
        poly = [1]
        for a, b in [(1, q - 1)] * (d - i) + [(1, -1)] * i:  # poly *= a + b z
            poly = [a * x + b * y for x, y in zip(poly + [0], [0] + poly)]
        K.append(poly)
    eprime = _pinned_by_fractions([list(col) for col in zip(*K)], t)
    valency = [comb(d, i) * (q - 1) ** i for i in range(d + 1)]
    return _certificate_fields([e / k for e, k in zip(eprime, valency)], t, K)


# ---------------------------------------------------------------------------
# subspaces of GF(q)^n as point sets, and X2 distances by search


def span(rows, q, n):
    """Every vector of the row space, as a frozenset of coordinate tuples."""
    points = {(0,) * n}
    for row in rows:
        points = {
            tuple((a + c * b) % q for a, b in zip(p, row)) for p in points for c in range(q)
        }
    return frozenset(points)


def elements(rows, q, n):
    """All nonzero vectors of the row space, sorted."""
    return sorted(span(rows, q, n) - {(0,) * n})


def sub_subspaces(rows, q, n, k):
    """All k-dim subspaces of the row space, as point sets."""
    found = {
        pts
        for basis in itertools.combinations(elements(rows, q, n), k)
        if len(pts := span(basis, q, n)) == q ** k
    }
    return sorted(found, key=sorted)


def projective_points(pts):
    """The vectors of a point set whose first nonzero entry is 1."""
    return frozenset(p for p in pts if next((x for x in p if x), 0) == 1)


def x2_distance_by_search(x_rows, y_rows, q):
    """Twisted-graph distance of two X2 vertices (equal-dimension subspaces
    of the hyperplane), given by their basis rows: 0, 1 or 2, or None when it
    is at least 3.

    A common X2 neighbour z of a non-adjacent pair meets x in a hyperplane of
    x and contains a vector c of y outside x, so searching hyperplanes of x
    times vectors of y finds one whenever it exists; X1 holds no common
    neighbour of a non-adjacent pair.
    """
    n, dim = len(x_rows[0]), len(x_rows)
    x, y = span(x_rows, q, n), span(y_rows, q, n)
    if x == y:
        return 0
    if len(x & y) == q ** (dim - 1):
        return 1
    for hyp in sub_subspaces(x_rows, q, n, dim - 1):
        for c in sorted(y - x):
            z = {tuple((a + s * b) % q for a, b in zip(p, c)) for p in hyp for s in range(q)}
            if len(z & y) == q ** (dim - 1):
                return 2
    return None


def x2_distance_counts_by_search(members, q, d):
    """Ordered-pair distance histogram of X2 vertices given by basis rows."""
    counts = [0] * (d + 1)
    for x in members:
        for y in members:
            dist = x2_distance_by_search(x, y, q)
            if dist is None:
                raise ValueError(f"pair {x}, {y} is at distance >= 3")
            counts[dist] += 1
    return counts


def x2_counts_by_pairs(members, q, d):
    """Ordered-pair distance histogram of X2 vertices given by basis rows,
    by the meet of every pair: the pair count the package once used, on
    the explicit point sets here, so a meet of dimension k has q^k vectors
    where the package's point masks had [k]_q points.  The distance is the
    gap d - 1 - dim(x meet y) when that is 1 or 2; a repeated subspace or
    a pair further apart raises ValueError."""
    sets = [span(rows, q, 2 * d + 1) for rows in members]
    common = Counter(map(len, itertools.starmap(and_, itertools.combinations(sets, 2))))
    if q ** (d - 1) in common:
        raise ValueError("two members are the same subspace")
    meet_dim = {q ** k: k for k in range(d - 1)}
    counts = [0] * (d + 1)
    counts[0] = len(members)
    for size, pairs in common.items():
        gap = d - 1 - meet_dim[size]
        if gap > 2:
            raise ValueError("pair is at distance >= 3")
        counts[gap] += 2 * pairs
    return counts


# ---------------------------------------------------------------------------
# automorphism generators of the subspace graphs, by row reduction of every
# label


def rref_rows(rows, q):
    """Canonical RREF basis of the row space of rows over GF(q), q prime, by
    Gauss-Jordan elimination, zero rows dropped."""
    work, done = [[x % q for x in row] for row in rows], []
    for col in range(len(work[0]) if work else 0):
        piv = next((row for row in work if row[col]), None)
        if piv is None:
            continue
        work.remove(piv)
        inv = pow(piv[col], q - 2, q)
        piv = [x * inv % q for x in piv]
        done = [[(x - r[col] * y) % q for x, y in zip(r, piv)] for r in done] + [piv]
        work = [[(x - r[col] * y) % q for x, y in zip(r, piv)] for r in work]
    return tuple(map(tuple, done))


def subspace_label_maps(family, q, v):
    """Label maps of the generators of J_q(v,d) (family "grassmann") or of
    the twisted graph on GF(q)^v: each row map f applied to every row of a
    label, then the rows reduced.  The maps, on the first m coordinates (m
    = v, or v - 1 for twisted): their cycle, x_1 <-> x_2 and x_1 += x_2;
    for twisted also x_1 += x_v."""
    m = v - 1 if family == "twisted" else v
    maps = [
        lambda x: x[m - 1:m] + x[:m - 1] + x[m:],
        lambda x: (x[1], x[0]) + x[2:],
        lambda x: ((x[0] + x[1]) % q,) + x[1:],
    ]
    if family == "twisted":
        maps.append(lambda x: ((x[0] + x[-1]) % q,) + x[1:])
        return [lambda lab, f=f: (lab[0], rref_rows(map(f, lab[1]), q)) for f in maps]
    return [lambda rows, f=f: rref_rows(map(f, rows), q) for f in maps]


def label_maps(family, *args):
    """Label maps of the generators of each builder's graph, in its order,
    for the builder's arguments: on J(v,d) the transposition (1 2) and
    a -> a mod v + 1 of the elements; on H(d,q) the coordinate cycle and +1
    in coordinate 0; on Bil_q(d,e) +E_11, the cycle of the columns and, for
    d > 1, of the rows; on the subspace graphs `subspace_label_maps`."""
    if family == "johnson":
        v = args[0]
        return [lambda x: tuple(sorted({1: 2, 2: 1}.get(a, a) for a in x)),
                lambda x: tuple(sorted(a % v + 1 for a in x))]
    if family == "hamming":
        q = args[1]
        return [lambda w: w[1:] + w[:1], lambda w: ((w[0] + 1) % q,) + w[1:]]
    if family == "bilinear":
        q, d = args[0], args[1]
        maps = [lambda M: (((M[0][0] + 1) % q,) + M[0][1:],) + M[1:],
                lambda M: tuple(row[1:] + row[:1] for row in M)]
        return maps + [lambda M: M[1:] + M[:1]] if d > 1 else maps
    q, v = args[0], args[1] if family == "grassmann" else 2 * args[1] + 1
    return subspace_label_maps(family, q, v)


# ---------------------------------------------------------------------------
# graph cache files


def _tuples(x):
    return tuple(_tuples(v) for v in x) if isinstance(x, list) else x


def parse_graph_cache(text):
    """(metadata, labels, edges) of a graph cache file: a magic line, JSON
    metadata, one JSON label per vertex, then one 'i j' line per edge."""
    lines = text.splitlines()
    meta = json.loads(lines[1])
    n = meta["vertices"]
    labels = [_tuples(json.loads(line)) for line in lines[2:2 + n]]
    edges = [tuple(map(int, line.split())) for line in lines[2 + n:]]
    return meta, labels, edges


# ---------------------------------------------------------------------------
# graphs by their pairwise adjacency rules


def subspaces(q, n, k):
    """Every k-dim subspace of GF(q)^n as a point set, each once: the spans
    of each (k-1)-dim subspace with one vector outside it."""
    found = {span((), q, n)}
    for _ in range(k):
        grown = set()
        for sub in found:
            covered = set(sub)
            for v in itertools.product(range(q), repeat=n):
                if v not in covered:
                    bigger = frozenset(
                        tuple((a + c * b) % q for a, b in zip(p, v)) for p in sub for c in range(q)
                    )
                    covered |= bigger
                    grown.add(bigger)
        found = grown
    return found


def subspaces_by_cells(n, k, q):
    """Every k-dim subspace of GF(q)^n as its RREF basis, in the order the
    program enumerates them: pivot patterns in lexicographic order, then
    the free cells, read row by row, counting up in base q, each basis
    filled in cell by cell."""
    for pivots in itertools.combinations(range(n), k):
        free_cells = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                      if j not in pivots]
        for values in itertools.product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def rref_label(points):
    """Canonical RREF basis of a subspace given as a point set: for each
    leading position of its nonzero vectors, the vector with 1 there and 0 at
    every other leading position."""
    pivots = sorted({next(i for i, x in enumerate(p) if x) for p in points if any(p)})
    return tuple(
        next(p for p in points if all(p[c] == (c == piv) for c in pivots)) for piv in pivots
    )


def adjacency_by_rule(family, params):
    """(vertices, adj) of a graph family: labels enumerated and sorted on
    their own, and the pairwise adjacency rule tested on all n^2/2 pairs,
    with subspaces as point sets.  adj[i] is a neighbour bitmask."""
    if family == "johnson":
        v, d = params["v"], min(params["d"], params["v"] - params["d"])
        objs = {c: set(c) for c in itertools.combinations(range(1, v + 1), d)}
        rule = lambda a, b: len(a & b) == d - 1  # noqa: E731
    elif family == "hamming":
        objs = {w: w for w in itertools.product(range(params["q"]), repeat=params["d"])}
        rule = lambda a, b: sum(x != y for x, y in zip(a, b)) == 1  # noqa: E731
    elif family == "grassmann":
        q, v = params["q"], params["v"]
        d = min(params["d"], v - params["d"])
        objs = {rref_label(s): s for s in subspaces(q, v, d)}
        rule = lambda a, b: len(a & b) == q ** (d - 1)  # noqa: E731
    elif family == "bilinear":
        q, d, e = params["q"], params["d"], params["e"]
        objs = {}
        for flat in itertools.product(range(q), repeat=d * e):
            rows = tuple(flat[i * e:(i + 1) * e] for i in range(d))
            objs[rows] = rows

        def rule(a, b):  # the difference has rank one: its row space has q points
            diff = [tuple((x - y) % q for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]
            return len(span(diff, q, e)) == q
    elif family == "twisted":
        q, d = params["q"], params["d"]
        n = 2 * d + 1
        objs = {("X1", rref_label(s)): s for s in subspaces(q, n, d + 1) if any(p[-1] for p in s)}
        for s in subspaces(q, n, d - 1):
            if not any(p[-1] for p in s):
                objs["X2", rref_label(s)] = s
        # dim x + dim y - 2 dim(x meet y) = 2
        rule = lambda a, b: len(a) * len(b) == q ** 2 * len(a & b) ** 2  # noqa: E731
    else:
        raise ValueError(family)
    vertices = sorted(objs)
    adj = [0] * len(vertices)
    for i, x in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            if rule(objs[x], objs[vertices[j]]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return vertices, adj


def descendent_families_by_filter(q, d, t):
    """(u, members) for each (t-1)-dim subspace u of H = GF(q)^(2d), the
    members every (d-1)-dim subspace of H that contains u, found by testing
    the whole pool against each u on point sets.  Both are canonical RREF
    bases with a zero last coordinate appended, as X2 labels are.  The u
    come in order of their pivot columns, then of their rows (the order of
    enumeration by pivot pattern and free entries), the members sorted."""
    def label(points):
        return tuple(row + (0,) for row in rref_label(points))

    def order(u):
        rows = rref_label(u)
        return [next(i for i, x in enumerate(row) if x) for row in rows], rows

    pool = sorted((label(x), x) for x in subspaces(q, 2 * d, d - 1))
    return [
        (label(u), [lab for lab, x in pool if u <= x])
        for u in sorted(subspaces(q, 2 * d, t - 1), key=order)
    ]


# ---------------------------------------------------------------------------
# distances by breadth-first search from each source


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def census_by_bfs(adj, sources=None):
    """(levels, diameter) of the graph with neighbour masks adj, by one BFS
    per source, every vertex when sources is None: levels[i] is the list of
    the masks of the vertices at distance k from the i-th source, padded
    with zeros up to the largest eccentricity among the sources, which is
    the diameter returned.  ValueError if disconnected."""
    n = len(adj)
    full = (1 << n) - 1
    levels = []
    for s in range(n) if sources is None else sources:
        seen = frontier = 1 << s
        row = []
        while frontier:
            row.append(frontier)
            nxt = 0
            for v in _bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        if seen != full:
            raise ValueError(f"vertex {s} does not reach every vertex")
        levels.append(row)
    diameter = max(len(row) for row in levels) - 1
    for row in levels:
        row.extend([0] * (diameter + 1 - len(row)))
    return levels, diameter


def distances_by_bfs(adj):
    """dist[x][y] by `census_by_bfs`, which shares no code with the
    package's census."""
    levels, _ = census_by_bfs(adj)
    n = len(adj)
    return [[next(l for l, mask in enumerate(row) if mask >> y & 1) for y in range(n)]
            for row in levels]


def threshold_by_levels(levels, diameter, t):
    """Neighbour masks of the graph at distance 1..diameter-t: the OR of
    levels 1..diameter-t of each row of a census from every vertex."""
    out = []
    for row in levels:
        mask = 0
        for level in row[1:diameter - t + 1]:
            mask |= level
        out.append(mask)
    return out


def is_clique_cover(adj, cliques):
    """Every member set in cliques is a clique of the graph with neighbour
    masks adj, and every edge lies in one of them."""
    covered = [1 << x for x in range(len(adj))]
    for members in cliques:
        mask = sum(1 << x for x in set(members))
        for x in members:
            if mask & ~(adj[x] | 1 << x):
                return False
            covered[x] |= mask
    return all(adj[x] & ~covered[x] == 0 for x in range(len(adj)))


def is_clique_partition(adj, cliques):
    """Every member set in cliques is a clique of the graph with neighbour
    masks adj, and every edge lies in exactly one of them."""
    covered = [1 << x for x in range(len(adj))]
    for members in cliques:
        mask = sum(1 << x for x in set(members))
        for x in set(members):
            if mask & ~(adj[x] | 1 << x) or covered[x] & mask & ~(1 << x):
                return False
            covered[x] |= mask
    return all(covered[x] == adj[x] | 1 << x for x in range(len(adj)))


# ---------------------------------------------------------------------------
# automorphisms on the adjacency masks


def is_automorphism(adj, perm):
    """perm is a bijection of range(len(adj)) with adj[perm[x]] equal to the
    image of adj[x] for every x: the check on every adjacency mask."""
    if sorted(perm) != list(range(len(adj))):
        return False
    return all(adj[perm[x]] == sum(1 << perm[y] for y in _bits(mask))
               for x, mask in enumerate(adj))


# ---------------------------------------------------------------------------
# maximum cliques by the per-vertex colour-list branch and bound


def _orbits_by_closure(n, generators):
    """Orbit bitmasks of the group the generators span, by least vertex."""
    out, seen = [], 0
    for r in range(n):
        if seen >> r & 1:
            continue
        mask, stack = 1 << r, [r]
        while stack:
            x = stack.pop()
            for perm in generators:
                if not mask >> perm[x] & 1:
                    mask |= 1 << perm[x]
                    stack.append(perm[x])
        seen |= mask
        out.append(mask)
    return out


def orbit_representatives(n, generators):
    """The least vertex of each orbit of the group the generators span,
    ascending."""
    return [(orbit & -orbit).bit_length() - 1 for orbit in _orbits_by_closure(n, generators)]


def max_clique_reference(adj, generators=(), warm_start=None, enum_cap=10_000):
    """(optimum, nodes, families, truncated) of every maximum clique of the
    graph with neighbour masks adj, by a colour list per node: each vertex
    of the candidate set in greedy colour order, read backwards, one
    recursive call per tree node.  Rooted at the least vertex of each orbit
    of the generators and closed under them, as the program's search is; it
    keeps no hint and walks every node of the tree."""
    n = len(adj)
    best = len(set(warm_start)) if warm_start is not None else 0
    found = []
    state = {"best": best, "nodes": 0, "truncated": False}

    def color_order(P):
        order = []
        bounds = []
        color = 0
        rest = P
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                avail &= ~adj[v]
                rest ^= 1 << v
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(clique, P):
        state["nodes"] += 1
        if P == 0:
            size = len(clique)
            if size > state["best"]:
                state["best"] = size
                state["truncated"] = False
                found.clear()
                found.append(tuple(clique))
            elif size == state["best"]:
                if len(found) < enum_cap:
                    found.append(tuple(clique))
                else:
                    state["truncated"] = True
            return
        order, bounds = color_order(P)
        for pos in range(len(order) - 1, -1, -1):
            if len(clique) + bounds[pos] < state["best"]:
                return
            v = order[pos]
            clique.append(v)
            expand(clique, P & adj[v])
            clique.pop()
            P &= ~(1 << v)

    done = 0
    for orbit in _orbits_by_closure(n, generators):
        r = (orbit & -orbit).bit_length() - 1
        expand([r], adj[r] & ~done)
        done |= orbit

    closed = sorted(tuple(sorted(f)) for f in found)
    seen = set(closed)
    for clique in closed:
        if len(closed) > enum_cap:
            break
        for perm in generators:
            image = tuple(sorted(perm[v] for v in clique))
            if image not in seen:
                seen.add(image)
                closed.append(image)
    if len(closed) > enum_cap:
        state["truncated"] = True
        del closed[enum_cap:]
    return state["best"], state["nodes"], tuple(sorted(closed)), state["truncated"]
