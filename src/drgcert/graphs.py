"""Concrete distance-regular graph families as explicit vertex/edge sets.

Vertices are plain nested tuples (canonical labels, JSON-friendly); adjacency
is stored as one Python-int bitmask per vertex, built in O(n * keys) from a
few clique keys per vertex (a Johnson vertex less one element, a Grassmann
vertex's hyperplanes): each builder proves that two adjacent vertices
share exactly one key and two others none.  The vertices that share a key
form a clique, and the graph keeps these cliques (`Graph.cliques`), which
partition the edges: every edge lies in exactly one.  Distances are always
computed from the graph itself, never by closed-form distance formulas,
and only where a verdict reads them.  The distance-regularity check reads
the rows of one representative per orbit (below), so `distance_census`
takes those sources and runs one breadth-first search from each over the
adjacency masks, in O(n) ORs a source.  The full-matrix tier
(`scheme.materialize_idempotents`) reads every row, and takes the census
from every vertex at once: a ball recurrence over the clique cover,
`_grow_balls`, whose rounds `within` shares, stopped at the radius d-t of
a threshold graph, and `subsets.distance_counts` too, stopped at a
subset's width, with no census kept.  A census keeps the level masks it
produces: levels[x][k] is the bitmask of the vertices at distance k from
x.

Each builder also names a few label maps that generate a group of
automorphisms (Sym(v) for Johnson, SL(v,q) for Grassmann, ...).  None is
trusted: `_assemble` turns each into an index permutation and checks that it
is a bijection mapping each clique's member set onto a clique's member set,
in O(sum of clique sizes).  Their orbits (one per family, X1 and X2 for
the twisted graph), found once per graph, let the distance-regularity
check take its sources among the orbit representatives only, since an
automorphism g gives the counts at (gx, gy) the values at (x, y), and let
the clique search in `ekr_search` root at those representatives.

A subspace of GF(q)^n is a plain tuple, its canonical RREF basis, which is
also its vertex label.  A subspace builder also gives each vertex its set
of points (the 1-dim subspaces in it) as an int mask, once: its clique keys
are the masks of its hyperplanes, and a generator's image of it is the
vertex whose mask is the image of its mask under the generator's
permutation of the points, found with no row reduction per vertex.  The
points come from one span kernel on packed ints, `_span_points`, which
takes a batch of bases of one shape, walks their rows from the bottom and
takes each sum over the whole batch at once, so the cost of a call is
paid once a batch: `_PointSets` spans each run of subspaces of one
dimension in one call, and the X2 point index below spans in one call
the members a histogram meets that it does not hold, with those
registered on it: every X2 vertex of a descendent enumeration at once.

Closed-form intersection arrays (for the parameter tier, where the graph
itself is never materialized) exist for every family here, all built by
`classical_array` from classical parameters that the array carries, and
are cross-validated against BFS-extracted arrays in the test suite.
`family_array` gives a builder's family its array after the builder's own
parameter refusals and vertex cap, which the two share.  On that tier
`twisted_x2_distance_counts` gives the distance histogram of a set of X2
vertices by a proved rule, for every q, with no pair of them looked at:
it counts how many members share each hyperplane (and, from d = 4, each
codim-2 subspace), in time linear in the members.  Its `X2PointIndex`
holds each member given as a tuple of tuples under the member's id, so
a histogram whose members it holds reads their masks with no check or
span.
"""
from __future__ import annotations

import itertools
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache, reduce
from math import comb
from operator import and_, itemgetter, lshift, mul, or_

from .errors import (
    DisconnectedGraph,
    DrgError,
    DistanceUndetermined,
    NotDistanceRegular,
    ParameterError,
    TierLimitExceeded,
    UnsupportedField,
)
# graphs.rref_gf stays bound: perfbench/test_perfbench.py checks that the
# tracer restores it
from .exact import canonical_json, is_prime, q_binomial, q_int, rref_gf  # noqa: F401

DEFAULT_VERTEX_CAP = 20_000


def iter_bits(mask: int):
    """Indices of set bits of mask >= 0, ascending, by `str.find` on its
    binary string: no big-int operation per bit."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


# ---------------------------------------------------------------------------
# subspaces of GF(q)^n


def all_subspaces(n: int, k: int, q: int, coords=None):
    """Yield every k-dim subspace of the span of the e_j, j in coords (all n
    coordinates by default), in GF(q)^n exactly once, as its canonical RREF
    basis: a tuple of k row tuples of length n, 0 off coords.

    Enumeration is by pivot pattern plus free entries, so each subspace is
    produced directly in canonical form (no reduction step, no duplicates).
    The pivots are k of the coords, in `combinations` order, and each
    pattern's rows are formed once: row i has 1 at its pivot p_i, 0 before
    it, at the other pivots and off coords, and any entry in the other
    columns after it; the bases are the product of the rows' choices, in
    the order of their free entries read row by row.  For increasing
    coords c_0 < c_1 < ... this is the enumeration of GF(q)^len(coords)
    with column i moved to c_i, in the same order.
    """
    coords = range(n) if coords is None else coords
    for pivots in itertools.combinations(coords, k):
        rows = [list(itertools.product(*[(int(j == p),) if j <= p or j in pivots
                                         or j not in coords else range(q) for j in range(n)]))
                for p in pivots]
        yield from itertools.product(*rows)


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Finite simple connected graph with canonical vertex labels.

    adj[i] is an int bitmask of the neighbours of vertex i.  automorphisms
    holds index permutations that generate a group of automorphisms; the
    caller vouches for them (the builders verify theirs on their cliques in
    `_assemble`), and a hand-built graph has the trivial group.  cliques,
    when known, lists non-empty cliques of the graph as index arrays that
    together cover every edge; the builders keep the ones their edges come
    from, one clique per edge, and a graph without a cover has None.  orbits, when known, are
    those of the generators (`orbits`, which finds and keeps them otherwise).
    The clique incidence that the ball rounds read is kept too (`_incidence`).
    """

    __slots__ = ("family", "params", "vertices", "adj", "automorphisms", "cliques", "_index",
                 "_orbits", "_incidence")

    def __init__(self, family: str, params: dict, vertices: list, adj: list[int],
                 automorphisms: tuple = (), cliques: list[array] | None = None,
                 orbits: list[int] | None = None):
        self.family = family
        self.params = dict(params)
        self.vertices = list(vertices)
        self.adj = list(adj)
        self.automorphisms = automorphisms
        self.cliques = cliques
        self._orbits = None if orbits is None else (automorphisms, orbits)
        self._incidence = None
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ParameterError("duplicate vertex labels")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index_of(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ParameterError(f"label {label!r} is not a vertex of {self.family}") from None

    def is_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def __repr__(self):
        return f"Graph({self.family}, n={self.n}, params={self.params})"


def _check_cap(name: str, bits: int, count, cap: int, prime: int | None = None,
               unit: str = "vertices") -> int:
    """count(), a number of `unit`, refused above cap before any is made; as
    the count is at least 2^bits, a huge one is refused without being formed.
    A field order `prime` is tested between the two, after the count-free
    refusal, which also spares `is_prime` a q it cannot decide."""
    if bits >= cap.bit_length():
        raise TierLimitExceeded(f"{name} has at least 2^{bits} {unit}; cap is {cap}")
    if prime is not None and not is_prime(prime):
        raise UnsupportedField(f"q={prime} is not prime")
    n = count()
    if n > cap:
        raise TierLimitExceeded(f"{name} has {n} {unit}; cap is {cap}")
    return n


def _through(n: int, cliques) -> list[array]:
    """through[x]: the indices of the cliques that contain vertex x."""
    through = [array("I") for _ in range(n)]
    for c, members in enumerate(cliques):
        for x in members:
            through[x].append(c)
    return through


def _incidence(G: Graph) -> tuple[list[array], list[array]]:
    """(cliques, through): G's clique cover, or for a graph without one its
    edges as 2-cliques, and `_through` of it.  Found once for each pair of
    G.cliques and G.adj and kept on G, as `orbits` are; `_assemble` keeps
    the one it forms adj from.  The lists are shared, not to be changed."""
    memo = G._incidence
    if memo is not None and memo[0] is G.cliques and memo[1] is G.adj:
        return memo[2], memo[3]
    cliques = G.cliques
    if cliques is None:
        cliques = [array("I", (x, y)) for x, mask in enumerate(G.adj)
                   for y in iter_bits(mask >> x << x)]
    through = _through(G.n, cliques)
    G._incidence = (G.cliques, G.adj, cliques, through)
    return cliques, through


def _assemble(family, params, labels, keys, expected_n, generators):
    """Sort the labels, join the vertices of each clique, verify the
    automorphism generators (connectivity is checked by `distance_census`,
    which every graph goes through before use).  keys(label) lists a
    vertex's clique keys, and the vertices that share a key form one
    clique.  adj[i] is the OR of the masks of the cliques through i, less
    bit i, and the cliques are kept on the graph as its cover.

    Each generator, a label map g, becomes the index permutation p with
    p[x] = index_of(g(x)).  p must be a bijection that maps every clique's
    member set onto a clique's member set, in O(sum of clique sizes) per
    map; DrgError otherwise.  This proves p an automorphism.  The family F
    of member sets is finite and p is injective, so p maps F into F
    injectively, hence onto F, and p^-1 maps F into F as well.  x ~ y iff
    {x, y} lies in a set of F, so x ~ y iff p(x) ~ p(y).  The test is
    sufficient, not necessary: an automorphism may move a member set onto a
    clique that is not in F.  Every builder's generators act on the keys
    themselves, so they pass."""
    labels = sorted(labels)
    if len(labels) != expected_n:
        raise ParameterError(f"{family}: enumerated {len(labels)} vertices, expected {expected_n}")
    graph = Graph(family, params, labels, [])
    members = defaultdict(lambda: array("I"))
    for i, label in enumerate(labels):
        for key in keys(label):
            members[key].append(i)
    cliques = list(members.values())
    masks = [reduce(or_, map((1).__lshift__, c)) for c in cliques]
    through = _through(graph.n, cliques)
    graph.adj = [reduce(or_, map(masks.__getitem__, cs), 0) & ~(1 << i)
                 for i, cs in enumerate(through)]
    del masks  # n bits a clique, not needed by the generator checks
    graph.cliques = cliques
    graph._incidence = (cliques, graph.adj, cliques, through)
    sets = set(map(frozenset, cliques))
    perms = []
    for g in generators:
        perm = tuple(graph._index.get(g(label)) for label in labels)
        if None in perm or len(set(perm)) != graph.n:
            raise DrgError(f"{family}: a generator is not a bijection of the vertices")
        for s in sets:
            if frozenset(map(perm.__getitem__, s)) not in sets:
                raise DrgError(
                    f"{family}: a generator does not preserve the edges at {labels[min(s)]!r}"
                )
        perms.append(perm)
    graph.automorphisms = tuple(perms)
    return graph


def orbits(G: Graph) -> list[int]:
    """The vertex orbits of the group that G.automorphisms generates, as
    bitmasks ordered by their least vertex, which is the orbit's
    representative.  A finite group's orbits are closures under the
    generators alone.  They are found once for each tuple of generators
    and kept on G (a graph with the same tuple, as a threshold graph has,
    may take them over); the list is shared, not to be changed."""
    memo = G._orbits
    if memo is not None and memo[0] is G.automorphisms:
        return memo[1]
    orbit_of = [-1] * G.n
    out = []
    for r in range(G.n):
        if orbit_of[r] >= 0:
            continue
        orbit_of[r] = len(out)
        mask, stack = 1 << r, [r]
        while stack:
            x = stack.pop()
            for perm in G.automorphisms:
                y = perm[x]
                if orbit_of[y] < 0:
                    orbit_of[y] = len(out)
                    mask |= 1 << y
                    stack.append(y)
        out.append(mask)
    G._orbits = (G.automorphisms, out)
    return out


def representatives(G: Graph) -> list[int]:
    """One vertex per orbit of `orbits(G)`, the least of each, ascending."""
    return [(orbit & -orbit).bit_length() - 1 for orbit in orbits(G)]


def _shear(rows, p: int, u, q: int) -> tuple:
    """The rows R_i - u_i R_p over GF(q); row p becomes zero (u_p = 1)."""
    return tuple([
        tuple([(a - c * b) % q for a, b in zip(row, rows[p])]) if c else row
        for row, c in zip(rows, u)
    ])


def _elementary(q: int, m: int) -> list:
    """Maps of row vectors over GF(q) that fix every coordinate after the
    first m: the cycle of those coordinates, x_1 <-> x_2 and x_1 += x_2.
    The cycle and the swap give every permutation matrix, and powers and
    conjugates of x_1 += x_2 every elementary transvection x_i += c x_j,
    which generate SL(m,q).  SL(m,q) is transitive on the k-spaces for
    0 < k < m, as GL(m,q) is: if g in GL maps U onto U', follow it by the
    map that scales one basis vector outside U' (in a basis extending one of
    U') by det(g)^-1; it fixes U', so the product lies in SL and still maps
    U onto U'."""
    return [
        lambda x: x[m - 1:m] + x[:m - 1] + x[m:],
        lambda x: (x[1], x[0]) + x[2:],
        lambda x: ((x[0] + x[1]) % q,) + x[1:],
    ]


@cache
def _fields(n: int, q: int) -> tuple:
    """(w, K, offsets) of `_pack` on GF(q)^n: w = q.bit_length() + 1 bits a
    coordinate, so 2^(w-1) >= q; K = sum of 2^(jw), a 1 in each field; and
    the offsets jw of the fields."""
    w = q.bit_length() + 1
    return w, ((1 << w * n) - 1) // ((1 << w) - 1), range(0, w * n, w)


def _pack(row, q: int) -> int:
    """A vector of GF(q)^n as one int, coordinate j in the field at bit jw."""
    return sum(map(lshift, row, _fields(len(row), q)[2]))


def _span_points(bases, q: int) -> list[tuple[int, ...]]:
    """For each canonical RREF basis R in bases, all of k rows of length n
    over GF(q), the points c . R of its row space, one for each c in
    GF(q)^k whose first nonzero entry is 1, as `_pack` ints, in an order
    that depends on k and q alone.  Each sum is taken once over every
    basis, so a batch pays the cost of a call once.  Each c . R is a point
    (a vector whose first nonzero entry is 1) with no reduction: for pivots
    p_0 < ... < p_{k-1} of R and j the first nonzero entry of c, every row
    R_i with c_i != 0 vanishes before p_i >= p_j, and (c . R)[p_j] = c_j =
    1.  Every point x of the row space is one c . R, as x = c . R for one c
    and then c_j = x[p_j] = 1 at the first nonzero entry of c.

    The rows are walked from the bottom, with tails the nonzero vectors of
    the span of the rows below.  The c with first nonzero entry i give
    R_i + s, s a tail or 0, and R_i + 0 is R_i itself, with no sum; the
    other c R_i + s, formed by adding R_i again, only join the tails for
    the rows above, so the top row takes c = 1 alone.

    The sums are taken mod q on the packed ints, every coordinate at once
    (SWAR).  Let h = 2^(w-1) >= q and K = sum of 2^(jw), a 1 in each
    field.  The fields of s = a + b hold a_j + b_j <= 2q - 2 < 2^w, so none
    carries into the next, and neither do those of s + K(h - q): h - q >=
    0 and a_j + b_j + h - q <= h + q - 2 < 2^w.  Bit w-1 of field j of
    s + K(h - q) is set exactly when a_j + b_j + h - q >= h, that is
    a_j + b_j >= q.  Shifted down by w-1 and masked by K, these bits leave
    a 1 in each such field, and s less q times them holds a_j + b_j mod q
    in field j, with no borrow.

    Each R must be in echelon form with leading entries 1, which is checked
    on the packed rows: the lowest set bit of row i starts a field holding
    1, and lies below that of row i+1.  ParameterError otherwise, before
    any point is formed."""
    if not bases:
        return []
    k, n = len(bases[0]), len(bases[0][0])
    w, K, offsets = _fields(n, q)
    top, bias, field = w - 1, K * ((1 << w - 1) - q), (1 << w) - 1
    rows = [[sum(map(lshift, row, offsets)) for row in position] for position in zip(*bases)]
    for basis, packed in zip(bases, zip(*rows)):
        below = 1 << w * n
        for r in reversed(packed):
            lead = r & -r
            if not (lead & K and r & lead * field == lead < below):
                raise ParameterError(f"{basis!r} is not an echelon basis with leading entries 1")
            below = lead

    def plus(t, r):  # t + r over the whole batch
        return [(s := x + y) - q * ((s + bias) >> top & K) for x, y in zip(t, r)]

    points, tails = [], []
    for i in reversed(range(k)):
        r = rows[i]
        layer = [r] + [plus(t, r) for t in tails]
        points += layer
        for _ in range(q - 2 if i else 0):
            tails += layer
            layer = [plus(t, r) for t in layer]
        tails += layer
    return list(zip(*points))


@cache
def _hyperplane_positions(k: int, q: int) -> tuple:
    """For each hyperplane ker u of GF(q)^k, the positions in `_span_points`
    order of the c with c . u = 0.  The u are the points of GF(q)^k from
    `_span_points` of the identity basis, unpacked; ker u fixes u up to a
    scalar, so each hyperplane comes once.  As c -> c . R is a linear
    bijection from GF(q)^k onto the row space x of R, these positions of
    `_span_points` of R are the points of the hyperplane {c . R : c . u =
    0} of x, and every hyperplane of x is one."""
    w, _, offsets = _fields(k, q)
    identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    cs = [[x >> s & (1 << w) - 1 for s in offsets] for x in _span_points([identity], q)[0]]
    return tuple(tuple(i for i, c in enumerate(cs) if sum(map(mul, c, u)) % q == 0)
                 for u in cs)


class _PointSets:
    """Subspaces of GF(q)^v as sets of points, the vectors whose first
    nonzero entry is 1: one for each 1-dim subspace, [v]_q in all, held in
    one list per build, and indexed by their `_pack` ints.  A subspace's
    mask has bit i for each point i in it.

    A subspace S is the union of 0 and the multiples of its points: a
    vector x != 0 of S is a p, with a the first nonzero entry of x and p =
    x / a a point of S.  So distinct subspaces have distinct point sets and
    masks, and the mask of S meet T is the mask of S AND the mask of T.

    A linear bijection f maps the points of x onto the points of f(x).  Let
    N scale a nonzero vector to a point (times the inverse of its first
    nonzero entry, q being prime), looked up by its `_pack` int.  p ->
    N(f(p)) is injective on the points: N(f(p)) = N(f(p')) gives f(p) =
    a f(p'), so p = a p', and a = 1 as both are points.  It maps the points
    of x into f(x), which has as many points as x, as dim f(x) = dim x; so
    the mask of f(x) is the image of the mask of x under that permutation
    of the points.

    The points of the subspaces come from `_span_points`, one batch for
    each run of subspaces of one dimension (the twisted build gives two,
    its (d+1)-dim X1 and (d-1)-dim X2 vertices).  Hyperplane masks are
    formed when asked for, not kept, which would add [k]_q masks to each
    k-dim subspace held here."""

    def __init__(self, v: int, q: int, subspaces):
        self.q = q
        self.points = [p for (p,) in all_subspaces(v, 1, q)]
        self.index = {_pack(p, q): i for i, p in enumerate(self.points)}
        self.bit = [1 << i for i in range(len(self.points))]
        self.of = {}
        for _, group in itertools.groupby(subspaces, len):
            group = list(group)
            self.of.update(zip(group, [list(map(self.index.__getitem__, points))
                                       for points in _span_points(group, q)]))
        self.subspace = {self.mask(rows): rows for rows in self.of}

    def mask(self, rows) -> int:
        return sum(map(self.bit.__getitem__, self.of[rows]))

    def hyperplanes(self, rows) -> list[int]:
        """The masks of the [k]_q hyperplanes of a k-dim subspace, by
        `_hyperplane_positions`."""
        bits = list(map(self.bit.__getitem__, self.of[rows]))
        return [sum(map(bits.__getitem__, pos))
                for pos in _hyperplane_positions(len(rows), self.q)]

    def label_map(self, f):
        """f, a map of row vectors, on the subspaces held here, through its
        images of the points: the subspace whose mask is the image of x's
        mask, or None where no subspace here has that mask.  That is f(x)
        when f is linear and bijective; the caller checks the result."""
        q = self.q

        def point(x):  # N(x) by its index; pow raises ValueError when x is 0
            x = [a % q for a in x]
            inv = pow(next(filter(None, x), 0), -1, q)
            return self.index[_pack([a * inv % q for a in x], q)]

        try:
            moved = [self.bit[point(f(p))] for p in self.points]
        except (KeyError, ValueError):  # f(p) is 0 or no vector of GF(q)^v
            return lambda rows: None
        return lambda rows: self.subspace.get(sum(map(moved.__getitem__, self.of[rows])))


def _smaller_side(name: str, v: int, d: int) -> int:
    """min(d, v - d), as complements carry the d-sets (d-spaces) onto the
    (v-d)-ones; ParameterError unless 0 < d < v."""
    if d <= 0 or v < d:
        raise ParameterError(f"{name}({v},{d}) needs 0 < d <= v")
    if d == v:
        raise ParameterError(f"{name}({v},{v}) is a single vertex; refusing")
    return min(d, v - d)


# Each family's parameter refusals and vertex cap, run first by its builder
# and by `family_array` alike: (the params the graph carries, its vertex
# count, its classical parameters (d, b, alpha, beta) for `classical_array`).


def _johnson(v: int, d: int, vertex_cap: int) -> tuple[dict, int, tuple]:
    d = _smaller_side("J", v, d)
    bits = max(d, v.bit_length() - 1)  # C(v,d) >= C(2d,d) >= 2^d, and C(v,d) >= v
    n = _check_cap(f"J({v},{d})", bits, lambda: comb(v, d), vertex_cap)
    return {"v": v, "d": d}, n, (d, 1, 1, v - d)


def _hamming(d: int, q: int, vertex_cap: int) -> tuple[dict, int, tuple]:
    if d < 1 or q < 2:
        raise ParameterError(f"H({d},{q}) needs d >= 1 and q >= 2")
    n = _check_cap(f"H({d},{q})", d * (q.bit_length() - 1), lambda: q ** d, vertex_cap)
    return {"d": d, "q": q}, n, (d, 1, 0, q - 1)


def _grassmann(q: int, v: int, d: int, vertex_cap: int) -> tuple[dict, int, tuple]:
    d = _smaller_side(f"J_{q}", v, d)
    bits = d * (v - d) * (q.bit_length() - 1)  # [v d]_q >= q^(d(v-d))
    n = _check_cap(f"J_{q}({v},{d})", bits, lambda: q_binomial(v, d, q), vertex_cap, q)
    return {"q": q, "v": v, "d": d}, n, (d, q, q, q_int(v - d + 1, q) - 1)


def _bilinear(q: int, d: int, e: int, vertex_cap: int) -> tuple[dict, int, tuple]:
    if d < 1 or e < d:
        raise ParameterError(f"Bil_q({d},{e}) needs 1 <= d <= e")
    bits = d * e * (q.bit_length() - 1)
    n = _check_cap(f"Bil_{q}({d},{e})", bits, lambda: q ** (d * e), vertex_cap, q)
    return {"q": q, "d": d, "e": e}, n, (d, q, q - 1, q ** e - 1)


def _twisted(q: int, d: int, vertex_cap: int) -> tuple[dict, int, tuple]:
    """The parameters of J_q(2d+1,d), whose vertex count and array it has."""
    if d < 2:
        raise ParameterError(f"twisted Grassmann needs d >= 2, got d={d}")
    bits = d * (d + 1) * (q.bit_length() - 1)  # [2d+1 d]_q >= q^(d(d+1))
    n = _check_cap(f"twisted({q},{d})", bits, lambda: q_binomial(2 * d + 1, d, q),
                   vertex_cap, q)
    return {"q": q, "d": d}, n, (d, q, q, q_int(d + 2, q) - 1)


_FAMILIES = {"johnson": _johnson, "hamming": _hamming, "grassmann": _grassmann,
             "bilinear": _bilinear, "twisted": _twisted}


def build_johnson(v: int, d: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Johnson graph J(v,d): d-subsets of {1..v}, adjacent iff they share d-1
    elements.  d > v/2 is normalized to v-d (complementation isomorphism).
    Clique keys: the d subsets x - {a}.  Two d-sets share d-1 elements iff
    both contain one (d-1)-set, which is then their intersection.
    Automorphisms: (1 2) and (1 ... v), which generate Sym(v)."""
    params, expected, _ = _johnson(v, d, vertex_cap)
    d = params["d"]
    swap = {1: 2, 2: 1}
    return _assemble(
        "johnson", params, itertools.combinations(range(1, v + 1), d),
        lambda x: [x[:i] + x[i + 1:] for i in range(d)], expected,
        [lambda x: tuple(sorted(swap.get(a, a) for a in x)),
         lambda x: tuple(sorted(a % v + 1 for a in x))],
    )


def build_hamming(d: int, q: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Hamming graph H(d,q): words of length d over a q-letter alphabet,
    adjacent iff they differ in exactly one position.  Clique keys:
    (i, w with coordinate i deleted), as two words differ in position i alone
    iff they agree everywhere else.  Automorphisms: the coordinate cycle and
    +1 in coordinate 0; conjugates of the latter give every translation."""
    params, expected, _ = _hamming(d, q, vertex_cap)
    return _assemble(
        "hamming", params, itertools.product(range(q), repeat=d),
        lambda w: [(i, w[:i] + w[i + 1:]) for i in range(d)], expected,
        [lambda w: w[1:] + w[:1], lambda w: ((w[0] + 1) % q,) + w[1:]],
    )


def build_grassmann(q: int, v: int, d: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Grassmann graph J_q(v,d): d-dim subspaces of GF(q)^v, adjacent iff the
    intersection has dimension d-1.  d > v/2 is normalized to v-d.
    Clique keys: the masks of the [d]_q hyperplanes of x (`_PointSets`).
    Distinct d-spaces meet in dimension d-1 iff both contain one
    (d-1)-space, then their intersection.  Automorphisms: `_elementary(q,
    v)`, whose group contains SL(v,q), each acting through its permutation
    of the points."""
    params, expected, _ = _grassmann(q, v, d, vertex_cap)
    d = params["d"]
    subspaces = list(all_subspaces(v, d, q))
    points = _PointSets(v, q, subspaces)
    return _assemble(
        "grassmann", params, subspaces, points.hyperplanes, expected,
        [points.label_map(f) for f in _elementary(q, v)],
    )


def build_bilinear(q: int, d: int, e: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Bilinear forms graph Bil_q(d,e): d x e matrices over GF(q), adjacent
    iff the difference has rank one.  Clique keys: (u, M - u M_p) for each
    point u of GF(q)^d, u_p = 1 its first nonzero entry (any p with u_p = 1
    would do): the member of the coset M + {u v^T} whose row p is zero, so
    it names the coset.  M - N has rank one iff it is u v^T, v != 0, for one
    such u.  Automorphisms: + E_11, the column cycle and (d > 1) the row
    cycle; conjugates of the first give every translation."""
    params, expected, _ = _bilinear(q, d, e, vertex_cap)
    rows = itertools.product(range(q), repeat=e)
    generators = [
        lambda M: (((M[0][0] + 1) % q,) + M[0][1:],) + M[1:],
        lambda M: tuple(r[1:] + r[:1] for r in M),
    ]
    if d > 1:
        generators.append(lambda M: M[1:] + M[:1])
    points = [(u.index(1), u) for (u,) in all_subspaces(d, 1, q)]
    return _assemble(
        "bilinear", params, itertools.product(rows, repeat=d),
        lambda M: [(u, _shear(M, p, u, q)) for p, u in points], expected, generators,
    )


def build_twisted_grassmann(q: int, d: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Twisted Grassmann graph on GF(q)^(2d+1).

    With H the span of the first 2d coordinate vectors (all vectors whose
    last coordinate vanishes): X1 holds the (d+1)-dim subspaces not contained
    in H, X2 the (d-1)-dim subspaces of H, and x ~ y iff
    dim x + dim y - 2 dim(x meet y) = 2.  Labels carry the part tag.
    Each X1 vertex is keyed by its d-dim hyperplanes and each X2 vertex by
    the d-spaces W of H through it, so the keys are the d-spaces of
    GF(q)^(2d+1), one clique each: a W inside H holds the X1 vertices
    through W and the X2 vertices inside W, any other d-space the X1
    vertices through it.  Its members are pairwise adjacent: two X1
    vertices meet in W; x1 contains each x2 < W, and (d+1) + (d-1) -
    2(d-1) = 2; two distinct (d-1)-spaces of W span it, so they meet in
    dimension d-2, and (d-1) + (d-1) - 2(d-2) = 2.  Each edge lies in
    exactly one clique, and a non-edge in none:

    * two X1 vertices are adjacent iff they meet in a common hyperplane,
      which is then their meet, the one key they can share;
    * x1 ~ x2 iff x2 < x1, that is x2 < W = x1 meet H, a d-space of H and
      the one hyperplane of x1 inside H, so W is the one key they can
      share;
    * two X2 vertices are adjacent iff they meet in dimension d-2, that is
      iff x + y is a d-space, of H as both lie in H, and x + y is the one
      d-space through both.

    Containment alone is no clique key, as two X1 vertices through one x2
    may meet in x2 alone.

    The X2 vertices inside W come from any X1 vertex x1 through W: they are
    W meet K over the other hyperplanes K of x1, as the masks W & K
    (`_PointSets`).  W + K = x1, so W meet K has dimension d + d - (d+1) =
    d-1, and it lies in H.  Each (d-1)-space Y of W is one of them: with
    x1 = W + <z>, K = Y + <z> is a hyperplane of x1 other than W, and W meet
    K contains Y, so it is Y.

    Automorphisms: `_elementary(q, 2d)` on the first 2d coordinates and the
    shear x_1 += x_{2d+1}, all of which fix H and so each part.  They are
    transitive on each part: SL(2d,q) on H moves any (d-1)- or d-space of H
    onto any other, and an X1 vertex is a d-space of H plus a vector with
    last coordinate 1, which the conjugates x -> x + x_{2d+1} h (h in H) of
    the shear move onto any other such vector.
    """
    params, expected, _ = _twisted(q, d, vertex_cap)
    n_amb = 2 * d + 1
    x1 = [("X1", rows) for rows in all_subspaces(n_amb, d + 1, q) if any(x[-1] for x in rows)]
    if len(x1) != q_binomial(n_amb, d + 1, q) - q_binomial(2 * d, d + 1, q):
        raise ParameterError("twisted: X1 enumeration is inconsistent")
    x2 = [("X2", rows) for rows in twisted_x2_vertices(q, d)]
    points = _PointSets(n_amb, q, [rows for _, rows in x1 + x2])
    in_h = sum(b for p, b in zip(points.points, points.bit) if not p[-1])
    above = defaultdict(list)  # X2 label -> the masks of the W through it
    for w, rows in {points.mask(rows) & in_h: rows for _, rows in x1}.items():
        for meet in {w & k for k in points.hyperplanes(rows)} - {w}:
            above["X2", points.subspace[meet]].append(w)
    maps = _elementary(q, 2 * d) + [lambda x: ((x[0] + x[-1]) % q,) + x[1:]]
    return _assemble(
        "twisted", params, x1 + x2,
        lambda lab: above[lab] if lab[0] == "X2" else points.hyperplanes(lab[1]), expected,
        [lambda lab, g=points.label_map(f): (lab[0], g(lab[1])) for f in maps],
    )


def twisted_x2_vertices(q: int, d: int) -> list[tuple]:
    """The X2 part of the twisted graph, sorted: the (d-1)-dim subspaces of
    the fixed hyperplane, embedded in GF(q)^(2d+1) with trailing zero
    coordinate."""
    return sorted(tuple(row + (0,) for row in rows) for rows in all_subspaces(2 * d, d - 1, q))


# ---------------------------------------------------------------------------
# distances


class DistanceCensus:
    """BFS distances as level masks: levels[x][k] is the bitmask of the
    vertices at distance k from x, for k = 0..diameter (zero beyond the
    eccentricity of x).  levels is a dict keyed by the sources, every
    vertex 0..n-1 for a census from every vertex."""

    __slots__ = ("levels", "diameter")

    def __init__(self, levels: dict[int, list[int]], diameter: int):
        self.levels = levels
        self.diameter = diameter

    def row(self, x: int) -> list[int]:
        """The level masks of x; ParameterError when the census has none."""
        try:
            return self.levels[x]
        except KeyError:
            raise ParameterError(f"the distance census has no row for vertex {x}") from None


def distance_census(G: Graph, sources=None) -> DistanceCensus:
    """Exact graph distances from the given sources, or from every vertex.

    From sources, one breadth-first search each over G.adj: level k+1 is
    the OR of adj[y] over y at level k, less the vertices within k (a
    vertex at distance k+1 has a neighbour at distance k, and a neighbour
    of one at distance k lies within k+1), so each vertex is expanded once,
    n ORs a source.  A source whose search misses a vertex raises
    DisconnectedGraph.  The diameter is the largest eccentricity among the
    sources, and the rows are padded with zeros up to it.  With one source
    in each orbit of G.automorphisms that is G's diameter, as automorphisms
    preserve eccentricity.

    From every vertex at once (sources None), by the rounds of
    `_grow_balls`: level 0 of x is {x}, and round k gives level k.  The
    rounds stop when every ball is full, after diameter rounds.
    """
    n = G.n
    if sources is not None:
        full = (1 << n) - 1
        levels = {}
        for s in sources:
            if not 0 <= s < n:
                raise ParameterError(f"source {s} is not a vertex of {G.family}")
            row, seen = [], 1 << s
            frontier = seen
            while frontier:
                row.append(frontier)
                reached = reduce(or_, map(G.adj.__getitem__, iter_bits(frontier)), seen)
                frontier = reached ^ seen
                seen = reached
            if seen != full:
                raise DisconnectedGraph(f"{G.family} is not connected")
            levels[s] = row
        if not levels:
            raise ParameterError("a distance census needs at least one source")
        diameter = max(map(len, levels.values())) - 1
        for row in levels.values():
            row += [0] * (diameter + 1 - len(row))
        return DistanceCensus(levels, diameter)
    rounds = [[1 << x for x in range(n)]] + [level for level, _ in _grow_balls(G)]
    return DistanceCensus(dict(enumerate(map(list, zip(*rounds)))), len(rounds) - 1)


def _grow_balls(G: Graph):
    """The ball recurrence: yields (level_k, B_k) for k = 1, 2, ... until
    every ball is full, where B_k[x] is the mask of the vertices within
    distance k of x and level_k[x] = B_k[x] ^ B_{k-1}[x] that of the
    vertices at distance k.  B_1[x] = {x} | adj[x] and level_1 = G.adj
    itself need no reductions (K1, whose one ball is full at B_0, has no
    round), and for k >= 1

        B_{k+1}[x] = B_k[x] | OR of B_k[y] over the neighbours y of x.

    Proof: a vertex within k of a neighbour of x is within k+1 of x, so the
    right side lies in B_{k+1}[x].  Conversely, let d(x, z) <= k+1.  Either
    d(x, z) <= k, or d(x, z) = k+1 >= 1 and the neighbour y of x on a
    geodesic from x to z has d(y, z) = k.

    The neighbours are read off the clique cover G.cliques (a graph without
    one takes its edges as 2-cliques): with U_k[C] the OR of B_k[y] over
    the members y of C,

        B_{k+1}[x] = B_k[x] | OR of U_k[C] over the cliques C through x.

    Proof: every member of a clique through x is x or a neighbour of x, so
    each such U_k[C] lies in the right side above; and every neighbour y of
    x shares a clique C with x, as the cliques cover the edges, so B_k[y]
    lies in U_k[C].  Each round is then 2 * (sum of clique sizes) ORs, run
    in C by reductions over stored index arrays, against the sum of the
    degrees over neighbour lists.  The cover and its incidence, kept on G
    (`_incidence`), are read only when round 2 is reached.  Once the
    unions hold every B_k, the balls grow in place, so one list of balls
    is yielded, changed by each round, not a list a round.  A round that
    grows no ball has reached the components before the balls are full,
    and DisconnectedGraph is raised.
    """
    n, full = G.n, (1 << G.n) - 1
    ball = [mask | 1 << x for x, mask in enumerate(G.adj)]
    if n > 1:
        yield G.adj, ball
    cliques, through = _incidence(G)
    while ball.count(full) < n:
        union = [reduce(or_, map(ball.__getitem__, c)) for c in cliques]
        level = [0] * n
        for x, cs in enumerate(through):
            grown = reduce(or_, map(union.__getitem__, cs), ball[x])
            level[x] = grown ^ ball[x]
            ball[x] = grown
        if not any(level):
            raise DisconnectedGraph(f"{G.family} is not connected")
        yield level, ball


def within(G: Graph, radius: int) -> list[int]:
    """For each vertex x, the mask of the vertices at distance 1..radius
    from x, radius >= 1: G.adj itself at radius 1, and otherwise B_radius[x]
    less x, from round radius of `_grow_balls`, or from its last round, of
    full balls, when the diameter is below radius.  K1 has no round, and
    its ball B_0 = {x} leaves the empty mask.  A radius below 1 is refused
    with ParameterError."""
    if radius < 1:
        raise ParameterError(f"within needs radius >= 1, got {radius}")
    if radius == 1:
        return G.adj
    ball = [1 << x for x in range(G.n)]
    for k, (_, ball) in enumerate(_grow_balls(G), 1):
        if k == radius:
            break
    return [mask ^ 1 << x for x, mask in enumerate(ball)]


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0..b_{d-1}; c_1..c_d} with derived a_i and valencies.

    `classical`, when given, holds classical parameters (b, alpha, beta)
    that give this b and c by the formulas of `classical_array`, which is
    checked on construction (ParameterError otherwise); the eigenvalues are
    then taken in closed form (`scheme._eigenvalues`).  It is left out of
    equality, hashing and repr, so an array read off a graph by BFS, which
    has none, equals the closed-form one."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    classical: tuple[int, int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.b) != len(self.c) or not self.b:
            raise ParameterError("intersection array needs matching nonempty b and c")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ParameterError("intersection numbers must be positive")
        if self.c[0] != 1:
            raise ParameterError(f"c_1 = {self.c[0]}; a distance-regular graph has c_1 = 1")
        self.valencies()  # forces the integrality check
        stated = self.classical
        if stated is not None and _classical_bc(self.d, *stated) != (self.b, self.c):
            raise ParameterError(f"classical parameters (b, alpha, beta) = {stated}"
                                 f" do not give the array {{{self.b}; {self.c}}}")

    @property
    def d(self) -> int:
        return len(self.b)

    @property
    def b0(self) -> int:
        return self.b[0]

    def a(self) -> tuple[int, ...]:
        out = []
        for i in range(self.d + 1):
            bi = self.b[i] if i < self.d else 0
            ci = self.c[i - 1] if i > 0 else 0
            ai = self.b0 - bi - ci
            if ai < 0:
                raise ParameterError(f"a_{i} = {ai} < 0; invalid array")
            out.append(ai)
        return tuple(out)

    def valencies(self) -> tuple[int, ...]:
        k = [1]
        for i in range(self.d):
            num = k[-1] * self.b[i]
            if num % self.c[i]:
                raise ParameterError(f"k_{i+1} = {num}/{self.c[i]} is not integral")
            k.append(num // self.c[i])
        return tuple(k)

    def vertex_count(self) -> int:
        return sum(self.valencies())


def check_distance_regular(G: Graph, census: DistanceCensus) -> IntersectionArray:
    """Verify that (c_i, a_i, b_i) are pair-independent and return the array.

    Every neighbour of y at distance k from x lies at distance k-1, k or k+1
    from x, so a_k = deg(y) - c_k - b_k needs no third popcount.  x runs over
    the orbit representatives of G.automorphisms only, y over every vertex:
    an automorphism g maps the levels of x onto those of gx, so the counts
    at (x, y) equal those at (gx, gy), and every pair is (gx, gy) for a
    representative x.  Raises NotDistanceRegular with a witness pair on the
    first mismatch.  The census must hold the row of every representative
    (ParameterError otherwise), so its diameter is G's.
    """
    dmax = census.diameter
    degree = [mask.bit_count() for mask in G.adj]
    triple = [None] * (dmax + 1)
    for x in representatives(G):
        row = census.row(x)
        for k in range(dmax + 1):
            below = row[k - 1] if k > 0 else 0
            above = row[k + 1] if k < dmax else 0
            for y in iter_bits(row[k]):
                ady = G.adj[y]
                ck = (ady & below).bit_count()
                bk = (ady & above).bit_count()
                seen = (ck, degree[y] - ck - bk, bk)
                if triple[k] is None:
                    triple[k] = seen
                elif triple[k] != seen:
                    raise NotDistanceRegular(
                        f"pair {G.vertices[x]!r}, {G.vertices[y]!r} at distance {k} "
                        f"sees {seen}, expected {triple[k]}",
                        witness=(G.vertices[x], G.vertices[y]),
                    )
    b = tuple(triple[k][2] for k in range(dmax))
    c = tuple(triple[k][0] for k in range(1, dmax + 1))
    arr = IntersectionArray(b, c)
    if arr.vertex_count() != G.n:
        raise NotDistanceRegular("valency sum does not match the vertex count")
    return arr


# ---------------------------------------------------------------------------
# closed-form intersection arrays (parameter tier)


def _classical_bc(d: int, b: int, alpha: int, beta: int) -> tuple[tuple, tuple]:
    """(b_0..b_{d-1}, c_1..c_d) of classical parameters (d, b, alpha, beta),
    b >= 1, by the formulas of `classical_array`."""
    if b < 1:
        raise ParameterError(f"classical parameters need b >= 1, got b={b}")
    e = [q_int(i, b) for i in range(d + 1)]
    return (tuple((e[d] - e[i]) * (beta - alpha * e[i]) for i in range(d)),
            tuple(e[i] * (1 + alpha * e[i - 1]) for i in range(1, d + 1)))


def classical_array(d: int, b: int, alpha: int, beta: int) -> IntersectionArray:
    """The intersection array of a distance-regular graph with classical
    parameters (d, b, alpha, beta), b >= 1 (Brouwer, Cohen and Neumaier
    1989, section 6.1): with [i] = 1 + b + ... + b^(i-1) (`exact.q_int`),

        b_i = ([d] - [i]) (beta - alpha [i]),   c_i = [i] (1 + alpha [i-1]).

    The array carries (b, alpha, beta) as `classical`, so that
    `scheme._eigenvalues` takes its eigenvalues in closed form (BCN
    section 8.4), theta_i = b_i / b^i - [i] = [d-i] (beta - alpha [i]) - [i],
    as [d] - [i] = b^i [d-i].  It takes none unchecked: each theta_i is
    confirmed a root of det(xI - L), and d+1 strictly descending roots of
    that monic polynomial of degree d+1 are all of its roots.  Johnson
    J(v,d) is (d, 1, 1, v-d), Hamming H(d,q) (d, 1, 0, q-1), Grassmann
    J_q(v,d) (d, q, q, [v-d+1]_q - 1) and the bilinear forms graph
    Bil_q(d,e) (d, q, q-1, q^e - 1); the twisted Grassmann graph has the
    parameters of J_q(2d+1,d).  ParameterError when b < 1 or the numbers
    are not an intersection array."""
    return IntersectionArray(*_classical_bc(d, b, alpha, beta), classical=(b, alpha, beta))


def grassmann_intersection_array(q: int, v: int, d: int) -> IntersectionArray:
    """Intersection array of J_q(v,d), 0 < d < v, with d > v/2 normalized
    to v-d as the builder and `family_array` do: classical, with
    parameters (d, q, q, [v-d+1]_q - 1).  The builder's refusals of d, by
    `_smaller_side`, come after the test of q."""
    if not is_prime(q):
        raise UnsupportedField(f"q={q} is not prime")
    d = _smaller_side(f"J_{q}", v, d)
    arr = classical_array(d, q, q, q_int(v - d + 1, q) - 1)
    if arr.vertex_count() != q_binomial(v, d, q):
        raise DrgError(f"J_{q}({v},{d}) array counts {arr.vertex_count()} vertices")
    return arr


def hamming_intersection_array(d: int, q: int) -> IntersectionArray:
    """Intersection array of H(d,q): classical, with parameters
    (d, 1, 0, q-1)."""
    if d < 1 or q < 2:
        raise ParameterError(f"H({d},{q}) array needs d >= 1 and q >= 2")
    arr = classical_array(d, 1, 0, q - 1)
    if arr.vertex_count() != q ** d:
        raise DrgError(f"H({d},{q}) array counts {arr.vertex_count()} vertices")
    return arr


def twisted_intersection_array(q: int, d: int) -> IntersectionArray:
    """The twisted Grassmann graph has the same structure constants as
    J_q(2d+1,d), so its array is that of the ordinary Grassmann graph, with
    its classical parameters."""
    if d < 2:
        raise ParameterError(f"twisted array needs d >= 2, got d={d}")
    return grassmann_intersection_array(q, 2 * d + 1, d)


def family_array(family: str, params: dict, vertex_cap: int = DEFAULT_VERTEX_CAP
                 ) -> tuple[dict, IntersectionArray]:
    """(params, array) of a builder's family, with no graph built.  The
    builder's own refusals and vertex cap run first, with the same text and
    class, and params is what the builder puts on its graph: d normalized
    to min(d, v-d) for Johnson and Grassmann.  The array is the family's
    `classical_array`, equal to the BFS array of the built graph (checked
    in the test suite); DrgError unless it counts the vertices the cap was
    checked against."""
    params, n, classical = _FAMILIES[family](**params, vertex_cap=vertex_cap)
    arr = classical_array(*classical)
    if arr.vertex_count() != n:
        raise DrgError(f"{family} {params}: the array counts {arr.vertex_count()} vertices,"
                       f" not {n}")
    return params, arr


# ---------------------------------------------------------------------------
# twisted X2 distances without the full graph


class X2PointIndex:
    """Point and hyperplane masks of X2 vertices of twisted(q, d), shared by
    the histograms of many sets of them.  Each point of H = GF(q)^(2d) that
    a spanned member contains gets one bit, keyed by its `_pack` int (the
    trailing zero coordinate of a member packs to nothing).  masks keeps,
    under each member's rows as tuples, the entry (rows, point mask, the
    masks of its [d-1]_q hyperplanes), the hyperplanes taken from
    `_hyperplane_positions(d-1, q)` over the same spanned points, so a
    subspace given as many objects is spanned once.

    held keeps, under its id, each member given as a tuple of tuples that
    passed the checks of `hold`, with its entry (the member first).  Such
    a member, of int entries, cannot change, and held holds it, so while
    the index lives no other object has its id: a histogram whose members
    are all held reads them by id, with no check or span.

    pending lists members registered before any histogram meets them (the
    distinct members of `ekr_search.enumerate_descendent_families`, each
    one object in all its families): the first histogram with a member
    that held lacks checks and spans them together with its own."""

    __slots__ = ("q", "d", "bits", "masks", "held", "pending")

    def __init__(self, q: int, d: int):
        self.q, self.d, self.bits, self.masks, self.held, self.pending = q, d, {}, {}, {}, []

    def hold(self, members: list) -> list[tuple]:
        """The entry of each of members.  The objects among members and
        pending that held lacks are checked as
        `twisted_x2_distance_counts` states, each once and all in one
        `_x2_shaped` call, and the subspaces among them that masks lacks
        are spanned in one batch, each once.  A refusal names the first
        object refused, members before pending, and keeps nothing;
        otherwise every tuple of tuples checked is held, and pending is
        emptied."""
        q, d, held, masks = self.q, self.d, self.held, self.masks
        batch = list({id(rows): rows for rows in itertools.chain(members, self.pending)
                      if id(rows) not in held}.values())
        if not _x2_shaped(batch, q, d):
            rows = next(rows for rows in batch if not _x2_shaped([rows], q, d))
            raise ParameterError(f"{rows!r} is not {d - 1} rows of length {2 * d + 1}"
                                 f" over 0..{q - 1} with last entry 0")
        if set(map(type, itertools.chain(batch, *batch))) <= {tuple}:
            keys = batch
        else:  # lists are unhashable
            keys = [tuple(map(tuple, rows)) for rows in batch]
        new = [key for key in dict.fromkeys(keys) if key not in masks]
        if new:
            self.span(new)
        for rows, key in zip(batch, keys):
            if rows == key:  # a list, or a tuple with a list row, is unequal
                entry = masks[key]
                held[id(rows)] = entry if entry[0] is rows else (rows, *entry[1:])
        self.pending = []
        return [held.get(id(rows)) or masks[tuple(map(tuple, rows))] for rows in members]

    def span(self, members) -> None:
        """Keep the entries of members, distinct tuples of d-1 row tuples
        of length 2d+1 with int entries in 0..q-1 and last entry 0 that
        masks does not hold.  If one is not in echelon form with leading
        entries 1, ParameterError, and none is kept.  The masks are formed
        a point position (or a hyperplane) at a time over all the members."""
        bits = self.bits
        columns = [[1 << bits.setdefault(p, len(bits)) for p in points]
                   for points in zip(*_span_points(members, self.q))]
        zeros = [0] * len(members)  # at d = 2 the one hyperplane, 0, has no points
        hyperplanes = [list(map(sum, zip(zeros, *map(columns.__getitem__, pos))))
                       for pos in _hyperplane_positions(self.d - 1, self.q)]
        self.masks.update(zip(members, zip(members, map(sum, zip(*columns)), zip(*hyperplanes))))


def _x2_shaped(members, q: int, d: int) -> bool:
    """Whether each member is a tuple or list of d-1 tuples or lists of
    length 2d+1 with int entries in 0..q-1 and last entry 0.  Each check
    runs over the members, rows or entries of all the members at once."""
    kinds = {tuple, list}
    if not set(map(type, members)) <= kinds or not set(map(len, members)) <= {d - 1}:
        return False
    rows = list(itertools.chain.from_iterable(members))
    if not set(map(type, rows)) <= kinds or not set(map(len, rows)) <= {2 * d + 1} \
            or any(map(itemgetter(-1), rows)):
        return False
    entries = list(itertools.chain.from_iterable(rows))
    if not set(map(type, entries)) <= {int}:
        return False
    values = set(entries)
    return min(values, default=0) >= 0 and max(values, default=0) < q


def _shared_pairs(keys) -> int:
    """The number of unordered pairs of equal items among keys."""
    return sum(c * (c - 1) for c in Counter(keys).values()) // 2


def twisted_x2_distance_counts(members: list, q: int, d: int,
                               points: X2PointIndex | None = None) -> list[int]:
    """Histogram of ordered-pair distances within a list of distinct X2
    vertices (canonical RREF bases of (d-1)-dim subspaces of H, each row
    with its trailing zero), over the twisted graph of diameter d, from the
    adjacency rule alone (the graph is never materialized).  Members may
    be given as lists of rows or rows as lists, as JSON labels read back
    are; they are turned into tuples once checked, before any span.

    Let g = dim x - dim(x meet y), the distance of x and y in the Grassmann
    graph J_q(2d, d-1) that X2 induces (x ~ y iff they meet in dimension d-2,
    i.e. g = 1).  The twisted distance is g when g is 1 or 2, and at least 3
    otherwise:

    * g = 1 is the adjacency rule itself.
    * g = 2: the induced Grassmann graph has a path of length 2, and the pair
      is not adjacent.
    * g >= 3: there is no common neighbour.  A common X2 neighbour z would
      give g <= gap(x, z) + gap(z, y) = 2, since the Grassmann distance is a
      metric.  An X1 neighbour w of x is a (d+1)-dim subspace with
      dim w + dim x - 2 dim(w meet x) = 2, i.e. w contains x; so a common X1
      neighbour would contain x + y, whose dimension is (d-1) + g >= d+2.

    (At g = 2, x + y has dimension d+1 and lies inside H, so it is no X1
    vertex; the common neighbours are all in X2.)  Distances of 3 and more
    depend on paths through X1, so they raise DistanceUndetermined.

    The pairs at each gap are double counted over the subspaces that the
    members share, with no pair looked at: O(m [d-1]_q) counter steps for
    m members, and O(m [d-1]_q^2) mask ANDs more at d >= 4.  For distinct
    x, y a subspace inside both is inside x meet y, of dimension d-1-g.

    * N1, the pairs at gap 1, is the sum over the (d-2)-spaces h of C(c_h,
      2), c_h the number of members that have h as a hyperplane.  A pair
      shares h iff h <= x meet y, that is iff x meet y = h, as
      dim(x meet y) <= d-2 for x != y: a pair at gap 1 shares exactly one,
      any other pair none.
    * N2, at d >= 4, is the sum over the (d-3)-spaces w of C(c_w, 2), less
      [d-2]_q N1, c_w the number of members that contain w.  A pair shares
      the (d-3)-spaces of x meet y: [d-2]_q of them at gap 1, one at gap 2
      and none further apart.  The (d-3)-spaces of x are the meets h
      meet h' of two distinct hyperplanes of x: each such meet is one, and
      each w is the meet of any two of the q+1 hyperplanes of x through it,
      so the meets are taken as a set, each w once per member.
      C(m, 2) - N1 - N2 pairs are then at gap 3 or more, which raises.
    * At d <= 3, g <= d-1 <= 2, so N2 = C(m, 2) - N1 with no such pass.

    A subspace's point mask (`_PointSets`) is the set of its points, so the
    mask of h meet h' is the AND of theirs, and two members are one
    subspace iff their point masks are equal.  The masks come from points,
    an `X2PointIndex` of the same q and d that other calls may share (a
    fresh one when None).  When it holds every member by id, the counts
    read the masks from there, with no check or span; otherwise
    `X2PointIndex.hold` checks the members it does not hold, with any
    registered on it, in one pass and spans them in one batch, each
    distinct subspace once, and a subspace it already has is not spanned
    again.

    Refused, in this order: a q that is not prime (UnsupportedField), before
    any span, as the spans would be taken in Z/q, which is no field; then,
    with ParameterError, d < 2, an index of another q or d, any member that
    is not d-1 rows of length 2d+1 with int entries in 0..q-1 and last entry
    0 (every member is checked before any is spanned; a tuple of tuples
    that passed is held by id, see `X2PointIndex`, and not checked again), a
    member to span that is not in echelon form with leading entries 1, and
    two members that are one subspace (gap 0).  An entry outside 0..q-1
    would overflow or mis-sum its `_pack` field, and one that is no int
    has no field.
    """
    if not is_prime(q):
        raise UnsupportedField(f"q={q} is not prime")
    if d < 2:
        raise ParameterError(f"twisted X2 needs d >= 2, got d={d}")
    if points is None:
        points = X2PointIndex(q, d)
    elif (points.q, points.d) != (q, d):
        raise ParameterError(
            f"point index of twisted({points.q},{points.d}) used for twisted({q},{d})")
    members = list(members)
    spanned = list(map(points.held.get, map(id, members)))
    if None in spanned:
        spanned = points.hold(members)
    m = len(spanned)
    if len({point for _, point, _ in spanned}) < m:
        raise ParameterError("two members are the same subspace")
    gap1 = _shared_pairs(itertools.chain.from_iterable(hyps for _, _, hyps in spanned))
    gap2 = comb(m, 2) - gap1
    if d >= 4:
        gap2 = _shared_pairs(itertools.chain.from_iterable(
            set(itertools.starmap(and_, itertools.combinations(hyps, 2)))
            for _, _, hyps in spanned)) - q_int(d - 2, q) * gap1
        if comb(m, 2) - gap1 - gap2:
            raise DistanceUndetermined(
                "pair is at distance >= 3; materialize the graph for an exact value"
            )
    return [m, 2 * gap1, 2 * gap2] + [0] * (d - 2)


# ---------------------------------------------------------------------------
# graph cache files


CACHE_MAGIC = "DRGCACHE 1"


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def graph_cache_text(G: Graph) -> str:
    """Versioned text format: magic line, JSON metadata, one canonical label
    per vertex, one 'i j' line per edge (i < j, ascending).  Byte-identical
    for identical parameters.  The edge lines are joined one vertex at a
    time from the vertices' index strings, each formed once."""
    meta = {
        "edges": G.edge_count(),
        "family": G.family,
        "params": G.params,
        "vertices": G.n,
    }
    lines = [CACHE_MAGIC, canonical_json(meta)]
    lines.extend(map(canonical_json, G.vertices))
    names = list(map(str, range(G.n)))
    for i, name in enumerate(names):
        higher = G.adj[i] >> (i + 1) << (i + 1)
        if higher:
            lines.append(name + " " + f"\n{name} ".join(map(names.__getitem__, iter_bits(higher))))
    return "\n".join(lines) + "\n"
