"""Exhaustive verification of extremal claims at desk scale.

A family has width <= d-t exactly when it is a clique of the graph whose
edges join vertices at distance 1..d-t, so maximum t-intersecting families
are maximum cliques of that threshold graph.  The branch-and-bound search
enumerates every maximum clique (up to a cap), which is what uniqueness
claims require.

The search uses the verified automorphism group of the graph (see
`graphs._assemble`; a threshold graph inherits it, as automorphisms
preserve distance).  With orbits O_1, ..., O_m and representatives
r_1, ..., r_m, root i searches the cliques through r_i that avoid
O_1, ..., O_{i-1}, and the maxima found are then closed under the
generators.  This is complete: let O_i be the first orbit that a maximum
clique C meets and c a vertex of C in O_i.  Some g in the group maps c to
r_i, and gC avoids O_1, ..., O_{i-1} as C does, so root i finds gC, and
C = g^-1(gC) lies in the closure, since the closure of a set under the
generators of a finite group is closed under the whole group.
"""
from __future__ import annotations

import sys as _sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

from .errors import DrgError, ParameterError
from .exact import q_binomial
from .graphs import (
    DEFAULT_VERTEX_CAP,
    DistanceCensus,
    Graph,
    X2PointIndex,
    _check_cap,
    all_subspaces,
    build_twisted_grassmann,
    check_distance_regular,
    distance_census,
    iter_bits,
    orbits,
    representatives,
    twisted_intersection_array,
    twisted_x2_distance_counts,
    within,
)
from .lp_cert import certify_subset, expected_bound, solve_certificate
from .scheme import eigensystem_from_array
from .subsets import inner_distribution_from_counts, width_and_dual_width

EXHAUSTIVE_CAP = 1_000
ENUM_CAP = 10_000


def threshold_graph(G: Graph, census: DistanceCensus, t: int) -> Graph:
    """Same vertices, adjacent iff 1 <= distance <= d - t, by `within`:
    G's own adjacency at t = d-1, the balls of radius d-t otherwise.  Only
    the census's diameter d is read, and it is G's, as the census must hold
    a row of each orbit representative (ParameterError otherwise).
    Automorphisms of G preserve distance, so G's generators carry over
    unchanged, and with them G's orbits."""
    d = census.diameter
    if not 0 < t < d:
        raise ParameterError(f"need 0 < t < d, got t={t}, d={d}")
    for r in representatives(G):
        census.row(r)
    return Graph(f"{G.family}-threshold", {**G.params, "t": t}, G.vertices, within(G, d - t),
                 G.automorphisms, orbits=orbits(G))


@dataclass(frozen=True)
class SearchResult:
    optimum: int
    families: tuple[tuple[int, ...], ...]
    nodes: int
    seconds: float
    truncated: bool


class _Settled(Exception):
    """Unwinds `max_clique` once the list of maxima is full at a proven
    optimum."""


def max_clique(
    G: Graph,
    upper_bound_hint: int | None = None,
    warm_start=None,
    enum_cap: int = ENUM_CAP,
) -> SearchResult:
    """Exact maximum-clique size plus every maximum clique (up to enum_cap).

    Branch and bound with greedy-colouring bounds, rooted at the orbit
    representatives of G.automorphisms; the maxima found are closed under
    the generators, and enum_cap (at least 1) applies to the closed set
    (see the module docstring for why this is complete).  A warm start (any
    known clique, e.g. a descendent family) seeds the incumbent size.  Ties
    are never pruned: a branch dies only when it cannot even match the
    incumbent.  G may have any size: the vertex cap is checked where a
    graph is built.

    At a node with clique K and candidates P, P is coloured greedily one
    class at a time, each class a bitmask: the least vertex left, then the
    least one non-adjacent to every vertex taken so far, and so on, with
    avail &= away[v] and away[v] = C & ~(adj[v] | 1 << v), built once per
    root for v in the root's candidates C (P <= C below it).  A clique
    meets each class at most once, so a vertex of colour c extends K by at
    most c; with k_min = best - |K| only the classes of colour >= k_min are
    kept.  They are branched from the highest colour down, and within a
    class from the highest vertex down, each branch checked against the
    incumbent of the moment, which is the order of a per-vertex colour list
    read backwards, so the tree and its leaves are those of that search.

    When the colouring uses |P| colours, every class is one vertex, so each
    vertex of P is adjacent to all later ones and P is a clique.  That
    search would then prune at once if |K| + |P| < best.  Otherwise it
    branches on the top vertex, whose candidates are P less that vertex, a
    clique again coloured with one colour fewer; no leaf lies on this path
    before its end, so best does not move and none of its |P| nodes
    prunes, and the leaf K + P is recorded.  Back up the path each next
    sibling has colour one less than its branch, so |K'| + c = |K| + |P| - 1
    < best, and each node returns.  So the tail is |P| nodes and one leaf,
    and `nodes` adds |P| and records that leaf without walking it; `nodes`
    still counts the nodes of the tree.

    upper_bound_hint must be a proven bound, and a clique above it raises
    DrgError.  Once the list is full (truncated) and the incumbent equals
    the hint, the search stops: the optimum is proven, so the incumbent
    never grows and the list of maxima never changes again, and the
    families and `truncated` are those of the full search; only `nodes` is
    smaller.
    """
    if enum_cap < 1:
        raise ParameterError(f"need enum_cap >= 1, got {enum_cap}")
    n = G.n
    adj = G.adj
    best = 0
    if warm_start is not None:
        ws = sorted(set(warm_start))
        if ws and not 0 <= ws[0] <= ws[-1] < n:
            raise ParameterError(f"warm start {ws} is not a set of vertices 0..{n - 1}")
        for a, v in enumerate(ws):
            for u in ws[a + 1:]:
                if not G.is_edge(v, u):
                    raise ParameterError("warm start is not a clique")
        best = len(ws)

    found: list[tuple[int, ...]] = []
    state = {"best": best, "nodes": 0, "truncated": False}
    away: dict[int, int] = {}  # of the current root
    start = time.perf_counter()

    def leaf(clique: tuple[int, ...]):  # a tie or a new incumbent
        size = len(clique)
        if size > state["best"]:
            state["best"] = size
            state["truncated"] = False
            found.clear()
            found.append(clique)
        elif len(found) < enum_cap:
            found.append(clique)
        else:
            state["truncated"] = True
            if size == upper_bound_hint:
                raise _Settled

    def expand(clique: list[int], P: int):
        state["nodes"] += 1
        size = len(clique)
        k_min = state["best"] - size
        kept = []  # (colour, class) for colour >= k_min, ascending
        colour = 0
        rest = P
        while rest:
            colour += 1
            cls = rest & -rest
            avail = rest & away[cls.bit_length() - 1]
            while avail:
                low = avail & -avail
                cls |= low
                avail &= away[low.bit_length() - 1]
            rest ^= cls
            if colour >= k_min:
                kept.append((colour, cls))
        if colour == P.bit_count():  # P is a clique: collapse the tail
            if size + colour >= state["best"]:
                state["nodes"] += colour
                leaf((*clique, *iter_bits(P)))
            return
        for colour, cls in reversed(kept):
            while cls:
                if size + colour < state["best"]:
                    return  # colours descend from here: nothing left can tie
                v = cls.bit_length() - 1
                cls ^= 1 << v
                clique.append(v)
                expand(clique, P & adj[v])
                clique.pop()
                P ^= 1 << v

    old_limit = _sys.getrecursionlimit()
    _sys.setrecursionlimit(max(old_limit, n + 500))
    try:
        done = 0
        for r, orbit in zip(representatives(G), orbits(G)):
            C = adj[r] & ~done
            away = {v: C & ~(adj[v] | 1 << v) for v in iter_bits(C)}
            expand([r], C)
            done |= orbit
    except _Settled:
        pass
    finally:
        _sys.setrecursionlimit(old_limit)

    # close under the generators, breadth first from the sorted maxima
    closed = sorted(tuple(sorted(f)) for f in found)
    seen = set(closed)
    for clique in closed:
        if len(closed) > enum_cap:
            break
        for perm in G.automorphisms:
            image = tuple(sorted(map(perm.__getitem__, clique)))
            if image not in seen:
                seen.add(image)
                closed.append(image)
    if len(closed) > enum_cap:
        state["truncated"] = True
        del closed[enum_cap:]
    seconds = time.perf_counter() - start
    optimum = state["best"]
    if upper_bound_hint is not None and optimum > upper_bound_hint:
        raise DrgError(
            f"search found a clique of size {optimum} above the certified bound "
            f"{upper_bound_hint}; this is a bug"
        )
    return SearchResult(
        optimum=optimum,
        families=tuple(sorted(closed)),
        nodes=state["nodes"],
        seconds=seconds,
        truncated=state["truncated"],
    )


# ---------------------------------------------------------------------------
# descendent families of the twisted graph


@dataclass(frozen=True)
class DescendentFamily:
    """Y = {x in X2 : u <= x} for a (t-1)-dim subspace u of the hyperplane;
    u and each member are canonical RREF bases in GF(q)^(2d+1).

    points is the `X2PointIndex` that the histogram of the members reads
    their point masks from.  The families of one
    `enumerate_descendent_families` call share one, on which their
    distinct members are registered, so the first histogram checks and
    spans every X2 vertex of theirs in one batch and the others read them
    by id; it lives as long as they do.  A family built by hand has none
    and gets a fresh one at each verification.  It takes no part in
    comparisons."""

    u: tuple
    members: tuple[tuple, ...]
    points: X2PointIndex | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.members)

    def labels(self) -> list:
        return [("X2", rows) for rows in self.members]


def enumerate_descendent_families(q: int, d: int, t: int) -> list[DescendentFamily]:
    """One family per (t-1)-dim subspace u of H = GF(q)^(2d), in
    `all_subspaces` order, its members sorted and counted; all of them
    share one `X2PointIndex`, and each X2 vertex is one tuple in all the
    families that hold it.  The distinct members are registered on the
    index (`X2PointIndex.pending`) and nothing is spanned here: the first
    histogram checks and spans them all in one batch.  The X2 pool,
    [2d, d-1]_q >= q^((d-1)(d+1)) subspaces, is refused above the default
    vertex cap first.

    The members are built through u.  Let U be the pivot columns of u (the
    first 1 of each canonical row) and C the span of the e_j, j not in U.
    u is the identity on U, so u meets C in 0 and H = u + C.  For
    u <= x <= H the modular law gives x = u + (x meet C), so w -> u + w is
    a bijection from the (d-t)-spaces w of C onto the (d-1)-spaces through
    u.  `all_subspaces` on the 2d-t+1 columns of H off U lists these w in
    GF(q)^(2d+1) directly, each as its canonical basis with the trailing
    zero.  The canonical basis of u + w needs no elimination: it takes the
    rows of w as they are, and reduces each row r of u to
    r - sum r[p] w_p over the pivots p of w, w_p the row with pivot p,
    which vanishes at w's other pivots.  w vanishes on U, so r keeps its
    entries there and gains none before its own pivot (below it r[p] = 0,
    above it w_p vanishes before p).  The rows of u now vanish at w's
    pivots and those of w on U, so both, sorted by pivot, are the RREF,
    and for rows led by 1s at distinct pivots descending tuple order is
    ascending pivot order.  At t = 1, u is 0 and each member is w as listed.
    C depends on U alone, so its w are listed once for each pivot pattern
    of the u, which `all_subspaces` lists together.
    """
    if d < 2 or not 0 < t < d:
        raise ParameterError(f"need d >= 2 and 0 < t < d, got d={d}, t={t}")
    _check_cap(f"X2 of twisted({q},{d})", (d - 1) * (d + 1) * (q.bit_length() - 1),
               lambda: q_binomial(2 * d, d - 1, q), DEFAULT_VERTEX_CAP, prime=q)
    n = 2 * d
    expected_members = q_binomial(2 * d + 1 - t, d - t, q)
    points, shared = X2PointIndex(q, d), {}
    families, pattern = [], None
    for u in all_subspaces(n, t - 1, q):  # grouped by pivot pattern
        upiv = [row.index(1) for row in u]
        if upiv != pattern:
            pattern = upiv
            ws = [(w, [(row.index(1), row) for row in w])
                  for w in all_subspaces(n + 1, d - t, q, [j for j in range(n) if j not in upiv])]
            if len(ws) != expected_members:  # every u gets one member per w
                raise DrgError(f"{len(ws)} spaces w per family, expected {expected_members}")
        u = tuple(row + (0,) for row in u)
        if not u:  # t = 1: u is 0, so the one family's members are the w as listed
            members = shared = [w for w, _ in ws]
        else:
            members = []
            for w, wpivots in ws:
                rows = list(w)
                for r in u:
                    for p, wp in wpivots:
                        c = r[p]
                        if c:
                            r = tuple([(a - c * b) % q for a, b in zip(r, wp)])
                    rows.append(r)
                rows.sort(reverse=True)
                member = tuple(rows)
                members.append(shared.setdefault(member, member))
        families.append(DescendentFamily(u, tuple(sorted(members)), points))
    if len(families) != q_binomial(2 * d, t - 1, q):
        raise DrgError("descendent family count mismatch")
    points.pending = list(shared)
    return families


def verify_descendent_family(fam: DescendentFamily, q: int, d: int, t: int, sys=None):
    """Parameter-tier check of one family: width, dual width, certificate
    verdict.  Returns (WidthReport, CertReport).  The histogram reads its
    point masks from fam.points, and the verdict is kept on sys by t and
    histogram (`SchemeEigensystem.verdicts`), so the families of one
    enumeration checked against one sys span each X2 vertex once and share
    one inner distribution, widths and certificate check per histogram.  A
    sys whose vertex count or diameter is not twisted(q, d)'s raises
    ParameterError."""
    if sys is None:
        arr = twisted_intersection_array(q, d)
        sys = eigensystem_from_array(arr, arr.vertex_count())
    elif (sys.n, sys.d) != (q_binomial(2 * d + 1, d, q), d):
        raise ParameterError(
            f"eigensystem with n={sys.n}, d={sys.d} is not that of twisted({q},{d})")
    counts = twisted_x2_distance_counts(list(fam.members), q, d, fam.points)
    key = (t, tuple(counts))
    if key not in sys.verdicts:
        dist = inner_distribution_from_counts(counts, sys)
        cert = solve_certificate(sys, t)
        sys.verdicts[key] = width_and_dual_width(dist), certify_subset(dist, cert)
    return sys.verdicts[key]


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class TheoremReport:
    n: int
    passed: bool
    arrays_match: bool
    certificate_feasible: bool
    bound: Fraction
    expected: Fraction
    optimum: int
    maximizers_match: bool
    n_maximizers: int
    n_descendent_families: int
    truncated: bool
    nodes: int
    seconds: float


def search(G: Graph, census: DistanceCensus, sys, t: int, enum_cap: int = ENUM_CAP):
    """Every maximum t-intersecting family of G, as `drgcert search` and
    `verify_theorem` both run it.  Solves the certificate of (sys, t) and,
    when f proves its bound, passes the floor of that bound to `max_clique`
    as the hint (clique sizes are integers).  On a twisted graph the
    descendent families are enumerated once, as index sets, and the largest
    seeds the warm start.  Returns (cert, descendents, result), descendents
    None off the twisted family."""
    cert = solve_certificate(sys, t)
    thr = threshold_graph(G, census, t)
    descendents = warm = None
    if G.family == "twisted":
        descendents = [
            frozenset(G.index_of(lab) for lab in fam.labels())
            for fam in enumerate_descendent_families(G.params["q"], G.params["d"], t)
        ]
        warm = max(descendents, key=len)
    hint = floor(cert.bound) if cert.proves_bound else None
    result = max_clique(thr, upper_bound_hint=hint, warm_start=warm, enum_cap=enum_cap)
    return cert, descendents, result


def verify_theorem(
    q: int,
    d: int,
    t: int,
    search_cap: int = EXHAUSTIVE_CAP,
    enum_cap: int = ENUM_CAP,
) -> TheoremReport:
    """Build the twisted graph, compare its BFS array with the closed-form
    array of J_q(2d+1,d) (which also settles P and Q, then taken from the
    closed form and its classical parameters), certify the bound, search
    exhaustively, and compare maximizers with the enumerated descendent
    families.  search_cap is the vertex cap of the build.  The
    comparison needs every maximizer listed, so an enum_cap below the
    [2d, t-1]_q descendent families (at least q^((t-1)(2d-t+1)) of them) is
    refused before the build: above it, a truncated list means more maxima
    than descendent families."""
    if not 0 < t < d:  # so d >= 2
        raise ParameterError(f"need 0 < t < d, got t={t}, d={d}")
    _check_cap(f"twisted({q},{d}) at t={t}", (t - 1) * (2 * d - t + 1) * (q.bit_length() - 1),
               lambda: q_binomial(2 * d, t - 1, q), enum_cap, unit="descendent families")
    twisted = build_twisted_grassmann(q, d, search_cap)
    census = distance_census(twisted, representatives(twisted))
    arr, closed = check_distance_regular(twisted, census), twisted_intersection_array(q, d)
    arrays_match = arr == closed
    cert, descendents, result = search(
        twisted, census, eigensystem_from_array(closed if arrays_match else arr, twisted.n),
        t, enum_cap
    )
    expected, _ = expected_bound("twisted", {"q": q, "d": d}, t)
    maximizers_match = (
        not result.truncated and set(map(frozenset, result.families)) == set(descendents)
    )
    passed = (
        arrays_match
        and cert.feasible
        and cert.bound == expected
        and result.optimum == expected
        and maximizers_match
    )
    return TheoremReport(
        n=twisted.n,
        passed=passed,
        arrays_match=arrays_match,
        certificate_feasible=cert.feasible,
        bound=cert.bound,
        expected=expected,
        optimum=result.optimum,
        maximizers_match=maximizers_match,
        n_maximizers=len(result.families),
        n_descendent_families=len(descendents),
        truncated=result.truncated,
        nodes=result.nodes,
        seconds=result.seconds,
    )
