"""Vertex-subset analysis: inner distribution, width and dual width.

The transform eQ is computed from the distance histogram and the second
eigenmatrix alone, never from materialized idempotents, so everything here
works on the parameter tier as long as a pairwise distance histogram is
available.  Each (eQ)_j is one integer sum over the eigensystem's D*Q,
formed once per eigensystem, divided by |Y| D.  On a built graph the
histogram comes from the graph's ball rounds (`distance_counts`), stopped
at the subset's width, and needs no distance census.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import FundamentalInequalityViolated, ParameterError
from .graphs import Graph, _grow_balls, _tuplify
from .scheme import SchemeEigensystem


class VertexSubset:
    """Nonempty duplicate-free sorted index set into a graph's vertex list."""

    __slots__ = ("graph", "indices")

    def __init__(self, graph: Graph, indices: Sequence[int]):
        idx = tuple(sorted(indices))
        if not idx:
            raise ParameterError("empty vertex subset")
        if len(set(idx)) != len(idx):
            raise ParameterError("duplicate vertex indices")
        if idx[0] < 0 or idx[-1] >= graph.n:
            raise ParameterError("vertex index out of range")
        self.graph = graph
        self.indices = idx

    @classmethod
    def from_labels(cls, graph: Graph, labels) -> "VertexSubset":
        return cls(graph, [graph.index_of(_tuplify(lab)) for lab in labels])

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class InnerDistribution:
    e: tuple[Fraction, ...]
    eq: tuple[Fraction, ...]

    def __post_init__(self):
        if self.e[0] != 1:
            raise ParameterError(f"e_0 = {self.e[0]} != 1")
        if any(x < 0 for x in self.e) or any(x < 0 for x in self.eq):
            raise FundamentalInequalityViolated(
                "negative inner-distribution entry; exact arithmetic forbids this"
            )
        if sum(self.e) != self.eq[0]:
            raise ParameterError("sum of e does not equal (eQ)_0 = |Y|")

    @property
    def size(self) -> Fraction:
        return self.eq[0]

    @property
    def d(self) -> int:
        return len(self.e) - 1


@dataclass(frozen=True)
class WidthReport:
    width: int
    dual_width: int
    diameter: int
    descendent: bool


def distance_counts(subset: VertexSubset) -> list[int]:
    """Ordered-pair distance histogram of Y x Y, counts[k] the number of
    pairs (x, y) in Y x Y with d(x, y) = k, for k = 0..w, w the width of Y.

    Counted from the rounds of `_grow_balls` over subset.graph, as
    `graphs.within` takes them: round k has the level masks level_k[y] of
    the vertices at distance k from y, and adds the sum over the members y
    of popcount(level_k[y] & Y); round 0, level_0[y] = {y}, adds |Y|.
    Proof: for each y the levels level_0[y], level_1[y], ... partition the
    vertices of y's component, so each ordered pair (y, x) of Y x Y is
    counted once, in round k = d(y, x), and in no other round.  The counts
    therefore reach |Y|^2 in round w and never before it, and the rounds
    stop there.  When a pair lies in two components, the rounds grow every
    ball to its component and `_grow_balls` raises DisconnectedGraph.
    """
    members = subset.indices
    ymask = sum(1 << y for y in members)
    rounds = _grow_balls(subset.graph)
    counts = [subset.size]
    while sum(counts) < subset.size ** 2:
        level, _ = next(rounds)
        counts.append(sum((level[y] & ymask).bit_count() for y in members))
    return counts


def inner_distribution_from_counts(
    counts: Sequence[int], sys: SchemeEigensystem
) -> InnerDistribution:
    """e_i = counts_i / |Y| and (eQ)_j = sum_i e_i Q_ij, formed as the
    integer sum sum_i counts_i (DQ)_ij over |Y| D."""
    if len(counts) > sys.d + 1:
        if any(counts[sys.d + 1:]):
            raise ParameterError("distance histogram longer than the scheme diameter")
        counts = counts[: sys.d + 1]
    counts = list(counts) + [0] * (sys.d + 1 - len(counts))
    ny = counts[0]  # diagonal pairs, one per member
    if ny <= 0 or sum(counts) != ny * ny:
        raise ParameterError("histogram is not an ordered-pair census of a vertex set")
    e = tuple(Fraction(c, ny) for c in counts)
    den = ny * sys.D
    eq = tuple(Fraction(sum(map(mul, counts, col)), den) for col in zip(*sys.DQ))
    return InnerDistribution(e=e, eq=eq)


def inner_distribution(subset: VertexSubset, sys: SchemeEigensystem) -> InnerDistribution:
    return inner_distribution_from_counts(distance_counts(subset), sys)


def width_and_dual_width(dist: InnerDistribution) -> WidthReport:
    """w = max{i : e_i != 0}, w* = max{i : (eQ)_i != 0}; raises when the
    fundamental inequality w + w* >= d fails (a bug, never valid data)."""
    d = dist.d
    w = max(i for i in range(d + 1) if dist.e[i] != 0)
    ws = max(i for i in range(d + 1) if dist.eq[i] != 0)
    if w + ws < d:
        raise FundamentalInequalityViolated(f"w={w}, w*={ws}, d={d}")
    return WidthReport(width=w, dual_width=ws, diameter=d, descendent=(w + ws == d))


def read_subset(path) -> list:
    """The labels in a subset file, a nonempty JSON list of canonical vertex
    labels as the graph cache emits them, read and shape-checked with no
    graph at hand (`VertexSubset.from_labels` maps them onto one).
    ParameterError for a file that is not ASCII, not JSON, or not such a
    list; OSError for one that cannot be read."""
    with open(path, encoding="ascii") as fh:
        try:
            labels = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not an ASCII file ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(labels, list) or not labels:
        raise ParameterError(f"{path}: expected a nonempty JSON list of labels")
    return labels
