import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from _oracles import (
    adjacency_matrix,
    inner_distribution_by_fractions,
    lagrange_idempotents,
    quad_form,
)
from drgcert.errors import FundamentalInequalityViolated, ParameterError
from drgcert.graphs import (
    IntersectionArray,
    grassmann_intersection_array,
    hamming_intersection_array,
    twisted_intersection_array,
)
from drgcert.scheme import eigensystem_from_array
from drgcert.subsets import (
    VertexSubset,
    distance_counts,
    inner_distribution,
    inner_distribution_from_counts,
    read_subset,
    width_and_dual_width,
)

GRAPHS = [
    ("johnson", (7, 3)),
    ("hamming", (3, 3)),
    ("grassmann", (2, 4, 2)),
    ("bilinear", (2, 2, 2)),
    ("twisted", (2, 2)),
]


def test_vertex_subset_validation(built):
    g, *_ = built("johnson", 5, 2)
    with pytest.raises(ParameterError):
        VertexSubset(g, [])
    with pytest.raises(ParameterError):
        VertexSubset(g, [0, 0])
    with pytest.raises(ParameterError):
        VertexSubset(g, [99])
    sub = VertexSubset(g, [3, 1, 2])
    assert sub.indices == (1, 2, 3)
    assert sub.size == 3


@pytest.mark.parametrize("family,args", GRAPHS)
def test_singleton(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    dist = inner_distribution(VertexSubset(g, [0]), sys_)
    assert dist.e == (1,) + (0,) * sys_.d
    assert dist.eq == tuple(Fraction(mj) for mj in sys_.m)
    rep = width_and_dual_width(dist)
    assert rep.width == 0 and rep.dual_width == sys_.d and rep.descendent


@pytest.mark.parametrize("family,args", GRAPHS)
def test_whole_vertex_set(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    dist = inner_distribution(VertexSubset(g, range(g.n)), sys_)
    assert dist.e == tuple(Fraction(x) for x in sys_.k)
    assert dist.eq == (Fraction(g.n),) + (0,) * sys_.d
    rep = width_and_dual_width(dist)
    assert rep.width == sys_.d and rep.dual_width == 0 and rep.descendent


def test_johnson_star(built):
    g, census, arr, sys_ = built("johnson", 7, 3)
    star = VertexSubset(g, [i for i, lab in enumerate(g.vertices) if 1 in lab])
    assert star.size == 15
    dist = inner_distribution(star, sys_)
    assert dist.e == (1, 8, 6, 0)
    # frozen from an independent eigendecomposition of the 35-vertex graph
    assert dist.eq == (15, 20, 0, 0)
    rep = width_and_dual_width(dist)
    assert (rep.width, rep.dual_width, rep.descendent) == (2, 1, True)


def test_johnson_star_transform_against_projectors(built):
    # (eQ)_i = |X|/|Y| chi^T E_i chi with E_i from Lagrange interpolation
    g, census, arr, sys_ = built("johnson", 7, 3)
    idx = [i for i, lab in enumerate(g.vertices) if 1 in lab]
    dist = inner_distribution(VertexSubset(g, idx), sys_)
    Es = lagrange_idempotents(adjacency_matrix(g), list(sys_.eigenvalues))
    for i, E in enumerate(Es):
        assert dist.eq[i] == Fraction(g.n, len(idx)) * quad_form(E, idx)


def test_twisted_x2_subset(built):
    g, census, arr, sys_ = built("twisted", 2, 2)
    x2 = VertexSubset(g, [i for i, lab in enumerate(g.vertices) if lab[0] == "X2"])
    assert x2.size == 15
    dist = inner_distribution(x2, sys_)
    assert dist.e == (1, 14, 0)
    assert dist.eq == (15, 140, 0)
    rep = width_and_dual_width(dist)
    assert (rep.width, rep.dual_width, rep.descendent) == (1, 1, True)


@pytest.mark.parametrize("family,args", GRAPHS)
def test_random_subsets_fundamental_inequality(family, args, built):
    g, census, arr, sys_ = built(family, *args)
    rng = random.Random(hash((family, args)) & 0xFFFF)
    for _ in range(1000):
        size = rng.randint(1, g.n)
        sub = VertexSubset(g, rng.sample(range(g.n), size))
        dist = inner_distribution(sub, sys_)
        assert sum(dist.e) == sub.size
        assert dist.eq[0] == sub.size
        assert all(x >= 0 for x in dist.eq)
        rep = width_and_dual_width(dist)  # raises if w + w* < d
        assert rep.descendent == (rep.width + rep.dual_width == sys_.d)


def test_counts_histogram_validation(built):
    _, _, _, sys_ = built("johnson", 5, 2)
    with pytest.raises(ParameterError):
        inner_distribution_from_counts([3, 4], sys_)  # not |Y|^2 pairs
    dist = inner_distribution_from_counts([2, 2, 0], sys_)
    assert dist.e == (1, 1, 0)


#: closed-form arrays for the parameter tier; the odd graphs O_4 and O_8
#: take the `_reorder` path, and H(8,2) has two Q-polynomial orderings
ARRAYS = {
    "J(7,3)": IntersectionArray((12, 6, 2), (1, 4, 9)),
    "J(12,5)": IntersectionArray((35, 24, 15, 8, 3), (1, 4, 9, 16, 25)),
    "H(4,4)": hamming_intersection_array(4, 4),
    "H(8,2)": hamming_intersection_array(8, 2),
    "J_2(6,3)": grassmann_intersection_array(2, 6, 3),
    "J_3(8,4)": grassmann_intersection_array(3, 8, 4),
    "twisted(2,3)": twisted_intersection_array(2, 3),
    "twisted(3,3)": twisted_intersection_array(3, 3),
    "O_4": IntersectionArray((4, 3, 3), (1, 1, 2)),
    "O_8": IntersectionArray((8, 7, 7, 6, 6, 5, 5), (1, 1, 2, 2, 3, 3, 4)),
}


@functools.cache
def _eigensystem(name):
    arr = ARRAYS[name]
    return eigensystem_from_array(arr, arr.vertex_count())


@st.composite
def histograms(draw):
    """(array name, counts): |Y| on the diagonal and the other |Y|^2 - |Y|
    ordered pairs spread over distances 1..d at random, which passes the
    histogram check whether or not some vertex set has it."""
    name = draw(st.sampled_from(sorted(ARRAYS)))
    d = ARRAYS[name].d
    ny = draw(st.integers(1, 60))
    off = ny * ny - ny
    cuts = sorted(draw(st.lists(st.integers(0, off), min_size=d - 1, max_size=d - 1)))
    return name, [ny] + [b - a for a, b in zip([0] + cuts, cuts + [off])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(histograms())
def test_inner_distribution_matches_the_fraction_formula(case):
    name, counts = case
    sys_ = _eigensystem(name)
    e, eq = inner_distribution_by_fractions(counts, sys_.Q.rows)
    if min(eq) < 0:
        event("some (eQ)_j < 0")
        with pytest.raises(FundamentalInequalityViolated):
            inner_distribution_from_counts(counts, sys_)
        return
    event("eQ >= 0")
    dist = inner_distribution_from_counts(counts, sys_)
    assert dist.e == tuple(e) and dist.eq == tuple(eq)


def test_subset_file_io(tmp_path, built):
    g, census, arr, sys_ = built("twisted", 2, 2)
    labels = [list(lab) for lab in g.vertices if lab[0] == "X2"]
    path = tmp_path / "x2.json"
    path.write_text(json.dumps([[p, [list(r) for r in rows]] for p, rows in labels]))
    sub = VertexSubset.from_labels(g, read_subset(path))
    assert sub.size == 15
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["X9", [[0, 0, 0, 0, 1]]]]))
    labels = read_subset(bad)  # a well-formed list, of no vertex of g
    with pytest.raises(ParameterError):
        VertexSubset.from_labels(g, labels)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(ParameterError):
        read_subset(empty)


def test_distance_counts_direct(built):
    g, *_ = built("johnson", 5, 2)
    # {1,2}, {1,3}, {1,4}: a clique, counted through width 1
    assert distance_counts(VertexSubset(g, [0, 1, 2])) == [3, 6]
    # {1,2}, {3,4}: disjoint, at distance 2 with nothing at distance 1
    assert distance_counts(VertexSubset(g, [0, g.index_of((3, 4))])) == [2, 0, 2]
