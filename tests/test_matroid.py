from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from perfcone.cone import PerfectCone, pad
from perfcone.intlinalg import mat_vec, rank_rows, snf_left, vec_gcd
from perfcone.matroid import (
    SimpleGraph,
    TURepresentation,
    _rational_coloops,
    complete_graph,
    graphic_cone,
    incidence_columns,
    inflate,
    is_tu,
    m_star_k33,
    r_10,
    tu_cone,
    zg_coloop_indices,
)
from perfcone.quadform import cone_of_form, principal_form
from perfcone.symmetry import equivalent

from oracles import coloop_oracle, simple_graphs_oracle
from test_quadform import COLOOP_EXAMPLE_FORM

PAW = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(ValueError):
        SimpleGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        SimpleGraph(2, ((0, 2),))


def test_incidence_sign_rule():
    path = SimpleGraph(3, ((0, 1), (1, 2)))
    assert incidence_columns(path) == [(1, -1), (0, 1)]


def test_graphic_cone_examples():
    k3 = graphic_cone(complete_graph(3))
    assert equivalent(k3, cone_of_form(principal_form(2))) is not None
    k4 = graphic_cone(complete_graph(4))
    assert len(k4.generators) == 6 and k4.dim == 6
    assert equivalent(k4, cone_of_form(principal_form(3))) is not None
    edge = graphic_cone(SimpleGraph(2, ((0, 1),)))
    assert edge.generators == ((1,),)


def test_tu_cone_matches_graphic_route():
    rep = TURepresentation.from_graph(complete_graph(4))
    assert equivalent(tu_cone(rep, 3), graphic_cone(complete_graph(4))) is not None


def test_tu_cone_of_identity_is_simplicial():
    rep = TURepresentation.verify([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    c = tu_cone(rep, 3)
    assert c.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_two_representations_same_matroid_equivalent_cones():
    # delete a different incidence row and flip some edge orientations
    k4 = complete_graph(4)
    cols = incidence_columns(k4)
    rep1 = TURepresentation.from_graph(k4)
    full = [
        [(1 if a == b[0] else -1 if a == b[1] else 0) for b in k4.edges]
        for a in range(4)
    ]
    drop_first = [full[i] for i in (1, 2, 3)]
    rep2 = TURepresentation.verify(drop_first)
    assert equivalent(tu_cone(rep1, 3), tu_cone(rep2, 3)) is not None
    del cols


def test_tu_cone_rejections():
    with pytest.raises(ValueError):
        tu_cone(TURepresentation(((1, 0), (0, 1)), None), 2)
    rep = TURepresentation.verify([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        tu_cone(rep, 2)
    tall = TURepresentation.verify([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        tu_cone(tall, 1)


def test_is_tu_examples():
    rep = TURepresentation.from_graph(complete_graph(4))
    assert is_tu(rep.matrix) is True
    assert is_tu([[1, 1], [-1, 1]]) is False
    assert is_tu([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is True
    assert is_tu([[2, 0], [0, 1]]) is False
    wide = [[1] * 21]
    assert is_tu(wide) is None


def test_verify_raises_on_not_tu():
    with pytest.raises(ValueError):
        TURepresentation.verify([[1, 1], [-1, 1]])


def test_bundled_regular_matroids():
    k33 = m_star_k33()
    assert k33.verified is True
    assert k33.rows == 4 and k33.cols == 9
    r10 = r_10()
    assert r10.verified is True
    assert r10.rows == 5 and r10.cols == 10


def test_bundled_regular_matroids_are_tu():
    # the fixtures are built as verified constants; this is their check
    assert is_tu(m_star_k33().matrix) is True
    assert is_tu(r_10().matrix) is True


def test_zg_coloops_examples():
    vs = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert zg_coloop_indices(vs) == [3]
    assert zg_coloop_indices([(0, 1), (3, 2)]) == []
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert zg_coloop_indices(basis) == [0, 1, 2]


def test_zg_coloops_on_transformed_example_cone():
    c = cone_of_form(COLOOP_EXAMPLE_FORM)
    assert len(zg_coloop_indices(list(c.generators))) == 1


def test_zg_matches_literal_oracle_small_pool():
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, 2)]
    for size in range(1, 5):
        for subset in combinations(pool, size):
            vs = list(subset)
            mine = set(zg_coloop_indices(vs))
            theirs = {i for i in range(len(vs)) if coloop_oracle(vs, i)}
            assert mine == theirs, vs


def test_second_coloop_survives_removal_of_first():
    pool = [(1, 0), (0, 1), (1, 1), (2, 1)]
    for size in range(2, 5):
        for subset in combinations(pool, size):
            vs = list(subset)
            cols = zg_coloop_indices(vs)
            for a in cols:
                rest = [v for i, v in enumerate(vs) if i != a]
                surviving = {rest[i] for i in zg_coloop_indices(rest)}
                for b in cols:
                    if b != a:
                        assert vs[b] in surviving


def test_matroid_coloops_examples():
    paw = TURepresentation.from_graph(PAW)
    assert _matroid_coloops_by_deletion(paw.columns) == [3]
    k4 = TURepresentation.from_graph(complete_graph(4))
    assert _matroid_coloops_by_deletion(k4.columns) == []
    ident = TURepresentation.verify([[1, 0], [0, 1]])
    assert _matroid_coloops_by_deletion(ident.columns) == [0, 1]


def test_zg_equals_matroid_coloops_on_tu_columns():
    reps = [
        TURepresentation.from_graph(SimpleGraph(v, edges))
        for v in (4, 5)
        for edges in simple_graphs_oracle(v)
    ]
    reps += [m_star_k33(), r_10()]
    for rep in reps:
        cols = [c for c in rep.columns if any(c)]
        if len(cols) != rep.cols:
            continue
        assert zg_coloop_indices(cols) == _matroid_coloops_by_deletion(cols)


def _zg_coloops_by_deletion(vs):
    """zg_coloop_indices as one rank per deleted vector, the way it was
    computed before the left-kernel test: a vector is a rational coloop
    when deleting it drops the rank, then the saturation test runs."""
    if not vs:
        return []
    g = len(vs[0])
    full = rank_rows(vs)
    out = []
    for i, v in enumerate(vs):
        if not any(v):
            continue
        others = vs[:i] + vs[i + 1 :]
        if not others:
            if vec_gcd(v) == 1:
                out.append(i)
            continue
        if rank_rows(others) == full:
            continue
        m = [[w[k] for w in others] for k in range(g)]
        u, _d, r = snf_left(m)
        if vec_gcd(mat_vec(u, v)[r:]) == 1:
            out.append(i)
    return out


def _matroid_coloops_by_deletion(cols):
    """Column indices lying in every column basis: those whose deletion
    drops the rank."""
    full = rank_rows(cols)
    return [j for j in range(len(cols)) if rank_rows(cols[:j] + cols[j + 1 :]) < full]


@st.composite
def _vector_lists(draw):
    """Short integer vector lists with zero vectors, repeated directions
    (k v for a listed v) and spans that are not saturated (small entries
    give spans of index 2 or 3, and 2 v, 3 v share a direction)."""
    g = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * g)
    vs = draw(st.lists(vec, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        if vs:
            v = draw(st.sampled_from(vs))
            k = draw(st.sampled_from([-2, -1, 1, 2, 3]))
            vs.insert(draw(st.integers(0, len(vs))), tuple(k * x for x in v))
    if draw(st.booleans()):
        vs.insert(draw(st.integers(0, len(vs))), (0,) * g)
    return g, vs


@given(_vector_lists())
def test_coloops_match_the_deletion_loops(case):
    g, vs = case
    assert zg_coloop_indices(vs) == _zg_coloops_by_deletion(vs)
    assert _rational_coloops(vs) == _matroid_coloops_by_deletion(vs)
    rep = TURepresentation(tuple(zip(*vs)) if vs else ((),) * g, True)
    assert rep.columns == vs


def test_inflate_zero_cone():
    c = inflate(PerfectCone(2, []))
    assert c.generators == ((0, 1),)


def _drop_coloop(c):
    """c without its one Z-coloop generator: inflate undone on orbits."""
    (i,) = zg_coloop_indices(c.generators)
    return c.subcone(j for j in range(len(c.generators)) if j != i)


def test_inflate_deflate_example_pair():
    triangle = pad(graphic_cone(complete_graph(3)), 3)
    inflated = inflate(triangle)
    assert equivalent(inflated, cone_of_form(COLOOP_EXAMPLE_FORM)) is not None
    deflated = _drop_coloop(cone_of_form(COLOOP_EXAMPLE_FORM))
    assert equivalent(deflated, triangle) is not None


def test_deflate_single_ray():
    assert _drop_coloop(PerfectCone(1, [(1,)])).generators == ()
    assert _drop_coloop(PerfectCone(3, [(0, 0, 1)])).is_zero()


def test_inflate_domain_errors():
    with pytest.raises(ValueError):
        inflate(cone_of_form(principal_form(2)))
    with pytest.raises(ValueError):
        inflate(PerfectCone(3, [(1, 0, 0)]))


def test_inflate_then_deflate_round_trip():
    for base in (
        pad(graphic_cone(complete_graph(3)), 3),
        PerfectCone(3, []),
        pad(graphic_cone(complete_graph(3)), 4),
        pad(cone_of_form(principal_form(2)), 3),
    ):
        up = inflate(base)
        down = _drop_coloop(up)
        assert equivalent(down, base) is not None


def test_atlas_counts():
    # isomorphism classes of simple graphs on 1..5 vertices, as in the
    # graph atlas (Read and Wilson)
    assert [len(simple_graphs_oracle(v)) for v in range(1, 6)] == [1, 2, 4, 11, 34]
