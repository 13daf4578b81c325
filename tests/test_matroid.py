import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, strategies as st

from perfcone.complexes import build_registry
from perfcone.cone import PerfectCone, pad
from perfcone.intlinalg import mat_vec, rank_rows, sign_normalize, snf_left, vec_gcd
from perfcone.matroid import (
    _rational_coloops,
    graphic_cone,
    inflate,
    is_matroidal,
    lattice_coloops,
    zg_coloop_indices,
)
from perfcone.quadform import cone_of_form, load_bundled_catalog, minimal_vectors, principal_form
from perfcone.symmetry import conjugate_cone, equivalent, random_unimodular

from oracles import (
    coloop_oracle,
    complete_edges,
    incidence_columns_oracle,
    is_tu,
    m_star_k33,
    r_10,
    simple_graphs_oracle,
    tu_cone,
    unimodular_oracle,
)
from test_quadform import COLOOP_EXAMPLE_FORM

PAW = ((0, 1), (0, 2), (1, 2), (2, 3))


def _incidence_matrix(vertices, edges):
    """The reduced incidence matrix, its columns incidence_columns_oracle."""
    return tuple(zip(*incidence_columns_oracle(vertices, edges)))


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (3, ((0, 0),), r"edge \(0,0\)"),
        (2, ((0, 2),), r"edge \(0,2\)"),
        (3, ((0, 1), (-1, 2)), r"edge \(-1,2\)"),
        (3, ((0, 1), (0, 1)), "repeat"),
        (3, ((0, 1), (1, 0)), "repeat"),
    ],
    ids=["loop", "end-at-vertices", "end-at-minus-one", "parallel", "parallel-reversed"],
)
def test_graphic_cone_refuses_a_graph_that_is_not_simple(vertices, edges, message):
    with pytest.raises(ValueError, match=message):
        graphic_cone(vertices, edges)


def test_graphic_cone_examples():
    # e_0 - e_1 and e_1, the row of vertex 2 deleted, sign-normalised and sorted
    assert graphic_cone(3, ((0, 1), (1, 2))).generators == ((0, 1), (1, -1))
    k3 = graphic_cone(3, complete_edges(3))
    assert equivalent(k3, cone_of_form(principal_form(2))) is not None
    k4 = graphic_cone(4, complete_edges(4))
    assert len(k4.generators) == 6 and k4.dim == 6
    assert equivalent(k4, cone_of_form(principal_form(3))) is not None
    edge = graphic_cone(2, ((0, 1),))
    assert edge.generators == ((1,),)


def test_tu_cone_matches_graphic_route():
    rep = _incidence_matrix(4, complete_edges(4))
    assert equivalent(tu_cone(rep, 3), graphic_cone(4, complete_edges(4))) is not None


def test_tu_cone_of_identity_is_simplicial():
    c = tu_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert c.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_two_representations_same_matroid_equivalent_cones():
    # delete a different incidence row and flip some edge orientations
    k4 = complete_edges(4)
    rep1 = _incidence_matrix(4, k4)
    full = [
        [(1 if a == b[0] else -1 if a == b[1] else 0) for b in k4]
        for a in range(4)
    ]
    rep2 = [full[i] for i in (1, 2, 3)]
    assert is_tu(rep2) is True
    assert equivalent(tu_cone(rep1, 3), tu_cone(rep2, 3)) is not None


def test_tu_cone_rejections():
    with pytest.raises(ValueError):
        tu_cone([[1, 0], [0, 0]], 2)
    with pytest.raises(ValueError):
        tu_cone([[1, 0], [0, 1]], 1)


def test_is_tu_examples():
    assert is_tu(_incidence_matrix(4, complete_edges(4))) is True
    assert is_tu([[1, 1], [-1, 1]]) is False
    assert is_tu([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is True
    assert is_tu([[2, 0], [0, 1]]) is False
    wide = [[1] * 21]
    assert is_tu(wide) is None


def test_bundled_regular_matroids():
    k33 = m_star_k33()
    assert len(k33) == 4 and {len(row) for row in k33} == {9}
    r10 = r_10()
    assert len(r10) == 5 and {len(row) for row in r10} == {10}


def test_bundled_regular_matroids_are_tu():
    # the tests take the constants as totally unimodular; this is their check
    assert is_tu(m_star_k33()) is True
    assert is_tu(r_10()) is True


def test_is_matroidal_on_regular_and_irregular_cones():
    assert is_matroidal(tu_cone(m_star_k33(), 4))
    assert is_matroidal(tu_cone(r_10(), 5))
    for g in range(1, 7):
        assert is_matroidal(graphic_cone(g + 1, complete_edges(g + 1))), g
    assert is_matroidal(PerfectCone(3, []))
    # D4: its 12 minimal-vector pairs hold a 4 x 4 minor of determinant 2
    (d4,) = [q for q in load_bundled_catalog(4) if len(minimal_vectors(q)) == 12]
    assert not is_matroidal(cone_of_form(d4))
    # simplicial, but the generators span an index-2 sublattice of Z^2
    assert not is_matroidal(PerfectCone(2, [(1, 1), (1, -1)]))


@st.composite
def _standard_forms(draw):
    """[I_r | A'] with A' a {0, +-1} matrix whose columns are nonzero,
    pairwise non-parallel and not unit vectors, so the columns of the
    whole are a simple matroid's."""
    r = draw(st.integers(1, 5))
    m = draw(st.integers(0, 5))
    cols = draw(st.lists(st.tuples(*[st.sampled_from((-1, 0, 1))] * r), min_size=m, max_size=m))
    unit = {sign_normalize(tuple(int(i == k) for i in range(r))) for k in range(r)}
    keys = [sign_normalize(c) for c in cols]
    assume(all(sum(map(abs, c)) > 1 for c in cols) and len(set(keys) | unit) == r + m)
    return [tuple(int(i == k) for i in range(r)) + tuple(c[k] for c in cols) for k in range(r)]


@given(_standard_forms(), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_is_matroidal_matches_total_unimodularity(matrix, extra, seed):
    g = len(matrix) + extra
    c = tu_cone(matrix, g)
    moved = conjugate_cone(c, random_unimodular(g, random.Random(seed)))
    assert is_matroidal(c) == is_matroidal(moved) == is_tu(matrix)


@st.composite
def _small_configurations(draw):
    """Distinct primitive vectors, up to sign, with entries in [-1, 1] (so
    that some sets are unimodular) or, for a third of the draws, [-2, 2]."""
    g = draw(st.integers(1, 4))
    b = draw(st.sampled_from((1, 1, 2)))
    vs = draw(st.lists(st.tuples(*[st.integers(-b, b)] * g), max_size=7))
    out = {sign_normalize(v) for v in vs if vec_gcd(v) == 1}
    return g, sorted(out)


@given(_small_configurations())
def test_is_matroidal_matches_the_minor_oracle(case):
    # vectors in any position: rank below g, spans of index > 1
    g, vs = case
    assert is_matroidal(PerfectCone(g, vs)) == unimodular_oracle(vs)


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
    assert _matroid_coloops_by_deletion(incidence_columns_oracle(4, PAW)) == [3]
    assert _matroid_coloops_by_deletion(incidence_columns_oracle(4, complete_edges(4))) == []
    assert _matroid_coloops_by_deletion([(1, 0), (0, 1)]) == [0, 1]


def test_zg_equals_matroid_coloops_on_tu_columns():
    column_sets = [
        incidence_columns_oracle(v, edges)
        for v in (4, 5)
        for edges in simple_graphs_oracle(v)
    ]
    column_sets += [list(zip(*m_star_k33())), list(zip(*r_10()))]
    for cols in column_sets:
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
    _g, vs = case
    assert zg_coloop_indices(vs) == _zg_coloops_by_deletion(vs)
    assert _rational_coloops(vs) == _matroid_coloops_by_deletion(vs)


def _gram_candidates(c):
    """The generators of a full-rank cone with g G_ii = trace G."""
    gram = c.gram
    trace = sum(row[i] for i, row in enumerate(gram))
    return [i for i, row in enumerate(gram) if c.g * row[i] == trace]


def test_lattice_coloops_on_every_full_rank_orbit(reg2, reg3, reg4, reg5, reg6_principal):
    # the Gram diagonal marks exactly the rational coloops, and the
    # saturation test on those alone gives zg_coloop_indices
    regs = [reg2, reg3, reg4, reg5, reg6_principal]
    seeded = None
    for g in range(1, 6):
        seeded = build_registry(g, seed=1, prev=seeded)
        regs.append(seeded)
    checked = 0
    for reg in regs:
        for o in reg.orbits:
            if o.rank < reg.g:
                continue
            gens = o.rep.generators
            assert _gram_candidates(o.rep) == _rational_coloops(gens), o.id
            assert lattice_coloops(o.rep) == zg_coloop_indices(gens), o.id
            checked += 1
    assert checked > 533
    # a g = 5 orbit whose 5 generators span an index > 1 sublattice: every
    # generator is a rational coloop, and none is a lattice coloop
    odd = [
        o.id
        for o in reg5.orbits
        if o.rank == 5 and len(_gram_candidates(o.rep)) == 5 and not lattice_coloops(o.rep)
    ]
    assert odd == ["r5d5n1"]


@st.composite
def _full_rank_sets(draw):
    """Distinct primitive vectors, up to sign, that span Q^g (g <= 4, at
    most 8 of them), moved by a random unimodular matrix. For two draws in
    three, the first coordinate of every vector is scaled by 2 or 3 before
    the move, so their span has index > 1 in Z^g."""
    g = draw(st.integers(1, 4))
    k = draw(st.sampled_from((1, 2, 3)))
    vs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * g), min_size=g, max_size=8))
    h = random_unimodular(g, random.Random(draw(st.integers(0, 2**32 - 1))))
    out = set()
    for v in vs:
        w = tuple(mat_vec(h, (k * v[0],) + v[1:]))
        if vec_gcd(w) == 1:
            out.add(sign_normalize(w))
    assume(rank_rows(list(out)) == g)
    return g, sorted(out)


@given(_full_rank_sets())
@example((2, [(1, -1), (1, 1)]))  # index 2: two rational coloops, no lattice coloop
def test_lattice_coloops_match_the_oracle(case):
    g, vs = case
    c = PerfectCone(g, vs)
    gens = c.generators
    assert lattice_coloops(c) == [i for i in range(len(gens)) if coloop_oracle(gens, i)]


def test_lattice_coloops_need_a_full_rank_cone():
    with pytest.raises(ValueError):
        lattice_coloops(PerfectCone(3, [(1, 0, 0), (0, 1, 0)]))


def test_inflate_zero_cone():
    c = inflate(PerfectCone(2, []))
    assert c.generators == ((0, 1),)


def _drop_coloop(c):
    """c without its one Z-coloop generator: inflate undone on orbits."""
    (i,) = zg_coloop_indices(c.generators)
    return c.subcone(j for j in range(len(c.generators)) if j != i)


def test_inflate_deflate_example_pair():
    triangle = pad(graphic_cone(3, complete_edges(3)), 3)
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
        pad(graphic_cone(3, complete_edges(3)), 3),
        PerfectCone(3, []),
        pad(graphic_cone(3, complete_edges(3)), 4),
        pad(cone_of_form(principal_form(2)), 3),
    ):
        up = inflate(base)
        down = _drop_coloop(up)
        assert equivalent(down, base) is not None


def test_atlas_counts():
    # isomorphism classes of simple graphs on 1..5 vertices, as in the
    # graph atlas (Read and Wilson)
    assert [len(simple_graphs_oracle(v)) for v in range(1, 6)] == [1, 2, 4, 11, 34]
