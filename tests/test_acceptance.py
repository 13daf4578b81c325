"""End-to-end gate.

One test per numbered criterion; the pytest -v line is the pass/fail
record. Criterion 8, the stretch drill, rebuilds nothing: it reads the
complex dimensions and homology off the session's g = 5 registry.
"""

import time
from fractions import Fraction
from itertools import combinations

from perfcone.complexes import (
    build_inflation_complex,
    build_matroid_complexes,
    build_perfect_complex,
    build_registry,
    build_voronoi_complex,
    exact_triple,
)
from perfcone.cone import spanning_subset
from perfcone.homology import (
    betti,
    les_solve,
    parse_les_fixture,
    satake_weight0_column,
    top_weight_table,
    verify_complex,
)
from perfcone.intlinalg import det_sign
from perfcone.matroid import (
    SimpleGraph,
    complete_graph,
    graphic_cone,
    zg_coloop_indices,
)
from perfcone.quadform import (
    QuadraticForm,
    bundled_text,
    cone_of_form,
    load_bundled_catalog,
    minimal_vectors,
)
from perfcone.symmetry import equivalent, span_coordinates

from oracles import coloop_oracle, rank_oracle
from test_complexes import NINE_GRAPHS
from test_quadform import COLOOP_EXAMPLE_FORM
from test_symmetry import stabilizer_group

HALF = Fraction(1, 2)


def _sl_alternating(c):
    """No orientation-reversing stabilizer element of determinant +1.

    A ray permutation can be realized by matrices of both determinants,
    so the (perm, det) pairs are what matters.
    """
    ref = spanning_subset(c)
    coords = span_coordinates(c, ref)
    return not any(
        d == 1 and det_sign([coords[perm[s]] for s in ref]) < 0
        for perm, d in stabilizer_group(c)
    )


def test_acceptance_1_g2_end_to_end():
    t0 = time.perf_counter()
    reg = build_registry(2)
    p = build_perfect_complex(2, reg)
    report = betti(p)
    elapsed = time.perf_counter() - t0
    assert len(reg.orbits) == 4
    assert sorted(o.dim for o in reg.orbits) == [0, 1, 2, 3]
    assert {o.dim: o.alternating for o in reg.orbits} == {
        0: True,
        1: True,
        2: False,
        3: False,
    }
    assert [p.dim(n) for n in range(-1, 3)] == [1, 1, 0, 0]
    assert report.is_acyclic()
    assert elapsed < 1.0


def test_acceptance_2_g3_end_to_end():
    t0 = time.perf_counter()
    reg = build_registry(3)
    p = build_perfect_complex(3, reg)
    report = betti(p)
    elapsed = time.perf_counter() - t0
    assert {n: p.dim(n) for n in p.degrees() if p.dim(n)} == {-1: 1, 0: 1, 5: 1}
    assert report.homology[5] == 1
    assert sum(report.homology.values()) == 1
    assert top_weight_table(3, report.homology) == [(6, 1)]
    hits = set()
    for graph in NINE_GRAPHS.values():
        located = reg.locate(graphic_cone(graph))
        assert located is not None
        hits.add(located[0].id)
    assert hits == {o.id for o in reg.orbits} and len(hits) == 9
    assert elapsed < 60.0


def test_acceptance_3_g4_end_to_end():
    t0 = time.perf_counter()
    reg3 = build_registry(3)
    reg = build_registry(4)
    p3 = build_perfect_complex(3, reg3)
    p4 = build_perfect_complex(4, reg)
    v4 = build_voronoi_complex(4, reg)
    i4 = build_inflation_complex(4, reg)

    rank4 = [o for o in reg.orbits if o.rank == 4]
    assert len(rank4) == 18

    listed = [o for o in rank4 if _sl_alternating(o.rep)]
    census = {}
    for o in listed:
        census[o.dim - 1] = census.get(o.dim - 1, 0) + 1
    assert census == {4: 1, 5: 1, 6: 1, 8: 1, 9: 2}
    assert all(any(d == -1 for _p, d in stabilizer_group(o.rep)) for o in listed)
    assert sorted(o.dim - 1 for o in rank4 if o.alternating) == [6]

    forms = {q.name: q for q in load_bundled_catalog(4)}
    degree9 = {o.id for o in listed if o.dim - 1 == 9}
    located9 = {
        reg.locate(cone_of_form(forms["principal_4"]))[0].id,
        reg.locate(cone_of_form(forms["d4"]))[0].id,
    }
    assert degree9 == located9

    k4_pendant = SimpleGraph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)))
    pendant_orbit = reg.locate(graphic_cone(k4_pendant))
    assert pendant_orbit is not None
    assert pendant_orbit[0].id in {o.id for o in listed if o.dim - 1 == 6}

    assert {n: p4.dim(n) for n in p4.degrees() if p4.dim(n)} == {-1: 1, 0: 1, 5: 1, 6: 1}
    assert betti(p4).is_acyclic()
    assert {n: v4.dim(n) for n in v4.degrees() if v4.dim(n)} == {6: 1}
    assert betti(v4).homology[6] == 1
    exact_triple(4, p3, p4, v4)
    for n in p4.degrees():
        assert p4.dim(n) == p3.dim(n) + v4.dim(n)
    assert i4.basis == p4.basis and i4.diff == p4.diff

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0


def test_acceptance_4_invariant_suite(reg2, reg3, reg4):
    euler_expected = {2: 0, 3: 1, 4: 0}
    for g, reg in ((2, reg2), (3, reg3), (4, reg4)):
        p = build_perfect_complex(g, reg)
        v = build_voronoi_complex(g, reg)
        i = build_inflation_complex(g, reg)
        r, c = build_matroid_complexes(g, reg)
        for cx in (p, v, i, r, c):
            assert verify_complex(cx), cx.label
        assert betti(i).is_acyclic()
        report = betti(p)
        assert all(report.homology[k] == 0 for k in range(-1, g - 1))
        assert report.euler() == euler_expected[g]
        for seed in (1, 2, 3):
            reseeded = build_registry(g, seed=seed)
            assert betti(build_perfect_complex(g, reseeded)).homology == report.homology


def test_acceptance_5_coloop_oracle():
    # Exhaustive family: every subset (sizes capped below) of a fixed
    # pool per ambient, every index checked against the literal
    # basis-extension oracle. Pools: g=1 all of {-2..2}; g=2 six vectors
    # including the non-primitive (2,1) and (3,2) directions; g=3 the 13
    # sign-normalized vectors of the {-1,0,1} box, subsets to size 3,
    # plus all subsets of a 7-vector subpool to size 6.
    def check_pool(pool, max_size):
        for size in range(1, max_size + 1):
            for subset in combinations(pool, size):
                vectors = list(subset)
                got = zg_coloop_indices(vectors)
                want = [
                    i for i in range(len(vectors)) if coloop_oracle(vectors, i)
                ]
                assert got == want, vectors

    check_pool([(-2,), (-1,), (1,), (2,)], 4)
    check_pool([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, 2)], 6)
    box = sorted(
        v
        for v in (
            (a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
        )
        if v != (0, 0, 0) and next(x for x in v if x) > 0
    )
    assert len(box) == 13
    check_pool(box, 3)
    subpool = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
        (1, 0, -1),
    ]
    check_pool(subpool, 6)

    mv = minimal_vectors(COLOOP_EXAMPLE_FORM)
    assert mv.minimum == 1
    assert set(mv.vectors) == {(0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, -1)}
    transformed = QuadraticForm([[1, HALF, 0], [HALF, 1, 0], [0, 0, 1]])
    tv = minimal_vectors(transformed)
    assert set(tv.vectors) == {(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)}
    assert [tv.vectors[i] for i in zg_coloop_indices(list(tv.vectors))] == [(0, 0, 1)]
    assert len(zg_coloop_indices(list(mv.vectors))) == 1

    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert equivalent(cone_of_form(COLOOP_EXAMPLE_FORM), graphic_cone(paw)) is not None

    counterexample = [(0, 1), (3, 2)]
    assert zg_coloop_indices(counterexample) == []
    full_rank = rank_oracle(counterexample)
    for drop in (0, 1):
        kept = [counterexample[1 - drop]]
        assert rank_oracle(kept) == full_rank - 1


def test_acceptance_6_les_bookkeeping():
    expected = {
        6: ({11: 1}, [30]),
        7: ({13: 1, 18: 1, 22: 1, 27: 1}, [28, 33, 37, 42]),
    }
    for g, (dims_want, ks_want) in expected.items():
        fg, h_p, h_v = parse_les_fixture(bundled_text("les", g))
        assert fg == g
        result = les_solve(h_p, h_v, g)
        assert result.unknown_degrees() == []
        nonzero = {n: d for n, d in result.dims.items() if d}
        assert nonzero == dims_want
        assert sorted(g * (g + 1) - n - 1 for n in nonzero) == ks_want
        assert all(result.notes[n] for n in nonzero)


def test_acceptance_7_satake_table(reg5):
    computed_expected = {1: [], 2: [], 3: [(3, 3, 1)], 4: []}
    homology = {}
    for g, want in computed_expected.items():
        reg = build_registry(g)
        homology[g] = betti(build_perfect_complex(g, reg)).homology
        assert satake_weight0_column(g, homology[g]) == want

    report5 = betti(build_perfect_complex(5, reg5))
    assert satake_weight0_column(5, report5.homology) == [(5, 5, 1), (5, 10, 1)]

    # The long exact sequence on the computed H(P_4) and H(V_5) must tell
    # the same story as the computed column.
    h_v5 = betti(build_voronoi_complex(5, reg5)).homology
    res5 = les_solve(homology[4], h_v5, 5)
    assert res5.unknown_degrees() == []
    dims5 = {n: d for n, d in res5.dims.items() if d}
    assert dims5 == {n: d for n, d in report5.homology.items() if d}
    assert satake_weight0_column(5, dims5) == [(5, 5, 1), (5, 10, 1)]

    for g, want in {
        6: [(6, 6, 1)],
        7: [(7, 7, 1), (7, 12, 1), (7, 16, 1), (7, 21, 1)],
    }.items():
        fg, h_p, h_v = parse_les_fixture(bundled_text("les", g))
        result = les_solve(h_p, h_v, g)
        dims = {n: d for n, d in result.dims.items() if d}
        assert satake_weight0_column(g, dims) == want


def test_extended_g5_full_build(reg5):
    v = build_voronoi_complex(5, reg5)
    assert [v.dim(n) for n in range(8, 15)] == [1, 7, 6, 1, 0, 2, 3]
    report = betti(build_perfect_complex(5, reg5))
    assert {n: d for n, d in report.homology.items() if d} == {9: 1, 14: 1}
    assert report.euler() == 0
