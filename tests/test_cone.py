import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import add

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import perfcone.cone
from perfcone.cone import (
    PerfectCone,
    _dd_core,
    _span_basis,
    facet_index_sets,
    format_cone,
    face_mask,
    gram_downdate,
    indices,
    pad,
    parse_cone,
    records,
    reduce,
    span_basis,
    spanning_subset,
)
from perfcone.intlinalg import (
    Echelon,
    dot,
    flatten_rank1,
    mat_vec,
    pick_basis,
    pivot_columns,
    rank_rows,
    sign_normalize,
    vec_gcd,
)
from perfcone.matroid import graphic_cone
from perfcone.quadform import QuadraticForm, cone_of_form, load_bundled_catalog, principal_form
from perfcone.symmetry import conjugate_cone, equivalent, random_unimodular, span_coordinates

from oracles import (
    complete_edges,
    det_oracle,
    facets_bruteforce,
    induces,
    rank_oracle,
    span_coordinates_oracle,
)


def _flat(v):
    g = len(v)
    return tuple(v[i] * v[j] for i in range(g) for j in range(g))


def test_constructor_rejects_bad_generators():
    with pytest.raises(ValueError):
        PerfectCone(2, [(2, 0)])
    with pytest.raises(ValueError):
        PerfectCone(2, [(1, 0), (-1, 0)])
    with pytest.raises(ValueError):
        PerfectCone(2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        PerfectCone(-1, [])


D5 = next(cone_of_form(q) for q in load_bundled_catalog(5) if q.name == "d5")


@settings(max_examples=60)
@given(st.data())
def test_subcone_is_the_cone_on_those_generators(reg5, data):
    # subcone takes the parent's checked, sorted generators as they are;
    # the constructor checks, normalizes and sorts them again
    cones = [D5] + [o.rep for o in reg5.orbits if o.rep.generators]
    c = data.draw(st.sampled_from(cones))
    gens = c.generators
    idx = data.draw(st.sets(st.integers(0, len(gens) - 1)))
    idx = data.draw(st.permutations(sorted(idx)))
    sub = c.subcone(idx)
    ref = PerfectCone(c.g, [gens[i] for i in idx])
    assert sub == ref and hash(sub) == hash(ref)
    assert sub.generators == ref.generators
    assert (sub.dim, sub.rank) == (ref.dim, ref.rank)


def test_subcone_rejects_indices_outside_the_cone():
    n = len(D5.generators)
    for bad in ([-1], [n], [-1, n - 1], [0, n], [-n]):
        with pytest.raises(ValueError, match=f"range\\({n}\\)"):
            D5.subcone(bad)
        with pytest.raises(ValueError, match=f"range\\({n}\\)"):
            D5.facet(bad)
    assert D5.subcone([]) == PerfectCone(5, [])


def test_rank_and_dimension_examples():
    prin2 = cone_of_form(principal_form(2))
    assert prin2.rank == 2 and prin2.dim == 3
    zero = PerfectCone(2, [])
    assert zero.rank == 0 and zero.dim == 0
    d4 = cone_of_form(load_bundled_catalog(4)[1])
    assert d4.rank == 4 and d4.dim == 10


def face_lattice(c):
    """Every face of c as a subcone, by dimension, each group sorted by
    generator indices: c, the zero face and every intersection of
    facets."""
    facets = facet_index_sets(c)
    n = len(c.generators)
    seen = {(1 << n) - 1, 0}
    stack = list(seen)
    while stack:
        m = stack.pop()
        for f in facets:
            if m & f not in seen:
                seen.add(m & f)
                stack.append(m & f)
    out = {}
    for m in sorted(seen, key=lambda m: indices(m, n)):
        face = c.subcone(indices(m, n))
        out.setdefault(face.dim, []).append(face)
    return out


def test_simplicial_face_counts():
    c = cone_of_form(principal_form(2))
    by_dim = face_lattice(c)
    assert {d: len(fs) for d, fs in by_dim.items()} == {0: 1, 1: 3, 2: 3, 3: 1}


def test_face_lattice_euler_characteristic():
    cones = [
        cone_of_form(principal_form(2)),
        cone_of_form(principal_form(3)),
        graphic_cone(4, complete_edges(4)).subcone(range(5)),
    ]
    for c in cones:
        total = sum((-1) ** d * len(fs) for d, fs in face_lattice(c).items())
        assert total == 0


def test_face_of_face_is_face():
    c = cone_of_form(principal_form(2))
    for sub in face_lattice(c)[2]:
        for ff in face_lattice(sub)[1]:
            gens = set(ff.generators)
            assert any(gens == set(other.generators) for other in face_lattice(c)[1])


def _facet_sets(c):
    """The facets of c as generator index sets."""
    n = len(c.generators)
    return {frozenset(indices(m, n)) for m in facet_index_sets(c)}


def test_facets_match_bruteforce_oracle():
    cones = [
        cone_of_form(principal_form(2)),
        cone_of_form(principal_form(3)),
        graphic_cone(4, complete_edges(4)).subcone(range(5)),
    ]
    for c in cones:
        mine = _facet_sets(c)
        oracle = facets_bruteforce([_flat(v) for v in c.generators])
        assert mine == oracle


def test_d4_cone_facets_against_oracle():
    # non-simplicial: 12 generators, dimension 10
    c = cone_of_form(load_bundled_catalog(4)[1])
    mine = _facet_sets(c)
    assert len(mine) == 64
    assert all(len(f) == 9 for f in mine)
    assert mine == facets_bruteforce([_flat(v) for v in c.generators])


@settings(max_examples=30)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=8))
# a pair of rays with d - 2 common active constraints that is not adjacent
@example([(0, 1, 0), (0, 1, 2), (1, -2, -1), (1, -2, 2), (1, 1, 0), (1, 2, -1), (2, -1, -2), (2, -1, 1), (2, 2, -1)])
# and one where such a pair has a ray tight on exactly d rows, one more
# than a simple ray
@example([(0, 1, -2), (0, 1, 0), (0, 2, 1), (1, -1, -2), (1, 0, 1), (1, 1, -1), (1, 2, -2), (1, 2, -1), (2, 1, 0)])
def test_facets_match_bruteforce_on_random_g3_cones(vectors):
    gens = {sign_normalize(v) for v in vectors if vec_gcd(v) == 1}
    assume(len(gens) >= 2)
    c = PerfectCone(3, gens)
    assert _facet_sets(c) == facets_bruteforce([_flat(v) for v in c.generators])


@settings(max_examples=8)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
def test_facets_match_bruteforce_on_moved_d4_subcones(seed, rnd):
    # all 12 vectors: test_d4_cone_facets_against_oracle
    d4 = cone_of_form(load_bundled_catalog(4)[1])
    keep = rnd.sample(range(12), rnd.randint(10, 11))
    c = conjugate_cone(d4.subcone(keep), random_unimodular(4, random.Random(seed)))
    assert _facet_sets(c) == facets_bruteforce([_flat(v) for v in c.generators])


def _projected_rows(gens):
    """The flattened generators on their pivot columns, as in facet_index_sets."""
    flat = [flatten_rank1(v) for v in gens]
    piv = pivot_columns(flat)
    return [tuple(row[j] for j in piv) for row in flat]


def _dd(ys):
    """The double description on rows ys that span: the tight set of each
    extreme ray of {w : <w, y> >= 0}, as a mask."""
    init, coords = _span_basis(ys, range(len(ys)))
    assert len(init) == len(ys[0])
    return _dd_core(coords, init)


def _rows(m):
    """The rows of a double description mask (bit i for row i), increasing."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


def _assert_tight_sets(ys, masks):
    """Each double description mask is the tight set of an extreme ray of
    {w : <w, y> >= 0}."""
    d = len(ys[0])
    for mask in masks:
        # the ray spans the kernel of its tight rows, with either sign
        tight = Echelon()
        for y in (y for i, y in enumerate(ys) if mask >> i & 1):
            tight.add(y)
        w = tight.kernel_vector(d)
        assert w is not None
        if any(dot(y, w) < 0 for y in ys):
            w = tuple(-x for x in w)
        vals = [dot(y, w) for y in ys]
        assert all(v >= 0 for v in vals)
        assert mask == sum(1 << i for i, v in enumerate(vals) if v == 0)
        # extreme: the tight constraints leave a line
        assert rank_rows([y for i, y in enumerate(ys) if mask >> i & 1]) == d - 1


def test_dd_masks_are_the_tight_sets_on_g5_catalog():
    for q in load_bundled_catalog(5):
        ys = _projected_rows(cone_of_form(q).generators)
        masks = _dd(ys)
        assert len(set(masks)) == len(masks)
        _assert_tight_sets(ys, masks)


def test_dd_masks_with_redundant_rows():
    # y_a + y_b is nonnegative on the cone and tight exactly where y_a and
    # y_b both are; inserted before the last two rows, it cuts off no ray,
    # but the pairs met after it must see the rays tight on it
    ys = _projected_rows(cone_of_form(load_bundled_catalog(4)[1]).generators)
    masks = _dd(ys)
    n = len(ys)
    extra = [tuple(map(add, ys[0], ys[1])), tuple(map(add, ys[2], ys[5]))]
    wide = _dd(ys[:-2] + extra + ys[-2:])
    low = (1 << (n - 2)) - 1

    def narrow(m):
        return m & low | (m >> 2) & ~low

    assert sorted(map(narrow, wide)) == sorted(masks)
    for m in wide:
        assert (m >> (n - 2) & 1) == (m & 1 and m >> 1 & 1)
        assert (m >> (n - 1) & 1) == (m >> 2 & 1 and m >> 5 & 1)


def _cartan_cone(g, edges):
    """Cone of the root lattice whose Dynkin diagram has these edges: its
    Cartan matrix over 2, with minimum 1 at the roots."""
    m = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    for i, j in edges:
        m[i][j] = m[j][i] = Fraction(-1, 2)
    return cone_of_form(QuadraticForm(m))


D6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]
E6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]


def test_d6_facets_are_pinned():
    # g = 6, degenerate: 30 pairs, dimension 21; the digest is that of the
    # facet list found by the earlier all-rays adjacency scan
    c = _cartan_cone(6, D6_EDGES)
    assert len(c.generators) == 30 and c.dim == 21
    facets = facet_index_sets(c)
    assert len(facets) == 6336
    digest = hashlib.sha256(repr([indices(m, 30) for m in facets]).encode()).hexdigest()
    assert digest == "28d7a7605d1deb3e751549f5110016a6c20d376ce3df052186c6dcf947d64fef"


def test_d6_facets_take_gram_and_rank_from_the_parent():
    # every 50th facet; each drops 5 or 10 of the 30 generators, and every
    # facet of D6 has full rank
    c = _cartan_cone(6, D6_EDGES)
    c.gram
    for s in facet_index_sets(c)[::50]:
        face = c.facet(indices(s, 30))
        assert face._rank == 6 and face._gram == PerfectCone(6, face.generators).gram


@settings(max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda g: st.lists(st.tuples(*[st.integers(-2, 2)] * g), min_size=g, max_size=g + 5)
    ),
    st.randoms(use_true_random=False),
)
def test_gram_downdate_matches_a_fresh_gram(vectors, rnd):
    # a full-rank kept subset gets the fresh cone's Gram matrix; one that
    # drops the rank reports it
    g = len(vectors[0])
    gens = {sign_normalize(v) for v in vectors if vec_gcd(v) == 1}
    c = PerfectCone(g, gens)
    assume(c.rank == g)
    n = len(c.generators)
    keep = sorted(rnd.sample(range(n), rnd.randint(0, n)))
    sub = c.subcone(keep)
    got = gram_downdate(c.gram, g, keep)
    if sub.rank == g:
        assert got == sub.gram
    else:
        assert got is None


def test_gram_downdate_on_every_facet_of_the_bundled_cones(reg5):
    # the facets of the bundled perfect cones keep full rank and may drop
    # several generators at once (D5's drop 4 or 6 of its 20); the facets
    # recorded on the full-rank orbits of the g = 5 registry also include
    # boundary facets, where the rank drops. As in gram, G_ij and G_ji are
    # one int, so a kept facet matrix holds each entry once
    cases = [
        (c, facet_index_sets(c))
        for c in (cone_of_form(q) for g in range(1, 6) for q in load_bundled_catalog(g))
    ]
    cases += [(o.rep, [m for m, _t, _e in o.facets]) for o in reg5.orbits if o.rank == 5]
    drops = set()
    dropped_rank = 0
    for c, masks in cases:
        n = len(c.generators)
        for m in masks:
            keep = indices(m, n)
            sub = c.subcone(keep)
            got = gram_downdate(c.gram, c.g, keep)
            drops.add(n - len(keep))
            if sub.rank == c.g:
                assert got == sub.gram
                assert all(x is got[j][i] for i, row in enumerate(got) for j, x in enumerate(row))
            else:
                assert got is None
                dropped_rank += 1
    assert {1, 4, 6} <= drops and dropped_rank > 0


def test_gram_needs_a_full_rank_cone():
    c = PerfectCone(3, [(1, 0, 0), (0, 1, 1)])
    with pytest.raises(ValueError, match="full-rank cone.*reduced core"):
        c.gram
    assert len(reduce(c)[0].gram) == 2
    # the zero cone has full rank only in ambient 0, where G is empty
    with pytest.raises(ValueError, match="full-rank cone"):
        PerfectCone(3, []).gram
    assert PerfectCone(0, []).gram == ()


def _assert_masks_follow_the_rows(c, seed, rnd, sample=None):
    """The double description on c's rows, shuffled and conjugated by a
    random unimodular matrix, finds the same masks, renumbered with the
    rows; all of them, or a sample of that size, are tight sets."""
    masks = set(_dd(_projected_rows(c.generators)))
    n = len(c.generators)
    order = list(range(n))
    rnd.shuffle(order)
    h = random_unimodular(c.g, random.Random(seed))
    ys = _projected_rows([mat_vec(h, c.generators[i]) for i in order])
    moved = _dd(ys)
    assert len(set(moved)) == len(moved)
    back = {sum(1 << order[a] for a in range(n) if m >> a & 1) for m in moved}
    assert back == masks
    _assert_tight_sets(ys, moved if sample is None else rnd.sample(moved, min(sample, len(moved))))


@settings(max_examples=12)
@given(
    st.sampled_from(["d5", "d6"]),
    st.integers(min_value=0, max_value=10**6),
    st.randoms(use_true_random=False),
)
def test_dd_masks_survive_row_order_and_conjugation(name, seed, rnd):
    # degenerate cones beyond the brute-force oracle: reordering the rows
    # changes the initial simplex and the insertion order, and a unimodular
    # conjugate changes every coordinate, but not the facets
    if name == "d5":
        c = next(cone_of_form(q) for q in load_bundled_catalog(5) if q.name == "d5")
    else:
        c = _cartan_cone(6, D6_EDGES)
    # a sample at g = 6, where checking all 6336 takes seconds
    _assert_masks_follow_the_rows(c, seed, rnd, None if name == "d5" else 60)


@settings(max_examples=10)
@given(
    st.integers(24, 30),
    st.integers(min_value=0, max_value=10**6),
    st.randoms(use_true_random=False),
)
@example(30, 0, random.Random(0))
def test_dd_masks_on_d6_subcones(keep, seed, rnd):
    # D6 itself and subcones that keep 24 to 30 of its generators: degenerate
    # cones whose insertions test many pairs of two degenerate rays
    c = _cartan_cone(6, D6_EDGES)
    c = c.subcone(rnd.sample(range(30), keep))
    _assert_masks_follow_the_rows(c, seed, rnd, 40)


def test_dd_core_refuses_to_insert_below_dimension_3():
    # in the plane, the rays (1, 0) and (-1, 1) bound the cone, and (0, 1)
    # lies inside: the facets are {0, 2} and {4}. The adjacency test reads
    # the empty meet of a pair at d = 2, and without the guard it found
    # {0, 2} alone
    ys = [(1, 0), (0, 1), (2, 0), (0, 2), (-1, 1)]
    init, coords = _span_basis(ys, range(len(ys)))
    with pytest.raises(AssertionError, match="dimension 2 < 3"):
        _dd_core(coords, init)
    # with no row left to insert, the initial rays are the answer
    assert sorted(_dd_core(coords[:2], init)) == [1, 2]


def _assert_facets_follow_the_rows(c, seed, rnd, sample):
    """facet_index_sets on c conjugated by a random unimodular matrix,
    from its own span and from a span_basis in a shuffled order kept on
    it, finds the facets of the plain double description on the moved
    cone's full rows, in sorted order, and those of c moved by the
    matrix; a sample of them are tight sets."""
    h = random_unimodular(c.g, random.Random(seed))
    moved = conjugate_cone(c, h)
    rows = _projected_rows(moved.generators)
    tight = _dd(rows)
    n = len(rows)
    plain = sorted((face_mask(_rows(m), n) for m in tight), key=lambda m: indices(m, n))
    order = list(range(n))
    rnd.shuffle(order)
    assert facet_index_sets(moved) == plain
    moved._span = span_basis(moved, order)
    assert facet_index_sets(moved) == plain
    at = {sign_normalize(mat_vec(h, v)): k for k, v in enumerate(c.generators)}
    back = [at[v] for v in moved.generators]
    assert {face_mask([back[i] for i in _rows(m)], n) for m in tight} == set(facet_index_sets(c))
    _assert_tight_sets(rows, rnd.sample(tight, min(sample, len(tight))))


@settings(max_examples=10)
@given(
    st.sampled_from(["d5", "d6"]),
    st.integers(min_value=0, max_value=10**6),
    st.randoms(use_true_random=False),
)
def test_facets_through_series_classes_on_moved_d5_and_d6(name, seed, rnd):
    # D5's 20 generators fall into 10 series classes of two, D6's 30 into
    # 15, so facet_index_sets runs the double description on the classes
    c = D5 if name == "d5" else _cartan_cone(6, D6_EDGES)
    _assert_facets_follow_the_rows(c, seed, rnd, 40)


@settings(max_examples=10)
@given(
    st.integers(24, 30),
    st.integers(min_value=0, max_value=10**6),
    st.randoms(use_true_random=False),
)
def test_facets_through_series_classes_on_moved_d6_subcones(keep, seed, rnd):
    # a subcone keeps some classes whole and splits others, and a class
    # may lose its free member to another basis
    c = _cartan_cone(6, D6_EDGES).subcone(rnd.sample(range(30), keep))
    _assert_facets_follow_the_rows(c, seed, rnd, 40)


def test_series_classes_shrink_the_double_description(monkeypatch, reg5):
    # the double description runs on the contracted rows: dimension 5 for
    # D5 (10 classes of 2) and 6 for D6 (15 of 2), while D4's 3 classes of
    # 4 would leave dimension 1 and E6 has no class of two; no call, over
    # every bundled cone and g = 5 orbit, starts from fewer than 3 rows.
    # The stub records each call's rows and initial rows and answers with
    # one mask, all rows tight; fresh cones keep the session registry's
    # cones as they are
    calls = []

    def stub(coords, init):
        calls.append((len(coords), len(init)))
        return [(1 << len(coords)) - 1]

    monkeypatch.setattr(perfcone.cone, "_dd_core", stub)
    d4 = cone_of_form(load_bundled_catalog(4)[1])
    e6 = _cartan_cone(6, E6_EDGES)
    for c, shape in ((D5, (10, 5)), (_cartan_cone(6, D6_EDGES), (15, 6)), (d4, (12, 10)), (e6, (36, 21))):
        calls.clear()
        facet_index_sets(PerfectCone(c.g, c.generators))
        assert calls == [shape]
    calls.clear()
    cones = [cone_of_form(q) for g in range(1, 6) for q in load_bundled_catalog(g)]
    cones += [PerfectCone(o.rep.g, o.rep.generators) for o in reg5.orbits]
    for c in cones:
        facet_index_sets(c)
    # D4, D5 and six g = 5 orbits are not simplicial: D4 and D5 again, and
    # four built on D4's classes plus four to one coloops (Gale vector
    # zero, each a class of its own). With four, three and two coloops they
    # contract to dimension 5, 4 and 3; with one it would leave 2
    assert sorted(calls) == [(5, 3), (6, 4), (7, 5), (10, 5), (10, 5), (12, 10), (12, 10), (13, 11)]


def test_reduce_examples(reg4):
    base = cone_of_form(principal_form(2))
    padded = pad(base, 3)
    core, local = reduce(padded)
    assert core.g == 2
    assert equivalent(core, base) is not None
    assert induces(local, padded, pad(core, 3))

    ray = PerfectCone(2, [(1, 0)])
    core, local = reduce(ray)
    assert core.g == 1 and core.generators == ((1,),) and local == (0,)

    # a full-rank cone is its own core, and keeps no pair on itself
    full = cone_of_form(principal_form(3))
    core, local = reduce(full)
    assert core is full and local == tuple(range(len(full.generators)))
    assert full._reduction is None

    # boundary faces, fresh so that each is reduced by elimination, and
    # conjugates of padded cones as test_reduce_after_pad_recovers_cone
    # draws them: local sends generator i to the core generator that a
    # map of GL_g(Z) takes it to
    faces = []
    for o in reg4.orbits:
        rep = o.rep
        if 0 < rep.rank < 4:
            faces.append(PerfectCone(4, rep.generators))
        elif rep.rank == 4:
            for m in facet_index_sets(rep):
                face = PerfectCone(4, rep.facet(indices(m, len(rep.generators))).generators)
                if face.rank < 4:
                    faces.append(face)
    assert {c.rank for c in faces} == {1, 2, 3}
    for seed in range(8):
        for gsrc in (1, 2):
            big = pad(cone_of_form(principal_form(gsrc)), gsrc + 1 + seed % 2)
            faces.append(conjugate_cone(big, random_unimodular(big.g, random.Random(seed))))
    for c in faces:
        core, local = reduce(c)
        assert core.g == core.rank == c.rank
        assert induces(local, c, pad(core, c.g)), c.generators


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2]))
def test_reduce_after_pad_recovers_cone(seed, gsrc):
    base = cone_of_form(principal_form(gsrc))
    big = pad(base, gsrc + 1 + seed % 2)
    moved = conjugate_cone(big, random_unimodular(big.g, random.Random(seed)))
    red, _ = reduce(moved)
    assert red.g == base.g
    assert equivalent(red, base) is not None


def test_rank_against_oracle():
    for g in (2, 3, 4):
        c = cone_of_form(principal_form(g))
        assert c.rank == rank_oracle(c.generators)
        assert c.dim == rank_oracle([_flat(v) for v in c.generators])


@settings(max_examples=40)
@given(
    st.integers(2, 5).flatmap(
        lambda g: st.lists(st.tuples(*[st.integers(-2, 2)] * g), min_size=1, max_size=g * (g + 1) // 2 + 3)
    )
)
def test_rank_after_dimension_agrees_with_elimination(vectors):
    # rank r < g bounds the dimension by r(r+1)/2, so a cone whose
    # dimension is known and above g(g-1)/2 takes rank g unreduced
    g = len(vectors[0])
    c = PerfectCone(g, {sign_normalize(v) for v in vectors if vec_gcd(v) == 1})
    c.dim
    assert c.rank == rank_rows(c.generators)


def test_rank_after_dimension_at_the_bound():
    # a padded full cone of rank g - 1 has dimension g(g-1)/2 exactly and
    # must take its rank by elimination; the same cone unpadded, and D5,
    # lie above the bound
    for g in range(2, 7):
        full = cone_of_form(principal_form(g - 1))
        assert full.dim == g * (g - 1) // 2 and full.rank == g - 1
        # fresh, as pad hands the rank over
        c = PerfectCone(g, pad(full, g).generators)
        assert c.dim == g * (g - 1) // 2
        assert c.rank == g - 1 == rank_rows(c.generators)
        moved = conjugate_cone(c, random_unimodular(g, random.Random(g)))
        assert moved.dim == c.dim and moved.rank == g - 1
    fresh = PerfectCone(5, D5.generators)
    assert fresh.dim == 15 and fresh.rank == 5 == rank_rows(fresh.generators)


def test_face_monotonicity():
    c = cone_of_form(principal_form(3))
    for d, fs in face_lattice(c).items():
        for f in fs:
            assert f.rank <= c.rank
            if d < c.dim:
                assert f.dim < c.dim


def test_spanning_subset_spans():
    c = cone_of_form(principal_form(2))
    idx = spanning_subset(c)
    assert idx == (0, 1, 2)
    sub = [_flat(c.generators[i]) for i in idx]
    assert rank_oracle(sub) == c.dim


def _prefix_rank_spanning(rows, order):
    """The spanning subset by definition: keep a row when it raises the
    rank of the rows kept before it."""
    chosen = []
    for i in order:
        if rank_oracle([rows[j] for j in chosen + [i]]) > len(chosen):
            chosen.append(i)
    return chosen


@settings(max_examples=40)
@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_pick_basis_matches_prefix_rank_definition(vectors, rnd):
    rows = [_flat(v) for v in vectors]
    order = list(range(len(rows)))
    rnd.shuffle(order)
    expected = _prefix_rank_spanning(rows, order)
    assert pick_basis(rows, order, len(rows[0]))[0] == expected
    nonzero = {sign_normalize(v) for v in vectors if vec_gcd(v) == 1}
    if nonzero:
        c = PerfectCone(4, nonzero)
        flat = [flatten_rank1(v) for v in c.generators]
        order = list(range(len(flat)))
        rnd.shuffle(order)
        assert spanning_subset(c, order) == tuple(sorted(_prefix_rank_spanning(flat, order)))


@settings(max_examples=80)
@given(
    st.integers(2, 5).flatmap(
        lambda g: st.lists(st.tuples(*[st.integers(-2, 2)] * g), min_size=1, max_size=g + 8)
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example([(1, 0), (0, 1), (1, 1), (1, -1)], False, random.Random(0))  # degenerate: 4 forms, dim 3
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)], False, random.Random(0))  # boundary
@example([(1, 1), (1, -1), (1, 0)], False, random.Random(0))  # D = 2
def test_span_basis_is_the_greedy_basis_with_its_coordinates(vectors, flatten_last, rnd):
    # flatten_last zeroes the last coordinate, so the cone is a boundary one
    g = len(vectors[0])
    if flatten_last:
        vectors = [v[:-1] + (0,) for v in vectors]
    gens = {sign_normalize(v) for v in vectors if vec_gcd(v) == 1}
    assume(gens)
    c = PerfectCone(g, gens)
    order = list(range(len(c.generators)))
    rnd.shuffle(order)
    ref, coords = span_basis(c, order)
    assert ref == spanning_subset(c, order)
    assert c._dim == len(ref) == rank_oracle([flatten_rank1(v) for v in c.generators])
    # the scale D is |det| of the basis forms on the leftmost coordinates
    # that span, whatever the order
    basis = [flatten_rank1(c.generators[r]) for r in ref]
    left = _prefix_rank_spanning(list(zip(*basis)), range(len(basis[0])))
    scale = coords[ref[0]][0]
    assert scale == abs(det_oracle([[row[k] for k in left] for row in basis])) > 0
    oracle = span_coordinates_oracle(c.generators, ref)
    assert [list(x) for x in coords] == [[scale * y for y in x] for x in oracle]
    # the same coordinates with ref first in the order
    assert span_coordinates(c, ref) == coords
    assert span_basis(c) == (spanning_subset(c), span_coordinates(c, spanning_subset(c)))


def _random_g3_cone(rng):
    while True:
        vs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(4, 10))]
        gens = {sign_normalize(v) for v in vs if vec_gcd(v) == 1}
        if len(gens) >= 2:
            return PerfectCone(3, gens)


def test_facets_come_sorted(monkeypatch):
    # facets are never nested, so with generator i at bit n - 1 - i their
    # masks decrease strictly exactly when their sorted index tuples
    # increase; the simplicial path, the class path (the double
    # description on fewer rows than generators) and the plain path (on
    # every row) all return them so
    rng = random.Random(13)
    cones = [_random_g3_cone(rng) for _ in range(40)]
    cones.append(next(cone_of_form(q) for q in load_bundled_catalog(5) if q.name == "d5"))
    cones.append(_cartan_cone(6, D6_EDGES))
    # non-simplicial cones of 8, 9, 16 and 17 generators: seeded samples of
    # the primitive vectors with entries in {-1, 0, 1}
    for g, n in ((3, 8), (3, 9), (4, 16), (4, 17)):
        box = sorted({sign_normalize(v) for v in product((-1, 0, 1), repeat=g) if any(v)})
        cones.append(PerfectCone(g, random.Random(n).sample(box, n)))
    assert any(c.dim < len(c.generators) for c in cones[:40])
    assert [len(c.generators) for c in cones[-4:]] == [8, 9, 16, 17]
    assert all(c.dim < len(c.generators) for c in cones[-4:])
    rows = []
    dd_core = perfcone.cone._dd_core

    def spy(coords, init):
        rows.append(len(coords))
        return dd_core(coords, init)

    monkeypatch.setattr(perfcone.cone, "_dd_core", spy)
    paths = Counter()
    for c in cones:
        n = len(c.generators)
        rows.clear()
        masks = facet_index_sets(c)
        paths["simplicial" if not rows else "classes" if rows[0] < n else "plain"] += 1
        assert all(a > b for a, b in zip(masks, masks[1:]))
        facets = [indices(m, n) for m in masks]
        assert facets == sorted(facets)
    assert paths["simplicial"] and paths["classes"] >= 2 and paths["plain"] >= 4
    # each mask, read by indices, is the exact tight set of a facet,
    # numbered by generator
    for c in cones[-4:]:
        n = len(c.generators)
        tight = [sum(1 << i for i in indices(m, n)) for m in facet_index_sets(c)]
        _assert_tight_sets(_projected_rows(c.generators), tight)


@pytest.mark.parametrize("n", [63, 64, 65, 67])
def test_facets_of_corank_one_cones_past_one_limb(n):
    # g = 11: the e_i, e_i + e_j over the first n - 12 pairs (0, 1), (0, 2),
    # ..., which hold the triangle 0 1 2, and e_0 + e_1 + e_2. The forms
    # satisfy one relation, 012 - 01 - 02 - 12 + 0 + 1 + 2 = 0, so a facet
    # leaves out one generator on each side of it, or one generator off it.
    # The plain path sorts masks of 63 to 67 bits, which reach past one
    # 64-bit machine word, and returns them whole
    g = 11

    def e(*ks):
        return tuple(int(k in ks) for k in range(g))

    pairs = list(combinations(range(g), 2))[: n - 12]
    c = PerfectCone(g, [e(i) for i in range(g)] + [e(i, j) for i, j in pairs] + [e(0, 1, 2)])
    assert (len(c.generators), c.dim) == (n, n - 1)
    at = {v: k for k, v in enumerate(c.generators)}
    plus = [at[e(0, 1, 2)], at[e(0)], at[e(1)], at[e(2)]]
    minus = [at[e(0, 1)], at[e(0, 2)], at[e(1, 2)]]
    off = set(range(n)).difference(plus, minus)
    drops = [{p, m} for p in plus for m in minus] + [{k} for k in off]
    facets = sorted(tuple(sorted(set(range(n)) - d)) for d in drops)
    assert facet_index_sets(c) == [face_mask(f, n) for f in facets]


@settings(max_examples=60)
@given(st.integers(0, 70), st.randoms(use_true_random=False))
def test_face_masks_round_trip(n, rnd):
    # indices decodes what face_mask encodes, whatever the order it is
    # given in; between two faces that are not nested, the larger mask has
    # the smaller sorted index tuple. Masks off range(1 << n) and indices
    # off range(n) are refused
    a, b = (sorted(rnd.sample(range(n), rnd.randint(0, n))) for _ in range(2))
    ma, mb = face_mask(a, n), face_mask(reversed(a), n)
    assert ma == mb and 0 <= ma < 1 << n
    assert indices(ma, n) == a
    mb = face_mask(b, n)
    if not (set(a) <= set(b) or set(b) <= set(a)):
        assert (ma > mb) == (a < b)
    for bad in (-1, 1 << n):
        with pytest.raises(ValueError, match="face mask"):
            indices(bad, n)
    for bad in (-1, n):
        with pytest.raises(ValueError, match="generator index"):
            face_mask([bad], n)


def test_cone_file_roundtrip():
    c = cone_of_form(principal_form(3))
    text = format_cone(c)
    assert text.splitlines()[0] == "cone g=3 n=6"
    parsed, consumed = parse_cone(records(text))
    assert parsed == c
    assert consumed == 7


def test_parse_cone_errors():
    # a block that the text ends early is named at its last line + 1
    for lines, where in (
        (["cone g=2 n=1", "1 x"], "line 2:"),
        (["cone g=2", "1 0"], "line 1:"),
        (["cone g=2 n=-1"], "line 1:"),
        (["cone g=1 n=1", "2"], "line 1:"),
        (["cone g=2 n=2", "1 0", "# the second row is missing"], "line 4:"),
    ):
        with pytest.raises(ValueError) as err:
            parse_cone(records(lines))
        assert str(err.value).startswith(where)
