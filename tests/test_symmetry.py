import gc
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import perfcone
from perfcone.complexes import build_registry
from perfcone.cone import Face, PerfectCone, facet_index_sets, indices, reduce, span_basis
from perfcone.intlinalg import adjugate_det, det_int, det_sign, sign_normalize, vec_gcd
from perfcone.quadform import (
    cone_of_form,
    load_bundled_catalog,
    minimal_vectors,
    principal_form,
    voronoi_neighbor,
)
from perfcone.symmetry import (
    OrbitRegistry,
    _assignment_order,
    _full_rank_maps,
    _matrix,
    conjugate_cone,
    equivalent,
    format_registry,
    is_alternating,
    orientation_sign,
    parse_registry,
    random_unimodular,
    span_coordinates,
    strong_generators,
)

from oracles import (
    automorphism_oracle,
    induces,
    is_witness,
    orientation_oracle,
    rank_oracle,
    rational_gram_oracle,
    span_coordinates_oracle,
)
from test_cone import D6_EDGES, E6_EDGES, _cartan_cone, face_lattice

COORD2 = PerfectCone(2, [(1, 0), (0, 1)])


def stabilizer_group(c):
    """(perm, det A) of every A in the GL_g(Z) stabilizer of a full-rank
    cone: the closure of the pairs (perm, det A) for every A the oracle
    finds inducing the identity (the kernel of the action on rays) or a
    strong generator's perm, with -I as (identity, (-1)^g)."""
    ident = tuple(range(len(c.generators)))
    gens = [(p, det_int(a)) for p in [ident, *strong_generators(c)] for a in induces(p, c, c)]
    gens.append((ident, (-1) ** c.g))
    out = {(ident, 1)}
    stack = list(out)
    while stack:
        p, d = stack.pop()
        for q, e in gens:
            r = (tuple(q[x] for x in p), d * e)
            if r not in out:
                out.add(r)
                stack.append(r)
    return out


def _flip_last(c):
    """diag(1, ..., 1, -1) as a witness of c onto itself, rays fixed."""
    m = [[int(i == j) for j in range(c.g)] for i in range(c.g)]
    m[-1][-1] = -1
    return m, tuple(range(len(c.generators)))


def _pool(seed):
    rng = random.Random(seed)
    base = [
        cone_of_form(principal_form(2)),
        COORD2,
        PerfectCone(2, [(1, 0)]),
        cone_of_form(principal_form(3)),
        PerfectCone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]),
    ]
    return rng.choice(base), rng


def test_self_equivalence_is_identity_like():
    for c in (cone_of_form(principal_form(2)), PerfectCone(2, [])):
        perm = equivalent(c, c)
        assert perm == tuple(range(len(c.generators)))
        assert induces(perm, c, c)


def test_faces_of_principal_g2_pairwise_equivalent():
    c = cone_of_form(principal_form(2))
    two_dim = face_lattice(c)[2]
    assert len(two_dim) == 3
    for a in two_dim:
        for b in two_dim:
            perm = equivalent(a, b)
            assert perm is not None and induces(perm, a, b)


def test_principal4_and_d4_not_equivalent():
    prin = cone_of_form(principal_form(4))
    d4 = cone_of_form(load_bundled_catalog(4)[1])
    assert equivalent(prin, d4) is None
    assert equivalent(d4, prin) is None


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        equivalent(cone_of_form(principal_form(2)), cone_of_form(principal_form(3)))


def test_check_rejects_broken_witnesses():
    c1 = cone_of_form(principal_form(3))
    c2 = conjugate_cone(c1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    perm = equivalent(c1, c2)
    assert perm is not None
    # the perm oracle finds the matrices that induce the perm
    maps = induces(perm, c1, c2)
    assert maps and all(is_witness(a, perm, c1, c2) for a in maps)
    a = maps[0]
    swapped = list(perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not is_witness(a, tuple(swapped), c1, c2)
    doubled = tuple(tuple(2 * x for x in row) for row in a)
    assert not is_witness(doubled, perm, c1, c2)
    smaller = c2.subcone(range(len(c2.generators) - 1))
    assert not is_witness(a, perm, c1, smaller)
    assert not induces(tuple(swapped), c1, c2)
    assert not induces(perm, c1, smaller)
    # a boundary cone's rays pin A only on their span, so only the
    # determinant rejects a map that fixes them
    ray = PerfectCone(2, [(1, 0)])
    assert is_witness(((1, 0), (0, -1)), (0,), ray, ray)
    assert not is_witness(((1, 0), (0, 2)), (0,), ray, ray)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_equivalence_relation_on_conjugates(seed):
    c, rng = _pool(seed)
    h1 = random_unimodular(c.g, rng)
    h2 = random_unimodular(c.g, rng)
    c1 = conjugate_cone(c, h1)
    c2 = conjugate_cone(c, h2)
    p12 = equivalent(c1, c2)
    p21 = equivalent(c2, c1)
    assert p12 is not None and induces(p12, c1, c2)
    assert p21 is not None and induces(p21, c2, c1)


def test_automorphism_group_of_principal_g3():
    c = cone_of_form(principal_form(3))
    group = stabilizer_group(c)
    assert len({perm for perm, _d in group}) == 24
    for perm in strong_generators(c):
        assert induces(perm, c, c)


def test_single_ray_automorphisms():
    assert _perm_closure(strong_generators(PerfectCone(2, [(1, 0)])), 1) == {(0,)}


def test_coordinate_swap_is_orientation_reversing():
    perms = {perm for perm, _d in stabilizer_group(COORD2)}
    assert perms == {(0, 1), (1, 0)}
    assert orientation_oracle(COORD2.generators, perms) == {(1, 0): -1, (0, 1): 1}
    assert not is_alternating(COORD2)


def test_principal_g3_automorphisms_all_positive():
    c = cone_of_form(principal_form(3))
    perms = {perm for perm, _d in stabilizer_group(c)}
    assert set(orientation_oracle(c.generators, perms).values()) == {1}
    assert is_alternating(c)


def test_orientation_matches_the_span_determinant(reg5):
    # the registry reads a simplicial orbit's signs as permutation
    # parities; the span determinant is the sign they replace
    simplicial = 0
    for reg in (reg5, build_registry(5, seed=1), build_registry(5, seed=2)):
        for o in reg.orbits:
            coords = span_coordinates(o.rep, o.ref_orientation)
            # the coordinates add hands orientation_sign: none when simplicial
            kept = None if len(o.rep.generators) == o.dim else coords
            for perm in o.aut_gens or []:
                rows = [perm[s] for s in o.ref_orientation]
                sign = det_sign([coords[i] for i in rows])
                assert orientation_sign(rows, o.ref_orientation, kept) == sign, o.id
            simplicial += kept is None and o.aut_gens is not None
    # the 162 searched orbits but D5 and five of its faces, at each seed
    assert simplicial == 3 * 156


# n generators, dimension d; the alternating ones are at 2 and 3
ORIENTATION_POOL = [
    COORD2,  # n = d = 2
    cone_of_form(principal_form(2)),  # n = d = 3
    cone_of_form(principal_form(3)),  # n = d = 6
    # n - d = 1
    PerfectCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    PerfectCone(3, [(1, 0, 0), (0, 1, 0)]),  # a boundary cone
]


@settings(max_examples=30)
@given(st.integers(0, len(ORIENTATION_POOL) - 1), st.integers(0, 10**6))
def test_orientation_on_conjugates(k, seed):
    # in a seeded conjugate, with a shuffled reference order, the sign is
    # the span determinant and the oracle's sign
    rng = random.Random(seed)
    c = ORIENTATION_POOL[k]
    moved = conjugate_cone(c, random_unimodular(c.g, rng))
    order = list(range(len(moved.generators)))
    rng.shuffle(order)
    ref, coords = span_basis(moved, order)
    gens = strong_generators(moved)
    simplicial = len(ref) == len(order)
    kept = None if simplicial else coords
    signs = [orientation_sign([perm[s] for s in ref], ref, kept) for perm in gens]
    assert signs == [det_sign([coords[perm[s]] for s in ref]) for perm in gens]
    if simplicial:
        # a parity against a reference basis in shuffled order is the
        # determinant on the coordinates in that basis
        shuffled = span_coordinates(moved, order)
        for perm in gens:
            rows = [perm[s] for s in order]
            assert orientation_sign(rows, order, None) == det_sign([shuffled[i] for i in rows])
    if moved.rank == moved.g:
        assert signs == [orientation_oracle(moved.generators, [p])[p] for p in gens]
    assert all(signs) and (min(signs) > 0) == is_alternating(c)
    assert (min(signs) > 0) == (k in (2, 3)), k


def test_orientation_sign_is_homomorphism():
    # what lets the registry read alternation off the strong generators
    c = cone_of_form(principal_form(2))
    gens = strong_generators(c)
    for p in gens:
        for q in gens:
            assert induces(tuple(q[x] for x in p), c, c)
    perms = {perm for perm, _d in stabilizer_group(c)}
    assert len(perms) == 6
    signs = orientation_oracle(c.generators, perms)
    for p in perms:
        for q in perms:
            assert signs[tuple(q[x] for x in p)] == signs[p] * signs[q]


def test_alternating_examples():
    assert not is_alternating(cone_of_form(principal_form(2)))
    assert is_alternating(cone_of_form(principal_form(3)))
    assert is_alternating(PerfectCone(2, []))
    assert is_alternating(PerfectCone(2, [(1, 0)]))
    # two distinct lattice coloops force a sign-reversing swap
    assert not is_alternating(COORD2)
    assert not is_alternating(PerfectCone(3, [(1, 0, 0), (0, 1, 0)]))


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_alternating_is_a_class_function(seed):
    c, rng = _pool(seed)
    h = random_unimodular(c.g, rng)
    assert is_alternating(c) == is_alternating(conjugate_cone(c, h))


def test_stabilizer_reflections():
    assert any(d == -1 for _p, d in stabilizer_group(COORD2))
    assert any(d == -1 for _p, d in stabilizer_group(cone_of_form(principal_form(2))))
    # a boundary cone's generators end in zeros, so flipping the last
    # coordinate fixes each of them
    for c in (PerfectCone(2, [(1, 0)]), PerfectCone(3, [])):
        assert is_witness(*_flip_last(c), c, c)


def test_boundary_witnesses_lift_from_the_reductions(reg4):
    # a boundary cone is searched on its reduction: equivalent pulls the
    # perm back through both reductions' index maps, and a map of GL_4(Z)
    # must induce it, in either direction; strong_generators pulls its
    # group back through the one index map, and each perm must be induced
    # by an automorphism
    rng = random.Random(5)
    faces = [o.rep for o in reg4.orbits if 2 <= o.rank < 4]
    assert {c.rank for c in faces} == {2, 3}
    for c in faces:
        for _ in range(2):
            moved = conjugate_cone(c, random_unimodular(4, rng))
            for a, b in ((c, moved), (moved, c)):
                perm = equivalent(a, b)
                assert perm is not None and induces(perm, a, b)
            for perm in strong_generators(moved):
                assert induces(perm, moved, moved)


def test_graphic_searches_form_no_matrix(monkeypatch):
    # the cones of principal_form(3) and principal_form(4) are graphic (K_4
    # and K_5): every basis of their generators has |det| 1, and so has
    # every basis of a face's reduction, so det V = +-1 on each search and
    # realize skips the integrality test; equivalent forms no matrix
    calls = []
    matrix = perfcone.symmetry._matrix

    def counting(*args):
        calls.append(args)
        return matrix(*args)

    monkeypatch.setattr(perfcone.symmetry, "_matrix", counting)
    rng = random.Random(2)
    for g in (3, 4):
        c = cone_of_form(principal_form(g))
        dets = {abs(det_int(list(b))) for b in itertools.combinations(c.generators, g)}
        assert dets == {0, 1}
        faces = [f for fs in face_lattice(c).values() for f in fs if not f.is_zero()]
        assert len(faces) == 2 ** len(c.generators) - 1  # the cone is simplicial
        for f in faces if g == 3 else rng.sample(faces, 60):
            moved = conjugate_cone(f, random_unimodular(g, rng))
            assert equivalent(f, moved) is not None
            assert equivalent(moved, f) is not None
    assert calls == []


def test_zero_cones_are_equivalent_by_the_empty_perm(reg3):
    # () is falsy: locate must still read it as a hit
    zero = PerfectCone(3, [])
    assert equivalent(zero, zero) == ()
    assert equivalent(zero, PerfectCone(3, [(1, 0, 0)])) is None
    orbit, perm = reg3.locate(zero)
    assert (orbit.id, perm) == ("r0d0n0", ())
    assert reg3.add(zero) == (orbit, (), False)


def test_the_fingerprint_rejects_before_any_search(monkeypatch):
    # equivalent compares the fingerprints, which hold the rank, the
    # dimension and the generator count, before any search: faces of one
    # ambient with different dimensions, boundary or not, and a zero cone
    # against a nonzero one are refused without one
    def no_search(*args, **kwargs):
        raise AssertionError("searched two cones with different fingerprints")

    monkeypatch.setattr(perfcone.symmetry, "_full_rank_maps", no_search)
    c = cone_of_form(principal_form(4))
    d4 = cone_of_form(next(q for q in load_bundled_catalog(4) if q.name != "principal_4"))
    faces = [fs[0] for _dim, fs in sorted(face_lattice(c).items())] + [d4]
    assert [f.dim for f in faces] == list(range(11)) + [10]
    assert faces[0].is_zero() and faces[-2] == c
    assert {f.rank for f in faces} == {0, 1, 2, 3, 4}
    for a, b in itertools.combinations(faces, 2):
        assert a.fingerprint != b.fingerprint
        assert equivalent(a, b) is None and equivalent(b, a) is None


def test_automorphism_witnesses_are_unimodular():
    # the matrix a realization's prefix signs give; a source whose det V
    # is +-1 holds no adj V, so it is taken from the prefix columns here
    held = set()
    for c in (COORD2, cone_of_form(principal_form(2)), PerfectCone(2, [(1, 0), (1, 2)])):
        for perm, signs in _full_rank_maps(c, c, group=True):
            src = c._search
            held.add(src.vadj is not None)
            if src.vadj is None:
                v = [[c.generators[i][k] for i in src.order[: c.g]] for k in range(c.g)]
                src = src._replace(vadj=adjugate_det(v)[0])
            a = _matrix(src, c.generators, [(perm[p], s) for p, s in zip(src.order, signs)])
            assert abs(det_int(a)) == 1
            assert is_witness(a, perm, c, c)
    assert held == {False, True}


def test_classify_orbits_of_principal_g2_faces():
    c = cone_of_form(principal_form(2))
    reg = OrbitRegistry(2)
    for fs in face_lattice(c).values():
        for f in fs:
            reg.add(f)
    assert len(reg.orbits) == 4
    dims = sorted(o.dim for o in reg.orbits)
    assert dims == [0, 1, 2, 3]
    for o in reg.orbits:
        assert o.alternating == (o.dim <= 1)


def test_classify_orbits_gl_equals_sl_for_g4_tops(reg4):
    top = [o for o in reg4.orbits if o.rank == 4]
    assert top
    assert all(any(d == -1 for _p, d in stabilizer_group(o.rep)) for o in top)


def test_locate_maps_every_member_to_one_orbit():
    c = cone_of_form(principal_form(3))
    reg = OrbitRegistry(3)
    for fs in face_lattice(c).values():
        for f in fs:
            reg.add(f)
    rng = random.Random(7)
    for o in reg.orbits:
        moved = conjugate_cone(o.rep, random_unimodular(3, rng))
        hit = reg.locate(moved)
        assert hit is not None
        orbit, perm = hit
        assert orbit.id == o.id
        # locate searches from the representative to the cone
        assert induces(perm, orbit.rep, moved)


def test_registry_roundtrip(reg3, reg5):
    for reg in (reg3, reg5, build_registry(4, seed=1), build_registry(5, seed=1)):
        text = format_registry(reg)
        back = parse_registry(text)
        assert len(back.orbits) == len(reg.orbits)
        for a, b in zip(reg.orbits, back.orbits):
            assert a.id == b.id
            assert a.rep == b.rep
            assert a.alternating == b.alternating
            assert a.ref_orientation == b.ref_orientation
            # a span basis is kept only where a facet sign reads it
            if a.alternating and a.dim < len(a.rep.generators):
                assert b.rep._span == (b.ref_orientation, span_coordinates(b.rep, b.ref_orientation))
                assert a.rep._span == b.rep._span
            else:
                assert b.rep._span is None
        assert format_registry(back) == text


def test_registry_ids_number_each_stratum_from_zero(reg5):
    # padded seeds keep their ids and the counters of the smaller
    # registry, so an orbit added later never reuses a seed's id. The
    # forms of e1 and e1 + 2 e2 span an index-2 sublattice, so their cone
    # is a rank-2 orbit that no Voronoi face reaches.
    seeded = build_registry(4, seed=1)
    assert seeded.add(PerfectCone(4, [(1, 0, 0, 0), (1, 2, 0, 0)]))[2]
    for reg in (reg5, seeded):
        assert len(reg.by_id) == len(reg.orbits)
        seqs = {}
        for orbit in reg.orbits:
            prefix, seq = orbit.id.split("n")
            assert prefix == f"r{orbit.rank}d{orbit.dim}"
            seqs.setdefault(prefix, []).append(int(seq))
        for prefix, got in seqs.items():
            assert sorted(got) == list(range(len(got))), prefix


def test_span_coordinates_keep_an_unsorted_orient_order(reg5):
    # a hand-edited orient line may list its basis in any order; the
    # coordinate columns follow that order. Only an alternating orbit that
    # is not simplicial keeps a span basis; the first at g = 5 is r5d15n1
    i, orbit = next(
        (i, o)
        for i, o in enumerate(reg5.orbits)
        if o.alternating and o.dim < len(o.rep.generators)
    )
    ref = orbit.ref_orientation[::-1]
    lines = format_registry(reg5).splitlines()
    at = [j for j, line in enumerate(lines) if line.startswith("orient")][i]
    lines[at] = "orient " + " ".join(map(str, ref))
    ref_kept, coords = parse_registry("\n".join(lines)).by_id[orbit.id].rep.span
    assert ref_kept == ref
    assert coords == span_coordinates(orbit.rep, ref)
    scale = coords[ref[0]][0]
    assert scale > 0
    oracle = span_coordinates_oracle(orbit.rep.generators, ref)
    assert [list(x) for x in coords] == [[scale * y for y in x] for x in oracle]
    # the forms of a non-basis do not give coordinates
    with pytest.raises(ValueError):
        span_coordinates(orbit.rep, ref[1:])
    with pytest.raises(ValueError):
        span_coordinates(orbit.rep, ref[:1] + ref[:-1])


def test_parse_registry_names_a_truncated_block():
    # a cone block without its flags line, then without its orient line;
    # then malformed flags and orient lines, each named by its line. A
    # comment or blank line may stand anywhere in a block
    one = "cone g=1 n=1\n1\n"
    for text in (
        one + "# flags\n\nalt=1 rank=1\norient 0\n",
        one + "alt=1 rank=1\n\n# orient\norient 0\n",
    ):
        assert [o.id for o in parse_registry(text).orbits] == ["r1d1n0"]
    # four forms in the plane of the first two coordinates span only 3 dimensions
    plane = "cone g=3 n=5\n0 0 1\n0 1 0\n1 -1 0\n1 0 0\n1 1 0\nalt=0 rank=3\n"
    for text, where in (
        (one, "line 3:"),
        (one + "alt=1 rank=1\n", "line 4:"),
        (one + "alt=2 rank=1\norient 0\n", "line 3:"),
        (one + "alt=1 rank=5\norient 0\n", "line 3:"),
        (one + "alt=1 rank=x\norient 0\n", "line 3:"),
        (one + "alt=1 rank=1\norient 7\n", "line 4:"),
        (one + "alt=1 rank=1\norient -1\n", "line 4:"),
        (one + "alt=1 rank=1\norient x\n", "line 4:"),
        (one + "alt=1 rank=1\norient\n", "line 4:"),
        (one + "alt=1 rank=1\norient 0 0\n", "line 4:"),
        (plane + "orient 1 2 3 4\n", "line 8:"),
        ("# no orbit\n", "line 2:"),
        # one ambient per registry: a g = 2 cone after a g = 1 orbit
        (one + "alt=1 rank=1\norient 0\ncone g=2 n=1\n1 0\nalt=1 rank=1\norient 0\n", "line 5:"),
    ):
        with pytest.raises(ValueError) as err:
            parse_registry(text)
        assert str(err.value).startswith(where)


def _tops_and_faces(g):
    out = []
    for form in load_bundled_catalog(g):
        top = cone_of_form(form)
        out.append(top)
        n = len(top.generators)
        out.extend(top.subcone(indices(s, n)) for s in facet_index_sets(top))
    return out


POOL34 = _tops_and_faces(3) + _tops_and_faces(4)


def _assert_gram_is_det_t_times_rational_gram(c):
    if c.rank < c.g:
        c = reduce(c)[0]
    rational, det_t = rational_gram_oracle(c.generators)
    assert det_t > 0
    assert [list(row) for row in c.gram] == [[det_t * x for x in row] for row in rational]


def test_gram_is_det_t_times_rational_gram():
    # the g = 3, 4 tops and faces, the bundled g = 5 cones, and D6 and E6
    # with 30 and 36 generators
    big = [_cartan_cone(6, D6_EDGES), _cartan_cone(6, E6_EDGES)]
    assert [len(c.generators) for c in big] == [30, 36]
    for c in POOL34 + [cone_of_form(q) for q in load_bundled_catalog(5)] + big:
        _assert_gram_is_det_t_times_rational_gram(c)


@settings(max_examples=60)
@given(
    st.integers(1, 5).flatmap(
        lambda g: st.lists(st.tuples(*[st.integers(-2, 2)] * g), min_size=g, max_size=g + 6)
    )
)
@example([(1, 0), (0, 1), (1, -1), (1, -2), (2, 1)])
def test_gram_of_full_rank_cones_is_det_t_times_rational_gram(vectors):
    # entries +-2 take the row combination past its +-1 branches
    g = len(vectors[0])
    gens = {sign_normalize(v) for v in vectors if vec_gcd(v) == 1}
    assume(gens)
    c = PerfectCone(g, gens)
    assume(c.rank == g)
    _assert_gram_is_det_t_times_rational_gram(c)


@settings(max_examples=40)
@given(st.integers(0, len(POOL34) - 1), st.integers(0, 10**6))
def test_fingerprint_is_conjugation_invariant(k, seed):
    c = POOL34[k]
    moved = conjugate_cone(c, random_unimodular(c.g, random.Random(seed)))
    reg = OrbitRegistry(c.g)
    assert reg.fingerprint(moved) == reg.fingerprint(c)


def test_stored_fingerprints_are_those_of_the_reps(reg5):
    # add keeps the fingerprint locate took on the cone it was given; a
    # seeded registry's rep is a conjugate of that cone, and a fresh copy
    # of the rep takes its fingerprint from nothing kept
    for reg in (reg5, build_registry(5, seed=1)):
        for o in reg.orbits:
            fresh = PerfectCone(o.rep.g, o.rep.generators)
            assert o.fingerprint == reg.fingerprint(o.rep) == reg.fingerprint(fresh), o.id


def _profiles_from_gram(gram):
    """Per-generator profiles as the equivalence search computed them from
    the Gram matrix for every candidate pair, before the cone kept them."""
    n = len(gram)
    out = []
    for i in range(n):
        off = sorted(abs(gram[i][j]) for j in range(n) if j != i)
        out.append((gram[i][i], tuple(off)))
    return out


def test_profiles_match_the_gram_matrix(reg5):
    cones = POOL34 + [o.rep for o in reg5.orbits if not o.rep.is_zero()]
    for c in cones:
        core = c if c.rank == c.g else reduce(c)[0]
        assert list(core.profiles) == _profiles_from_gram(core.gram)


def test_g5_fingerprints_separate_every_orbit(reg5):
    assert len(reg5.orbits) == 163
    assert len({o.fingerprint for o in reg5.orbits}) == 163
    assert all(len(bucket) == 1 for bucket in reg5._buckets.values())


def _prefix_rank_order(c, cand):
    """The assignment order by definition: rescan the remaining
    generators for the first one that raises the rank of the prefix."""
    remaining = sorted(range(len(c.generators)), key=lambda i: (len(cand[i]), i))
    order = []
    while remaining and len(order) < c.rank:
        pick = next(
            (i for i in remaining
             if rank_oracle([c.generators[j] for j in order + [i]]) > len(order)),
            None,
        )
        if pick is None:
            break
        remaining.remove(pick)
        order.append(pick)
    return order + remaining, len(order)


@settings(max_examples=40)
@given(st.integers(0, len(POOL34) - 1), st.randoms(use_true_random=False))
def test_assignment_order_matches_prefix_rank_definition(k, rnd):
    c = POOL34[k]
    n = len(c.generators)
    cand = [tuple(range(rnd.randint(1, n))) for _ in range(n)]
    order, prefix_len, vadj, vdet = _assignment_order(c, cand)
    assert (order, prefix_len) == _prefix_rank_order(c, cand)
    if prefix_len < c.g:
        assert (vadj, vdet) == (None, 0)
    else:
        # V has the prefix generators as its columns; adj V is formed only
        # when det V != +-1, the one case the search reads it
        vmat = [[c.generators[i][k] for i in order[:prefix_len]] for k in range(c.g)]
        adj, det = adjugate_det(vmat)
        assert vdet == det
        assert (vadj is None) == (abs(vdet) == 1)
        if vadj is not None:
            assert vadj == adj


def test_group_search_leaves_the_order_a_plain_search_takes():
    # the search state is read off the source cone alone: the one a group
    # search leaves on a cone is the one a plain search from it would
    # compute from its candidate lists, the target's profile classes
    rng = random.Random(3)
    cones = POOL34 + [cone_of_form(q) for q in load_bundled_catalog(5)]
    for c in cones:
        if c.rank < c.g:
            c = reduce(c)[0]
        strong_generators(c)
        state = c._search
        assert state is not None
        moved = conjugate_cone(c, random_unimodular(c.g, rng))
        where = {}
        for j, p in enumerate(moved.profiles):
            where.setdefault(p, []).append(j)
        cand = [where[p] for p in c.profiles]
        order, prefix_len, vadj, vdet = _assignment_order(c, cand)
        assert prefix_len == c.g
        assert (state.order, state.vdet) == (tuple(order), vdet)
        assert (state.vadj is None) == (vadj is None) == (abs(vdet) == 1)
        if vadj is not None:
            vmat = [[c.generators[i][k] for i in order[: c.g]] for k in range(c.g)]
            assert state.vadj == tuple(map(tuple, vadj)) == tuple(map(tuple, adjugate_det(vmat)[0]))
        assert equivalent(c, moved) is not None
        assert c._search is state


def test_registry_computes_each_search_state_once(monkeypatch):
    # locate searches from the orbit's representative, so its state serves
    # every cone located against it: no cone object computes it twice
    sources = []
    searches = []
    search_source = perfcone.symmetry._search_source
    full_rank_maps = perfcone.symmetry._full_rank_maps

    def recording_source(c):
        sources.append(c)
        return search_source(c)

    def recording_maps(c1, c2, group=False):
        searches.append(c1)
        return full_rank_maps(c1, c2, group)

    monkeypatch.setattr(perfcone.symmetry, "_search_source", recording_source)
    monkeypatch.setattr(perfcone.symmetry, "_full_rank_maps", recording_maps)
    build_registry(5)
    # the lists keep every cone alive, so their ids are distinct
    assert len({id(c) for c in sources}) == len(sources)
    assert {id(c) for c in sources} == {id(c) for c in searches}
    assert 0 < len(sources) < len(searches)


def test_search_sources_form_adj_v_only_off_unimodular_prefixes(monkeypatch):
    # the search reads adj V only to test integrality, when det V != +-1;
    # g = 5 has six such sources, each with det V = +-2
    dets = []
    adjugates = []
    search_source = perfcone.symmetry._search_source
    adjugate = perfcone.symmetry.adjugate_det

    def recording_source(c):
        state = search_source(c)
        dets.append(state.vdet)
        assert (state.vadj is None) == (abs(state.vdet) == 1)
        return state

    def counting(m):
        adjugates.append(len(m))
        return adjugate(m)

    monkeypatch.setattr(perfcone.symmetry, "_search_source", recording_source)
    monkeypatch.setattr(perfcone.symmetry, "adjugate_det", counting)
    build_registry(5)
    off = [d for d in dets if abs(d) != 1]
    assert len(adjugates) == len(off) == 6
    assert sorted(map(abs, off)) == [2] * 6
    assert len(dets) == 162


def _perm_closure(perms, n):
    out = {tuple(range(n))}
    stack = list(out)
    while stack:
        p = stack.pop()
        for q in perms:
            r = tuple(q[x] for x in p)
            if r not in out:
                out.add(r)
                stack.append(r)
    return out


def _assert_strong_generators(c, group):
    """Sims' definition along the search base b: for every k, the
    generators fixing b_1..b_k generate the whole stabilizer of those rays
    in the group (here the oracle's perms)."""
    n = len(c.generators)
    prof = c.profiles
    cand = [tuple(j for j in range(n) if prof[j] == prof[i]) for i in range(n)]
    order, prefix_len, _adj, _det = _assignment_order(c, cand)
    base = order[:prefix_len]
    gens = strong_generators(c)
    perms = {perm for perm, _d in group}
    for k in range(prefix_len + 1):
        fixed = base[:k]
        stab = {p for p in perms if all(p[b] == b for b in fixed)}
        sub = [p for p in gens if all(p[b] == b for b in fixed)]
        assert _perm_closure(sub, n) == stab, (c, k)


def _spanning_vectors(g, vectors):
    out = []
    for v in vectors:
        if not any(v):
            continue
        lead = next(x for x in v if x)
        v = tuple(v) if lead > 0 else tuple(-x for x in v)
        if v not in out and math.gcd(*v) == 1:
            out.append(v)
    return out if out and rank_oracle(out) == g else None


@settings(max_examples=60)
@given(
    st.integers(2, 4).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(
                st.tuples(*[st.integers(-1, 1)] * g), min_size=g, max_size=7
            ),
        )
    ),
    st.integers(0, 10**6),
)
def test_generator_closure_is_the_whole_group(drawn, seed):
    g, raw = drawn
    vectors = _spanning_vectors(g, raw)
    assume(vectors is not None)
    c = PerfectCone(g, vectors)
    moved = conjugate_cone(c, random_unimodular(g, random.Random(seed)))
    for cone in (c, moved):
        group = automorphism_oracle(cone.generators)
        assert stabilizer_group(cone) == group
        _assert_strong_generators(cone, group)


def test_alternation_and_reflection_match_the_oracle_group(reg2, reg3, reg4):
    regs = [build_registry(1), reg2, reg3, reg4, build_registry(4, seed=1)]
    for o in (o for reg in regs for o in reg.orbits if o.rank == reg.g):
        assert o.alternating == is_alternating(o.rep), o.id
        gens = o.rep.generators
        group = automorphism_oracle(gens)
        assert stabilizer_group(o.rep) == group, o.id
        _assert_strong_generators(o.rep, group)
        signs = orientation_oracle(gens, {perm for perm, _d in group})
        assert 0 not in signs.values()
        assert is_alternating(o.rep) == all(s > 0 for s in signs.values()), o.id
    for o in reg4.orbits:
        if o.rank == 4:
            continue
        # padded representative: the core is the first `rank` coordinates,
        # and flipping the last coordinate fixes every generator
        assert o.alternating == is_alternating(o.rep), o.id
        gens = o.rep.generators
        assert all(not any(v[o.rank:]) for v in gens)
        assert is_witness(*_flip_last(o.rep), o.rep, o.rep)
        if o.rank == 0:
            assert is_alternating(o.rep)
            continue
        core = [v[: o.rank] for v in gens]
        group = automorphism_oracle(core)
        signs = orientation_oracle(core, {perm for perm, _d in group})
        assert is_alternating(o.rep) == all(s > 0 for s in signs.values()), o.id


def test_g5_catalog_automorphism_group_orders():
    orders = {}
    for q in load_bundled_catalog(5):
        c = cone_of_form(q)
        orders[q.name] = len(_perm_closure(strong_generators(c), len(c.generators)))
    assert orders == {"principal_5": 720, "d5": 1920, "a5_3": 720}


def test_strong_generators_are_automorphisms():
    for c in POOL34:
        if c.rank < c.g:
            c = reduce(c)[0]
        gens = strong_generators(c)
        assert gens
        for perm in gens:
            assert induces(perm, c, c)


def test_seeded_g5_witnesses_and_strong_generators_pass_check(monkeypatch):
    # the search reads each image off the Gram rows and forms no matrix;
    # the induces oracle finds one, so it checks every perm located, added
    # and found by the search independently, in the direction locate and
    # add return it, from the orbit's rep to the cone. An add that creates
    # an orbit under a seed returns the perm of h^-1, h the conjugation
    # onto the new rep, which the facet records read.
    located = []
    added = []
    searched = []
    locate = OrbitRegistry.locate
    add = OrbitRegistry.add
    full_rank_maps = perfcone.symmetry._full_rank_maps

    def recording_locate(self, c):
        loc = locate(self, c)
        if loc is not None:
            located.append((c, *loc))
        return loc

    def recording_add(self, c, rng=None):
        result = add(self, c, rng)
        added.append((c, *result))
        return result

    def recording_maps(c1, c2, group=False):
        found = full_rank_maps(c1, c2, group)
        searched.extend((perm, c1, c2, group) for perm, _s in found)
        return found

    monkeypatch.setattr(OrbitRegistry, "locate", recording_locate)
    monkeypatch.setattr(OrbitRegistry, "add", recording_add)
    monkeypatch.setattr(perfcone.symmetry, "_full_rank_maps", recording_maps)
    reg = build_registry(5, seed=1)
    # 410 classified faces and catalog cones at ambients 1..5: 409 located
    # and one looked up as a representative, which takes the identity as
    # its witness: the empty facet of the ray of ambient 1, the zero
    # orbit's rep. The seed's conjugations give no other facet a rep's
    # generators. 409 equivalence witnesses and 766 strong generators
    # found by the search, on full-rank cones or cores
    hits = []
    for orbit in reg.orbits:
        gens = orbit.rep.generators
        for mask, tid, _eta in orbit.facets:
            face = orbit.rep.subcone(indices(mask, len(gens)))
            if face.generators == reg.by_id[tid].rep.generators:
                hits.append((orbit.id, face, reg.by_id[tid]))
    assert [(oid, target.id) for oid, _face, target in hits] == [("r1d1n0", "r0d0n0")]
    for _oid, face, target in hits:
        assert induces(tuple(range(len(face.generators))), target.rep, face)
    assert len(located) == 409
    assert sum(not group for *_w, group in searched) == 409
    assert sum(group for *_w, group in searched) == 766
    created = [(c, orbit) for c, orbit, _t, new in added if new]
    assert (len(added), len(created)) == (544, 162)
    # every conjugation moves its cone but that of the ray of ambient 1,
    # whose only unimodular matrices are +-1
    assert sum(orbit.rep != c for c, orbit in created) == 161
    for c, orbit, perm in located:
        assert induces(perm, orbit.rep, c)
    for c, orbit, perm, _new in added:
        assert induces(perm, orbit.rep, c)
    for perm, c1, c2, _group in searched:
        assert induces(perm, c1, c2)


@pytest.mark.parametrize(
    "vectors",
    [
        # an integral isometry extends a prefix assignment, yet sends a
        # generator off the cone: only the Gram-row image check rejects it
        [(1, -1), (1, 1), (1, 2), (2, -1)],
        # the generators span a sublattice of index 2, and rational maps
        # permute them: only the integrality check rejects those
        [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)],
    ],
)
def test_search_rejects_maps_that_are_not_cone_automorphisms(vectors):
    c = PerfectCone(len(vectors[0]), vectors)
    for perm in strong_generators(c):
        assert induces(perm, c, c)
    _assert_strong_generators(c, automorphism_oracle(c.generators))


def test_equivalence_witnesses_are_unimodular():
    # the search takes no determinant of a witness: equal profiles and
    # equal signed prefix Gram matrices give |det A| = 1
    forms = load_bundled_catalog(5)
    catalog = [cone_of_form(q) for q in forms]
    rng = random.Random(5)
    found = 0
    for q in forms:
        sigma = cone_of_form(q)
        for s in facet_index_sets(sigma)[::20]:
            nb = cone_of_form(voronoi_neighbor(q, Face(sigma, s)))
            nb = conjugate_cone(nb, random_unimodular(5, rng))
            c, perm = next((c, p) for c in catalog if (p := equivalent(nb, c)) is not None)
            assert induces(perm, nb, c)
            found += 1
    assert found == 22  # one facet each of principal_5 and a5_3, 20 of d5


def test_located_witnesses_are_unimodular(monkeypatch):
    witnesses = []
    locate = OrbitRegistry.locate

    def recording(self, c):
        loc = locate(self, c)
        if loc is not None:
            witnesses.append((c, *loc))
        return loc

    monkeypatch.setattr(OrbitRegistry, "locate", recording)
    build_registry(4)
    assert len(witnesses) > 20
    for c, orbit, perm in witnesses:
        assert induces(perm, orbit.rep, c)


def test_package_keeps_no_module_level_cache():
    # derived values live on the cone or orbit they describe, so nothing
    # outlives the registry that holds them
    for path in sorted(Path(perfcone.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "lru_cache" not in text and "functools" not in text, path.name


def test_kernels_leave_no_reference_cycles():
    # the recursive closures of minimal_vectors and _full_rank_maps are
    # deleted after their last call, so a call leaves nothing for the
    # cyclic collector
    gc.collect()
    gc.disable()
    try:
        minimal_vectors(principal_form(5))
        a, _d5, b = (cone_of_form(q) for q in load_bundled_catalog(5))
        assert equivalent(a, b) is None
        assert equivalent(a, conjugate_cone(a, random_unimodular(5, random.Random(0)))) is not None
        strong_generators(b)
        facet_index_sets(b)
        assert gc.collect() == 0
    finally:
        gc.enable()
