import gc
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import perfcone
from perfcone.complexes import build_registry
from perfcone.cone import Face, PerfectCone, facet_index_sets, indices, reduce
from perfcone.intlinalg import adjugate_det, det_int, mat_mul
from perfcone.matroid import complete_graph, graphic_cone
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
    conjugate_cone,
    equivalent,
    format_registry,
    is_alternating,
    parse_registry,
    random_unimodular,
    span_coordinates,
    strong_generators,
)

from oracles import (
    automorphism_oracle,
    is_witness,
    orientation_oracle,
    rank_oracle,
    rational_gram_oracle,
    span_coordinates_oracle,
)
from test_cone import face_lattice

COORD2 = PerfectCone(2, [(1, 0), (0, 1)])


def stabilizer_group(c):
    """(perm, det A) of every A in the GL_g(Z) stabilizer of a full-rank
    cone: the closure of the strong generators' pairs, with -I as
    (identity, (-1)^g)."""
    ident = tuple(range(len(c.generators)))
    gens = [(perm, det_int(a)) for a, perm in _full_rank_maps(c, c, group=True)]
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
        t = equivalent(c, c)
        assert t is not None
        assert is_witness(*t, c, c)
        assert t[1] == tuple(range(len(c.generators)))


def test_faces_of_principal_g2_pairwise_equivalent():
    c = cone_of_form(principal_form(2))
    two_dim = face_lattice(c)[2]
    assert len(two_dim) == 3
    for a in two_dim:
        for b in two_dim:
            t = equivalent(a, b)
            assert t is not None and is_witness(*t, a, b)


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
    t = equivalent(c1, c2)
    assert t is not None and is_witness(*t, c1, c2)
    a, perm = t
    swapped = list(perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not is_witness(a, tuple(swapped), c1, c2)
    doubled = tuple(tuple(2 * x for x in row) for row in a)
    assert not is_witness(doubled, perm, c1, c2)
    smaller = c2.subcone(range(len(c2.generators) - 1))
    assert not is_witness(a, perm, c1, smaller)
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
    t12 = equivalent(c1, c2)
    t21 = equivalent(c2, c1)
    assert t12 is not None and is_witness(*t12, c1, c2)
    assert t21 is not None and is_witness(*t21, c2, c1)


def test_automorphism_group_of_principal_g3():
    c = cone_of_form(principal_form(3))
    group = stabilizer_group(c)
    assert len({perm for perm, _d in group}) == 24
    for a, perm in _full_rank_maps(c, c, group=True):
        assert is_witness(a, perm, c, c)


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


def test_orientation_sign_is_homomorphism():
    # what lets the registry read alternation off the strong generators
    c = cone_of_form(principal_form(2))
    gens = _full_rank_maps(c, c, group=True)
    for a, p in gens:
        for b, q in gens:
            assert is_witness(mat_mul(b, a), tuple(q[x] for x in p), c, c)
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


def test_automorphism_witnesses_are_unimodular():
    for c in (COORD2, cone_of_form(principal_form(2))):
        for a, _perm in _full_rank_maps(c, c, group=True):
            assert abs(det_int([list(r) for r in a])) == 1


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
        orbit, (a, perm) = hit
        assert orbit.id == o.id
        # locate searches from the representative to the cone
        assert is_witness(a, perm, orbit.rep, moved)


def test_registry_roundtrip(reg3, reg5):
    for reg in (reg3, reg5, build_registry(4, seed=1)):
        text = format_registry(reg)
        back = parse_registry(text)
        assert len(back.orbits) == len(reg.orbits)
        for a, b in zip(reg.orbits, back.orbits):
            assert a.id == b.id
            assert a.rep == b.rep
            assert a.alternating == b.alternating
            assert a.ref_orientation == b.ref_orientation
            assert a.coords == b.coords
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


def test_span_coordinates_keep_an_unsorted_orient_order(reg4):
    # a hand-edited orient line may list its basis in any order; the
    # coordinate columns follow that order
    i, orbit = next((i, o) for i, o in enumerate(reg4.orbits) if o.alternating and o.dim >= 3)
    ref = orbit.ref_orientation[::-1]
    lines = format_registry(reg4).splitlines()
    at = [j for j, line in enumerate(lines) if line.startswith("orient")][i]
    lines[at] = "orient " + " ".join(map(str, ref))
    coords = parse_registry("\n".join(lines)).by_id[orbit.id].coords
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
    # then malformed flags and orient lines, each named by its line
    one = "cone g=1 n=1\n1\n"
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
    ):
        with pytest.raises(ValueError) as err:
            parse_registry(text)
        assert str(err.value).startswith(where)


def _tops_and_faces(g):
    out = []
    for form in load_bundled_catalog(g):
        top = cone_of_form(form)
        out.append(top)
        out.extend(top.subcone(indices(s)) for s in facet_index_sets(top))
    return out


POOL34 = _tops_and_faces(3) + _tops_and_faces(4)


def test_gram_is_det_t_times_rational_gram():
    for c in POOL34:
        if c.rank < c.g:
            c = reduce(c)[0]
        rational, det_t = rational_gram_oracle(c.generators)
        assert det_t > 0
        assert [list(row) for row in c.gram] == [[det_t * x for x in row] for row in rational]


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
        # V has the prefix generators as its columns
        vmat = [[c.generators[i][k] for i in order[:prefix_len]] for k in range(c.g)]
        assert (vadj, vdet) == adjugate_det(vmat)


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
        assert (state.order, state.vadj, state.vdet) == (tuple(order), tuple(map(tuple, vadj)), vdet)
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
    gens = [perm for _a, perm in _full_rank_maps(c, c, group=True)]
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
        gens = _full_rank_maps(c, c, group=True)
        assert gens
        for a, perm in gens:
            assert is_witness(a, perm, c, c)


def test_seeded_g5_witnesses_and_strong_generators_pass_check(monkeypatch):
    # the search reads each image off the Gram rows and never applies its
    # matrix to a generator; the is_witness oracle does, so it checks every
    # witness and strong generator independently, in the direction locate
    # and add return it, from the orbit's rep to the cone. An add that
    # creates an orbit under a seed returns h^-1, h the conjugation onto
    # the new rep, whose perm the facet records read.
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
        searched.extend((a, perm, c1, c2, group) for a, perm in found)
        return found

    monkeypatch.setattr(OrbitRegistry, "locate", recording_locate)
    monkeypatch.setattr(OrbitRegistry, "add", recording_add)
    monkeypatch.setattr(perfcone.symmetry, "_full_rank_maps", recording_maps)
    build_registry(5, seed=1)
    # 410 located cones at ambients 1..5; 409 equivalence witnesses and 766
    # strong generators found by the search, on full-rank cones or cores
    assert len(located) == 410
    assert sum(not group for *_w, group in searched) == 409
    assert sum(group for *_w, group in searched) == 766
    created = [(c, orbit) for c, orbit, _t, new in added if new]
    assert (len(added), len(created)) == (544, 162)
    # every conjugation moves its cone but that of the ray of ambient 1,
    # whose only unimodular matrices are +-1
    assert sum(orbit.rep != c for c, orbit in created) == 161
    for c, orbit, (a, perm) in located:
        assert is_witness(a, perm, orbit.rep, c)
    for c, orbit, (a, perm), _new in added:
        assert is_witness(a, perm, orbit.rep, c)
    for a, perm, c1, c2, _group in searched:
        assert is_witness(a, perm, c1, c2)


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
    for a, perm in _full_rank_maps(c, c, group=True):
        assert is_witness(a, perm, c, c)
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
            c, (a, perm) = next((c, t) for c in catalog if (t := equivalent(nb, c)) is not None)
            assert is_witness(a, perm, nb, c)
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
    for c, orbit, (a, perm) in witnesses:
        assert is_witness(a, perm, orbit.rep, c)


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
        assert equivalent(a, conjugate_cone(a, random_unimodular(5, random.Random(0))))
        strong_generators(b)
        facet_index_sets(b)
        assert gc.collect() == 0
    finally:
        gc.enable()
