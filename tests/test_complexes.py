import hashlib
import math
from collections import Counter
from dataclasses import replace

import pytest

import perfcone.complexes
import perfcone.cone
import perfcone.symmetry
from perfcone.complexes import (
    BUILDERS,
    _build_by_predicate,
    _facet_sign,
    _record_facets,
    annotate_coloops,
    annotate_matroidal,
    build_inflation_complex,
    build_matroid_complexes,
    build_perfect_complex,
    build_registry,
    build_voronoi_complex,
    exact_triple,
    format_complex,
    parse_complex,
)
from perfcone.cone import (
    PerfectCone,
    face_mask,
    facet_index_sets,
    indices,
    reduce,
    span_basis,
    spanning_subset,
)
from perfcone.homology import betti, verify_complex
from perfcone.intlinalg import det_sign, flatten_rank1, perm_sign, rank_rows
from perfcone.matroid import graphic_cone, is_matroidal
from perfcone.quadform import cone_of_form, load_bundled_catalog, principal_form
from perfcone.symmetry import (
    OrbitRegistry,
    format_registry,
    parse_registry,
    span_coordinates,
    strong_generators,
)

from oracles import (
    boundary_matrix,
    complete_edges,
    det_oracle,
    induces,
    m_star_k33,
    simple_graphs_oracle,
    span_coordinates_oracle,
    tu_cone,
    unimodular_oracle,
)

# SHA-256 of `perfcone orbits --g N` and `perfcone complex --g N --kind K`
# output, recorded before the symmetry layer went integer-only; faster
# arithmetic must leave every byte of them unchanged.
OUTPUT_SHA256 = {
    4: {
        "registry": "e0bad2869824084f72cf58d6b313fd32a8bc1038602c5b6b37f91502dd16b8c8",
        "P": "83ea889bd7f9aa61a4753f516a5531fd9db86a190bc7c85b27f4cc16261a8ba3",
        "V": "ebd5540c62c033d2f08b4d95b7f9cdd92d4656ea93ab2482c4a2bd791a05b9ca",
        "I": "a41dad4fe62c0a8acf8d9f38a26ec9e26bf5f3559b3a058f025ce0343dda40a4",
        "R": "ad0b88f432a16d6954a598e1590fd4879ecb2c6ba05cce711b1e988ef5774127",
        "C": "bb34d075f49da1e0057274af2199359994bc1405baacf1089c8fcf32792f9b2d",
    },
    5: {
        "registry": "ed7eab293df0e0f95d2002213380b6be00ecc27992bda6b699cb57906b4b59df",
        "P": "91edcf61cd8eac8f4fd5132b5b4fdcf9e5a76f3d35d07d1bb9a9a3a48b2e592c",
        "V": "8d4bfe2a1b271847feabde028e799de0e7b2e894c4a0246e685bafc22c9c44ad",
        "I": "ca2cba06582d35d6956df48007e2ed13ebe306ba85b8fc2d248f5de9a4d4eee7",
        "R": "d4094176de59bce16a043478e177efaacf1dd20e652790429823c7779d2e41f1",
        "C": "8d0353e5d357302113af6ae67550316f40b530d0dc6882fcaaa41bc9688ef8aa",
    },
}

NINE_GRAPHS = {
    "empty": (),
    "edge": ((0, 1),),
    "path2": ((0, 1), (1, 2)),
    "path3": ((0, 1), (1, 2), (2, 3)),
    "triangle": ((0, 1), (0, 2), (1, 2)),
    "paw": ((0, 1), (0, 2), (1, 2), (2, 3)),
    "square": ((0, 1), (1, 2), (2, 3), (0, 3)),
    "diamond": ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)),
    "k4": complete_edges(4),
}


def test_registry_g2_orbits(reg2):
    assert len(reg2.orbits) == 4
    assert sorted(o.dim for o in reg2.orbits) == [0, 1, 2, 3]
    flags = {o.dim: o.alternating for o in reg2.orbits}
    assert flags == {0: True, 1: True, 2: False, 3: False}


def test_registry_g3_matches_nine_graphs(reg3):
    assert len(reg3.orbits) == 9
    hits = {}
    for name, edges in NINE_GRAPHS.items():
        located = reg3.locate(graphic_cone(4, edges))
        assert located is not None, name
        hits[name] = located[0].id
    assert len(set(hits.values())) == 9
    assert set(hits.values()) == {o.id for o in reg3.orbits}


def test_registry_facet_records_are_consistent(reg3):
    ids = {o.id for o in reg3.orbits}
    for orbit in reg3.orbits:
        n = len(orbit.rep.generators)
        for mask, target_id, eta in orbit.facets:
            assert target_id in ids
            assert 0 <= mask < 1 << n
            target = reg3.by_id[target_id]
            assert len(indices(mask, n)) == len(target.rep.generators)
            assert eta in ((-1, 1) if orbit.alternating and target.alternating else (0,))


def _fresh_eta(orbit, idx, target, perm):
    """The facet sign of rep.subcone(idx) under a witness with ray
    permutation perm, from span coordinates computed afresh.
    The witness runs from target.rep to the face, as locate returns it:
    generator r of target.rep goes to generator perm[r] of the face."""
    rep = orbit.rep
    xs = span_coordinates(rep, orbit.ref_orientation)
    u = min(i for i in range(len(rep.generators)) if i not in idx)
    local_span = spanning_subset(rep.subcone(idx))
    rows = [xs[u]] + [xs[idx[b]] for b in local_span]
    xt = span_coordinates(target.rep, target.ref_orientation)
    back = {b: r for r, b in enumerate(perm)}
    rows_t = [xt[back[b]] for b in local_span]
    return det_sign(rows) * (det_sign(rows_t) if rows_t else 1)


def test_facet_records_map_faces_onto_their_targets(reg4, reg5):
    """Located and transported records alike: a fresh locate of the face
    finds the recorded target, and the stored eta is the sign taken on
    the fresh witness (0 unless both orbits are alternating)."""
    for reg in (
        reg4,
        reg5,
        build_registry(4, seed=1),
        build_registry(4, seed=2),
        build_registry(5, seed=1),
    ):
        for orbit in reg.orbits:
            for mask, tid, eta in orbit.facets:
                idx = indices(mask, len(orbit.rep.generators))
                target, perm = reg.locate(orbit.rep.subcone(idx))
                assert target.id == tid
                if orbit.alternating and target.alternating:
                    assert eta == _fresh_eta(orbit, idx, target, perm), (orbit.id, idx)
                else:
                    assert eta == 0


# An alternating cone of ambient 3, its facet of 6 generators in
# dimension 5 (generators 0, 2, 3, 4, 5 and 6), and a conjugate of that
# facet, whose orbit is alternating, as the target's representative.
# Facet signs read the witness from the target's representative to the
# face; on this facet the inverse reading gives the opposite sign for
# every witness. No facet of the bundled g <= 5 cones separates the two:
# the only non-simplicial facets of alternating orbits there, D5's, have
# a non-alternating orbit, and on a simplicial facet both readings take
# the determinant of one row set, permuted with one parity.
DIRECTION_CONE = PerfectCone(
    3, [(0, 1, -1), (0, 1, 0), (1, -1, 1), (1, 0, -1), (1, 0, 0), (1, 1, -1), (1, 1, 1)]
)
DIRECTION_FACET = [0, 2, 3, 4, 5, 6]
DIRECTION_TARGET = PerfectCone(
    3, [(0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1), (1, 1, -1), (2, 1, 1)]
)


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


def test_facet_sign_reads_the_witness_from_the_target_to_the_face():
    reg = OrbitRegistry(3)
    orbit = reg.add(DIRECTION_CONE)[0]
    target = reg.add(DIRECTION_TARGET)[0]
    assert orbit.alternating and target.alternating
    s = DIRECTION_FACET
    face = orbit.rep.facet(s)
    assert face.dim == 5
    located, perm = reg.locate(face)
    assert located is target
    # eta by its definition, in coordinates computed afresh: a generator
    # off the facet, then the images A v_r of the target's reference
    # basis, A a matrix the oracle finds for perm
    a = induces(perm, target.rep, face)[0]
    images = [
        tuple(sum(x * y for x, y in zip(row, target.rep.generators[r])) for row in a)
        for r in target.ref_orientation
    ]
    coords = span_coordinates_oracle(list(orbit.rep.generators) + images, orbit.ref_orientation)
    n = len(orbit.rep.generators)
    u = min(i for i in range(n) if i not in s)
    rows = [coords[u]] + coords[n:]
    scaled = [[x * math.lcm(*(y.denominator for y in row)) for x in row] for row in rows]
    expected = det_oracle([[int(x) for x in row] for row in scaled])
    expected = (expected > 0) - (expected < 0)
    assert expected != 0
    for sigma in _perm_closure(strong_generators(target.rep), len(perm)):
        witness = tuple(perm[sigma[r]] for r in range(len(perm)))
        inverse = tuple(sorted(range(len(perm)), key=witness.__getitem__))
        assert _facet_sign(orbit, s, target, witness) == expected
        assert _facet_sign(orbit, s, target, inverse) == -expected


def _determinant_sign(orbit, s, target, perm):
    """_facet_sign as one determinant on span coordinates taken afresh,
    in the places of orbit.ref_orientation, for any orbit."""
    xs = span_coordinates(orbit.rep, orbit.ref_orientation)
    u = min(i for i in range(len(orbit.rep.generators)) if i not in s)
    return det_sign([xs[u]] + [xs[s[perm[r]]] for r in target.ref_orientation])


def _simplicial_signed_facets(reg):
    """(orbit, s, target, perm, eta) for every facet record of a simplicial
    alternating orbit onto an alternating target, perm from a fresh
    locate of the face."""
    for orbit in reg.orbits:
        if orbit.alternating and orbit.dim == len(orbit.rep.generators):
            for mask, tid, eta in orbit.facets:
                target = reg.by_id[tid]
                if target.alternating:
                    s = indices(mask, len(orbit.rep.generators))
                    located, perm = reg.locate(orbit.rep.facet(s))
                    assert located is target
                    yield orbit, s, target, perm, eta


def test_simplicial_facet_signs_are_the_determinant(reg5):
    # a simplicial orbit keeps no span basis and signs its facets by a
    # parity; every ambient up to 5 is padded into reg5
    checked = 0
    for reg in (reg5, build_registry(5, seed=1)):
        for orbit, s, target, perm, eta in _simplicial_signed_facets(reg):
            assert orbit.rep._span is None
            assert eta == _determinant_sign(orbit, s, target, perm) != 0, orbit.id
            checked += 1
    assert checked > 0


def test_simplicial_facet_sign_reads_the_orient_order(reg5):
    # a hand-edited orient line may list a simplicial basis in any order:
    # reordering the source's basis, or the target's, by a permutation
    # multiplies eta by its parity
    orbit, s, target, perm, eta = next(
        f for f in _simplicial_signed_facets(reg5) if len(f[1]) >= 4
    )
    n = len(orbit.rep.generators)
    for order in (
        (1, 0) + tuple(range(2, n)),
        tuple(range(1, n)) + (0,),
        tuple(range(n))[::-1],
    ):
        moved = replace(orbit, ref_orientation=tuple(orbit.ref_orientation[k] for k in order))
        got = _facet_sign(moved, s, target, perm)
        assert got == _determinant_sign(moved, s, target, perm) == eta * perm_sign(order)
    ref = target.ref_orientation
    flipped = replace(target, ref_orientation=(ref[1], ref[0]) + ref[2:])
    assert _facet_sign(orbit, s, flipped, perm) == -eta


def _facet_orbits(orbit):
    """One record per orbit of the recorded facets under the stored
    strong generators."""
    n = len(orbit.rep.generators)
    seen = set()
    firsts = []
    for record in orbit.facets:
        mask = record[0]
        if mask in seen:
            continue
        firsts.append(record)
        seen.add(mask)
        stack = [mask]
        while stack:
            x = stack.pop()
            for p in orbit.aut_gens:
                y = face_mask([p[i] for i in indices(x, n)], n)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return firsts


def _is_rep(reg, orbit, mask, tid):
    """Whether the facet mask of orbit's rep has exactly the generators
    of the representative of the orbit tid."""
    gens = orbit.rep.generators
    face = tuple(gens[i] for i in indices(mask, len(gens)))
    return face == reg.by_id[tid].rep.generators


def test_registry_locates_once_per_facet_orbit(monkeypatch):
    calls = Counter()
    locate = OrbitRegistry.locate
    facet_sign = perfcone.complexes._facet_sign

    def counting(self, c):
        calls["locate"] += 1
        return locate(self, c)

    def counting_sign(*args):
        calls["sign"] += 1
        return facet_sign(*args)

    monkeypatch.setattr(OrbitRegistry, "locate", counting)
    monkeypatch.setattr(perfcone.complexes, "_facet_sign", counting_sign)
    reg = build_registry(5)
    # one classification per catalog cone (a locate inside add) at each
    # ambient 1..5, and one per facet orbit of every orbit the walk
    # created: the first member is looked up by its generators when it is
    # a representative, and located otherwise; one sign per facet orbit
    # whose orbit and target are both alternating
    assert all(o.aut_gens is not None for o in reg.orbits if o.facets)
    tops = sum(len(load_bundled_catalog(h)) for h in range(1, 6))
    firsts = [(o, m, tid) for o in reg.orbits for m, tid, _e in _facet_orbits(o)]
    # unseeded, a face that add makes an orbit of is its rep; every orbit
    # but the zero orbit and one per catalog cone was made so
    made = len(reg.orbits) - 1 - tops
    hits = sum(_is_rep(reg, o, m, tid) for o, m, tid in firsts) - made
    assert (calls["locate"], hits) == (497, 75)
    assert calls["locate"] + hits - tops == len(firsts)
    signed = sum(o.alternating and reg.by_id[tid].alternating for o, _m, tid in firsts)
    assert 0 < calls["sign"] == signed


def test_representative_lookup_keeps_every_facet_record(reg5, reg6_principal, monkeypatch):
    # a facet that is a representative takes the identity witness, where a
    # search may have found another; on an alternating target the two
    # differ by an automorphism that keeps its orientation, so eta is the
    # same. At g <= 5 one such facet reads a sign, on principal g = 6
    # 16 do (a sign read on a face that locate finds to be its target's
    # rep): the g = 6 records, rebuilt with the index emptied, so that
    # every facet is located, must be those of the fixture
    insert = OrbitRegistry._insert
    locate = OrbitRegistry.locate
    facet_sign = perfcone.complexes._facet_sign
    reps = set()
    signed = Counter()

    def unindexed(self, orbit):
        insert(self, orbit)
        del self.by_generators[orbit.rep.generators]

    def recording_locate(self, c):
        loc = locate(self, c)
        if loc is not None and loc[0].rep.generators == c.generators:
            reps.add(c.generators)
        return loc

    def recording_sign(orbit, s, target, perm):
        signed[tuple(orbit.rep.generators[i] for i in s) in reps] += 1
        return facet_sign(orbit, s, target, perm)

    monkeypatch.setattr(OrbitRegistry, "_insert", unindexed)
    monkeypatch.setattr(OrbitRegistry, "locate", recording_locate)
    monkeypatch.setattr(perfcone.complexes, "_facet_sign", recording_sign)

    def catalog(k):
        return [principal_form(6)] if k == 6 else load_bundled_catalog(k)

    reg = build_registry(6, catalog, prev=reg5)
    assert not reg.by_generators
    assert signed[True] == 16
    assert [(o.id, o.facets) for o in reg.orbits] == [
        (o.id, o.facets) for o in reg6_principal.orbits
    ]


def test_representative_facets_are_classified_without_a_search(monkeypatch):
    # the first member of a facet orbit that is a representative is
    # looked up by its generators: no facet cone, locate, add or search is
    # made, and its record is the one the build gave it. Rerun on every
    # orbit of g = 5, where a facet that made an orbit is now its rep too
    reg = build_registry(5)
    for o in reg.orbits:
        assert reg.by_generators[o.rep.generators] is o
    assert parse_registry(format_registry(reg)).by_generators.keys() == reg.by_generators.keys()
    firsts = {}
    for o in reg.orbits:
        masks = [m for m, tid, _e in _facet_orbits(o) if _is_rep(reg, o, m, tid)]
        if masks:
            firsts[o.id] = masks

    def refuse(*args, **kwargs):
        raise AssertionError("a representative facet was searched for")

    monkeypatch.setattr(perfcone.symmetry, "_full_rank_maps", refuse)
    monkeypatch.setattr(OrbitRegistry, "locate", refuse)
    monkeypatch.setattr(OrbitRegistry, "add", refuse)
    monkeypatch.setattr(PerfectCone, "facet", refuse)
    # the 75 that the build looked up, and the 154 that made an orbit
    assert sum(map(len, firsts.values())) == 229
    for oid, masks in firsts.items():
        o = reg.by_id[oid]
        monkeypatch.setattr(perfcone.complexes, "facet_index_sets", lambda _c: list(masks))
        rerun = replace(o, facets=[])
        queue = []
        _record_facets(reg, rerun, None, queue)
        assert queue == []
        assert rerun.facets == [r for r in o.facets if r[0] in masks], oid


def test_registry_requests_every_catalog_before_classifying(monkeypatch):
    # a catalog that cannot be read fails the build before any cone of a
    # lower ambient is classified
    requests = []
    classified = []

    def catalog_for(k):
        requests.append(k)
        if k == 4:
            raise ValueError("no catalog for ambient 4")
        return load_bundled_catalog(k)

    add = OrbitRegistry.add

    def recording(self, c, rng=None):
        classified.append(c.g)
        return add(self, c, rng)

    monkeypatch.setattr(OrbitRegistry, "add", recording)
    with pytest.raises(ValueError, match="no catalog for ambient 4"):
        build_registry(4, catalog_for)
    assert requests == [1, 2, 3, 4]
    assert classified == []


def test_registry_built_on_prev_is_the_same(reg3, reg4):
    reg = build_registry(4, prev=reg3)
    assert format_registry(reg) == format_registry(reg4)
    assert [o.facets for o in reg.orbits] == [o.facets for o in reg4.orbits]
    with pytest.raises(ValueError, match="ambient 3, not 4"):
        build_registry(5, prev=reg3)


def test_registry_builds_share_no_derived_data(monkeypatch):
    # Gram matrices, reductions and span coordinates are kept on the cones
    # and orbits of one registry, so a second build in the same process
    # eliminates exactly as much as the first: as many Gram eliminations
    # (the one Echelon of cone.py, in PerfectCone.gram), and as many
    # eliminations of the search (one per search source, in
    # _assignment_order)
    calls = Counter()

    class CountingEchelon(perfcone.cone.Echelon):
        def __init__(self):
            calls["gram"] += 1
            super().__init__()

    monkeypatch.setattr(perfcone.cone, "Echelon", CountingEchelon)
    search = perfcone.symmetry._assignment_order

    def counting_search(*args):
        calls["_assignment_order"] += 1
        return search(*args)

    monkeypatch.setattr(perfcone.symmetry, "_assignment_order", counting_search)
    build_registry(4)
    first = dict(calls)
    calls.clear()
    build_registry(4)
    assert first["gram"] > 0 and first["_assignment_order"] > 0
    assert dict(calls) == first


def test_padded_seeds_inherit_their_fingerprint(reg5):
    # pad hands the rank, dimension and fingerprint over without the
    # constructor's checks; a fresh cone on the same generators takes
    # them from nothing kept
    assert any(o.rank < reg5.g for o in reg5.orbits)
    for o in reg5.orbits:
        fresh = PerfectCone(reg5.g, o.rep.generators)
        assert o.rep == fresh
        assert (o.rank, o.dim, o.fingerprint) == (fresh.rank, fresh.dim, fresh.fingerprint), o.id


def test_padded_seeds_keep_their_span(reg5, reg6_principal):
    # the g = 6 seeds of the g = 5 alternating orbits that are not
    # simplicial read their facet signs in the basis their g = 5
    # representative keeps; pad hands it over, and padding moves no span
    # coordinate, so it is the basis of the padded cone
    kept = [o for o in reg5.orbits if o.alternating and o.dim < len(o.rep.generators)]
    assert kept
    for o in kept:
        seed = reg6_principal.by_id[o.id].rep
        assert seed._span is o.rep._span is not None
        assert span_basis(PerfectCone(6, seed.generators)) == o.rep.span, o.id


def test_padded_seeds_share_their_core(reg4):
    # every seed of the g = 5 registry searches on the core of the g = 4
    # orbit it pads, and is never reduced itself
    reg5 = build_registry(5, prev=reg4)
    for o in reg4.orbits:
        assert reduce(reg5.by_id[o.id].rep)[0] is reduce(o.rep)[0], o.id


@pytest.mark.parametrize("name", ["reg2", "reg3", "reg4", "reg5"])
def test_facet_cones_take_their_dimension_from_the_parent(name, request):
    # _record_facets locates rep.facet(s), whose dimension is set to
    # rep.dim - 1 without an elimination, and whose Gram matrix and rank
    # come from a full-rank rep's Gram matrix: recompute them fresh
    reg = request.getfixturevalue(name)
    count = derived = 0
    for orbit in reg.orbits:
        rep = orbit.rep
        if rep.rank == rep.g:
            rep.gram
        for s in facet_index_sets(rep):
            face = rep.facet(indices(s, len(rep.generators)))
            assert face.dim == rep.dim - 1
            assert rank_rows([flatten_rank1(v) for v in face.generators]) == rep.dim - 1
            if rep.rank == rep.g:
                fresh = PerfectCone(rep.g, face.generators)
                full = fresh.rank == rep.g
                assert face._rank == (rep.g if full else None)
                assert face._gram == (fresh.gram if full else None)
                derived += full
            count += 1
    assert count == sum(len(o.facets) for o in reg.orbits) > 0
    assert derived > 0


def test_orbits_keep_their_span_coordinates():
    # kept on the representative when the orbit is made, and handed over
    # by pad to its seeds, before any complex is built; a simplicial orbit
    # keeps none, as its facet signs are parities, and a non-alternating
    # one drops it once its facets are recorded. Under a seed the basis
    # is the one of the shuffled reference order. g = 5 is the first
    # registry with an alternating orbit that is not simplicial
    for seed in (None, 1):
        reg = build_registry(5, seed=seed)
        assert any(not o.alternating for o in reg.orbits)
        assert any(o.alternating and o.dim == len(o.rep.generators) for o in reg.orbits)
        assert any(o.alternating and o.dim < len(o.rep.generators) for o in reg.orbits)
        for o in reg.orbits:
            if o.alternating and o.dim < len(o.rep.generators):
                assert o.rep._span == (o.ref_orientation, span_coordinates(o.rep, o.ref_orientation))
            else:
                assert o.rep._span is None


def test_simplicial_orbits_take_no_span_elimination(monkeypatch):
    # the forms of a simplicial orbit are their own basis, so neither
    # OrbitRegistry.add nor facet_index_sets eliminates them; any other
    # new orbit's facets are enumerated on the span add eliminated
    seen = []
    span_basis = perfcone.cone.span_basis

    def recording(c, order=None):
        seen.append(rank_rows(c.flat) < len(c.generators))
        return span_basis(c, order)

    monkeypatch.setattr(perfcone.cone, "span_basis", recording)
    monkeypatch.setattr(perfcone.symmetry, "span_basis", recording)
    reg = build_registry(5)
    others = [o for o in reg.orbits if o.dim < len(o.rep.generators)]
    # one in add, for each orbit that is not simplicial
    assert len(seen) == 1 * len(others) > 0
    assert all(seen)


def test_seeded_representatives_keep_their_invariants(monkeypatch):
    # a seeded new orbit's representative is a conjugate of the located
    # cone and takes over its dimension, rank and fingerprint, so a seeded
    # build takes as many rank eliminations as the canonical one
    calls = []
    rank_rows = perfcone.cone.rank_rows

    def counting(rows):
        calls.append(len(rows))
        return rank_rows(rows)

    monkeypatch.setattr(perfcone.cone, "rank_rows", counting)
    counts = []
    for seed in (None, 1):
        calls.clear()
        build_registry(5, seed=seed)
        counts.append(len(calls))
    assert counts == [43, 43]


def _fresh_differential_row(orbit, reg):
    """The differential row of orbit from a fresh locate of each facet,
    whose witness runs from the target's rep to the face."""
    row = {}
    for s in facet_index_sets(orbit.rep):
        idx = indices(s, len(orbit.rep.generators))
        target, perm = reg.locate(orbit.rep.subcone(idx))
        if not target.alternating:
            continue
        row[target.id] = row.get(target.id, 0) + _fresh_eta(orbit, idx, target, perm)
    return {k: v for k, v in row.items() if v}


def _differential_row(orbit):
    """The nonzero sums of the recorded facet signs, by target orbit."""
    row = {}
    for _mask, tid, eta in orbit.facets:
        row[tid] = row.get(tid, 0) + eta
    return {k: v for k, v in row.items() if v}


def test_facet_rows_match_fresh_recomputation(reg3, reg4):
    # alternating targets make entries witness-independent, so a fresh
    # locate pass must reproduce the recorded rows, including rows
    # inherited verbatim from the smaller ambient
    for reg in (reg3, reg4):
        checked = [o for o in reg.orbits if o.alternating and o.dim > 0]
        assert any(o.rank < reg.g for o in checked)
        assert any(o.rank == reg.g for o in checked)
        for orbit in checked:
            assert _fresh_differential_row(orbit, reg) == _differential_row(orbit)


def test_basis_degrees_match_cone_dimension(reg4):
    p4 = build_perfect_complex(4, reg4)
    for n, ids in p4.basis.items():
        for oid in ids:
            orbit = reg4.by_id[oid]
            assert orbit.dim == n + 1
            assert orbit.rank <= n + 1


def test_differential_entry_g2(reg2):
    by_dim = {o.dim: o for o in reg2.orbits}
    assert abs(_differential_row(by_dim[1])[by_dim[0].id]) == 1
    assert by_dim[0].id not in _differential_row(by_dim[0])


def test_perfect_complex_dims():
    reg2 = build_registry(2)
    p2 = build_perfect_complex(2, reg2)
    assert [p2.dim(n) for n in range(-1, 3)] == [1, 1, 0, 0]
    assert abs(boundary_matrix(p2, 0)[0][0]) == 1

    reg3 = build_registry(3)
    p3 = build_perfect_complex(3, reg3)
    dims3 = {n: p3.dim(n) for n in p3.degrees() if p3.dim(n)}
    assert dims3 == {-1: 1, 0: 1, 5: 1}

    reg4 = build_registry(4)
    p4 = build_perfect_complex(4, reg4)
    dims4 = {n: p4.dim(n) for n in p4.degrees() if p4.dim(n)}
    assert dims4 == {-1: 1, 0: 1, 5: 1, 6: 1}
    assert abs(boundary_matrix(p4, 6)[0][0]) == 1
    assert abs(boundary_matrix(p4, 0)[0][0]) == 1


def test_voronoi_complex_dims(reg2, reg3, reg4):
    assert all(build_voronoi_complex(2, reg2).dim(n) == 0 for n in range(-1, 3))
    v3 = build_voronoi_complex(3, reg3)
    assert {n: v3.dim(n) for n in v3.degrees() if v3.dim(n)} == {5: 1}
    v4 = build_voronoi_complex(4, reg4)
    assert {n: v4.dim(n) for n in v4.degrees() if v4.dim(n)} == {6: 1}


def test_inflation_complex_dims(reg2, reg3, reg4):
    i2 = build_inflation_complex(2, reg2)
    p2 = build_perfect_complex(2, reg2)
    assert i2.basis == p2.basis and i2.diff == p2.diff

    i3 = build_inflation_complex(3, reg3)
    assert {n: i3.dim(n) for n in i3.degrees() if i3.dim(n)} == {-1: 1, 0: 1}

    i4 = build_inflation_complex(4, reg4)
    p4 = build_perfect_complex(4, reg4)
    assert i4.basis == p4.basis and i4.diff == p4.diff


def test_matroid_complexes(reg2, reg3):
    r2, c2 = build_matroid_complexes(2, reg2)
    p2 = build_perfect_complex(2, reg2)
    assert r2.basis == p2.basis and r2.diff == p2.diff

    r3, c3 = build_matroid_complexes(3, reg3)
    p3 = build_perfect_complex(3, reg3)
    assert r3.basis == p3.basis and r3.diff == p3.diff
    assert {n: c3.dim(n) for n in c3.degrees() if c3.dim(n)} == {-1: 1, 0: 1}
    assert verify_complex(c3)


def _flag_closure(reg, sources):
    """Orbit ids of the source cones and of every face reached from them
    through the facet records."""
    flagged = {reg.locate(c)[0].id for c in sources}
    stack = list(flagged)
    while stack:
        for _mask, tid, _eta in reg.by_id[stack.pop()].facets:
            if tid not in flagged:
                flagged.add(tid)
                stack.append(tid)
    return flagged


def test_matroidal_flags_match_every_graph_source(reg2, reg3, reg4, reg5):
    """The complete graph reaches every graph on g+1 vertices as a face,
    so its closure flags what all graphs on g+1 vertices flag (checked
    where the graph enumeration is quick, up to five vertices). At g = 5
    the flags hold 7 non-alternating orbits more than the closure of the
    graphs, M*(K_{3,3}) and R10 reaches."""
    for g, reg, count in ((2, reg2, 4), (3, reg3, 9), (4, reg4, 26), (5, reg5, 107)):
        annotate_matroidal(reg)
        flagged = {o.id for o in reg.orbits if o.matroidal}
        assert len(flagged) == count
        if g > 4:
            continue
        sources = [graphic_cone(g + 1, e) for e in simple_graphs_oracle(g + 1)]
        if g == 4:
            sources.append(tu_cone(m_star_k33(), g))
        assert _flag_closure(reg, sources) == flagged


def test_matroidal_flags_are_the_test_on_every_orbit(reg2, reg3, reg4, reg5):
    # the walk skips the test below a flagged orbit; it must agree with
    # the test itself, and, where the minors are few, with the minors
    for g, reg in ((2, reg2), (3, reg3), (4, reg4), (5, reg5)):
        annotate_matroidal(reg)
        for o in reg.orbits:
            assert o.matroidal == is_matroidal(o.rep), o.id
            if g <= 4:
                assert o.matroidal == unimodular_oracle(o.rep.generators), o.id


def test_matroidal_flags_on_the_principal_g6_registry(reg5):
    # every face of the principal cone is graphic, and padding keeps the
    # g = 5 flags on the boundary
    def catalog(k):
        return [principal_form(6)] if k == 6 else load_bundled_catalog(k)

    reg6 = build_registry(6, catalog, prev=reg5)
    annotate_matroidal(reg5)
    annotate_matroidal(reg6)
    assert len(reg6.orbits) == 696
    full = [o for o in reg6.orbits if o.rank == 6]
    assert len(full) == 533 and all(o.matroidal for o in full)
    boundary = {o.id: o.matroidal for o in reg6.orbits if o.rank < 6}
    assert boundary == {o.id: o.matroidal for o in reg5.orbits}


def test_subcomplex_closure_guard(reg3):
    with pytest.raises(AssertionError):
        _build_by_predicate("broken", reg3, lambda o: o.dim > 0, closed=True)


def test_exact_triple_identities(reg2, reg3, reg4):
    p2 = build_perfect_complex(2, reg2)
    p3 = build_perfect_complex(3, reg3)
    v3 = build_voronoi_complex(3, reg3)
    triple = exact_triple(3, p2, p3, v3)
    for n in p3.degrees():
        assert p3.dim(n) == p2.dim(n) + v3.dim(n)
    assert triple.g == 3

    p4 = build_perfect_complex(4, reg4)
    v4 = build_voronoi_complex(4, reg4)
    exact_triple(4, p3, p4, v4)

    with pytest.raises(ValueError):
        exact_triple(4, p2, p4, v4)
    with pytest.raises(ValueError):
        exact_triple(3, p2, p3, build_voronoi_complex(2, reg2))


def test_exact_triple_composite_zero(reg2, reg3):
    p2 = build_perfect_complex(2, reg2)
    p3 = build_perfect_complex(3, reg3)
    v3 = build_voronoi_complex(3, reg3)
    triple = exact_triple(3, p2, p3, v3)
    for n in p3.degrees():
        image_rows = {r for r, _c in triple.inclusion.get(n, [])}
        kept_cols = {c for _r, c in triple.projection.get(n, [])}
        assert not image_rows & kept_cols
        assert len(image_rows) + len(kept_cols) == p3.dim(n)


def test_complex_file_roundtrip(reg3):
    p3 = build_perfect_complex(3, reg3)
    text = format_complex(p3)
    back = parse_complex(text)
    assert back.label == p3.label and back.g == p3.g
    assert back.basis == p3.basis
    assert back.diff == p3.diff
    assert format_complex(back) == text


def test_parse_complex_errors():
    with pytest.raises(ValueError) as err:
        parse_complex("complex P g=2\ndeg 0 dimension 0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError):
        parse_complex("deg 0 dim 0\n")
    with pytest.raises(ValueError) as err:
        parse_complex("complex P g=2\nfoo 1 2\n")
    assert "unrecognized" in str(err.value)


def test_registry_seed_invariance():
    base = betti(build_perfect_complex(3, build_registry(3, seed=1)))
    other = betti(build_perfect_complex(3, build_registry(3, seed=2)))
    assert base.homology == other.homology


def test_annotations_are_idempotent(reg3):
    annotate_coloops(reg3)
    first = {o.id: o.coloop_count for o in reg3.orbits}
    annotate_coloops(reg3)
    assert first == {o.id: o.coloop_count for o in reg3.orbits}


def test_outputs_are_byte_identical(reg4, reg5):
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    for g, reg in ((4, reg4), (5, reg5)):
        assert sha(format_registry(reg)) == OUTPUT_SHA256[g]["registry"]
        for kind in "PVIRC":
            assert sha(format_complex(BUILDERS[kind](g, reg))) == OUTPUT_SHA256[g][kind], kind
