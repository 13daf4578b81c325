"""Orbit registry pipeline and the chain complexes built on it.

The registry for ambient g is seeded with the padded registry of g-1, so
boundary orbits keep their identity across ambient dimensions; top-cone
face enumeration then only ever discovers full-rank orbits. A padded
seed is the smaller registry's orbit record with the representative
padded. Padding changes neither its facet combinatorics nor any span
coordinate, so inherited facet records stay valid verbatim. Nor does it
change the rank, the dimension or the core, and the fingerprint reads
only those (the core's sorted Gram profiles): pad hands all four over
from the smaller representative, so a padded seed shares its core, and
the core's search state, and is never reduced again.

Facet records are made one automorphism orbit of facets at a time. The
first member of each facet orbit met in the walk order is located (or
added) as a face, and every other member gets the same record: the same
target and the same orientation sign eta, read in the source orbit's
span basis by symmetry.orientation_sign (see _facet_sign): one
determinant, or on a simplicial orbit, whose coordinates are a scaled
unit basis, a permutation parity.
The sign is exact for the whole orbit. An automorphism of an
alternating representative keeps its orientation and maps the outer
side of one facet to that of its image. The witness from the target's
representative onto the face matters only up to the target's
automorphisms, which keep an alternating target's orientation. So eta
is constant on an Aut(rep)-orbit of facets. The located faces, and with
them the new orbits and the random draws of a seeded run, are the ones
a face-by-face walk would meet, so the registry is unchanged.

The I and C complexes read the lattice coloop count of the rank-g
orbits only; annotate_coloops counts those, each from its Gram matrix
(matroid.lattice_coloops).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from .cone import PerfectCone, face_mask, facet_index_sets, indices, int_field, pad, records
from .matroid import is_matroidal, lattice_coloops
from .quadform import QuadraticForm, cone_of_form, load_bundled_catalog
from .symmetry import Orbit, OrbitRegistry, orientation_sign


def build_registry(
    g: int,
    catalog_for: Callable[[int], list[QuadraticForm]] | None = None,
    seed: int | None = None,
    prev: OrbitRegistry | None = None,
) -> OrbitRegistry:
    """Classify every face of every catalog cone for ambients 1..g.

    seed=None gives the canonical run (first-seen representatives);
    an integer seed conjugates new representatives by random unimodular
    matrices and shuffles choice orders, for invariance testing.

    prev, when given, is the registry of ambient g - 1, built with the
    same catalogs and seed; it is taken as is in place of a rebuild and
    is left unchanged. Every catalog an ambient still to build needs is
    requested before any cone is classified, so a missing or malformed
    catalog fails before the work below it.
    """
    if catalog_for is None:
        catalog_for = load_bundled_catalog
    if prev is not None and prev.g != g - 1:
        raise ValueError(f"prev is a registry of ambient {prev.g}, not {g - 1}")
    low = 0 if prev is None else g
    catalogs = {k: catalog_for(k) for k in range(max(low, 1), g + 1)}
    for k, forms in catalogs.items():
        for form in forms:
            if form.g != k:
                raise ValueError(f"catalog form {form.name} has ambient {form.g}, not {k}")
    reg = prev
    for k in range(low, g + 1):
        reg = _zero_registry() if k == 0 else _extend(reg, catalogs[k], seed)
    return reg


def _zero_registry() -> OrbitRegistry:
    reg = OrbitRegistry(0)
    reg.add_seed(
        Orbit(id=reg._new_id(0, 0), rep=PerfectCone(0, []), alternating=True, ref_orientation=())
    )
    return reg


def _extend(prev: OrbitRegistry, forms: list[QuadraticForm], seed: int | None) -> OrbitRegistry:
    """The registry of ambient prev.g + 1: prev's orbits padded as seeds,
    then the faces of the cones of forms."""
    g = prev.g + 1
    reg = OrbitRegistry(g)
    rng = random.Random(seed) if seed is not None else None
    for orb in prev.orbits:
        reg.add_seed(replace(orb, rep=pad(orb.rep, g), facets=list(orb.facets)))
    reg._counters = dict(prev._counters)
    queue: list[Orbit] = []
    for form in forms:
        orbit, _perm, created = reg.add(cone_of_form(form), rng)
        if created:
            queue.append(orbit)
    while queue:
        _record_facets(reg, queue.pop(), rng, queue)
    return reg


def _record_facets(
    reg: OrbitRegistry, orbit: Orbit, rng: random.Random | None, queue: list[Orbit]
) -> None:
    """Record (facet bitmask, target id, eta) for every facet of a new
    orbit's rep, with one locate per orbit of Aut(rep) on the facets.

    Facets are walked in the sorted order of facet_index_sets, or in a
    seeded shuffle. The first member of each facet orbit is decoded into
    its sorted indices s and located, or added as a new orbit; a walk
    over the strong generators then gives its record to the rest of its
    orbit, so a later member is recorded without any search. The walk
    keys each image by its mask, summed from a table of bits per strong
    generator, and lists the image only when its mask is new.

    The facets are enumerated on the span coordinates add left on the
    orbit, so a new orbit takes one span elimination; they stay on it only
    where a facet sign reads them, on an alternating orbit.
    """
    rep = orbit.rep
    span = None if orbit.coords is None else (orbit.ref_orientation, orbit.coords)
    if not orbit.alternating:
        orbit.coords = None
    masks = facet_index_sets(rep, _span=span)
    if rng is not None:
        rng.shuffle(masks)
    n = len(rep.generators)
    unit = [face_mask((j,), n) for j in range(n)]
    gens = [(p, [unit[j] for j in p]) for p in orbit.aut_gens or []]
    known: dict[int, tuple[str, int]] = {}
    for mask in masks:
        if mask not in known:
            s = indices(mask, n)
            face = rep.facet(s)
            if face.rank < reg.g:
                loc = reg.locate(face)
                if loc is None:
                    raise AssertionError(
                        "boundary facet missing from the padded seeds; "
                        "the lower catalog is incomplete"
                    )
                target, perm = loc
            else:
                target, perm, created = reg.add(face, rng)
                if created:
                    queue.append(target)
            eta = 0
            if orbit.alternating and target.alternating:
                eta = _facet_sign(orbit, s, target, perm)
            known[mask] = record = (target.id, eta)
            stack = [s]
            while stack:
                x = stack.pop()
                for p, bits in gens:
                    key = sum(map(bits.__getitem__, x))
                    if key not in known:
                        known[key] = record
                        stack.append([p[i] for i in x])
        orbit.facets.append((mask, *known[mask]))


def _facet_sign(orbit: Orbit, s: list[int], target: Orbit, perm: tuple[int, ...]) -> int:
    """eta of the facet s (sorted) of an alternating orbit's rep, onto
    which a witness from the alternating target's rep sends generator r
    of that rep to facet generator perm[r], generator s[perm[r]] of the
    orbit's rep (the direction locate and add return): the sign, in the
    orbit's span coordinates, of a generator off the facet (it points
    inward) followed by the images of the target's reference basis. The
    target's orientation is positive on that basis, and the facet's does
    not depend on the basis it is read on. A simplicial orbit keeps no
    coordinates, and the sign is a parity (symmetry.orientation_sign)."""
    u = min(i for i in range(len(orbit.rep.generators)) if i not in s)
    rows = [u] + [s[perm[r]] for r in target.ref_orientation]
    eta = orientation_sign(rows, orbit.ref_orientation, orbit.coords)
    if eta == 0:
        raise AssertionError("facet orientation degenerated")
    return eta


def annotate_coloops(reg: OrbitRegistry) -> None:
    """Count the lattice coloops of each full-rank orbit's rep. The I and
    C predicates read the count only when the rank is g, so a boundary
    orbit takes no test."""
    for orb in reg.orbits:
        if orb.rank == reg.g and orb.coloop_count is None:
            orb.coloop_count = len(lattice_coloops(orb.rep))


def annotate_matroidal(reg: OrbitRegistry) -> None:
    """Flag the orbits whose cone comes from a regular matroid
    (is_matroidal). Orbits are visited by decreasing dimension; a facet
    target of a flagged orbit is flagged without a test, since a face of
    a matroidal cone is matroidal, and every other orbit is tested on its
    representative."""
    flagged: set[str] = set()
    for orb in sorted(reg.orbits, key=lambda o: -o.dim):
        orb.matroidal = orb.id in flagged or is_matroidal(orb.rep)
        if orb.matroidal:
            flagged.update(tid for _mask, tid, _eta in orb.facets)


@dataclass
class ChainComplexQ:
    label: str
    g: int
    basis: dict[int, list[str]]
    diff: dict[int, dict[tuple[int, int], int]]

    def degrees(self) -> range:
        return range(-1, self.g * (self.g + 1) // 2)

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, []))


def _build_by_predicate(
    label: str, reg: OrbitRegistry, keep: Callable[[Orbit], bool], closed: bool
) -> ChainComplexQ:
    g = reg.g
    dmax = g * (g + 1) // 2
    basis: dict[int, list[str]] = {n: [] for n in range(-1, dmax)}
    pos: dict[str, tuple[int, int]] = {}
    for orb in reg.orbits:
        if orb.alternating and keep(orb):
            n = orb.dim - 1
            pos[orb.id] = (n, len(basis[n]))
            basis[n].append(orb.id)
    diff: dict[int, dict[tuple[int, int], int]] = {n: {} for n in range(0, dmax)}
    for orb in reg.orbits:
        if orb.id not in pos:
            continue
        n, col = pos[orb.id]
        if n < 0:
            continue
        acc: dict[int, int] = {}
        for _mask, tid, sgn in orb.facets:
            if sgn == 0:
                continue
            if tid not in pos:
                if closed:
                    raise AssertionError(
                        f"{label} is not closed under facets: "
                        f"{orb.id} has facet {tid} outside the basis"
                    )
                continue
            row = pos[tid][1]
            acc[row] = acc.get(row, 0) + sgn
        for row, val in acc.items():
            if val:
                diff[n][(row, col)] = val
    return ChainComplexQ(label, g, basis, diff)


def build_perfect_complex(g: int, reg: OrbitRegistry) -> ChainComplexQ:
    if reg.g != g:
        raise ValueError("registry ambient mismatch")
    return _build_by_predicate("P", reg, lambda o: True, closed=True)


def build_voronoi_complex(g: int, reg: OrbitRegistry) -> ChainComplexQ:
    """Quotient of P killing boundary (rank < g) generators."""
    if reg.g != g:
        raise ValueError("registry ambient mismatch")
    return _build_by_predicate("V", reg, lambda o: o.rank == g, closed=False)


def build_inflation_complex(g: int, reg: OrbitRegistry) -> ChainComplexQ:
    if reg.g != g:
        raise ValueError("registry ambient mismatch")
    annotate_coloops(reg)
    return _build_by_predicate(
        "I", reg, lambda o: o.rank < g or (o.coloop_count or 0) >= 1, closed=True
    )


def build_matroid_complexes(g: int, reg: OrbitRegistry) -> tuple[ChainComplexQ, ChainComplexQ]:
    if reg.g != g:
        raise ValueError("registry ambient mismatch")
    annotate_coloops(reg)
    annotate_matroidal(reg)
    r_cx = _build_by_predicate("R", reg, lambda o: o.matroidal, closed=True)
    c_cx = _build_by_predicate(
        "C",
        reg,
        lambda o: o.matroidal and (o.rank < g or (o.coloop_count or 0) >= 1),
        closed=True,
    )
    return r_cx, c_cx


BUILDERS = {
    "P": build_perfect_complex,
    "V": build_voronoi_complex,
    "I": build_inflation_complex,
    "R": lambda g, reg: build_matroid_complexes(g, reg)[0],
    "C": lambda g, reg: build_matroid_complexes(g, reg)[1],
}


@dataclass
class ComplexTriple:
    g: int
    inclusion: dict[int, list[tuple[int, int]]]
    projection: dict[int, list[tuple[int, int]]]


def _compose(sparse_a: dict, sparse_b: dict) -> dict:
    """Entries of A.B for {(row, col): val} sparse maps."""
    by_row_b: dict[int, list[tuple[int, int]]] = {}
    for (r, c), v in sparse_b.items():
        by_row_b.setdefault(r, []).append((c, v))
    out: dict[tuple[int, int], int] = {}
    for (r, c), v in sparse_a.items():
        for c2, v2 in by_row_b.get(c, []):
            key = (r, c2)
            out[key] = out.get(key, 0) + v * v2
    return {k: v for k, v in out.items() if v}


def exact_triple(
    g: int, p_prev: ChainComplexQ, p_cur: ChainComplexQ, v_cur: ChainComplexQ
) -> ComplexTriple:
    """Degreewise basis injection and projection; raises on any degree
    where exactness or commutation fails."""
    if p_cur.g != g or v_cur.g != g or p_prev.g != g - 1:
        raise ValueError("triple needs P(g-1), P(g), V(g)")
    inclusion: dict[int, list[tuple[int, int]]] = {}
    projection: dict[int, list[tuple[int, int]]] = {}
    dmax = g * (g + 1) // 2
    for n in range(-1, dmax):
        prev_ids = p_prev.basis.get(n, [])
        cur_ids = p_cur.basis.get(n, [])
        v_ids = v_cur.basis.get(n, [])
        if len(cur_ids) != len(prev_ids) + len(v_ids):
            raise ValueError(
                f"exactness fails at degree {n}: "
                f"{len(cur_ids)} != {len(prev_ids)} + {len(v_ids)}"
            )
        cur_pos = {oid: k for k, oid in enumerate(cur_ids)}
        if set(prev_ids) & set(v_ids):
            raise ValueError(f"degree {n}: boundary and interior bases overlap")
        for oid in prev_ids + v_ids:
            if oid not in cur_pos:
                raise ValueError(f"degree {n}: orbit {oid} missing from P({g})")
        inclusion[n] = [(cur_pos[oid], k) for k, oid in enumerate(prev_ids)]
        projection[n] = [(k, cur_pos[oid]) for k, oid in enumerate(v_ids)]
    for n in range(0, dmax):
        inc_n = {(r, c): 1 for r, c in inclusion[n]}
        inc_prev = {(r, c): 1 for r, c in inclusion[n - 1]}
        left = _compose(p_cur.diff.get(n, {}), inc_n)
        right = _compose(inc_prev, p_prev.diff.get(n, {}))
        if left != right:
            raise ValueError(f"inclusion square fails to commute at degree {n}")
        proj_n = {(r, c): 1 for r, c in projection[n]}
        proj_prev = {(r, c): 1 for r, c in projection[n - 1]}
        left = _compose(v_cur.diff.get(n, {}), proj_n)
        right = _compose(proj_prev, p_cur.diff.get(n, {}))
        if left != right:
            raise ValueError(f"projection square fails to commute at degree {n}")
    return ComplexTriple(g, inclusion, projection)


def format_complex(cx: ChainComplexQ) -> str:
    lines = [f"complex {cx.label} g={cx.g}"]
    for n in cx.degrees():
        ids = cx.basis.get(n, [])
        head = f"deg {n} dim {len(ids)}"
        lines.append(head + (" " + " ".join(ids) if ids else ""))
    for n in sorted(cx.diff):
        for r, c in sorted(cx.diff[n]):
            lines.append(f"d {n} {r} {c} {cx.diff[n][(r, c)]}")
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> ChainComplexQ:
    label = None
    basis: dict[int, list[str]] = {}
    named: set[str] = set()
    diff: dict[int, dict[tuple[int, int], int]] = {}
    entry_line: dict[tuple[int, int, int], int] = {}
    *body, (end, _) = records(text)
    for ln, parts in body:
        if parts[0] == "complex":
            if len(parts) != 3 or not parts[2].startswith("g="):
                raise ValueError(f"line {ln}: malformed complex header")
            if label is not None:
                raise ValueError(f"line {ln}: second complex header")
            label = parts[1]
            g = int_field(parts[2][2:], ln)
            if g < 0:
                raise ValueError(f"line {ln}: negative g={g}")
        elif label is None:
            raise ValueError(f"line {ln}: {parts[0]} before complex header")
        elif parts[0] == "deg":
            if len(parts) < 4 or parts[2] != "dim":
                raise ValueError(f"line {ln}: expected `deg <n> dim <d>`")
            n = int_field(parts[1], ln)
            if not -1 <= n < g * (g + 1) // 2:
                raise ValueError(f"line {ln}: degree {n} outside the complex")
            if n in basis:
                raise ValueError(f"line {ln}: second deg {n} line")
            d = int_field(parts[3], ln)
            ids = parts[4:]
            if len(ids) != d:
                raise ValueError(f"line {ln}: dim {d} but {len(ids)} ids")
            for oid in ids:
                if oid in named:
                    raise ValueError(f"line {ln}: orbit {oid} named twice in the basis")
                named.add(oid)
            basis[n] = ids
        elif parts[0] == "d":
            if len(parts) != 5:
                raise ValueError(f"line {ln}: expected `d <n> <row> <col> <int>`")
            n, r, c, v = (int_field(x, ln) for x in parts[1:])
            if v == 0:
                raise ValueError(f"line {ln}: zero entry ({r}, {c}) of d {n}")
            if (n, r, c) in entry_line:
                raise ValueError(f"line {ln}: second entry ({r}, {c}) of d {n}")
            diff.setdefault(n, {})[(r, c)] = v
            entry_line[(n, r, c)] = ln
        else:
            raise ValueError(f"line {ln}: unrecognized directive {parts[0]!r}")
    if label is None:
        raise ValueError(f"line {end}: complex text held no header")
    dmax = g * (g + 1) // 2
    for (n, r, c), ln in entry_line.items():
        rows, cols = len(basis.get(n - 1, [])), len(basis.get(n, []))
        if not (0 <= n < dmax and 0 <= r < rows and 0 <= c < cols):
            raise ValueError(
                f"line {ln}: entry ({r}, {c}) of d {n} outside its {rows} x {cols} matrix"
            )
    for n in range(-1, dmax):
        # refused at the first missing degree, so a huge g= costs no more
        # steps than the text has deg lines
        if n not in basis:
            raise ValueError(f"line {end}: no deg {n} line")
    for n in range(0, dmax):
        diff.setdefault(n, {})
    return ChainComplexQ(label, g, basis, diff)
