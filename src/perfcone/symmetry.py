"""GL_g(Z)-equivalence of cones, automorphisms, orientations, orbits.

Equivalence search runs on the cores of cones (cone.reduce), and on a
boundary cone the ray permutation is pulled back. The pruning
invariant is the integer Gram matrix G_ij = v_i^t adj(T) v_j with
T = sum of v v^t. It is det T times the rational Gram matrix
v_i^t T^{-1} v_j, and det T > 0 is a
GL_g(Z) invariant of the cone, so every comparison made on G is the one
the rational matrix would give. A matrix mapping generators to
+-generators permutes G up to row/column signs, so the profiles must
match: a generator's profile is G_ii with the sorted |G_ij|, j != i
(PerfectCone.profiles, kept on the cone). An orbit fingerprint is the
rank, the dimension and the sorted profiles of the reduced core; those
profiles determine the generator count, the multiset of |G_ij| and, by
the trace g det T, det T itself.

Automorphism groups are never listed element by element. The search
returns a strong generating set along the base of the assignment order
(Sims' stabilizer chain, pruned by the orbits of the generators found so
far, as in McKay-Piperno's backtrack). The orientation sign is a
homomorphism, so the alternation test reads only the generators; the
full group is their closure under composition, with -I. Every sign the
pipeline takes, a generator's here and a facet's in complexes, is read
by orientation_sign in an orbit's span basis: a determinant on the span
coordinates, or on a simplicial cone a permutation parity.

All arithmetic here is on integers: inverses appear only as adjugates
with a divisibility test, and span coordinates are scaled by a positive
determinant, which keeps every orientation sign taken on them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .cone import (
    PerfectCone,
    format_cone,
    int_field,
    parse_cone,
    records,
    reduce as cone_reduce,
    span_basis,
)
from .intlinalg import (
    adjugate_det,
    det_sign,
    mat_mul,
    mat_vec,
    perm_sign,
    pick_basis,
    random_unimodular,
    sign_normalize,
)

# a realization of the search: (perm, signs), prefix generator order[k]
# going to exactly signs[k] times generator perm[order[k]]
Realization = tuple[tuple[int, ...], tuple[int, ...]]


def _assignment_order(
    c: PerfectCone, cand: Sequence[Sequence[int]]
) -> tuple[list[int], int, list[list[int]] | None, int]:
    """Static DFS order: rank-increasing generators first (rarest profile
    wins ties), so the assigned prefix determines the matrix early.

    Returns (order, prefix_len, adj V, det V), V the matrix whose columns
    are the prefix generators order[:prefix_len]; when they do not reach
    rank g, adj V is None and det V is 0. The prefix and det V come from
    pick_basis over the generators in that order. The search reads adj V
    only when det V != +-1 (_matrix), so only then is it formed
    (adjugate_det); otherwise it is None.
    """
    g = c.g
    gens = c.generators
    remaining = sorted(range(len(gens)), key=lambda i: (len(cand[i]), i))
    order, det = pick_basis(gens, remaining, g)
    prefix_len = len(order)
    prefix = set(order)
    order.extend(i for i in remaining if i not in prefix)
    if prefix_len < g or det in (1, -1):
        return order, prefix_len, None, det
    vadj = adjugate_det([[gens[i][k] for i in order[:g]] for k in range(g)])[0]
    return order, prefix_len, vadj, det


class _Source(NamedTuple):
    """A full-rank cone's state as the source c1 of a search, read off the
    cone alone and kept on it (PerfectCone._search)."""

    # the DFS order; its first g generators are the prefix, the columns of V
    order: tuple[int, ...]
    # adj V, which only _matrix reads; None when det V = +-1
    vadj: tuple[tuple[int, ...], ...] | None
    vdet: int  # det V
    # each generator's prefix Gram row (G_ip)_p, p in the prefix, to its index
    rows: dict[tuple[int, ...], int]
    # the sign plan of the prefix graph, whose edges are the prefix pairs
    # with G_pq != 0: comp[k] is the component of prefix generator k,
    # numbered from 0 in prefix order, and roots their first generators;
    # tree holds (p, q, G_pq > 0) for the edges of a spanning forest, each
    # p reached before q, and checks the other edges, each once
    comp: tuple[int, ...]
    roots: tuple[int, ...]
    tree: tuple[tuple[int, int, bool], ...]
    checks: tuple[tuple[int, int, bool], ...]


def _search_source(c: PerfectCone) -> _Source:
    """c's state as a search source. When two cones' profile multisets
    agree, the candidates of each generator number as many as the
    generators of its own profile class, so the order reads c alone."""
    g = c.g
    gram = c.gram
    classes: dict[tuple, list[int]] = {}
    for i, p in enumerate(c.profiles):
        classes.setdefault(p, []).append(i)
    order, prefix_len, vadj, vdet = _assignment_order(c, [classes[p] for p in c.profiles])
    if prefix_len < g:
        raise AssertionError("full-rank cone without a spanning prefix")
    prefix = order[:g]
    comp_of: dict[int, int] = {}
    roots: list[int] = []
    tree = []
    for a in prefix:
        if a in comp_of:
            continue
        comp_of[a] = len(roots)
        roots.append(a)
        stack = [a]
        while stack:
            x = stack.pop()
            for y in prefix:
                if y not in comp_of and gram[x][y]:
                    comp_of[y] = comp_of[a]
                    tree.append((x, y, gram[x][y] > 0))
                    stack.append(y)
    edges = {(x, y) for x, y, _pos in tree}
    checks = tuple(
        (x, y, gram[x][y] > 0)
        for k, x in enumerate(prefix)
        for y in prefix[k + 1 :]
        if gram[x][y] and (x, y) not in edges and (y, x) not in edges
    )
    return _Source(
        order=tuple(order),
        vadj=None if vadj is None else tuple(map(tuple, vadj)),
        vdet=vdet,
        rows={tuple([row[p] for p in prefix]): i for i, row in enumerate(gram)},
        comp=tuple(comp_of[a] for a in prefix),
        roots=tuple(roots),
        tree=tuple(tree),
        checks=checks,
    )


def _full_rank_maps(c1: PerfectCone, c2: PerfectCone, group: bool = False) -> list[Realization]:
    """Matrices A in GL_g(Z) with A . c1 = c2 (as +- pairs), up to the
    global flip -A, as realizations (perm, signs).

    Both cones must be full rank with equal fingerprints (so equal g and
    profile multisets), which the callers compare first. By default the
    result is the first realization the search meets, or nothing. With
    group=True (and c2 = c1) it is a strong generating set of the
    stabilizer for the base b = order[:g]: for every k, the generators
    fixing the rays b_1..b_k generate G_k, the group of all elements
    that fix them. The list holds every element of G_g (the kernel of
    the action on rays lies in it) and, for each k, one element of G_k
    for each image of b_(k+1) that the generators found before it do not
    reach. -I is never listed; its det is (-1)^g.

    Everything the search needs of c1 alone, its order, adj V, det V,
    prefix rows and sign plan (_Source), is computed on c1's first search
    and kept on it, so a registry representative searched against many
    faces computes it once.

    A realization is A = W V^-1, the columns of V the g prefix
    generators v_p of c1 and those of W their signed images e_p w_a(p) in
    c2. The search takes no determinant, and it never applies A to a
    generator:
    - profiles fix the diagonal, the DFS matches |G_ij| on every prefix
      pair, and the sign propagation matches the signs, so the signed
      prefix Gram matrices are equal: V^t adj(T1) V = W^t adj(T2) W. As V
      is invertible, A^t adj(T2) A = adj(T1): A is an isometry from
      adj(T1) to adj(T2);
    - hence G1[i][p] = (A v_i)^t adj(T2) e_p w_a(p) for every generator i
      of c1 and prefix generator p. If A v_i = s w_j, the signed prefix
      row of i, (G1[i][p])_p, is s times that of j, (e_p G2[j][a(p)])_p.
      Conversely, equal rows up to s give (A v_i - s w_j)^t adj(T2) W = 0,
      and adj(T2) and W are invertible, so A v_i = s w_j. The rows, taken
      up to sign, are distinct for distinct rays of either cone, so each
      signed row of c2 is looked up among the rows of c1, and its
      negation only when it is not found: when every one is found, the
      images form a bijection, and a row found with neither sign is a
      ray with no preimage. G2 is symmetric, so the signed rows of c2
      are read column-wise, entry j of each signed column e_p G2[a(p)],
      and only a column with e_p = -1 is copied, to negate it;
    - the profile multisets are equal, so the Gram traces g det T are,
      and det T1 = det T2 > 0. Taking determinants of the prefix Gram
      matrices, with det adj(T) = det(T)^(g-1), gives det(V)^2 =
      det(W)^2, so |det A| = 1;
    - the search checks that W adj(V) / det V = A is integral when
      det V != +-1, the only case in which the source holds adj V
      (otherwise A = +-W adj(V) is integral already), and an integer
      matrix of determinant +-1 lies in GL_g(Z).

    So a realization proves that A exists, and no caller forms it.
    """
    g = c1.g
    n = len(c1.generators)
    g1 = c1.gram
    g2 = c2.gram
    prof1 = c1.profiles
    prof2 = c2.profiles
    src = c1._search
    if src is None:
        src = c1._search = _search_source(c1)
    order, _vadj, vdet, rows, comp, roots, tree, checks = src
    prefix = order[:g]
    gens2 = c2.generators
    where: dict[tuple, list[int]] = {}
    for j, p in enumerate(prof2):
        where.setdefault(p, []).append(j)
    cand = [where[p] for p in prof1]
    assign: dict[int, int] = {}
    used = [False] * n

    def realize(every: bool) -> list[Realization]:
        """The realizations that extend the complete prefix assignment, one
        per sign pattern (all of them, or only the first)."""
        # signs on the prefix, up to a flip of each component of its graph
        eps = dict.fromkeys(roots, 1)
        for x, y, pos in tree:
            eps[y] = eps[x] if (g2[assign[x]][assign[y]] > 0) == pos else -eps[x]
        for x, y, pos in checks:
            if (eps[x] == eps[y]) != ((g2[assign[x]][assign[y]] > 0) == pos):
                return []
        found = []
        for mask in range(1 << (len(roots) - 1)):
            bits = mask << 1  # component 0 keeps its signs
            signed = [
                (assign[a], -eps[a] if bits >> k & 1 else eps[a]) for a, k in zip(prefix, comp)
            ]
            # G2 is symmetric, so row j's key (s_b G2[j][b])_b is the j-th
            # entry of each signed column, read off s_b G2[b]
            cols = [g2[b] if s > 0 else [-x for x in g2[b]] for b, s in signed]
            perm = [0] * n
            for j, key in enumerate(zip(*cols)):
                i = rows.get(key)
                if i is None:
                    i = rows.get(tuple([-x for x in key]))
                    if i is None:
                        break
                perm[i] = j
            else:
                # A = W V^{-1} is integral iff every entry of W adj(V) is divisible by det V
                if vdet not in (1, -1) and _matrix(src, gens2, signed) is None:
                    continue
                found.append((tuple(perm), tuple([s for _b, s in signed])))
                if not every:
                    break
        return found

    def first(pos: int, images: Iterable[int] | None = None) -> list[Realization]:
        """One realization extending the current assignment, with
        order[pos] sent into images (default: every candidate), or
        nothing; assign and used are restored before it returns."""
        if pos == g:
            return realize(False)
        i = order[pos]
        for j in cand[i] if images is None else images:
            if used[j]:
                continue
            good = True
            for i2, j2 in assign.items():
                if abs(g2[j][j2]) != abs(g1[i][i2]):
                    good = False
                    break
            if not good:
                continue
            assign[i] = j
            used[j] = True
            found = first(pos + 1)
            del assign[i]
            used[j] = False
            if found:
                return found
        return []

    if not group:
        gens = first(0)
    else:
        # Sims' chain along the identity path: G_g is the kernel of the
        # action on the base; then, for pos = g - 1 .. 0, the generators
        # found so far lie in G_pos and one element of G_pos is added for
        # each image of order[pos] that they do not reach
        for i in prefix:
            assign[i] = i
            used[i] = True
        gens = realize(True)
        for pos in reversed(range(g)):
            i = order[pos]
            del assign[i]
            used[i] = False
            orbit = _orbit(i, [perm for perm, _s in gens])
            for j in cand[i]:
                if j in orbit:
                    continue
                found = first(pos, (j,))
                if found:
                    gens.append(found[0])
                    orbit = _orbit(i, [perm for perm, _s in gens])
    del first  # first reaches itself through its closure cell: a reference cycle
    return gens


def _matrix(src: _Source, gens2, signed) -> list[list[int]] | None:
    """A = W adj(V) / det V, W with the columns s w_b for (b, s) in
    signed, or None when A is not integral. The search calls it only for
    its integrality test, when det V != +-1."""
    wadj = mat_mul([[s * gens2[b][k] for b, s in signed] for k in range(len(signed))], src.vadj)
    d = src.vdet
    if any(x % d for row in wadj for x in row):
        return None
    return [[x // d for x in row] for row in wadj]


def _orbit(point: int, perms: list[tuple[int, ...]]) -> set[int]:
    """The orbit of point under the group the perms generate."""
    orbit = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for p in perms:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def equivalent(c1: PerfectCone, c2: PerfectCone) -> tuple[int, ...] | None:
    """The ray permutation of some A in GL_g(Z) mapping c1 onto c2, or
    None: generator i of c1 goes to +-generator perm[i] of c2. The zero
    cones give (), which is falsy, so callers test the result against None.

    Cones with different fingerprints are not equivalent, and no search
    is run; the fingerprint holds the rank, the dimension and the
    generator count. Otherwise the search runs on the cores (cone.reduce),
    and a boundary perm is pulled back to the cones' own rays. A is
    proven to exist and never formed (see _full_rank_maps)."""
    if c1.g != c2.g:
        raise ValueError("cones live in different ambient dimensions")
    if c1.fingerprint != c2.fingerprint:
        return None
    if c1.is_zero():
        return ()
    (core1, local1), (core2, local2) = cone_reduce(c1), cone_reduce(c2)
    found = _full_rank_maps(core1, core2)
    if not found:
        return None
    # a full-rank c1 is its own core, and so is c2, of the same rank
    return found[0][0] if core1 is c1 else _pull_back(found[0][0], local1, local2)


def _pull_back(perm: Sequence[int], local1: Sequence[int], local2: Sequence[int]) -> tuple[int, ...]:
    """A ray permutation between two cores, read on the cones' own rays."""
    back = {k: i for i, k in enumerate(local2)}
    return tuple([back[perm[k]] for k in local1])


def strong_generators(c: PerfectCone) -> list[tuple[int, ...]]:
    """Ray permutations of a strong generating set of the automorphism
    group (see _full_rank_maps), read off the core's stabilizer, which
    induces the same permutations, pulled back to c's rays when c is a
    boundary cone. Each perm is listed once, and the identity (the
    kernel's perm) not at all."""
    if c.is_zero():
        return []
    core, local = cone_reduce(c)
    found = _full_rank_maps(core, core, group=True)
    perms = [perm if core is c else _pull_back(perm, local, local) for perm, _s in found]
    identity = tuple(range(len(c.generators)))
    return [perm for perm in dict.fromkeys(perms) if perm != identity]


def orientation_sign(
    rows: Sequence[int], ref: Sequence[int], coords: Sequence[Sequence[int]] | None
) -> int:
    """The orientation of the generator forms of rows, in that order,
    against the reference basis ref of span_basis's (ref, coords): the
    sign of the determinant of their coordinates, 0 when they are not a
    basis of the span. coords is None on a simplicial cone, whose forms
    are independent and all in ref: generator i's coordinates are
    D e_pos[i], pos[i] its place in ref, so rows is a permutation of the
    generators and the sign is the parity of their pos.

    An automorphism with ray permutation perm has the sign of the rows
    perm[s], s in ref; a facet's sign is that of a generator off it and
    the images of its target's reference basis (complexes._facet_sign)."""
    if coords is not None:
        return det_sign([coords[i] for i in rows])
    pos = [0] * len(ref)
    for k, i in enumerate(ref):
        pos[i] = k
    return perm_sign([pos[i] for i in rows])


def span_coordinates(c: PerfectCone, ref: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Coordinates of every generator form in the basis of the forms of
    ref, taken in ref's order, times one D > 0: span_basis with ref first
    in the order, its columns put in ref's order. Raises ValueError when
    those forms are not a basis of the span.

    The positive common factor keeps the sign of every determinant taken
    on these rows, which is all the callers read.
    """
    chosen = set(ref)
    order = list(ref) + [i for i in range(len(c.generators)) if i not in chosen]
    base, coords = span_basis(c, order)
    if base != tuple(sorted(ref)):
        raise ValueError("the forms of ref are not a basis of the cone's span")
    col = [base.index(s) for s in ref]
    return tuple(tuple(x[k] for k in col) for x in coords)


def is_alternating(c: PerfectCone) -> bool:
    """True iff every automorphism preserves orientation on the span, as
    OrbitRegistry.add decides it for a new orbit.

    The pipeline reads the flag off the orbit. This stays as the tests'
    alternation check of a single cone, and because perfbench's tracer
    times it (symmetry.is_alternating)."""
    return OrbitRegistry(c.g).add(c)[0].alternating


def conjugate_cone(c: PerfectCone, h: Sequence[Sequence[int]]) -> PerfectCone:
    return PerfectCone(c.g, [mat_vec(h, v) for v in c.generators])


@dataclass
class Orbit:
    id: str
    rep: PerfectCone
    alternating: bool
    # the generators whose forms, in this order, give the orientation; on
    # an alternating orbit that is not simplicial, rep.span is the basis
    # (ref_orientation, coords) that its facet signs are read in
    ref_orientation: tuple[int, ...]
    # (facet mask, target id, eta): the mask is cone.face_mask of the
    # generators of rep on the facet; eta is the facet's orientation
    # against the target orbit's, or 0 unless both orbits are alternating
    facets: list[tuple[int, str, int]] = field(default_factory=list)
    # ray permutations of strong generators of Aut(rep), as
    # strong_generators returns them; None where no search was run
    # (the zero orbit, parsed registries)
    aut_gens: list[tuple[int, ...]] | None = None
    matroidal: bool = False
    # the lattice coloops of rep (matroid.lattice_coloops) on a rank-g
    # orbit, filled by complexes.annotate_coloops; None on a boundary
    # orbit, whose count no complex reads
    coloop_count: int | None = None

    # read off the representative, which keeps them
    @property
    def rank(self) -> int:
        return self.rep.rank

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def fingerprint(self) -> tuple:
        return self.rep.fingerprint


class OrbitRegistry:
    """Deduplicated GL_g(Z)-orbits with canonical representatives.

    Orbit ids are `r<rank>d<dim>n<seq>`; boundary orbits keep the id they
    were assigned when first discovered at their own rank, so the same
    stratum carries one name through every ambient dimension.
    """

    def __init__(self, g: int):
        self.g = g
        self.orbits: list[Orbit] = []
        self.by_id: dict[str, Orbit] = {}
        # each orbit under its representative's generators: a cone with
        # those generators is the representative, with the identity witness
        self.by_generators: dict[tuple, Orbit] = {}
        self._buckets: dict[tuple, list[Orbit]] = {}
        self._counters: dict[tuple[int, int], int] = {}

    def fingerprint(self, c: PerfectCone) -> tuple:
        """The cone's fingerprint (PerfectCone.fingerprint), kept on it."""
        return c.fingerprint

    def locate(self, c: PerfectCone) -> tuple[Orbit, tuple[int, ...]] | None:
        """(orbit, perm) for the orbit of c, or None: the perm of
        equivalent(orbit.rep, c), generator i of orbit.rep going to
        +-generator perm[i] of c. The search runs from the representative,
        whose search state (_Source) serves every cone located against it."""
        for orbit in self._buckets.get(self.fingerprint(c), []):
            perm = equivalent(orbit.rep, c)
            if perm is not None:
                return orbit, perm
        return None

    def _new_id(self, rank: int, dim: int) -> str:
        seq = self._counters.get((rank, dim), 0)
        self._counters[(rank, dim)] = seq + 1
        return f"r{rank}d{dim}n{seq}"

    def _insert(self, orbit: Orbit):
        self.orbits.append(orbit)
        self.by_id[orbit.id] = orbit
        self.by_generators[orbit.rep.generators] = orbit
        self._buckets.setdefault(orbit.fingerprint, []).append(orbit)

    def add(
        self, c: PerfectCone, rng: random.Random | None = None
    ) -> tuple[Orbit, tuple[int, ...], bool]:
        """(orbit, perm, created): the orbit of c, a new one when locate
        finds none, and perm as locate returns it. A new orbit's rep is c,
        or under rng its conjugate h c, whose generator i is +-h v_perm[i]."""
        loc = self.locate(c)
        if loc is not None:
            return loc[0], loc[1], False
        n = len(c.generators)
        if rng is None:
            rep = c
            perm = tuple(range(n))
            ref_order = None
        else:
            h = random_unimodular(c.g, rng)
            rep = conjugate_cone(c, h)
            # GL_g(Z)-invariants of c, which locate has just computed
            rep._dim, rep._rank, rep._fingerprint = c.dim, c.rank, c.fingerprint
            index = {v: i for i, v in enumerate(rep.generators)}
            at = [index[sign_normalize(mat_vec(h, v))] for v in c.generators]
            perm = tuple(sorted(range(n), key=at.__getitem__))
            ref_order = list(range(n))
            rng.shuffle(ref_order)
        gens = strong_generators(rep)
        if c.dim == n:
            # simplicial: the forms are their own basis, which span_basis
            # would pick in any order, so no elimination is run; a seeded
            # run has still drawn ref_order, and its random stream is kept
            ref, coords = tuple(range(n)), None
        else:
            # the basis of the orientation, kept on rep for its facets and
            # facet signs
            ref, coords = rep._span = span_basis(rep, ref_order)
        # the orientation sign is a homomorphism on the automorphism group,
        # so the strong generators decide alternation
        alternating = all(orientation_sign([p[s] for s in ref], ref, coords) > 0 for p in gens)
        orbit = Orbit(
            id=self._new_id(c.rank, c.dim),
            rep=rep,
            alternating=alternating,
            ref_orientation=ref,
            aut_gens=gens,
        )
        self._insert(orbit)
        return orbit, perm, True

    def add_seed(self, orbit: Orbit):
        if orbit.id in self.by_id:
            raise ValueError(f"duplicate orbit id {orbit.id}")
        self._insert(orbit)


def format_registry(reg: OrbitRegistry) -> str:
    lines = [f"# orbit registry g={reg.g}"]
    for orbit in reg.orbits:
        lines.append(format_cone(orbit.rep).rstrip("\n"))
        lines.append(f"alt={1 if orbit.alternating else 0} rank={orbit.rank}")
        lines.append("orient " + " ".join(str(i) for i in orbit.ref_orientation))
    return "\n".join(lines) + "\n"


def parse_registry(text: str) -> OrbitRegistry:
    recs = records(text)
    k = 0
    reg = None
    while recs[k][1]:
        ln = recs[k][0]
        c, k = parse_cone(recs, k)
        if reg is None:
            reg = OrbitRegistry(c.g)
        if c.g != reg.g:
            raise ValueError(f"line {ln}: g={c.g}, but the registry has g={reg.g}")
        i, flags = recs[k]
        if not flags:
            raise ValueError(f"line {i}: orbit block ended early")
        fields = dict(tok.split("=", 1) for tok in flags if "=" in tok)
        alt = fields.get("alt")
        if alt not in ("0", "1") or "rank" not in fields:
            raise ValueError(f"line {i}: malformed orbit flags")
        rank = int_field(fields["rank"], i)
        if rank != c.rank:
            raise ValueError(f"line {i}: rank={rank}, but the cone has rank {c.rank}")
        i, orient = recs[k + 1]
        k += 2
        if orient[:1] != ["orient"]:
            raise ValueError(f"line {i}: expected an orient line")
        ref = tuple(int_field(x, i) for x in orient[1:])
        n = len(c.generators)
        try:
            if any(not 0 <= s < n for s in ref):  # a negative index would wrap
                raise ValueError
            coords = span_coordinates(c, ref)
        except ValueError:
            raise ValueError(
                f"line {i}: orient needs {c.dim} distinct generator indices "
                "whose forms span the cone"
            ) from None
        if alt == "1" and len(ref) < n:
            c._span = ref, coords  # the basis its facet signs are read in
        orbit = Orbit(
            id=reg._new_id(rank, c.dim),
            rep=c,
            alternating=alt == "1",
            ref_orientation=ref,
        )
        reg.add_seed(orbit)
    if reg is None:
        raise ValueError(f"line {recs[k][0]}: registry text held no orbits")
    return reg
