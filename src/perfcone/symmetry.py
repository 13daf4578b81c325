"""GL_g(Z)-equivalence of cones, automorphisms, orientations, orbits.

Equivalence search runs on full-rank cones; boundary cones are reduced
first and the witness matrix is lifted back. The pruning invariant is the
integer Gram matrix G_ij = v_i^t adj(T) v_j with T = sum of v v^t. It is
det T times the rational Gram matrix v_i^t T^{-1} v_j, and det T > 0 is a
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
full group is their closure under composition, with -I.

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
    reduce as cone_reduce,
    span_basis,
)
from .intlinalg import (
    Echelon,
    det_sign,
    identity_matrix,
    mat_mul,
    mat_vec,
    sign_normalize,
    unimodular_inverse,
)


# an equivalence witness: a matrix A in GL_g(Z), as a tuple of integer
# rows, and the ray permutation it induces, generator i of the source
# going to generator perm[i] of the target. equivalent(c1, c2) returns
# one from c1 to c2; OrbitRegistry.locate and add return one from the
# orbit's representative to the cone they were given.
Witness = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def _assignment_order(
    c: PerfectCone, cand: Sequence[Sequence[int]]
) -> tuple[list[int], int, list[list[int]] | None, int]:
    """Static DFS order: rank-increasing generators first (rarest profile
    wins ties), so the assigned prefix determines the matrix early.

    Returns (order, prefix_len, adj V, det V), V the matrix whose columns
    are the prefix generators order[:prefix_len]; when they do not reach
    rank g, adj V is None and det V is 0. One Echelon over the rows
    [v_i | e_k], k the slot v_i would take in the prefix, gives all
    three: a row is kept exactly when it raises the rank, so the kept
    rows are [V^t | I], and the Echelon's adjugate is adj(V^t), the
    transpose of adj V.
    """
    g = c.g
    gens = c.generators
    remaining = sorted(range(len(gens)), key=lambda i: (len(cand[i]), i))
    unit = [tuple(row) for row in identity_matrix(g)]
    basis = Echelon(g)
    order: list[int] = []
    for i in remaining:
        if basis.add(gens[i] + unit[len(order)]):
            order.append(i)
            if len(order) == g:
                break  # the prefix spans every column
    prefix_len = len(order)
    prefix = set(order)
    order.extend(i for i in remaining if i not in prefix)
    if prefix_len < g:
        return order, prefix_len, None, 0
    adj_t, det = basis.adjugate()
    return order, prefix_len, [list(col) for col in zip(*adj_t)], det


class _Source(NamedTuple):
    """A full-rank cone's state as the source c1 of a search, read off the
    cone alone and kept on it (PerfectCone._search)."""

    # the DFS order; its first g generators are the prefix, the columns of V
    order: tuple[int, ...]
    vadj: tuple[tuple[int, ...], ...]  # adj V
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
        vadj=tuple(map(tuple, vadj)),
        vdet=vdet,
        rows={tuple([row[p] for p in prefix]): i for i, row in enumerate(gram)},
        comp=tuple(comp_of[a] for a in prefix),
        roots=tuple(roots),
        tree=tuple(tree),
        checks=checks,
    )


def _full_rank_maps(c1: PerfectCone, c2: PerfectCone, group: bool = False) -> list[Witness]:
    """Matrices A in GL_g(Z) with A . c1 = c2 (as +- pairs), as (A, perm)
    pairs, generator i of c1 going to generator perm[i] of c2, up to the
    global flip -A.

    Both cones must be full rank with equal ambient g. By default the
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
      row of c2 is looked up, then its negation, among the rows of c1:
      when every one is found, the images form a bijection, and a row
      that is not found is a ray with no preimage;
    - the profile multisets are equal, so the Gram traces g det T are,
      and det T1 = det T2 > 0. Taking determinants of the prefix Gram
      matrices, with det adj(T) = det(T)^(g-1), gives det(V)^2 =
      det(W)^2, so |det A| = 1;
    - the search checks that W adj(V) / det V = A is integral (always,
      when det V = +-1), and an integer matrix of determinant +-1 lies in
      GL_g(Z).
    """
    g = c1.g
    n = len(c1.generators)
    # a full-rank cone's fingerprint is its dimension and sorted profiles
    if c1.fingerprint != c2.fingerprint:
        return []
    if n == 0:
        return [(tuple(tuple(r) for r in identity_matrix(g)), ())]
    g1 = c1.gram
    g2 = c2.gram
    prof1 = c1.profiles
    prof2 = c2.profiles
    src = c1._search
    if src is None:
        src = c1._search = _search_source(c1)
    order, vadj, vdet, rows, comp, roots, tree, checks = src
    prefix = order[:g]
    gens2 = c2.generators
    where: dict[tuple, list[int]] = {}
    for j, p in enumerate(prof2):
        where.setdefault(p, []).append(j)
    cand = [where[p] for p in prof1]
    assign: dict[int, int] = {}
    used = [False] * n

    def realize(every: bool) -> list[Witness]:
        """The matrices that extend the complete prefix assignment, one per
        sign pattern (all of them, or only the first)."""
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
            perm = [0] * n
            for j, row in enumerate(g2):
                key = tuple([s * row[b] for b, s in signed])
                i = rows.get(key)
                if i is None:
                    i = rows.get(tuple([-x for x in key]))
                    if i is None:
                        break
                perm[i] = j
            else:
                wmat = [[s * gens2[b][k] for b, s in signed] for k in range(g)]
                amat = mat_mul(wmat, vadj)
                # A = W V^{-1} is integral iff every entry of W adj(V) is divisible by det V
                if vdet not in (1, -1) and any(x % vdet for row in amat for x in row):
                    continue
                found.append((tuple(tuple(x // vdet for x in row) for row in amat), tuple(perm)))
                if not every:
                    break
        return found

    def first(pos: int, images: Iterable[int] | None = None) -> list[Witness]:
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
            orbit = _orbit(i, [perm for _a, perm in gens])
            for j in cand[i]:
                if j in orbit:
                    continue
                found = first(pos, (j,))
                if found:
                    gens.append(found[0])
                    orbit = _orbit(i, [perm for _a, perm in gens])
    del first  # first reaches itself through its closure cell: a reference cycle
    return gens


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


def _lift_block(a_red: Sequence[Sequence[int]], u1, u2, g: int, r: int):
    """U2^{-1} diag(a_red, I) U1, the ambient witness for reduced cones."""
    block = identity_matrix(g)
    for i in range(r):
        for j in range(r):
            block[i][j] = a_red[i][j]
    u2inv = unimodular_inverse(u2)
    return mat_mul(mat_mul(u2inv, block), u1)


def _witness(a, c1: PerfectCone, c2: PerfectCone) -> Witness | None:
    """(a, perm) when the matrix a sends generator i of c1 to +- generator
    perm[i] of c2, for every i, onto distinct generators; else None."""
    index = {v: j for j, v in enumerate(c2.generators)}
    perm = []
    for v in c1.generators:
        j = index.pop(sign_normalize(mat_vec(a, v)), None)
        if j is None:
            return None
        perm.append(j)
    return tuple(map(tuple, a)), tuple(perm)


def equivalent(c1: PerfectCone, c2: PerfectCone) -> Witness | None:
    """A witness (A, perm) with A in GL_g(Z) mapping c1 onto c2, or None."""
    if c1.g != c2.g:
        raise ValueError("cones live in different ambient dimensions")
    if c1.is_zero() and c2.is_zero():
        return _witness(identity_matrix(c1.g), c1, c2)
    if c1.is_zero() or c2.is_zero():
        return None
    if (c1.rank, c1.dim, len(c1.generators)) != (c2.rank, c2.dim, len(c2.generators)):
        return None
    g = c1.g
    if c1.rank < g:
        r = c1.rank
        red1, u1 = cone_reduce(c1)
        red2, u2 = cone_reduce(c2)
        inner = equivalent(red1, red2)
        if inner is None:
            return None
        t = _witness(_lift_block(inner[0], u1, u2, g, r), c1, c2)
        if t is None:
            raise AssertionError("lifted transform failed to map the cone")
        return t
    found = _full_rank_maps(c1, c2)
    return found[0] if found else None


def _reduction(c: PerfectCone) -> tuple[PerfectCone, list[list[int]], list[int]]:
    """(c', U, local) for a boundary cone, with (c', U) = reduce(c) and
    local[i] the index in c' of the truncated image of generator i."""
    red, u = cone_reduce(c)
    local = [
        red.generators.index(sign_normalize(tuple(mat_vec(u, v)[: c.rank])))
        for v in c.generators
    ]
    return red, u, local


def _pull_back(perm_red: tuple[int, ...], local: list[int]) -> tuple[int, ...]:
    """A ray permutation of the reduction, read on the original rays."""
    back = {k: i for i, k in enumerate(local)}
    return tuple(back[perm_red[k]] for k in local)


def strong_generators(c: PerfectCone) -> list[tuple[int, ...]]:
    """Ray permutations of a strong generating set of the automorphism
    group (see _full_rank_maps); a boundary cone reads them off its
    reduction, whose stabilizer induces the same permutations."""
    if c.is_zero():
        return []
    if c.rank == c.g:
        return [perm for _a, perm in _full_rank_maps(c, c, group=True)]
    red, _u, local = _reduction(c)
    return [_pull_back(perm, local) for _a, perm in _full_rank_maps(red, red, group=True)]


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


def random_unimodular(g: int, rng: random.Random) -> list[list[int]]:
    m = identity_matrix(g)
    if g == 0:
        return m
    for _ in range(3 * g + 2):
        op = rng.randrange(3)
        i = rng.randrange(g)
        j = rng.randrange(g)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif op == 2 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def conjugate_cone(c: PerfectCone, h: Sequence[Sequence[int]]) -> PerfectCone:
    return PerfectCone(c.g, [mat_vec(h, v) for v in c.generators])


@dataclass
class Orbit:
    id: str
    rep: PerfectCone
    rank: int
    dim: int
    alternating: bool
    ref_orientation: tuple[int, ...]
    fingerprint: tuple
    # (facet bitmask, target id, eta): bit i is set when generator i of
    # rep lies on the facet; eta is the facet's orientation against the
    # target orbit's, or 0 unless both orbits are alternating
    facets: list[tuple[int, str, int]] = field(default_factory=list)
    # ray permutations of strong generators of Aut(rep), as
    # strong_generators returns them; None where no search was run
    # (the zero orbit, parsed registries)
    aut_gens: list[tuple[int, ...]] | None = None
    matroidal: bool = False
    coloop_count: int | None = None
    # span_coordinates(rep, ref_orientation) of an alternating orbit; each
    # facet sign eta is one determinant on these rows, not on the target's
    coords: tuple[tuple[int, ...], ...] | None = None


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
        self._buckets: dict[tuple, list[Orbit]] = {}
        self._counters: dict[tuple[int, int], int] = {}

    def fingerprint(self, c: PerfectCone) -> tuple:
        """The cone's fingerprint (PerfectCone.fingerprint), kept on it."""
        return c.fingerprint

    def locate(self, c: PerfectCone) -> tuple[Orbit, Witness] | None:
        """(orbit, witness) for the orbit of c, or None. The search runs from
        the orbit's representative, whose search state (_Source) serves
        every cone located against it: the witness sends generator i of
        orbit.rep to generator perm[i] of c."""
        fp = self.fingerprint(c)
        for orbit in self._buckets.get(fp, []):
            t = equivalent(orbit.rep, c)
            if t is not None:
                return orbit, t
        return None

    def _new_id(self, rank: int, dim: int) -> str:
        seq = self._counters.get((rank, dim), 0)
        self._counters[(rank, dim)] = seq + 1
        return f"r{rank}d{dim}n{seq}"

    def _insert(self, orbit: Orbit):
        self.orbits.append(orbit)
        self.by_id[orbit.id] = orbit
        self._buckets.setdefault(orbit.fingerprint, []).append(orbit)

    def add(self, c: PerfectCone, rng: random.Random | None = None) -> tuple[Orbit, Witness, bool]:
        """(orbit, witness, created): the orbit of c, a new one when locate
        finds none, and a witness as locate returns it, from orbit.rep to
        c. A new orbit's rep is c, or under rng its conjugate h c, and
        then the witness is h^-1."""
        loc = self.locate(c)
        if loc is not None:
            return loc[0], loc[1], False
        if rng is None:
            rep = c
            t = (tuple(map(tuple, identity_matrix(c.g))), tuple(range(len(c.generators))))
            ref_order = None
        else:
            h = random_unimodular(c.g, rng)
            rep = conjugate_cone(c, h)
            t = _witness(unimodular_inverse(h), rep, c)
            if t is None:
                raise AssertionError("conjugation failed to map the cone")
            ref_order = list(range(len(rep.generators)))
            rng.shuffle(ref_order)
        gens = strong_generators(rep)
        ref, coords = span_basis(rep, ref_order)
        # the orientation sign is a homomorphism on the automorphism group,
        # so the strong generators decide alternation, in any basis
        alternating = all(det_sign([coords[perm[s]] for s in ref]) > 0 for perm in gens)
        orbit = Orbit(
            id=self._new_id(c.rank, c.dim),
            rep=rep,
            rank=c.rank,
            dim=c.dim,
            alternating=alternating,
            ref_orientation=ref,
            # locate took c's fingerprint, which a conjugate rep shares
            fingerprint=c.fingerprint,
            aut_gens=gens,
            coords=coords if alternating else None,
        )
        self._insert(orbit)
        return orbit, t, True

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
    lines = text.splitlines()
    i = 0
    reg = None
    while i < len(lines):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        c, i = parse_cone(lines, i)
        if reg is None:
            reg = OrbitRegistry(c.g)
        if i + 1 >= len(lines):
            raise ValueError(f"line {len(lines) + 1}: orbit block ended early")
        flags = lines[i].split()
        i += 1
        alt = None
        rank = None
        for tok in flags:
            if tok.startswith("alt="):
                alt = tok[4:]
            elif tok.startswith("rank="):
                rank = int_field(tok[5:], i)
        if alt not in ("0", "1") or rank is None:
            raise ValueError(f"line {i}: malformed orbit flags")
        if rank != c.rank:
            raise ValueError(f"line {i}: rank={rank}, but the cone has rank {c.rank}")
        orient_parts = lines[i].split()
        i += 1
        if not orient_parts or orient_parts[0] != "orient":
            raise ValueError(f"line {i}: expected an orient line")
        ref = tuple(int_field(x, i) for x in orient_parts[1:])
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
        orbit = Orbit(
            id=reg._new_id(rank, c.dim),
            rep=c,
            rank=rank,
            dim=c.dim,
            alternating=alt == "1",
            ref_orientation=ref,
            fingerprint=reg.fingerprint(c),
            coords=coords if alt == "1" else None,
        )
        reg.add_seed(orbit)
    if reg is None:
        raise ValueError("registry text held no orbits")
    return reg
