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
far, as in McKay-Piperno's backtrack). The orientation sign and the
determinant are homomorphisms, so the alternation and reflection tests
read only the generators; the full group, where a caller wants it, is
their closure under composition.

All arithmetic here is on integers: inverses appear only as adjugates
with a divisibility test, and span coordinates are scaled by a positive
determinant, which keeps every orientation sign taken on them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    det_int,
    det_sign,
    identity_matrix,
    mat_mul,
    mat_vec,
    sign_normalize,
    unimodular_inverse,
)


@dataclass(frozen=True)
class ConeTransform:
    matrix: tuple[tuple[int, ...], ...]
    source: PerfectCone
    target: PerfectCone
    perm: tuple[int, ...]

    def check(self) -> bool:
        if det_int(self.matrix) not in (1, -1):
            return False
        if len(self.source.generators) != len(self.target.generators):
            return False
        return _ray_perm(self.matrix, self.source, _ray_index(self.target)) == self.perm

    def inverse(self) -> "ConeTransform":
        inv = unimodular_inverse([list(r) for r in self.matrix])
        back = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            back[j] = i
        return ConeTransform(
            tuple(tuple(r) for r in inv), self.target, self.source, tuple(back)
        )


def _identity_transform(c: PerfectCone) -> ConeTransform:
    return ConeTransform(
        tuple(tuple(row) for row in identity_matrix(c.g)),
        c,
        c,
        tuple(range(len(c.generators))),
    )


def _ray_index(c: PerfectCone) -> dict[tuple[int, ...], int]:
    return {v: j for j, v in enumerate(c.generators)}


def _ray_perm(a, source: PerfectCone, index: dict[tuple[int, ...], int]) -> tuple[int, ...] | None:
    """The ray permutation the matrix a induces from the source cone onto
    the cone whose _ray_index is index, or None when some image is not a
    ray of that cone or two rays land on the same one."""
    perm = []
    hit = set()
    for v in source.generators:
        j = index.get(sign_normalize(mat_vec(a, v)))
        if j is None or j in hit:
            return None
        hit.add(j)
        perm.append(j)
    return tuple(perm)


def _assignment_order(
    c: PerfectCone, cand: list[tuple[int, ...]]
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


def _full_rank_maps(c1: PerfectCone, c2: PerfectCone, group: bool = False) -> list[tuple]:
    """Matrices A in GL_g(Z) with A . c1 = c2 (as +- pairs), as (A, perm)
    pairs, perm the ray permutation A induces, up to the global flip -A.

    Both cones must be full rank with equal ambient g. By default the
    result is the first realization the search meets, or nothing. With
    group=True (and c2 = c1) it is a strong generating set of the
    stabilizer for the base b = order[:prefix_len]: for every k, the
    generators fixing the rays b_1..b_k generate G_k, the group of all
    elements that fix them. The list holds every element of G_prefix_len
    (the kernel of the action on rays lies in it) and, for each k, one
    element of G_k for each image of b_(k+1) that the generators found
    before it do not reach. -I is never listed; its det is (-1)^g.

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
      up to sign, are distinct for distinct rays, so the images of all
      generators are read off the Gram rows by one dict lookup each, and
      a generator whose row is not found has no image among the rays;
    - the profile multisets are equal, so the Gram traces g det T are,
      and det T1 = det T2 > 0. Taking determinants of the prefix Gram
      matrices, with det adj(T) = det(T)^(g-1), gives det(V)^2 =
      det(W)^2, so |det A| = 1;
    - the search checks that W adj(V) / det V = A is integral, and an
      integer matrix of determinant +-1 lies in GL_g(Z).
    Callers that read the sign of det A take it themselves.
    """
    g = c1.g
    n = len(c1.generators)
    if len(c2.generators) != n or c1.dim != c2.dim:
        return []
    if n == 0:
        return [(tuple(tuple(r) for r in identity_matrix(g)), ())]
    g1 = c1.gram
    g2 = c2.gram
    prof1 = c1.profiles
    prof2 = c2.profiles
    if Counter(prof1) != Counter(prof2):
        return []
    where: dict[tuple, list[int]] = {}
    for j, p in enumerate(prof2):
        where.setdefault(p, []).append(j)
    cand = [tuple(where[p]) for p in prof1]
    order, prefix_len, vadj, vdet = _assignment_order(c1, cand)
    if prefix_len < g:
        raise AssertionError("full-rank cone without a spanning prefix")
    prefix = order[:prefix_len]
    # the signed prefix rows of c1, up to sign: the images' keys
    keys = [sign_normalize([row[p] for p in prefix]) for row in g1]
    assign: dict[int, int] = {}
    used = [False] * n

    def realize(every: bool) -> list[tuple]:
        """The matrices that extend the complete prefix assignment, one per
        sign pattern (all of them, or only the first)."""
        # signs on the prefix, up to a global flip
        eps: dict[int, int] = {}
        comps: list[int] = []
        root_of: dict[int, int] = {}
        for a in prefix:
            if a in eps:
                continue
            comps.append(a)
            eps[a] = 1
            root_of[a] = a
            stack = [a]
            while stack:
                x = stack.pop()
                for y in prefix:
                    if g1[x][y] == 0 or x == y:
                        continue
                    rel = 1 if (g2[assign[x]][assign[y]] > 0) == (g1[x][y] > 0) else -1
                    want = eps[x] * rel
                    if y in eps:
                        if eps[y] != want:
                            return []
                    else:
                        eps[y] = want
                        root_of[y] = a
                        stack.append(y)
        found = []
        for mask in range(1 << (len(comps) - 1)):
            flip = {comps[0]: 1}
            for b, root in enumerate(comps[1:]):
                flip[root] = -1 if (mask >> b) & 1 else 1
            signed = [(assign[a], eps[a] * flip[root_of[a]]) for a in prefix]
            image = {
                sign_normalize([s * row[j] for j, s in signed]): k for k, row in enumerate(g2)
            }
            perm = tuple(image.get(key, -1) for key in keys)
            if -1 in perm or len(set(perm)) != n:
                continue
            wmat = [[s * c2.generators[j][k] for j, s in signed] for k in range(g)]
            amat = mat_mul(wmat, vadj)
            # A = W V^{-1} is integral iff every entry of W adj(V) is divisible by det V
            if any(x % vdet for row in amat for x in row):
                continue
            found.append((tuple(tuple(x // vdet for x in row) for row in amat), perm))
            if not every:
                break
        return found

    def first(pos: int, images: Iterable[int] | None = None) -> list[tuple]:
        """One realization extending the current assignment, with
        order[pos] sent into images (default: every candidate), or
        nothing; assign and used are restored before it returns."""
        if pos == prefix_len:
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
        # Sims' chain along the identity path: G_prefix_len is the kernel
        # of the action on the base; then, for pos = prefix_len - 1 .. 0,
        # the generators found so far lie in G_pos and one element of G_pos
        # is added for each image of order[pos] that they do not reach
        for i in prefix:
            assign[i] = i
            used[i] = True
        gens = realize(True)
        for pos in reversed(range(prefix_len)):
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


def _transform_from_matrix(a, c1: PerfectCone, c2: PerfectCone) -> ConeTransform | None:
    perm = _ray_perm(a, c1, _ray_index(c2))
    if perm is None:
        return None
    return ConeTransform(tuple(tuple(int(x) for x in row) for row in a), c1, c2, perm)


def equivalent(c1: PerfectCone, c2: PerfectCone) -> ConeTransform | None:
    """A witness transform in GL_g(Z), or None."""
    if c1.g != c2.g:
        raise ValueError("cones live in different ambient dimensions")
    if c1.is_zero() and c2.is_zero():
        return _identity_transform(c1)
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
        a = _lift_block([list(row) for row in inner.matrix], u1, u2, g, r)
        t = _transform_from_matrix(a, c1, c2)
        if t is None:
            raise AssertionError("lifted transform failed to map the cone")
        return t
    found = _full_rank_maps(c1, c2)
    if not found:
        return None
    a, perm = found[0]
    return ConeTransform(a, c1, c2, perm)


def _collect_maps(c: PerfectCone) -> dict[tuple[int, ...], tuple[tuple, set[int]]]:
    """All distinct induced ray permutations of a full-rank cone with a
    witness matrix and the set of witness determinants.

    The group is the closure of the strong generators under composition.
    The matrices inducing p are A_p K, for K the kernel of the action on
    rays (with -I in it), so their determinants are det(A_p) det(K).
    """
    g = c.g
    gens = [(a, perm, det_int(a)) for a, perm in _full_rank_maps(c, c, group=True)]
    ident = tuple(range(len(c.generators)))
    kernel = {1, (-1) ** g}
    kernel.update(det for _a, perm, det in gens if perm == ident)
    reached = {ident: (identity_matrix(g), 1)}
    stack = [ident]
    while stack:
        p = stack.pop()
        a, det = reached[p]
        for ga, gp, gdet in gens:
            q = tuple(gp[x] for x in p)
            if q not in reached:
                reached[q] = (mat_mul(ga, a), gdet * det)
                stack.append(q)
    return {
        p: (tuple(tuple(row) for row in a), {det * k for k in kernel})
        for p, (a, det) in reached.items()
    }


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


def automorphisms(c: PerfectCone) -> list[ConeTransform]:
    """Finite group of induced ray permutations, one witness matrix each.

    Boundary cones delegate to their reduction; witnesses are lifted back
    to the ambient dimension.
    """
    if c.is_zero():
        return [_identity_transform(c)]
    if c.rank < c.g:
        red, u, local = _reduction(c)
        out = []
        for perm_red, (a_red, _dets) in sorted(_collect_maps(red).items()):
            a = _lift_block([list(r) for r in a_red], u, u, c.g, c.rank)
            perm = _pull_back(perm_red, local)
            out.append(ConeTransform(tuple(tuple(int(x) for x in row) for row in a), c, c, perm))
        return out
    maps = _collect_maps(c)
    return [
        ConeTransform(a, c, c, perm) for perm, (a, _dets) in sorted(maps.items())
    ]


def stabilizer_has_reflection(c: PerfectCone) -> bool:
    """True iff some GL_g(Z) stabilizer element has determinant -1,
    i.e. the GL-orbit of the cone equals its SL-orbit.

    Boundary cones always qualify: a block stabilizer [[A', P], [0, M]]
    fixing the reduced core leaves det M free, so both signs occur. For
    odd g, -I qualifies. Otherwise det is a homomorphism, so some strong
    generator has det -1 exactly when some stabilizer element does.
    """
    if c.is_zero() or c.rank < c.g or c.g % 2:
        return True
    return any(det_int(a) == -1 for a, _perm in _full_rank_maps(c, c, group=True))


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


def orientation_sign(c: PerfectCone, t: ConeTransform) -> int:
    """Determinant sign of the induced map on span{v v^t}."""
    if t.source != c or t.target != c:
        raise ValueError("orientation sign needs an automorphism of c")
    if c.is_zero():
        return 1
    ref, coords = span_basis(c)
    rows = [coords[t.perm[s]] for s in ref]
    s = det_sign(rows)
    if s == 0:
        raise AssertionError("automorphism degenerated on the span")
    return s


def is_alternating(c: PerfectCone) -> bool:
    """True iff every automorphism preserves orientation on the span, as
    OrbitRegistry.add decides it for a new orbit."""
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

    def locate(self, c: PerfectCone) -> tuple[Orbit, ConeTransform] | None:
        fp = self.fingerprint(c)
        for orbit in self._buckets.get(fp, []):
            t = equivalent(c, orbit.rep)
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

    def add(self, c: PerfectCone, rng: random.Random | None = None) -> tuple[Orbit, ConeTransform, bool]:
        loc = self.locate(c)
        if loc is not None:
            return loc[0], loc[1], False
        if rng is None:
            rep = c
            t = _identity_transform(c)
            ref_order = None
        else:
            h = random_unimodular(c.g, rng)
            rep = conjugate_cone(c, h)
            t = _transform_from_matrix(h, c, rep)
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


def classify_orbits(cones: Iterable[PerfectCone], rng: random.Random | None = None) -> OrbitRegistry:
    cones = list(cones)
    if not cones:
        raise ValueError("no cones to classify")
    g = cones[0].g
    if any(c.g != g for c in cones):
        raise ValueError("cones must share the ambient dimension")
    reg = OrbitRegistry(g)
    for c in cones:
        reg.add(c, rng)
    return reg


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
