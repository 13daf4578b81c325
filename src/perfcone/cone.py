"""Polyhedral geometry of cones spanned by rank-1 forms v v^t.

A cone is stored by its generating vectors (one per +- pair). Generators
of such cones are always extreme rays: each v v^t spans an extreme ray of
the positive semidefinite cone, hence of any subcone containing it. Cones
here are automatically pointed for the same reason, so face identity by
generator subset is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import gcd
from operator import add, sub
from typing import Iterable, Sequence

from .intlinalg import (
    Echelon,
    flatten_rank1,
    mat_vec,
    pick_basis,
    rank_rows,
    sign_normalize,
    snf_left,
    vec_gcd,
)


class PerfectCone:
    """Cone spanned by {v v^t} for a finite set of primitive vectors."""

    # _flat, _dim, _rank, _gram, _profiles, _fingerprint and _reduction
    # (a boundary cone's core, see reduce) are derived values, filled on
    # first use or handed over by pad, and kept with the cone; so are
    # _search, the state of a full-rank cone as the source of an
    # equivalence search, which symmetry._full_rank_maps fills, and _dual,
    # (ref, coords, M): the span_basis that facet_index_sets made for
    # itself, with M None, or the one quadform._facet_normal made, with
    # the dual basis M that it adds to either
    __slots__ = (
        "g", "generators", "_flat", "_dim", "_rank", "_gram", "_profiles", "_fingerprint", "_reduction",
        "_search", "_dual",
    )

    def __init__(self, g: int, generators: Iterable[Sequence[int]]):
        if g < 0:
            raise ValueError("ambient dimension must be nonnegative")
        norm = []
        for v in generators:
            v = tuple(int(x) for x in v)
            if len(v) != g:
                raise ValueError(f"generator {v} does not have length {g}")
            if vec_gcd(v) != 1:
                raise ValueError(f"generator {v} is not primitive")
            norm.append(sign_normalize(v))
        if len(set(norm)) != len(norm):
            raise ValueError("generators repeat a +- pair")
        self._start(g, tuple(sorted(norm)))

    def _start(self, g: int, generators: tuple[tuple[int, ...], ...]) -> None:
        """Set the cone on checked generators: primitive, sign-normalized,
        distinct and sorted; no derived value is known yet."""
        self.g = g
        self.generators = generators
        self._flat = None
        self._dim = None
        self._rank = None
        self._gram = None
        self._profiles = None
        self._fingerprint = None
        self._reduction = None
        self._search = None
        self._dual = None

    @property
    def flat(self) -> tuple[tuple[int, ...], ...]:
        """The generator forms v v^t as flatten_rank1 rows, in generator
        order: the rows of dim, span_basis and the facet normals."""
        if self._flat is None:
            self._flat = tuple(map(flatten_rank1, self.generators))
        return self._flat

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = rank_rows(self.flat)
        return self._dim

    @property
    def rank(self) -> int:
        if self._rank is None:
            g = self.g
            if self._dim is not None and 2 * self._dim > g * (g - 1):
                self._rank = g  # a lower rank r allows dimension r(r+1)/2 at most
            else:
                self._rank = rank_rows(self.generators) if self.generators else 0
        return self._rank

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G_ij = v_i^t adj(T) v_j for T the sum of the v v^t; its trace
        is g det T. Defined for full-rank cones only: a boundary cone
        raises ValueError, and its Gram matrix is that of its reduced
        core (reduce). A facet of a cone whose G is known gets its own
        from G by gram_downdate (see facet). T's upper triangle sums the
        flattened generators (flat, when known). One Echelon of [T | V],
        V the generators as columns, pivots on 0..g-1 iff the cone has
        full rank, and its Jordan form on V is W = adj(T) V. Row i of G up
        to the diagonal combines the rows of W by v_i's entries; adj(T)
        is symmetric, so that lower triangle is then mirrored."""
        if self._gram is None:
            g = self.g
            gens = self.generators
            flat = self._flat if self._flat is not None else map(flatten_rank1, gens)
            upper = map(sum, zip(*flat))  # empty for the zero cone
            t = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    t[i][j] = t[j][i] = next(upper, 0)
            basis = Echelon()
            for k, row in enumerate(t):
                basis.add(row + [v[k] for v in gens])
            if basis.pivots != list(range(g)):
                raise ValueError(
                    "the Gram matrix needs a full-rank cone; take it on the reduced core (cone.reduce)"
                )
            w = basis.jordan(range(g, g + len(gens)))
            low = []
            for i, v in enumerate(gens):
                row = None  # v_i is primitive, so some entry is nonzero
                for x, r in zip(v, w):
                    if not x:
                        continue
                    if row is None:
                        row = r[: i + 1] if x == 1 else [x * b for b in r[: i + 1]]
                    elif x == 1:
                        row = list(map(add, row, r))
                    elif x == -1:
                        row = list(map(sub, row, r))
                    else:
                        row = [a + x * b for a, b in zip(row, r)]
                low.append(row)
            self._gram = _mirror(low)
        return self._gram

    @property
    def profiles(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(G_ii, sorted |G_ij| over j != i) for each generator i. A map
        of cones sends each generator to one with the same profile."""
        if self._profiles is None:
            equal: dict[tuple, tuple] = {}  # equal profiles share one tuple
            out = []
            for i, row in enumerate(self.gram):
                p = (row[i], tuple(sorted(map(abs, row[:i] + row[i + 1 :]))))
                out.append(equal.setdefault(p, p))
            self._profiles = tuple(out)
        return self._profiles

    @property
    def fingerprint(self) -> tuple:
        """The GL_g(Z) invariant the orbit registry sorts cones by:
        ("zero",) for the zero cone, else the rank, the dimension and the
        sorted profiles of the core (reduce), one per generator. A
        conjugate cone has the same fingerprint, and so has a padded one
        (pad), so a registry that has it for one cone of an orbit has it
        for the orbit's representative."""
        if self._fingerprint is None:
            if not self.generators:
                self._fingerprint = ("zero",)
            else:
                core = reduce(self)[0]
                self._fingerprint = (self.rank, self.dim, tuple(sorted(core.profiles)))
        return self._fingerprint

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other):
        return (
            isinstance(other, PerfectCone)
            and self.g == other.g
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.g, self.generators))

    def __repr__(self):
        return f"PerfectCone(g={self.g}, n={len(self.generators)}, dim={self.dim}, rank={self.rank})"

    def subcone(self, indices: Iterable[int]) -> "PerfectCone":
        """The cone on the generators at indices, each in range(n).

        The cone's generators are already checked and sorted, and so is
        any subset of them taken in index order: the subcone takes them
        as they are, without the constructor's checks."""
        keep = sorted(set(indices))
        gens = self.generators
        if keep and (keep[0] < 0 or keep[-1] >= len(gens)):
            raise ValueError(f"generator indices must lie in range({len(gens)})")
        c = PerfectCone.__new__(PerfectCone)
        c._start(self.g, tuple([gens[i] for i in keep]))
        return c

    def facet(self, indices: Iterable[int]) -> "PerfectCone":
        """The subcone on the generator indices of a facet (a mask from
        facet_index_sets, decoded by indices), whose dimension is by
        definition one less than the cone's. When the cone's Gram matrix
        is known, the cone has full rank, and gram_downdate derives the
        facet's Gram matrix from it; a facet that keeps full rank takes
        that matrix and rank g, and a boundary facet takes neither. The
        facet shares the cone's flattened rows when they are known."""
        keep = sorted(set(indices))
        f = self.subcone(keep)
        f._dim = self.dim - 1
        if self._flat is not None:
            f._flat = tuple(self._flat[i] for i in keep)
        if self._gram is not None:
            f._gram = gram_downdate(self._gram, self.g, keep)
            if f._gram is not None:
                f._rank = self.g
        return f


def gram_downdate(
    gram: Sequence[Sequence[int]], g: int, keep: Sequence[int]
) -> tuple[tuple[int, ...], ...] | None:
    """The Gram matrix of the generators keep (increasing indices) of a
    full-rank cone with Gram matrix gram, or None when they do not span.

    With D = det T = trace(G) / g, dropping generator k gives
    D' = D - G_kk = det(T - v_k v_k^t) and, by Sylvester's identity
    (Bareiss, Math. Comp. 1968; here Sherman-Morrison on T),
    G'_ij = (D' G_ij + G_ik G_jk) / D, an exact division, for the other
    i, j. The generators off keep are dropped one at a time, from the
    highest index down, so generator k is still at position k when it is
    dropped. Only the lower triangle is kept, as slices of the rows of
    gram: row k is made whole from column k below the diagonal, each
    remaining row is updated in one pass against it up to its diagonal,
    and position k is deleted from it. _mirror fills in the rest, so that
    G_ij and G_ji are one int, as in PerfectCone.gram. Every intermediate
    set contains keep, so D stays positive until the rank drops, and the
    first D' = 0 reports it.
    """
    kept = set(keep)
    low = [r[: i + 1] for i, r in enumerate(gram)]
    d = sum(gram[i][i] for i in range(len(gram))) // g
    for k in range(len(gram) - 1, -1, -1):
        if k in kept:
            continue
        rk = low.pop(k)
        rk = [*rk, *[r[k] for r in low[k:]]]
        d2 = d - rk[k]
        if d2 == 0:
            return None
        for i, ri in enumerate(low):
            # row i was at position i + (i >= k) before row k left
            a = rk[i + (i >= k)]
            ri = [(d2 * x + a * y) // d for x, y in zip(ri, rk)]
            if i >= k:
                del ri[k]
            low[i] = ri
        d = d2
    return _mirror(low)


def _mirror(low: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The symmetric matrix whose lower triangle (row i up to its
    diagonal entry) is low: row i continues with column i below the
    diagonal, so G_ij and G_ji are one int."""
    return tuple([tuple(r) + c[i + 1 :] for i, (r, c) in enumerate(zip(low, zip_longest(*low)))])


@dataclass(frozen=True)
class Face:
    """The face of parent on the generators whose bits are set in mask,
    generator i of n at bit n - 1 - i (face_mask, indices), as
    facet_index_sets gives it."""

    parent: PerfectCone
    mask: int


def face_mask(idx: Iterable[int], n: int) -> int:
    """The mask of the face on the generator indices idx, each in
    range(n), of a cone on n generators: generator i at bit n - 1 - i, so
    that a larger mask is a face whose sorted indices come first among
    faces that are not nested (see facet_index_sets)."""
    m = 0
    for i in idx:
        if not 0 <= i < n:
            raise ValueError(f"generator index {i} is not in range({n})")
        m |= 1 << n - 1 - i
    return m


def indices(mask: int, n: int) -> list[int]:
    """The generator indices, increasing, of a face mask of a cone on n
    generators (face_mask); a mask outside range(1 << n) raises
    ValueError."""
    if mask < 0 or mask >> n:
        raise ValueError(f"face mask {mask} is not in range(1 << {n})")
    # bin(mask | 1 << n) is "0b1" and then the n bits of mask, generator 0 first
    return [i for i, b in enumerate(bin(mask | 1 << n)[3:]) if b == "1"]


def pad(c: PerfectCone, g: int) -> PerfectCone:
    """Embed into a larger ambient dimension by appending zero coordinates.

    Appended zeros keep the generators primitive, sign-normalized,
    distinct and sorted. The padded cone keeps c's rank, dimension and
    fingerprint, as far as they are known, and a boundary result shares
    c's core (reduce), with its Gram matrix and search state.
    """
    if g < c.g:
        raise ValueError("pad target must not shrink the ambient dimension")
    tail = (0,) * (g - c.g)
    p = PerfectCone.__new__(PerfectCone)
    p._start(g, tuple([v + tail for v in c.generators]))
    if c.rank < g:
        p._reduction = reduce(c)
    p._dim, p._rank, p._fingerprint = c._dim, c._rank, c._fingerprint
    return p


def reduce(c: PerfectCone) -> tuple[PerfectCone, tuple[int, ...]]:
    """(core, local): the full-rank core of c, a cone of ambient rank(c),
    and local[i] the index in the core of the image of generator i.

    A full-rank cone is its own core, with local the identity, and
    nothing is kept on it (a kept pair would make the cone reference
    itself). A boundary cone takes U in GL_g(Z) from snf_left, with every
    U v zero past the first r = rank(c) coordinates: U maps the saturation
    of the generator span onto the coordinate sublattice. The core
    collects the sign-normalized truncations, and the pair is kept on
    the cone, so every caller shares one core (and its Gram matrix and
    search state). U is invertible and linear, so the core has the cone's
    dimension, which it takes over when known; any A' in GL_r(Z) between
    two cores lifts to diag(A', I) between the cones, in the coordinates
    of their U.
    """
    if c._reduction is not None:
        return c._reduction
    r = c.rank
    if r == c.g:
        return c, tuple(range(len(c.generators)))
    if not c.generators:
        core = PerfectCone(0, [])
        local: tuple[int, ...] = ()
    else:
        cols = [list(col) for col in zip(*c.generators)]  # g x n
        u, _d, rk = snf_left(cols)
        if rk != r:
            raise AssertionError("rank disagreement between elimination routes")
        truncs = []
        for v in c.generators:
            w = mat_vec(u, v)
            if any(w[r:]):
                raise AssertionError("row transform failed to flatten the span")
            truncs.append(sign_normalize(w[:r]))
        core = PerfectCone(r, truncs)
        at = {v: k for k, v in enumerate(core.generators)}
        local = tuple([at[v] for v in truncs])
    core._dim, core._rank = c._dim, r
    c._reduction = (core, local)
    return c._reduction


def spanning_subset(c: PerfectCone, order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Index subset (increasing) whose forms span the cone's linear span:
    the forms, taken in order (index order when None), that raise the
    rank of those before them (pick_basis).

    The pipeline takes this subset from span_basis, with the coordinates.
    This stays as the tests' reference for it, and because perfbench's
    tracer times it (cone.spanning_subset)."""
    if order is None:
        order = range(len(c.generators))
    return tuple(sorted(pick_basis(c.flat, order, c.g * (c.g + 1) // 2)[0]))


def _span_basis(
    rows: Sequence[Sequence[int]], order: Sequence[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """span_basis on the rows themselves; order lists every row index.

    A fraction-free Gauss-Jordan elimination over integers of the matrix
    A whose columns are the rows taken in order, one row per nonzero
    coordinate. Column p, left to right, pivots on the first unused row
    nonzero there, a pivot minimal in the product order, so the pivot
    columns and rows are the first ones independent of those before
    them (Dumas, Pernet and Sultan, ISSAC 2015): spanning_subset's pick
    and the leftmost coordinates that span. With d the last pivot (1 at
    first) and the pivot row r made positive at p, each other row s
    becomes (r[p] s - s[p] r) / d, exactly; r is zero left of p, so a
    unit pivot r[p] = d changes only the rows nonzero at p, from p on.
    At the end d = |det B|, B the pivot rows on the pivot columns, and
    column q of the pivot rows is d times the coordinates of row
    order[q] in the picked rows.
    """
    n = len(order)
    live = [list(col) for col in zip(*(rows[i] for i in order)) if any(col)]
    picked, done = [], []  # order[p] and the pivot row of A, per pivot column p
    d = 1
    for p in range(n):
        k = next((k for k, s in enumerate(live) if s[p]), None)
        if k is None:
            continue
        r = live.pop(k)
        if r[p] < 0:
            r = [-x for x in r]
        a = r[p]
        if a == d:
            tail = r[p:]
            for s in live + done:
                if f := s[p]:
                    if d == 1:
                        s[p:] = [x - f * y for x, y in zip(s[p:], tail)]
                    else:
                        s[p:] = [x - f * y // d for x, y in zip(s[p:], tail)]
        else:
            for s in live + done:
                f = s[p]
                s[:] = [(a * x - f * y) // d for x, y in zip(s, r)]
            d = a
        picked.append(order[p])
        done.append(r)
    done = [s for _, s in sorted(zip(picked, done))]  # in ref order
    at = dict(zip(order, zip(*done)))
    return tuple(sorted(picked)), tuple([at.get(i, ()) for i in range(n)])


def span_basis(
    c: PerfectCone, order: Sequence[int] | None = None
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(ref, coords): ref = spanning_subset(c, order), increasing, and
    coords[r] the coordinates of generator form r in the basis of the
    forms of ref, times one D > 0, so that coords[ref[k]] = D e_k.

    order is a permutation of the generator indices (index order when
    None). D is |det| of the basis forms on the leftmost coordinates
    that span, so the coordinates are the same for every order that
    picks the same ref. One elimination of the flattened generators
    gives ref, coords and the dimension, which is kept on the cone.
    """
    flat = c.flat
    ref, coords = _span_basis(flat, range(len(flat)) if order is None else order)
    c._dim = len(ref)
    return ref, coords


def _bit_rows(n: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Tables for reading masks of n bits four bits at a time: a pair
    (lo, t) for each lo = 0, 4, 8, ... below n, where t[x] holds the
    indices lo + j, increasing, for the set bits j of the nibble x."""
    tables = []
    for lo in range(0, n, 4):
        t = [()]
        for j in range(lo, min(lo + 4, n)):
            t += [s + (j,) for s in t]
        tables.append((lo, t))
    return tables


def _dd_core(coords: Sequence[Sequence[int]], init: Sequence[int]) -> list[int]:
    """Double description insertion on rows 0..n-1 of a cone's span, given
    by coordinates: coords[i][k] is row i's coordinate on the basis row
    init[k], times one positive factor. The first d rays are cut out by
    the d rows init; the other rows are inserted by index, for
    deterministic output. Returns the active set of each extreme ray as a
    bitmask whose bit i is set exactly when the ray is tight on row i. An
    initial ray is tight on the d - 1 other initial rows, and a positive
    combination of an adjacent pair is tight on their common active set
    plus the row being inserted, so the masks need no recomputation.

    Only the signs of <w, y_i> on rows not yet inserted matter, so a ray
    is kept as those values alone, up to a positive factor: initial ray k
    (dual to init[k]) takes the coordinates on init[k]; a combination,
    the same combination of its pair's values. The last insertion forms
    masks alone.

    Adjacency is decided by the rank criterion (Fukuda-Prodon, "Double
    description method revisited", 1996): two extreme rays of the pointed
    cone cut out by the inserted rows are adjacent iff their common
    active rows have rank d - 2, so a pair that meets on fewer than d - 2
    rows is not adjacent. An extreme ray's active rows have rank d - 1;
    call it simple when exactly d - 1 inserted rows are tight on it, which
    are then independent, and degenerate otherwise. Let a pair meet on at
    least d - 2 rows that a simple ray r is tight on. The meet is not all
    d - 1 rows of r, or both rays of the pair would be r's ray; so it is
    d - 2 independent rows, which cut out a 2-face, and a 2-face has
    exactly two extreme rays. Hence a pair with a simple ray is adjacent
    with no test, and no simple third ray is tight on the meet of a pair:
    a pair of two degenerate rays is adjacent iff no third degenerate ray
    is tight on its meet.

    Rays have ids, reused once a ray is cut off, and deg[j] is the bitset
    of the live degenerate rays tight on row j, so such a pair is adjacent
    iff the AND of deg[j] over its meet is the pair itself. The meet has a
    row only when d >= 3; for d < 3 the test reads an empty meet and
    misses facets, so a row left to insert there raises AssertionError.
    Rank-1 forms never reach it, as any three distinct forms v v^t are
    linearly independent, and facet_index_sets contracts series classes
    only down to dimension 3. The first such pair of an insertion reads
    deg into one table per block of four rows lo..lo+3: entry x is the AND
    of deg over the rows lo + j for the set bits j of x (-1 for x = 0), so
    the AND over a meet is one lookup per block. deg changes only between
    insertions, so the tables hold for every pair of the insertion that
    built them, and an insertion with no such pair builds none. Each
    insertion then updates deg in place: the cut-off rays leave every
    entry; a ray tight on the inserted row was tight on d - 1 rows or
    more, so it is now degenerate, and it joins the rows of its mask if it
    was simple, the inserted row's entry if not; a new ray tight on d rows
    or more joins the rows of its mask.
    """
    n = len(coords)
    d = len(init)
    chosen = set(init)
    rest = [i for i in range(n) if i not in chosen]
    if d < 3 and rest:
        raise AssertionError(f"the double description cannot insert rows in dimension {d} < 3")
    # slack[k]: ray k's values on the rows still to insert, the next last
    slack = [_reduced([coords[i][k] for i in reversed(rest)]) for k in range(d)]
    full = sum(1 << i for i in init)
    masks = [full & ~(1 << i) for i in init]
    deg = [0] * n  # every initial ray is simple
    live = list(range(d))
    tables = _bit_rows(n)
    d1, d2 = d - 1, d - 2
    for i in rest:
        bit = 1 << i
        # a side's entry: (id, value on row i, mask, simple, 1 << id)
        plus, zero, minus = [], [], []
        for k in live:
            v = slack[k].pop()
            if v:
                m = masks[k]
                (plus if v > 0 else minus).append((k, v, m, m.bit_count() == d1, 1 << k))
            else:
                zero.append(k)
                masks[k] |= bit
        last = i == rest[-1]
        born: list[int] = []  # masks of the new rays
        vals: list[list[int]] = []  # their slacks, unless this row is the last
        ands = None  # (lo, a) per block of rows, built at the first degenerate pair
        for kp, vp, mp, sp, bp in plus:
            for km, vm, mm, sm, bm in minus:
                meet = mp & mm
                if meet.bit_count() < d2:
                    continue
                if not (sp or sm):
                    if ands is None:
                        ands = []
                        for lo in range(0, n, 4):
                            a = [-1]
                            for j in range(lo, min(lo + 4, n)):
                                dj = deg[j]
                                a += [x & dj for x in a]
                            ands.append((lo, a))
                    common = -1
                    for lo, a in ands:
                        common &= a[meet >> lo & 15]
                    if common != bp | bm:
                        continue
                born.append(meet | bit)
                if not last:
                    comb = [vp * y - vm * x for x, y in zip(slack[kp], slack[km])]
                    vals.append(_reduced(comb))
        if last:
            return [p[2] for p in plus] + [masks[k] for k in zero] + born
        # the cut-off rays leave deg, and the new rays take their ids first
        gone = sum(q[4] for q in minus if not q[3])
        if gone:
            deg = [t & ~gone for t in deg]
        free = [q[0] for q in minus]
        new = []
        join = []  # rays that turn degenerate, with their masks
        for m, v in zip(born, vals):
            if free:
                k = free.pop()
                masks[k], slack[k] = m, v
            else:
                k = len(masks)
                masks.append(m)
                slack.append(v)
            new.append(k)
            if m.bit_count() > d1:
                join.append((k, m))
        # a ray tight on row i is now tight on d rows or more
        for k in zero:
            m = masks[k]
            if m.bit_count() == d:
                join.append((k, m))
            else:
                deg[i] |= 1 << k
        for k, m in join:
            b = 1 << k
            for lo, t in tables:
                for j in t[m >> lo & 15]:
                    deg[j] |= b
        live = [p[0] for p in plus] + zero + new
    return [masks[k] for k in live]


def _reduced(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries; v itself when it is zero."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _series_classes(
    n: int, ref: Sequence[int], coords: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The generators grouped by their Gale vectors up to a positive
    factor, read off a span_basis (ref, coords): the j-th free generator
    f_j has e_j, and ref[k] has -coords[f_j][k] over j. Each zero vector
    is a class of its own. The classes of the free generators come first,
    in index order, each led by its free generator; a class without one
    is led by its smallest reference index."""
    at = set(ref)
    free = [i for i in range(n) if i not in at]
    classes = {tuple(int(j == k) for k in range(len(free))): [f] for j, f in enumerate(free)}
    for k, r in enumerate(ref):
        v = _reduced([-coords[f][k] for f in free])
        classes.setdefault(tuple(v) if any(v) else r, []).append(r)
    return list(classes.values())


def facet_index_sets(
    c: PerfectCone,
    *,
    _span: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None,
) -> list[int]:
    """The codimension-1 faces as generator masks (face_mask: generator i
    at bit n - 1 - i), in descending order, which sorts them as their
    sorted index tuples.

    Unless the dimension is already known to be n (simplicial), one
    span_basis of the cone gives it, and the double description runs in
    the span, on the coordinates of the generator forms in the basis ref:
    it starts from ref and needs no elimination or projection of its own.
    _span, when given, is a span_basis(c, order) already made (the
    registry's, for a new orbit), taken in place of that elimination;
    the facet set does not depend on the basis it is found in. A span
    made here is kept on the cone (PerfectCone._dual), where the facet
    normals of the Voronoi walk read it (quadform._facet_normal).

    The forms y_i satisfy n - d independent linear relations, one per
    free (non-reference) generator f_j: D y_{f_j} = sum_k coords[f_j][k]
    y_{ref[k]}. Generator i's Gale vector g_i holds its coefficients in
    them, and the values a_i = <w, y_i> of the linear functionals w are
    exactly the a with sum a_i g_i = 0. So a set T of generators is the
    complement of a face iff the g_i over T have a relation with every
    coefficient positive, and the facets are the complements of the
    minimal such T (Gale duality: Ziegler, Lectures on Polytopes, ch. 6).
    Two members of T whose Gale vectors are positive multiples (a series
    class, _series_classes) can pool their coefficients on one of them,
    so a minimal T holds at most one member of a class, and any member
    can stand in for it. Slicing coords to the kept rows and the kept
    reference columns contracts the dropped reference generators: it
    deletes their Gale vectors and keeps the others. So when one member
    per class leaves dimension 3 or more, the double description runs on
    the classes, each kept by its free member where it has one, so that
    every dropped row is a reference row; a facet that misses classes
    C_1..C_m expands to the facets that miss one member of each. D5's 20
    rows in dimension 15 become 10 rows in dimension 5. A cone with no
    class of two runs on its own rows.

    The facets are the active sets of the extreme rays of the dual cone,
    as masks with generator i at bit n - 1 - i (face_mask). Facets are
    never nested, so the smallest index in which two facets differ lies
    in the one whose sorted tuple comes first, and that one has the
    larger mask: one descending sort of the masks sorts the facets. The
    class path expands masks of n bits directly, and the double
    description on the cone's own rows takes generator i as row
    n - 1 - i, so its masks are in this order as they come.
    """
    n = len(c.generators)
    if _span is None and c._dim != n:
        _span = span_basis(c)
        c._dual = (*_span, None)
    if c._dim == n:
        full = (1 << n) - 1  # drop generator n - 1, n - 2, ..., 0
        return [full ^ 1 << k for k in range(n)]
    ref, coords = _span
    classes = _series_classes(n, ref, coords)
    nfree = n - len(ref)
    # the contracted dimension is len(classes) - nfree
    if len(classes) < n and len(classes) - nfree >= 3:
        # class p is row p, led by its kept member; the free-led ones come first
        at = {r: k for k, r in enumerate(ref)}
        cols = [at[cl[0]] for cl in classes[nfree:]]
        rows = [[coords[cl[0]][k] for k in cols] for cl in classes]
        bits = [[1 << n - 1 - i for i in cl] for cl in classes]
        masks = []
        for m in _dd_core(rows, range(nfree, len(classes))):
            expanded = [(1 << n) - 1]
            for p, b in enumerate(bits):
                if not m >> p & 1:
                    expanded = [x ^ y for y in b for x in expanded]
            masks += expanded
    else:
        masks = _dd_core(coords[::-1], [n - 1 - i for i in ref])
    masks.sort(reverse=True)
    return masks


def format_cone(c: PerfectCone) -> str:
    lines = [f"cone g={c.g} n={len(c.generators)}"]
    for v in c.generators:
        lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


def records(text: str | Sequence[str]) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each line of text, a string or its lines,
    that keeps a token once `#` and all after it are cut: the one comment
    rule of every text format here. The list ends with (last line + 1,
    []), the line at which a text that ends early is refused."""
    lines = text.splitlines() if isinstance(text, str) else text
    out = [(ln, t) for ln, s in enumerate(lines, start=1) if (t := s.split("#", 1)[0].split())]
    return out + [(len(lines) + 1, [])]


def int_field(token: str, ln: int) -> int:
    """An integer field of line ln of a text format."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {ln}: expected an integer, got {token!r}") from None


def parse_cone(recs: Sequence[tuple[int, list[str]]], k: int = 0) -> tuple[PerfectCone, int]:
    """Parse the cone block at recs[k], recs as records gives them;
    returns (cone, the index of the record after the block)."""
    ln, head = recs[k]
    try:
        word, g, n = head
        g, n = int(g.removeprefix("g=")), int(n.removeprefix("n="))
        if word != "cone" or g < 0 or n < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"line {ln}: malformed cone header") from None
    gens = []
    for i, row in recs[k + 1 : k + 1 + n]:
        if not row:
            raise ValueError(f"line {i}: cone block ended early")
        if len(row) != g:
            raise ValueError(f"line {i}: expected {g} integers")
        gens.append(tuple(int_field(x, i) for x in row))
    try:
        return PerfectCone(g, gens), k + 1 + n
    except ValueError as exc:
        raise ValueError(f"line {ln}: {exc}") from None
