"""Polyhedral geometry of cones spanned by rank-1 forms v v^t.

A cone is stored by its generating vectors (one per +- pair). Generators
of such cones are always extreme rays: each v v^t spans an extreme ray of
the positive semidefinite cone, hence of any subcone containing it. Cones
here are automatically pointed for the same reason, so face identity by
generator subset is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intlinalg import (
    Echelon,
    adjugate_det,
    adjugate_int,
    dot,
    flatten_rank1,
    identity_matrix,
    mat_vec,
    pivot_columns,
    primitive_vector,
    rank_rows,
    sign_normalize,
    snf_left,
    vec_gcd,
)


class PerfectCone:
    """Cone spanned by {v v^t} for a finite set of primitive vectors."""

    # _dim, _rank, _gram and _reduction are derived values, filled on
    # first use and kept with the cone
    __slots__ = ("g", "generators", "_dim", "_rank", "_gram", "_reduction")

    def __init__(self, g: int, generators: Iterable[Sequence[int]]):
        if g < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.g = g
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
        self.generators = tuple(sorted(norm))
        self._dim = None
        self._rank = None
        self._gram = None
        self._reduction = None

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = rank_rows([flatten_rank1(v) for v in self.generators])
        return self._dim

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = rank_rows(self.generators) if self.generators else 0
        return self._rank

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G_ij = v_i^t adj(T) v_j for T the sum of the v v^t; for a
        full-rank cone its trace is g det T."""
        if self._gram is None:
            g = self.g
            t = [[0] * g for _ in range(g)]
            for v in self.generators:
                for i in range(g):
                    if v[i]:
                        for j in range(g):
                            t[i][j] += v[i] * v[j]
            adj = adjugate_int(t)
            rows = []
            for v in self.generators:
                tv = mat_vec(adj, v)
                rows.append(tuple(dot(w, tv) for w in self.generators))
            self._gram = tuple(rows)
        return self._gram

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
        gens = [self.generators[i] for i in sorted(set(indices))]
        return PerfectCone(self.g, gens)


@dataclass(frozen=True)
class Face:
    parent: PerfectCone
    generator_indices: frozenset

    @property
    def cone(self) -> PerfectCone:
        return self.parent.subcone(self.generator_indices)


def is_boundary(c: PerfectCone) -> bool:
    """True iff the cone misses the positive definite locus."""
    return c.rank < c.g


def pad(c: PerfectCone, g: int) -> PerfectCone:
    """Embed into a larger ambient dimension by appending zero coordinates."""
    if g < c.g:
        raise ValueError("pad target must not shrink the ambient dimension")
    tail = (0,) * (g - c.g)
    return PerfectCone(g, [v + tail for v in c.generators])


def reduce(c: PerfectCone) -> tuple[PerfectCone, tuple[tuple[int, ...], ...]]:
    """Block-form representative of a boundary cone.

    Returns (c', A) with A in GL_g(Z) such that every A v has zeros past
    the first rank(c) coordinates; c' collects the truncations. A maps the
    saturation of the generator span onto the coordinate sublattice, which
    is exactly the basis-extension contract. The pair is kept on the cone,
    so every caller shares one c' (and its Gram matrix); A is a tuple of
    rows for that reason.
    """
    if c._reduction is not None:
        return c._reduction
    r = c.rank
    if r >= c.g:
        raise ValueError("reduce expects a boundary cone (rank < g)")
    if not c.generators:
        u = identity_matrix(c.g)
        red = PerfectCone(0, [])
    else:
        cols = [list(col) for col in zip(*c.generators)]  # g x n
        u, _d, rk = snf_left(cols)
        if rk != r:
            raise AssertionError("rank disagreement between elimination routes")
        new_gens = []
        for v in c.generators:
            w = mat_vec(u, v)
            if any(w[r:]):
                raise AssertionError("row transform failed to flatten the span")
            new_gens.append(tuple(w[:r]))
        red = PerfectCone(r, new_gens)
    c._reduction = (red, tuple(tuple(row) for row in u))
    return c._reduction


def greedy_spanning(rows: Sequence[Sequence[int]], order: Iterable[int]) -> list[int]:
    """Lexicographically least (w.r.t. order) index subset whose rows span,
    in the order picked.

    A row is picked when it raises the rank of the rows picked before it,
    so one pass against a growing echelon basis finds the subset.
    """
    basis = Echelon()
    chosen: list[int] = []
    for i in order:
        if basis.add(rows[i]):
            chosen.append(i)
            if len(chosen) == len(rows[i]):
                break  # the picked rows span every column
    return chosen


def spanning_subset(c: PerfectCone, order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Index subset (increasing) whose forms span the cone's linear span."""
    rows = [flatten_rank1(v) for v in c.generators]
    if order is None:
        order = range(len(rows))
    return tuple(sorted(greedy_spanning(rows, order)))


def _dd_extreme_rays(ys: list[tuple[int, ...]]) -> list[int]:
    """Active sets of the extreme rays of {w : <w, y_i> >= 0}, by double
    description insertion.

    The y_i must span R^d and generate a pointed cone (true for projected
    rank-1 forms). Insertion order is by index, for deterministic output.
    Each active set is a bitmask whose bit i is set exactly when
    <w, y_i> = 0 at the ray w. An initial ray is tight on the d - 1 other
    initial rows, and a positive combination of an adjacent pair is tight
    on their common active set plus the row being inserted, so the masks
    need no recomputation. The ray vectors serve only the next insertion,
    so the last one forms masks alone.

    Adjacency is the combinatorial test: no third ray's active set
    contains the pair's common one. Adjacent rays share at least d - 2
    active constraints, which discards most pairs before that test.
    """
    d = len(ys[0])
    n = len(ys)
    init = greedy_spanning(ys, range(n))
    if len(init) != d:
        raise AssertionError("constraints do not span the ambient space")
    adj, det = adjugate_det([list(ys[i]) for i in init])
    s = 1 if det > 0 else -1
    full = sum(1 << i for i in init)
    vecs: list[tuple[int, ...]] = []
    masks: list[int] = []
    for k in range(d):
        vecs.append(primitive_vector([s * adj[j][k] for j in range(d)]))
        masks.append(full & ~(1 << init[k]))
    chosen = set(init)
    rest = [i for i in range(n) if i not in chosen]
    for i in rest:
        final = i == rest[-1]
        a = ys[i]
        bit = 1 << i
        vals = [dot(a, w) for w in vecs]
        if all(v >= 0 for v in vals):
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        plus = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_vecs = [vecs[k] for k in plus] + [vecs[k] for k in zero]
        new_masks = [masks[k] for k in plus] + [masks[k] | bit for k in zero]
        for kp in plus:
            mp = masks[kp]
            for km in minus:
                meet = mp & masks[km]
                if meet.bit_count() < d - 2:
                    continue
                # meet lies in the pair's own two masks; adjacent iff in no other
                hits = 0
                for m in masks:
                    if meet & m == meet:
                        hits += 1
                        if hits > 2:
                            break
                else:
                    new_masks.append(meet | bit)
                    if not final:
                        vp, vm = vals[kp], vals[km]
                        comb = [vp * x - vm * y for x, y in zip(vecs[km], vecs[kp])]
                        new_vecs.append(primitive_vector(comb))
        vecs, masks = new_vecs, new_masks
    return masks


def facet_index_sets(c: PerfectCone) -> list[frozenset]:
    """Generator index sets of the codimension-1 faces.

    Unless the dimension is already known to be 0 or n (simplicial), one
    elimination of the flattened generators gives it (kept on the cone)
    together with the pivot columns that project the cone to a
    full-dimensional one. The facets are the active sets of the extreme
    rays of the dual cone, read off the double description masks bit by
    bit.
    """
    n = len(c.generators)
    if c._dim not in (0, n):
        flat = [flatten_rank1(v) for v in c.generators]
        piv = pivot_columns(flat)
        c._dim = len(piv)
    d = c._dim
    if d == 0:
        return []
    if n == d:
        out = [frozenset(range(n)) - {i} for i in range(n)]
        return sorted(out, key=sorted)
    ys = [tuple(row[j] for j in piv) for row in flat]
    bits = [(i, 1 << i) for i in range(n)]
    facets = sorted([i for i, b in bits if m & b] for m in set(_dd_extreme_rays(ys)))
    return [frozenset(f) for f in facets]


def faces(c: PerfectCone) -> dict[int, list[Face]]:
    """Complete face lattice, grouped by face dimension.

    Faces are intersections of facets (plus the cone itself); the zero
    face is always included.
    """
    n = len(c.generators)
    full = frozenset(range(n))
    facets = facet_index_sets(c)
    seen = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for s in frontier:
            for f in facets:
                t = s & f
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    if frozenset() not in seen:
        seen.add(frozenset())
    grouped: dict[int, list[Face]] = {}
    for s in seen:
        face = Face(c, s)
        dim = face.cone.dim
        grouped.setdefault(dim, []).append(face)
    for dim in grouped:
        grouped[dim].sort(key=lambda f: sorted(f.generator_indices))
    return grouped


def format_cone(c: PerfectCone) -> str:
    lines = [f"cone g={c.g} n={len(c.generators)}"]
    for v in c.generators:
        lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


def parse_cone(lines: Sequence[str], start: int = 0) -> tuple[PerfectCone, int]:
    """Parse one cone block; returns (cone, next line index)."""
    i = start
    while i < len(lines) and (not lines[i].strip() or lines[i].lstrip().startswith("#")):
        i += 1
    if i >= len(lines):
        raise ValueError("expected a cone header, found end of input")
    head = lines[i].split()
    if len(head) != 3 or head[0] != "cone":
        raise ValueError(f"line {i + 1}: malformed cone header")
    try:
        g = int(head[1].removeprefix("g="))
        n = int(head[2].removeprefix("n="))
    except ValueError as exc:
        raise ValueError(f"line {i + 1}: malformed cone header") from exc
    i += 1
    gens = []
    while len(gens) < n:
        if i >= len(lines):
            raise ValueError(f"line {i + 1}: cone block ended early")
        row = lines[i].strip()
        i += 1
        if not row or row.startswith("#"):
            continue
        parts = row.split()
        if len(parts) != g:
            raise ValueError(f"line {i}: expected {g} integers")
        try:
            gens.append(tuple(int(x) for x in parts))
        except ValueError:
            raise ValueError(f"line {i}: expected {g} integers") from None
    return PerfectCone(g, gens), i
