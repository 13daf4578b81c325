"""Polyhedral geometry of cones spanned by rank-1 forms v v^t.

A cone is stored by its generating vectors (one per +- pair). Generators
of such cones are always extreme rays: each v v^t spans an extreme ray of
the positive semidefinite cone, hence of any subcone containing it. Cones
here are automatically pointed for the same reason, so face identity by
generator subset is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .intlinalg import (
    Echelon,
    adjugate_int,
    det_int,
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

    __slots__ = ("g", "generators", "_dim", "_rank")

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


def rank(c: PerfectCone) -> int:
    return c.rank


def dimension(c: PerfectCone) -> int:
    return c.dim


def is_boundary(c: PerfectCone) -> bool:
    """True iff the cone misses the positive definite locus."""
    return c.rank < c.g


def pad(c: PerfectCone, g: int) -> PerfectCone:
    """Embed into a larger ambient dimension by appending zero coordinates."""
    if g < c.g:
        raise ValueError("pad target must not shrink the ambient dimension")
    tail = (0,) * (g - c.g)
    return PerfectCone(g, [v + tail for v in c.generators])


def reduce(c: PerfectCone) -> tuple[PerfectCone, list[list[int]]]:
    """Block-form representative of a boundary cone.

    Returns (c', A) with A in GL_g(Z) such that every A v has zeros past
    the first rank(c) coordinates; c' collects the truncations. A maps the
    saturation of the generator span onto the coordinate sublattice, which
    is exactly the basis-extension contract.
    """
    r = c.rank
    if r >= c.g:
        raise ValueError("reduce expects a boundary cone (rank < g)")
    if not c.generators:
        return PerfectCone(0, []), identity_matrix(c.g)
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
    return PerfectCone(r, new_gens), u


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


def _dd_extreme_rays(ys: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], frozenset]]:
    """Extreme rays of {w : <w, y_i> >= 0} by double description insertion.

    The y_i must span R^d and generate a pointed cone (true for projected
    rank-1 forms). Insertion order is by index, for deterministic output.
    Returns (primitive ray vector, active constraint index set) pairs.
    """
    d = len(ys[0])
    n = len(ys)
    init = greedy_spanning(ys, range(n))
    if len(init) != d:
        raise AssertionError("constraints do not span the ambient space")
    y0 = [list(ys[i]) for i in init]
    det = det_int(y0)
    adj = adjugate_int(y0)
    s = 1 if det > 0 else -1
    rays: list[tuple[tuple[int, ...], frozenset]] = []
    for k in range(d):
        vec = primitive_vector([s * adj[j][k] for j in range(d)])
        active = frozenset(init[m] for m in range(d) if m != k)
        rays.append((vec, active))
    remaining = [i for i in range(n) if i not in set(init)]
    for i in remaining:
        a = ys[i]
        vals = [dot(a, r[0]) for r in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (vec, act | {i} if val == 0 else act)
                for (vec, act), val in zip(rays, vals)
            ]
            continue
        plus = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays = [rays[k] for k in plus]
        new_rays += [(rays[k][0], rays[k][1] | {i}) for k in zero]
        for kp in plus:
            for km in minus:
                meet = rays[kp][1] & rays[km][1]
                adjacent = True
                for ko in range(len(rays)):
                    if ko in (kp, km):
                        continue
                    if meet <= rays[ko][1]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vp, vm = vals[kp], vals[km]
                comb = [vp * x - vm * y for x, y in zip(rays[km][0], rays[kp][0])]
                new_rays.append((primitive_vector(comb), meet | {i}))
        rays = new_rays
    return rays


@lru_cache(maxsize=None)
def _facet_sets_cached(g: int, generators: tuple) -> tuple[frozenset, ...]:
    c = PerfectCone(g, generators)
    n = len(c.generators)
    d = c.dim
    if d == 0:
        return ()
    if n == d:
        out = [frozenset(range(n)) - {i} for i in range(n)]
        return tuple(sorted(out, key=sorted))
    flat = [flatten_rank1(v) for v in c.generators]
    piv = pivot_columns(flat)
    ys = [tuple(row[j] for j in piv) for row in flat]
    rays = _dd_extreme_rays(ys)
    facets = set()
    for w, _act in rays:
        tight = frozenset(i for i in range(n) if dot(ys[i], w) == 0)
        facets.add(tight)
    return tuple(sorted(facets, key=sorted))


def facet_index_sets(c: PerfectCone) -> list[frozenset]:
    """Generator index sets of the codimension-1 faces."""
    return list(_facet_sets_cached(c.g, c.generators))


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
