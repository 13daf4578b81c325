"""Graphic and regular matroid cone sources, coloops, inflation.

The lattice coloop test runs through saturation: v is a coloop of S iff
v avoids the rational span of S minus v and the image of v stays
primitive in Z^g modulo the saturation of the integer span of S minus v.
The first condition is a rank test: v avoids that span iff removing it
lowers the rank. Only a v that passes it needs a left Smith reduction
of the rest for the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cone import PerfectCone, reduce as cone_reduce
from .intlinalg import mat_vec, snf_left, vec_gcd


@dataclass(frozen=True)
class SimpleGraph:
    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertices < 1:
            raise ValueError("a graph needs at least one vertex")
        seen = set()
        for t, h in self.edges:
            if not (0 <= t < self.vertices and 0 <= h < self.vertices):
                raise ValueError(f"edge ({t},{h}) leaves the vertex range")
            if t == h:
                raise ValueError(f"loop at vertex {t} rejected")
            key = frozenset((t, h))
            if key in seen:
                raise ValueError(f"parallel edge ({t},{h}) rejected")
            seen.add(key)


def complete_graph(vertices: int) -> SimpleGraph:
    edges = tuple((i, j) for i in range(vertices) for j in range(i + 1, vertices))
    return SimpleGraph(vertices, edges)


def incidence_columns(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """Signed incidence columns with the last vertex row deleted."""
    g = graph.vertices - 1
    cols = []
    for t, h in graph.edges:
        col = [0] * g
        if t < g:
            col[t] = 1
        if h < g:
            col[h] = -1
        cols.append(tuple(col))
    return cols


def graphic_cone(graph: SimpleGraph) -> PerfectCone:
    """Cone on v v^t over the reduced incidence columns of the graph."""
    return PerfectCone(graph.vertices - 1, incidence_columns(graph))


def tu_cone(matrix: Sequence[Sequence[int]], g: int) -> PerfectCone:
    """Cone on v v^t over the columns of a totally unimodular matrix,
    zero-padded to ambient g. The matrix is taken as totally unimodular:
    the package passes only the constants below, which the test suite
    proves so by exhaustive minors."""
    cols = list(zip(*matrix))
    if any(not any(c) for c in cols):
        raise ValueError("zero column: the represented matroid is not simple")
    r = len(matrix)
    if r > g:
        raise ValueError(f"representation rank bound {r} exceeds ambient {g}")
    padded = [c + (0,) * (g - r) for c in cols]
    try:
        return PerfectCone(g, padded)
    except ValueError as exc:
        raise ValueError(f"column set is not simple: {exc}") from exc


def _rational_coloops(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the vectors outside the rational span of the others.

    Rows rank.. of U, for U m the echelon form of the matrix m with rows
    the vectors, span the left kernel of m: the linear relations among
    the vectors. v_i is outside the span of the others exactly when no
    relation involves it, that is, when column i of those rows is zero.
    A zero vector is its own relation, so it never qualifies.
    """
    u, _a, r = snf_left(vectors)
    kernel = u[r:]
    return [i for i in range(len(vectors)) if not any(row[i] for row in kernel)]


def zg_coloop_indices(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the vectors of S that extend to a Z-basis with
    span_Z(rest) inside the complementary sublattice."""
    vs = [tuple(int(x) for x in v) for v in vectors]
    if not vs:
        return []
    g = len(vs[0])
    if any(len(v) != g for v in vs):
        raise ValueError("vectors of mixed length")
    out = []
    for i in _rational_coloops(vs):
        v = vs[i]
        others = vs[:i] + vs[i + 1 :]
        if not others:
            if vec_gcd(v) == 1:
                out.append(i)
            continue
        m = [[w[k] for w in others] for k in range(g)]
        u, _d, r = snf_left(m)
        if vec_gcd(mat_vec(u, v)[r:]) == 1:
            out.append(i)
    return out


def inflate(c: PerfectCone) -> PerfectCone:
    """Append the last unit vector to a block-form representative.

    Orbit-level map: well-defined up to GL_g(Z) on cones of rank < g
    without lattice coloops.
    """
    g = c.g
    if c.rank >= g:
        raise ValueError("inflation needs rank at most g-1")
    if zg_coloop_indices(c.generators):
        raise ValueError("inflation domain excludes cones with a coloop")
    red, _u = cone_reduce(c)
    block = [v + (0,) * (g - red.g) for v in red.generators]
    unit = tuple(0 for _ in range(g - 1)) + (1,)
    out = PerfectCone(g, block + [unit])
    if out.dim != c.dim + 1:
        raise AssertionError("inflation failed to add one dimension")
    if len(zg_coloop_indices(out.generators)) != 1:
        raise AssertionError("inflation did not create a unique coloop")
    return out


def m_star_k33() -> tuple[tuple[int, ...], ...]:
    """Rank-4 dual of the K_{3,3} cycle matroid; smallest regular matroid
    that is neither graphic nor a graph's cone source here."""
    # [-B^T | I_4] from the standard form [I_5 | B] of the K_{3,3} cycle
    # matroid (tree a1b1, a1b2, a1b3, a2b1, a3b1)
    b_t = (
        (-1, 1, 0, 1, 0),
        (-1, 0, 1, 1, 0),
        (-1, 1, 0, 0, 1),
        (-1, 0, 1, 0, 1),
    )
    rows = []
    for i, row in enumerate(b_t):
        ident = tuple(1 if j == i else 0 for j in range(4))
        rows.append(tuple(-x for x in row) + ident)
    return tuple(rows)


def r_10() -> tuple[tuple[int, ...], ...]:
    """The ten-element rank-5 splitter; [I_5 | A] with the circulant A."""
    a = (
        (-1, 1, 0, 0, 1),
        (1, -1, 1, 0, 0),
        (0, 1, -1, 1, 0),
        (0, 0, 1, -1, 1),
        (1, 0, 0, 1, -1),
    )
    rows = []
    for i in range(5):
        ident = tuple(1 if j == i else 0 for j in range(5))
        rows.append(ident + a[i])
    return tuple(rows)
