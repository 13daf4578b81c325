"""The regular-matroid test, lattice coloops, inflation.

A cone is matroidal when its generators, in the coordinates of their
saturated span, are the columns of a totally unimodular matrix: the
cone of a regular matroid (Melo-Viviani, Math. Ann. 2012). is_matroidal
decides it from the cone alone, by Ghouila-Houri's characterisation of
total unimodularity (C. R. Acad. Sci. Paris 1962); no source cone or
bound on g is involved. A face keeps a subset of the generators, so a
face of a matroidal cone is matroidal.

The lattice coloop test runs through saturation: v is a coloop of S iff
v avoids the rational span of S minus v and the image of v stays
primitive in Z^g modulo the saturation of the integer span of S minus v.
Only a v that passes the first condition needs a left Smith reduction of
the rest for the second (_stays_primitive). For a list of vectors the
first condition is one elimination (_rational_coloops); for the
generators of a full-rank cone it is read off the Gram matrix the cone
already keeps, with no elimination (lattice_coloops).
"""

from __future__ import annotations

from typing import Sequence

from .cone import PerfectCone, _span_basis, reduce as cone_reduce
from .intlinalg import mat_vec, snf_left, vec_gcd


def graphic_cone(vertices: int, edges: Sequence[tuple[int, int]]) -> PerfectCone:
    """Cone on v v^t over the signed incidence columns of the graph, the
    row of the last vertex deleted: edge (t, h) is e_t - e_h."""
    g = vertices - 1
    cols = []
    for t, h in edges:
        if t == h or not (0 <= t < vertices and 0 <= h < vertices):
            raise ValueError(f"edge ({t},{h}) is a loop or leaves range({vertices})")
        col = [0] * g
        if t < g:
            col[t] = 1
        if h < g:
            col[h] = -1
        cols.append(tuple(col))
    return PerfectCone(g, cols)


def is_matroidal(c: PerfectCone) -> bool:
    """True iff the generators of c are the columns of a totally
    unimodular matrix in some basis of the saturation of their span.

    On the core (cone.reduce), of rank r, one span elimination of the
    generators (cone._span_basis) picks r independent generators B and
    gives every other generator's coordinates over B times D = |det B|.
    The generators are the columns of [I | A'] over B, A' the r x m
    coordinates of the other m generators. So c is matroidal iff D = 1
    (B is a basis of the saturation), every entry of A' lies in
    {0, +-1}, and A' is totally unimodular.
    """
    core = cone_reduce(c)[0]
    gens = core.generators
    ref, coords = _span_basis(gens, range(len(gens)))
    if ref and coords[ref[0]][0] != 1:  # coords[ref[0]] = D e_0
        return False
    picked = set(ref)
    rows = [0] * core.g
    shift = 0
    for i, x in enumerate(coords):
        if i in picked:
            continue
        for k, y in enumerate(x):
            if y not in (-1, 0, 1):
                return False
            rows[k] += y << shift
        shift += 8
    return _ghouila_houri(rows, shift // 8)


def _ghouila_houri(rows: list[int], width: int) -> bool:
    """Whether every non-empty subset of the rows has a +-1 signing whose
    column sums lie in {-1, 0, 1}: Ghouila-Houri's test that the matrix
    is totally unimodular.

    Each row is packed one byte per column, entry a at byte j as a 256^j,
    so adding rows adds bytes; a column sum stays in [-r, r], and bytes
    do not run into each other while r < 127. With
    ones the packed all-ones row, a sum s passes iff each byte of
    y = s + ones lies in {0, 1, 2}: no bit above the lowest two is set,
    and the two are not both set. A subset's signings, up to one global
    sign, are its top row plus or minus those of the subset without it,
    so (3^r - 1) / 2 sums cover every subset.
    """
    ones = ((1 << 8 * width) - 1) // 255
    high = 0xFC * ones
    # sums[m]: the signed sums of the row subset m, its top row taken +
    sums: list[list[int]] = [[0]]
    for m in range(1, 1 << len(rows)):
        top = m.bit_length() - 1
        row = rows[top]
        rest = m ^ (1 << top)
        cur = [row + s for s in sums[rest]]
        if rest:
            cur += [row - s for s in sums[rest]]
        for s in cur:
            y = s + ones
            if not (y & high or y & (y >> 1) & ones):
                break
        else:
            return False
        sums.append(cur)
    return True


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


def _stays_primitive(vs: Sequence[tuple[int, ...]], i: int) -> bool:
    """For v = vs[i] outside the rational span of the other vectors:
    whether the image of v in Z^g modulo the saturation of the integer
    span of the others is primitive. Rows r.. of U, for U m the echelon
    form of the matrix m with the others as columns, read Z^g modulo that
    saturation."""
    v = vs[i]
    others = vs[:i] + vs[i + 1 :]
    if not others:
        return vec_gcd(v) == 1
    m = [[w[k] for w in others] for k in range(len(v))]
    u, _d, r = snf_left(m)
    return vec_gcd(mat_vec(u, v)[r:]) == 1


def zg_coloop_indices(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the vectors of S that extend to a Z-basis with
    span_Z(rest) inside the complementary sublattice."""
    vs = [tuple(int(x) for x in v) for v in vectors]
    if not vs:
        return []
    g = len(vs[0])
    if any(len(v) != g for v in vs):
        raise ValueError("vectors of mixed length")
    return [i for i in _rational_coloops(vs) if _stays_primitive(vs, i)]


def lattice_coloops(c: PerfectCone) -> list[int]:
    """zg_coloop_indices of the generators of a full-rank cone, with the
    rational test read off its Gram matrix G = V^t adj(T) V (V the g x n
    matrix of the generators, T = V V^t).

    G is det T times P = V^t T^-1 V, the orthogonal projection of R^n
    onto the row space of V. v_i lies outside the rational span of the
    other generators iff some functional is 1 on v_i and 0 on the rest,
    that is, iff e_i lies in that row space, iff P_ii = |P e_i|^2 = 1.
    The trace of P is its rank g, so the test is g G_ii = trace G. Only
    those generators take the saturation test.
    """
    if c.rank != c.g:
        raise ValueError("lattice_coloops needs a full-rank cone")
    gram = c.gram
    trace = sum(row[i] for i, row in enumerate(gram))
    gens = c.generators
    return [
        i for i, row in enumerate(gram) if c.g * row[i] == trace and _stays_primitive(gens, i)
    ]


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
    core = cone_reduce(c)[0]
    block = [v + (0,) * (g - core.g) for v in core.generators]
    unit = tuple(0 for _ in range(g - 1)) + (1,)
    out = PerfectCone(g, block + [unit])
    if out.dim != c.dim + 1:
        raise AssertionError("inflation failed to add one dimension")
    if len(zg_coloop_indices(out.generators)) != 1:
        raise AssertionError("inflation did not create a unique coloop")
    return out
