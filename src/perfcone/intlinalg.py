"""Exact integer and rational linear algebra helpers.

Matrices are lists (or tuples) of rows; vectors are sequences. No floats.

Every elimination runs through one fraction-free kernel, ``Echelon``: an
integer echelon basis grown one row at a time by Bareiss steps (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968), with fraction-free back substitution
where the Gauss-Jordan form is needed. Its entries are minors of the
input, so every division is exact and no entry is a fraction. Ranks,
pivot columns, determinants, adjugates, inverses and kernel vectors are
all read off its state. The quadratic-form layer reads definiteness and
the short-vector levels of a form off the same Bareiss rows.
``snf_left`` works with unimodular row operations instead: an echelon
form over Z, for the lattice reductions of boundary cones and the
coloop test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, starmap
from math import gcd
from operator import index, mul
from typing import Iterable, Sequence


def vec_gcd(v: Sequence[int]) -> int:
    return gcd(*v)


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple([x // g for x in v])


def sign_normalize(v: Sequence[int]) -> tuple[int, ...]:
    """Representative of {v, -v} whose first nonzero entry is positive."""
    for x in v:
        if x:
            return tuple(-y for y in v) if x < 0 else tuple(v)
    return tuple(v)


def flatten_rank1(v: Sequence[int]) -> tuple[int, ...]:
    """Upper triangle of v v^t, row major; length g(g+1)/2.

    Linear coordinates on symmetric matrices; injective, so spans and
    determinant signs computed here match the matrix-space ones. The
    pairs (v_i, v_j), i <= j, come in row-major order from
    combinations_with_replacement.
    """
    return tuple(starmap(mul, combinations_with_replacement(v, 2)))


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum(map(mul, row, v)) for row in a]


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


class Echelon:
    """Fraction-free (Bareiss) echelon basis of integer rows, grown row by row.

    Let A be the kept rows and B the square submatrix of A on the pivot
    columns, taken in pivot order. Stored row i is kept row i after the
    Bareiss steps against kept rows 0..i-1: zero on ``pivots[:i]``, and on
    ``pivots[i]`` it holds the leading i+1 minor of B. Every entry is a
    minor of A, so every division is exact, and ``det`` = det B. Pivots are
    searched among the first ``width`` columns (all columns when None);
    later columns ride along.
    """

    __slots__ = ("width", "rows", "pivots", "det")

    def __init__(self, width: int | None = None):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.det = 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Sequence[int]) -> bool:
        """Keep row if it is independent of the kept rows; report which.

        A Bareiss step whose multiplier is zero only rescales the row by
        p_i / p_(i-1). These rescalings telescope, so each is deferred to
        the next step with a nonzero multiplier, or to the end.
        """
        v = list(map(index, row))
        last = 1  # pivot of the last step applied; v is exact times p_i / last
        for r, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                p = r[c]
                v = [(p * a - f * b) // last for a, b in zip(v, r)]
                last = p
        for c, x in enumerate(v[: self.width]):
            if x:
                break
        else:
            return False
        d = self.det
        if last != d:
            v = [a * d // last for a in v]
        self.rows.append(v)
        self.pivots.append(c)
        self.det = v[c]
        return True

    def jordan(self) -> list[list[int]]:
        """The kept rows reduced above their pivots as well: adj(B) A, whose
        row i holds det B on ``pivots[i]`` and zero on the other pivots.

        Fraction-free back substitution, from the last row up:
        R_i = (det B E_i - sum_{j>i} E_i[c_j] R_j) / p_i.
        """
        d = self.det
        out: list[list[int]] = []
        for e, c in zip(reversed(self.rows), reversed(self.pivots)):
            v = [d * x for x in e]
            for r, cj in zip(out, reversed(self.pivots)):
                f = e[cj]
                if f:
                    v = [a - f * b for a, b in zip(v, r)]
            p = e[c]
            out.append([a // p for a in v])
        out.reverse()
        return out

    def adjugate(self) -> tuple[list[list[int]], int]:
        """(adj m, det m) for kept rows [m | I] of an invertible m of order
        ``width``, row i of I the unit vector e_i.

        The Jordan form's right block is adj(m Q) = det(Q) Q^-1 adj(m),
        Q the pivot order, and det B = det(m Q).
        """
        s = _perm_sign(self.pivots)
        n = self.width
        adj: list[list[int]] = [[]] * n
        for r, c in zip(self.jordan(), self.pivots):
            adj[c] = [s * x for x in r[n:]]
        return adj, s * self.det

    def kernel_vector(self, ncols: int) -> tuple[int, ...] | None:
        """A primitive integer vector spanning the kernel of the kept rows
        (of length ncols) when that kernel is a line, else None. Its entry
        on the one non-pivot column is positive."""
        free = set(range(ncols)) - set(self.pivots)
        if len(free) != 1:
            return None
        (f,) = free
        s = 1 if self.det > 0 else -1
        vec = [0] * ncols
        vec[f] = s * self.det
        for r, c in zip(self.jordan(), self.pivots):
            vec[c] = -s * r[f]
        return primitive_vector(vec)


def _echelon(rows: Iterable[Sequence[int]]) -> Echelon:
    e = Echelon()
    for row in rows:
        e.add(row)
        if e.rank == len(row):
            break  # the rows kept so far span every column
    return e


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j = start
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _square(m: Sequence[Sequence[int]]) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("expected a square matrix")
    return n


def _det(m: Sequence[Sequence[int]]) -> int:
    _square(m)
    e = Echelon()
    for row in m:
        if not e.add(row):
            return 0
    # B is m with its columns permuted into pivot order
    return _perm_sign(e.pivots) * e.det


def adjugate_det(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj m, det m) from one elimination of [m | I]; m invertible."""
    n = _square(m)
    e = Echelon(n)
    for i, row in enumerate(m):
        if not e.add(list(row) + [int(i == j) for j in range(n)]):
            raise ValueError("matrix is singular")
    return e.adjugate()


def rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return _echelon(rows).rank


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer boundary matrix. Same as rank_rows; a function
    of its own so that perfbench's tracer counts homology's rank calls
    apart (homology.bareiss_rank)."""
    return _echelon(rows).rank


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """Leftmost pivot column indices of the row space.

    A column a reduced row can pivot on is never a combination of the
    columns left of it, so the pivots found are exactly these. No package
    code calls it (span_basis reads the pivots off its own Echelon); it
    stays for the tests, and because perfbench's tracer counts it
    (intlinalg.pivot_columns).
    """
    return sorted(_echelon(rows).pivots)


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix; 1 when empty. No
    package code calls it; it stays for the tests, and because
    perfbench's tracer counts it (intlinalg.det_int)."""
    return _det(m)


def det_sign(m: Sequence[Sequence[int]]) -> int:
    """Sign (-1, 0, +1) of the determinant of a square integer matrix."""
    d = _det(m)
    return (d > 0) - (d < 0)


def adjugate_int(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """adj(m) with adj(m) m = det(m) I, for invertible integer m."""
    return adjugate_det(m)[0]


def frac_inverse(m: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Inverse over Q of an invertible integer matrix; raises on singular
    input. No package code calls it; it stays for the tests, and because
    perfbench's tracer counts it (intlinalg.frac_inverse)."""
    adj, d = adjugate_det(m)
    return [[Fraction(x, d) for x in row] for row in adj]


def unimodular_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    adj, d = adjugate_det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


def snf_left(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Unimodular row reduction of m to echelon form over Z (Hermite-style,
    without reduction above the pivots); return (U, U m, rank).

    Rows rank.. of U m are zero, so rows rank.. of U span the integer left
    kernel of m, and U maps the saturation of the column span onto the
    first rank coordinates. Each column's pivot is found by Euclid's
    algorithm on the rows below the last pivot. The callers, cone.reduce
    and the coloop tests of matroid (the left kernel, then the lattice
    saturation), read only U and the rank, so no column operation is
    needed.
    """
    a = [list(map(int, row)) for row in m]
    nrows = len(a)
    u = identity_matrix(nrows)
    t = 0
    for j in range(len(a[0]) if nrows else 0):
        while t < nrows:
            live = [i for i in range(t, nrows) if a[i][j]]
            if not live:
                break
            p = min(live, key=lambda i: abs(a[i][j]))
            a[t], a[p] = a[p], a[t]
            u[t], u[p] = u[p], u[t]
            if len(live) == 1:
                t += 1
                break
            at, ut, x = a[t], u[t], a[t][j]
            for i in range(t + 1, nrows):
                q = a[i][j] // x
                if q:
                    a[i] = [y - q * z for y, z in zip(a[i], at)]
                    u[i] = [y - q * z for y, z in zip(u[i], ut)]
    return u, a, t
