"""Exact integer and rational linear algebra helpers.

Matrices are lists (or tuples) of rows; vectors are sequences. No floats.

Every dense elimination runs through one fraction-free kernel,
``Echelon``: an integer echelon basis grown one row at a time by Bareiss
steps (Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968), with fraction-free back substitution
of just the Gauss-Jordan columns a caller reads: the right block of
[m | I] for an adjugate, the one free column for a kernel vector, the
non-pivot columns for span coordinates. Its entries are minors of the
input, so every division is exact and no entry is a fraction. Ranks,
pivot columns, determinants, adjugates, inverses and kernel vectors are
all read off its state. The quadratic-form layer reads positive
definiteness and the short-vector levels of a form off the same Bareiss
rows. The rank of a sparse boundary map, ``bareiss_rank``, takes unit
pivots first, each exact over Z, and hands the remainder, which holds no
unit entry, to the same kernel. ``snf_left`` works with unimodular row
operations instead: an echelon form over Z, for the lattice reductions
of boundary cones and the coloop test.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement, starmap
from math import gcd
from operator import index, mul
from typing import Iterable, Mapping, Sequence


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
    minor of A, so every division is exact, and ``det`` = det B.
    """

    __slots__ = ("rows", "pivots", "det")

    def __init__(self):
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
        for c, x in enumerate(v):
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

    def jordan(self, cols: Sequence[int]) -> list[list[int]]:
        """Columns cols, in that order, of the kept rows reduced above
        their pivots as well: adj(B) A, whose row i holds det B on
        ``pivots[i]`` and zero on the other pivots.

        Fraction-free back substitution of just those columns, from the
        last row up: R_i = (det B E_i - sum_{j>i} E_i[c_j] R_j) / p_i. The
        multipliers E_i[c_j] are read off the full stored rows, so each
        column is reduced on its own, and the columns asked for are the
        columns of the full form.
        """
        d = self.det
        pivots = self.pivots
        out: list[list[int]] = []
        for e, c in zip(reversed(self.rows), reversed(pivots)):
            v = [d * e[k] for k in cols]
            for r, cj in zip(out, reversed(pivots)):
                f = e[cj]
                if f:
                    v = [a - f * b for a, b in zip(v, r)]
            p = e[c]
            out.append([a // p for a in v])
        out.reverse()
        return out

    def adjugate(self) -> tuple[list[list[int]], int]:
        """(adj m, det m) for kept rows [m | I] of an invertible m of order
        n, the rank, row i of I the unit vector e_i.

        The Jordan form's right block is adj(m Q) = det(Q) Q^-1 adj(m),
        Q the pivot order, and det B = det(m Q); only that block is
        back-substituted.
        """
        s = perm_sign(self.pivots)
        n = len(self.pivots)
        adj: list[list[int]] = [[]] * n
        for r, c in zip(self.jordan(range(n, 2 * n)), self.pivots):
            adj[c] = [s * x for x in r]
        return adj, s * self.det

    def kernel_vector(self, ncols: int) -> tuple[int, ...] | None:
        """A primitive integer vector spanning the kernel of the kept rows
        (of length ncols) when that kernel is a line, else None. Its entry
        on the one non-pivot column is positive, and that column is the
        one column of the Jordan form it reads."""
        free = set(range(ncols)) - set(self.pivots)
        if len(free) != 1:
            return None
        (f,) = free
        s = 1 if self.det > 0 else -1
        vec = [0] * ncols
        vec[f] = s * self.det
        for (x,), c in zip(self.jordan([f]), self.pivots):
            vec[c] = -s * x
        return primitive_vector(vec)


def _echelon(rows: Iterable[Sequence[int]]) -> Echelon:
    e = Echelon()
    for row in rows:
        e.add(row)
        if e.rank == len(row):
            break  # the rows kept so far span every column
    return e


def perm_sign(perm: Sequence[int]) -> int:
    """The parity of a permutation of range(len(perm)): -1 when it has an
    odd number of cycles of even length."""
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
    return perm_sign(e.pivots) * e.det


def adjugate_det(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj m, det m) from one elimination of [m | I]; m invertible."""
    n = _square(m)
    e = Echelon()
    for i, row in enumerate(m):
        e.add(list(row) + [int(i == j) for j in range(n)])
        if e.pivots[-1] >= n:  # row i is a combination of the rows above
            raise ValueError("matrix is singular")
    return e.adjugate()


def pick_basis(
    rows: Sequence[Sequence[int]], order: Iterable[int], width: int
) -> tuple[list[int], int]:
    """The indices, in order, of the rows that raise the rank, until it
    reaches width; with det m, m the matrix of those rows, when it does,
    else 0. Rows have length width.

    One Echelon over the rows keeps a row exactly when it raises the
    rank. Its B is m with the columns permuted into pivot order, so
    det m = perm_sign(pivots) det B.
    """
    basis = Echelon()
    picked: list[int] = []
    for i in order:
        if len(picked) == width:
            break  # the picked rows span every column
        if basis.add(rows[i]):
            picked.append(i)
    if len(picked) < width:
        return picked, 0
    return picked, perm_sign(basis.pivots) * basis.det


def rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return _echelon(rows).rank


def bareiss_rank(entries: Mapping[tuple[int, int], int]) -> int:
    """Rank of the sparse integer matrix {(row, col): value}, indices
    nonnegative, as a chain complex keeps a boundary map.

    Unit pivots first: while some entry is +-1, take the one of least
    Markowitz cost (row nnz - 1)(column nnz - 1), ties broken by
    (row, col), clear the rest of its column by exact integer row
    operations, and drop its row and column; each such pivot adds one to
    the rank (Kaczynski-Mrozek-Slusarek, "Homology computation by
    reduction of chain complexes", Comput. Math. Appl. 1998). The
    remainder, which holds no unit entry, goes dense to the Bareiss kernel.

    The heap holds, for every unit entry, a key no larger than its
    current cost: a step pushes the entries whose cost fell or which it
    made units, and an entry popped at a smaller, stale key goes back at
    its cost. So the first popped key that is current is the least.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    # (cost, row, col) packed into one int, which the heap compares faster
    nr, nc = max(rows, default=0) + 1, max(cols, default=0) + 1

    def cost(r: int, c: int) -> int:
        return ((len(rows[r]) - 1) * (len(cols[c]) - 1) * nr + r) * nc + c

    heap = [cost(r, c) for r, row in rows.items() for c, v in row.items() if v in (1, -1)]
    heapify(heap)
    rank = 0
    while heap:
        key = heappop(heap)
        r, c = divmod(key % (nr * nc), nc)
        pivot = rows.get(r)
        if pivot is None or pivot.get(c) not in (1, -1):
            continue
        now = cost(r, c)
        if now != key:
            if now > key:
                heappush(heap, now)
            continue
        rank += 1
        del rows[r]
        col_before = {c2: len(cols[c2]) for c2 in pivot}
        for c2 in pivot:
            cols[c2].discard(r)
        v = pivot.pop(c)
        touched = cols.pop(c)
        for r2 in touched:
            row = rows[r2]
            before = len(row)
            f = row.pop(c) * v  # v = 1/v for a unit
            for c2, x in pivot.items():
                y = row.get(c2, 0) - f * x
                if y:
                    row[c2] = y
                    cols[c2].add(r2)
                elif c2 in row:
                    del row[c2]
                    cols[c2].discard(r2)
            if not row:
                del rows[r2]
                continue
            for c2 in row if len(row) < before else pivot:
                if row.get(c2) in (1, -1):
                    heappush(heap, cost(r2, c2))
        for c2 in pivot:
            if len(cols[c2]) < col_before[c2]:
                for r2 in cols[c2] - touched:
                    if rows[r2][c2] in (1, -1):
                        heappush(heap, cost(r2, c2))
    live = sorted({c for row in rows.values() for c in row})
    return rank + _echelon([[row.get(c, 0) for c in live] for row in rows.values()]).rank


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


def frac_inverse(m: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Inverse over Q of an invertible integer matrix; raises on singular
    input. No package code calls it; it stays for the tests, and because
    perfbench's tracer counts it (intlinalg.frac_inverse)."""
    adj, d = adjugate_det(m)
    return [[Fraction(x, d) for x in row] for row in adj]


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
