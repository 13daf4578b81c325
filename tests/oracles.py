"""Small independent reimplementations used to check the package.

Everything here is deliberately naive: dense sympy linear algebra, box
enumeration, and literal definitions.  Nothing computes with perfcone:
tu_cone only hands its columns to PerfectCone.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd, isqrt

from sympy import Matrix, Rational

from perfcone.cone import PerfectCone


def rank_oracle(rows):
    if not rows:
        return 0
    return Matrix([[Rational(x) for x in row] for row in rows]).rank()


def short_vectors_box(entries):
    """All nonzero minimizers of a positive definite form, one per +- pair.

    Box bound: Q(x) <= m implies x_i^2 <= m * (Q^-1)_ii, refined once the
    running minimum drops.  Returns (minimum, sorted tuple of vectors).
    """
    g = len(entries)
    q = Matrix([[Rational(x) for x in row] for row in entries])
    qinv = q.inv()

    def value(x):
        v = Matrix(g, 1, list(x))
        return (v.T * q * v)[0, 0]

    best = min(q[i, i] for i in range(g))

    def box(m):
        return [isqrt(int(m * qinv[i, i])) for i in range(g)]

    bounds = box(best)
    for x in product(*[range(-b, b + 1) for b in bounds]):
        if any(x) and value(x) < best:
            best = value(x)
    bounds = box(best)
    found = set()
    for x in product(*[range(-b, b + 1) for b in bounds]):
        if any(x) and value(x) == best:
            lead = next(c for c in x if c)
            found.add(x if lead > 0 else tuple(-c for c in x))
    return Fraction(best.p, best.q), tuple(sorted(found))


def facets_bruteforce(vectors):
    """Facet generator-index sets of cone(vectors), by hyperplane search.

    For every generator subset of rank d-1, take the normal orthogonal
    to it inside the span of all vectors (unique up to scale there) and
    keep its zero set when every generator lands weakly on one side and
    at least one lands strictly.  d is the dimension of the cone.
    """
    if not vectors:
        return set()
    span = Matrix([list(v) for v in vectors])
    d = span.rank()
    facets = set()
    for subset in combinations(range(len(vectors)), d - 1):
        sub = Matrix([list(vectors[i]) for i in subset])
        if sub.rank() != d - 1:
            continue
        normal = _complement_normal(sub, span)
        if normal is None:
            continue
        vals = [(Matrix([list(v)]) * normal)[0, 0] for v in vectors]
        if not any(vals):
            continue
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            facets.add(frozenset(i for i, v in enumerate(vals) if v == 0))
    return facets


def _complement_normal(sub, span):
    """A nonzero vector in the row space of span orthogonal to the rows
    of sub.  Parametrized as span.T * k with sub * span.T * k = 0."""
    for k in (sub * span.T).nullspace():
        cand = span.T * k
        if any(x != 0 for x in cand):
            return cand
    return None


def coloop_oracle(vectors, index):
    """Literal basis-extension test via invariant factors.

    v is a lattice coloop of S iff appending v raises the rank and the
    gcd of (r+1)-minors of [others | v] equals the gcd of r-minors of
    others, r = rank(others).
    """
    g = len(vectors[index])
    others = [vectors[i] for i in range(len(vectors)) if i != index]
    v = vectors[index]
    m = Matrix([list(w) for w in others]).T if others else Matrix(g, 0, [])
    mv = m.row_join(Matrix(g, 1, list(v)))
    r = m.rank()
    if mv.rank() != r + 1:
        return False
    return _minor_gcd(mv.tolist(), r + 1) == _minor_gcd(m.tolist(), r)


def _minor_gcd(rows, k):
    """The gcd of the k x k minors of an integer matrix, given by its
    rows: when the rows span Q^k and k is the column count, the covolume
    of their lattice in Z^k."""
    out = 0
    for rsel in combinations(range(len(rows)), k):
        for csel in combinations(range(len(rows[0]) if rows else 0), k):
            out = gcd(out, int(_sylvester_det([[rows[i][j] for j in csel] for i in rsel])))
            if out == 1:
                return out
    return out


def boundary_matrix(cx, n):
    """The dense boundary matrix of degree n of a chain complex, dim C_(n-1)
    rows by dim C_n columns, filled in from its sparse entries cx.diff[n]."""
    out = [[0] * len(cx.basis.get(n, [])) for _ in cx.basis.get(n - 1, [])]
    for (r, c), v in cx.diff.get(n, {}).items():
        out[r][c] = v
    return out


def homology_dims_oracle(matrices, dims):
    """dim H_n from dense sympy ranks; matrices[n] maps degree n to n-1."""
    out = {}
    for n, dim in dims.items():
        r_n = Matrix(matrices[n]).rank() if matrices.get(n) else 0
        r_up = Matrix(matrices[n + 1]).rank() if matrices.get(n + 1) else 0
        out[n] = dim - r_n - r_up
    return out


def pivot_oracle(rows):
    """Pivot columns of the reduced row echelon form."""
    return list(Matrix([list(row) for row in rows]).rref()[1])


def det_oracle(m):
    return int(Matrix([list(row) for row in m]).det()) if m else 1


def adjugate_oracle(m):
    return [[int(x) for x in row] for row in Matrix([list(r) for r in m]).adjugate().tolist()]


def nullspace_oracle(rows):
    """Rational basis of {x : rows . x = 0}, as lists of Fractions."""
    basis = Matrix([list(row) for row in rows]).nullspace()
    return [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in basis]


def rational_gram_oracle(vectors):
    """v_i^t T^-1 v_j with T = sum of v v^t, as Fractions: V^t T^-1 V for
    V the vectors as columns, so T = V V^t; with det T."""
    v = Matrix([list(x) for x in vectors]).T
    t = v * v.T
    gram = v.T * t.inv() * v
    rows = [[Fraction(int(x.p), int(x.q)) for x in gram.row(i)] for i in range(len(vectors))]
    return rows, int(t.det())


def span_coordinates_oracle(vectors, ref):
    """Coordinates of every v v^t in the basis {v v^t : v in ref}, as
    Fractions, by the normal equations (the basis forms are independent
    and every form lies in their span)."""
    forms = [Matrix(list(v)) * Matrix(list(v)).T for v in vectors]
    basis = Matrix.hstack(*[forms[s].reshape(len(forms[s]), 1) for s in ref])
    gram_inv = (basis.T * basis).inv()
    out = []
    for f in forms:
        x = gram_inv * basis.T * f.reshape(len(f), 1)
        assert basis * x == f.reshape(len(f), 1)
        out.append([Fraction(int(y.p), int(y.q)) for y in x])
    return out


def complete_edges(vertices):
    """The edges (i, j), i < j, of the complete graph, in order."""
    return tuple(combinations(range(vertices), 2))


def incidence_columns_oracle(vertices, edges):
    """The signed incidence columns e_t - e_h of the edges (t, h), in edge
    order, with the row of the last vertex deleted."""
    return [
        tuple(int(a == t) - int(a == h) for a in range(vertices - 1)) for t, h in edges
    ]


def simple_graphs_oracle(vertices):
    """One sorted edge list per isomorphism class of simple graphs on the
    given vertex count, isolated vertices allowed: every labelled edge
    subset that is the least of its relabellings."""
    pairs = list(combinations(range(vertices), 2))
    relabellings = list(permutations(range(vertices)))
    out = []
    for mask in range(1 << len(pairs)):
        edges = tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
        least = min(
            tuple(sorted(tuple(sorted((s[a], s[b]))) for a, b in edges))
            for s in relabellings
        )
        if least == edges:
            out.append(edges)
    return out


def is_tu(matrix):
    """Exhaustive total-unimodularity check: every square minor in
    {-1, 0, 1}.

    Returns None (unverified) beyond the desk-scale caps of 20 columns
    and 2,000,000 minors instead of guessing.
    """
    rows = [tuple(int(x) for x in row) for row in matrix]
    if not rows:
        return True
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if any(x not in (-1, 0, 1) for r in rows for x in r):
        return False
    if ncols > 20:
        return None
    total = sum(
        comb(len(rows), k) * comb(ncols, k)
        for k in range(1, min(len(rows), ncols) + 1)
    )
    if total > 2_000_000:
        return None
    for k in range(2, min(len(rows), ncols) + 1):
        for rsel in combinations(range(len(rows)), k):
            for csel in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if _sylvester_det(sub) not in (-1, 0, 1):
                    return False
    return True


def tu_cone(matrix, g):
    """Cone on v v^t over the columns of a {0, +-1} matrix, zero-padded
    to ambient g. The columns must be nonzero and pairwise non-parallel."""
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


def m_star_k33():
    """Rank-4 dual of the K_{3,3} cycle matroid: a regular matroid that is
    not graphic."""
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


def r_10():
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


def unimodular_oracle(vectors):
    """Whether the vectors are a unimodular configuration: for every set
    of k independent ones, k their rank, the gcd of the k x k minors of
    their matrix is 1. That gcd is |det| of the set in the coordinates of
    the saturated span, so this holds iff, in some basis of it, the
    vectors are the columns of a totally unimodular matrix."""
    rows = [tuple(v) for v in vectors]
    k = Matrix(rows).rank() if rows else 0
    return k == 0 or all(_minor_gcd(list(sub), k) <= 1 for sub in combinations(rows, k))


def _normalized(v):
    lead = next((x for x in v if x), 0)
    return tuple(v) if lead > 0 else tuple(-x for x in v)


def _sylvester_det(m):
    """Determinant of an integer matrix by Sylvester's identity: each
    2x2 cross-multiplication step divides exactly by the previous pivot."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def is_witness(a, perm, c1, c2):
    """True iff the integer matrix a has det +-1 and sends generator i of
    c1 to plus or minus generator perm[i] of c2, for every i, with perm a
    bijection onto the generators of c2."""
    if _sylvester_det(a) not in (-1, 1):
        return False
    src, dst = c1.generators, c2.generators
    if sorted(perm) != list(range(len(dst))) or len(src) != len(dst):
        return False
    for v, j in zip(src, perm):
        image = [sum(x * y for x, y in zip(row, v)) for row in a]
        if _normalized(image) != _normalized(dst[j]):
            return False
    return True


def _basis_coordinates(vectors):
    """(basis, scale, coords): basis lists the indices of the vectors
    independent of those before them, and coords[i] is scale > 0 times
    the coordinates of vector i in the vectors of basis, as integers.

    By Cramer's rule on the rows J, the pivots of a fraction-free
    elimination, on which the basis vectors are independent: c = adj(S)
    v_J / det S, S the basis vectors restricted to J. It is exact for
    every vector of their span."""
    basis, pivots, rows = [], [], []
    for i, v in enumerate(vectors):
        w = list(v)
        for p, row in zip(pivots, rows):
            if w[p]:
                w = [row[p] * x - w[p] * y for x, y in zip(w, row)]
        p = next((k for k, x in enumerate(w) if x), None)
        if p is not None:
            basis.append(i)
            pivots.append(p)
            rows.append(w)
    r = len(basis)
    sub = [[vectors[b][p] for b in basis] for p in pivots]
    scale = _sylvester_det(sub)
    adj = [
        [
            (-1) ** (k + q)
            * _sylvester_det([row[:k] + row[k + 1 :] for t, row in enumerate(sub) if t != q])
            for q in range(r)
        ]
        for k in range(r)
    ]
    if scale < 0:
        scale = -scale
        adj = [[-x for x in row] for row in adj]
    coords = [[sum(a * v[p] for a, p in zip(row, pivots)) for row in adj] for v in vectors]
    return basis, scale, coords


def induces(perm, c1, c2):
    """The maps that show that some A in GL_g(Z) sends generator i of c1
    to plus or minus generator perm[i] of c2, for every i; empty when
    none does (or perm is not a bijection onto c2's generators).

    Tries the 2^r sign patterns s on a basis b_1..b_r of c1's generators
    (r the rank), with exact coordinates in that basis. A pattern
    works when the linear map f of span(c1) with f(b_k) = s_k w_perm(b_k)
    sends every generator v_i to +-w_perm(i), and maps the lattice points
    of span(c1) onto those of span(c2): with M1 the g x r matrix of the
    b_k and M2 that of the f(b_k), M1 c is integral iff M2 c is, that is
    the row lattices of M1 and M2 in Z^r are equal. Their covolumes are
    the gcds of the r x r minors, and the lattices are equal iff M1, M2
    and the stacked [M1; M2] have the same one.
    Such an f extends to GL_g(Z), as saturated sublattices of equal rank
    have complements of equal rank. When r = g a pattern gives exactly
    one A, the check is that A is integral with det +-1, and the list
    holds those A as tuples of integer rows; otherwise it holds the
    matrices M2."""
    src, dst = c1.generators, c2.generators
    n = len(src)
    if len(dst) != n or sorted(perm) != list(range(n)):
        return []
    g = c1.g
    units = [tuple(int(i == j) for j in range(g)) for i in range(g)]
    basis, scale, coords = _basis_coordinates(list(src) + units)
    r = sum(1 for b in basis if b < n)
    m1 = [[src[b][j] for b in basis[:r]] for j in range(g)]
    d1 = _minor_gcd(m1, r)
    # generators checkable once the signs of b_1..b_k are chosen
    last = [max((k for k, x in enumerate(c) if x), default=-1) for c in coords[:n]]
    ready = [[i for i in range(n) if last[i] == k] for k in range(r)]
    found = []
    images = []  # s_k w_perm(b_k), k < len(images)

    def image(c):
        """scale times f of the vector with coordinates c / scale"""
        return [sum(x * w[j] for x, w in zip(c, images)) for j in range(g)]

    def extend(k):
        if k == r:
            m2 = [list(col) for col in zip(*images)] if images else [[] for _ in range(g)]
            if r == g:
                # column j of A is f(e_j)
                cols = [image(c) for c in coords[n:]]
                if any(x % scale for col in cols for x in col):
                    return
                a = [[col[i] // scale for col in cols] for i in range(g)]
                if _sylvester_det(a) in (1, -1):
                    found.append(tuple(map(tuple, a)))
            elif _minor_gcd(m2, r) == d1 == _minor_gcd(m1 + m2, r):
                found.append(tuple(map(tuple, m2)))
            return
        w = dst[perm[basis[k]]]
        for s in (1, -1) if k else (1,):
            images.append(tuple(s * x for x in w))
            if all(
                _normalized(image(coords[i])) == _normalized([scale * x for x in dst[perm[i]]])
                for i in ready[k]
            ):
                extend(k + 1)
            images.pop()

    extend(0)
    # f and -f work together; the search fixed s_1 = 1
    return found + [tuple(tuple(-x for x in row) for row in m) for m in found]


def automorphism_oracle(vectors):
    """Every (ray permutation, det A) for A in GL_g(Z) mapping each vector
    to plus or minus a vector of the list.

    Brute force over the images of a basis b_1..b_g chosen among the
    vectors, each image any vector with either sign.  Once b_1..b_k have
    images, every vector in their span has its image fixed, and a branch
    stops when one of those images is not on the list.  The vectors must
    be sign-normalized, distinct and span Q^g.  perm[i] = j means
    A v_i = +-v_j; A and -A both appear.
    """
    vectors = [tuple(v) for v in vectors]
    g = len(vectors[0])
    basis = []
    for i in range(len(vectors)):
        if rank_oracle([vectors[j] for j in basis + [i]]) > len(basis):
            basis.append(i)
    if len(basis) != g:
        raise ValueError("vectors do not span")
    vmat = Matrix([list(vectors[i]) for i in basis]).T
    scale = abs(int(vmat.det()))
    # coordinates in the basis, times |det V| so that they are integers
    vinv = [[int(x * scale) for x in row] for row in vmat.inv().tolist()]
    coords = [[sum(vinv[t][r] * v[r] for r in range(g)) for t in range(g)] for v in vectors]
    # vectors whose image is fixed once the first k basis images are
    support = [max((t for t in range(g) if c[t]), default=-1) for c in coords]
    ready = [[i for i in range(len(vectors)) if support[i] == k] for k in range(g)]
    index = {v: j for j, v in enumerate(vectors)}
    found = set()
    images = []
    chosen = []

    def image(i):
        out = [sum(coords[i][t] * images[t][r] for t in range(len(images))) for r in range(g)]
        if any(x % scale for x in out):
            return None
        return index.get(_normalized([x // scale for x in out]))

    def extend(k):
        if k == g:
            a = [[sum(images[t][r] * vinv[t][c] for t in range(g)) for c in range(g)] for r in range(g)]
            if any(x % scale for row in a for x in row):
                return
            d = _sylvester_det([[x // scale for x in row] for row in a])
            if d not in (1, -1):
                return
            perm = [image(i) for i in range(len(vectors))]
            if None not in perm and len(set(perm)) == len(perm):
                found.add((tuple(perm), d))
            return
        for j in range(len(vectors)):
            if j in chosen:
                continue
            for s in (1, -1):
                images.append(tuple(s * x for x in vectors[j]))
                chosen.append(j)
                if all(image(i) is not None for i in ready[k]):
                    extend(k + 1)
                images.pop()
                chosen.pop()

    extend(0)
    return found


def orientation_oracle(vectors, perms):
    """For each ray permutation, the sign of the determinant of the linear
    map on span{v v^t} sending every v_i v_i^t to v_perm(i) v_perm(i)^t.

    In a basis of forms chosen among the v_i v_i^t, the map's matrix C
    satisfies (images) = C (basis) on any columns where the basis is
    independent, so det C = det(images) / det(basis) there.
    """
    flat = [[x * y for x in v for y in v] for v in vectors]
    basis = []
    for i in range(len(flat)):
        if rank_oracle([flat[j] for j in basis + [i]]) > len(basis):
            basis.append(i)
    cols = list(Matrix([flat[i] for i in basis]).rref()[1])
    before = _sylvester_det([[flat[i][c] for c in cols] for i in basis])
    signs = {}
    for perm in perms:
        after = _sylvester_det([[flat[perm[i]][c] for c in cols] for i in basis])
        signs[tuple(perm)] = (before * after > 0) - (before * after < 0)
    return signs


def _fraction_det(m):
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def positive_definite_oracle(entries):
    """Positive definiteness of a symmetric rational matrix: every
    principal minor is positive."""
    g = len(entries)
    return all(
        _fraction_det([[entries[i][j] for j in sub] for i in sub]) > 0
        for k in range(1, g + 1)
        for sub in combinations(range(g), k)
    )


def form_value_oracle(entries, v):
    """v^t Q v over Fractions."""
    g = len(v)
    return sum(
        (Fraction(entries[i][j]) * v[i] * v[j] for i in range(g) for j in range(g)),
        Fraction(0),
    )


def conjugate_oracle(entries, h):
    """h Q h^t over Fractions, as a tuple of rows."""
    g = len(entries)
    hq = [[sum((h[i][k] * Fraction(entries[k][j]) for k in range(g)), Fraction(0)) for j in range(g)] for i in range(g)]
    return tuple(
        tuple(sum((hq[i][k] * h[j][k] for k in range(g)), Fraction(0)) for j in range(g))
        for i in range(g)
    )
