"""Exact quadratic-form arithmetic: minimal vectors, perfection, cones.

A form is a symmetric rational matrix, stored fraction-free: an integer
matrix ``num`` over a positive denominator ``den`` with no common factor,
so equal forms have equal representations. ``entries`` gives the same
matrix as Fractions. Positive definite forms only are accepted by the
enumeration routines; catalogs normalize the minimum to 1 on ingestion
because the cone of a form only depends on it up to scale.

One Bareiss elimination of ``num`` (``intlinalg.Echelon``) settles
positive definiteness by Sylvester's criterion on the leading minors, and
its rows give the integer level bounds of the short-vector walk (see
minimal_vectors). A form keeps those rows as ``_rows``, None when it is
not positive definite; that is the only definiteness question asked,
since every form of a Voronoi complex is positive definite. Each form
keeps its minimal vectors once computed, so the Voronoi neighbour walk,
which asks for them repeatedly on one base form, pays for the
enumeration once. The walk's line search runs on an integer pencil of
forms; only its parameter t is a Fraction. Its facet normals are read
off the dual basis of the parent cone, which the cone keeps from its
first normal, so a facet costs a kernel line in the few coordinates of
the basis forms off it, not an elimination of the facet's forms (see
_facet_normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

from .cone import Face, PerfectCone, indices, records, span_basis
from .intlinalg import (
    Echelon,
    adjugate_det,
    dot,
    flatten_rank1,
    primitive_vector,
    rank_rows,
    sign_normalize,
    vec_gcd,
)


class QuadraticForm:
    """The symmetric matrix num / den: num an integer matrix (a tuple of
    rows), den > 0 and gcd(den, num) = 1."""

    __slots__ = ("g", "num", "den", "name", "_rows", "_mv")

    def __init__(self, entries: Sequence[Sequence], name: str = ""):
        rows = [[Fraction(x) for x in row] for row in entries]
        g = len(rows)
        if any(len(r) != g for r in rows):
            raise ValueError("form matrix must be square")
        den = math.lcm(*(x.denominator for row in rows for x in row))
        num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        if any(num[i][j] != num[j][i] for i in range(g) for j in range(i)):
            raise ValueError("form matrix must be symmetric")
        self._set(num, den, name)

    @classmethod
    def _of(cls, num: Sequence[Sequence[int]], den: int, name: str = "") -> "QuadraticForm":
        """The form num / den, for an integer symmetric num and den > 0."""
        q = cls.__new__(cls)
        q._set(num, den, name)
        return q

    def _set(self, num: Sequence[Sequence[int]], den: int, name: str) -> None:
        c = math.gcd(den, *(x for row in num for x in row))
        self.g = len(num)
        self.num = tuple(tuple(x // c for x in row) for row in num)
        self.den = den // c
        self.name = name
        self._rows = _sylvester_rows(self.num)  # None unless positive definite
        self._mv = None  # minimal_vectors(self), once asked for

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def value(self, v: Sequence[int]) -> Fraction:
        return Fraction(_int_value(self.num, v), self.den)

    def scaled(self, factor: Fraction) -> "QuadraticForm":
        f = Fraction(factor)
        num = [[x * f.numerator for x in row] for row in self.num]
        return QuadraticForm._of(num, self.den * f.denominator, self.name)

    def conjugated(self, h: Sequence[Sequence[int]]) -> "QuadraticForm":
        """h Q h^t for an integer matrix h."""
        # num is symmetric, so its rows are its columns
        hq = [[dot(row, col) for col in self.num] for row in h]
        out = [[dot(row, hj) for hj in h] for row in hq]
        return QuadraticForm._of(out, self.den, self.name)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"QuadraticForm(g={self.g}{label})"


def _int_value(m: Sequence[Sequence[int]], v: Sequence[int]) -> int:
    """v^t m v."""
    return sum(x * dot(row, v) for x, row in zip(v, m) if x)


def _sylvester_rows(num: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """The Bareiss rows of num when num is positive definite, else None.

    Row i is zero left of the diagonal and holds the leading principal
    minor of order i + 1 on it; num is positive definite exactly when all
    of these are positive (Sylvester's criterion).
    """
    e = Echelon()
    for i, row in enumerate(num):
        if not e.add(row) or e.pivots[i] != i or e.det <= 0:
            return None
    return e.rows


@dataclass(frozen=True)
class MinimalVectorSet:
    minimum: Fraction
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.vectors)


def minimal_vectors(q: QuadraticForm) -> MinimalVectorSet:
    """Exhaustive short-vector enumeration at the minimum of q.

    Layered bounds (Fincke-Pohst) from the Bareiss rows E_i of num, walked
    over integers. With p_i the leading minor of order i (p_0 = 1),
    num(x) = sum_i (E_i . x)^2 / (p_i p_(i+1)). Dividing E_i by its
    content c_i makes the level term w_i s^2, with the integer
    s = (p_(i+1) / c_i) x_i + C and w_i = c_i^2 / (p_i p_(i+1)); scaling
    every w_i by the lcm M of their denominators makes M num(x) an
    integer. The walk recurses from level g - 1 down to level 1; level 0
    records each candidate inside its own loop, with no call per vector.
    One representative per +- pair, normalized to a positive leading
    entry, sorted. The result is kept on q, so asking again for the same
    form costs nothing.
    """
    if q._mv is not None:
        return q._mv
    if q._rows is None:
        raise ValueError("minimal vectors need a positive definite form")
    g = q.g
    steps: list[int] = []
    terms: list[list[tuple[int, int]]] = []
    weights: list[tuple[int, int]] = []
    prev = 1
    for i, row in enumerate(q._rows):
        c = math.gcd(*row)  # divides the pivot row[i]
        pivot = row[i]
        steps.append(pivot // c)
        terms.append([(j, row[j] // c) for j in range(i + 1, g) if row[j]])
        top, bottom = c * c, prev * pivot
        k = math.gcd(top, bottom)
        weights.append((top // k, bottom // k))
        prev = pivot
    scale = math.lcm(*(b for _a, b in weights))
    levels = [a * (scale // b) for a, b in weights]
    # num_ii = den Q(e_i), so scale * num_ii bounds the minimum
    best = min(q.num[i][i] for i in range(g)) * scale
    found: list[tuple[int, ...]] = []
    x = [0] * g

    def walk(i: int, partial: int, zero_above: bool):
        nonlocal best, found
        c = 0
        for j, a in terms[i]:
            if x[j]:
                c += a * x[j]
        den = steps[i]
        e = levels[i]
        # with every entry above zero, c = 0 and only t >= 0 is walked:
        # -t gives the negated vector
        start = -(c // den)
        for step in (1,) if zero_above else (1, -1):
            t = start if step > 0 else start - 1
            s = den * t + c
            while True:
                level = partial + e * s * s
                if level > best:
                    break
                x[i] = t
                if i:
                    walk(i - 1, level, zero_above and t == 0)
                elif t or not zero_above:  # the last level: a nonzero x
                    if level < best:
                        best = level
                        found = [tuple(x)]
                    else:
                        found.append(tuple(x))
                t += step
                s += step * den
        x[i] = 0

    walk(g - 1, 0, True)
    del walk  # walk reaches itself through its closure cell: a reference cycle
    reps = sorted(sign_normalize(v) for v in found)
    for v in reps:
        if vec_gcd(v) != 1:
            raise AssertionError("non-primitive vector attained the minimum")
    q._mv = MinimalVectorSet(Fraction(best, scale * q.den), tuple(reps))
    return q._mv


def is_perfect(q: QuadraticForm) -> bool:
    """True iff the rank-1 forms of the minimal vectors span Sym_g."""
    mv = minimal_vectors(q)
    target = q.g * (q.g + 1) // 2
    return rank_rows([flatten_rank1(v) for v in mv.vectors]) == target


def cone_of_form(q: QuadraticForm) -> PerfectCone:
    """The cone of q's minimal vectors. minimal_vectors gives them sorted,
    sign-normalized, primitive and distinct, so the cone takes them as
    they are, without the constructor's checks (as subcone does)."""
    c = PerfectCone.__new__(PerfectCone)
    c._start(q.g, minimal_vectors(q).vectors)
    return c


def principal_form(g: int) -> QuadraticForm:
    if g < 1:
        raise ValueError("g must be at least 1")
    num = [[2 if i == j else 1 for j in range(g)] for i in range(g)]
    return QuadraticForm._of(num, 2, name=f"principal_{g}")


def normalize_minimum(q: QuadraticForm) -> QuadraticForm:
    m = minimal_vectors(q).minimum
    return q if m == 1 else q.scaled(1 / m)


class CatalogError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_rational(token: str, lineno: int) -> Fraction:
    if "." in token:
        raise CatalogError(lineno, f"decimal literal {token!r} not accepted")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(lineno, f"bad rational {token!r}") from None


def load_form_catalog(source: str | IO[str]) -> list[QuadraticForm]:
    """Parse the line-oriented catalog format, from a string or a text
    file.

    `g <int>` once, then per form: `form <name>` and g rows of g exact
    rationals. `#` starts a comment. Forms are validated symmetric,
    positive definite and perfect, then scaled so the minimum is 1.
    """
    text = source if isinstance(source, str) else source.read()
    g = None
    forms: list[QuadraticForm] = []
    pending_name = None
    pending_rows: list[list[Fraction]] = []
    pending_line = 0

    def flush():
        nonlocal pending_name, pending_rows
        if pending_name is None:
            return
        if len(pending_rows) != g:
            raise CatalogError(pending_line, f"form {pending_name!r} needs {g} rows")
        try:
            form = QuadraticForm(pending_rows, name=pending_name)
        except ValueError as exc:
            raise CatalogError(pending_line, str(exc)) from None
        if form._rows is None:
            raise CatalogError(
                pending_line,
                f"form {pending_name!r} violates positive definiteness",
            )
        if not is_perfect(form):
            raise CatalogError(pending_line, f"form {pending_name!r} is not perfect")
        forms.append(normalize_minimum(form))
        pending_name = None
        pending_rows = []

    for idx, parts in records(text)[:-1]:
        if g is None or parts[0] == "g":
            if parts[0] != "g" or len(parts) != 2:
                raise CatalogError(idx, "expected `g <int>` first")
            try:
                new_g = int(parts[1])
            except ValueError:
                raise CatalogError(idx, "expected `g <int>` first") from None
            if new_g < 1:
                raise CatalogError(idx, "g must be positive")
            if g is not None:
                flush()
                if new_g != g:
                    raise CatalogError(idx, "ambient changed mid-catalog")
            g = new_g
            continue
        if parts[0] == "form":
            if len(parts) != 2:
                raise CatalogError(idx, "expected `form <name>`")
            flush()
            pending_name = parts[1]
            pending_line = idx
            continue
        if pending_name is None:
            raise CatalogError(idx, "matrix row outside a form block")
        if len(parts) != g:
            raise CatalogError(idx, f"expected {g} rationals")
        pending_rows.append([_parse_rational(tok, idx) for tok in parts])
        if len(pending_rows) > g:
            raise CatalogError(idx, f"form {pending_name!r} has too many rows")
    flush()
    return forms


_BUNDLED = {"forms": "form catalog", "les": "bookkeeping fixture"}


def bundled_text(kind: str, g: int) -> str:
    """The bundled data file {kind}_g{g}.txt: kind "forms" is a form
    catalog, "les" a bookkeeping fixture."""
    from importlib import resources

    ref = resources.files("perfcone.data").joinpath(f"{kind}_g{g}.txt")
    if not ref.is_file():
        raise ValueError(f"no bundled {_BUNDLED[kind]} for ambient {g}")
    return ref.read_text(encoding="utf-8")


def load_bundled_catalog(g: int) -> list[QuadraticForm]:
    return load_form_catalog(bundled_text("forms", g))


def _facet_normal(sigma: PerfectCone, mask: int) -> list[list[int]]:
    """2R for the inward primitive normal R of the facet on the generators
    of mask of a full-dimensional cone: v^t R v = 0 on the facet, > 0 on
    the remaining minimal vectors. R has half-integer entries off the
    diagonal, so 2R is the integer matrix.

    The normal is read off the cone's dual basis, kept on the cone
    (PerfectCone._dual) from the first normal taken: (ref, coords) =
    span_basis(sigma), read off _dual when facet_index_sets left it
    there, and M = sign(det B) adj(B), B the matrix whose columns are
    the forms of ref, so that coords[i] = M flat[i] and row k of M is
    dual to form ref[k]. The normal vanishes on the forms of ref
    in the facet, so it is sum_k z_k M[k] over the positions k of ref off
    the facet (off), with z the primitive kernel line of the facet's
    other rows coords[i], cut to those positions, and it takes the value
    sum_k z_k coords[i][k] on generator i. Raises ValueError when the
    face is not a facet."""
    g = sigma.g
    dual = sigma._dual
    if dual is None or dual[2] is None:
        ref, coords = span_basis(sigma) if dual is None else dual[:2]
        if len(ref) != g * (g + 1) // 2:
            raise ValueError("face does not span a hyperplane of the cone")
        adj, det = adjugate_det(list(zip(*(sigma.flat[r] for r in ref))))
        dual = sigma._dual = (ref, coords, adj if det > 0 else [[-x for x in row] for row in adj])
    ref, coords, m = dual
    on = set(indices(mask, len(coords)))
    off = [k for k, r in enumerate(ref) if r not in on]
    e = Echelon()
    for i in sorted(on.difference(ref)):
        row = coords[i]
        e.add([row[k] for k in off])
    z = e.kernel_vector(len(off))
    if z is None:
        raise ValueError("face is not of codimension 1")
    terms = list(zip(off, z))
    # coords[ref[k]] = D e_k with D > 0, so generator ref[k] takes the value
    # D z_k; kernel_vector makes one z_k positive, so off a facet every
    # value is positive
    rest = (row for i, row in enumerate(coords) if i not in on)
    if any(sum(x * row[k] for k, x in terms) <= 0 for row in rest):
        raise ValueError("face is not a facet: generators on both sides")
    coeff = [0] * len(ref)
    for k, x in terms:
        coeff = [a + x * b for a, b in zip(coeff, m[k])]
    coeff = primitive_vector(coeff)
    r2 = [[0] * g for _ in range(g)]
    k = 0
    for i in range(g):
        for j in range(i, g):
            if i == j:
                r2[i][i] = 2 * coeff[k]
            else:
                r2[i][j] = r2[j][i] = coeff[k]
            k += 1
    return r2


def voronoi_neighbor(q: QuadraticForm, facet: Face) -> QuadraticForm:
    """The unique perfect neighbor across a facet of sigma[q].

    Exact line search Q + tR along the inward facet normal (see
    _facet_normal), increasing t until new vectors join the minimal set.
    Requires m(q) = 1. With t = a/b and the integer 2R, Q + tR is the
    integer pencil 2b num + a den 2R over 2b den, so t is the only
    Fraction. A face that is not a facet raises ValueError.
    """
    sigma = facet.parent  # the caller's cone keeps its dimension once known
    mv = minimal_vectors(q)
    if sigma.g != q.g or sigma.generators != mv.vectors:
        raise ValueError("facet does not belong to the cone of this form")
    if not facet.mask:
        raise ValueError("empty face rejected (no pegged minimal vectors)")
    if mv.minimum != 1:
        raise ValueError("neighbor walk expects a form normalized to minimum 1")
    r2 = _facet_normal(sigma, facet.mask)
    pegged = {sigma.generators[i] for i in indices(facet.mask, len(sigma.generators))}
    num, den = q.num, q.den
    name = f"{q.name}~neighbor"
    t_lo = Fraction(0)
    t = Fraction(1)
    for _ in range(1000):
        a, b = t.numerator, t.denominator
        pencil = [[2 * b * x + a * den * y for x, y in zip(qr, rr)] for qr, rr in zip(num, r2)]
        qt = QuadraticForm._of(pencil, 2 * b * den, name)
        if qt._rows is None:  # not positive definite
            t = (t_lo + t) / 2
            continue
        mvt = minimal_vectors(qt)
        if mvt.minimum == 1:
            new = set(mvt.vectors) - pegged
            if new:
                # the pegged forms span the facet's hyperplane and stay
                # minimal, so qt is perfect iff a new form lies off it
                if not any(_int_value(r2, w) for w in new):
                    raise AssertionError("neighbor walk stopped at a non-perfect form")
                return qt
            t_lo = t
            t = 2 * t
            continue
        cut = None
        for w in mvt.vectors:
            slope = _int_value(r2, w)  # 2 R(w)
            if slope < 0:
                # Q(w) + tw R(w) = 1
                tw = Fraction(2 * (den - _int_value(num, w)), den * slope)
                if cut is None or tw < cut:
                    cut = tw
        if cut is None or cut <= t_lo:
            raise AssertionError("neighbor walk lost its bracket")
        t = cut
    raise RuntimeError("neighbor walk did not terminate")
