"""Exact quadratic-form arithmetic: minimal vectors, perfection, cones.

Forms are symmetric rational matrices. Positive definite forms only are
accepted by the enumeration routines; catalogs normalize the minimum to 1
on ingestion because the cone of a form only depends on it up to scale.

The short-vector walk runs over integers: the rational LDL^T of a form
is computed once and scaled by common denominators so that every level
bound is an integer (see minimal_vectors). Each form keeps its minimal
vectors once computed, so the Voronoi neighbour walk, which asks for
them repeatedly on one base form, pays for the enumeration once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

from .cone import Face, PerfectCone
from .intlinalg import (
    classify_symmetric,
    flatten_rank1,
    integer_kernel_vector,
    ldlt,
    rank_rows,
    sign_normalize,
    vec_gcd,
)

POSITIVE_DEFINITE = "positive-definite"
RATIONAL_KERNEL_PSD = "rational-kernel-psd"
OTHER = "other"


class QuadraticForm:
    __slots__ = ("g", "entries", "definiteness", "name", "_mv")

    def __init__(self, entries: Sequence[Sequence], name: str = ""):
        rows = [tuple(Fraction(x) for x in row) for row in entries]
        g = len(rows)
        if any(len(r) != g for r in rows):
            raise ValueError("form matrix must be square")
        for i in range(g):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("form matrix must be symmetric")
        self.g = g
        self.entries = tuple(rows)
        self.definiteness = classify_symmetric(rows)
        self.name = name
        self._mv = None  # minimal_vectors(self), once asked for

    def value(self, v: Sequence[int]) -> Fraction:
        q = self.entries
        total = Fraction(0)
        for i, vi in enumerate(v):
            if vi:
                total += q[i][i] * vi * vi
                for j in range(i + 1, len(v)):
                    if v[j]:
                        total += 2 * q[i][j] * vi * v[j]
        return total

    def scaled(self, factor: Fraction) -> "QuadraticForm":
        return QuadraticForm(
            [[x * factor for x in row] for row in self.entries], self.name
        )

    def conjugated(self, h: Sequence[Sequence[int]]) -> "QuadraticForm":
        """h Q h^t for an integer matrix h."""
        g = self.g
        hq = [
            [sum(h[i][k] * self.entries[k][j] for k in range(g)) for j in range(g)]
            for i in range(g)
        ]
        out = [
            [sum(hq[i][k] * h[j][k] for k in range(g)) for j in range(g)]
            for i in range(g)
        ]
        return QuadraticForm(out, self.name)

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"QuadraticForm(g={self.g}{label})"


@dataclass(frozen=True)
class MinimalVectorSet:
    minimum: Fraction
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.vectors)


def minimal_vectors(q: QuadraticForm) -> MinimalVectorSet:
    """Exhaustive short-vector enumeration at the minimum of q.

    Layered bounds from the exact LDL^T of q (Fincke-Pohst), walked over
    integers: row i of U is written over a common denominator den_i, so
    the level term d_i (x_i + sum_j u_ij x_j)^2 is e_i s^2 with the
    integer s = den_i x_i + C. Scaling every e_i by the lcm M of their
    denominators makes M Q(x) an integer. One representative per +- pair,
    normalized to a positive leading entry, sorted. The result is kept
    on q, so asking again for the same form costs nothing.
    """
    if q._mv is not None:
        return q._mv
    if q.definiteness != POSITIVE_DEFINITE:
        raise ValueError("minimal vectors need a positive definite form")
    g = q.g
    d, u = ldlt(q.entries)
    dens = [math.lcm(*(u[i][j].denominator for j in range(i, g))) for i in range(g)]
    rows = [
        [(j, int(u[i][j] * dens[i])) for j in range(i + 1, g) if u[i][j]]
        for i in range(g)
    ]
    levels = [d[i] / (dens[i] * dens[i]) for i in range(g)]
    scale = math.lcm(*(e.denominator for e in levels))
    levels = [int(e * scale) for e in levels]
    # q_ii = Q(e_i), so scale * q_ii is an integer
    best = min(int(q.entries[i][i] * scale) for i in range(g))
    found: list[tuple[int, ...]] = []
    x = [0] * g

    def walk(i: int, partial: int, zero_above: bool):
        nonlocal best, found
        if i < 0:
            v = tuple(x)
            if all(t == 0 for t in v):
                return
            if partial < best:
                best = partial
                found = [v]
            elif partial == best:
                found.append(v)
            return
        c = 0
        for j, a in rows[i]:
            if x[j]:
                c += a * x[j]
        den = dens[i]
        e = levels[i]
        if zero_above:
            t = 0
            s = c
            while True:
                level = partial + e * s * s
                if level > best:
                    break
                x[i] = t
                walk(i - 1, level, t == 0)
                t += 1
                s += den
            x[i] = 0
            return
        start = -(c // den)
        t = start
        s = den * t + c
        while True:
            level = partial + e * s * s
            if level > best:
                break
            x[i] = t
            walk(i - 1, level, False)
            t += 1
            s += den
        t = start - 1
        s = den * t + c
        while True:
            level = partial + e * s * s
            if level > best:
                break
            x[i] = t
            walk(i - 1, level, False)
            t -= 1
            s -= den
        x[i] = 0

    walk(g - 1, 0, True)
    reps = sorted(sign_normalize(v) for v in found)
    for v in reps:
        if vec_gcd(v) != 1:
            raise AssertionError("non-primitive vector attained the minimum")
    q._mv = MinimalVectorSet(Fraction(best, scale), tuple(reps))
    return q._mv


def is_perfect(q: QuadraticForm) -> bool:
    """True iff the rank-1 forms of the minimal vectors span Sym_g."""
    mv = minimal_vectors(q)
    target = q.g * (q.g + 1) // 2
    return rank_rows([flatten_rank1(v) for v in mv.vectors]) == target


def cone_of_form(q: QuadraticForm) -> PerfectCone:
    mv = minimal_vectors(q)
    return PerfectCone(q.g, mv.vectors)


def principal_form(g: int) -> QuadraticForm:
    if g < 1:
        raise ValueError("g must be at least 1")
    half = Fraction(1, 2)
    entries = [[Fraction(1) if i == j else half for j in range(g)] for i in range(g)]
    return QuadraticForm(entries, name=f"principal_{g}")


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


def load_form_catalog(source) -> list[QuadraticForm]:
    """Parse the line-oriented catalog format.

    `g <int>` once, then per form: `form <name>` and g rows of g exact
    rationals. `#` starts a comment. Forms are validated symmetric and
    positive definite, then scaled so the minimum is 1.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        text = "\n".join(source)
    lines = text.splitlines()
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
        if form.definiteness != POSITIVE_DEFINITE:
            raise CatalogError(
                pending_line,
                f"form {pending_name!r} violates positive definiteness",
            )
        forms.append(normalize_minimum(form))
        pending_name = None
        pending_rows = []

    for idx, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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


def bundled_catalog_text(g: int) -> str:
    from importlib import resources

    path = resources.files("perfcone.data").joinpath(f"forms_g{g}.txt")
    return path.read_text(encoding="utf-8")


def load_bundled_catalog(g: int) -> list[QuadraticForm]:
    return load_form_catalog(bundled_catalog_text(g))


def _facet_normal(q: QuadraticForm, sigma: PerfectCone, facet: Face) -> list[list[Fraction]]:
    """Inward primitive normal R of a facet: v^t R v = 0 on the facet,
    > 0 on the remaining minimal vectors."""
    idx = sorted(facet.generator_indices)
    rows = [flatten_rank1(sigma.generators[i]) for i in idx]
    n = integer_kernel_vector(rows) if rows else None
    if n is None:
        raise ValueError("face does not span a hyperplane of the cone")
    g = q.g
    coeff = list(n)
    others = [i for i in range(len(sigma.generators)) if i not in set(idx)]
    vals = []
    for i in others:
        vals.append(sum(c * f for c, f in zip(coeff, flatten_rank1(sigma.generators[i]))))
    if all(v > 0 for v in vals):
        pass
    elif all(v < 0 for v in vals):
        coeff = [-c for c in coeff]
    else:
        raise ValueError("face is not a facet: generators on both sides")
    r = [[Fraction(0)] * g for _ in range(g)]
    k = 0
    for i in range(g):
        for j in range(i, g):
            if i == j:
                r[i][i] = Fraction(coeff[k])
            else:
                r[i][j] = Fraction(coeff[k], 2)
                r[j][i] = Fraction(coeff[k], 2)
            k += 1
    return r


def voronoi_neighbor(q: QuadraticForm, facet: Face) -> QuadraticForm:
    """The unique perfect neighbor across a facet of sigma[q].

    Exact line search Q + tR along the inward facet normal, increasing t
    until new vectors join the minimal set. Requires m(q) = 1.
    """
    sigma = cone_of_form(q)
    if facet.parent != sigma:
        raise ValueError("facet does not belong to the cone of this form")
    if not facet.generator_indices:
        raise ValueError("empty face rejected (no pegged minimal vectors)")
    fcone = facet.cone
    if fcone.dim != sigma.dim - 1:
        raise ValueError("face is not of codimension 1")
    mv = minimal_vectors(q)
    if mv.minimum != 1:
        raise ValueError("neighbor walk expects a form normalized to minimum 1")
    r = _facet_normal(q, sigma, facet)
    pegged = {sigma.generators[i] for i in facet.generator_indices}
    g = q.g
    t_lo = Fraction(0)
    t = Fraction(1)
    for _ in range(1000):
        qt_entries = [
            [q.entries[i][j] + t * r[i][j] for j in range(g)] for i in range(g)
        ]
        if classify_symmetric(qt_entries) != POSITIVE_DEFINITE:
            t = (t_lo + t) / 2
            continue
        qt = QuadraticForm(qt_entries)
        mvt = minimal_vectors(qt)
        if mvt.minimum == 1:
            if set(mvt.vectors) - pegged:
                target = g * (g + 1) // 2
                if rank_rows([flatten_rank1(v) for v in mvt.vectors]) != target:
                    raise AssertionError("neighbor walk stopped at a non-perfect form")
                return QuadraticForm(qt_entries, name=f"{q.name}~neighbor")
            t_lo = t
            t = 2 * t
            continue
        cut = None
        for w in mvt.vectors:
            val0 = q.value(w)
            slope = _eval_symmetric(r, w)
            if slope < 0:
                tw = (1 - val0) / slope
                if cut is None or tw < cut:
                    cut = tw
        if cut is None or cut <= t_lo:
            raise AssertionError("neighbor walk lost its bracket")
        t = cut
    raise RuntimeError("neighbor walk did not terminate")


def _eval_symmetric(m: Sequence[Sequence[Fraction]], v: Sequence[int]) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            total += m[i][i] * vi * vi
            for j in range(i + 1, len(v)):
                if v[j]:
                    total += 2 * m[i][j] * vi * v[j]
    return total
