"""Exact homology of the built complexes and the derived tables.

Everything is integer arithmetic; ranks come from
fraction-free elimination. The long-exact-sequence solver is a
bookkeeping engine: every deduced dimension carries a note naming the
window that forced it, and unknown is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .complexes import ChainComplexQ, _compose
from .cone import int_field
from .intlinalg import bareiss_rank


def first_defect(cx: ChainComplexQ) -> tuple[int, int, int, int] | None:
    """(n, row, col, value) of the first nonzero entry of d_(n-1) d_n."""
    dmax = cx.g * (cx.g + 1) // 2
    for n in range(1, dmax):
        comp = _compose(cx.diff.get(n - 1, {}), cx.diff.get(n, {}))
        if comp:
            (r, c) = sorted(comp)[0]
            return (n, r, c, comp[(r, c)])
    return None


def verify_complex(cx: ChainComplexQ) -> bool:
    return first_defect(cx) is None


@dataclass
class BettiReport:
    label: str
    g: int
    homology: dict[int, int]
    chain_dims: dict[int, int]

    def euler(self) -> int:
        return sum((-1) ** (n + 1) * d for n, d in self.homology.items())

    def is_acyclic(self) -> bool:
        return all(d == 0 for d in self.homology.values())


def betti(cx: ChainComplexQ) -> BettiReport:
    defect = first_defect(cx)
    if defect is not None:
        n, r, c, v = defect
        raise ValueError(f"not a complex: d_{n - 1} d_{n} has entry {v} at ({r}, {c})")
    dmax = cx.g * (cx.g + 1) // 2
    ranks: dict[int, int] = {}
    for n in range(0, dmax):
        if cx.dim(n) == 0 or cx.dim(n - 1) == 0:
            ranks[n] = 0
        else:
            ranks[n] = bareiss_rank(cx.matrix(n))
    homology = {}
    chain_dims = {}
    for n in range(-1, dmax):
        out_rank = ranks.get(n, 0)
        in_rank = ranks.get(n + 1, 0)
        h = cx.dim(n) - out_rank - in_rank
        if h < 0:
            raise AssertionError(f"negative homology dimension at degree {n}")
        homology[n] = h
        chain_dims[n] = cx.dim(n)
    report = BettiReport(cx.label, cx.g, homology, chain_dims)
    lhs = sum((-1) ** n * d for n, d in homology.items())
    rhs = sum((-1) ** n * d for n, d in chain_dims.items())
    if lhs != rhs:
        raise AssertionError("Euler characteristic bookkeeping broke")
    return report


def top_weight_table(g: int, dims: Mapping[int, int]) -> list[tuple[int, int]]:
    """Nonzero graded pieces as (cohomological degree k, dimension),
    k = g(g+1) - n - 1 for homology degree n, from a degree -> dim map
    (a BettiReport's homology or the dimensions the LES solver forced)."""
    return sorted((g * (g + 1) - n - 1, d) for n, d in dims.items() if d)


def satake_weight0_column(g: int, dims: Mapping[int, int]) -> list[tuple[int, int, int]]:
    """Weight-0 entries (p=g, q, dim) with q = n + 1 - g per nonzero
    degree of a degree -> dim map."""
    return [(g, n + 1 - g, d) for n, d in sorted(dims.items()) if d]


@dataclass
class LesResult:
    g: int
    dims: dict[int, int | None]
    ranks: dict[int, int | None]
    notes: dict[int, str] = field(default_factory=dict)

    def unknown_degrees(self) -> list[int]:
        return [n for n, d in sorted(self.dims.items()) if d is None]


def les_solve(
    h_p_prev: Mapping[int, int | None],
    h_v: Mapping[int, int | None],
    iso_connecting_degrees: Iterable[int],
    g: int = 0,
) -> LesResult:
    """Propagate exactness through
    ... -> H_n(P') -> H_n(P) -> H_n(V) -> H_{n-1}(P') -> ...

    Inputs are total maps (missing degree = known zero, None = unknown).
    The unknown column H_n(P) equals a_n + b_n - r_n - r_{n+1} where
    r_n is the rank of the connecting map H_n(V) -> H_{n-1}(P'); r_n is
    only ever forced (zero ends or a declared isomorphism), never guessed.
    """
    iso = set(iso_connecting_degrees)
    keys = set(h_p_prev) | set(h_v) | iso
    if not keys:
        return LesResult(g, {}, {})
    lo, hi = min(keys), max(keys)

    def a_of(n: int) -> int | None:
        return h_p_prev.get(n, 0)

    def b_of(n: int) -> int | None:
        return h_v.get(n, 0)

    ranks: dict[int, int | None] = {}
    why: dict[int, str] = {}
    for n in range(lo, hi + 2):
        b = b_of(n)
        a = a_of(n - 1)
        if n in iso:
            if a is None or b is None:
                raise ValueError(
                    f"degree {n}: connecting map declared iso on unknown dimensions"
                )
            if a != b:
                raise ValueError(
                    f"degree {n}: connecting map declared iso but "
                    f"dim H_{n}(V)={b} != dim H_{n-1}(P')={a}"
                )
            ranks[n] = b
            why[n] = f"connecting map at {n} declared an isomorphism"
        elif b == 0:
            ranks[n] = 0
            why[n] = f"H_{n}(V)=0 forces rank 0"
        elif a == 0:
            ranks[n] = 0
            why[n] = f"H_{n-1}(P')=0 forces rank 0"
        else:
            ranks[n] = None
            why[n] = f"connecting rank at {n} undetermined"
    dims: dict[int, int | None] = {}
    notes: dict[int, str] = {}
    for n in range(lo, hi + 1):
        a = a_of(n)
        b = b_of(n)
        r_out = ranks.get(n)
        r_in = ranks.get(n + 1)
        if a is None or b is None or r_out is None or r_in is None:
            dims[n] = None
            missing = []
            if a is None:
                missing.append(f"H_{n}(P')")
            if b is None:
                missing.append(f"H_{n}(V)")
            if r_out is None:
                missing.append(why[n])
            if r_in is None:
                missing.append(why[n + 1])
            notes[n] = "unknown: " + "; ".join(missing)
            continue
        val = a + b - r_out - r_in
        if val < 0:
            raise ValueError(
                f"inconsistent inputs: degree {n} forces dimension {val}"
            )
        dims[n] = val
        notes[n] = (
            f"H_{n}(P) = {a} + {b} - {r_out} - {r_in}"
            f" ({why[n]}; {why[n + 1]})"
        )
    return LesResult(g, dims, ranks, notes)


def parse_les_fixture(text: str) -> tuple[int, dict[int, int | None], dict[int, int | None], set[int]]:
    """`les g=<int>`, `range <lo> <hi>`, `P <n> <dim|?>`, `V <n> <dim|?>`,
    `iso <n>...`; degrees inside range without an entry are zero."""
    g = None
    lo = hi = None
    p_entries: dict[int, int | None] = {}
    v_entries: dict[int, int | None] = {}
    iso: set[int] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "les":
            if len(parts) != 2 or not parts[1].startswith("g="):
                raise ValueError(f"line {ln}: expected `les g=<int>`")
            g = int_field(parts[1][2:], ln)
        elif parts[0] == "range":
            if len(parts) != 3:
                raise ValueError(f"line {ln}: expected `range <lo> <hi>`")
            lo, hi = int_field(parts[1], ln), int_field(parts[2], ln)
            if lo > hi:
                raise ValueError(f"line {ln}: empty range {lo} > {hi}")
        elif parts[0] in ("P", "V"):
            if len(parts) != 3:
                raise ValueError(f"line {ln}: expected `{parts[0]} <n> <dim|?>`")
            n = int_field(parts[1], ln)
            val = None if parts[2] == "?" else int_field(parts[2], ln)
            (p_entries if parts[0] == "P" else v_entries)[n] = val
        elif parts[0] == "iso":
            iso.update(int_field(x, ln) for x in parts[1:])
        else:
            raise ValueError(f"line {ln}: unrecognized directive {parts[0]!r}")
    if g is None or lo is None:
        raise ValueError("les fixture needs `les g=` and `range` lines")
    for n in p_entries | v_entries:
        if not lo <= n <= hi:
            raise ValueError(f"entry degree {n} outside the declared range")
    h_p = {n: p_entries.get(n, 0) for n in range(lo, hi + 1)}
    h_v = {n: v_entries.get(n, 0) for n in range(lo, hi + 1)}
    return g, h_p, h_v, iso


def format_betti(report: BettiReport) -> str:
    lines = [f"# homology of {report.label} (g={report.g})"]
    lines.append("# degree  dim C_n  dim H_n")
    for n in sorted(report.chain_dims):
        lines.append(
            f"# {n:>6}  {report.chain_dims[n]:>7}  {report.homology[n]:>7}"
        )
    for n in sorted(report.homology):
        lines.append(f"H {n} {report.homology[n]}")
    return "\n".join(lines) + "\n"


def format_top_weight(g: int, table: list[tuple[int, int]]) -> str:
    lines = [f"# top-weight cohomology of ambient {g} (nonzero graded pieces)"]
    if not table:
        lines.append("# none")
    for k, d in table:
        lines.append(f"GrW {k} {d}")
    return "\n".join(lines) + "\n"


def format_satake(entries: list[tuple[int, int, int]]) -> str:
    lines = ["# weight-0 Satake column entries"]
    if not entries:
        lines.append("# none")
    for p, q, d in entries:
        lines.append(f"E1 {p} {q} {d}")
    return "\n".join(lines) + "\n"


def format_les(result: LesResult) -> str:
    lines = [f"# long-exact-sequence bookkeeping for ambient {result.g}"]
    for n in sorted(result.dims):
        note = result.notes.get(n, "")
        if note:
            lines.append(f"# {note}")
        val = result.dims[n]
        lines.append(f"H {n} {'?' if val is None else val}")
    return "\n".join(lines) + "\n"
