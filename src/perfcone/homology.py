"""Exact homology of the built complexes and the derived tables.

Everything is integer arithmetic. Each rank is read off the complex's
own sparse boundary map: unit pivots first, each exact over Z, then
fraction-free (Bareiss) elimination of the remainder
(intlinalg.bareiss_rank). The long-exact-sequence solver reads
H(P_g) off H(V_g) and H(P_{g-1}): the inflation subcomplex of P_g
contains P_{g-1} and is acyclic, so the sequence splits into short
exact pieces and every connecting rank is an input, never a guess.
Each dimension carries a note saying how it was forced or which input
it waits for; unknown is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    ranks = {n: bareiss_rank(entries) for n, entries in cx.diff.items() if entries}
    homology = {}
    for n in cx.degrees():
        h = cx.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h < 0:
            raise AssertionError(f"negative homology dimension at degree {n}")
        homology[n] = h
    return BettiReport(cx.label, cx.g, homology, {n: cx.dim(n) for n in cx.degrees()})


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
    notes: dict[int, str]

    def unknown_degrees(self) -> list[int]:
        return [n for n, d in sorted(self.dims.items()) if d is None]


def les_solve(
    h_p_prev: Mapping[int, int | None],
    h_v: Mapping[int, int | None],
    g: int,
) -> LesResult:
    """H(P) from H(V) and H(P') through the short exact sequences
    0 -> H_n(P) -> H_n(V) -> H_{n-1}(P') -> 0.

    P' = P_{g-1} lies in the inflation subcomplex I_g of P = P_g, and
    I_g is acyclic, so H(P') -> H(P) is zero and every connecting map
    H_n(V) -> H_{n-1}(P') is onto: dim H_n(P) = dim H_n(V) - dim
    H_{n-1}(P'). Inputs are total maps (missing degree = known zero,
    None = unknown); a dimension is only ever forced, never guessed.
    """
    keys = set(h_p_prev) | set(h_v)
    if not keys:
        return LesResult(g, {}, {})
    lo, hi = min(keys), max(keys)
    top = h_p_prev.get(hi, 0)
    if top:
        raise ValueError(
            f"inconsistent inputs: H_{hi}(P')={top} but H_{hi + 1}(V)=0"
        )
    dims: dict[int, int | None] = {}
    notes: dict[int, str] = {}
    for n in range(lo, hi + 1):
        b = h_v.get(n, 0)
        a = h_p_prev.get(n - 1, 0)
        if a is not None and b is not None:
            if a > b:
                raise ValueError(
                    f"inconsistent inputs: H_{n}(V)={b} cannot map onto H_{n - 1}(P')={a}"
                )
            dims[n] = b - a
            notes[n] = f"H_{n}(P) = H_{n}(V) - H_{n - 1}(P') = {b} - {a}"
        elif b == 0:
            dims[n] = 0
            notes[n] = f"H_{n}(V)=0 forces H_{n}(P)=0"
        else:
            dims[n] = None
            missing = [s for s, d in ((f"H_{n}(V)", b), (f"H_{n - 1}(P')", a)) if d is None]
            notes[n] = "unknown: " + "; ".join(missing)
    return LesResult(g, dims, notes)


def parse_les_fixture(text: str) -> tuple[int, dict[int, int | None], dict[int, int | None]]:
    """`les g=<int>`, `range <lo> <hi>`, `P <n> <dim|?>`, `V <n> <dim|?>`,
    each directive once (P and V once per degree); degrees inside range
    without an entry are zero."""
    g = None
    lo = hi = None
    entries: dict[str, dict[int, int | None]] = {"P": {}, "V": {}}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "les":
            if len(parts) != 2 or not parts[1].startswith("g="):
                raise ValueError(f"line {ln}: expected `les g=<int>`")
            if g is not None:
                raise ValueError(f"line {ln}: second `les` line")
            g = int_field(parts[1][2:], ln)
        elif parts[0] == "range":
            if len(parts) != 3:
                raise ValueError(f"line {ln}: expected `range <lo> <hi>`")
            if lo is not None:
                raise ValueError(f"line {ln}: second `range` line")
            lo, hi = int_field(parts[1], ln), int_field(parts[2], ln)
            if lo > hi:
                raise ValueError(f"line {ln}: empty range {lo} > {hi}")
        elif parts[0] in entries:
            if len(parts) != 3:
                raise ValueError(f"line {ln}: expected `{parts[0]} <n> <dim|?>`")
            n = int_field(parts[1], ln)
            column = entries[parts[0]]
            if n in column:
                raise ValueError(f"line {ln}: second {parts[0]} entry for degree {n}")
            column[n] = None if parts[2] == "?" else int_field(parts[2], ln)
        else:
            raise ValueError(f"line {ln}: unrecognized directive {parts[0]!r}")
    if g is None or lo is None:
        raise ValueError("les fixture needs `les g=` and `range` lines")
    for n in entries["P"] | entries["V"]:
        if not lo <= n <= hi:
            raise ValueError(f"entry degree {n} outside the declared range")
    h_p, h_v = ({n: entries[k].get(n, 0) for n in range(lo, hi + 1)} for k in "PV")
    return g, h_p, h_v


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
