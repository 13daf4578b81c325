"""Command line front end.

Exit codes: 0 success, 1 validation or verification failure, 2 usage.
Each command declares only the flags it reads. Every command is
deterministic for fixed arguments; two runs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .complexes import (
    BUILDERS,
    build_inflation_complex,
    build_matroid_complexes,
    build_perfect_complex,
    build_registry,
    build_voronoi_complex,
    exact_triple,
    format_complex,
    parse_complex,
)
from .homology import (
    betti,
    format_betti,
    format_les,
    format_satake,
    format_top_weight,
    les_solve,
    parse_les_fixture,
    satake_weight0_column,
    top_weight_table,
    verify_complex,
)
from .quadform import (
    CatalogError,
    bundled_text,
    load_bundled_catalog,
    load_form_catalog,
    minimal_vectors,
)
from .symmetry import format_registry

_EULER_EXPECTED = {2: 0, 3: 1, 4: 0}


def catalog_for(g: int, catalog: str | None):
    """Catalog loader: the --catalog override applies to the top ambient
    g only; recursion uses the bundled files."""
    if catalog is None:
        return None

    def loader(k: int):
        if k == g:
            with open(catalog, "r", encoding="utf-8") as fh:
                return load_form_catalog(fh)
        return load_bundled_catalog(k)

    return loader


def _write(out: str, name: str, text: str) -> str:
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cmd_forms(args) -> int:
    g = args.g
    forms = (catalog_for(g, args.catalog) or load_bundled_catalog)(g)
    print(f"# catalog ambient {g}: {len(forms)} form(s)")
    for q in forms:
        if q.g != g:
            raise ValueError(f"form {q.name} has ambient {q.g}, not {g}")
        mv = minimal_vectors(q)
        # load_form_catalog refuses a form that is not perfect
        print(f"form {q.name} min {mv.minimum} pairs {len(mv)} perfect 1")
    return 0


def cmd_orbits(args) -> int:
    g = args.g
    reg = build_registry(g, catalog_for(g, args.catalog), args.seed)
    path = _write(args.out, f"registry_g{g}.txt", format_registry(reg))
    dims = sorted({o.dim for o in reg.orbits})
    print(f"# orbit registry ambient {g}: {len(reg.orbits)} orbits -> {path}")
    print("# dim  orbits  alternating  boundary")
    for d in dims:
        members = [o for o in reg.orbits if o.dim == d]
        alt = sum(1 for o in members if o.alternating)
        bnd = sum(1 for o in members if o.rank < g)
        print(f"dim {d} orbits {len(members)} alternating {alt} boundary {bnd}")
    return 0


def cmd_complex(args) -> int:
    g, kind = args.g, args.kind
    reg = build_registry(g, catalog_for(g, args.catalog), args.seed)
    cx = BUILDERS[kind](g, reg)
    path = _write(args.out, f"{kind.lower()}{g}.cplx", format_complex(cx))
    print(f"# complex {kind} ambient {g} -> {path}")
    for n in cx.degrees():
        print(f"deg {n} dim {cx.dim(n)}")
    return 0


def cmd_homology(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        cx = parse_complex(fh.read())
    report = betti(cx)
    sys.stdout.write(format_betti(report))
    return 0


def cmd_verify(args) -> int:
    g = args.g
    catalogs = catalog_for(g, args.catalog)
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"check {name}: {'pass' if ok else 'FAIL'}" + (f" {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    reg_prev = build_registry(g - 1, catalogs, args.seed)
    reg = build_registry(g, catalogs, args.seed, prev=reg_prev)
    p_prev = build_perfect_complex(g - 1, reg_prev)
    p_cur = build_perfect_complex(g, reg)
    v_cur = build_voronoi_complex(g, reg)
    i_cur = build_inflation_complex(g, reg)
    for cx in (p_prev, p_cur, v_cur, i_cur):
        check(f"d2[{cx.label}({cx.g})]", verify_complex(cx))
    try:
        exact_triple(g, p_prev, p_cur, v_cur)
        check("exact-triple", True)
    except ValueError as exc:
        check("exact-triple", False, str(exc))
    rep_p = betti(p_cur)
    rep_i = betti(i_cur)
    check("inflation-acyclic", rep_i.is_acyclic())
    low = all(rep_p.homology.get(k, 0) == 0 for k in range(-1, g - 1))
    check("low-degree-vanishing", low)
    if g in _EULER_EXPECTED:
        check(
            "euler",
            rep_p.euler() == _EULER_EXPECTED[g],
            f"got {rep_p.euler()} want {_EULER_EXPECTED[g]}",
        )
    else:
        print(f"# euler characteristic: {rep_p.euler()} (no gated expectation)")
    if g <= 4 or args.level == "full":
        r_cx, c_cx = build_matroid_complexes(g, reg)
        check("d2[R]", verify_complex(r_cx))
        check("d2[C]", verify_complex(c_cx))
        check("coloop-subcomplex-acyclic", betti(c_cx).is_acyclic())
        if g <= 3:
            check("matroidal-equals-perfect", r_cx.basis == p_cur.basis)
    if args.level == "full":
        base = rep_p.homology
        for s in (1, 2, 3):
            reg_s = build_registry(g, catalogs, s)
            rep_s = betti(build_perfect_complex(g, reg_s))
            check(f"seed-invariance[{s}]", rep_s.homology == base)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_tables(args) -> int:
    g = args.g
    if g <= 5:
        reg = build_registry(g, catalog_for(g, args.catalog))
        dims = betti(build_perfect_complex(g, reg)).homology
        sys.stdout.write(format_top_weight(g, top_weight_table(g, dims)))
        sys.stdout.write(format_satake(satake_weight0_column(g, dims)))
        return 0
    if g in (6, 7):
        if args.catalog is not None:
            raise ValueError(
                f"tables for ambient {g} come from the bundled bookkeeping fixture, not a catalog"
            )
        text = bundled_text("les", g)
        fg, h_p, h_v = parse_les_fixture(text)
        if fg != g:
            raise ValueError(f"bundled fixture is for ambient {fg}")
        result = les_solve(h_p, h_v, g)
        if result.unknown_degrees():
            raise ValueError(
                f"bookkeeping left unknowns at degrees {result.unknown_degrees()}"
            )
        sys.stdout.write(format_top_weight(g, top_weight_table(g, result.dims)))
        sys.stdout.write(format_satake(satake_weight0_column(g, result.dims)))
        return 0
    raise ValueError("tables need g <= 5 (computed) or g in {6, 7} (bookkeeping)")


def cmd_les(args) -> int:
    g = args.g
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = bundled_text("les", g)
    fg, h_p, h_v = parse_les_fixture(text)
    if fg != g:
        raise ValueError(f"fixture ambient {fg} does not match --g {g}")
    result = les_solve(h_p, h_v, g)
    sys.stdout.write(format_les(result))
    return 0


def ambient(text: str) -> int:
    """--g: an integer of at least 1 (argparse names this function in its
    message for one that is not an integer)."""
    g = int(text)
    if g < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return g


_FLAGS = {
    "--g": dict(type=ambient, required=True, help="ambient dimension"),
    "--catalog": dict(default=None, help="form catalog file override for the top ambient"),
    "--out": dict(default=".", help="output directory"),
    "--seed": dict(type=int, default=None, help="re-run variation seed"),
    "--level": dict(choices=("fast", "full"), default="fast", help="verification depth"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcone",
        description="Perfect-cone chain complexes and their homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *flags):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("forms", cmd_forms, "--g", "--catalog")
    command("orbits", cmd_orbits, "--g", "--catalog", "--out", "--seed")
    command("complex", cmd_complex, "--g", "--catalog", "--out", "--seed").add_argument(
        "--kind", choices=tuple(BUILDERS), required=True
    )
    command("homology", cmd_homology).add_argument("file", help="complex file")
    command("verify", cmd_verify, "--g", "--catalog", "--seed", "--level")
    command("tables", cmd_tables, "--g", "--catalog")
    command("les", cmd_les, "--g").add_argument(
        "file", nargs="?", default=None, help="bookkeeping fixture"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # an undeclared flag's value may have filled a positional, so
            # name the flags alone when there are any
            stray = [a for a in extra if a.startswith("-")] or extra
            parser.error(f"unrecognized arguments: {' '.join(stray)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (CatalogError, ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
