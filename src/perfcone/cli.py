"""Command line front end.

Exit codes: 0 success, 1 validation or verification failure, 2 usage.
Every command is deterministic for a fixed RunConfig; two runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

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
    is_perfect,
    load_bundled_catalog,
    load_form_catalog,
    minimal_vectors,
)
from .symmetry import format_registry

_EULER_EXPECTED = {2: 0, 3: 1, 4: 0}


@dataclass
class RunConfig:
    g: int | None
    catalog: str | None
    out: str
    level: str
    seed: int | None

    def catalog_for(self):
        """Catalog loader: the --catalog override applies to the top
        ambient only; recursion uses the bundled files."""
        if self.catalog is None:
            return None
        top_g = self.g
        path = self.catalog

        def loader(g: int):
            if g == top_g:
                with open(path, "r", encoding="utf-8") as fh:
                    return load_form_catalog(fh)
            return load_bundled_catalog(g)

        return loader


def _need_g(cfg: RunConfig) -> int:
    if cfg.g is None:
        raise UsageError("this command needs --g")
    return cfg.g


class UsageError(Exception):
    pass


def _write(cfg: RunConfig, name: str, text: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cmd_forms(cfg: RunConfig, _args) -> int:
    g = _need_g(cfg)
    if cfg.catalog is not None:
        with open(cfg.catalog, "r", encoding="utf-8") as fh:
            forms = load_form_catalog(fh)
    else:
        forms = load_bundled_catalog(g)
    print(f"# catalog ambient {g}: {len(forms)} form(s)")
    for q in forms:
        if q.g != g:
            raise ValueError(f"form {q.name} has ambient {q.g}, not {g}")
        mv = minimal_vectors(q)
        perfect = 1 if is_perfect(q) else 0
        print(f"form {q.name} min {mv.minimum} pairs {len(mv)} perfect {perfect}")
    return 0


def cmd_orbits(cfg: RunConfig, _args) -> int:
    g = _need_g(cfg)
    reg = build_registry(g, cfg.catalog_for(), cfg.seed)
    path = _write(cfg, f"registry_g{g}.txt", format_registry(reg))
    dims = sorted({o.dim for o in reg.orbits})
    print(f"# orbit registry ambient {g}: {len(reg.orbits)} orbits -> {path}")
    print("# dim  orbits  alternating  boundary")
    for d in dims:
        members = [o for o in reg.orbits if o.dim == d]
        alt = sum(1 for o in members if o.alternating)
        bnd = sum(1 for o in members if o.rank < g)
        print(f"dim {d} orbits {len(members)} alternating {alt} boundary {bnd}")
    return 0


def cmd_complex(cfg: RunConfig, args) -> int:
    g = _need_g(cfg)
    kind = args.kind
    reg = build_registry(g, cfg.catalog_for(), cfg.seed)
    cx = BUILDERS[kind](g, reg)
    path = _write(cfg, f"{kind.lower()}{g}.cplx", format_complex(cx))
    print(f"# complex {kind} ambient {g} -> {path}")
    for n in cx.degrees():
        print(f"deg {n} dim {cx.dim(n)}")
    return 0


def cmd_homology(cfg: RunConfig, args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        cx = parse_complex(fh.read())
    report = betti(cx)
    sys.stdout.write(format_betti(report))
    return 0


def cmd_verify(cfg: RunConfig, _args) -> int:
    g = _need_g(cfg)
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"check {name}: {'pass' if ok else 'FAIL'}" + (f" {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    reg_prev = build_registry(g - 1, cfg.catalog_for(), cfg.seed)
    reg = build_registry(g, cfg.catalog_for(), cfg.seed)
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
    if g <= 4 or cfg.level == "full":
        r_cx, c_cx = build_matroid_complexes(g, reg)
        check("d2[R]", verify_complex(r_cx))
        check("d2[C]", verify_complex(c_cx))
        check("coloop-subcomplex-acyclic", betti(c_cx).is_acyclic())
        if g <= 3:
            check("matroidal-equals-perfect", r_cx.basis == p_cur.basis)
    if cfg.level == "full":
        base = rep_p.homology
        for s in (1, 2, 3):
            reg_s = build_registry(g, cfg.catalog_for(), s)
            rep_s = betti(build_perfect_complex(g, reg_s))
            check(f"seed-invariance[{s}]", rep_s.homology == base)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_tables(cfg: RunConfig, _args) -> int:
    g = _need_g(cfg)
    if g <= 4:
        reg = build_registry(g, cfg.catalog_for(), cfg.seed)
        dims = betti(build_perfect_complex(g, reg)).homology
        sys.stdout.write(format_top_weight(g, top_weight_table(g, dims)))
        sys.stdout.write(format_satake(satake_weight0_column(g, dims)))
        return 0
    if g in (5, 6, 7):
        text = _bundled_les_text(g)
        fg, h_p, h_v, iso = parse_les_fixture(text)
        if fg != g:
            raise ValueError(f"bundled fixture is for ambient {fg}")
        result = les_solve(h_p, h_v, iso, g)
        if result.unknown_degrees():
            raise ValueError(
                f"bookkeeping left unknowns at degrees {result.unknown_degrees()}"
            )
        sys.stdout.write(format_top_weight(g, top_weight_table(g, result.dims)))
        sys.stdout.write(format_satake(satake_weight0_column(g, result.dims)))
        return 0
    raise ValueError("tables need g <= 4 (computed) or g in {5, 6, 7} (bookkeeping)")


def _bundled_les_text(g: int) -> str:
    from importlib import resources

    ref = resources.files("perfcone.data").joinpath(f"les_g{g}.txt")
    if not ref.is_file():
        raise ValueError(f"no bundled bookkeeping fixture for ambient {g}")
    return ref.read_text(encoding="utf-8")


def cmd_les(cfg: RunConfig, args) -> int:
    g = _need_g(cfg)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = _bundled_les_text(g)
    fg, h_p, h_v, iso = parse_les_fixture(text)
    if fg != g:
        raise ValueError(f"fixture ambient {fg} does not match --g {g}")
    result = les_solve(h_p, h_v, iso, g)
    sys.stdout.write(format_les(result))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--g", type=int, default=None, help="ambient dimension")
    common.add_argument("--catalog", default=None, help="form catalog file override")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--level", choices=("fast", "full"), default="fast")
    common.add_argument("--seed", type=int, default=None, help="re-run variation seed")
    parser = argparse.ArgumentParser(
        prog="perfcone",
        description="Perfect-cone chain complexes and their homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("forms", parents=[common]).set_defaults(func=cmd_forms)
    sub.add_parser("orbits", parents=[common]).set_defaults(func=cmd_orbits)
    p_complex = sub.add_parser("complex", parents=[common])
    p_complex.add_argument("--kind", choices=tuple(BUILDERS), required=True)
    p_complex.set_defaults(func=cmd_complex)
    p_hom = sub.add_parser("homology", parents=[common])
    p_hom.add_argument("file", help="complex file")
    p_hom.set_defaults(func=cmd_homology)
    sub.add_parser("verify", parents=[common]).set_defaults(func=cmd_verify)
    sub.add_parser("tables", parents=[common]).set_defaults(func=cmd_tables)
    p_les = sub.add_parser("les", parents=[common])
    p_les.add_argument("file", nargs="?", default=None, help="bookkeeping fixture")
    p_les.set_defaults(func=cmd_les)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    cfg = RunConfig(
        g=args.g,
        catalog=args.catalog,
        out=args.out,
        level=args.level,
        seed=args.seed,
    )
    if cfg.g is not None and cfg.g < 1:
        print("usage error: --g must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CatalogError, ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
