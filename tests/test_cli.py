import pytest

from perfcone import cli, complexes
from perfcone.cli import main
from perfcone.complexes import build_perfect_complex, format_complex, parse_complex
from perfcone.homology import parse_les_fixture
from perfcone.quadform import bundled_text, load_form_catalog
from perfcone.symmetry import format_registry, parse_registry

CUSTOM_CATALOG = """\
g 2
form custom_principal
1 1/2
1/2 1
"""

BROKEN_COMPLEX = """\
complex T g=2
deg -1 dim 1 a
deg 0 dim 1 b
deg 1 dim 1 c
deg 2 dim 0
d 0 0 0 1
d 1 0 0 1
"""


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_missing_g_is_usage_error(capsys):
    assert main(["forms"]) == 2
    assert "the following arguments are required: --g" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "p3.cplx", "--g", "3"],
        ["les", "--g", "7", "--seed", "1"],
        ["forms", "--g", "4", "--out", "build"],
        ["verify", "--g", "2", "--out", "build"],
        ["tables", "--g", "3", "--level", "full"],
        # H(P_g) is the same for every seed, so tables reads none
        ["tables", "--g", "3", "--seed", "1"],
        ["orbits", "--g", "2", "--level", "full"],
        ["complex", "--g", "2", "--kind", "P", "--level", "full"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_unread_flag_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # each command declares only the flags its handler reads; argparse
    # rejects any other before the command runs or writes anything
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stray_flag_is_named_not_its_value(tmp_path, monkeypatch, capsys):
    # homology declares no --g: argparse takes its value 4 as FILE, and
    # the message names the undeclared flag, not the tokens left over
    monkeypatch.chdir(tmp_path)
    assert main(["homology", "--g", "4", "p4.cplx"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --g\n")
    assert list(tmp_path.iterdir()) == []


PRINCIPAL_6 = "g 6\nform principal_6\n" + "".join(
    " ".join("1" if i == j else "1/2" for j in range(6)) + "\n" for i in range(6)
)


@pytest.mark.parametrize("kind", ["R", "C"])
def test_matroid_complex_past_g5(tmp_path, capsys, kind):
    # the matroidal flags hold at every g, so R and C build at g = 6. Every
    # face of the principal cone is graphic, so R holds every interior
    # orbit that V holds, and C is the part of R that I holds
    path = tmp_path / "forms_g6.txt"
    path.write_text(PRINCIPAL_6, encoding="utf-8")
    kinds = kind + {"R": "V", "C": "RI"}[kind]
    for k in kinds:
        argv = ["complex", "--g", "6", "--kind", k, "--catalog", str(path), "--out", str(tmp_path)]
        assert main(argv) == 0
    capsys.readouterr()
    ids = {}
    for k in kinds:
        cx = parse_complex((tmp_path / f"{k.lower()}6.cplx").read_text(encoding="utf-8"))
        ids[k] = {oid for oids in cx.basis.values() for oid in oids}
    if kind == "R":
        assert ids["V"] and ids["V"] <= ids["R"]
    else:
        assert ids["C"] and ids["C"] == ids["R"] & ids["I"]


def test_bad_global_flags(capsys):
    assert main(["forms", "--g", "0"]) == 2
    assert main(["forms", "--g", "-3"]) == 2
    # --jobs is gone: argparse rejects it as an unknown flag
    assert main(["orbits", "--g", "2", "--jobs", "0"]) == 2
    assert main(["orbits", "--g", "2", "--jobs", "1"]) == 2
    capsys.readouterr()


def test_forms_listing(capsys):
    assert main(["forms", "--g", "1"]) == 0
    out = capsys.readouterr().out
    assert "form principal_1 min 1 pairs 1 perfect 1" in out

    assert main(["forms", "--g", "2"]) == 0
    out = capsys.readouterr().out
    assert "form principal_2 min 1 pairs 3 perfect 1" in out

    assert main(["forms", "--g", "4"]) == 0
    out = capsys.readouterr().out
    assert "form principal_4 min 1 pairs 10 perfect 1" in out
    assert "form d4 min 1 pairs 12 perfect 1" in out


def test_forms_catalog_override(tmp_path, capsys):
    path = tmp_path / "custom.txt"
    path.write_text(CUSTOM_CATALOG, encoding="utf-8")
    assert main(["forms", "--g", "2", "--catalog", str(path)]) == 0
    out = capsys.readouterr().out
    assert "form custom_principal min 1 pairs 3 perfect 1" in out


def test_forms_catalog_ambient_mismatch(tmp_path, capsys):
    path = tmp_path / "custom.txt"
    path.write_text(CUSTOM_CATALOG, encoding="utf-8")
    assert main(["forms", "--g", "3", "--catalog", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_catalog_refuses_a_form_that_is_not_perfect(tmp_path, capsys):
    # the identity form at g = 3 has 3 minimal-vector pairs, too few to
    # span the 6-dimensional Sym_3; the refusal names its `form` line and
    # no registry is written
    path = tmp_path / "identity.txt"
    path.write_text("g 3\nform id3\n1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["orbits", "--g", "3", "--catalog", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 2: form 'id3' is not perfect\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--g", "2"],
        ["tables", "--g", "3"],
        ["orbits", "--g", "3", "--out"],
    ],
    ids=["verify", "tables", "orbits"],
)
def test_empty_catalog_is_refused(tmp_path, capsys, command):
    # a catalog holding only its `g` line has no cone to classify; read as
    # complete, it made verify pass and tables print `# none` with exit 0
    g = command[2]
    path = tmp_path / "empty.txt"
    path.write_text(f"g {g}\n", encoding="utf-8")
    out = tmp_path / "o"
    if command[-1] == "--out":
        command = command + [str(out)]
    assert main(command + ["--catalog", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: catalog {path} holds no form\n")
    assert not out.exists()


def test_orbits_writes_registry(tmp_path, capsys):
    assert main(["orbits", "--g", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4 orbits" in out
    reg = parse_registry((tmp_path / "registry_g2.txt").read_text(encoding="utf-8"))
    assert len(reg.orbits) == 4


def test_complex_and_homology_pipeline(tmp_path, capsys):
    assert main(["complex", "--g", "3", "--kind", "P", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "p3.cplx"
    cx = parse_complex(path.read_text(encoding="utf-8"))
    assert cx.label == "P" and cx.g == 3

    assert main(["homology", str(path)]) == 0
    out = capsys.readouterr().out
    assert "H 5 1" in out
    assert "H 4 0" in out


def test_homology_rejects_broken_complex(tmp_path, capsys):
    path = tmp_path / "broken.cplx"
    path.write_text(BROKEN_COMPLEX, encoding="utf-8")
    assert main(["homology", str(path)]) == 1
    assert "not a complex: d_0 d_1 has entry 1 at (0, 0)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, where",
    [
        (["les", "--g", "5"], "les g=5\nrange 5\n", "line 2:"),
        (["homology"], "complex P g=2\ndeg 0\n", "line 2:"),
        (["homology"], "complex P g=2\ndeg 7 dim 0\n", "line 2:"),
        (["homology"], "complex P g=2\ndeg -1 dim 1 a\ndeg 0 dim 1 b\nd 0 5 0 1\n", "line 4:"),
        (["les", "--g", "5"], "les g=5\nrange 5 2\n", "line 2:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\nP 1 x\n", "line 3:"),
        (["les", "--g", "5"], "les g=x\n", "line 1:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\niso a\n", "line 3:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\nles g=5\n", "line 3:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\nrange 0 6\n", "line 3:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\nV 2 1\nP 2 1\nV 2 ?\n", "line 5:"),
        (["homology"], "complex P g=x\n", "line 1:"),
        (["homology"], "complex P g=2\ndeg a dim 0\n", "line 2:"),
        (["homology"], "complex P g=2\ndeg 0 dim x\n", "line 2:"),
        (["homology"], "complex P g=2\nd 0 x 0 1\n", "line 2:"),
        (["homology"], "complex P g=2\ncomplex P g=3\n", "line 2:"),
        (["homology"], "complex P g=2\ndeg 0 dim 1 b\ndeg 0 dim 1 c\n", "line 3:"),
        (["homology"], "complex P g=2\ndeg -1 dim 1 a\ndeg 0 dim 1 b\nd 0 0 0 1\nd 0 0 0 2\n", "line 5:"),
        (["homology"], "complex P g=2\ndeg -1 dim 1 a\ndeg 0 dim 1 b\nd 0 0 0 0\n", "line 4:"),
        (["homology"], "complex P g=1\ndeg -1 dim 1 a\ndeg 0 dim 2 b b\n", "line 3:"),
        (["homology"], "complex P g=1\ndeg -1 dim 1 a\ndeg 0 dim 1 a\n", "line 3:"),
        (["homology"], "complex P g=-3\n", "line 1:"),
        (["homology"], "d 0 0 0 1\ncomplex P g=1\ndeg -1 dim 1 a\ndeg 0 dim 1 b\n", "line 1:"),
        (["homology"], "# no header\n", "line 2:"),
        (["les", "--g", "5"], "les g=5\n", "line 2:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\nP 9 1\n", "line 3:"),
        (["les", "--g", "5"], "les g=5\nrange 0 5\nP 0 -2\nV 1 1\n", "line 3:"),
        (["homology"], "complex P g=200\n", "line 2:"),
        (["homology"], "complex P g=2\ndeg -1 dim 1 a\ndeg 0 dim 1 b\n", "line 4:"),
        (["les", "--g", "5"], "les g=5\nrange 0 15\n", "line 2:"),
        (["les", "--g", "5"], "les g=5\nrange -2 5\n", "line 2:"),
        (["les", "--g", "5"], "les g=0\nrange 0 0\n", "line 1:"),
        (["forms", "--g", "2", "--catalog"], "form x\n1 0\n0 1\n", "line 1:"),
        (["forms", "--g", "2", "--catalog"], "g x\n", "line 1:"),
        (["forms", "--g", "2", "--catalog"], "g 0\n", "line 1:"),
        (["forms", "--g", "2", "--catalog"], "g 2 3\n", "line 1:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform p\n1 1/2\n1/2 1\ng 3\n", "line 5:"),
        (["forms", "--g", "2", "--catalog"], "g 2\n1 0\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/2\n1/2\n", "line 4:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/2\nform y\n1 1/2\n1/2 1\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/2\ng 2\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/2\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 1\nform x\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/2\n1/2 1\n1 1\n", "line 5:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 0.5\n0.5 1\n", "line 3:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/0\n1/0 1\n", "line 3:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1/-2\n1/-2 1\n", "line 3:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 5e-1\n5e-1 1\n", "line 3:"),
        (["forms", "--g", "2", "--catalog"], "g 1\nform x\n1e999999999\n", "line 3:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 0\n1/2 1\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 1\n1 1\n", "line 2:"),
        (["forms", "--g", "2", "--catalog"], "g 2\nform x\n1 0\n0 1\n", "line 2:"),
    ],
    ids=[
        "les-range-one-bound",
        "deg-without-dim",
        "deg-out-of-range",
        "entry-outside-basis",
        "les-range-empty",
        "les-entry-not-integer",
        "les-g-not-integer",
        "les-iso-refused",
        "les-g-repeated",
        "les-range-repeated",
        "les-entry-repeated",
        "complex-g-not-integer",
        "deg-not-integer",
        "dim-not-integer",
        "entry-not-integer",
        "complex-repeated",
        "deg-repeated",
        "entry-repeated",
        "entry-zero",
        "id-repeated-in-deg",
        "id-repeated-across-degs",
        "complex-g-negative",
        "entry-before-header",
        "complex-header-missing",
        "les-range-missing",
        "les-entry-outside-range",
        "les-dim-negative",
        "complex-g-without-deg-lines",
        "deg-missing",
        "les-range-above-top",
        "les-range-below-minus-one",
        "les-g-zero",
        "catalog-g-missing",
        "catalog-g-not-integer",
        "catalog-g-zero",
        "catalog-g-two-fields",
        "catalog-ambient-changed",
        "catalog-row-outside-form",
        "catalog-form-unnamed",
        "catalog-row-short",
        "catalog-form-cut-by-form",
        "catalog-form-cut-by-g",
        "catalog-form-cut-by-end",
        "catalog-form-empty",
        "catalog-rows-too-many",
        "catalog-decimal",
        "catalog-denominator-zero",
        "catalog-denominator-negative",
        "catalog-exponent",
        "catalog-exponent-huge",
        "catalog-asymmetric",
        "catalog-not-positive-definite",
        "catalog-not-perfect",
    ],
)
def test_malformed_input_names_its_line(tmp_path, capsys, command, text, where):
    path = tmp_path / "malformed.txt"
    path.write_text(text, encoding="utf-8")
    assert main(command + [str(path)]) == 1
    assert f"error: {where}" in capsys.readouterr().err


def _commented(text: str) -> str:
    """text with a comment line and a blank line before each of its lines,
    and a trailing comment on each."""
    return "".join(f"# a comment line\n\n{line}  # a trailing comment\n" for line in text.splitlines())


@pytest.mark.parametrize("kind", ["cplx", "registry", "forms", "les"])
def test_every_format_reads_one_comment_rule(reg3, kind):
    # blank lines and `#` comments, on their own lines or after a record,
    # leave every format read the same
    text, read = {
        "cplx": (format_complex(build_perfect_complex(3, reg3)), lambda t: vars(parse_complex(t))),
        "registry": (format_registry(reg3), lambda t: parse_registry(t).orbits),
        "forms": (bundled_text("forms", 4), lambda t: [(q.num, q.den, q.name) for q in load_form_catalog(t)]),
        "les": (bundled_text("les", 7), parse_les_fixture),
    }[kind]
    assert read(_commented(text)) == read(text)


def test_homology_missing_file(tmp_path, capsys):
    assert main(["homology", str(tmp_path / "absent.cplx")]) == 1
    capsys.readouterr()


def test_verify_small_ambients(capsys):
    assert main(["verify", "--g", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert main(["verify", "--g", "3"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_seeded(capsys):
    # every check, on registries with conjugated representatives and
    # shuffled orders
    assert main(["verify", "--g", "4", "--seed", "1"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def _catalog_without(text: str, name: str) -> str:
    """A catalog's text with the block of form name (its header and the
    matrix rows up to the next header) left out."""
    out, skip = [], False
    for line in text.splitlines(keepends=True):
        if line.startswith("form "):
            skip = line.split()[1] == name
        if not skip:
            out.append(line)
    return "".join(out)


@pytest.mark.parametrize("dropped, euler", [("principal_5", 1), ("d5", 3), ("a5_3", 1)])
def test_verify_fails_on_a_g5_catalog_missing_a_form(tmp_path, capsys, dropped, euler):
    # a catalog of two of the three perfect quinary forms passed every
    # check of verify, with exit 0; the Euler gate alone now fails it
    path = tmp_path / "forms.txt"
    path.write_text(_catalog_without(bundled_text("forms", 5), dropped), encoding="utf-8")
    assert main(["verify", "--g", "5", "--catalog", str(path)]) == 1
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if "FAIL" in ln] == [f"check euler: FAIL got {euler} want 0"]


@pytest.mark.parametrize("dropped, euler", [("principal_5", 1), ("d5", 3), ("a5_3", 1)])
def test_tables_fails_on_a_g5_catalog_missing_a_form(tmp_path, capsys, dropped, euler):
    # tables printed the cohomology of the partial registry, with exit 0
    # (`GrW 20 3` without d5); it now applies verify's Euler gate first
    path = tmp_path / "forms.txt"
    path.write_text(_catalog_without(bundled_text("forms", 5), dropped), encoding="utf-8")
    assert main(["tables", "--g", "5", "--catalog", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: euler characteristic of P_5 is {euler}, want 0\n")


def test_euler_gate_at_g5_is_the_literature_p_column():
    # the P column of the g = 6 fixture is H(P_5): Q in degrees 9 and 14
    _g, h_p, _h_v = parse_les_fixture(bundled_text("les", 6))
    assert {n: d for n, d in h_p.items() if d} == {9: 1, 14: 1}
    assert cli._EULER_EXPECTED[5] == sum((-1) ** n * d for n, d in h_p.items())


def test_verify_builds_the_smaller_registry_once(monkeypatch, capsys):
    # verify passes its g - 1 registry to the g build, so it builds five
    # registries, ambients 0..4; with that registry ignored, the g build
    # rebuilds every ambient below it (nine registries), and the output is
    # the same
    built = []
    extend = complexes._extend
    zero = complexes._zero_registry
    build = complexes.build_registry

    def counting(prev, forms, seed):
        built.append(prev.g + 1)
        return extend(prev, forms, seed)

    def counting_zero():
        built.append(0)
        return zero()

    monkeypatch.setattr(complexes, "_extend", counting)
    monkeypatch.setattr(complexes, "_zero_registry", counting_zero)
    assert main(["verify", "--g", "4"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert built == [0, 1, 2, 3, 4]
    built.clear()
    monkeypatch.setattr(cli, "build_registry", lambda g, cat, seed, prev=None: build(g, cat, seed))
    assert main(["verify", "--g", "4"]) == 0
    assert capsys.readouterr().out == out
    assert built == [0, 1, 2, 3, 0, 1, 2, 3, 4]


def test_tables_computed(capsys):
    assert main(["tables", "--g", "3"]) == 0
    out = capsys.readouterr().out
    assert "GrW 6 1" in out
    assert "E1 3 3 1" in out

    assert main(["tables", "--g", "4"]) == 0
    out = capsys.readouterr().out
    assert "GrW" not in out.replace("# top-weight", "")
    assert "# none" in out

    assert main(["tables", "--g", "5"]) == 0
    assert capsys.readouterr().out == (
        "# top-weight cohomology of ambient 5 (nonzero graded pieces)\n"
        "GrW 15 1\n"
        "GrW 20 1\n"
        "# weight-0 Satake column entries\n"
        "E1 5 5 1\n"
        "E1 5 10 1\n"
    )


def test_tables_bookkeeping(capsys):
    assert main(["tables", "--g", "6"]) == 0
    out = capsys.readouterr().out
    assert "GrW 30 1" in out
    assert "E1 6 6 1" in out

    assert main(["tables", "--g", "7"]) == 0
    out = capsys.readouterr().out
    for k in (28, 33, 37, 42):
        assert f"GrW {k} 1" in out
    for q in (7, 12, 16, 21):
        assert f"E1 7 {q} 1" in out

    assert main(["tables", "--g", "8"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("g", [6, 7])
def test_tables_bookkeeping_refuses_a_catalog(tmp_path, capsys, g):
    # the g = 6 and 7 tables come from the bundled fixture, so a catalog
    # would be ignored; it is refused before any file is read
    assert main(["tables", "--g", str(g), "--catalog", str(tmp_path / "absent.txt")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: tables for ambient {g} come from the bundled bookkeeping fixture, not a catalog\n"
    )


def test_les_bundled(capsys):
    assert main(["les", "--g", "7"]) == 0
    out = capsys.readouterr().out
    for n in (13, 18, 22, 27):
        assert f"H {n} 1" in out

    assert main(["les", "--g", "8"]) == 0
    out = capsys.readouterr().out
    assert "H 12 0" in out and "H 13 ?" in out


def test_les_file_ambient_mismatch(tmp_path, capsys):
    path = tmp_path / "fixture.txt"
    path.write_text("les g=6\nrange 0 2\n", encoding="utf-8")
    assert main(["les", "--g", "7", str(path)]) == 1
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, missing",
    [
        (["forms", "--g", "9"], "form catalog for ambient 9"),
        (["orbits", "--g", "9", "--out"], "form catalog for ambient 6"),
        # g = 5 tables are computed, so no g = 5 fixture is bundled
        (["les", "--g", "5"], "bookkeeping fixture for ambient 5"),
    ],
    ids=["forms", "orbits-recurses-to-first-missing", "les-g5"],
)
def test_missing_bundled_catalog_exits_1(tmp_path, capsys, command, missing):
    if command[-1] == "--out":
        command = command + [str(tmp_path)]
    assert main(command) == 1
    assert capsys.readouterr().err == f"error: no bundled {missing}\n"


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["orbits", "--g", "2", "--out", str(out)]) == 0
        assert main(["complex", "--g", "2", "--kind", "I", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (a / "registry_g2.txt").read_bytes() == (b / "registry_g2.txt").read_bytes()
    assert (a / "i2.cplx").read_bytes() == (b / "i2.cplx").read_bytes()


def test_catalog_override_matches_bundled(tmp_path, capsys):
    path = tmp_path / "custom.txt"
    path.write_text(CUSTOM_CATALOG, encoding="utf-8")
    assert main(["orbits", "--g", "2", "--out", str(tmp_path / "o"),
                 "--catalog", str(path)]) == 0
    out = capsys.readouterr().out
    assert "4 orbits" in out
