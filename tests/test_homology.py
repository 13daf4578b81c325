import pytest

from perfcone.complexes import (
    build_inflation_complex,
    build_matroid_complexes,
    build_perfect_complex,
    build_registry,
    build_voronoi_complex,
    parse_complex,
)
from perfcone.homology import (
    betti,
    first_defect,
    format_les,
    format_satake,
    format_top_weight,
    les_solve,
    parse_les_fixture,
    satake_weight0_column,
    top_weight_table,
    verify_complex,
)
from perfcone.quadform import bundled_text

from oracles import boundary_matrix, homology_dims_oracle

BAD_COMPLEX = """\
complex T g=2
deg -1 dim 1 a
deg 0 dim 1 b
deg 1 dim 1 c
deg 2 dim 0
d 0 0 0 1
d 1 0 0 1
"""


def _oracle_dims(cx):
    dmax = cx.g * (cx.g + 1) // 2
    dims = {n: cx.dim(n) for n in range(-1, dmax)}
    mats = {n: boundary_matrix(cx, n) for n in range(0, dmax) if cx.dim(n) and cx.dim(n - 1)}
    return homology_dims_oracle(mats, dims)


def test_first_defect_catches_bad_square():
    bad = parse_complex(BAD_COMPLEX)
    assert first_defect(bad) == (1, 0, 0, 1)
    assert not verify_complex(bad)
    with pytest.raises(ValueError, match=r"not a complex: d_0 d_1 has entry 1 at \(0, 0\)"):
        betti(bad)
    fixed = parse_complex(BAD_COMPLEX.replace("d 1 0 0 1\n", ""))
    assert verify_complex(fixed)
    assert betti(fixed).homology == {-1: 0, 0: 0, 1: 1, 2: 0}


def test_betti_matches_oracle(reg3, reg4):
    p3 = build_perfect_complex(3, reg3)
    r3, c3 = build_matroid_complexes(3, reg3)
    p4 = build_perfect_complex(4, reg4)
    v4 = build_voronoi_complex(4, reg4)
    i4 = build_inflation_complex(4, reg4)
    for cx in (p3, r3, c3, p4, v4, i4):
        assert verify_complex(cx)
        assert betti(cx).homology == _oracle_dims(cx)


def test_perfect_homology_values(reg2, reg3, reg4):
    h2 = betti(build_perfect_complex(2, reg2)).homology
    assert all(d == 0 for d in h2.values())
    h3 = betti(build_perfect_complex(3, reg3)).homology
    assert h3[5] == 1 and sum(h3.values()) == 1
    h4 = betti(build_perfect_complex(4, reg4)).homology
    assert all(d == 0 for d in h4.values())


def test_euler_characteristics(reg2, reg3, reg4):
    assert betti(build_perfect_complex(2, reg2)).euler() == 0
    assert betti(build_perfect_complex(3, reg3)).euler() == 1
    assert betti(build_perfect_complex(4, reg4)).euler() == 0


def test_low_degree_vanishing(reg2, reg3, reg4):
    for g, reg in ((2, reg2), (3, reg3), (4, reg4)):
        h = betti(build_perfect_complex(g, reg)).homology
        assert all(h[k] == 0 for k in range(-1, g - 1))


def test_inflation_acyclic(reg2, reg3, reg4):
    for g, reg in ((2, reg2), (3, reg3), (4, reg4)):
        assert betti(build_inflation_complex(g, reg)).is_acyclic()


def test_top_weight_table(reg3, reg4):
    rep3 = betti(build_perfect_complex(3, reg3))
    assert top_weight_table(3, rep3.homology) == [(6, 1)]
    rep4 = betti(build_perfect_complex(4, reg4))
    assert top_weight_table(4, rep4.homology) == []
    assert top_weight_table(5, {14: 1, 9: 1, 3: 0}) == [(15, 1), (20, 1)]
    assert "GrW 6 1" in format_top_weight(3, [(6, 1)])
    assert "# none" in format_top_weight(4, [])


def test_satake_column(reg3, reg4):
    rep3 = betti(build_perfect_complex(3, reg3))
    assert satake_weight0_column(3, rep3.homology) == [(3, 3, 1)]
    rep4 = betti(build_perfect_complex(4, reg4))
    assert satake_weight0_column(4, rep4.homology) == []
    assert satake_weight0_column(5, {14: 1, 9: 1}) == [(5, 5, 1), (5, 10, 1)]
    assert "E1 3 3 1" in format_satake([(3, 3, 1)])


def test_les_solve_trivial_cases():
    empty = les_solve({}, {}, 9)
    assert empty.g == 9 and empty.dims == {}
    zeros = les_solve({0: 0, 1: 0}, {0: 0, 1: 0}, 0)
    assert zeros.dims == {0: 0, 1: 0}
    assert all(zeros.notes[n] for n in (0, 1))
    assert zeros.unknown_degrees() == []


def test_les_solve_inconsistent_inputs():
    # H_n(V) maps onto H_{n-1}(P'), so a larger H_{n-1}(P') is refused
    with pytest.raises(ValueError) as err:
        les_solve({9: 2}, {10: 1}, 6)
    assert "inconsistent inputs" in str(err.value)
    with pytest.raises(ValueError) as err:
        les_solve({9: 1}, {11: 1}, 6)
    assert "inconsistent inputs" in str(err.value)
    # a class of P' in the top degree has no degree of V above it
    with pytest.raises(ValueError) as err:
        les_solve({9: 1}, {8: 1}, 6)
    assert "inconsistent inputs" in str(err.value)
    # an unknown H_{n-1}(P') under a nonzero H_n(V) is no contradiction
    result = les_solve({9: None}, {10: 1}, 6)
    assert result.dims == {9: 0, 10: None}
    assert result.notes[10] == "unknown: H_9(P')"


def test_les_solve_unknown_propagation():
    result = les_solve({4: None, 5: None}, {5: 3, 7: 2}, 0)
    # an unknown H_4(P') leaves H_5(P) unknown; H_6(V) = 0 forces
    # H_6(P) = 0 whatever H_5(P') is
    assert result.dims == {4: 0, 5: None, 6: 0, 7: 2}
    assert result.notes[5] == "unknown: H_4(P')"
    assert result.notes[6] == "H_6(V)=0 forces H_6(P)=0"
    assert result.unknown_degrees() == [5]


def test_les_forces_computed_h_p(reg2, reg3, reg4, reg5):
    # the short exact sequences alone force H(P_g) from the computed
    # H(P_{g-1}) and H(V_g), and give the computed H(P_g)
    regs = {1: build_registry(1), 2: reg2, 3: reg3, 4: reg4, 5: reg5}
    for g in range(2, 6):
        h_p_prev = betti(build_perfect_complex(g - 1, regs[g - 1])).homology
        h_v = betti(build_voronoi_complex(g, regs[g])).homology
        h_p = betti(build_perfect_complex(g, regs[g])).homology
        result = les_solve(h_p_prev, h_v, g)
        assert result.unknown_degrees() == []
        assert result.dims == h_p
    assert {n: d for n, d in h_p.items() if d} == {9: 1, 14: 1}


def test_les_fixture_g6():
    g, h_p, h_v = parse_les_fixture(bundled_text("les", 6))
    assert g == 6
    result = les_solve(h_p, h_v, g)
    assert result.unknown_degrees() == []
    assert {n: d for n, d in result.dims.items() if d} == {11: 1}


def test_les_fixture_g7():
    g, h_p, h_v = parse_les_fixture(bundled_text("les", 7))
    assert g == 7
    result = les_solve(h_p, h_v, g)
    assert result.unknown_degrees() == []
    assert {n: d for n, d in result.dims.items() if d} == {13: 1, 18: 1, 22: 1, 27: 1}


def test_les_fixture_g8_keeps_unknowns():
    g, h_p, h_v = parse_les_fixture(bundled_text("les", 8))
    assert g == 8
    result = les_solve(h_p, h_v, g)
    assert all(result.dims[n] == 0 for n in range(0, 13))
    assert all(result.dims[n] is None for n in range(13, 36))
    text = format_les(result)
    assert "H 12 0" in text and "H 13 ?" in text


def test_les_fixtures_g9_g10_low_degrees_vanish():
    for g, cutoff in ((9, 12), (10, 12)):
        fg, h_p, h_v = parse_les_fixture(bundled_text("les", g))
        assert fg == g
        result = les_solve(h_p, h_v, g)
        assert all(result.dims[n] == 0 for n in range(0, cutoff))
        assert result.unknown_degrees()


def test_parse_les_fixture_errors():
    with pytest.raises(ValueError):
        parse_les_fixture("range 0 3\nP 1 1\n")
    with pytest.raises(ValueError) as err:
        parse_les_fixture("les g=5\nrange 0 5\nP 9 1\n")
    assert "outside" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_les_fixture("les g=5\nrange 0 5\nP 3\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_les_fixture("les g=5\nrange 0 5\nQ 3 1\n")
    assert "unrecognized" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_les_fixture("les g=5\nrange 5 2\n")
    assert "line 2" in str(err.value)
    g, h_p, h_v = parse_les_fixture("les g=5\nrange 0 2\nV 1 ?\n")
    assert h_v == {0: 0, 1: None, 2: 0}
