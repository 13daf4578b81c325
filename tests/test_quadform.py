import hashlib
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from perfcone import quadform
from perfcone.cone import Face, facet_index_sets
from perfcone.quadform import (
    POSITIVE_DEFINITE,
    CatalogError,
    QuadraticForm,
    cone_of_form,
    is_perfect,
    load_bundled_catalog,
    load_form_catalog,
    minimal_vectors,
    normalize_minimum,
    principal_form,
    voronoi_neighbor,
)
from perfcone.symmetry import equivalent, random_unimodular

from oracles import (
    conjugate_oracle,
    definiteness_oracle,
    form_value_oracle,
    short_vectors_box,
)

HALF = Fraction(1, 2)

COLOOP_EXAMPLE_FORM = QuadraticForm(
    [[2, HALF, 1], [HALF, 1, HALF], [1, HALF, 1]]
)


def test_principal_g2_minimal_vectors():
    mv = minimal_vectors(principal_form(2))
    assert mv.minimum == 1
    assert set(mv.vectors) == {(0, 1), (1, -1), (1, 0)}


def test_identity_g3_minimal_vectors():
    q = QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mv = minimal_vectors(q)
    assert mv.minimum == 1
    assert set(mv.vectors) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_coloop_example_minimal_vectors():
    mv = minimal_vectors(COLOOP_EXAMPLE_FORM)
    assert mv.minimum == 1
    assert set(mv.vectors) == {(0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, -1)}


def test_minimal_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        minimal_vectors(QuadraticForm([[1, 0], [0, -1]]))
    with pytest.raises(ValueError):
        minimal_vectors(QuadraticForm([[1, 1], [1, 1]]))


def test_minimal_vectors_match_box_oracle_on_catalogs():
    for g in (1, 2, 3, 4):
        for q in load_bundled_catalog(g):
            mv = minimal_vectors(q)
            minimum, vecs = short_vectors_box(q.entries)
            assert mv.minimum == minimum
            assert set(mv.vectors) == set(vecs)


def _fraction(lo, hi):
    """p/q with lo <= p/q <= hi and q <= 7."""
    return st.integers(1, 7).flatmap(
        lambda q: st.integers(math.ceil(lo * q), math.floor(hi * q)).map(lambda p: Fraction(p, q))
    )


@st.composite
def _small_forms(draw):
    """Symmetric forms, g = 2..4, denominators up to 7. Half of them share
    one diagonal value and keep the off-diagonal within half of it, which
    makes ties at the minimum common."""
    g = draw(st.integers(2, 4))
    shared = draw(st.booleans())
    diagonal = _fraction(Fraction(1, 7), 7)
    diag = [draw(diagonal)] * g if shared else [draw(diagonal) for _ in range(g)]
    rows = [[Fraction(0)] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = diag[i]
        for j in range(i + 1, g):
            bound = min(diag[i], diag[j]) / 2 if shared else min(diag[i], 1)
            rows[i][j] = rows[j][i] = draw(_fraction(-1, 1)) * bound
    return QuadraticForm(rows)


@settings(max_examples=60)
@given(_small_forms())
def test_minimal_vectors_match_box_oracle_on_random_forms(q):
    assume(q.definiteness == POSITIVE_DEFINITE)
    mv = minimal_vectors(q)
    assert (mv.minimum, mv.vectors) == short_vectors_box(q.entries)


def test_minimal_vectors_are_kept_per_form():
    q = load_bundled_catalog(4)[1]
    mv = minimal_vectors(q)
    assert minimal_vectors(q) is mv
    same = q.conjugated([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert same == q and minimal_vectors(same) is not mv
    moved = q.conjugated(random_unimodular(4, random.Random(5)))
    assert minimal_vectors(moved) is not mv
    assert minimal_vectors(moved).minimum == mv.minimum


def test_is_perfect_examples():
    assert is_perfect(principal_form(2))
    assert not is_perfect(QuadraticForm([[1, 0], [0, 1]]))
    d4 = load_bundled_catalog(4)[1]
    assert d4.name == "d4"
    assert is_perfect(d4)


def test_cone_of_form_examples():
    c = cone_of_form(principal_form(2))
    assert set(c.generators) == {(0, 1), (1, -1), (1, 0)}
    assert cone_of_form(QuadraticForm([[1]])).generators == ((1,),)
    for g in (1, 2, 3, 4):
        assert len(cone_of_form(principal_form(g)).generators) == g * (g + 1) // 2


def test_principal_form_entries():
    assert principal_form(1).entries == ((Fraction(1),),)
    assert principal_form(2).entries == ((1, HALF), (HALF, 1))
    assert len(minimal_vectors(principal_form(4))) == 10


def test_normalize_minimum():
    q = principal_form(2).scaled(Fraction(7, 3))
    assert minimal_vectors(q).minimum == Fraction(7, 3)
    assert minimal_vectors(normalize_minimum(q)).minimum == 1


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3]))
def test_minimal_vectors_equivariant(seed, g):
    q = principal_form(g) if seed % 2 else QuadraticForm(
        [[2 if i == j else HALF for j in range(g)] for i in range(g)]
    )
    h = random_unimodular(g, random.Random(seed))
    mv = minimal_vectors(q)
    mv_conj = minimal_vectors(q.conjugated(h))
    assert mv_conj.minimum == mv.minimum
    # x minimizes hQh^t iff h^t x minimizes Q
    ht = [[h[j][i] for j in range(g)] for i in range(g)]
    mapped = set()
    for x in mv_conj.vectors:
        y = tuple(sum(ht[i][k] * x[k] for k in range(g)) for i in range(g))
        lead = next(c for c in y if c)
        mapped.add(y if lead > 0 else tuple(-c for c in y))
    assert mapped == set(mv.vectors)


def test_perfect_iff_full_dimensional_cone():
    for q in (principal_form(2), principal_form(3), COLOOP_EXAMPLE_FORM):
        full = q.g * (q.g + 1) // 2
        assert is_perfect(q) == (cone_of_form(q).dim == full)


def test_bundled_catalogs():
    assert [q.name for q in load_bundled_catalog(2)] == ["principal_2"]
    assert [q.name for q in load_bundled_catalog(4)] == ["principal_4", "d4"]
    assert [q.name for q in load_bundled_catalog(5)] == [
        "principal_5",
        "d5",
        "a5_3",
    ]


def test_catalog_empty_stream():
    assert load_form_catalog(io.StringIO("")) == []


def test_catalog_parse_errors_carry_line_numbers():
    bad = "g 2\nform broken\n1 1/2\n1/2\n"
    with pytest.raises(CatalogError) as err:
        load_form_catalog(io.StringIO(bad))
    assert "line 4" in str(err.value)
    with pytest.raises(CatalogError):
        load_form_catalog(io.StringIO("g 2\nform dec\n1 0.5\n0.5 1\n"))


def test_catalog_rejects_degenerate_form():
    bad = "g 2\nform psd\n1 1\n1 1\n"
    with pytest.raises(CatalogError) as err:
        load_form_catalog(io.StringIO(bad))
    assert "definite" in str(err.value)


def test_catalog_rejects_asymmetric_form():
    bad = "g 2\nform asym\n1 0\n1/2 1\n"
    with pytest.raises(CatalogError):
        load_form_catalog(io.StringIO(bad))


def _facets(c):
    return [Face(c, s) for s in facet_index_sets(c)]


def test_voronoi_neighbor_g2_closure():
    q = principal_form(2)
    base = cone_of_form(q)
    for facet in _facets(base):
        neighbor = voronoi_neighbor(q, facet)
        assert equivalent(cone_of_form(neighbor), base) is not None


def test_voronoi_neighbor_g3_closure():
    q = principal_form(3)
    base = cone_of_form(q)
    hits = 0
    for facet in _facets(base):
        neighbor = voronoi_neighbor(q, facet)
        assert equivalent(cone_of_form(neighbor), base) is not None
        hits += 1
    assert hits == len(_facets(base))


def test_voronoi_neighbor_rejects_non_facet():
    q = principal_form(2)
    c = cone_of_form(q)
    low = Face(c, 1)  # the ray of generator 0
    with pytest.raises(ValueError):
        voronoi_neighbor(q, low)
    other = cone_of_form(principal_form(3))
    with pytest.raises(ValueError):
        voronoi_neighbor(q, _facets(other)[0])


def test_voronoi_neighbor_rejects_a_facet_plus_one_generator():
    # the face's generators reach rank dim - 1 before its last one, which
    # lies off the hyperplane they span: the face is the whole cone
    d5 = next(q for q in load_bundled_catalog(5) if q.name == "d5")
    for q in (principal_form(4), d5):
        sigma = cone_of_form(q)
        n = len(sigma.generators)
        facets = facet_index_sets(sigma)
        assert {m.bit_count() for m in facets} == ({14, 16} if q is d5 else {n - 1})
        for m in facets[:: max(1, len(facets) // 12)]:
            for i in range(n):
                if not m >> i & 1:
                    with pytest.raises(ValueError, match="not of codimension 1"):
                        voronoi_neighbor(q, Face(sigma, m | 1 << i))


def test_voronoi_neighbors_g4_classes():
    forms = load_bundled_catalog(4)
    catalog = [(q.name, cone_of_form(q)) for q in forms]
    found = {}
    for q in forms:
        classes = {}
        for facet in _facets(cone_of_form(q)):
            nb = cone_of_form(voronoi_neighbor(q, facet))
            label = next(name for name, c in catalog if equivalent(nb, c) is not None)
            classes[label] = classes.get(label, 0) + 1
        found[q.name] = classes
    assert found == {"principal_4": {"d4": 10}, "d4": {"principal_4": 48, "d4": 16}}


@st.composite
def _rational_forms(draw):
    """Symmetric rational matrices, g = 1..5, as lists of Fraction rows:
    either independent entries (mostly indefinite) or a positive multiple
    of B^t D B with B an integer k x g matrix (k <= g + 2) and D positive
    diagonal, which is semidefinite and definite exactly when B has rank
    g."""
    g = draw(st.integers(1, 5))
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    if draw(st.booleans()):
        rows = [[Fraction(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                rows[i][j] = rows[j][i] = draw(small)
        return rows
    k = draw(st.integers(1, g + 2))
    b = [[draw(st.integers(-2, 2)) for _ in range(g)] for _ in range(k)]
    d = [draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))) for _ in range(k)]
    return [
        [sum((d[r] * b[r][i] * b[r][j] for r in range(k)), Fraction(0)) for j in range(g)]
        for i in range(g)
    ]


@settings(max_examples=150, deadline=None)
@given(
    _rational_forms(),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)),
    st.integers(0, 10**6),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
)
# semidefiniteness: a kept row off its diagonal, a zero row, a negative minor
@example([[0, 1], [1, 0]], Fraction(1), 0, [1, -1, 0, 0, 0])
@example([[0, 0], [0, 1]], Fraction(1), 0, [1, -1, 0, 0, 0])
@example([[1, 2], [2, 1]], Fraction(1), 0, [1, -1, 0, 0, 0])
def test_integer_form_layer_matches_fraction_arithmetic(rows, factor, seed, vec):
    g = len(rows)
    q = QuadraticForm(rows)
    assert q.entries == tuple(tuple(row) for row in rows)
    assert all(type(x) is Fraction for row in q.entries for x in row)
    assert q.definiteness == definiteness_oracle(rows)
    v = vec[:g]  # g <= 5
    assert q.value(v) == form_value_oracle(rows, v)
    assert q.scaled(factor).entries == tuple(tuple(x * factor for x in row) for row in rows)
    h = random_unimodular(g, random.Random(seed))
    assert q.conjugated(h).entries == conjugate_oracle(rows, h)


@settings(max_examples=60, deadline=None)
@given(_rational_forms(), st.integers(2, 9))
def test_forms_equal_under_different_scalings(rows, k):
    q = QuadraticForm(rows)
    # the same matrix reached through a common factor k in num and den
    same = QuadraticForm([[x * k for x in row] for row in rows]).scaled(Fraction(1, k))
    assert same == q and hash(same) == hash(q)
    assert QuadraticForm([[str(x) for x in row] for row in rows]) == q
    g = len(rows)
    identity = [[int(i == j) for j in range(g)] for i in range(g)]
    assert q.conjugated(identity) == q and hash(q.conjugated(identity)) == hash(q)
    assert (q.scaled(k) == q) == all(x == 0 for row in rows for x in row)


# SHA-256 of one line per neighbour of principal_5 and a5_3 (15 facets
# each), as the rational form layer printed them, and the number of
# minimal_vectors calls the 30 line searches made there; the integer form
# layer must reproduce both, the second because the neighbour is unique
# and a rescaled pencil reaches it along a different t sequence. The count
# is 45 calls on pencil forms plus one (cached) call on q per neighbour,
# which checks the facet's parent; it was 105 while that check went
# through cone_of_form(q), a second call on q
WALK_G5_SHA256 = "761f3a45086c49c50995c0fa89247cb8b4866f0c5bd073e02ee1d5079f0480af"
WALK_G5_MV_CALLS = 75


def test_voronoi_walk_bytes_on_g5(monkeypatch):
    forms = load_bundled_catalog(5)
    catalog = [(q.name, cone_of_form(q)) for q in forms]
    calls = []
    inner = quadform.minimal_vectors
    monkeypatch.setattr(quadform, "minimal_vectors", lambda q: calls.append(q) or inner(q))
    lines = []
    searched = 0
    for q in forms:
        if q.name not in ("principal_5", "a5_3"):
            continue
        sigma = cone_of_form(q)
        for s in facet_index_sets(sigma):
            before = len(calls)
            nb = voronoi_neighbor(q, Face(sigma, s))
            searched += len(calls) - before
            nb_cone = cone_of_form(nb)
            label = next(name for name, c in catalog if equivalent(nb_cone, c) is not None)
            lines.append(f"{q.name} {label} {len(facet_index_sets(nb_cone))} {nb.entries}")
    assert len(lines) == 30
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WALK_G5_SHA256
    assert searched == WALK_G5_MV_CALLS
