import hashlib
import io
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import perfcone.cone
from perfcone import quadform
from perfcone.cone import Face, PerfectCone, face_mask, facet_index_sets, indices, span_basis
from perfcone.intlinalg import rank_rows, sign_normalize, vec_gcd
from perfcone.quadform import (
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
    form_value_oracle,
    positive_definite_oracle,
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
# at g = 1 the top level of the walk is its innermost one, which records
# each vector in its own loop; at g = 2 the top level calls it directly
@example(QuadraticForm([[Fraction(5, 3)]]))
@example(QuadraticForm([[1, Fraction(1, 2)], [Fraction(1, 2), 1]]))
@example(QuadraticForm([[Fraction(3, 7), Fraction(-1, 5)], [Fraction(-1, 5), 2]]))
def test_minimal_vectors_match_box_oracle_on_random_forms(q):
    assume(q._rows is not None)
    mv = minimal_vectors(q)
    assert (mv.minimum, mv.vectors) == short_vectors_box(q.entries)


def test_minimal_vectors_skip_the_zero_vector():
    # the zero vector starts the walk at every level, and no level keeps it
    mv = minimal_vectors(QuadraticForm([[1]]))
    assert (mv.minimum, mv.vectors) == (1, ((1,),))
    assert minimal_vectors(QuadraticForm([[1, 0], [0, 1]])).vectors == ((0, 1), (1, 0))
    # g = 0 has no nonzero vector and no minimum
    with pytest.raises(ValueError, match="ambient dimension 0 has no nonzero vector"):
        minimal_vectors(QuadraticForm([]))


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


def _assert_cone_of_form(q):
    """cone_of_form takes the minimal vectors unchecked: they must come
    sorted, sign-normalized, primitive and distinct, and give the cone the
    constructor checks."""
    vecs = minimal_vectors(q).vectors
    assert list(vecs) == sorted(set(vecs))
    assert all(sign_normalize(v) == v and vec_gcd(v) == 1 for v in vecs)
    c = cone_of_form(q)
    checked = PerfectCone(q.g, vecs)
    assert c == checked and hash(c) == hash(checked) and c.generators == checked.generators


def test_cone_of_form_is_the_checked_cone_on_bundled_forms():
    for g in range(1, 6):
        for q in load_bundled_catalog(g):
            _assert_cone_of_form(q)


@settings(max_examples=60)
@given(_small_forms(), st.integers(0, 10**6))
def test_cone_of_form_is_the_checked_cone_on_random_forms(q, seed):
    assume(q._rows is not None)
    _assert_cone_of_form(q)
    _assert_cone_of_form(q.conjugated(random_unimodular(q.g, random.Random(seed))))


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
    low = Face(c, face_mask([0], len(c.generators)))  # the ray of generator 0
    with pytest.raises(ValueError, match="not of codimension 1"):
        voronoi_neighbor(q, low)
    with pytest.raises(ValueError, match="empty face"):
        voronoi_neighbor(q, Face(c, 0))
    other = cone_of_form(principal_form(3))
    with pytest.raises(ValueError, match="does not belong"):
        voronoi_neighbor(q, _facets(other)[0])


def _assert_facet_normal(sigma, mask):
    """2R is an integer symmetric matrix with an even diagonal, the
    coefficients of R on the forms v v^t (R_ii, 2R_ij) are primitive, and
    v^t R v is 0 on the facet's generators and positive on the others."""
    r2 = quadform._facet_normal(sigma, mask)
    g = sigma.g
    on = indices(mask, len(sigma.generators))
    assert all(type(x) is int for row in r2 for x in row)
    assert all(r2[i][j] == r2[j][i] for i in range(g) for j in range(i))
    assert all(r2[i][i] % 2 == 0 for i in range(g))
    assert math.gcd(*(r2[i][j] // (1 + (i == j)) for i in range(g) for j in range(i, g))) == 1
    for i, v in enumerate(sigma.generators):
        value = sum(v[a] * r2[a][b] * v[b] for a in range(g) for b in range(g))
        assert value >= 0 and (value == 0) == (i in on)


def test_facet_normals_of_the_bundled_cones():
    for g in range(1, 6):
        for q in load_bundled_catalog(g):
            sigma = cone_of_form(q)
            for m in facet_index_sets(sigma):
                _assert_facet_normal(sigma, m)


@settings(max_examples=10)
@given(st.integers(2, 5), st.integers(0, 2), st.integers(0, 10**6))
def test_facet_normals_of_conjugated_cones(g, k, seed):
    forms = load_bundled_catalog(g)
    q = forms[k % len(forms)].conjugated(random_unimodular(g, random.Random(seed)))
    sigma = cone_of_form(q)
    for m in facet_index_sets(sigma):
        _assert_facet_normal(sigma, m)


@settings(max_examples=40)
@given(
    st.integers(2, 3).flatmap(
        lambda g: st.lists(st.tuples(*[st.integers(-3, 3)] * g), min_size=g + 2, max_size=9)
    )
)
def test_facet_normals_of_random_full_cones(vectors):
    # the determinant of a basis of forms reaches well past the +-1 and
    # +-2 of the bundled cones, so the normal must be made primitive
    g = len(vectors[0])
    sigma = PerfectCone(g, {sign_normalize(v) for v in vectors if vec_gcd(v) == 1})
    assume(sigma.dim == g * (g + 1) // 2)
    for m in facet_index_sets(sigma):
        _assert_facet_normal(sigma, m)


def test_facet_normal_rejects_faces_that_are_not_facets():
    # a facet of a simplicial cone less one generator has codimension 2
    q = principal_form(4)
    sigma = cone_of_form(q)
    m = facet_index_sets(sigma)[0]
    with pytest.raises(ValueError, match="not of codimension 1"):
        voronoi_neighbor(q, Face(sigma, m & m - 1))
    # dim - 1 independent generators of D4 on no facet: their hyperplane
    # cuts the cone, as every facet of D4 has exactly dim - 1 generators
    q = load_bundled_catalog(4)[1]
    sigma = cone_of_form(q)
    facets = set(facet_index_sets(sigma))
    cut = next(
        m
        for m in (face_mask(keep, 12) for keep in itertools.combinations(range(12), 9))
        if m not in facets and rank_rows([sigma.flat[i] for i in indices(m, 12)]) == 9
    )
    with pytest.raises(ValueError, match="generators on both sides"):
        voronoi_neighbor(q, Face(sigma, cut))
    # the cone of a form that is not perfect has no facet normals
    q = QuadraticForm([[1, 0], [0, 1]])
    sigma = cone_of_form(q)
    with pytest.raises(ValueError, match="does not span a hyperplane"):
        voronoi_neighbor(q, Face(sigma, facet_index_sets(sigma)[0]))


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
            for i in set(range(n)).difference(indices(m, n)):
                with pytest.raises(ValueError, match="not of codimension 1"):
                    voronoi_neighbor(q, Face(sigma, m | face_mask([i], n)))


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
# not positive definite: a zero diagonal, a semidefinite form, a negative minor
@example([[0, 1], [1, 0]], Fraction(1), 0, [1, -1, 0, 0, 0])
@example([[0, 0], [0, 1]], Fraction(1), 0, [1, -1, 0, 0, 0])
@example([[1, 2], [2, 1]], Fraction(1), 0, [1, -1, 0, 0, 0])
def test_integer_form_layer_matches_fraction_arithmetic(rows, factor, seed, vec):
    g = len(rows)
    q = QuadraticForm(rows)
    assert q.entries == tuple(tuple(row) for row in rows)
    assert all(type(x) is Fraction for row in q.entries for x in row)
    assert (q._rows is not None) == positive_definite_oracle(rows)
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


def test_voronoi_walk_eliminates_each_cone_once(monkeypatch):
    # the parent cone keeps the span basis that facet_index_sets
    # eliminated, and the facet normals read it there: the walk over the
    # 430 facets of the bundled g = 5 cones eliminates each of its 433
    # cones once (436 when the first normal of each parent eliminated its
    # span again)
    calls = []
    inner = perfcone.cone._span_basis

    def counting(rows, order):
        calls.append(len(rows))
        return inner(rows, order)

    monkeypatch.setattr(perfcone.cone, "_span_basis", counting)
    neighbours = 0
    for q in load_bundled_catalog(5):
        sigma = cone_of_form(q)
        for s in facet_index_sets(sigma):
            facet_index_sets(cone_of_form(voronoi_neighbor(q, Face(sigma, s))))
            neighbours += 1
    assert neighbours == 430
    assert len(calls) == 3 + 430


def test_voronoi_neighbors_do_not_depend_on_the_kept_basis():
    # a registry keeps a span basis of its own on a cone (a seeded
    # reference order, an orient line), and the facet normals then read
    # that basis. d5 is the one bundled g = 5 cone that is not simplicial,
    # so the only one whose basis a shuffled order moves: in each order,
    # every neighbour is the one found in the default basis
    q = next(q for q in load_bundled_catalog(5) if q.name == "d5")
    sigma = cone_of_form(q)
    facets = facet_index_sets(sigma)
    want = [voronoi_neighbor(q, Face(sigma, s)) for s in facets]
    rng = random.Random(5)
    for _ in range(3):
        shuffled = cone_of_form(q)
        order = list(range(len(shuffled.generators)))
        rng.shuffle(order)
        shuffled._span = span_basis(shuffled, order)
        assert shuffled.span[0] != sigma.span[0]
        assert facet_index_sets(shuffled) == facets
        assert [voronoi_neighbor(q, Face(shuffled, s)) for s in facets] == want
