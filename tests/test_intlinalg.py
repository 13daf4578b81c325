"""Properties of the fraction-free elimination kernel, against sympy."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perfcone.intlinalg import (
    Echelon,
    adjugate_int,
    bareiss_rank,
    det_int,
    det_sign,
    frac_inverse,
    mat_mul,
    pivot_columns,
    rank_rows,
    snf_left,
    unimodular_inverse,
    vec_gcd,
)
from perfcone.symmetry import random_unimodular

from oracles import (
    adjugate_oracle,
    det_oracle,
    nullspace_oracle,
    pivot_oracle,
    rank_oracle,
)


@st.composite
def int_matrices(draw, square=False):
    """Products of an n x r and an r x m matrix: rank at most r, so
    dependent rows and singular squares come up often."""
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 7))
    r = draw(st.integers(1, max(n, m)))
    entry = st.integers(-3, 3)
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=r, max_size=r))
    return mat_mul(left, right)


@settings(max_examples=80)
@given(int_matrices())
def test_rank_and_pivot_columns(rows):
    r = rank_oracle(rows)
    assert rank_rows(rows) == r
    assert bareiss_rank(rows) == r
    assert pivot_columns(rows) == pivot_oracle(rows)


@settings(max_examples=80)
@given(int_matrices(square=True))
def test_det_and_sign(m):
    d = det_oracle(m)
    assert det_int(m) == d
    assert det_sign(m) == (d > 0) - (d < 0)


def test_det_of_empty_matrix():
    assert det_int([]) == 1
    assert det_sign([]) == 1


@settings(max_examples=80)
@given(int_matrices(square=True))
def test_adjugate(m):
    d = det_oracle(m)
    if d == 0:
        with pytest.raises(ValueError):
            adjugate_int(m)
        return
    adj = adjugate_int(m)
    assert adj == adjugate_oracle(m)
    n = len(m)
    assert mat_mul(adj, m) == [[d * (i == j) for j in range(n)] for i in range(n)]
    assert frac_inverse(m) == [[Fraction(x, d) for x in row] for row in adj]


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(0, 10**6))
def test_unimodular_inverse(g, seed):
    h = random_unimodular(g, random.Random(seed))
    inv = unimodular_inverse(h)
    assert mat_mul(inv, h) == [[int(i == j) for j in range(g)] for i in range(g)]


def test_unimodular_inverse_rejects_det_two():
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


@settings(max_examples=80)
@given(int_matrices())
def test_primitive_kernel_vector(rows):
    basis = nullspace_oracle(rows)
    e = Echelon()
    for row in rows:
        e.add(row)
    k = e.kernel_vector(len(rows[0]))
    if len(basis) != 1:
        assert k is None
        return
    assert k is not None and vec_gcd(k) == 1
    assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in rows)
    # a positive multiple of the oracle's vector, which is 1 on the free column
    (free,) = set(range(len(rows[0]))) - set(pivot_oracle(rows))
    scale = Fraction(k[free])
    assert scale > 0
    assert [scale * x for x in basis[0]] == list(k)


@settings(max_examples=60)
@given(int_matrices())
def test_echelon_state(rows):
    e = Echelon()
    kept = [row for row in rows if e.add(row)]
    assert e.rank == len(kept) == rank_oracle(rows)
    if not kept:
        return
    b = [[row[c] for c in e.pivots] for row in kept]
    for i, (row, c) in enumerate(zip(e.rows, e.pivots)):
        assert row[c] == det_oracle([r[: i + 1] for r in b[: i + 1]])
        assert not any(row[cj] for cj in e.pivots[:i])
    assert e.det == det_oracle(b)
    assert e.jordan() == mat_mul(adjugate_oracle(b), kept)


@settings(max_examples=150)
@given(st.data())
def test_snf_left_is_a_unimodular_row_echelon(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 8))
    entry = st.integers(-4, 4)
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    u, um, rank = snf_left(rows)
    assert all(type(x) is int for row in u for x in row)
    assert det_int(u) in (1, -1)
    assert um == mat_mul(u, rows)
    assert not any(x for row in um[rank:] for x in row)
    assert rank == rank_rows(rows)
