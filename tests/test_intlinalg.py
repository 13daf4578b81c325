"""Properties of the fraction-free elimination kernel, against sympy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from perfcone.intlinalg import (
    Echelon,
    adjugate_det,
    bareiss_rank,
    det_int,
    det_sign,
    frac_inverse,
    mat_mul,
    pivot_columns,
    rank_rows,
    snf_left,
    vec_gcd,
)

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
    assert bareiss_rank({(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}) == r
    assert pivot_columns(rows) == pivot_oracle(rows)


@st.composite
def sparse_matrices(draw):
    """{(row, col): value} products of an n x r and an r x m matrix, mostly
    zero and often short of full rank. The factors' entries include units,
    so that +-2 turns up in the product and under elimination, or leave
    them out, so that a unit is rare and most of the matrix is remainder."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(1, max(n, m)))
    entry = st.sampled_from(draw(st.sampled_from([(0, 0, 0, 1, -1, 2), (0, 0, 2, -2, 3)])))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=r, max_size=r))
    return {(i, j): x for i, row in enumerate(mat_mul(left, right)) for j, x in enumerate(row) if x}


@settings(max_examples=150)
@given(sparse_matrices())
@example({})
@example({(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 3})  # no unit entry
@example({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})  # the unit pivot leaves -2
@example({(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1})  # a 2 is no unit
def test_sparse_rank_matches_dense(entries):
    nrows = 1 + max((r for r, _ in entries), default=-1)
    ncols = 1 + max((c for _, c in entries), default=-1)
    dense = [[entries.get((i, j), 0) for j in range(ncols)] for i in range(nrows)]
    assert bareiss_rank(entries) == rank_rows(dense)


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
            adjugate_det(m)
        return
    adj, det = adjugate_det(m)
    assert (adj, det) == (adjugate_oracle(m), d)
    n = len(m)
    assert mat_mul(adj, m) == [[d * (i == j) for j in range(n)] for i in range(n)]
    assert frac_inverse(m) == [[Fraction(x, d) for x in row] for row in adj]


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
    assert e.jordan(range(len(rows[0]))) == mat_mul(adjugate_oracle(b), kept)


@settings(max_examples=100)
@given(int_matrices(), st.data())
def test_jordan_columns_are_columns_of_the_full_form(rows, data):
    # the back substitution of chosen columns reads its multipliers off the
    # full stored rows, so each column comes out as in the full form; zero
    # columns are drawn in as well
    m = len(rows[0])
    zeros = data.draw(st.lists(st.integers(0, m), max_size=3))
    for at in sorted(zeros, reverse=True):
        rows = [row[:at] + [0] + row[at:] for row in rows]
    m += len(zeros)
    e = Echelon()
    kept = [row for row in rows if e.add(row)]
    b = [[row[c] for c in e.pivots] for row in kept]
    full = mat_mul(adjugate_oracle(b), kept) if kept else []
    cols = data.draw(st.lists(st.integers(0, m - 1), max_size=m + 2))
    assert e.jordan(cols) == [[row[k] for k in cols] for row in full]


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
