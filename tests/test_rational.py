"""Exact rational linear algebra: ranks, kernels, positivity feasibility."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnbalance import rational

small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


def test_rank_examples():
    n_re1 = [[-1, 1, -1, 1, -1, 1, -1, 1],
             [1, -1, 1, -1, 0, 0, 0, 0],
             [0, 0, 0, 0, 1, -1, 1, -1]]
    assert rational.rank(n_re1) == 2
    assert rational.rank([[0, 0], [0, 0]]) == 0
    that = [[0, -1, 0, 0], [-1, -1, -2, 0], [1, 1, 0, -2], [1, 1, 1, 1]]
    assert rational.rank(that) == 4


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        rational.frac(0.5)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_matches_transpose_and_numpy(mat):
    r = rational.rank(mat)
    assert r == rational.rank(rational.transpose(rational.matrix(mat)))
    assert r == np.linalg.matrix_rank(np.array(mat, dtype=float))
    assert r <= min(len(mat), len(mat[0]))


@given(small_matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_rank_unchanged_by_dependent_row(mat, weights):
    m = rational.matrix(mat)
    weights = (weights * len(m))[:len(m)]
    combo = [sum(Fraction(w) * row[j] for w, row in zip(weights, m))
             for j in range(len(m[0]))]
    assert rational.rank(m + [combo]) == rational.rank(m)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_nullspace_is_a_kernel_basis(mat):
    m = rational.matrix(mat)
    basis = rational.nullspace(m)
    assert len(basis) == len(m[0]) - rational.rank(m)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
    if basis:
        assert rational.rank(basis) == len(basis)


def test_column_and_row_basis_span():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    cols = rational.column_basis(m)
    assert len(cols) == rational.rank(m) == 2
    rows = rational.row_basis(m)
    assert rational.spans_equal(rows, [[1, 2, 3], [0, 1, 1]])


def test_in_span_and_spans_equal():
    assert rational.in_span([[1, 0, 0], [0, 1, 0]], [3, -2, 0])
    assert not rational.in_span([[1, 0, 0]], [0, 1, 0])
    assert rational.spans_equal([[1, 1]], [[2, 2]])
    assert not rational.spans_equal([[1, 1]], [[1, 0]])
    assert rational.in_span([], [0, 0])
    assert not rational.in_span([], [1, 0])


def test_orthogonal_complement():
    comp = rational.orthogonal_complement([[1, 1, 1]], 3)
    assert len(comp) == 2
    for vec in comp:
        assert sum(vec) == 0
    full = rational.orthogonal_complement([], 2)
    assert rational.spans_equal(full, [[1, 0], [0, 1]])


def test_positive_kernel_examples():
    # A + B -> C, C -> A + B: N^T z = 0 admits z = (1, 1, 2)
    nt = [[-1, -1, 1], [1, 1, -1]]
    z = rational.positive_kernel_vector(nt)
    assert z is not None
    assert all(v >= 1 for v in z)
    assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in nt)
    # A -> 2A: only z with z_A = 0 are orthogonal, no positive vector
    assert rational.positive_kernel_vector([[1]]) is None


def test_positive_kernel_rejects_a_bad_certificate(monkeypatch):
    # a phase-1 answer that is not a kernel vector must not be returned
    monkeypatch.setattr(rational, "_phase1_feasible", lambda a, b: [Fraction(0)] * 3)
    with pytest.raises(ArithmeticError):
        rational.positive_kernel_vector([[-1, -1, 1], [1, 1, -1]])


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_positive_kernel_matches_float_lp(mat):
    from scipy.optimize import linprog
    z = rational.positive_kernel_vector(mat)
    n = len(mat[0])
    res = linprog(c=[0.0] * n, A_eq=np.array(mat, dtype=float),
                  b_eq=np.zeros(len(mat)), bounds=[(1.0, None)] * n,
                  method="highs")
    if z is None:
        assert not res.success
    else:
        assert res.success
        assert all(v >= 1 for v in z)
        assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in mat)
