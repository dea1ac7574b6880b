"""Exact rational linear algebra: ranks, kernels, positivity feasibility."""

import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crnbalance import rational
from crnbalance.rational import Matrix, Vector

from conftest import column_basis, exact_rank, in_span, nullspace, spans_equal

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The Fraction-based elimination and simplex that the integer-pivoting
# versions in `rational` replaced, kept verbatim as the oracle they must match.


def oracle_rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (on a copy) and the pivot column indices."""
    m = [row[:] for row in mat]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def oracle_phase1_feasible(a: Matrix, b: Vector) -> Vector | None:
    """Solve A u = b with u >= 0 via a phase-1 simplex (Bland's rule).

    Returns one feasible u, or None. Exact arithmetic throughout; Bland's
    pivoting rule guarantees termination.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    if n_rows == 0:
        return []
    # Tableau [A | I | b] with b >= 0; artificial variable i is column n_cols+i.
    tab: Matrix = []
    for i in range(n_rows):
        row = list(a[i])
        rhs = b[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        row.extend(_ONE if j == i else _ZERO for j in range(n_rows))
        row.append(rhs)
        tab.append(row)
    basis = [n_cols + i for i in range(n_rows)]
    total = n_cols + n_rows
    # Reduced-cost row for min(sum of artificials): z_j = sum_i tab[i][j] while
    # every basic variable is artificial; kept in sync under pivots below.
    z = [sum(tab[i][j] for i in range(n_rows)) for j in range(total + 1)]
    while True:
        enter = next((j for j in range(n_cols) if z[j] > 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][total] / tab[i][enter], basis[i], i)
            for i in range(n_rows)
            if tab[i][enter] > 0
        ]
        if not ratios:
            return None  # unbounded phase-1 cannot happen, but stay safe
        _, _, leave = min(ratios)
        pv = tab[leave][enter]
        tab[leave] = [v / pv for v in tab[leave]]
        for i in range(n_rows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = z[enter]
        z = [x - f * y for x, y in zip(z, tab[leave])]
        basis[leave] = enter
    if z[total] != 0:
        return None
    u = [_ZERO] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            u[var] = tab[i][total]
    return u


def oracle_positive_kernel_vector(mat) -> Vector | None:
    """`positive_kernel_vector` before the sign screen: Fraction sums and the
    Fraction simplex for every matrix."""
    m = rational.matrix(mat)
    if not m:
        raise ValueError("positive kernel of an empty matrix is ambiguous")
    if not m[0]:
        return None
    u = oracle_phase1_feasible(m, [-sum(row) for row in m])
    if u is None:
        return None
    z = [v + 1 for v in u]
    if any(sum(r * x for r, x in zip(row, z)) != 0 for row in m):
        raise ArithmeticError("phase-1 solution is not a kernel vector")
    return z


small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def rational_matrices(draw):
    """p/q matrices up to 6 x 6, single rows and columns included, some of them
    zero, some with a row that combines the others, some with a positive
    kernel vector (so the simplex ends feasible and returns a witness)."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), _fractions)
    mat = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                        min_size=n_rows, max_size=n_rows))
    kind = draw(st.sampled_from(["plain", "zero", "dependent", "kernel"]))
    if kind == "zero":
        return [[Fraction(0)] * n_cols for _ in range(n_rows)]
    if kind == "dependent":
        weights = draw(st.lists(_fractions, min_size=n_rows, max_size=n_rows))
        combo = [sum(w * row[j] for w, row in zip(weights, mat)) for j in range(n_cols)]
        mat.insert(draw(st.integers(0, n_rows)), combo)
    if kind == "kernel":
        z = draw(st.lists(st.integers(1, 5).map(Fraction), min_size=n_cols, max_size=n_cols))
        for row in mat:
            row[-1] = -sum(a * b for a, b in zip(row[:-1], z[:-1])) / z[-1]
    return mat


@st.composite
def screened_matrices(draw):
    """`rational_matrices` with single-sign rows (nonzero, all entries >= 0 or
    all <= 0) and zero rows inserted at drawn positions."""
    mat = draw(rational_matrices())
    n_cols = len(mat[0])
    for kind in draw(st.lists(st.sampled_from(["nonnegative", "nonpositive", "zero"]),
                              min_size=1, max_size=3)):
        if kind == "zero":
            row = [Fraction(0)] * n_cols
        else:
            row = draw(st.lists(st.builds(Fraction, st.integers(0, 6), st.integers(1, 5)),
                                min_size=n_cols, max_size=n_cols).filter(any))
            row = [-v for v in row] if kind == "nonpositive" else row
        mat.insert(draw(st.integers(0, len(mat))), row)
    return mat


# Found by search: here the ratio test ties between rows whose basis labels
# are out of row order, so breaking the tie on the row index changes the witness.
RATIO_TIES = [
    [[-1, 1, 0, 1, -1], [2, 1, 1, -2, -2], [0, 2, -1, 2, -2]],
    [[0, -1, 2, 0, -1], [2, -2, 1, -1, 0], [1, 1, 0, 0, -1]],
]


@given(rational_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rref_matches_fraction_oracle(mat):
    red, pivots = rational.rref(mat)
    assert (red, pivots) == oracle_rref(mat)
    assert all(type(v) is Fraction for row in red for v in row)


@given(rational_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rank_nullspace_row_basis_match_fraction_oracle(mat):
    rank, kernel, row_basis = exact_rank(mat), nullspace(mat), nonzero_rref_rows(mat)
    with mock.patch.object(rational, "rref", oracle_rref):
        assert rank == len(oracle_rref(mat)[1])
        assert kernel == nullspace(mat)
        assert row_basis == nonzero_rref_rows(mat)


def phase1_rows(a, b) -> list[tuple[int, list[int]]]:
    """[A | b] as `rational._phase1_feasible` takes it: each row's lcm of
    denominators and the row times it, as integers."""
    return [rational._scaled([*row, rhs]) for row, rhs in zip(rational.matrix(a), b)]


@given(rational_matrices(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_simplex_gives_the_fraction_oracle_witness(mat, data):
    assert rational.positive_kernel_vector(mat) == oracle_positive_kernel_vector(mat)
    b = data.draw(st.lists(_fractions, min_size=len(mat), max_size=len(mat)))
    assert rational._phase1_feasible(phase1_rows(mat, b)) == oracle_phase1_feasible(mat, b)


@given(screened_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sign_screen_matches_the_fraction_oracle(mat):
    # a zero row leaves the simplex to decide; a single-sign row decides alone
    single_sign = any(any(row) and (min(row) >= 0 or max(row) <= 0) for row in mat)
    real, calls = rational._phase1_feasible, []

    def counting(scaled):
        calls.append([(scale, row[:]) for scale, row in scaled])
        return real(scaled)

    with mock.patch.object(rational, "_phase1_feasible", counting):
        z = rational.positive_kernel_vector(mat)
    assert z == oracle_positive_kernel_vector(mat)
    if single_sign:
        assert z is None and not calls
    else:
        # the rows scaled once for the screen are the tableau of [A | -A 1]
        m = rational.matrix(mat)
        assert calls == [phase1_rows(m, [-sum(row) for row in m])]


@pytest.mark.parametrize("mat", RATIO_TIES)
def test_ratio_ties_break_on_the_basis_label(mat):
    m = rational.matrix(mat)
    b = [-sum(row) for row in m]
    u = rational._phase1_feasible(phase1_rows(m, b))
    assert u == oracle_phase1_feasible(m, b)
    z = rational.positive_kernel_vector(m)
    assert z == oracle_positive_kernel_vector(m) == [v + 1 for v in u]


def nonzero_rref_rows(mat) -> list[Vector]:
    """The nonzero rows of the reduced form of every row of `mat`: a basis of
    its row space."""
    m = rational.matrix(mat)
    if not m:
        return []
    red, pivots = rational.rref(m)
    return red[:len(pivots)]


@st.composite
def t_and_linkage_rows(draw):
    """A p/q matrix T (m x n_r) with drawn columns zeroed, and the rows of L^T:
    one 0/1 row per class of a drawn partition of T's columns. A class row
    pivots where T is zero, as in T_hat of a network whose orders vanish on
    some reactant complexes."""
    m, n_r = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), _fractions)
    t = draw(st.lists(st.lists(entry, min_size=n_r, max_size=n_r), min_size=m, max_size=m))
    for c in draw(st.sets(st.integers(0, n_r - 1))):
        for row in t:
            row[c] = Fraction(0)
    labels = draw(st.lists(st.integers(0, n_r - 1), min_size=n_r, max_size=n_r))
    return t, [[Fraction(int(lab == cls)) for lab in labels] for cls in sorted(set(labels))]


@given(t_and_linkage_rows())
@example(([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
          [[Fraction(1), Fraction(1)]]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_pass_ranks_t_and_t_hat(blocks):
    t, lt = blocks
    pivots = rational.pivot_rows_int(rational.integer_rows(t + lt))
    assert sum(1 for i in pivots if i < len(t)) == exact_rank(t) == len(oracle_rref(t)[1])
    assert len(pivots) == len(oracle_rref(t + lt)[1])
    assert exact_rank([(t + lt)[i] for i in pivots]) == len(pivots)


@st.composite
def repeated_row_matrices(draw):
    """`rational_matrices` with copies of its rows and zero rows inserted."""
    mat = draw(rational_matrices())
    for kind in draw(st.lists(st.sampled_from(["repeat", "zero"]), min_size=1, max_size=3)):
        row = list(draw(st.sampled_from(mat))) if kind == "repeat" else [Fraction(0)] * len(mat[0])
        mat.insert(draw(st.integers(0, len(mat))), row)
    return mat


@given(repeated_row_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_row_basis_reduces_only_the_pivot_rows(mat):
    """The reduced form of the pivot rows alone, as `build_t_matrices` forms
    the basis of S~, is the nonzero part of the reduced form of every row."""
    rows = rational.integer_rows(mat)
    red, _, d = rational.rref_int([rows[i] for i in rational.pivot_rows_int(rows)])
    assert [[Fraction(v, d) for v in row] for row in red] == nonzero_rref_rows(mat)


@st.composite
def multiplied_integer_rows(draw):
    """A `rational_matrices` matrix and its integer rows, each row then
    multiplied by a drawn positive integer."""
    mat = draw(rational_matrices())
    factors = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10 ** 30)),
                            min_size=len(mat), max_size=len(mat)))
    return mat, [[f * v for v in row] for f, row in zip(factors, rational.integer_rows(mat))]


@given(multiplied_integer_rows())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_paths_match_the_fraction_path(pair):
    mat, rows = pair
    given_rows = [row[:] for row in rows]
    red, pivots = rational.rref(mat)
    assert (red, pivots) == oracle_rref(rational.matrix(mat))
    red_int, pivots_int, d = rational.rref_int(rows)
    assert pivots_int == pivots
    assert [[Fraction(v, d) for v in row] for row in red_int] == red
    assert rational.pivot_rows_int(rows) == rational.pivot_rows_int(rational.integer_rows(mat))
    assert rational.rank_int(rows) == exact_rank(mat) == len(pivots)
    assert column_basis(mat) == [[row[c] for row in rational.matrix(mat)]
                                          for c in pivots_int]
    assert rows == given_rows


def oracle_positive_kernel_vector_int(rows) -> Vector | None:
    """The integer entry `positive_kernel_vector` replaced, kept verbatim:
    the matrix `rows` itself, each row read at scale 1."""
    rows = list(rows)
    if not rows:
        raise ValueError("positive kernel of an empty matrix is ambiguous")
    scaled = [(1, row) for row in rows]
    if not scaled[0][1]:
        return None
    if any(any(row) and (min(row) >= 0 or max(row) <= 0) for _, row in scaled):
        return None
    # b = -A 1, so row i of [A | b] times L_i is the integer row and minus its sum
    u = rational._phase1_feasible([(scale, [*row, -sum(row)]) for scale, row in scaled])
    if u is None:
        return None
    z = [v + 1 for v in u]
    _, zi = rational._scaled(z)
    if any(sum(r * x for r, x in zip(row, zi)) for _, row in scaled):
        raise ArithmeticError("phase-1 solution is not a kernel vector")
    return z


@given(small_matrices)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_integer_kernel_path_matches_the_fraction_path(mat):
    """Integer rows have scale 1, so the Fraction entry gives the witness the
    integer entry gave them."""
    z = oracle_positive_kernel_vector_int(tuple(map(tuple, mat)))
    assert z == rational.positive_kernel_vector(mat) == oracle_positive_kernel_vector(mat)


def test_integer_rows_clear_each_row_once():
    rows = rational.integer_rows([[Fraction(1, 2), Fraction(2, 3), 0], [3, "5/7", 1], [0, 0, 0]])
    assert rows == [[3, 4, 0], [21, 5, 7], [0, 0, 0]]
    assert all(type(v) is int for row in rows for v in row)
    assert type(rational.frac(7)) is Fraction and rational.frac(True) == 1
    with pytest.raises(TypeError):
        rational.integer_rows([[1, 0.5]])


def test_rank_examples():
    n_re1 = [[-1, 1, -1, 1, -1, 1, -1, 1],
             [1, -1, 1, -1, 0, 0, 0, 0],
             [0, 0, 0, 0, 1, -1, 1, -1]]
    assert exact_rank(n_re1) == 2
    assert exact_rank([[0, 0], [0, 0]]) == 0
    that = [[0, -1, 0, 0], [-1, -1, -2, 0], [1, 1, 0, -2], [1, 1, 1, 1]]
    assert exact_rank(that) == 4
    assert exact_rank([]) == exact_rank([[]]) == 0
    assert rational.rref([]) == oracle_rref([]) == ([], [])


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        rational.frac(0.5)


# Each string `frac` reads: its value, or the message that refuses it.
FRAC_STRINGS = {
    "7": Fraction(7), "-3/4": Fraction(-3, 4), "+6/4": Fraction(3, 2),
    "0.5": Fraction(1, 2), "-.25": Fraction(-1, 4), "5.": Fraction(5),
    "1.5e3": Fraction(1500), "2E-3": Fraction(1, 500), "0e999999999": Fraction(0),
    "-0.0": Fraction(0), "0/5": Fraction(0), "4.9e-324": Fraction(49, 10 ** 325),
    "3/0": "number '3/0' has a zero denominator",
    "0/0": "number '0/0' has a zero denominator",
    "1e400": "number '1e400' overflows a float",
    "1e-400": "number '1e-400' underflows a float",
    "1/" + "1" * 400: f"number {'1/' + '1' * 400!r} underflows a float",
    "1" * 400 + "/3": f"number {'1' * 400 + '/3'!r} overflows a float",
    "0" * 5000 + "1": f"number {'0' * 5000 + '1'!r} has too many digits",
    "Infinity": "expected a number, got 'Infinity'",
    "nan": "expected a number, got 'nan'",
    "1_000": "expected a number, got '1_000'",
    " 1": "expected a number, got ' 1'",
    "1/2/3": "expected a number, got '1/2/3'",
    "1.5/2": "expected a number, got '1.5/2'",
    "": "expected a number, got ''",
}


@pytest.mark.parametrize("text", sorted(FRAC_STRINGS),
                         ids=lambda t: repr(t) if len(t) < 20 else f"{t[:6]}...{len(t)}-chars")
def test_frac_reads_one_grammar(text):
    want = FRAC_STRINGS[text]
    if isinstance(want, Fraction):
        assert rational.frac(text) == want and type(rational.frac(text)) is Fraction
    else:
        with pytest.raises(ValueError) as info:
            rational.frac(text)
        assert str(info.value) == want


def test_frac_refuses_a_huge_exponent_at_once():
    """Building 10**999999999 would take minutes; the float check refuses
    both signs of the exponent before any Fraction is built."""
    code = ("from crnbalance.rational import frac\n"
            "for text in ('1e999999999', '1e-999999999'):\n"
            "    try:\n"
            "        frac(text)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=10, check=True).stdout
    assert out == ("number '1e999999999' overflows a float\n"
                   "number '1e-999999999' underflows a float\n")


def test_to_float_refuses_what_a_float_cannot_hold():
    assert rational.to_float(Fraction(1, 3)) == 1 / 3 and rational.to_float(0) == 0.0
    for value in (10 ** 400, Fraction(-(10 ** 400), 3), Fraction(1, 10 ** 400)):
        with pytest.raises(ValueError, match="does not fit a float"):
            rational.to_float(value)


def test_numpy_integers_rank_as_python_integers():
    """A numpy integer numerator would wrap in the integer elimination:
    diag(2^32, 2^32) has rank 2, not 1."""
    big = np.int64(2 ** 32)
    assert type(rational.frac(big).numerator) is int
    assert exact_rank([[big, np.int64(0)], [np.int64(0), big]]) == 2


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_matches_transpose_and_numpy(mat):
    r = exact_rank(mat)
    assert r == exact_rank(rational.transpose(rational.matrix(mat)))
    assert r == np.linalg.matrix_rank(np.array(mat, dtype=float))
    assert r <= min(len(mat), len(mat[0]))


@given(small_matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_rank_unchanged_by_dependent_row(mat, weights):
    m = rational.matrix(mat)
    weights = (weights * len(m))[:len(m)]
    combo = [sum(Fraction(w) * row[j] for w, row in zip(weights, m))
             for j in range(len(m[0]))]
    assert exact_rank(m + [combo]) == exact_rank(m)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_nullspace_is_a_kernel_basis(mat):
    m = rational.matrix(mat)
    basis = nullspace(m)
    assert len(basis) == len(m[0]) - exact_rank(m)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
    if basis:
        assert exact_rank(basis) == len(basis)


def test_column_and_row_basis_span():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    cols = column_basis(m)
    assert len(cols) == exact_rank(m) == 2
    rows = nonzero_rref_rows(m)
    assert spans_equal(rows, [[1, 2, 3], [0, 1, 1]])


def test_in_span_and_spans_equal():
    assert in_span([[1, 0, 0], [0, 1, 0]], [3, -2, 0])
    assert not in_span([[1, 0, 0]], [0, 1, 0])
    assert spans_equal([[1, 1]], [[2, 2]])
    assert not spans_equal([[1, 1]], [[1, 0]])
    assert in_span([], [0, 0])
    assert not in_span([], [1, 0])


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
    monkeypatch.setattr(rational, "_phase1_feasible", lambda scaled: [Fraction(0)] * 3)
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
