"""Exact linear algebra over the rationals.

Ranks, kernels and positivity feasibility here back integer-valued claims
(deficiencies, independence of decompositions, conservativity), where a
floating-point tolerance could flip a verdict. Entries are Python ints or
`fractions.Fraction`s; floats are refused outright, and callers that hold
float data must decide for themselves how to rationalize it. `frac` reads
every number of a network file and of a flux-space file.

Elimination and the simplex pivot fraction-free on integer rows, so no gcd
is normalized until the Fractions they return are formed. An integer row is
a row times the lcm of its denominators (`integer_rows`). A positive
multiple of a row changes no rank, pivot or reduced form, so `rref` has a
form that takes integer rows as they are (`rref_int`), and the Fraction
form scales its rows once and calls it; `rank_int` and `pivot_rows_int`
take integer rows only. A caller that keeps its matrix as integer rows
scales it once: a network its N and Ia, a T-matrix build its order rows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isinf, lcm
from numbers import Integral

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_ZERO = Fraction(0)

_NUMBER = re.compile(r"[+-]?(\d+/\d+|\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?"
                     r"|\d+[eE][+-]?\d+|\d+)")


def frac(value) -> Fraction:
    """Coerce ints, Fractions, or number strings like '3/2' to Fraction.

    A string is an integer, `p/q` or a decimal with an optional exponent,
    optionally signed (not `1_000`, `inf` or `nan`). A ValueError naming it
    refuses a zero denominator, digits that `int()` refuses and a nonzero
    value that a float cannot hold, decided before any Fraction is built.
    """
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    if isinstance(value, Integral):
        # a numpy integer would stay the numerator, and wrap in elimination
        return Fraction(int(value))
    if not _NUMBER.fullmatch(value):
        raise ValueError(f"expected a number, got {value!r}")
    num, _, den = value.partition("/")
    try:
        approx = int(num) / int(den) if den else float(value)
        if isinf(approx):
            raise OverflowError
        exact = Fraction(value) if approx else _ZERO
    except ZeroDivisionError:
        raise ValueError(f"number {value!r} has a zero denominator") from None
    except OverflowError:
        raise ValueError(f"number {value!r} overflows a float") from None
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
        raise ValueError(f"number {value!r} has too many digits") from None
    if not approx and any(c in "123456789" for c in num.lower().partition("e")[0]):
        raise ValueError(f"number {value!r} underflows a float")
    return exact


def to_float(value) -> float:
    """`float(value)`; a ValueError if it is nonzero and overflows or rounds to 0.0."""
    try:
        out = float(value)
    except OverflowError:
        out = 0.0
    if value and not out:
        raise ValueError(f"{value} does not fit a float")
    return out


def matrix(rows) -> Matrix:
    out = [[frac(v) for v in row] for row in rows]
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("ragged matrix")
    return out


def transpose(mat: Matrix) -> Matrix:
    return [list(col) for col in zip(*mat)] if mat else []


def _scaled(row) -> tuple[int, list[int]]:
    """The lcm of a row's denominators and the row times it, as integers."""
    scale = lcm(*(v.denominator for v in row))
    return scale, [v.numerator * (scale // v.denominator) for v in row]


def integer_rows(mat) -> list[list[int]]:
    """Each row of `mat` times the lcm of its denominators, as Python ints."""
    return [_scaled(row)[1] for row in matrix(mat)]


def _fractions(rows, d: int) -> Matrix:
    return [[Fraction(v, d) if v else _ZERO for v in row] for row in rows]


def rref(mat) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (on a copy) and the pivot column indices."""
    red, pivots, d = rref_int(integer_rows(mat))
    return _fractions(red, d), pivots


def rref_int(rows) -> tuple[list[list[int]], list[int], int]:
    """The reduced row echelon form of integer rows, times d, with the pivot
    columns and d, the last pivot (1 when there is none).

    Fraction-free Gauss-Jordan elimination (Bareiss): every update pv*a - f*b
    is divided exactly by the previous pivot, so each entry stays an integer
    minor and all pivot rows share the last pivot d as their leading entry;
    the reduced form is the result divided by d. The reduced form is unique,
    so scaling rows changes nothing in it. `rows` is not modified; a row it
    returns may be one of them.
    """
    m = list(rows)
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(n_rows):
            if i != r:
                f = m[i][c]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots, prev


def pivot_rows_int(rows) -> list[int]:
    """Indices of the pivot rows of a forward Bareiss pass over integer rows,
    in pivot order; `rows` is not modified.

    Column by column, the pivot is the first remaining row, in the given
    order, that is nonzero there. Each pivot row is its original row plus a
    combination of earlier pivot rows, and every other row ends at zero, so
    the original rows at these indices are a basis of the row space. A row
    is combined only with pivot rows above it, so the first k rows give
    exactly rank(rows[:k]) of the pivots.
    """
    rows = list(rows)
    index = list(range(len(rows)))
    found: list[int] = []
    prev = 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        found.append(index.pop(i))
        pv, *tail = rows.pop(i)
        rows = [[(pv * a - f * b) // prev for a, b in zip(rest, tail)] for f, *rest in rows]
        prev = pv
    return found


def rank_int(rows) -> int:
    """Exact rank over the rationals of integer rows: the number of pivot rows."""
    return len(pivot_rows_int(rows))


def _phase1_feasible(scaled: list[tuple[int, list[int]]]) -> Vector | None:
    """Solve A u = b with u >= 0 via a phase-1 simplex (Bland's rule), given
    each row of [A | b] as its scale L_i, the lcm of its denominators, and
    the row times L_i as integers.

    Returns one feasible u, or None. Bland's pivoting rule guarantees
    termination. The tableau is pivoted in integers (Edmonds): row i is
    [A | b] times L_i, and each update pv*x - f*y is divided exactly by the
    previous pivot `det`, the determinant of the current basis, so the exact
    tableau is T / det with row i scaled by L_i while artificial i is basic.
    Row scaling leaves every ratio and sign unchanged, and the reduced-cost
    row starts as sum_i (L / L_i) T_i, L = lcm(L_i): L times the unscaled
    one. So the pivot sequence and the solution are those of the simplex
    over Fractions. The artificial columns are not stored: no pivot and no
    entry of u reads them.
    """
    if not scaled:
        return []
    n_rows, n_cols = len(scaled), len(scaled[0][1]) - 1
    # Tableau [A | b] with b >= 0; artificial variable i has basis label n_cols+i.
    scales = [scale for scale, _ in scaled]
    tab = [[-v for v in row] if row[-1] < 0 else row for _, row in scaled]
    basis = [n_cols + i for i in range(n_rows)]
    total = n_cols
    common = lcm(*scales)
    z = [sum((common // s) * row[j] for s, row in zip(scales, tab)) for j in range(total + 1)]
    det = 1
    while True:
        enter = next((j for j in range(n_cols) if z[j] > 0), None)
        if enter is None:
            break
        # min-ratio test, ties to the smaller basis label: x/p < y/q with
        # p, q > 0 is x*q < y*p, so no ratio is formed
        leave = None
        for i, row in enumerate(tab):
            p = row[enter]
            if p > 0:
                if leave is None:
                    leave = i
                else:
                    lhs, rhs = row[total] * tab[leave][enter], tab[leave][total] * p
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
        if leave is None:
            return None  # unbounded phase-1 cannot happen, but stay safe
        prow = tab[leave]
        pv = prow[enter]
        for i in range(n_rows):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(pv * x - f * y) // det for x, y in zip(tab[i], prow)]
        f = z[enter]
        z = [(pv * x - f * y) // det for x, y in zip(z, prow)]
        det = pv
        basis[leave] = enter
    if z[total] != 0:
        return None
    u = [_ZERO] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            u[var] = Fraction(tab[i][total], det)
    return u


def positive_kernel_vector(mat) -> Vector | None:
    """A strictly positive z with mat z = 0, or None if none exists.

    No z > 0 is orthogonal to a nonzero row of a single sign, so such a row
    answers None at once. Otherwise positivity is scale invariant, so it
    suffices to search z >= 1; substituting z = 1 + u reduces the question
    to phase-1 feasibility of A u = -A 1 with u >= 0. Each row is scaled
    to integers once; the sign screen, the simplex tableau and the check of
    the witness all read those rows.
    """
    m = matrix(mat)
    if not m:
        raise ValueError("positive kernel of an empty matrix is ambiguous")
    if not m[0]:
        return None
    scaled = [_scaled(row) for row in m]
    if any(any(row) and (min(row) >= 0 or max(row) <= 0) for _, row in scaled):
        return None
    # b = -A 1, so row i of [A | b] times L_i is the integer row and minus its sum
    u = _phase1_feasible([(scale, [*row, -sum(row)]) for scale, row in scaled])
    if u is None:
        return None
    z = [v + 1 for v in u]
    _, zi = _scaled(z)
    if any(sum(r * x for r, x in zip(row, zi)) for _, row in scaled):
        raise ArithmeticError("phase-1 solution is not a kernel vector")
    return z
