"""Kinetics families and their structural classification.

Four families are supported: plain power law (mass action is the special
case whose order rows equal the reactant stoichiometry), poly-PL (positive
sums of power-law monomials per reaction), Hill-type (per-species saturating
factors), and a generalized rational form (monomial numerator over a product
of positive polynomial factors) that Hill kinetics convert into and that also
covers rational rate laws whose denominators mix several species.

Kinetic orders are kept as float arrays for evaluation, with an optional
exact rational copy alongside; identity-of-rows classifications and all rank
work use the exact copy whenever it exists and a 1e-12 tolerance otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational
from .network import CrnError, ReactionNetwork

ExactMatrix = tuple[tuple[Fraction, ...], ...]

_ROW_TOL = 1e-12


class NonPositiveStateError(CrnError):
    pass


class NotApplicableError(CrnError):
    pass


class InvalidKineticsError(CrnError):
    pass


def _coerce_matrix(rows, n_cols=None) -> tuple[np.ndarray, ExactMatrix | None]:
    """Float matrix plus an exact copy when no entry was a float."""
    exact_rows = []
    exact_ok = True
    float_rows = []
    for row in rows:
        frow = []
        erow = []
        for v in row:
            if isinstance(v, float) and not float(v).is_integer():
                exact_ok = False
                frow.append(float(v))
            elif isinstance(v, float):
                # Integral floats are safe to treat exactly.
                erow.append(Fraction(int(v)))
                frow.append(float(v))
            else:
                ev = rational.frac(v)
                erow.append(ev)
                frow.append(float(ev))
        float_rows.append(frow)
        exact_rows.append(tuple(erow))
    arr = np.array(float_rows, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(len(float_rows), 0)
    if n_cols is not None and arr.shape[1] != n_cols:
        raise InvalidKineticsError(f"expected {n_cols} columns, got {arr.shape[1]}")
    exact = tuple(exact_rows) if exact_ok else None
    return arr, exact


def _coerce_rates(values) -> np.ndarray:
    k = np.array([float(v) if isinstance(v, float) else float(rational.frac(v))
                  for v in values], dtype=float)
    if np.any(k <= 0):
        raise InvalidKineticsError("rate constants must be strictly positive")
    return k


@dataclass(eq=False)
class PowerLawKinetics:
    orders: np.ndarray                    # (r, m) kinetic order rows
    rates: np.ndarray                     # (r,) strictly positive
    exact_orders: ExactMatrix | None = None

    def __post_init__(self):
        self.orders = np.asarray(self.orders, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.orders.shape[0] != self.rates.shape[0]:
            raise InvalidKineticsError("one order row per reaction required")
        if np.any(self.rates <= 0):
            raise InvalidKineticsError("rate constants must be strictly positive")
        self.orders.flags.writeable = False
        self.rates.flags.writeable = False

    @property
    def num_reactions(self) -> int:
        return self.orders.shape[0]

    @property
    def num_species(self) -> int:
        return self.orders.shape[1]


def power_law(order_rows, rates) -> PowerLawKinetics:
    orders, exact = _coerce_matrix(order_rows)
    return PowerLawKinetics(orders, _coerce_rates(rates), exact)


def mass_action_from(net: ReactionNetwork, rates) -> PowerLawKinetics:
    """Power-law kinetics whose order rows are the reactant stoichiometries."""
    exact = tuple(net.complexes[rx.reactant].coeffs for rx in net.reactions)
    orders = np.array([[float(c) for c in row] for row in exact])
    return PowerLawKinetics(orders, _coerce_rates(rates), exact)


@dataclass(eq=False)
class PolyPLKinetics:
    """Per reaction q: K_q(x) = k_q * sum_j a_{q,j} x^{F_{q,j}}."""

    term_coeffs: tuple[np.ndarray, ...]   # per reaction, shape (h_q,), positive
    term_orders: tuple[np.ndarray, ...]   # per reaction, shape (h_q, m)
    rates: np.ndarray
    exact_term_coeffs: tuple[tuple[Fraction, ...], ...] | None = None
    exact_term_orders: tuple[ExactMatrix, ...] | None = None

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        if len(self.term_coeffs) != self.rates.shape[0]:
            raise InvalidKineticsError("one term list per reaction required")
        for a, f in zip(self.term_coeffs, self.term_orders):
            if a.shape[0] == 0:
                raise InvalidKineticsError("every reaction needs at least one term")
            if np.any(a <= 0):
                raise InvalidKineticsError("poly-PL coefficients must be positive")
            if f.shape[0] != a.shape[0]:
                raise InvalidKineticsError("coefficient/order count mismatch")

    @property
    def num_reactions(self) -> int:
        return self.rates.shape[0]

    @property
    def num_species(self) -> int:
        return self.term_orders[0].shape[1]

    @property
    def length(self) -> int:
        return max(a.shape[0] for a in self.term_coeffs)

    @property
    def is_normalized(self) -> bool:
        h = self.length
        return all(a.shape[0] == h for a in self.term_coeffs)

    def term_system(self, j: int) -> PowerLawKinetics:
        """The j-th power-law system of the normalized representation."""
        if not self.is_normalized:
            raise InvalidKineticsError("normalize before taking term systems")
        orders = np.array([f[j] for f in self.term_orders])
        rates = self.rates * np.array([a[j] for a in self.term_coeffs])
        exact = None
        if self.exact_term_orders is not None:
            exact = tuple(rows[j] for rows in self.exact_term_orders)
        return PowerLawKinetics(orders, rates, exact)


def poly_pl(terms, rates) -> PolyPLKinetics:
    """Build poly-PL kinetics from per-reaction [(coeff, order_row), ...] lists."""
    coeff_arrays = []
    order_arrays = []
    exact_coeffs: list[tuple[Fraction, ...]] = []
    exact_orders: list[ExactMatrix] = []
    exact_ok = True
    for term_list in terms:
        if not term_list:
            raise InvalidKineticsError("every reaction needs at least one term")
        a_arr, a_exact = _coerce_matrix([[c for c, _ in term_list]])
        f_arr, f_exact = _coerce_matrix([row for _, row in term_list])
        coeff_arrays.append(a_arr[0])
        order_arrays.append(f_arr)
        if a_exact is None or f_exact is None:
            exact_ok = False
        else:
            exact_coeffs.append(a_exact[0])
            exact_orders.append(f_exact)
    return PolyPLKinetics(
        tuple(coeff_arrays), tuple(order_arrays), _coerce_rates(rates),
        tuple(exact_coeffs) if exact_ok else None,
        tuple(exact_orders) if exact_ok else None,
    )


def normalize_poly_pl(kin: PolyPLKinetics) -> PolyPLKinetics:
    """Pad every reaction to the common length h by splitting its last term.

    A reaction with h_q terms has its last term replaced by (h - h_q + 1)
    equal copies at coefficient a/(h - h_q + 1), which leaves the evaluated
    rate unchanged at every state. Idempotent.
    """
    h = kin.length
    if kin.is_normalized:
        return kin
    coeffs = []
    orders = []
    e_coeffs = []
    e_orders = []
    exact = kin.exact_term_coeffs is not None and kin.exact_term_orders is not None
    for q in range(kin.num_reactions):
        a = kin.term_coeffs[q]
        f = kin.term_orders[q]
        pad = h - a.shape[0] + 1
        new_a = np.concatenate([a[:-1], np.full(pad, a[-1] / pad)])
        new_f = np.vstack([f[:-1], np.repeat(f[-1:], pad, axis=0)])
        coeffs.append(new_a)
        orders.append(new_f)
        if exact:
            ea = kin.exact_term_coeffs[q]
            ef = kin.exact_term_orders[q]
            e_coeffs.append(ea[:-1] + (ea[-1] / pad,) * pad)
            e_orders.append(ef[:-1] + (ef[-1],) * pad)
    return PolyPLKinetics(
        tuple(coeffs), tuple(orders), kin.rates,
        tuple(e_coeffs) if exact else None,
        tuple(e_orders) if exact else None,
    )


@dataclass(eq=False)
class HillKinetics:
    """K_q(x) = k_q * prod_i x_i^F_qi / (d_qi + x_i^F_qi) over supp F_q.

    The dissociation matrix D must have the same support as F row by row.
    Negative exponents are evaluated in the rewritten form 1/(d x^|F| + 1),
    so states with zero entries stay evaluable.
    """

    orders: np.ndarray   # (r, m)
    dissoc: np.ndarray   # (r, m) nonnegative
    rates: np.ndarray

    def __post_init__(self):
        self.orders = np.asarray(self.orders, dtype=float)
        self.dissoc = np.asarray(self.dissoc, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.orders.shape != self.dissoc.shape:
            raise InvalidKineticsError("order and dissociation shapes differ")
        if np.any(self.dissoc < 0):
            raise InvalidKineticsError("dissociation constants must be nonnegative")
        if np.any((self.orders != 0) != (self.dissoc != 0)):
            raise InvalidKineticsError(
                "dissociation support must match kinetic order support row by row")

    @property
    def num_reactions(self) -> int:
        return self.orders.shape[0]

    @property
    def num_species(self) -> int:
        return self.orders.shape[1]


def hill(order_rows, dissoc_rows, rates) -> HillKinetics:
    orders, _ = _coerce_matrix(order_rows)
    dissoc = np.array([[float(v) if isinstance(v, float) else float(rational.frac(v))
                        for v in row] for row in dissoc_rows], dtype=float)
    return HillKinetics(orders, dissoc, _coerce_rates(rates))


@dataclass(eq=False)
class RationalFactor:
    """A positive polynomial sum_j c_j x^{E_j} used as a denominator factor."""

    coeffs: np.ndarray   # (t,) positive
    orders: np.ndarray   # (t, m)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.orders = np.asarray(self.orders, dtype=float)
        if np.any(self.coeffs <= 0):
            raise InvalidKineticsError("factor coefficients must be positive")

    def key(self) -> tuple:
        terms = sorted((tuple(row), c) for row, c in zip(self.orders, self.coeffs))
        return tuple(terms)

    def value(self, x: np.ndarray) -> float:
        return float(self.coeffs @ np.prod(np.power(x[None, :], self.orders), axis=1))

    def log_gradient_numerator(self, x: np.ndarray) -> np.ndarray:
        """d/du of the factor value (u = log x), as a vector."""
        monos = self.coeffs * np.prod(np.power(x[None, :], self.orders), axis=1)
        return monos @ self.orders


@dataclass(eq=False)
class RationalKinetics:
    """K_q(x) = k_q x^{f_q} / prod of denominator factors of reaction q."""

    numer_orders: np.ndarray                              # (r, m)
    rates: np.ndarray
    denominators: tuple[tuple[RationalFactor, ...], ...]  # per reaction

    def __post_init__(self):
        self.numer_orders = np.asarray(self.numer_orders, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if len(self.denominators) != self.rates.shape[0]:
            raise InvalidKineticsError("one denominator list per reaction required")
        for factors in self.denominators:
            keys = [f.key() for f in factors]
            if len(keys) != len(set(keys)):
                raise InvalidKineticsError("repeated factor within one reaction")

    @property
    def num_reactions(self) -> int:
        return self.numer_orders.shape[0]

    @property
    def num_species(self) -> int:
        return self.numer_orders.shape[1]


def hill_as_rational(kin: HillKinetics) -> RationalKinetics:
    """Rewrite Hill kinetics factor by factor so zero states stay evaluable.

    A factor with positive exponent keeps x^f in the numerator and (d + x^f)
    below; a factor with negative exponent becomes 1/(1 + d x^|f|), which
    contributes no numerator monomial.
    """
    r, m = kin.orders.shape
    numer = np.zeros((r, m))
    dens: list[tuple[RationalFactor, ...]] = []
    for q in range(r):
        factors = []
        for i in range(m):
            f = kin.orders[q, i]
            d = kin.dissoc[q, i]
            if f == 0:
                continue
            row_pos = np.zeros(m)
            if f > 0:
                numer[q, i] = f
                row_pos[i] = f
                factors.append(RationalFactor(np.array([d, 1.0]),
                                              np.vstack([np.zeros(m), row_pos])))
            else:
                row_pos[i] = -f
                factors.append(RationalFactor(np.array([1.0, d]),
                                              np.vstack([np.zeros(m), row_pos])))
        dens.append(tuple(factors))
    return RationalKinetics(numer, kin.rates.copy(), tuple(dens))


Kinetics = PowerLawKinetics | PolyPLKinetics | HillKinetics | RationalKinetics


def _stacked_orders(kin: Kinetics) -> np.ndarray:
    if isinstance(kin, PowerLawKinetics):
        return kin.orders
    if isinstance(kin, PolyPLKinetics):
        return np.vstack(kin.term_orders)
    if isinstance(kin, HillKinetics):
        return kin.orders
    return kin.numer_orders


def _check_state(kin: Kinetics, x: np.ndarray) -> None:
    if np.any(x < 0):
        raise NonPositiveStateError("state has a negative entry")
    if isinstance(kin, (PowerLawKinetics, PolyPLKinetics)):
        zero = np.where(x == 0)[0]
        if zero.size:
            orders = _stacked_orders(kin)
            bad = [i for i in zero if np.any(orders[:, i] < 0)]
            if bad:
                raise NonPositiveStateError(
                    f"state entry {bad[0]} is zero but a kinetic order on it is negative")
    if isinstance(kin, RationalKinetics):
        zero = np.where(x == 0)[0]
        if zero.size and np.any(kin.numer_orders[:, zero] < 0):
            raise NonPositiveStateError("zero state entry under a negative exponent")


def evaluate(kin: Kinetics, x) -> np.ndarray:
    """Reaction rate vector K(x); strictly positive states always accepted."""
    x = np.asarray(x, dtype=float)
    _check_state(kin, x)
    if isinstance(kin, PowerLawKinetics):
        return kin.rates * np.prod(np.power(x[None, :], kin.orders), axis=1)
    if isinstance(kin, PolyPLKinetics):
        out = np.empty(kin.num_reactions)
        for q in range(kin.num_reactions):
            monos = np.prod(np.power(x[None, :], kin.term_orders[q]), axis=1)
            out[q] = kin.rates[q] * float(kin.term_coeffs[q] @ monos)
        return out
    if isinstance(kin, HillKinetics):
        return evaluate(hill_as_rational(kin), x)
    out = np.empty(kin.num_reactions)
    for q in range(kin.num_reactions):
        val = kin.rates[q] * float(np.prod(np.power(x, kin.numer_orders[q])))
        for factor in kin.denominators[q]:
            den = factor.value(x)
            if den <= 0:
                raise NonPositiveStateError("denominator factor vanished")
            val /= den
        out[q] = val
    return out


def log_jacobian(kin: Kinetics, x) -> tuple[np.ndarray, np.ndarray]:
    """K(x) and the Jacobian dK/du in log coordinates u = log x (x > 0)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise NonPositiveStateError("log-coordinate Jacobian needs x > 0")
    if isinstance(kin, PowerLawKinetics):
        k = evaluate(kin, x)
        return k, k[:, None] * kin.orders
    if isinstance(kin, PolyPLKinetics):
        r, m = kin.num_reactions, kin.num_species
        k = np.empty(r)
        jac = np.empty((r, m))
        for q in range(r):
            monos = kin.rates[q] * kin.term_coeffs[q] * np.prod(
                np.power(x[None, :], kin.term_orders[q]), axis=1)
            k[q] = monos.sum()
            jac[q] = monos @ kin.term_orders[q]
        return k, jac
    if isinstance(kin, HillKinetics):
        k = evaluate(kin, x)
        xf = np.power(x[None, :], kin.orders)
        with np.errstate(invalid="ignore"):
            grad = np.where(kin.orders != 0,
                            kin.orders * kin.dissoc / (kin.dissoc + xf), 0.0)
        return k, k[:, None] * grad
    k = evaluate(kin, x)
    r, m = kin.num_reactions, kin.num_species
    grad = np.tile(kin.numer_orders, (1, 1)).astype(float).copy()
    for q in range(r):
        for factor in kin.denominators[q]:
            grad[q] -= factor.log_gradient_numerator(x) / factor.value(x)
    return k, k[:, None] * grad


def species_formation_rate(net: ReactionNetwork, kin: Kinetics, x) -> np.ndarray:
    """SFRF f(x) = N K(x)."""
    return net.n_array() @ evaluate(kin, x)


@dataclass(frozen=True)
class KineticsClassification:
    """Structure flags; None marks a flag that does not apply to the family."""

    pl_rdk: bool | None = None
    factor_span_surjective: bool | None = None
    pl_nik: bool | None = None
    por: bool | None = None
    cf: bool | None = None
    mass_action: bool | None = None

    def require(self, flag: str) -> bool:
        value = getattr(self, flag)
        if value is None:
            raise NotApplicableError(f"{flag} does not apply to this kinetics family")
        return value


def _rows_equal(kin, q1: int, q2: int) -> bool:
    if isinstance(kin, PowerLawKinetics) and kin.exact_orders is not None:
        return kin.exact_orders[q1] == kin.exact_orders[q2]
    return bool(np.max(np.abs(kin.orders[q1] - kin.orders[q2])) <= _ROW_TOL)


def _is_pl_rdk(kin: PowerLawKinetics, net: ReactionNetwork) -> bool:
    for _, qs in net.reactions_by_reactant().items():
        for other in qs[1:]:
            if not _rows_equal(kin, qs[0], other):
                return False
    return True


def _is_mass_action(kin: PowerLawKinetics, net: ReactionNetwork) -> bool:
    for q, rx in enumerate(net.reactions):
        target = net.complexes[rx.reactant].coeffs
        if kin.exact_orders is not None:
            if kin.exact_orders[q] != target:
                return False
        else:
            row = np.array([float(c) for c in target])
            if np.max(np.abs(kin.orders[q] - row)) > _ROW_TOL:
                return False
    return True


def _poly_pl_is_cf(kin: PolyPLKinetics, net: ReactionNetwork) -> bool:
    """Complex factorizability: shared-reactant reactions must agree term by
    term in both exponent rows and positive coefficients."""
    norm = normalize_poly_pl(kin)
    for _, qs in net.reactions_by_reactant().items():
        q0 = qs[0]
        for q in qs[1:]:
            if np.max(np.abs(norm.term_coeffs[q0] - norm.term_coeffs[q])) > _ROW_TOL:
                return False
            if np.max(np.abs(norm.term_orders[q0] - norm.term_orders[q])) > _ROW_TOL:
                return False
    return True


def _distinct_columns(cols: np.ndarray, exact: rational.Matrix | None) -> bool:
    n = cols.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            if exact is not None:
                equal = all(row[i] == row[j] for row in exact)
            else:
                equal = bool(np.max(np.abs(cols[:, i] - cols[:, j])) <= _ROW_TOL)
            if equal:
                return False
    return True


def classify(kin: Kinetics, net: ReactionNetwork, t=None) -> KineticsClassification:
    """Structure flags for the kinetics on this network.

    `t` is an optional TMatrices bundle; factor span surjectivity is decided
    from pairwise distinctness of its kinetic complexes (monomials with
    distinct exponent vectors are independent on the positive orthant).
    """
    if isinstance(kin, PowerLawKinetics):
        orders = kin.orders
        rdk = _is_pl_rdk(kin, net)
        fss = None
        if t is not None and rdk:
            fss = _distinct_columns(t.t, t.exact_t)
        return KineticsClassification(
            pl_rdk=rdk,
            factor_span_surjective=fss,
            pl_nik=bool(np.all(orders >= 0)),
            por=bool(np.all(np.any(orders < 0, axis=0))),
            cf=rdk,
            mass_action=_is_mass_action(kin, net),
        )
    if isinstance(kin, PolyPLKinetics):
        stacked = _stacked_orders(kin)
        return KineticsClassification(
            pl_nik=bool(np.all(stacked >= 0)),
            por=bool(np.all(np.any(stacked < 0, axis=0))),
            cf=_poly_pl_is_cf(kin, net),
        )
    if isinstance(kin, HillKinetics):
        # The factorwise rewrite extends Hill kinetics to the closed
        # nonnegative orthant, so they are never positive-orthant restricted.
        return KineticsClassification(por=False)
    return KineticsClassification(
        por=bool(np.any(kin.numer_orders < 0)))


def rates_balancing_all_ones(net: ReactionNetwork) -> tuple[Fraction, ...]:
    """Exact positive rate vector making x = 1 complex balanced.

    Any kinetics evaluates to its rate vector at the all-ones state, so this
    is a strictly positive element of ker Ia; one exists iff the network is
    weakly reversible.
    """
    v = rational.positive_kernel_vector([list(row) for row in net.ia])
    if v is None:
        raise CrnError("no positive incidence kernel: network is not weakly reversible")
    return tuple(v)
