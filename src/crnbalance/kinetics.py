"""Kinetics families and their structural classification.

Four families are supported: plain power law (mass action is the special
case whose order rows equal the reactant stoichiometry), poly-PL (positive
sums of power-law monomials per reaction), Hill-type (per-species saturating
factors), and a generalized rational form (monomial numerator over a product
of positive polynomial factors) that Hill kinetics convert into and that also
covers rational rate laws whose denominators mix several species.

Every family is evaluated through one rate table, built once per object:
K_q(x) = sum_j (k_q a_qj) x^{F_qj} / prod_f sum_t c_ft x^{E_ft}, with one
term over no factor per power-law reaction, h_q terms over no factor per
poly-PL reaction and one term over its factors per rational reaction; Hill
kinetics are tabled through `hill_as_rational`. All arrays of a kinetics
object are read-only and its fields refuse assignment once the table is
built, so the table cannot go stale. The base `_Kinetics` checks the rates
of every family: one finite, strictly positive rate per reaction.

Kinetic orders are kept as float arrays for evaluation, with an optional
exact rational copy alongside; identity-of-rows classifications and all rank
work use the exact copy whenever it exists and a 1e-12 tolerance otherwise.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
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
    return np.array([float(v) if isinstance(v, float) else float(rational.frac(v))
                     for v in values], dtype=float)


def _frozen(values) -> np.ndarray:
    """A read-only float copy."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _starts(sizes) -> np.ndarray:
    """First index of each group of consecutive rows, for `np.ufunc.reduceat`."""
    return np.cumsum([0, *sizes], dtype=np.intp)[:-1]


def _monomials(coeffs: np.ndarray, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    return coeffs * np.prod(np.power(x[..., None, :], orders), axis=-1)


class _RateTable:
    """K_q(x) = sum_j w_qj x^{F_qj} / prod_f sum_t c_ft x^{E_ft}, row-wise.

    Terms are grouped by reaction and factor terms by factor, each group
    marked by its first row for `np.ufunc.reduceat`; `factor_rows` lists the
    reactions that have factors and `row_firsts` the first factor of each.
    """

    def __init__(self, weights: np.ndarray, orders: np.ndarray, sizes,
                 denominators: tuple[tuple[RationalFactor, ...], ...] = ()):
        factors = [f for fs in denominators for f in fs]
        self.weights, self.orders, self.starts = weights, orders, _starts(sizes)
        self.negative_species = np.any(orders < 0, axis=0)
        self.factor_coeffs = np.concatenate([np.zeros(0)] + [f.coeffs for f in factors])
        self.factor_orders = np.vstack([np.zeros((0, orders.shape[1]))]
                                       + [f.orders for f in factors])
        self.factor_starts = _starts([f.coeffs.shape[0] for f in factors])
        self.factor_rows = np.flatnonzero([len(fs) for fs in denominators])
        self.row_firsts = _starts([len(fs) for fs in denominators if fs])

    def rates(self, x: np.ndarray, jacobian: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """K(x), and dK/du (u = log x) when `jacobian` is set.

        `x` is one state (m,) or a stack (..., m); each state of a stack gets
        the same arithmetic, in the same order, as when evaluated alone.
        """
        monos = _monomials(self.weights, self.orders, x)
        k = np.add.reduceat(monos, self.starts, axis=-1)
        jac = None
        if jacobian:
            jac = monos[..., None] * self.orders
            if self.starts.size < self.weights.size:  # some reaction has several terms
                jac = np.add.reduceat(jac, self.starts, axis=-2)
        if self.factor_rows.size:
            fmonos = _monomials(self.factor_coeffs, self.factor_orders, x)
            values = np.add.reduceat(fmonos, self.factor_starts, axis=-1)
            if np.any(values <= 0):
                raise NonPositiveStateError("denominator factor vanished")
            rows = self.factor_rows
            den = np.multiply.reduceat(values, self.row_firsts, axis=-1)
            k[..., rows] /= den
            if jacobian:
                grads = np.add.reduceat(fmonos[..., None] * self.factor_orders,
                                        self.factor_starts, axis=-2) / values[..., None]
                jac[..., rows, :] = (jac[..., rows, :] / den[..., None]
                                     - k[..., rows, None]
                                     * np.add.reduceat(grads, self.row_firsts, axis=-2))
        return k, jac


class _Kinetics:
    """What the four families share: the reaction and species counts of the
    rate table, one check of `rates` against it, and no assignment once the
    table exists (the table is built from the fields, so a reassigned field
    would leave it stale).
    """

    def _install(self, table: _RateTable) -> None:
        """Check `rates` against `table` and keep the table; a family calls
        this last in `__post_init__`, after its own checks."""
        if self.rates.shape != table.starts.shape:
            raise InvalidKineticsError(
                f"one rate per reaction required: {table.starts.size} reactions, "
                f"rates of shape {self.rates.shape}")
        if not np.all((self.rates > 0) & (self.rates < np.inf)):
            raise InvalidKineticsError("rate constants must be finite and strictly positive")
        self._table = table

    def __setattr__(self, name, value):
        if "_table" in vars(self):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    @property
    def num_reactions(self) -> int:
        return self._table.starts.size

    @property
    def num_species(self) -> int:
        return self._table.orders.shape[1]


@dataclass(eq=False)
class PowerLawKinetics(_Kinetics):
    orders: np.ndarray                    # (r, m) kinetic order rows
    rates: np.ndarray                     # (r,) strictly positive
    exact_orders: ExactMatrix | None = None

    def __post_init__(self):
        self.orders = _frozen(self.orders)
        self.rates = _frozen(self.rates)
        self._install(_RateTable(self.rates, self.orders, [1] * self.orders.shape[0]))


def power_law(order_rows, rates) -> PowerLawKinetics:
    orders, exact = _coerce_matrix(order_rows)
    return PowerLawKinetics(orders, _coerce_rates(rates), exact)


def mass_action_from(net: ReactionNetwork, rates) -> PowerLawKinetics:
    """Power-law kinetics whose order rows are the reactant stoichiometries."""
    return power_law([net.complexes[rx.reactant].coeffs for rx in net.reactions], rates)


@dataclass(eq=False)
class PolyPLKinetics(_Kinetics):
    """Per reaction q: K_q(x) = k_q * sum_j a_{q,j} x^{F_{q,j}}."""

    term_coeffs: tuple[np.ndarray, ...]   # per reaction, shape (h_q,), positive
    term_orders: tuple[np.ndarray, ...]   # per reaction, shape (h_q, m)
    rates: np.ndarray
    exact_term_coeffs: tuple[tuple[Fraction, ...], ...] | None = None
    exact_term_orders: tuple[ExactMatrix, ...] | None = None

    def __post_init__(self):
        self.term_coeffs = tuple(_frozen(a) for a in self.term_coeffs)
        self.term_orders = tuple(_frozen(f) for f in self.term_orders)
        self.rates = _frozen(self.rates)
        if len(self.term_orders) != len(self.term_coeffs):
            raise InvalidKineticsError("one term list per reaction required")
        for a, f in zip(self.term_coeffs, self.term_orders):
            if a.shape[0] == 0:
                raise InvalidKineticsError("every reaction needs at least one term")
            if np.any(a <= 0):
                raise InvalidKineticsError("poly-PL coefficients must be positive")
            if f.shape[0] != a.shape[0]:
                raise InvalidKineticsError("coefficient/order count mismatch")
        self._install(_RateTable(
            np.concatenate([k * a for k, a in zip(self.rates, self.term_coeffs)]),
            np.vstack(self.term_orders), [a.shape[0] for a in self.term_coeffs]))

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
class HillKinetics(_Kinetics):
    """K_q(x) = k_q * prod_i x_i^F_qi / (d_qi + x_i^F_qi) over supp F_q.

    The dissociation matrix D must have the same support as F row by row.
    Negative exponents are evaluated in the rewritten form 1/(d x^|F| + 1),
    so states with zero entries stay evaluable.
    """

    orders: np.ndarray   # (r, m)
    dissoc: np.ndarray   # (r, m) nonnegative
    rates: np.ndarray

    def __post_init__(self):
        self.orders = _frozen(self.orders)
        self.dissoc = _frozen(self.dissoc)
        self.rates = _frozen(self.rates)
        if self.orders.shape != self.dissoc.shape:
            raise InvalidKineticsError("order and dissociation shapes differ")
        if np.any(self.dissoc < 0):
            raise InvalidKineticsError("dissociation constants must be nonnegative")
        if np.any((self.orders != 0) != (self.dissoc != 0)):
            raise InvalidKineticsError(
                "dissociation support must match kinetic order support row by row")
        # The rational rewrite is kept: clearing denominators reuses it.
        self._rational = hill_as_rational(self)
        self._install(self._rational._table)


def hill(order_rows, dissoc_rows, rates) -> HillKinetics:
    return HillKinetics(_coerce_matrix(order_rows)[0], _coerce_matrix(dissoc_rows)[0],
                        _coerce_rates(rates))


@dataclass(eq=False)
class RationalFactor:
    """A positive polynomial sum_j c_j x^{E_j} used as a denominator factor."""

    coeffs: np.ndarray   # (t,) positive
    orders: np.ndarray   # (t, m)

    def __post_init__(self):
        self.coeffs = _frozen(self.coeffs)
        self.orders = _frozen(self.orders)
        if np.any(self.coeffs <= 0):
            raise InvalidKineticsError("factor coefficients must be positive")

    def key(self) -> tuple:
        terms = sorted((tuple(row), c) for row, c in zip(self.orders, self.coeffs))
        return tuple(terms)


@dataclass(eq=False)
class RationalKinetics(_Kinetics):
    """K_q(x) = k_q x^{f_q} / prod of denominator factors of reaction q."""

    numer_orders: np.ndarray                              # (r, m)
    rates: np.ndarray
    denominators: tuple[tuple[RationalFactor, ...], ...]  # per reaction

    def __post_init__(self):
        self.numer_orders = _frozen(self.numer_orders)
        self.rates = _frozen(self.rates)
        if len(self.denominators) != self.numer_orders.shape[0]:
            raise InvalidKineticsError("one denominator list per reaction required")
        for factors in self.denominators:
            keys = [f.key() for f in factors]
            if len(keys) != len(set(keys)):
                raise InvalidKineticsError("repeated factor within one reaction")
        self._install(_RateTable(self.rates, self.numer_orders,
                                 [1] * self.numer_orders.shape[0], self.denominators))


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
    return RationalKinetics(numer, kin.rates, tuple(dens))


Kinetics = PowerLawKinetics | PolyPLKinetics | HillKinetics | RationalKinetics


def evaluate(kin: Kinetics, x) -> np.ndarray:
    """Reaction rate vector K(x); strictly positive states always accepted.

    A stack of states (..., m) gives the stack of rate vectors (..., r).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise NonPositiveStateError("state has a negative entry")
    zero = (kin._table.negative_species & (x == 0)).reshape(-1, x.shape[-1])
    bad = np.flatnonzero(np.any(zero, axis=0))
    if bad.size:
        raise NonPositiveStateError(
            f"state entry {bad[0]} is zero but a kinetic order on it is negative")
    return kin._table.rates(x, jacobian=False)[0]


def log_jacobian(kin: Kinetics, x) -> tuple[np.ndarray, np.ndarray]:
    """K(x) and the Jacobian dK/du in log coordinates u = log x (x > 0).

    A stack of states (..., m) gives K of shape (..., r) and dK/du of shape
    (..., r, m).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise NonPositiveStateError("log-coordinate Jacobian needs x > 0")
    return kin._table.rates(x, jacobian=True)


def species_formation_rate(net: ReactionNetwork, kin: Kinetics, x) -> np.ndarray:
    """SFRF f(x) = N K(x)."""
    return net.n_array() @ evaluate(kin, x)


def _residuals(pairs, states) -> list[float]:
    """Max of |A K(x)| over the (A, kinetics) blocks of `pairs` at each of
    the `states`, one `evaluate` per pair; each value is the state's own
    (one matrix-vector product per state, blocks folded as max() does)."""
    if not len(states):
        return []
    x = np.array(states, dtype=float)
    out = None
    for a, kin in pairs:
        res = np.max(np.abs(np.matmul(a, evaluate(kin, x)[..., None])[..., 0]), axis=-1)
        out = res if out is None else np.where(res > out, res, out)
    return out.tolist()


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


def _is_mass_action(kin: Kinetics, net: ReactionNetwork, reactions) -> bool:
    """Whether `kin` is power law with each of `reactions` ordered by its
    reactant complex (mass action on those reactions)."""
    if not isinstance(kin, PowerLawKinetics):
        return False
    for q in reactions:
        target = net.complexes[net.reactions[q].reactant].coeffs
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
            mass_action=_is_mass_action(kin, net, range(net.num_reactions)),
        )
    if isinstance(kin, PolyPLKinetics):
        stacked = np.vstack(kin.term_orders)
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
