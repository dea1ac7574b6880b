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
built, so the table cannot go stale. Every array a family keeps must have
its number of axes and finite entries, and the base `_Kinetics` checks the
rates of every family: one finite, strictly positive rate per reaction.

Every constructor takes what the builders take: ints, Fractions, number
strings, floats or numpy arrays, of values a float can hold. Each array is
read once into a float array for evaluation, and the exact arrays also into
a copy of nested tuples of Fractions: the `exact_rates` of every family, the
`exact_orders` of power-law kinetics and the `exact_term_coeffs` and
`exact_term_orders` of poly-PL kinetics (both or neither). A copy is None
when some entry is a non-integral float (an integral float counts as
exact), so where it exists it converts to its float array bit for bit.
`classify` reads its flags from these rows alone, with no T matrices: each
row comparison is exact when both rows have an exact copy and within 1e-12
otherwise. All rank work uses the exact copy whenever it exists.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

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


def _read(values, ndim: int, what: str) -> tuple[np.ndarray, tuple | None]:
    """`values`, nested `ndim` deep (1 or 2), read entry by entry into a
    read-only float array and into nested tuples of Fractions; the Fractions
    are None when some entry is a non-integral float."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    floats, exact, ok = [], [], True
    try:
        for row in values if ndim == 2 else (values,):
            frow, erow = [], []
            for v in row:
                if isinstance(v, float):
                    ok = ok and v.is_integer()
                    if ok:
                        erow.append(Fraction(int(v)))
                    frow.append(v)
                else:
                    e = rational.frac(v)
                    erow.append(e)
                    frow.append(rational.to_float(e))
            floats.append(frow)
            exact.append(tuple(erow))
        arr = _frozen(floats if ndim == 2 else floats[0])  # ragged rows raise here
    except (TypeError, ValueError) as exc:
        raise InvalidKineticsError(
            f"{what} must be a {ndim}-D array of numbers a float can hold") from exc
    if ndim == 1:
        return arr, exact[0] if ok else None
    return arr, tuple(exact) if ok else None


def _frozen(values) -> np.ndarray:
    """A read-only float copy."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _checked(values, ndim: int, what: str) -> np.ndarray:
    """A read-only float copy that has `ndim` axes and finite entries.

    A float array is copied as it is; anything else is read entry by entry
    by `_read`, which refuses a value a float cannot hold (`10**400`, or a
    `Fraction(1, 10**400)` that a float conversion would read as 0.0).
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        arr = _frozen(values)
    else:
        arr = _read(values, ndim, what)[0]
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        raise InvalidKineticsError(
            f"{what} must be a {ndim}-D array of finite numbers, got shape {arr.shape}")
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
    `rates` keeps the monomials, factor values and denominators of its pass
    for the function that forms dK/du.
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

    def rates(self, x: np.ndarray, strict: bool) -> tuple[np.ndarray, Callable]:
        """K(x), and a function that forms dK/du (u = log x) at the states
        `x[js]` from this pass's monomials.

        `x` is one state (m,) or a stack (..., m); each state gets the same
        arithmetic, in the same order, as when evaluated alone, whichever
        states dK/du is formed at. A vanished denominator factor raises
        NonPositiveStateError if `strict`, else the rates over it read NaN.
        """
        monos = _monomials(self.weights, self.orders, x)
        several = self.starts.size < self.weights.size  # some reaction has several terms
        k = np.add.reduceat(monos, self.starts, axis=-1) if several else monos
        rows = self.factor_rows
        if rows.size:
            fmonos = _monomials(self.factor_coeffs, self.factor_orders, x)
            values = np.add.reduceat(fmonos, self.factor_starts, axis=-1)
            if np.any(values <= 0):
                if strict:
                    raise NonPositiveStateError("denominator factor vanished")
                # a NaN divides without a warning and fails every comparison
                values = np.where(values > 0, values, np.nan)
            den = np.multiply.reduceat(values, self.row_firsts, axis=-1)
            if not several:
                k = k.copy()  # k is `monos`, which dK/du still reads undivided
            k[..., rows] /= den

        def jacobian(js) -> np.ndarray:
            jac = monos[js][..., None] * self.orders
            if several:
                jac = np.add.reduceat(jac, self.starts, axis=-2)
            if rows.size:
                grads = np.add.reduceat(fmonos[js][..., None] * self.factor_orders,
                                        self.factor_starts, axis=-2) / values[js][..., None]
                jac[..., rows, :] = (jac[..., rows, :] / den[js][..., None]
                                     - k[js][..., rows, None]
                                     * np.add.reduceat(grads, self.row_firsts, axis=-2))
            return jac

        return k, jacobian


class _Kinetics:
    """What the four families share: the rates, read with their exact copy
    `exact_rates`, one check of them against the rate table that the family
    builds from its own fields in `_rate_table`, and no assignment once the
    table exists (a reassigned field would leave it stale).
    """

    exact_rates: tuple[Fraction, ...] | None   # set from `rates`, never passed in

    def __post_init__(self):
        self.rates, self.exact_rates = _read(self.rates, 1, "rate constants")
        table = self._rate_table()
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
    exact_orders: ExactMatrix | None = field(init=False)

    def _rate_table(self) -> _RateTable:
        orders, self.exact_orders = _read(self.orders, 2, "kinetic orders")
        self.orders = _checked(orders, 2, "kinetic orders")
        return _RateTable(self.rates, self.orders, [1] * self.orders.shape[0])


def power_law(order_rows, rates) -> PowerLawKinetics:
    return PowerLawKinetics(order_rows, rates)


def mass_action_from(net: ReactionNetwork, rates) -> PowerLawKinetics:
    """Power-law kinetics whose order rows are the reactant stoichiometries."""
    return power_law([net.complexes[rx.reactant].coeffs for rx in net.reactions], rates)


@dataclass(eq=False)
class PolyPLKinetics(_Kinetics):
    """Per reaction q: K_q(x) = k_q * sum_j a_{q,j} x^{F_{q,j}}."""

    term_coeffs: tuple[np.ndarray, ...]   # per reaction, shape (h_q,), positive
    term_orders: tuple[np.ndarray, ...]   # per reaction, shape (h_q, m)
    rates: np.ndarray
    exact_term_coeffs: tuple[tuple[Fraction, ...], ...] | None = field(init=False)
    exact_term_orders: tuple[ExactMatrix, ...] | None = field(init=False)

    def _rate_table(self) -> _RateTable:
        if len(self.term_coeffs) == 0:
            raise InvalidKineticsError("poly-PL kinetics need at least one reaction")
        if len(self.term_orders) != len(self.term_coeffs):
            raise InvalidKineticsError("one term list per reaction required")
        coeffs, exact_coeffs = zip(*[_read(a, 1, "poly-PL coefficients")
                                     for a in self.term_coeffs])
        orders, exact_orders = zip(*[_read(f, 2, "kinetic orders") for f in self.term_orders])
        exact = None not in exact_coeffs + exact_orders
        self.exact_term_coeffs = exact_coeffs if exact else None
        self.exact_term_orders = exact_orders if exact else None
        self.term_coeffs = tuple(_checked(a, 1, "poly-PL coefficients") for a in coeffs)
        self.term_orders = tuple(_checked(f, 2, "kinetic orders") for f in orders)
        if len({f.shape[1] for f in self.term_orders}) > 1:
            raise InvalidKineticsError("term orders of different species counts")
        for a, f in zip(self.term_coeffs, self.term_orders):
            if not np.all(a > 0):
                raise InvalidKineticsError("poly-PL coefficients must be positive")
            if f.shape[0] != a.shape[0]:
                raise InvalidKineticsError("coefficient/order count mismatch")
        return _RateTable(
            np.concatenate([k * a for k, a in zip(self.rates, self.term_coeffs)]),
            np.vstack(self.term_orders), [a.shape[0] for a in self.term_coeffs])

    @property
    def length(self) -> int:
        return max(a.shape[0] for a in self.term_coeffs)

    @property
    def is_normalized(self) -> bool:
        h = self.length
        return all(a.shape[0] == h for a in self.term_coeffs)

    def term_kinetics(self) -> PowerLawKinetics:
        """The normalized term systems stacked term-major: rate j r + q is term j of q."""
        if not self.is_normalized:
            raise InvalidKineticsError("normalize before taking term systems")
        orders = self.exact_term_orders or self.term_orders
        coeffs = self.exact_term_coeffs or self.term_coeffs
        h, rates = self.length, self.exact_rates or self.rates
        return PowerLawKinetics([f[j] for j in range(h) for f in orders],
                                [k * a[j] for j in range(h) for k, a in zip(rates, coeffs)])


def poly_pl(terms, rates) -> PolyPLKinetics:
    """Build poly-PL kinetics from per-reaction [(coeff, order_row), ...] lists."""
    return PolyPLKinetics([[c for c, _ in t] for t in terms], [[f for _, f in t] for t in terms],
                          rates)


def normalize_poly_pl(kin: PolyPLKinetics) -> PolyPLKinetics:
    """Pad every reaction to the common length h by splitting its last term.

    A reaction with h_q terms has its last term replaced by (h - h_q + 1)
    equal copies at coefficient a/(h - h_q + 1), which leaves the evaluated
    rate unchanged at every state. Idempotent.
    """
    h = kin.length
    if kin.is_normalized:
        return kin
    coeffs, orders = [], []
    for a, f in zip(kin.exact_term_coeffs or kin.term_coeffs,
                    kin.exact_term_orders or kin.term_orders):
        pad = h - len(a) + 1
        coeffs.append([*a[:-1], *[a[-1] / pad] * pad])
        orders.append([*f[:-1], *[f[-1]] * pad])
    return PolyPLKinetics(coeffs, orders, kin.exact_rates or kin.rates)


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

    def _rate_table(self) -> _RateTable:
        self.orders = _checked(self.orders, 2, "kinetic orders")
        self.dissoc = _checked(self.dissoc, 2, "dissociation constants")
        if self.orders.shape != self.dissoc.shape:
            raise InvalidKineticsError("order and dissociation shapes differ")
        if not np.all(self.dissoc >= 0):
            raise InvalidKineticsError("dissociation constants must be nonnegative")
        if np.any((self.orders != 0) != (self.dissoc != 0)):
            raise InvalidKineticsError(
                "dissociation support must match kinetic order support row by row")
        # The rational rewrite is kept: clearing denominators reuses it.
        self._rational = hill_as_rational(self)
        return self._rational._table


def hill(order_rows, dissoc_rows, rates) -> HillKinetics:
    return HillKinetics(order_rows, dissoc_rows, rates)


@dataclass(frozen=True, eq=False)
class RationalFactor:
    """A positive polynomial sum_j c_j x^{E_j} used as a denominator factor;
    frozen, as the rate tables built from it cannot follow a change."""

    coeffs: np.ndarray   # (t,) positive
    orders: np.ndarray   # (t, m)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _checked(self.coeffs, 1, "factor coefficients"))
        object.__setattr__(self, "orders", _checked(self.orders, 2, "factor orders"))
        if not np.all(self.coeffs > 0):
            raise InvalidKineticsError("factor coefficients must be positive")
        if self.coeffs.shape[0] != self.orders.shape[0]:
            raise InvalidKineticsError("one factor coefficient per order row required")

    def key(self) -> tuple:
        terms = sorted((tuple(row), c) for row, c in zip(self.orders, self.coeffs))
        return tuple(terms)


@dataclass(eq=False)
class RationalKinetics(_Kinetics):
    """K_q(x) = k_q x^{f_q} / prod of denominator factors of reaction q."""

    numer_orders: np.ndarray                              # (r, m)
    rates: np.ndarray
    denominators: tuple[tuple[RationalFactor, ...], ...]  # per reaction

    def _rate_table(self) -> _RateTable:
        self.numer_orders = _checked(self.numer_orders, 2, "kinetic orders")
        if len(self.denominators) != self.numer_orders.shape[0]:
            raise InvalidKineticsError("one denominator list per reaction required")
        for factors in self.denominators:
            keys = [f.key() for f in factors]
            if len(keys) != len(set(keys)):
                raise InvalidKineticsError("repeated factor within one reaction")
            if any(f.orders.shape[1] != self.numer_orders.shape[1] for f in factors):
                raise InvalidKineticsError("factor orders of a different species count")
        return _RateTable(self.rates, self.numer_orders,
                          [1] * self.numer_orders.shape[0], self.denominators)


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
    return RationalKinetics(numer, kin.exact_rates or kin.rates, tuple(dens))


Kinetics = PowerLawKinetics | PolyPLKinetics | HillKinetics | RationalKinetics


def evaluate(kin: Kinetics, x) -> np.ndarray:
    """Reaction rate vector K(x); strictly positive states always accepted.

    A stack of states (..., m) gives the stack of rate vectors (..., r). A
    state at which a denominator factor vanishes is refused.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise NonPositiveStateError("state has a negative entry")
    zero = (kin._table.negative_species & (x == 0)).reshape(-1, x.shape[-1])
    bad = np.flatnonzero(np.any(zero, axis=0))
    if bad.size:
        raise NonPositiveStateError(
            f"state entry {bad[0]} is zero but a kinetic order on it is negative")
    return kin._table.rates(x, strict=True)[0]


def log_jacobian(kin: Kinetics, x) -> tuple[np.ndarray, Callable]:
    """K(x), and a function of rows js that forms the Jacobian dK/du in log
    coordinates u = log x (x > 0) at the states `x[js]`.

    A stack of states (..., m) gives K of shape (..., r); `js` indexes its
    leading axes as it would index `x` (`...` gives all). dK/du is formed
    from the monomials of K's one pass, only at the rows asked for. The
    rates over a denominator factor that underflows to 0 read NaN, so a
    solver refuses that state.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise NonPositiveStateError("log-coordinate Jacobian needs x > 0")
    return kin._table.rates(x, strict=False)


def species_formation_rate(net: ReactionNetwork, kin: Kinetics, x) -> np.ndarray:
    """SFRF f(x) = N K(x).

    A stack of states (..., m) gives the stack of rates (..., m), one
    matrix-vector product per state, so each row is the state's own.
    """
    return np.matmul(net.n_array(), evaluate(kin, x)[..., None])[..., 0]


def _residuals(a, k) -> list[float]:
    """Max of |A K| at each state of the rate stack `k` (n, h c), A acting on
    each of the h blocks of its column count c; each value is the state's own
    (one matrix-vector product per state and block), and no states give none."""
    if not len(k):
        return []
    blocks = k.reshape(len(k), k.shape[-1] // a.shape[1], a.shape[1], 1)
    return np.max(np.abs(np.matmul(a, blocks)), axis=(1, 2, 3)).tolist()


class KineticsClassification(NamedTuple):
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


def _same(a, b, exact_a, exact_b) -> bool:
    """Whether two kinetic rows, or two stacks of rows, are equal: exactly
    when both have an exact copy, else entrywise within `_ROW_TOL`."""
    if exact_a is not None and exact_b is not None:
        return exact_a == exact_b
    return bool(np.max(np.abs(a - b)) <= _ROW_TOL)


def _rows_equal(kin: PowerLawKinetics, q1: int, q2: int) -> bool:
    exact = kin.exact_orders
    return _same(kin.orders[q1], kin.orders[q2], exact and exact[q1], exact and exact[q2])


def _is_pl_rdk(kin: PowerLawKinetics, net: ReactionNetwork) -> bool:
    return all(_rows_equal(kin, qs[0], q)
               for qs in net.reactions_by_reactant().values() for q in qs[1:])


def _is_mass_action(kin: Kinetics, net: ReactionNetwork, reactions) -> bool:
    """Whether `kin` is power law with each of `reactions` ordered by its
    reactant complex (mass action on those reactions)."""
    if not isinstance(kin, PowerLawKinetics):
        return False
    exact = kin.exact_orders
    for q in reactions:
        target = net.complexes[net.reactions[q].reactant].coeffs
        if not _same(kin.orders[q], np.array(target, dtype=float), exact and exact[q], target):
            return False
    return True


def _poly_pl_is_cf(kin: PolyPLKinetics, net: ReactionNetwork) -> bool:
    """Complex factorizability: shared-reactant reactions must agree term by
    term in both exponent rows and positive coefficients, exactly when the
    normalized kinetics has exact copies."""
    norm = normalize_poly_pl(kin)

    def same(q0: int, q: int) -> bool:
        return all(_same(rows[q0], rows[q], exact and exact[q0], exact and exact[q])
                   for rows, exact in ((norm.term_coeffs, norm.exact_term_coeffs),
                                       (norm.term_orders, norm.exact_term_orders)))

    return all(same(qs[0], q) for qs in net.reactions_by_reactant().values() for q in qs[1:])


def _is_factor_span_surjective(kin: PowerLawKinetics, net: ReactionNetwork) -> bool:
    """Whether the kinetic complexes of a PL-RDK kinetics are pairwise
    distinct: the order rows of the first reactions of any two reactant
    complexes differ. Exact rows are told apart in one pass, by a set;
    float rows pair by pair, within `_ROW_TOL`."""
    firsts = [qs[0] for qs in net.reactions_by_reactant().values()]
    if kin.exact_orders is not None:
        return len({kin.exact_orders[q] for q in firsts}) == len(firsts)
    return not any(_rows_equal(kin, a, b) for a, b in combinations(firsts, 2))


def classify(kin: Kinetics, net: ReactionNetwork) -> KineticsClassification:
    """Structure flags for the kinetics on this network, read from its own
    order rows.

    Factor span surjectivity is decided for PL-RDK kinetics only, by
    pairwise distinctness of the kinetic complexes (monomials with distinct
    exponent vectors are independent on the positive orthant).
    """
    if isinstance(kin, PowerLawKinetics):
        orders = kin.orders
        rdk = _is_pl_rdk(kin, net)
        return KineticsClassification(
            pl_rdk=rdk,
            factor_span_surjective=_is_factor_span_surjective(kin, net) if rdk else None,
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
    v = rational.positive_kernel_vector(net.ia_int)
    if v is None:
        raise CrnError("no positive incidence kernel: network is not weakly reversible")
    return tuple(v)
