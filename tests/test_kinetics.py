"""Kinetics evaluation, classification, normalization."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnbalance as cb
from crnbalance.fileformat import parse_crn
from crnbalance.kinetics import _is_mass_action

from conftest import (bench_ladder, bench_workloads, data_path, random_network,
                      random_weakly_reversible_network)


def test_evaluate_re1_at_ones(re1_powerlaw):
    net, kin = re1_powerlaw
    assert np.allclose(cb.evaluate(kin, np.ones(3)), np.ones(8))


def test_evaluate_counterexample_at_ones(counterexample):
    _, kin = counterexample
    assert np.allclose(cb.evaluate(kin, np.ones(3)), [1, 1, 1, 1, 1.5])


def test_evaluate_rational_rows(mm_rational):
    _, kq = mm_rational
    vals = cb.evaluate(kq, np.ones(4))
    assert np.allclose(vals, [1, 1, 1 / 3, 1 / 3])


def test_mass_action_from_examples(re1_net):
    net = cb.build_network(["A", "B", "C"], [[1, 1, 0], [0, 0, 1]], [(0, 1)])
    kin = cb.mass_action_from(net, [2])
    assert np.array_equal(kin.orders, [[1, 1, 0]])
    assert kin.rates[0] == 2

    kin1 = cb.mass_action_from(re1_net, [1] * 8)
    assert np.array_equal(kin1.orders[0], [2, 0, 0])
    for q, rx in enumerate(re1_net.reactions):
        assert kin1.exact_orders[q] == re1_net.complexes[rx.reactant].coeffs

    zero_net = cb.build_network(["A"], [[0], [1]], [(0, 1)])
    kin2 = cb.mass_action_from(zero_net, [1])
    assert np.array_equal(kin2.orders, [[0]])


def test_classify_re1(re1_powerlaw):
    net, kin = re1_powerlaw
    cls = cb.classify(kin, net)
    assert cls.pl_rdk is True
    assert cls.pl_nik is False
    assert cls.por is False  # column X1 has no negative entry
    assert cls.mass_action is False


def test_classify_counterexample(counterexample):
    net, kin = counterexample
    cls = cb.classify(kin, net)
    assert cls.pl_rdk is True
    assert cls.por is True
    assert cls.pl_nik is False


def test_classify_zero_orders():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    kin = cb.power_law([[0, 0]], [1])
    cls = cb.classify(kin, net)
    assert cls.pl_nik is True and cls.por is False


def test_mass_action_is_rdk_and_fss(re1_massaction):
    net, kin = re1_massaction
    cls = cb.classify(kin, net)
    assert cls.mass_action and cls.pl_rdk and cls.factor_span_surjective


def test_por_nik_mutually_exclusive():
    rng = np.random.default_rng(3)
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    for _ in range(25):
        kin = cb.power_law(rng.integers(-2, 3, size=(2, 2)), [1, 1])
        cls = cb.classify(kin, net)
        assert not (cls.por and cls.pl_nik)


def test_not_applicable(mm_polypl):
    net, kin = mm_polypl
    cls = cb.classify(kin, net)
    assert cls.pl_rdk is None
    with pytest.raises(cb.NotApplicableError):
        cls.require("pl_rdk")
    assert cls.require("cf") is False  # shared reactant rows differ termwise


def test_hill_classification_and_supp():
    net = cb.build_network(["X"], [[1], [2]], [(0, 1)])
    kin = cb.hill([[1]], [[0.5]], [1])
    cls = cb.classify(kin, net)
    assert cls.por is False
    with pytest.raises(cb.InvalidKineticsError):
        cb.hill([[1]], [[0]], [1])  # support mismatch


def test_normalize_thirds(mm_polypl):
    _, kin = mm_polypl
    norm = cb.normalize_poly_pl(kin)
    assert norm.length == 3 and norm.is_normalized
    assert np.allclose(norm.term_coeffs[2], [1 / 3, 1 / 3, 1 / 3])
    assert norm.exact_term_coeffs[2] == (Fraction(1, 3),) * 3
    # idempotence
    again = cb.normalize_poly_pl(norm)
    assert all(np.array_equal(a, b) for a, b in
               zip(again.term_coeffs, norm.term_coeffs))


def test_normalize_split_preserves_evaluation():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.poly_pl(
        [[(2, (1, 0))],
         [(1, (0, 1)), (1, (0, 2)), (1, (1, 1)), (1, (2, 0))]],
        [1, 1])
    norm = cb.normalize_poly_pl(kin)
    assert norm.length == 4
    assert np.allclose(norm.term_coeffs[0], [0.5, 0.5, 0.5, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = np.exp(rng.uniform(-2, 2, 2))
        assert np.allclose(cb.evaluate(kin, x), cb.evaluate(norm, x), rtol=1e-14)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_normalize_preserves_evaluation_random(seed):
    rng = np.random.default_rng(seed)
    r, m = 2, 2
    terms = []
    for _ in range(r):
        h_q = int(rng.integers(1, 4))
        terms.append([(float(rng.uniform(0.1, 2.0)),
                       tuple(float(v) for v in rng.uniform(-1, 2, m)))
                      for _ in range(h_q)])
    kin = cb.poly_pl(terms, rng.uniform(0.5, 2.0, r))
    norm = cb.normalize_poly_pl(kin)
    assert norm.is_normalized
    x = np.exp(rng.uniform(-1.5, 1.5, m))
    assert np.allclose(cb.evaluate(kin, x), cb.evaluate(norm, x), rtol=1e-12)
    again = cb.normalize_poly_pl(norm)
    assert all(np.allclose(a, b) for a, b in zip(again.term_coeffs, norm.term_coeffs))


def test_evaluate_multiplicative_in_rates(counterexample):
    _, kin = counterexample
    doubled = cb.power_law(kin.orders, kin.rates * 2)
    x = np.array([0.7, 1.3, 2.1])
    assert np.allclose(2 * cb.evaluate(kin, x), cb.evaluate(doubled, x))


def test_nonpositive_state_policy():
    kin_neg = cb.power_law([[-1, 0]], [1])
    with pytest.raises(cb.NonPositiveStateError):
        cb.evaluate(kin_neg, [0.0, 1.0])
    with pytest.raises(cb.NonPositiveStateError):
        cb.evaluate(kin_neg, [-1.0, 1.0])
    kin_pos = cb.power_law([[2, 1]], [1])
    assert cb.evaluate(kin_pos, [0.0, 1.0])[0] == 0.0
    # a zero coordinate is fine when no exponent on it is negative
    assert cb.evaluate(kin_neg, [2.0, 0.0])[0] == 0.5


def test_hill_evaluation_rewrite_at_zero():
    # negative exponent: x^f / (d + x^f) = 1 / (d x^|f| + 1), defined at 0
    kin = cb.hill([[-2]], [[3.0]], [1])
    assert np.isclose(cb.evaluate(kin, [0.0])[0], 1.0)
    x = 1.7
    expected = x ** -2 / (3.0 + x ** -2)
    assert np.isclose(cb.evaluate(kin, [x])[0], expected, rtol=1e-14)


FAMILIES = ["powerlaw", "polypl", "hill", "rational"]


def _family(family, mm_rational, rng):
    """(kinetics, number of species) of a small instance of `family`."""
    if family == "powerlaw":
        return cb.power_law(rng.uniform(-2, 2, (3, 2)), rng.uniform(0.5, 2, 3)), 2
    if family == "polypl":
        return cb.poly_pl(
            [[(0.5, tuple(rng.uniform(-1, 2, 2))), (1.2, tuple(rng.uniform(-1, 2, 2)))],
             [(0.8, tuple(rng.uniform(-1, 2, 2)))]],
            [1.3, 0.7]), 2
    if family == "hill":
        return cb.hill([[1, -2], [0, 1]], [[0.5, 2.0], [0, 1.5]], [1.0, 0.7]), 2
    return mm_rational[1], 4


@pytest.mark.parametrize("family", FAMILIES)
def test_log_jacobian_matches_finite_differences(family, mm_rational):
    rng = np.random.default_rng(17)
    kin, m = _family(family, mm_rational, rng)
    u = rng.uniform(-0.5, 0.5, m)
    x = np.exp(u)
    k, rows = cb.kinetics.log_jacobian(kin, x)
    jac = rows(...)
    assert np.array_equal(k, cb.evaluate(kin, x))
    eps = 1e-6
    for i in range(m):
        up = u.copy()
        up[i] += eps
        dn = u.copy()
        dn[i] -= eps
        fd = (cb.evaluate(kin, np.exp(up)) - cb.evaluate(kin, np.exp(dn))) / (2 * eps)
        assert np.allclose(jac[:, i], fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("family", ["hill", "rational"])
def test_rational_jacobian_reads_the_undivided_monomials(family, mm_rational):
    """A single-term reaction forms K in its monomial array, and K is divided
    by its denominators after that; dK/du, formed later by the row function,
    must still read the monomials undivided. It is the quotient rule
    K (f - sum over factors of dD/du / D), at states whose denominators are
    far from 1, and forming it leaves K as it was."""
    rng = np.random.default_rng(23)
    kin, m = _family(family, mm_rational, rng)
    form = cb.kinetics.hill_as_rational(kin) if family == "hill" else kin
    x = np.exp(rng.uniform(1, 3, size=(3, m)))
    k, rows = cb.kinetics.log_jacobian(kin, x)
    before = k.tobytes()
    jac = rows(...)
    assert rows([2, 0]).tobytes() == jac[[2, 0]].tobytes()
    assert k.tobytes() == before == cb.evaluate(kin, x).tobytes()
    for s, state in enumerate(x):
        for q, factors in enumerate(form.denominators):
            dlog = form.numer_orders[q].copy()
            for f in factors:
                terms = f.coeffs * np.prod(state ** f.orders, axis=1)
                assert terms.sum() > 2  # the denominator is far from 1
                dlog -= terms @ f.orders / terms.sum()
            assert np.allclose(jac[s, q], k[s, q] * dlog, rtol=1e-12, atol=1e-14 * k[s, q])


def _ladder(family):
    work = bench_workloads()
    return {"powerlaw": work.ladder_power_law(1, 40), "polypl": work.ladder_poly_pl(1, 12),
            "hill": work.ladder_hill(1, 8)}[family]


@pytest.mark.parametrize("family", FAMILIES + ["powerlaw-ladder", "polypl-ladder",
                                               "hill-ladder"])
def test_stacked_states_evaluate_as_single_states(family, mm_rational):
    """Each state of a stack (..., m) gets the bits it gets alone, and the
    row function of `log_jacobian` gives each row asked for, in any subset
    (empty, repeated or unsorted), the bits of the full stack."""
    rng = np.random.default_rng(5)
    if family.endswith("-ladder"):
        kin = _ladder(family.split("-")[0])[1]
        m = kin.num_species
    else:
        kin, m = _family(family, mm_rational, rng)
    r = kin.num_reactions
    states = np.exp(rng.uniform(-3, 3, size=(2, 4, m)))
    k, rows = cb.kinetics.log_jacobian(kin, states)
    jac = rows(...)
    rates = cb.evaluate(kin, states)
    assert k.shape == rates.shape == (2, 4, r)
    assert jac.shape == (2, 4, r, m)
    singles = {}
    for idx in np.ndindex(2, 4):
        k1, rows1 = cb.kinetics.log_jacobian(kin, states[idx])
        singles[idx] = rows1(...)
        assert k1.tobytes() == k[idx].tobytes() == rates[idx].tobytes()
        assert singles[idx].tobytes() == jac[idx].tobytes() == rows(idx).tobytes()
    flat = states.reshape(8, m)
    k8, rows8 = cb.kinetics.log_jacobian(kin, flat)
    assert k8.tobytes() == k.tobytes()
    for js in ([], [5], [6, 1, 6, 0], [7, 6, 5, 4, 3, 2, 1, 0], [3, 3, 3]):
        sub = rows8(js)
        assert sub.shape == (len(js), r, m)
        for got, j in zip(sub, js):
            assert got.tobytes() == jac.reshape(8, r, m)[j].tobytes()
            assert got.tobytes() == singles[np.unravel_index(j, (2, 4))].tobytes()
    assert rows([1]).tobytes() == jac[[1]].tobytes()
    empty_k, empty_rows = cb.kinetics.log_jacobian(kin, np.ones((0, m)))
    assert empty_k.shape == (0, r)
    assert empty_rows(...).shape == (0, r, m)


@pytest.mark.parametrize("system", ["re1_massaction", "counterexample", "mm_polypl",
                                    "mm_rational", "replica", "powerlaw-ladder",
                                    "polypl-ladder", "hill-ladder"])
def test_stacked_states_form_species_rates_as_single_states(system, request):
    """The SFRF of a stack (..., m) gives each state the bits it gets alone,
    and one state the bits of N K(x)."""
    if system.endswith("-ladder"):
        net, kin = _ladder(system.split("-")[0])
    elif system == "replica":
        star = cb.star_msc(*request.getfixturevalue("mm_polypl"))
        net, kin = star.network, star.kinetics
    else:
        net, kin = request.getfixturevalue(system)
    m = net.num_species
    states = np.exp(np.random.default_rng(9).uniform(-2, 2, size=(2, 5, m)))
    f = cb.species_formation_rate(net, kin, states)
    assert f.shape == (2, 5, m)
    for idx in np.ndindex(2, 5):
        one = cb.species_formation_rate(net, kin, states[idx])
        assert one.shape == (m,)
        assert one.tobytes() == f[idx].tobytes()
        assert one.tobytes() == (net.n_array() @ cb.evaluate(kin, states[idx])).tobytes()
    assert cb.species_formation_rate(net, kin, np.ones((0, m))).shape == (0, m)


def test_stacked_zero_state_names_the_species():
    kin = cb.power_law([[0, -1, 0]], [1])
    states = np.ones((3, 3))
    states[2, 1] = 0.0
    with pytest.raises(cb.NonPositiveStateError, match="state entry 1 is zero"):
        cb.evaluate(kin, states)


def test_power_law_rates_and_jacobian_are_the_plain_formula(counterexample):
    """One term over no factor computes exactly k x^F and K F, also where
    K underflows to 0 at |u| = 44."""
    rng = np.random.default_rng(0)
    ladder = cb.power_law(rng.integers(0, 3, size=(40, 15)), rng.uniform(0.5, 2.0, 40))
    for kin in (counterexample[1], ladder):
        m = kin.num_species
        states = [np.full(m, -44.0), np.full(m, 44.0), rng.choice([-44.0, 44.0], m),
                  rng.uniform(-3, 3, m)]
        for u in states:
            x = np.exp(u)
            with np.errstate(over="ignore", invalid="ignore"):
                want = kin.rates * np.prod(x ** kin.orders, axis=1)
                k, rows = cb.kinetics.log_jacobian(kin, x)
                jac = rows(...)
                assert np.array_equal(k, want, equal_nan=True)
                assert np.array_equal(jac, want[:, None] * kin.orders, equal_nan=True)
                assert np.array_equal(cb.evaluate(kin, x), want, equal_nan=True)
    k, rows = cb.kinetics.log_jacobian(ladder, np.exp(np.full(15, -44.0)))
    assert np.any(k == 0) and np.all(np.isfinite(rows(...)))


def test_kinetics_arrays_are_read_only(mm_rational):
    orders = np.array([[1.0, -2.0], [0.0, 1.0]])
    power = cb.PowerLawKinetics(orders, np.array([1.0, 2.0]))
    poly = cb.poly_pl([[(0.5, (1, 0)), (2, (0, 1))], [(1, (1, 1))]], [1, 3])
    hill = cb.hill([[1, -2], [0, 1]], [[0.5, 2.0], [0, 1.5]], [1.0, 0.7])
    rational = mm_rational[1]
    factor = rational.denominators[2][0]
    arrays = [power.orders, power.rates, *poly.term_coeffs, *poly.term_orders,
              poly.rates, hill.orders, hill.dissoc, hill.rates,
              rational.numer_orders, rational.rates, factor.coeffs, factor.orders]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 7.0
    # the kinetics holds its own copy: the caller's array stays writable
    x = np.array([1.3, 0.6])
    before = cb.evaluate(power, x)
    orders[0, 0] = 5.0
    assert np.array_equal(cb.evaluate(power, x), before)


_PAIR = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
_FACTOR = cb.RationalFactor(np.array([0.5, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))

# Every way to build each family, on A <-> B with the rates given
_CONSTRUCTORS = {
    "PowerLawKinetics": lambda k: cb.PowerLawKinetics(np.eye(2), np.array(k, dtype=float)),
    "PolyPLKinetics": lambda k: cb.PolyPLKinetics(
        (np.array([1.0]), np.array([2.0, 1.0])),
        (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]])),
        np.array(k, dtype=float)),
    "HillKinetics": lambda k: cb.HillKinetics(
        np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([[0.5, 0.0], [0.0, 2.0]]),
        np.array(k, dtype=float)),
    "RationalKinetics": lambda k: cb.RationalKinetics(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array(k, dtype=float), ((_FACTOR,), ())),
    "power_law": lambda k: cb.power_law([[1, 0], [0, 1]], k),
    "poly_pl": lambda k: cb.poly_pl([[(1, (1, 0))], [("1/2", (0, 1)), (2, (1, 1))]], k),
    "hill": lambda k: cb.hill([[1, 0], [0, -2]], [[0.5, 0], [0, 2]], k),
    "mass_action_from": lambda k: cb.mass_action_from(_PAIR, k),
}
_BAD_RATES = [
    ([-1, 1], "finite and strictly positive"),
    ([1, 0], "finite and strictly positive"),
    ([float("nan"), 1], "finite and strictly positive"),
    ([1, float("inf")], "finite and strictly positive"),
    ([1, 1, 1], "one rate per reaction required: 2 reactions"),
]


@pytest.mark.parametrize("rates, message", _BAD_RATES,
                         ids=["negative", "zero", "nan", "inf", "count"])
@pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS)
def test_every_constructor_refuses_bad_rates(build, rates, message):
    with pytest.raises(cb.InvalidKineticsError, match=message):
        build(rates)
    kin = build([1, 1.5])
    assert (kin.num_reactions, kin.num_species) == (2, 2)
    assert np.all(cb.evaluate(kin, np.ones(2)) > 0)


@pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS)
def test_kinetics_refuse_reassignment(build):
    kin = build([1, 1.5])
    before = cb.evaluate(kin, np.array([0.7, 1.9]))
    for name in ("rates", "_table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kin, name, np.array([5.0, 5.0]))
    assert np.array_equal(cb.evaluate(kin, np.array([0.7, 1.9])), before)


def test_kinetic_system_refuses_mismatched_counts():
    with pytest.raises(cb.CrnError, match="kinetics has 3 reactions on 2 species, "
                                          "the network 2 on 2"):
        cb.KineticSystem(_PAIR, cb.power_law([[1, 0], [0, 1], [1, 1]], [1, 1, 1]))
    with pytest.raises(cb.CrnError, match="kinetics has 2 reactions on 3 species"):
        cb.KineticSystem(_PAIR, cb.power_law([[1, 0, 0], [0, 1, 0]], [1, 1]))
    for build in _CONSTRUCTORS.values():
        cb.KineticSystem(_PAIR, build([1, 1.5]))


_NAN, _INF = float("nan"), float("inf")
_ZERO_ROW = np.zeros((1, 2))
# One row per number a kinetics keeps besides its rates, and per array rank
_BAD_DATA = {
    "power_law nan order": lambda: cb.power_law([[_NAN, 0], [0, 1]], [1, 1]),
    "power_law inf order": lambda: cb.power_law([[1, 0], [0, -_INF]], [1, 1]),
    "PowerLawKinetics 1-D orders": lambda: cb.PowerLawKinetics(
        np.array([1.0, 2.0]), np.array([1.0, 1.0])),
    "poly_pl nan coefficient": lambda: cb.poly_pl([[(_NAN, (1, 0))], [(1, (0, 1))]], [1, 1]),
    "poly_pl inf coefficient": lambda: cb.poly_pl([[(_INF, (1, 0))], [(1, (0, 1))]], [1, 1]),
    "poly_pl nan order": lambda: cb.poly_pl([[(1, (_NAN, 0))], [(1, (0, 1))]], [1, 1]),
    "PolyPLKinetics 1-D coefficients": lambda: cb.PolyPLKinetics(
        (np.array([[1.0]]),), (np.array([[1.0, 0.0]]),), np.ones(1)),
    "PolyPLKinetics 1-D orders": lambda: cb.PolyPLKinetics(
        (np.array([1.0]),), (np.array([1.0]),), np.ones(1)),
    "poly_pl no reaction": lambda: cb.poly_pl([], []),
    "hill nan dissociation": lambda: cb.hill([[1, 0], [0, 1]], [[_NAN, 0], [0, 1]], [1, 1]),
    "hill inf dissociation": lambda: cb.hill([[1, 0], [0, 1]], [[_INF, 0], [0, 1]], [1, 1]),
    "hill nan order": lambda: cb.hill([[_NAN, 0], [0, 1]], [[1, 0], [0, 1]], [1, 1]),
    "HillKinetics 1-D orders": lambda: cb.HillKinetics(
        np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.ones(1)),
    "RationalKinetics nan order": lambda: cb.RationalKinetics(
        np.array([[_NAN, 0.0], [0.0, 1.0]]), np.ones(2), ((_FACTOR,), ())),
    "RationalKinetics 1-D orders": lambda: cb.RationalKinetics(
        np.array([1.0, 0.0]), np.ones(2), ((_FACTOR,), ())),
    "RationalFactor nan coefficient": lambda: cb.RationalFactor(
        np.array([_NAN, 1.0]), np.vstack([_ZERO_ROW, [[1.0, 0.0]]])),
    "RationalFactor inf coefficient": lambda: cb.RationalFactor(
        np.array([0.5, _INF]), np.vstack([_ZERO_ROW, [[1.0, 0.0]]])),
    "RationalFactor nan order": lambda: cb.RationalFactor(
        np.array([0.5, 1.0]), np.vstack([_ZERO_ROW, [[_NAN, 0.0]]])),
    "RationalFactor 1-D orders": lambda: cb.RationalFactor(
        np.array([0.5]), np.array([1.0, 0.0])),
}


@pytest.mark.parametrize("build", [
    lambda: cb.power_law([[1, 0], [0, 1]], [10 ** 400, 1]),
    lambda: cb.power_law([[Fraction(10 ** 400), 0], [0, 1]], [1, 1]),
    lambda: cb.power_law([[Fraction(1, 10 ** 400), 0], [0, 1]], [1, 1]),
    lambda: cb.hill([[1, 0], [0, 1]], [[Fraction(10 ** 400), 0], [0, 1]], [1, 1]),
    # a float conversion reads these as 0.0, and 0.0 as a Hill entry is off the support
    lambda: cb.hill([[Fraction(1, 10 ** 400), 0], [0, 1]], [[1, 0], [0, 1]], [1, 1]),
    lambda: cb.hill([[1, 0], [0, 1]], [[Fraction(1, 10 ** 400), 0], [0, 1]], [1, 1]),
    lambda: cb.hill([["1e-400", 0], [0, 1]], [[1, 0], [0, 1]], [1, 1]),
    lambda: cb.RationalKinetics([[Fraction(1, 10 ** 400), 0], [0, 1]], [1, 1], ((), ())),
    lambda: cb.RationalKinetics(np.array([[Fraction(10 ** 400), 0], [0, 1]], dtype=object),
                                [1, 1], ((), ())),
    lambda: cb.RationalFactor([Fraction(1, 10 ** 400), 1], [[0, 0], [1, 0]]),
    lambda: cb.RationalFactor([1, 1], [[0, 0], [Fraction(1, 10 ** 400), 0]]),
], ids=["rate", "order", "tiny order", "hill dissociation", "hill tiny order",
        "hill tiny dissociation", "hill tiny order string", "rational tiny order",
        "rational huge order object array", "factor tiny coefficient", "factor tiny order"])
def test_constructors_refuse_values_a_float_cannot_hold(build):
    with pytest.raises(cb.InvalidKineticsError, match="numbers a float can hold"):
        build()


def test_float_arrays_skip_the_entry_by_entry_reading(monkeypatch):
    """Hill and rational-kinetics arrays given as float arrays are copied by
    numpy; only the rates, which keep an exact copy, are read entry by entry."""
    read = []
    real = cb.kinetics._read

    def counted(values, ndim, what):
        read.append(what)
        return real(values, ndim, what)

    monkeypatch.setattr(cb.kinetics, "_read", counted)
    cb.HillKinetics(np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([[0.5, 0.0], [0.0, 2.0]]),
                    np.ones(2))
    cb.RationalKinetics(np.eye(2), np.ones(2), ((_FACTOR,), ()))
    assert set(read) == {"rate constants"}
    cb.hill([[1, 0], [0, -2]], [[0.5, 0], [0, 2]], [1, 1])
    assert {"kinetic orders", "dissociation constants"} <= set(read)


@pytest.mark.parametrize("build", _BAD_DATA.values(), ids=_BAD_DATA)
def test_every_constructor_refuses_bad_data(build):
    with pytest.raises(cb.InvalidKineticsError):
        build()


def test_rational_factor_refuses_assignment():
    kin = cb.hill([[1]], [[0.5]], [1])
    factor = kin._rational.denominators[0][0]
    key, rate = factor.key(), cb.evaluate(kin, np.array([1.0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        factor.coeffs = np.array([5.0, 1.0])
    assert factor.key() == key and np.array_equal(cb.evaluate(kin, np.array([1.0])), rate)


def test_poly_pl_needs_one_order_list_per_coefficient_list():
    coeffs = (np.array([1.0]), np.array([1.0]))
    with pytest.raises(cb.InvalidKineticsError, match="one term list per reaction"):
        cb.PolyPLKinetics(coeffs, (np.array([[1.0, 0.0]]),), np.ones(2))


_FACTOR_3 = cb.RationalFactor(np.array([0.5, 1.0]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
# Arrays of one kinetics whose shapes disagree
_MISMATCHED = {
    "power_law flat rows": lambda: cb.power_law([1, 2], [1]),
    "power_law ragged rows": lambda: cb.power_law([[1, 0], [1]], [1, 1]),
    "hill ragged rows": lambda: cb.hill([[1, 0], [1]], [[0.5, 0], [1]], [1, 1]),
    "RationalFactor 2 coefficients, 3 order rows": lambda: cb.RationalFactor(
        np.array([0.5, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    "poly_pl reactions on 2 and 3 species": lambda: cb.poly_pl(
        [[(1, (1, 0))], [(1, (0, 1, 0))]], [1, 1]),
    "poly_pl terms on 2 and 3 species": lambda: cb.poly_pl(
        [[(1, (1, 0)), (1, (0, 1, 0))], [(1, (0, 1))]], [1, 1]),
    "RationalKinetics numerators on 2 species, factor on 3": lambda: cb.RationalKinetics(
        np.eye(2), np.ones(2), ((_FACTOR_3,), ())),
}


@pytest.mark.parametrize("build", _MISMATCHED.values(), ids=_MISMATCHED)
def test_mismatched_arrays_are_refused(build):
    with pytest.raises(cb.InvalidKineticsError):
        build()


def _assert_copies_agree(kin) -> int:
    """Check that every exact copy `kin` keeps holds Fractions that convert to
    its float array bit for bit; return how many copies it keeps."""
    pairs = [(kin.rates, kin.exact_rates)]
    if isinstance(kin, cb.PowerLawKinetics):
        pairs.append((kin.orders, kin.exact_orders))
    elif isinstance(kin, cb.PolyPLKinetics):
        assert (kin.exact_term_coeffs is None) == (kin.exact_term_orders is None)
        if kin.exact_term_coeffs is not None:
            pairs += zip(kin.term_coeffs + kin.term_orders,
                         kin.exact_term_coeffs + kin.exact_term_orders)
    kept = 0
    for arr, exact in pairs:
        if exact is not None:
            assert all(type(v) is Fraction for v in np.array(exact, dtype=object).ravel())
            want = np.array(exact, dtype=float)
            assert want.shape == arr.shape and want.tobytes() == arr.tobytes()
            kept += 1
    return kept


def test_exact_copies_are_derived_not_passed_in():
    """The orders given are the orders evaluated, classified and rendered:
    on 2A <-> B, first-order kinetics in A cannot claim mass action."""
    with pytest.raises(TypeError):
        cb.PowerLawKinetics(np.eye(2), [1, 1], ((2, 0), (0, 1)))
    with pytest.raises(TypeError):
        cb.PowerLawKinetics(np.eye(2), [1, 1], exact_orders=((2, 0), (0, 1)))
    for name in ("exact_term_coeffs", "exact_term_orders"):
        with pytest.raises(TypeError):
            cb.PolyPLKinetics([[1]], [[[1, 0]]], [1], **{name: None})
    net = cb.build_network(["A", "B"], [[2, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.PowerLawKinetics(np.eye(2), [1, 1])
    assert kin.exact_orders == ((1, 0), (0, 1))
    assert cb.classify(kin, net).mass_action is False
    assert np.array_equal(cb.KineticSystem(net, kin).t_matrices.t, np.eye(2))
    assert np.array_equal(cb.evaluate(kin, [2.0, 1.0]), [2.0, 1.0])


def test_exact_copies_convert_to_the_float_arrays(mm_polypl, mm_rational):
    """Every way to build a kinetics: the four dataclasses, the builders,
    normalization, term systems, the replica transform and the parser."""
    rng = np.random.default_rng(12)
    net, poly = mm_polypl
    hill = cb.hill([[1, 0], [0, -2]], [["1/2", 0], [0, 2.0]], ["1/3", 1.5])
    kins = [
        cb.PowerLawKinetics(np.eye(2), [1, "3/2"]),
        cb.PowerLawKinetics(rng.integers(-2, 3, size=(3, 2)), np.array([1.0, 2.0, 3.0])),
        cb.PolyPLKinetics([[1, "1/2"], [2.0]], [[[1, 0], [0, 1]], [[1, 1]]], ["1/3", 2]),
        cb.HillKinetics([[1, 0], [0, 2]], [[0.5, 0], [0, Fraction(3, 2)]], ["1/3", 1]),
        cb.RationalKinetics(np.eye(2), ["1/3", 2.0], ((_FACTOR,), ())),
        cb.power_law([[Fraction(1, 2), 2.0], ["-2/3", 0]], [Fraction(5, 7), "2"]),
        cb.power_law(rng.uniform(-1, 1, (2, 2)), rng.uniform(0.5, 2, 2)),
        cb.mass_action_from(net, ["1/3", 1, 2.0, Fraction(7, 5)]),
        cb.poly_pl([[("1/3", (1, 0)), (2.0, (0, "1/2"))], [(1, (1, 1))]], [0.25, 1]),
        hill, cb.hill_as_rational(hill), cb.hill_to_poly_pl(_PAIR, hill),
        poly, mm_rational[1], cb.star_msc(net, poly).system.kinetics,
    ]
    for source in (poly, kins[2], kins[8], cb.poly_pl([[(0.5, (1, 0))], [(1, (0, 1)),
                                                       (2, (1, 0))]], ["1/3", 1])):
        norm = cb.normalize_poly_pl(source)
        kins += [norm, norm.term_kinetics()]
    for name in ("counterexample", "hill_single", "mm_polypl", "re1_massaction",
                 "re1_powerlaw", "decimal_powerlaw"):
        kins.append(parse_crn(data_path(f"{name}.crn").read_text())[1])
    kept = [_assert_copies_agree(kin) for kin in kins]
    assert sum(k > 0 for k in kept) >= 25 and 0 in kept


def test_exact_rates():
    assert cb.power_law([[1]], ["1/3"]).exact_rates == (Fraction(1, 3),)
    assert cb.power_law([[1], [0]], [2.0, Fraction(1, 3)]).exact_rates == (2, Fraction(1, 3))
    assert cb.power_law([[1], [0]], [0.25, 1]).exact_rates is None  # a decimal rate
    _, kin = parse_crn("species A\nr1: A -> 0 rate 1/3\nkinetics massaction\n")
    assert kin.exact_rates == (Fraction(1, 3),) and kin.rates.tolist() == [1 / 3]
    hill = cb.hill([[1]], [[0.5]], ["1/3"])
    assert hill.exact_rates == cb.hill_as_rational(hill).exact_rates == (Fraction(1, 3),)
    poly = cb.poly_pl([[(1, (1, 0)), (2, (0, 1))], [(1, (0, 1))]], ["1/3", 3])
    assert cb.normalize_poly_pl(poly).exact_rates == (Fraction(1, 3), 3)
    # term 2 of reaction 1 is 2 x_B; reaction 2 splits its one term into two
    # halves; rows r to 2r - 1 (r = 2) of the stacked terms hold the second terms
    assert cb.normalize_poly_pl(poly).term_kinetics().exact_rates[2:4] == (Fraction(2, 3),
                                                                           Fraction(3, 2))


def test_normalized_coefficients_are_the_exact_quotients():
    """A last term a split into pad copies gets float(a / pad) of the exact
    a, which can differ in the last bit from float(a) / pad."""
    rows = [(0, 1), (0, 2), (1, 1), (2, 0), (1, 2)]
    assert float(Fraction(5, 3)) / 5 != float(Fraction(1, 3))
    norm = cb.normalize_poly_pl(cb.poly_pl([[("5/3", (1, 0))], [(1, r) for r in rows]], [1, 1]))
    assert norm.exact_term_coeffs[0] == (Fraction(1, 3),) * 5
    assert norm.term_coeffs[0].tolist() == [float(Fraction(1, 3))] * 5
    decimal = cb.normalize_poly_pl(cb.poly_pl([[(5 / 3, (1, 0))], [(1, r) for r in rows]],
                                              [1, 1]))
    assert decimal.exact_term_coeffs is None
    assert decimal.term_coeffs[0].tolist() == [5 / 3 / 5] * 5


def _old_counts(kin):
    """(num_reactions, num_species) as each family computed them on its own."""
    if isinstance(kin, cb.PolyPLKinetics):
        return kin.rates.shape[0], kin.term_orders[0].shape[1]
    if isinstance(kin, cb.RationalKinetics):
        return kin.numer_orders.shape
    return kin.orders.shape


def test_counts_equal_the_per_family_counts(request):
    kins = [request.getfixturevalue(name)[1] for name in (
        "re1_powerlaw", "re1_massaction", "counterexample", "mm_polypl", "mm_rational",
        "toy_pl_tik", "toy_polypl")]
    kins += [parse_crn(data_path(f"{name}.crn").read_text())[1] for name in (
        "counterexample", "hill_single", "mm_polypl", "re1_massaction", "re1_powerlaw")]
    kins += [bench_ladder(seed, r)[1] for seed, r in ((0, 12), (1, 40))]
    rng = np.random.default_rng(8)
    for make in (random_network, random_weakly_reversible_network):
        for _ in range(20):
            net = make(rng)
            r, m = net.num_reactions, net.num_species
            orders = rng.integers(-1, 3, size=(r, m))
            kins.append(cb.mass_action_from(net, [1] * r))
            kins.append(cb.power_law(orders, rng.uniform(0.5, 2, r)))
            kins.append(cb.poly_pl([[(1, tuple(row)), (2, tuple(row + 1))] for row in orders],
                                   [1] * r))
            hill = cb.hill(orders, np.abs(orders) * 0.5, [1] * r)
            kins += [hill, cb.hill_as_rational(hill)]
    for kin in kins:
        assert (kin.num_reactions, kin.num_species) == _old_counts(kin)


def test_rates_balancing_all_ones(re1_net):
    k = cb.rates_balancing_all_ones(re1_net)
    ia = np.array(re1_net.ia, dtype=float)
    assert np.allclose(ia @ np.array([float(v) for v in k]), 0.0)
    assert all(v > 0 for v in k)
    irreversible = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    with pytest.raises(cb.CrnError):
        cb.rates_balancing_all_ones(irreversible)


def test_mass_action_classification_on_integer_networks():
    rng = np.random.default_rng(31)
    from conftest import random_network
    for _ in range(10):
        net = random_network(rng)
        kin = cb.mass_action_from(net, [1] * net.num_reactions)
        cls = cb.classify(kin, net)
        assert cls.pl_rdk is True and cls.pl_nik is True


# Decimal orders leave no exact copy of the rows, so classify compares them
# within its float tolerance.
SHARED_REACTANT = """\
species A B
r1: A -> B rate 1
r2: A -> 2 B rate 1
r3: B -> A rate 1
kinetics powerlaw
order r1: A=0.5
order r2: A={order}
order r3: B=1
"""


@pytest.mark.parametrize("order, rdk", [("0.5", True), ("0.25", False)])
def test_pl_rdk_compares_decimal_rows_within_tolerance(order, rdk):
    net, kin = parse_crn(SHARED_REACTANT.format(order=order))
    assert kin.exact_orders is None
    assert cb.classify(kin, net).pl_rdk is rdk


def test_mass_action_of_a_part_with_a_decimal_order_elsewhere():
    net, kin = parse_crn("species A B C\nr1: A -> B rate 1\nr2: B -> A rate 1\n"
                         "r3: C -> A rate 1\nkinetics powerlaw\n"
                         "order r1: A=1\norder r2: B=1.0\norder r3: C=0.5\n")
    assert kin.exact_orders is None
    assert _is_mass_action(kin, net, [0, 1]) is True
    assert _is_mass_action(kin, net, [2]) is False
    assert cb.classify(kin, net).mass_action is False


@pytest.mark.parametrize("order, cf", [("1", True), ("2", False)])
def test_poly_pl_cf_compares_term_orders(order, cf):
    net, kin = parse_crn("species A B\nr1: A -> B rate 1\nr2: A -> 2 B rate 1\n"
                         "r3: B -> A rate 1\nkinetics polypl\n"
                         "term r1 coeff 1: A=1\nterm r1 coeff 2: A=1, B=1\n"
                         f"term r2 coeff 1: A=1\nterm r2 coeff 2: A=1, B={order}\n"
                         "term r3 coeff 1: B=1\n")
    assert cb.classify(kin, net).cf is cf


def test_poly_pl_cf_compares_exact_coefficients():
    # A's two reactions differ in their coefficient by 1e-13, inside the
    # float tolerance; the exact copies tell them apart
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1], [0, 2]], [(0, 1), (0, 2), (1, 0)])
    close = Fraction(10 ** 13 + 1, 10 ** 13)
    kin = cb.poly_pl([[(1, (1, 0))], [(close, (1, 0))], [(1, (0, 1))]], [1, 1, 1])
    assert kin.exact_term_coeffs is not None
    assert cb.classify(kin, net).cf is False
    same = cb.poly_pl([[(1, (1, 0))], [(1, (1, 0))], [(1, (0, 1))]], [1, 1, 1])
    assert cb.classify(same, net).cf is True
    # without exact copies the tolerance decides
    decimal = cb.poly_pl([[(0.1, (1, 0))], [(0.1 + 1e-13, (1, 0))], [(1, (0, 1))]], [1, 1, 1])
    assert decimal.exact_term_coeffs is None
    assert cb.classify(decimal, net).cf is True


@pytest.mark.parametrize("order, surjective", [("0.5", False), ("0.25", True)])
def test_factor_span_compares_decimal_kinetic_complexes(order, surjective):
    net, kin = parse_crn("species A B\nr1: A -> B rate 1\nr2: B -> A rate 1\n"
                         f"kinetics powerlaw\norder r1: A=0.5\norder r2: A={order}\n")
    system = cb.KineticSystem(net, kin)
    assert kin.exact_orders is None and not system.t_matrices.ranks_exact
    assert system.classification.factor_span_surjective is surjective
