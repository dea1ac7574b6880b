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
    t = cb.build_t_matrices(net, kin)
    cls = cb.classify(kin, net, t)
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
    k, jac = cb.kinetics.log_jacobian(kin, x)
    assert np.array_equal(k, cb.evaluate(kin, x))
    eps = 1e-6
    for i in range(m):
        up = u.copy()
        up[i] += eps
        dn = u.copy()
        dn[i] -= eps
        fd = (cb.evaluate(kin, np.exp(up)) - cb.evaluate(kin, np.exp(dn))) / (2 * eps)
        assert np.allclose(jac[:, i], fd, rtol=1e-5, atol=1e-8)


def _ladder(family):
    work = bench_workloads()
    return {"powerlaw": work.ladder_power_law(1, 40), "polypl": work.ladder_poly_pl(1, 12),
            "hill": work.ladder_hill(1, 8)}[family][1]


@pytest.mark.parametrize("family", FAMILIES + ["powerlaw-ladder", "polypl-ladder",
                                               "hill-ladder"])
def test_stacked_states_evaluate_as_single_states(family, mm_rational):
    """Each state of a stack (..., m) gets the bits it gets alone."""
    rng = np.random.default_rng(5)
    if family.endswith("-ladder"):
        kin = _ladder(family.split("-")[0])
        m = kin.num_species
    else:
        kin, m = _family(family, mm_rational, rng)
    states = np.exp(rng.uniform(-3, 3, size=(2, 4, m)))
    k, jac = cb.kinetics.log_jacobian(kin, states)
    rates = cb.evaluate(kin, states)
    assert k.shape == rates.shape == (2, 4, kin.num_reactions)
    assert jac.shape == (2, 4, kin.num_reactions, m)
    for idx in np.ndindex(2, 4):
        k1, jac1 = cb.kinetics.log_jacobian(kin, states[idx])
        assert k1.tobytes() == k[idx].tobytes() == rates[idx].tobytes()
        assert jac1.tobytes() == jac[idx].tobytes()
    empty = cb.kinetics.log_jacobian(kin, np.ones((0, m)))
    assert empty[0].shape == (0, kin.num_reactions)
    assert empty[1].shape == (0, kin.num_reactions, m)


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
                k, jac = cb.kinetics.log_jacobian(kin, x)
                assert np.array_equal(k, want, equal_nan=True)
                assert np.array_equal(jac, want[:, None] * kin.orders, equal_nan=True)
                assert np.array_equal(cb.evaluate(kin, x), want, equal_nan=True)
    k, jac = cb.kinetics.log_jacobian(ladder, np.exp(np.full(15, -44.0)))
    assert np.any(k == 0) and np.all(np.isfinite(jac))


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


def test_poly_pl_needs_one_order_list_per_coefficient_list():
    coeffs = (np.array([1.0]), np.array([1.0]))
    with pytest.raises(cb.InvalidKineticsError, match="one term list per reaction"):
        cb.PolyPLKinetics(coeffs, (np.array([[1.0, 0.0]]),), np.ones(2))


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


@pytest.mark.parametrize("order, surjective", [("0.5", False), ("0.25", True)])
def test_factor_span_compares_decimal_kinetic_complexes(order, surjective):
    net, kin = parse_crn("species A B\nr1: A -> B rate 1\nr2: B -> A rate 1\n"
                         f"kinetics powerlaw\norder r1: A=0.5\norder r2: A={order}\n")
    system = cb.KineticSystem(net, kin)
    assert system.t_matrices.exact_t is None
    assert system.classification.factor_span_surjective is surjective
