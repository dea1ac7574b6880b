"""Replica transform, PFF comparison, denominator-clearing association."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnbalance as cb
from crnbalance.transform import _RATE_TOL, PffCertificate

from conftest import bench_workloads, term_system


def test_star_msc_sizes_and_deficiency(mm_polypl):
    net, kin = mm_polypl
    star = cb.star_msc(net, kin)
    assert star.shift == 2 and star.length == 3
    assert star.network.num_complexes == 9
    assert star.network.num_reactions == 12
    assert star.predicted_delta == 4
    assert star.computed_delta == 4
    inv = cb.structural_invariants(star.network)
    assert inv.weakly_reversible
    assert inv.l == 3
    # replica complexes really are the originals shifted by (j-1) * M
    for qstar, (q, j) in enumerate(star.replica_map):
        rx = star.network.reactions[qstar]
        orig = net.reactions[q]
        shift = (j - 1) * star.shift
        assert all(star.network.complexes[rx.reactant].coeffs[i]
                   == net.complexes[orig.reactant].coeffs[i] + shift
                   for i in range(net.num_species))


def _fields(kin, rows=slice(None)):
    """The exact copies and the float bits of the rows `rows` of a power-law kinetics."""
    return (kin.exact_orders and kin.exact_orders[rows], kin.exact_rates and kin.exact_rates[rows],
            kin.orders[rows].tobytes(), kin.rates[rows].tobytes())


def test_star_msc_and_joint_solves_share_one_term_layout(mm_polypl, toy_polypl):
    """The replica kinetics is the stacked term kinetics, row for row, and
    row j r + q is replica j + 1 of reaction q, carrying term j of q."""
    pair = toy_polypl[0]
    floats = cb.poly_pl([[(0.3, (1, 0)), (0.7, (0, 1))], [(1.1, (0, 1))]], [0.5, 2])
    cases = [mm_polypl, toy_polypl, (pair, floats), bench_workloads().ladder_poly_pl(1, 12)]
    for net, kin in cases:
        star = cb.star_msc(net, kin)
        norm = cb.normalize_poly_pl(kin)
        stacked = norm.term_kinetics()
        assert _fields(star.kinetics) == _fields(stacked)
        r = net.num_reactions
        assert star.replica_map == tuple((q, j + 1) for j in range(norm.length)
                                         for q in range(r))
        for j in range(norm.length):
            assert _fields(stacked, slice(j * r, (j + 1) * r)) == _fields(term_system(norm, j))
    # decimal coefficients leave the rates without an exact copy
    assert cb.star_msc(pair, floats).kinetics.exact_rates is None


def test_star_msc_dynamic_equivalence(mm_polypl, toy_polypl):
    for net, kin in (mm_polypl, toy_polypl):
        star = cb.star_msc(net, kin)
        for x in cb.sample_positive_states(net.num_species, 20, rng_seed=9):
            f0 = cb.species_formation_rate(net, kin, x)
            f1 = cb.species_formation_rate(star.network, star.kinetics, x)
            denom = max(1.0, float(np.max(np.abs(f0))))
            assert float(np.max(np.abs(f0 - f1))) / denom <= 1e-10


def test_star_msc_length_one_is_identity(toy_pl_tik):
    net, _ = toy_pl_tik
    kin = cb.poly_pl([[(2, (1, 0))], [(3, (0, 1))]], [1, 1])
    star = cb.star_msc(net, kin)
    assert star.length == 1
    assert star.network.num_complexes == net.num_complexes
    assert star.computed_delta == cb.structural_invariants(net).delta
    assert np.allclose(star.kinetics.rates, [2, 3])


def test_star_msc_rejects_fractional_complexes():
    net = cb.build_network(["A"], [["1/2"], [1]], [(0, 1), (1, 0)])
    kin = cb.poly_pl([[(1, (1,)), (1, (2,))], [(1, (0,))]], [1, 1])
    with pytest.raises(cb.NonIntegerComplexError):
        cb.star_msc(net, kin)


def test_star_msc_ndk_propagation(mm_polypl):
    # one term system of the enzyme fixture is not reactant determined, so
    # the transform is not reactant determined either
    net, kin = mm_polypl
    star = cb.star_msc(net, kin)
    cls = cb.classify(star.kinetics, star.network)
    assert cls.pl_rdk is False
    with pytest.raises(cb.NotRDKError):
        cb.build_t_matrices(star.network, star.kinetics)


def test_star_msc_rdk_transform_not_factor_span_surjective(toy_polypl):
    # duplicated term rows across replicas duplicate kinetic complexes
    net, kin = toy_polypl
    star = cb.star_msc(net, kin)
    cls = cb.classify(star.kinetics, star.network)
    assert cls.pl_rdk is True
    assert cls.factor_span_surjective is False
    assert star.computed_delta == 1  # 0 + (2 - 1)(2 - 1)


def test_pff_identity(counterexample):
    _, kin = counterexample
    cert = cb.pff_check(kin, kin)
    assert cert.equivalent and cert.factor_kind == "constant"
    assert cert.rate_ratio == 1.0


def test_pff_monomial_shift(counterexample):
    _, kin = counterexample
    shift = np.array([1.0, -0.5, 2.0])
    other = cb.power_law(kin.orders + shift, kin.rates * 2)
    cert = cb.pff_check(other, kin)
    assert cert.equivalent and cert.factor_kind == "monomial"
    assert np.isclose(cert.rate_ratio, 2.0)
    assert np.allclose(cert.order_shift, shift)
    # and the certified factor is correct: ratio == 2 x^shift at any state
    x = np.array([0.8, 1.7, 0.4])
    ratio = cb.evaluate(other, x) / cb.evaluate(kin, x)
    assert np.allclose(ratio, 2 * np.prod(x ** shift))


def test_pff_rejects_non_equivalent(counterexample):
    _, kin = counterexample
    rates = kin.rates.copy()
    rates[0] *= 3
    other = cb.power_law(kin.orders, rates)
    assert not cb.pff_check(other, kin).equivalent
    bent = kin.orders.copy()
    bent[0, 0] += 1
    assert not cb.pff_check(cb.power_law(bent, kin.rates), kin).equivalent


def test_pff_compares_exact_rates_and_orders():
    # the third rates differ by 1e-13, inside the float tolerance
    orders = [[1, 0], [0, 1], [1, 1]]
    a = cb.power_law(orders, [1, 1, 1])
    b = cb.power_law(orders, [1, 1, Fraction(10 ** 13 + 1, 10 ** 13)])
    cert = cb.pff_check(a, b)
    assert not cert.equivalent and cert.rate_ratio is None
    assert cert.order_shift == (0.0, 0.0)
    # the orders differ by 1e-13 in one row only
    bent = cb.power_law([[1, 0], [0, 1], [1, Fraction(10 ** 13 + 1, 10 ** 13)]], [1, 1, 1])
    cert = cb.pff_check(a, bent)
    assert cert.rate_ratio == 1.0 and cert.order_shift is None and not cert.equivalent
    shifted = cb.power_law([[2, Fraction(-1, 3)], [1, Fraction(2, 3)], [2, Fraction(2, 3)]],
                           [Fraction(1, 3)] * 3)
    cert = cb.pff_check(shifted, a)
    assert cert.equivalent and cert.factor_kind == "monomial"
    assert cert.rate_ratio == float(Fraction(1, 3))
    assert cert.order_shift == (1.0, float(Fraction(-1, 3)))
    # exact rows of different lengths are refused, not compared up to the shorter
    with pytest.raises(cb.DimensionMismatchError):
        cb.pff_check(a, cb.power_law([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [1, 1, 1]))


def oracle_pff_power_law(kin_a, kin_b) -> PffCertificate:
    """The power-law branch of `pff_check` before its one comparison loop:
    a Fraction body and a numpy body, kept verbatim."""
    if None not in (kin_a.exact_orders, kin_a.exact_rates,
                    kin_b.exact_orders, kin_b.exact_rates):
        diff = [[a - b for a, b in zip(fa, fb)]
                for fa, fb in zip(kin_a.exact_orders, kin_b.exact_orders)]
        ratios = [a / b for a, b in zip(kin_a.exact_rates, kin_b.exact_rates)]
        rows_match = all(row == diff[0] for row in diff)
        ratio_const = all(v == ratios[0] for v in ratios)
        constant = not any(diff[0])
    else:
        diff = kin_a.orders - kin_b.orders
        ratios = kin_a.rates / kin_b.rates
        rows_match = bool(np.max(np.abs(diff - diff[0]), initial=0.0) <= _RATE_TOL)
        ratio_const = bool(np.max(np.abs(ratios - ratios[0])) <=
                           _RATE_TOL * max(1.0, abs(ratios[0])))
        constant = np.max(np.abs(diff[0])) <= _RATE_TOL
    return PffCertificate(
        equivalent=rows_match and ratio_const,
        factor_kind="constant" if constant else "monomial",
        sampled_max_spread=0.0,
        rate_ratio=float(ratios[0]) if ratio_const else None,
        order_shift=tuple(float(v) for v in diff[0]) if rows_match else None,
    )


def _cert_fields(cert):
    """Every certificate field, floats as `float.hex`."""
    hexed = (lambda v: None if v is None else float(v).hex())
    return (type(cert.equivalent), cert.equivalent, cert.factor_kind,
            hexed(cert.sampled_max_spread), hexed(cert.rate_ratio),
            None if cert.order_shift is None else tuple(map(hexed, cert.order_shift)))


# offsets at the tolerance, both sides of it, and far from it
_NEAR_TOL = (0.0, 1e-13, 5e-13, float(np.nextafter(1e-12, 0)), 1e-12,
             float(np.nextafter(1e-12, 1)), 1.5e-12, 1e-9, 0.25)
_SCALES = (1, 2, 0.5, Fraction(1, 3), 1e3, 1e6, 1e9, 3.7e11, 1e15)
_exact_entry = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9),
                                                       st.integers(1, 7)))
_exact_rate = st.one_of(st.integers(1, 5), st.builds(Fraction, st.integers(1, 9),
                                                     st.integers(1, 7)))
_float_entry = st.floats(-3, 3, allow_nan=False).filter(lambda v: not v.is_integer())
_float_rate = st.floats(0.01, 10).filter(lambda v: not v.is_integer())


@st.composite
def power_law_pairs(draw, kinds):
    """(a, b) on r reactions and m species; a is b with a common order shift
    and a rate scale, then one order and one rate moved by an offset near
    the tolerance. A kind "exact" keeps every value a Fraction, "float"
    makes some entry a non-integral float, so no exact copy exists."""
    kind_a, kind_b = kinds
    r, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = {"exact": _exact_entry, "float": _float_entry}
    rate = {"exact": _exact_rate, "float": _float_rate}
    orders_b = draw(st.lists(st.lists(entry[kind_b], min_size=m, max_size=m),
                             min_size=r, max_size=r))
    rates_b = draw(st.lists(rate[kind_b], min_size=r, max_size=r))
    shift = draw(st.lists(entry[kind_a], min_size=m, max_size=m))
    scale = draw(st.sampled_from(_SCALES))
    q, j, q_rate = draw(st.integers(0, r - 1)), draw(st.integers(0, m - 1)), \
        draw(st.integers(0, r - 1))
    bump, rel = draw(st.sampled_from(_NEAR_TOL)), draw(st.sampled_from(_NEAR_TOL))
    bump, rel = bump * draw(st.sampled_from((1, -1))), rel * draw(st.sampled_from((1, -1)))
    # a's values: Fractions of the exact binary values, or floats
    cast = Fraction if kind_a == "exact" else float
    orders_a = [[cast(Fraction(v)) + cast(Fraction(d)) for v, d in zip(row, shift)]
                for row in orders_b]
    orders_a[q][j] += cast(Fraction(bump))
    rates_a = [cast(Fraction(v)) * cast(Fraction(scale)) for v in rates_b]
    rates_a[q_rate] *= 1 + cast(Fraction(rel))
    if kind_a == "float" and all(v.is_integer() for row in orders_a for v in row):
        orders_a[0][0] += 0.5
    return cb.power_law(orders_a, rates_a), cb.power_law(orders_b, rates_b)


@pytest.mark.parametrize("kinds", [("exact", "exact"), ("float", "float"),
                                   ("exact", "float"), ("float", "exact")])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_pff_power_law_loop_matches_the_two_branch_oracle(kinds, data):
    """One comparison loop gives every certificate field the two bodies gave,
    floats to the bit, exact and float and mixed pairs alike."""
    kin_a, kin_b = data.draw(power_law_pairs(kinds))
    exact = (kin_a.exact_orders, kin_a.exact_rates, kin_b.exact_orders, kin_b.exact_rates)
    assert (None in exact) is ("float" in kinds)
    for pair in ((kin_a, kin_b), (kin_b, kin_a), (kin_a, kin_a)):
        assert _cert_fields(cb.pff_check(*pair)) == _cert_fields(oracle_pff_power_law(*pair))


def test_pff_is_equivalence_relation(counterexample):
    _, kin = counterexample
    a = kin
    b = cb.power_law(kin.orders + np.array([1.0, 0.0, -1.0]), kin.rates * 0.5)
    c = cb.power_law(b.orders + np.array([0.5, 0.5, 0.5]), b.rates * 4)
    assert cb.pff_check(a, a).equivalent
    assert cb.pff_check(a, b).equivalent == cb.pff_check(b, a).equivalent == True
    assert cb.pff_check(b, c).equivalent and cb.pff_check(a, c).equivalent


def test_pff_dimension_mismatch(counterexample, toy_pl_tik):
    with pytest.raises(cb.DimensionMismatchError):
        cb.pff_check(counterexample[1], toy_pl_tik[1])


def test_pff_sampled_route(mm_polypl, mm_rational):
    net, kin = mm_polypl
    _, kq = mm_rational
    states = cb.sample_positive_states(4, 20, rng_seed=3)
    cert = cb.pff_check(kin, kq, states)
    assert cert.factor_kind == "sampled"
    assert cert.equivalent
    # the common factor is the shared denominator 1 + S2 + S4
    x = states[0]
    ratio = cb.evaluate(kin, x) / cb.evaluate(kq, x)
    assert np.allclose(ratio, 1 + x[1] + x[3])


def test_pff_sampled_spread_matches_the_per_state_loop(mm_polypl, mm_rational,
                                                       counterexample):
    """One stacked `evaluate` per kinetics gives the spread that evaluating
    one state at a time gives, to the bit."""
    _, pl = counterexample
    hl = cb.hill(np.abs(pl.orders).tolist(), np.where(pl.orders != 0, 1.0, 0.0).tolist(),
                 pl.rates.tolist())
    spreads = []
    for ka, kb in ((mm_polypl[1], mm_rational[1]), (pl, hl), (hl, pl), (hl, hl)):
        states = cb.sample_positive_states(ka.num_species, 20, rng_seed=5)
        spread = 0.0
        for x in states:
            ratios = cb.evaluate(ka, x) / cb.evaluate(kb, x)
            spread = max(spread, float((ratios.max() - ratios.min()) / ratios.mean()))
        assert cb.pff_check(ka, kb, states).sampled_max_spread == spread
        spreads.append(spread)
    assert spreads[1] > 0.0 and spreads[3] == 0.0


def test_hill_to_poly_pl_single_reaction():
    net = cb.build_network(["X"], [[1], [2]], [(0, 1)])
    kin = cb.hill([[1]], [[0.5]], [1])
    out = cb.hill_to_poly_pl(net, kin)
    assert out.length == 1
    assert np.allclose(out.term_orders[0], [[1.0]])
    assert np.allclose(out.term_coeffs[0], [1.0])
    x = np.array([1.7])
    assert np.isclose(cb.evaluate(out, x)[0], 1.7)


def test_hill_to_poly_pl_reproduces_enzyme_terms(mm_rational, mm_polypl):
    net, kq = mm_rational
    _, expected = mm_polypl
    out = cb.hill_to_poly_pl(net, kq)
    norm_out = cb.normalize_poly_pl(out)
    norm_exp = cb.normalize_poly_pl(expected)
    for x in cb.sample_positive_states(4, 10, rng_seed=5):
        assert np.allclose(cb.evaluate(norm_out, x), cb.evaluate(norm_exp, x),
                           rtol=1e-12)
    # row 3 reduces to the bare monomial S2 once the shared factor cancels
    assert out.term_coeffs[2].shape[0] == 1
    assert np.array_equal(out.term_orders[2], [[0, 1, 0, 0]])


def test_hill_to_poly_pl_converts_hill_once(monkeypatch):
    calls = []
    real = cb.kinetics.hill_as_rational

    def counted(kin):
        calls.append(kin)
        return real(kin)

    monkeypatch.setattr(cb.kinetics, "hill_as_rational", counted)
    monkeypatch.setattr(cb.transform, "hill_as_rational", counted, raising=False)
    net = cb.build_network(["X", "Y"], [[1, 0], [0, 1], [1, 1]],
                           [(0, 1, "r1"), (1, 2, "r2"), (2, 0, "r3")])
    kin = cb.hill([[1, 0], [0, 1], [1, -1]],
                  [[0.5, 0], [0, 0.5], [2.0, 0.5]], [1, "3/2", 1])
    out = cb.hill_to_poly_pl(net, kin)
    assert calls == [kin]
    expected = cb.hill_to_poly_pl(net, real(kin))
    for x in cb.sample_positive_states(2, 8, rng_seed=3):
        assert np.array_equal(cb.evaluate(out, x), cb.evaluate(expected, x))


def test_hill_to_poly_pl_term_counts_and_expansion():
    # two reactions sharing one denominator factor: each row's expansion has
    # as many terms as the product of the remaining factors' lengths
    net = cb.build_network(["X", "Y"], [[1, 0], [0, 1], [1, 1]],
                           [(0, 1, "r1"), (1, 2, "r2"), (2, 0, "r3")])
    kin = cb.hill([[1, 0], [0, 1], [1, 1]],
                  [[0.5, 0], [0, 0.5], [2.0, 0.5]], [1, 1, 1])
    out = cb.hill_to_poly_pl(net, kin)
    # distinct factors: (0.5+X), (0.5+Y), (2+X); rows keep the ones they lack
    assert out.term_coeffs[0].shape[0] == 4   # (0.5+Y)(2+X)
    assert out.term_coeffs[1].shape[0] == 4   # (0.5+X)(2+X)
    assert out.term_coeffs[2].shape[0] == 2   # (0.5+X) cancels its own two
    # brute-force oracle: multiply the rational form by D(x) symbolically
    for x in cb.sample_positive_states(2, 8, rng_seed=11):
        d = (0.5 + x[0]) * (0.5 + x[1]) * (2.0 + x[0])
        assert np.allclose(cb.evaluate(out, x), d * cb.evaluate(kin, x), rtol=1e-12)


def test_hill_to_poly_pl_positive_and_defined_at_zero():
    net = cb.build_network(["X", "Y"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.hill([[1, -2], [0, 1]], [[0.5, 2.0], [0, 1.5]], [1, 1])
    out = cb.hill_to_poly_pl(net, kin)
    assert all(np.all(a > 0) for a in out.term_coeffs)
    assert all(np.all(f >= 0) for f in out.term_orders)
    for x in ([0.0, 1.0], [1.0, 0.0], [0.0, 0.0]):
        vals = cb.evaluate(out, np.array(x))
        assert np.all(np.isfinite(vals))
        hill_vals = cb.evaluate(kin, np.array(x))
        assert np.all(np.isfinite(hill_vals))
