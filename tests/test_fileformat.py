"""Parser and renderer for the network/kinetics text format."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnbalance as cb
from crnbalance.cli import _resolve_flux_basis
from crnbalance.fileformat import (MissingKineticsRowError, NegativeRateError,
                                   ParseError, UnknownSpeciesError, _parse_complex,
                                   parse_crn, render_crn)

from conftest import data_path


def test_parse_re1_matches_fixture(re1_powerlaw):
    net_fx, kin_fx = re1_powerlaw
    net, kin = parse_crn(data_path("re1_powerlaw.crn").read_text())
    assert net.y == net_fx.y
    assert net.ia == net_fx.ia
    assert [rx.label for rx in net.reactions] == [f"r{i}" for i in range(1, 9)]
    assert np.array_equal(kin.orders, kin_fx.orders)
    assert kin.exact_orders == kin_fx.exact_orders
    assert np.array_equal(kin.rates, kin_fx.rates)


def test_parse_counterexample_rates(counterexample):
    net, kin = parse_crn(data_path("counterexample.crn").read_text())
    assert np.allclose(kin.rates, [1, 1, 1, 1, 1.5])
    assert net.num_complexes == 4


def test_parse_massaction():
    net, kin = parse_crn(data_path("re1_massaction.crn").read_text())
    cls = cb.classify(kin, net)
    assert cls.mass_action is True


def test_parse_polypl(mm_polypl):
    net_fx, kin_fx = mm_polypl
    net, kin = parse_crn(data_path("mm_polypl.crn").read_text())
    assert isinstance(kin, cb.PolyPLKinetics)
    for a, b in zip(kin.term_orders, kin_fx.term_orders):
        assert np.array_equal(a, b)
    assert net.y == net_fx.y


def test_parse_hill():
    net, kin = parse_crn(data_path("hill_single.crn").read_text())
    assert isinstance(kin, cb.HillKinetics)
    assert kin.orders[0, 0] == 1 and kin.dissoc[0, 0] == 0.5
    x = np.array([2.0])
    assert np.isclose(cb.evaluate(kin, x)[0], 2.0 / 2.5)


def test_parse_zero_complex_and_fractions():
    text = """
species A B
r1: 0 -> A rate 3/2
r2: A -> 1/2 A + B rate 1
kinetics powerlaw
order r1:
order r2: A=1, B=-0.25
"""
    net, kin = parse_crn(text)
    assert net.complexes[0].coeffs == (Fraction(0), Fraction(0))
    assert net.complexes[2].coeffs == (Fraction(1, 2), Fraction(1))
    assert kin.rates[0] == 1.5
    assert np.array_equal(kin.orders[0], [0, 0])
    assert kin.orders[1, 1] == -0.25
    assert kin.exact_orders is None  # a decimal literal demotes exactness


def test_parse_errors():
    base = "species A B\nr1: A -> B rate {rate}\nkinetics massaction\n"
    with pytest.raises(NegativeRateError):
        parse_crn(base.format(rate="-1"))
    with pytest.raises(NegativeRateError):
        parse_crn(base.format(rate="0"))
    with pytest.raises(UnknownSpeciesError):
        parse_crn("species A\nr1: A -> C rate 1\nkinetics massaction\n")
    with pytest.raises(ParseError, match="duplicate reaction label"):
        parse_crn("species A B\nr1: A -> B rate 1\nr1: B -> A rate 1\n"
                  "kinetics massaction\n")
    with pytest.raises(ParseError, match="kinetics"):
        parse_crn("species A B\nr1: A -> B rate 1\n")


def test_missing_kinetics_row_names_the_reaction():
    text = ("species A B\nr1: A -> B rate 1\nr2: B -> A rate 1\nr3: A -> 2 A rate 1\n"
            "kinetics powerlaw\norder r1: A=1\norder r2: B=1\n")
    with pytest.raises(MissingKineticsRowError, match="r3"):
        parse_crn(text)


def test_parse_error_carries_line_number():
    try:
        parse_crn("species A B\nr1: A -> B rate 1\nr1: B -> A rate 1\n"
                  "kinetics massaction\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a ParseError")


@pytest.mark.parametrize("name", ["re1_powerlaw.crn", "mm_polypl.crn",
                                  "hill_single.crn", "counterexample.crn"])
def test_round_trip(name):
    net, kin = parse_crn(data_path(name).read_text())
    net2, kin2 = parse_crn(render_crn(net, kin))
    assert net2.species == net.species
    assert net2.y == net.y
    assert net2.ia == net.ia
    assert [r.label for r in net2.reactions] == [r.label for r in net.reactions]
    assert np.array_equal(kin2.rates, kin.rates)
    if isinstance(kin, cb.PowerLawKinetics):
        assert np.array_equal(kin2.orders, kin.orders)
        assert kin2.exact_orders == kin.exact_orders
    elif isinstance(kin, cb.PolyPLKinetics):
        for a, b in zip(kin2.term_orders, kin.term_orders):
            assert np.array_equal(a, b)
        for a, b in zip(kin2.term_coeffs, kin.term_coeffs):
            assert np.array_equal(a, b)
    elif isinstance(kin, cb.HillKinetics):
        assert np.array_equal(kin2.orders, kin.orders)
        assert np.array_equal(kin2.dissoc, kin.dissoc)


def test_round_trip_massaction_becomes_powerlaw():
    net, kin = parse_crn(data_path("re1_massaction.crn").read_text())
    net2, kin2 = parse_crn(render_crn(net, kin))
    assert np.array_equal(kin2.orders, kin.orders)
    assert cb.classify(kin2, net2).mass_action is True


_TWO = "species A B\nr1: A -> B rate 1\n"
_DIGITS = "1" * 5000
_PADDED_ONE = "0" * 5000 + "1"  # 1 as a float, but more digits than int() reads

# One malformed input per `raise` of the parser, plus the order of the checks
# within one kinetics line: (text, exception class, message, line).
PARSE_ERRORS = {
    "number": (_TWO + "kinetics powerlaw\norder r1: A=x\n",
               ParseError, "expected a number, got 'x'", 4),
    "number-in-parentheses": (_TWO + "kinetics powerlaw\norder r1: A=(1, 2)\n",
                              ParseError, "expected a number, got '(1, 2)'", 4),
    "rate-not-a-number": ("species A B\nr1: A -> B rate x\nkinetics massaction\n",
                          ParseError, "expected a number, got 'x'", 2),
    "empty-complex": ("species A B\nr1:  -> B rate 1\nkinetics massaction\n",
                      ParseError, "empty complex", 2),
    "stoichiometry-zero-denominator": (
        "species A B\nr1: 1/0 A -> B rate 1\nkinetics massaction\n",
        ParseError, "bad stoichiometric coefficient '1/0'", 2),
    "stoichiometry-word": ("species A B\nr1: x A -> B rate 1\nkinetics massaction\n",
                           ParseError, "bad stoichiometric coefficient 'x'", 2),
    "malformed-complex-term": ("species A B\nr1: 2 A C -> B rate 1\nkinetics massaction\n",
                               ParseError, "malformed complex term '2 A C'", 2),
    "unknown-species-in-complex": ("species A B\nr1: A -> C rate 1\nkinetics massaction\n",
                                   UnknownSpeciesError, "unknown species 'C'", 2),
    "negative-stoichiometry": ("species A B\nr1: -1 A -> B rate 1\nkinetics massaction\n",
                               ParseError, "negative stoichiometric coefficient for A", 2),
    "order-entry-without-value": (_TWO + "kinetics powerlaw\norder r1: A\n",
                                  ParseError, "expected name=value, got 'A'", 4),
    "order-trailing-comma": (_TWO + "kinetics powerlaw\norder r1: A=1,\n",
                             ParseError, "expected name=value, got ''", 4),
    "order-unknown-species": (_TWO + "kinetics powerlaw\norder r1: C=1\n",
                              UnknownSpeciesError, "unknown species 'C'", 4),
    "order-species-twice": (_TWO + "kinetics powerlaw\norder r1: A=1, A=2\n",
                            ParseError, "species A assigned twice", 4),
    "term-species-twice": (_TWO + "kinetics polypl\nterm r1 coeff 1: B=1, B=2\n",
                           ParseError, "species B assigned twice", 4),
    "term-unknown-species": (_TWO + "kinetics polypl\nterm r1 coeff 1: C=1\n",
                             UnknownSpeciesError, "unknown species 'C'", 4),
    "hill-entry-without-value": (_TWO + "kinetics hill\nhill r1: A\n",
                                 ParseError, "expected name=(f=..., d=...), got 'A'", 4),
    # refused as on order and term lines
    "hill-species-twice": (_TWO + "kinetics hill\nhill r1: A=(f=1, d=1), A=(f=2, d=3)\n",
                           ParseError, "species A assigned twice", 4),
    "hill-unknown-species": (_TWO + "kinetics hill\nhill r1: C=(f=1, d=1)\n",
                             UnknownSpeciesError, "unknown species 'C'", 4),
    "hill-malformed-entry": (_TWO + "kinetics hill\nhill r1: A=(f=1)\n",
                             ParseError, "malformed hill entry '(f=1)'", 4),
    "hill-entry-not-a-number": (_TWO + "kinetics hill\nhill r1: A=(f=x, d=1)\n",
                                ParseError, "expected a number, got 'x'", 4),
    "duplicate-species": ("species A A\n", ParseError, "duplicate species 'A'", 1),
    # a complex would read such a name as a number or split it at its `+`
    **{f"species-named-{name}": (f"species A {token}\n", ParseError,
                                 f"species name {token!r} reads as a number or contains +", 1)
       for name, token in (("integer", "2"), ("decimal", ".5"), ("exponent-head", "1e"),
                           ("signed-exponent-head", "-2.5E"), ("rational", "3/2"),
                           ("zero-denominator", "1/0"), ("exponent", "1e5"),
                           ("plus", "A+B"), ("signed", "+2"), ("lone-plus", "+"))},
    "species-without-names": ("species\n", ParseError, "species line declares no names", 1),
    "second-species-line-without-names": (
        "species A B\nspecies\nr1: A -> B rate 1\nkinetics massaction\n",
        ParseError, "species line declares no names", 2),
    "second-kinetics-block": (_TWO + "kinetics massaction\nkinetics powerlaw\n",
                              ParseError, "second kinetics block", 4),
    "unknown-family": (_TWO + "kinetics foo\n", ParseError,
                       "expected: kinetics massaction|powerlaw|polypl|hill", 3),
    "kinetics-without-family": (_TWO + "kinetics\n", ParseError,
                                "expected: kinetics massaction|powerlaw|polypl|hill", 3),
    "order-wrong-family": (_TWO + "kinetics massaction\norder r9: C\n", ParseError,
                           "order lines require `kinetics powerlaw` first", 4),
    "order-unknown-reaction": (_TWO + "kinetics powerlaw\norder r9: C\n", ParseError,
                               "order line for unknown reaction 'r9'", 4),
    "order-duplicate-line": (_TWO + "kinetics powerlaw\norder r1: A=1\norder r1: C\n",
                             ParseError, "duplicate order line for 'r1'", 5),
    "term-wrong-family": (_TWO + "kinetics powerlaw\nterm r1: C\n", ParseError,
                          "term lines require `kinetics polypl` first", 4),
    "term-pattern": (_TWO + "kinetics polypl\nterm r9: C\n", ParseError,
                     "expected: term <label> coeff <a>: S=val, ...", 4),
    "term-unknown-reaction": (_TWO + "kinetics polypl\nterm r9 coeff 0: C\n", ParseError,
                              "term line for unknown reaction 'r9'", 4),
    "term-coefficient-not-a-number": (_TWO + "kinetics polypl\nterm r1 coeff q: C\n",
                                      ParseError, "expected a number, got 'q'", 4),
    "term-coefficient": (_TWO + "kinetics polypl\nterm r1 coeff 0: C\n", ParseError,
                         "poly-PL term coefficients must be positive", 4),
    "hill-wrong-family": (_TWO + "kinetics polypl\nhill r9: C\n", ParseError,
                          "hill lines require `kinetics hill` first", 4),
    "hill-unknown-reaction": (_TWO + "kinetics hill\nhill r9: C\n", ParseError,
                              "hill line for unknown reaction 'r9'", 4),
    "hill-duplicate-line": (_TWO + "kinetics hill\nhill r1: A=(f=1, d=1)\nhill r1: C\n",
                            ParseError, "duplicate hill line for 'r1'", 5),
    "unrecognized-statement": ("species A B\nfoo bar\n", ParseError,
                               "unrecognized statement 'foo bar'", 2),
    "reaction-after-kinetics": ("species A B\nkinetics massaction\nr1: A -> B rate 1\n",
                                ParseError,
                                "reaction lines must precede the kinetics block", 3),
    "duplicate-reaction-label": (_TWO + "r1: B -> A rate 1\nkinetics massaction\n",
                                 ParseError, "duplicate reaction label 'r1'", 3),
    "reaction-without-arrow": ("species A B\nr1: A B rate 1\nkinetics massaction\n",
                               ParseError, "reaction needs `->`", 2),
    "reaction-without-rate": ("species A B\nr1: A -> B\nkinetics massaction\n",
                              ParseError, "reaction needs `rate <positive number>`", 2),
    "negative-rate": ("species A B\nr1: A -> B rate -1/2\nkinetics massaction\n",
                      NegativeRateError, "rate for r1 must be positive", 2),
    "rate-overflows-a-float": ("species A B\nr1: A -> B rate 1e999\nkinetics massaction\n",
                               ParseError, "number '1e999' overflows a float", 2),
    "order-overflows-a-float": (_TWO + "kinetics powerlaw\norder r1: A=1e999\n",
                                ParseError, "number '1e999' overflows a float", 4),
    "rate-underflows-a-float": ("species A B\nr1: A -> B rate 1e-999\nkinetics massaction\n",
                                ParseError, "number '1e-999' underflows a float", 2),
    "order-underflows-a-float": (_TWO + "kinetics powerlaw\norder r1: A=1e-999\n",
                                 ParseError, "number '1e-999' underflows a float", 4),
    # one grammar for every number: rates, orders, term coefficients, Hill
    # constants and stoichiometric coefficients
    "rate-zero-denominator": ("species A B\nr1: A -> B rate 3/0\nkinetics massaction\n",
                              ParseError, "number '3/0' has a zero denominator", 2),
    "order-zero-denominator": (_TWO + "kinetics powerlaw\norder r1: A=3/0\n",
                               ParseError, "number '3/0' has a zero denominator", 4),
    "term-coefficient-zero-denominator": (_TWO + "kinetics polypl\nterm r1 coeff 3/0: A=1\n",
                                          ParseError, "number '3/0' has a zero denominator", 4),
    "hill-constant-zero-denominator": (_TWO + "kinetics hill\nhill r1: A=(f=1, d=3/0)\n",
                                       ParseError, "number '3/0' has a zero denominator", 4),
    "rate-5000-digits": (f"species A B\nr1: A -> B rate {_DIGITS}\nkinetics massaction\n",
                         ParseError, f"number {_DIGITS!r} overflows a float", 2),
    "rate-more-digits-than-int-reads": (
        f"species A B\nr1: A -> B rate {_PADDED_ONE}\nkinetics massaction\n",
        ParseError, f"number {_PADDED_ONE!r} has too many digits", 2),
    **{f"stoichiometry-{name}": (f"species A B\nr1: {token} A -> B rate 1\nkinetics massaction\n",
                                 ParseError, f"bad stoichiometric coefficient {token!r}", 2)
       for name, token in (("infinity", "Infinity"), ("underscore", "1_000"),
                           ("overflow", "1e400"), ("underflow", "1e-400"))},
    # zeros written as decimals are zeros, not underflows
    "zero-exponent-rate": ("species A B\nr1: A -> B rate 0e5\nkinetics massaction\n",
                           NegativeRateError, "rate for r1 must be positive", 2),
    "zero-decimal-rate": ("species A B\nr1: A -> B rate 0.0\nkinetics massaction\n",
                          NegativeRateError, "rate for r1 must be positive", 2),
    "no-species": ("# nothing\n", ParseError, "no species declared", None),
    "no-reactions": ("species A B\nkinetics massaction\n", ParseError,
                     "no reactions declared", None),
    "no-kinetics-block": (_TWO, ParseError, "no kinetics block", None),
    "missing-order-line": (_TWO + "r2: B -> A rate 1\nkinetics powerlaw\norder r1: A=1\n",
                           MissingKineticsRowError, "no order line for reaction 'r2'", None),
    "missing-term-line": (_TWO + "kinetics polypl\n", MissingKineticsRowError,
                          "no term line for reaction 'r1'", None),
    "missing-hill-line": (_TWO + "kinetics hill\n", MissingKineticsRowError,
                          "no hill line for reaction 'r1'", None),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_table(case):
    text, kind, message, line = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as info:
        parse_crn(text)
    assert type(info.value) is kind
    assert info.value.line == line
    assert str(info.value) == message + ("" if line is None else f" (line {line})")


F = Fraction

# Valid inputs of every family: what they parse to and how they render.
PARSED = {
    "powerlaw-rational-orders": (
        "species A B\nr1: A -> B rate 3/2\nr2: B -> A rate 2\nkinetics powerlaw\n"
        "order r1: A=1/2\norder r2: B=-2/3, A=1\n",
        {"complexes": [(1, 0), (0, 1)], "reactions": [(0, 1, "r1"), (1, 0, "r2")],
         "rates": [1.5, 2.0],
         "orders": [[0.5, 0.0], [1.0, -2 / 3]],
         "exact_orders": ((F(1, 2), F(0)), (F(1), F(-2, 3)))},
        "species A B\nr1: A -> B rate 3/2\nr2: B -> A rate 2\nkinetics powerlaw\n"
        "order r1: A=1/2\norder r2: A=1, B=-2/3\n"),
    "powerlaw-decimal-orders-and-stoichiometry": (
        "# decimal orders leave no exact copy\n"
        "species A B   # two species\n"
        "r1: 0.5 A -> B rate 0.25\nr2: B -> 0.5 A rate 1\n\nkinetics powerlaw\n"
        "order r1: A=0.5\norder r2: B=1.25e0   # exponent form\n",
        {"complexes": [(F(1, 2), 0), (0, 1)], "reactions": [(0, 1, "r1"), (1, 0, "r2")],
         "rates": [0.25, 1.0],
         "orders": [[0.5, 0.0], [0.0, 1.25]],
         "exact_orders": None},
        "species A B\nr1: 1/2 A -> B rate 0.25\nr2: B -> 1/2 A rate 1\nkinetics powerlaw\n"
        "order r1: A=0.5\norder r2: B=1.25\n"),
    "polypl-repeated-terms": (
        "species A B\nr1: A -> B rate 1\nr2: B -> A rate 2\nkinetics polypl\n"
        "term r1 coeff 1/2: A=1\nterm r1 coeff 3: A=2, B=1/3\nterm r2 coeff 1: B=1\n",
        {"complexes": [(1, 0), (0, 1)], "reactions": [(0, 1, "r1"), (1, 0, "r2")],
         "rates": [1.0, 2.0],
         "term_coeffs": [[0.5, 3.0], [1.0]],
         "term_orders": [[[1.0, 0.0], [2.0, 1 / 3]], [[0.0, 1.0]]],
         "exact_term_coeffs": ((F(1, 2), F(3)), (F(1),)),
         "exact_term_orders": (((F(1), F(0)), (F(2), F(1, 3))), ((F(0), F(1)),))},
        "species A B\nr1: A -> B rate 1\nr2: B -> A rate 2\nkinetics polypl\n"
        "term r1 coeff 1/2: A=1\nterm r1 coeff 3: A=2, B=1/3\nterm r2 coeff 1: B=1\n"),
    "polypl-decimal-terms": (
        "species A B\nr1: A -> B rate 1\nr2: B -> A rate 1\nkinetics polypl\n"
        "term r1 coeff 0.5: A=1\nterm r2 coeff 1: B=0.5\nterm r2 coeff 2:\n",
        {"complexes": [(1, 0), (0, 1)], "reactions": [(0, 1, "r1"), (1, 0, "r2")],
         "rates": [1.0, 1.0],
         "term_coeffs": [[0.5], [1.0, 2.0]],
         "term_orders": [[[1.0, 0.0]], [[0.0, 0.5], [0.0, 0.0]]],
         "exact_term_coeffs": None, "exact_term_orders": None},
        "species A B\nr1: A -> B rate 1\nr2: B -> A rate 1\nkinetics polypl\n"
        "term r1 coeff 0.5: A=1.0\nterm r2 coeff 1.0: B=0.5\nterm r2 coeff 2.0: \n"),
    "hill-two-species": (
        "species A B\nr1: A + B -> 2 B rate 1\nr2: B -> A rate 1/2\nkinetics hill\n"
        "hill r1: A=(f=1, d=0.5), B=(f=2, d=3/2)\nhill r2: B=( f = 1 , d = 1 )\n",
        {"complexes": [(1, 1), (0, 2), (0, 1), (1, 0)],
         "reactions": [(0, 1, "r1"), (2, 3, "r2")],
         "rates": [1.0, 0.5],
         "orders": [[1.0, 2.0], [0.0, 1.0]],
         "dissoc": [[0.5, 1.5], [0.0, 1.0]]},
        "species A B\nr1: A + B -> 2 B rate 1\nr2: B -> A rate 1/2\nkinetics hill\n"
        "hill r1: A=(f=1.0, d=0.5), B=(f=2.0, d=1.5)\nhill r2: B=(f=1.0, d=1.0)\n"),
    "massaction": (
        "species X Y   # comment\nr1: 2 X -> Y rate 3\nr2: Y -> 0 rate 1/4\n"
        "kinetics massaction\n",
        {"complexes": [(2, 0), (0, 1), (0, 0)], "reactions": [(0, 1, "r1"), (1, 2, "r2")],
         "rates": [3.0, 0.25],
         "orders": [[2.0, 0.0], [0.0, 1.0]],
         "exact_orders": ((F(2), F(0)), (F(0), F(1)))},
        "species X Y\nr1: 2 X -> Y rate 3\nr2: Y -> 0 rate 1/4\nkinetics powerlaw\n"
        "order r1: X=2\norder r2: Y=1\n"),
}


def _parsed_fields(net, kin) -> dict:
    fields = {"complexes": [cpx.coeffs for cpx in net.complexes],
              "reactions": [(rx.reactant, rx.product, rx.label) for rx in net.reactions],
              "rates": kin.rates.tolist()}
    if isinstance(kin, cb.PolyPLKinetics):
        fields.update(term_coeffs=[a.tolist() for a in kin.term_coeffs],
                      term_orders=[f.tolist() for f in kin.term_orders],
                      exact_term_coeffs=kin.exact_term_coeffs,
                      exact_term_orders=kin.exact_term_orders)
    elif isinstance(kin, cb.HillKinetics):
        fields.update(orders=kin.orders.tolist(), dissoc=kin.dissoc.tolist())
    else:
        fields.update(orders=kin.orders.tolist(), exact_orders=kin.exact_orders)
    return fields


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    elif value is not None:
        yield value


@pytest.mark.parametrize("case", sorted(PARSED))
def test_parsed_and_rendered_table(case):
    text, expected, rendered = PARSED[case]
    net, kin = parse_crn(text)
    fields = _parsed_fields(net, kin)
    assert fields == expected
    # The exact copies hold Fractions, not equal floats or ints.
    for key in ("complexes", "exact_orders", "exact_term_coeffs", "exact_term_orders"):
        assert all(type(v) is Fraction for v in _leaves(fields.get(key))), key
    assert render_crn(net, kin) == rendered


def test_render_refuses_rational_kinetics():
    net, kin = parse_crn(data_path("hill_single.crn").read_text())
    with pytest.raises(ValueError, match="power-law, poly-PL and hill"):
        render_crn(net, cb.hill_as_rational(kin))


# Entries of the three kinds a kinetics reads: exact Fractions, integral
# floats (which count as exact) and decimals (which leave no exact copy).
_POSITIVE = st.one_of(
    st.fractions(Fraction(1, 12), Fraction(20), max_denominator=12),
    st.integers(1, 9).map(float),
    st.floats(0.05, 20).filter(lambda v: not v.is_integer()))
_ORDER = st.one_of(_POSITIVE, _POSITIVE.map(lambda v: -v), st.just(0))
_ROUND_TRIP_NET = cb.build_network(["A", "B"], [[1, 0], [0, 1], [1, 1]],
                                   [(0, 1), (1, 2), (2, 0)])


def _copies(kin) -> dict:
    """Every float array of `kin` as bytes, and every exact copy."""
    fields = {"rates": kin.rates.tobytes(), "exact_rates": kin.exact_rates}
    if isinstance(kin, cb.PolyPLKinetics):
        fields.update(term_coeffs=[a.tobytes() for a in kin.term_coeffs],
                      term_orders=[f.tobytes() for f in kin.term_orders],
                      exact_term_coeffs=kin.exact_term_coeffs,
                      exact_term_orders=kin.exact_term_orders)
    elif isinstance(kin, cb.HillKinetics):
        fields.update(orders=kin.orders.tobytes(), dissoc=kin.dissoc.tobytes())
    else:
        fields.update(orders=kin.orders.tobytes(), exact_orders=kin.exact_orders)
    return fields


@given(family=st.sampled_from(["powerlaw", "polypl", "hill"]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_render_round_trip_keeps_floats_and_exact_copies(family, data):
    rates = data.draw(st.lists(_POSITIVE, min_size=3, max_size=3))
    row = st.lists(_ORDER, min_size=2, max_size=2)
    if family == "powerlaw":
        kin = cb.power_law(data.draw(st.lists(row, min_size=3, max_size=3)), rates)
    elif family == "polypl":
        terms = st.lists(st.tuples(_POSITIVE, row), min_size=1, max_size=3)
        kin = cb.poly_pl(data.draw(st.lists(terms, min_size=3, max_size=3)), rates)
    else:
        orders = data.draw(st.lists(row, min_size=3, max_size=3))
        dissoc = [[data.draw(_POSITIVE) if f else 0 for f in r] for r in orders]
        kin = cb.hill(orders, dissoc, rates)
    net, again = parse_crn(render_crn(_ROUND_TRIP_NET, kin))
    assert net.y == _ROUND_TRIP_NET.y and type(again) is type(kin)
    assert _copies(again) == _copies(kin)


# Tokens of the number grammar: an integer, p/q, or a decimal with an
# optional exponent, optionally signed; up to 40 digits, exponents within 300.
_DIGITS_40 = st.text("0123456789", min_size=1, max_size=40)
_EXPONENT = st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                      st.integers(0, 300))
_UNSIGNED = st.one_of(
    _DIGITS_40,
    st.builds("{}/{}".format, _DIGITS_40, _DIGITS_40),
    st.builds("{}.{}{}".format, _DIGITS_40, st.text("0123456789", max_size=40),
              st.one_of(st.just(""), _EXPONENT)),
    st.builds(".{}{}".format, _DIGITS_40, st.one_of(st.just(""), _EXPONENT)),
    st.builds("{}{}".format, _DIGITS_40, _EXPONENT))
_GRAMMAR_TOKEN = st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), _UNSIGNED)


def _meant(token: str) -> Fraction | None:
    """The value `token` means, or None when it must be refused: a zero
    denominator, or a nonzero value that a float cannot hold."""
    try:
        value = Fraction(token)
    except ZeroDivisionError:
        return None
    try:
        return value if value == 0 or float(value) != 0 else None
    except OverflowError:
        return None


_FLUX_SYSTEM = cb.KineticSystem(*parse_crn(data_path("re1_massaction.crn").read_text()))


@given(token=_GRAMMAR_TOKEN)
@settings(max_examples=300, deadline=None)
def test_every_reader_takes_a_grammar_token_as_written(token, tmp_path_factory):
    """Rates, orders, stoichiometric coefficients and --flux-space rows read
    one token to the same value: the Fraction it writes, or for a decimal
    rate or order the correctly rounded float of it."""
    meant = _meant(token)
    decimal = any(c in token for c in ".eE")
    readings = {
        "rate": (f"species A B\nr1: A -> B rate {token}\nkinetics massaction\n",
                 lambda net, kin: kin.rates[0] if decimal else kin.exact_rates[0]),
        "order": (_TWO + f"kinetics powerlaw\norder r1: A={token}\n",
                  lambda net, kin: kin.orders[0, 0] if decimal else kin.exact_orders[0][0]),
        "coefficient": (f"species A B\nr1: {token} A -> B rate 1\nr2: B -> A rate 1\n"
                        "kinetics massaction\n",
                        lambda net, kin: net.complexes[0].coeffs[0]),
    }
    for what, (text, read) in readings.items():
        if meant is not None and ((what == "rate" and meant <= 0)
                                  or (what == "coefficient" and meant < 0)):
            continue  # refused for its sign, not its spelling
        if meant is None:
            with pytest.raises(ParseError):
                parse_crn(text)
            continue
        expected = float(meant) if decimal and what != "coefficient" else meant
        got = read(*parse_crn(text))
        assert got == expected and type(got) in (float, np.float64, Fraction), what
    path = tmp_path_factory.getbasetemp() / "flux-row.txt"
    path.write_text(f"{token} 1 0\n")
    if meant is None:
        with pytest.raises(cb.CrnError, match="line 1: not a row of numbers"):
            _resolve_flux_basis(str(path), _FLUX_SYSTEM)
    else:
        assert _resolve_flux_basis(str(path), _FLUX_SYSTEM)[0, 0] == float(meant)


_COMPLEX_SPECIES = {"A": 0, "B": 1}


@pytest.mark.parametrize("text, names, want", [
    ("1e+2 A", "A B", {"A": 100}), ("+2 A", "A B", {"A": 2}),
    ("+1E+1 B + A", "A B", {"A": 1, "B": 10}), (".5e+1 B", "A B", {"B": 5}),
    ("A + +2 B", "A B", {"A": 1, "B": 2}), ("A+B", "A B", {"A": 1, "B": 1}),
    ("2 A + B", "A B", {"A": 2, "B": 1}), ("A +2 B", "A B", {"A": 1, "B": 2}),
    # a species named like a number, or like the head of an exponent, would
    # make the reading depend on the names; the species line refuses it
    ("1 +2 B", "A B 1", None), ("1e+2 A", "A 1e", None), ("2 1e+2 A", "A 1e", None),
])
def test_a_plus_that_signs_a_coefficient_or_its_exponent_is_part_of_it(text, names, want):
    if want is None:
        with pytest.raises(ParseError, match=r"^species name .* \(line 1\)$"):
            parse_crn(f"species {names}\nr1: {text} -> 0 rate 1\nkinetics massaction\n")
        return
    names = names.split()
    got = _parse_complex(text, {name: i for i, name in enumerate(names)}, 1)
    assert got == tuple(Fraction(want.get(name, 0)) for name in names)


def _split_reading(text, species_index):
    """A complex read by a split at every `+`, as the parser read it before
    a `+` could sign a coefficient or its exponent; None where refused."""
    coeffs = [Fraction(0)] * len(species_index)
    if text.strip() == "0":
        return tuple(coeffs)
    for part in text.split("+"):
        tokens = part.split()
        if len(tokens) not in (1, 2) or tokens[-1] not in species_index:
            return None
        try:
            coeff = cb.rational.frac(tokens[0]) if len(tokens) == 2 else Fraction(1)
        except ValueError:
            return None
        if coeff < 0:
            return None
        coeffs[species_index[tokens[-1]]] += coeff
    return tuple(coeffs)


_COMPLEX_PIECE = st.sampled_from(["A", "B", "1e", "2", "+", " + ", " ", "+2", "2 ", "1e+2",
                                  "1E", "3/2 ", "0.5", "+.5e+1", "e", "-"])


@given(pieces=st.lists(_COMPLEX_PIECE, min_size=1, max_size=8))
@settings(max_examples=400, deadline=None)
def test_complexes_that_a_split_at_every_plus_reads_read_the_same(pieces):
    """Tokens such as `1e` and `2` make the split and the number grammar
    compete for a `+`: wherever the split reads a complex, the parser reads
    the same coefficients. Species of those names, which would make the
    reading depend on the names, are refused."""
    with pytest.raises(ParseError, match=r"^species name '1e' .* \(line 1\)$"):
        parse_crn("species A B 1e 2\n")
    text = "".join(pieces)
    if not text.strip():
        return
    old = _split_reading(text, _COMPLEX_SPECIES)
    try:
        new = _parse_complex(text, _COMPLEX_SPECIES, 1)
    except ParseError:
        new = None
    if old is not None:
        assert new == old


# Pieces of malformed and well-formed network files; the spellings the number
# grammar refuses are among the tokens. Huge exponents are left to the
# subprocess test in test_rational.py, so that a regression there fails
# instead of hanging this one.
_FUZZ_TOKEN = st.one_of(
    _GRAMMAR_TOKEN,
    st.sampled_from(["Infinity", "inf", "nan", "1_000", "3/0", "0/0", "1e400", "1e-400",
                     "0e999999999", "1" * 5000, "0" * 5000 + "1", "٣", "½", "0x10", "1,5",
                     "1/", "/2", ".", "e5", "-", "(", ")", "=", "", "A", "B"]),
    st.text(" 0123456789./eE+-_=(),:#AB", max_size=12))
_FUZZ_LINE = st.one_of(
    st.sampled_from(["species A B", "species A", "species", "kinetics massaction",
                     "kinetics powerlaw", "kinetics polypl", "kinetics hill", "kinetics"]),
    st.builds("r{}: {} A + {} B -> {} B rate {}".format, st.integers(1, 3),
              *[_FUZZ_TOKEN] * 4),
    st.builds("r{}: {} -> {} rate {}".format, st.integers(1, 3),
              *[st.sampled_from(["0", "A", "B", "2 A", "A + B", "1/2 B"])] * 2, _FUZZ_TOKEN),
    st.builds("order r{}: A={}, B={}".format, st.integers(1, 3), _FUZZ_TOKEN, _FUZZ_TOKEN),
    st.builds("term r{} coeff {}: A={}".format, st.integers(1, 3), _FUZZ_TOKEN, _FUZZ_TOKEN),
    st.builds("hill r{}: A=(f={}, d={})".format, st.integers(1, 3), _FUZZ_TOKEN, _FUZZ_TOKEN),
    st.text(" 0123456789./eE+-_=(),:#ABr>", max_size=30))


@given(lines=st.lists(_FUZZ_LINE, max_size=8))
@settings(max_examples=400, deadline=None)
def test_parse_crn_raises_only_its_own_errors(lines):
    try:
        parse_crn("\n".join(lines))
    except (ParseError, cb.CrnError):
        pass
