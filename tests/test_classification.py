"""`classify` reads the order rows alone: the same flags as the T-backed
classification it replaced, and no T-matrix build behind them."""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnbalance as cb
from crnbalance import equilibria, kinetic_matrices
from crnbalance.fileformat import parse_crn
from crnbalance.kinetics import (KineticsClassification, HillKinetics, PolyPLKinetics,
                                 PowerLawKinetics, _ROW_TOL, _rows_equal, normalize_poly_pl)

from conftest import (bench_ladder, bench_workloads, data_path, random_network,
                      random_weakly_reversible_network)


# -- the oracle: `classify` as it was when it read factor span surjectivity
# from the T matrices, verbatim, with the helpers it called

def _parent_rows_equal(kin, q1: int, q2: int) -> bool:
    if isinstance(kin, PowerLawKinetics) and kin.exact_orders is not None:
        return kin.exact_orders[q1] == kin.exact_orders[q2]
    return bool(np.max(np.abs(kin.orders[q1] - kin.orders[q2])) <= _ROW_TOL)


def _parent_is_pl_rdk(kin, net) -> bool:
    for _, qs in net.reactions_by_reactant().items():
        for other in qs[1:]:
            if not _parent_rows_equal(kin, qs[0], other):
                return False
    return True


def _parent_is_mass_action(kin, net, reactions) -> bool:
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


def _parent_poly_pl_is_cf(kin, net) -> bool:
    norm = normalize_poly_pl(kin)
    coeffs, orders = norm.exact_term_coeffs, norm.exact_term_orders

    def same(q0: int, q: int) -> bool:
        if coeffs is not None:
            return coeffs[q0] == coeffs[q] and orders[q0] == orders[q]
        return (np.max(np.abs(norm.term_coeffs[q0] - norm.term_coeffs[q])) <= _ROW_TOL
                and np.max(np.abs(norm.term_orders[q0] - norm.term_orders[q])) <= _ROW_TOL)

    return all(same(qs[0], q) for qs in net.reactions_by_reactant().values() for q in qs[1:])


def _parent_distinct_columns(cols, exact) -> bool:
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


def _parent_classify(kin, net, t=None) -> KineticsClassification:
    if isinstance(kin, PowerLawKinetics):
        orders = kin.orders
        rdk = _parent_is_pl_rdk(kin, net)
        fss = None
        if t is not None and rdk:
            fss = _parent_distinct_columns(t.t, t.exact_t)
        return KineticsClassification(
            pl_rdk=rdk,
            factor_span_surjective=fss,
            pl_nik=bool(np.all(orders >= 0)),
            por=bool(np.all(np.any(orders < 0, axis=0))),
            cf=rdk,
            mass_action=_parent_is_mass_action(kin, net, range(net.num_reactions)),
        )
    if isinstance(kin, PolyPLKinetics):
        stacked = np.vstack(kin.term_orders)
        return KineticsClassification(
            pl_nik=bool(np.all(stacked >= 0)),
            por=bool(np.all(np.any(stacked < 0, axis=0))),
            cf=_parent_poly_pl_is_cf(kin, net),
        )
    if isinstance(kin, HillKinetics):
        return KineticsClassification(por=False)
    return KineticsClassification(
        por=bool(np.any(kin.numer_orders < 0)))


def _parent_t_matrices(net, kin):
    """The T matrices the parent classified with: None unless the kinetics is
    reactant-determined power law, else T and its exact copy `exact_t`, one
    column per reactant complex from the order row of its first reaction."""
    if not isinstance(kin, PowerLawKinetics) or not _parent_is_pl_rdk(kin, net):
        return None
    t = cb.build_t_matrices(net, kin)
    by_reactant = net.reactions_by_reactant()
    rows = [by_reactant[ci][0] for ci in net.reactant_complexes]
    exact_t = None
    if kin.exact_orders is not None:
        exact_t = tuple(zip(*(kin.exact_orders[q] for q in rows)))
    return SimpleNamespace(t=t.t, exact_t=exact_t)


# -- the oracle of the set-based test of exact rows: factor span
# surjectivity as `classify` read it from its order rows, pair by pair

def _pairwise_factor_span_surjective(kin, net) -> bool:
    firsts = [qs[0] for qs in net.reactions_by_reactant().values()]
    return not any(_rows_equal(kin, a, b) for a, b in combinations(firsts, 2))


def _check(net, kin) -> KineticsClassification:
    """`classify` equals the T-backed oracle and the pairwise reading of its
    own rows, flag for flag and type for type, and a system builds T
    matrices exactly for PL-RDK kinetics."""
    new = cb.classify(kin, net)
    old = _parent_classify(kin, net, _parent_t_matrices(net, kin))
    assert new == old and repr(new) == repr(old), (new, old)
    if new.pl_rdk:
        assert type(new.factor_span_surjective) is bool
        assert new.factor_span_surjective is _pairwise_factor_span_surjective(kin, net)
    system = cb.KineticSystem(net, kin)
    assert system.classification == new
    assert (system.t_matrices is None) == (new.pl_rdk is not True)
    return new


# -- systems: random kinetics on the conftest networks

def _order_rows(net, rng, kind: str, per: str):
    """One order row per reaction, shared by the reactions of a reactant
    complex when `per` is "reactant": small integers (so kinetic complexes
    repeat), p/q Fractions, or non-integral floats, some of them 1e-13
    apart."""
    keys = net.reactant_complexes if per == "reactant" else range(net.num_reactions)
    rows = {}
    for key in keys:
        ints = rng.integers(-1, 2, size=net.num_species)
        if kind == "int":
            rows[key] = [int(v) for v in ints]
        elif kind == "frac":
            rows[key] = [Fraction(int(v), int(rng.integers(1, 3))) for v in ints]
        else:
            rows[key] = [float(v) + 0.5 + (1e-13 if rng.random() < 0.3 else 0.0)
                         for v in ints]
    if per == "reactant":
        return [rows[rx.reactant] for rx in net.reactions]
    return [rows[q] for q in range(net.num_reactions)]


def _random_kinetics(net, rng, kind: str):
    rates = [1] * net.num_reactions
    if kind == "mass":
        return cb.mass_action_from(net, rates)
    if kind == "polypl":
        # exact coefficients, or floats 1e-13 apart
        coeffs = [Fraction(1, 2), 1] if rng.random() < 0.5 else [0.5, 0.5 + 1e-13]

        def terms():
            return [(coeffs[int(rng.integers(0, 2))],
                     tuple(int(v) for v in rng.integers(0, 2, size=net.num_species)))
                    for _ in range(int(rng.integers(1, 3)))]

        # the reactions of one reactant complex often share their terms
        shared = {ci: terms() for ci in net.reactant_complexes}
        return cb.poly_pl([shared[rx.reactant] if rng.random() < 0.7 else terms()
                           for rx in net.reactions], rates)
    order_kind, per = kind.split("-")
    return cb.power_law(_order_rows(net, rng, order_kind, per), rates)


KINDS = ["mass", "polypl"] + [f"{k}-{p}" for k in ("int", "frac", "float")
                              for p in ("reactant", "reaction")]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_classify_equals_the_t_backed_classification_on_random_networks(seed, kind, wr):
    rng = np.random.default_rng(seed)
    net = (random_weakly_reversible_network if wr else random_network)(rng)
    _check(net, _random_kinetics(net, rng, kind))


def test_classify_equals_the_t_backed_classification(request):
    systems = [request.getfixturevalue(name) for name in (
        "re1_powerlaw", "re1_massaction", "counterexample", "mm_polypl", "mm_rational",
        "toy_pl_tik", "toy_polypl")]
    systems += [parse_crn(path.read_text()) for path in sorted(data_path("").glob("*.crn"))]
    workloads = bench_workloads()
    systems += [bench_ladder(seed, r) for seed, r in
                ((3, 12), (5, 12), (7, 12), (2, 24), (0, 40))]
    systems += [workloads.ladder_poly_pl(1, 12), workloads.ladder_hill(1, 8)]
    # a power law that is not reactant determined
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1], [1, 1]], [(0, 1), (0, 2)])
    systems.append((net, cb.power_law([[1, 0], [2, 0]], [1, 1])))
    flags = [_check(net, kin) for net, kin in systems]
    fss = [cls.factor_span_surjective for cls in flags]
    assert True in fss and False in fss and None in fss
    assert any(not kin.exact_orders for _, kin in systems
               if isinstance(kin, PowerLawKinetics))


def test_classification_builds_no_t_matrices(monkeypatch, re1_powerlaw, counterexample,
                                             re1_massaction):
    def refuse(*args):
        raise AssertionError("build_t_matrices called")

    for module in (equilibria, kinetic_matrices, cb):
        monkeypatch.setattr(module, "build_t_matrices", refuse)
    fss = [cb.KineticSystem(net, kin).classification.factor_span_surjective
           for net, kin in (re1_powerlaw, counterexample, re1_massaction)]
    assert fss == [False, True, True]


def test_float_rows_1e13_apart_are_one_kinetic_complex():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    close = cb.power_law([[0.5, 0], [0.5 + 1e-13, 0]], [1, 1])
    assert close.exact_orders is None
    assert cb.classify(close, net).factor_span_surjective is False
    # exact rows 1e-13 apart are distinct
    exact = cb.power_law([[Fraction(1, 2), 0], [Fraction(1, 2) + Fraction(1, 10 ** 13), 0]],
                         [1, 1])
    assert cb.classify(exact, net).factor_span_surjective is True
    assert cb.classify(cb.power_law([[0.5, 0], [0.75, 0]], [1, 1]),
                       net).factor_span_surjective is True


def test_float_rows_are_compared_pair_by_pair_and_exact_rows_in_one_pass(monkeypatch):
    """On a ladder of 40 reactions, exact rows need no pairwise compare past
    the PL-RDK test; the same rows as floats (no exact copy) are told apart
    pair by pair within the tolerance, as the pairwise oracle does."""
    net, kin = bench_ladder(0, 40)
    by_reactant = net.reactions_by_reactant()
    firsts = [qs[0] for qs in by_reactant.values()]
    assert kin.exact_orders is not None and len(firsts) > 20
    pl_rdk_calls = net.num_reactions - len(firsts)
    calls = []
    real = cb.kinetics._rows_equal

    def counted(kin, q1, q2):
        calls.append((q1, q2))
        return real(kin, q1, q2)

    monkeypatch.setattr(cb.kinetics, "_rows_equal", counted)
    assert cb.classify(kin, net).factor_span_surjective is True
    assert len(calls) == pl_rdk_calls
    # two reactant complexes' rows 1e-13 apart are one kinetic complex
    first, second = list(by_reactant.values())[:2]
    for shift, fss in ((None, True), (1e-13, False)):
        rows = kin.orders + 0.5
        if shift is not None:
            rows[second] = rows[first[0]] + shift
        floats = cb.power_law(rows.tolist(), [1] * net.num_reactions)
        assert floats.exact_orders is None
        calls.clear()
        assert _check(net, floats).factor_span_surjective is fss
        assert len(calls) > 2 * pl_rdk_calls  # `classify` runs twice in `_check`


def test_classify_takes_only_the_kinetics_and_the_network(re1_powerlaw):
    net, kin = re1_powerlaw
    with pytest.raises(TypeError):
        cb.classify(kin, net, cb.build_t_matrices(net, kin))
