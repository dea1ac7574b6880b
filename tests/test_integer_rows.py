"""The integer-row exact layer against the conversion-per-call path it replaced.

Networks keep N and Ia as integer rows and T-matrix builds clear their order
rows once; before, every rank, rref and basis converted its Fraction rows and
scaled them again. That path is kept here verbatim as the oracle, and the
benchmark's exact instances (the six `weakly_reversible_network` searches
under the three predicates, and the ladders r = 40, 60 and 80) must give the
same invariants, partitions, witnesses, T ranks and order-subspace bases.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest

import crnbalance as cb
from crnbalance import decomposition, rational
from crnbalance.decomposition import SubnetworkSummary
from crnbalance.network import linkage_classes

from conftest import (bench_ladder, bench_workloads, column_basis,
                      random_weakly_reversible_network)
from test_rational import oracle_positive_kernel_vector, oracle_positive_kernel_vector_int

# `bench/suite.py` SEARCH_ITEMS and SEARCH_PREDICATES
SEARCH_ITEMS = ((0, 10), (1, 11), (2, 12), (3, 10), (4, 11), (5, 12))
PREDICATES = ("independent", "incidence_independent", "bi_independent")
LADDERS = (40, 60, 80)


def _scaled(row):
    scale = lcm(*(v.denominator for v in row))
    return scale, [v.numerator * (scale // v.denominator) for v in row]


def oracle_rref(mat):
    m = [_scaled(row)[1] for row in mat]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
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
    return [[Fraction(v, prev) if v else Fraction(0) for v in row] for row in m], pivots


def oracle_pivot_rows(mat):
    rows = [_scaled(row)[1] for row in rational.matrix(mat)]
    index = list(range(len(rows)))
    found = []
    prev = 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        found.append(index.pop(i))
        pv, *tail = rows.pop(i)
        rows = [[(pv * a - row[0] * b) // prev for a, b in zip(row[1:], tail)]
                for row in rows]
        prev = pv
    return found


def oracle_row_basis(mat):
    m = rational.matrix(mat)
    if not m:
        return []
    return oracle_rref([m[i] for i in oracle_pivot_rows(m)])[0]


def oracle_separator_classes(net, predicate):
    classes = [{q} for q in range(net.num_reactions)]
    for mat in {"independent": [net.n], "incidence_independent": [net.ia],
                "bi_independent": [net.n, net.ia]}[predicate]:
        red, pivots = oracle_rref([list(row) for row in mat])
        for support in ({q for q, v in enumerate(row) if v != 0} for row in red[:len(pivots)]):
            joined = [c for c in classes if c & support]
            classes = [c for c in classes if not c & support] + [set().union(*joined)]
    return sorted(sorted(c) for c in classes)


def oracle_rank(net):
    return len(oracle_pivot_rows([list(row) for row in net.n]))


def oracle_summaries(net, parts, known):
    for part in parts:
        if part not in known:
            sub = cb.subnetwork(net, part)
            n, l, s = sub.num_complexes, len(linkage_classes(sub)), oracle_rank(sub)
            known[part] = SubnetworkSummary(part, n, l, s, n - l - s)
    return tuple(known[part] for part in parts)


def oracle_t_fields(net, kin):
    """(q_tilde, q_hat, exact_s_tilde_basis) of the Fraction build."""
    reactants = net.reactant_complexes
    by_reactant = net.reactions_by_reactant()
    m = net.num_species
    cols = {ci: kin.exact_orders[by_reactant[ci][0]] for ci in reactants}
    comps = linkage_classes(net)
    comp_of = {c: idx for idx, comp in enumerate(comps) for c in comp}
    that = [[cols[ci][si] for ci in reactants] for si in range(m)]
    that += [[Fraction(int(comp_of[ci] == lc)) for ci in reactants] for lc in range(len(comps))]
    pivots = oracle_pivot_rows(that)
    zero = (Fraction(0),) * m
    diffs = [[a - b for a, b in zip(cols.get(rx.product, zero), cols[rx.reactant])]
             for rx in net.reactions]
    return (sum(1 for i in pivots if i < m), len(pivots),
            tuple(map(tuple, oracle_row_basis(diffs))))


def _search_networks():
    gen = bench_workloads()
    return [gen.weakly_reversible_network(0, index, r) for index, r in SEARCH_ITEMS]


def _positive_multiple(int_row, row) -> bool:
    """Whether the integer row is c * row for some c > 0 (any c for a zero row)."""
    pivot = next((i for i, v in enumerate(row) if v), None)
    if pivot is None:
        return not any(int_row)
    c = Fraction(int_row[pivot]) / row[pivot]
    return c > 0 and all(a == c * b for a, b in zip(int_row, row))


def _assert_invariants(net):
    inv = cb.structural_invariants(net)
    s = oracle_rank(net)
    assert (inv.s, inv.delta) == (s, inv.n - inv.l - s)
    assert cb.stoichiometric_basis(net) == column_basis([list(r) for r in net.n])
    pivots = oracle_rref([list(row) for row in net.n])[1]
    assert cb.stoichiometric_basis(net) == [[row[c] for row in net.n] for c in pivots]


@pytest.mark.parametrize("index", range(len(SEARCH_ITEMS)))
def test_search_instances_match_the_fraction_path(index):
    net = _search_networks()[index]
    _assert_invariants(net)
    assert cb.rates_balancing_all_ones(net) == tuple(
        oracle_positive_kernel_vector([list(row) for row in net.ia]))
    for predicate in PREDICATES:
        assert (decomposition._separator_classes(net, predicate)
                == oracle_separator_classes(net, predicate))
        found = cb.search_decompositions(net, predicate)
        with mock.patch.object(decomposition, "_separator_classes", oracle_separator_classes), \
                mock.patch.object(decomposition, "_summaries", oracle_summaries):
            expected = cb.search_decompositions(net, predicate)
        assert found == expected and found


@pytest.mark.parametrize("r", LADDERS)
def test_ladders_match_the_fraction_path(r):
    net, kin = bench_ladder(0, r)
    _assert_invariants(net)
    conservative, witness = cb.is_conservative(net)
    expected = oracle_positive_kernel_vector(rational.transpose([list(row) for row in net.n]))
    assert witness == (None if expected is None else tuple(expected))
    assert conservative is (expected is not None)
    assert kin.exact_rates == cb.rates_balancing_all_ones(net) == tuple(
        oracle_positive_kernel_vector([list(row) for row in net.ia])) == tuple(
        oracle_positive_kernel_vector_int(net.ia_int))
    parts = cb.linkage_class_parts(net)
    assert cb.check_decomposition(net, parts).summaries == oracle_summaries(net, parts, {})
    t = cb.build_t_matrices(net, kin)
    assert (t.q_tilde, t.q_hat, t.exact_s_tilde_basis) == oracle_t_fields(net, kin)
    assert t.delta_hat == len(t.reactant_complexes) - t.q_hat


def _low_rank_orders(net, kin):
    """Reactant-determined p/q orders in the span of two p/q rows, so T-hat and
    the order subspace are rank-deficient and their reduced forms carry p/q
    entries."""
    m = net.num_species
    u = [Fraction(1 + i % 3, 2 + i % 5) for i in range(m)]
    w = [Fraction((-1) ** i * (i % 4), 3) for i in range(m)]
    rows = []
    for rx in net.reactions:
        a, b = Fraction(1 + rx.reactant % 5, 1 + rx.reactant % 2), Fraction(rx.reactant % 3 - 1, 7)
        rows.append([a * x + b * y for x, y in zip(u, w)])
    return cb.power_law(rows, kin.exact_rates)


@pytest.mark.parametrize("r", LADDERS)
def test_t_matrices_with_rational_orders_match_the_fraction_path(r):
    # the ladders' orders are integers and give full ranks; these clear a
    # common denominator other than 1 and reduce to a nontrivial basis
    net, kin = bench_ladder(0, r)
    kin = _low_rank_orders(net, kin)
    t = cb.build_t_matrices(net, kin)
    assert (t.q_tilde, t.q_hat, t.exact_s_tilde_basis) == oracle_t_fields(net, kin)
    assert t.q_tilde == 2 and len(t.exact_s_tilde_basis) == 2
    assert any(v.denominator > 1 for row in t.exact_s_tilde_basis for v in row)


def test_part_integer_rows_are_positive_multiples_of_its_rows():
    # the search instances scaled per species by p/q, so the parent's row
    # scale and a part's own differ
    nets = []
    for net in _search_networks():
        scale = [Fraction(1 + i % 3, 2 + i % 4) for i in range(net.num_species)]
        complexes = [[v * f for v, f in zip(c.coeffs, scale)] for c in net.complexes]
        reactions = [(rx.reactant, rx.product, rx.label) for rx in net.reactions]
        nets.append(cb.build_network(net.species, complexes, reactions))
    strict = 0
    for net in nets:
        for predicate in PREDICATES:
            for deco in cb.search_decompositions(net, predicate):
                for part in deco.parts:
                    sub = cb.subnetwork(net, part)
                    for int_rows, rows in ((sub.n_int, sub.n), (sub.ia_int, sub.ia)):
                        assert len(int_rows) == len(rows)
                        assert all(type(v) is int for row in int_rows for v in row)
                        assert all(map(_positive_multiple, int_rows, rows))
                    strict += sub.n_int != tuple(map(tuple, rational.integer_rows(sub.n)))
    assert strict  # some part's rows carry the parent's larger scale


def test_balancing_rates_match_the_integer_entry(re1_net):
    """`rates_balancing_all_ones` passes Ia to the Fraction entry; its rows
    have scale 1, so each witness is the one the integer entry gave."""
    rng = np.random.default_rng(11)
    for net in [re1_net] + [random_weakly_reversible_network(rng) for _ in range(10)]:
        assert cb.rates_balancing_all_ones(net) == tuple(
            oracle_positive_kernel_vector_int(net.ia_int))
