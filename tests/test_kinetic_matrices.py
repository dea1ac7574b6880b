"""T matrices, kinetic reactant deficiency, kinetic order subspace."""

import numpy as np
import pytest

import crnbalance as cb
from crnbalance import rational

from conftest import bench_ladder

THAT_PRINTED = [[0, -1, 0, 0], [-1, -1, -2, 0], [1, 1, 0, -2], [1, 1, 1, 1]]


def test_counterexample_that_matches_printed(counterexample):
    net, kin = counterexample
    t = cb.build_t_matrices(net, kin)
    assert np.array_equal(t.that, np.array(THAT_PRINTED, dtype=float))
    assert t.q_hat == 4 and t.delta_hat == 0
    assert t.ranks_exact
    assert cb.is_pl_tik(t)


def test_re1_t_columns(re1_powerlaw):
    net, kin = re1_powerlaw
    t = cb.build_t_matrices(net, kin)
    expected = {0: (2, 0, 0), 1: (1, 1, 0), 2: (0, 0, 1),
                3: (2, 0, 0), 4: (0, 0, 2), 5: (0, -1, -1)}
    for col, ci in enumerate(t.reactant_complexes):
        assert tuple(t.t[:, col]) == expected[ci]


def test_mass_action_t_equals_reactant_columns(re1_massaction):
    net, kin = re1_massaction
    t = cb.build_t_matrices(net, kin)
    y = net.y_array()
    for col, ci in enumerate(t.reactant_complexes):
        assert np.array_equal(t.t[:, col], y[:, ci])


def test_mass_action_on_counterexample_network(counterexample):
    # oracle (rational elimination by hand): rows A2 and A3 of T coincide and
    # the remaining rows are affinely dependent, so rank T_hat = 2
    net, _ = counterexample
    kin = cb.mass_action_from(net, [1] * 5)
    t = cb.build_t_matrices(net, kin)
    assert t.q_hat == 2 and t.delta_hat == 2
    assert not cb.is_pl_tik(t)


def test_repeated_that_column_not_tik():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.power_law([[1, 1], [1, 1]], [1, 1])
    t = cb.build_t_matrices(net, kin)
    assert t.q_hat == 1 and not cb.is_pl_tik(t)


def test_not_rdk_raises():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1], [1, 1]],
                           [(0, 1), (0, 2)])
    kin = cb.power_law([[1, 0], [2, 0]], [1, 1])
    with pytest.raises(cb.NotRDKError):
        cb.build_t_matrices(net, kin)


def test_t_matrices_or_none(monkeypatch, counterexample, mm_polypl, re1_massaction):
    from crnbalance import kinetic_matrices
    calls = []
    real = kinetic_matrices.build_t_matrices

    def counted(*args):
        calls.append(args)
        return real(*args)

    # the module global is looked up at each call, so a tracer that patches
    # it counts the calls made through t_matrices_or_none
    monkeypatch.setattr(kinetic_matrices, "build_t_matrices", counted)
    assert kinetic_matrices.t_matrices_or_none(*counterexample).q_hat == 4
    assert kinetic_matrices.t_matrices_or_none(*mm_polypl) is None
    assert len(calls) == 1
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1], [1, 1]], [(0, 1), (0, 2)])
    assert kinetic_matrices.t_matrices_or_none(
        net, cb.power_law([[1, 0], [2, 0]], [1, 1])) is None
    cb.analyze_acb(cb.KineticSystem(*re1_massaction), cb.SolveConfig(seeds=4))
    assert len(calls) == 3


def test_rank_bounds(re1_powerlaw, counterexample, toy_pl_tik):
    for net, kin in (re1_powerlaw, counterexample, toy_pl_tik):
        inv = cb.structural_invariants(net)
        t = cb.build_t_matrices(net, kin)
        assert t.delta_hat >= 0
        assert t.q_hat <= t.q_tilde + inv.l
        assert t.q_hat <= inv.n_r


def test_one_elimination_gives_the_ranks_of_t_and_t_hat(re1_powerlaw, re1_massaction,
                                                       counterexample, toy_pl_tik):
    systems = [re1_powerlaw, re1_massaction, counterexample, toy_pl_tik]
    systems += [bench_ladder(seed, r) for seed, r in ((3, 12), (2, 24), (0, 60))]
    for net, kin in systems:
        t = cb.build_t_matrices(net, kin)
        assert t.q_tilde == rational.rank(t.exact_t)
        assert t.q_hat == rational.rank(t.exact_that)


def test_order_subspace_mass_action_equals_stoichiometric(re1_massaction):
    net, kin = re1_massaction
    t = cb.build_t_matrices(net, kin)
    sub = cb.kinetic_order_subspace(t, net)
    s_basis = cb.stoichiometric_basis(net)
    assert sub.exact
    assert rational.spans_equal(
        [list(r) for r in t.exact_s_tilde_basis], s_basis)
    assert not sub.not_cycle_terminal


def test_order_subspace_counterexample(counterexample):
    net, kin = counterexample
    t = cb.build_t_matrices(net, kin)
    sub = cb.kinetic_order_subspace(t, net)
    inv = cb.structural_invariants(net)
    assert sub.dim == 3
    assert inv.s == 1
    assert sub.dim != inv.s  # the dim S = dim S~ precondition fails here
    # perp basis is orthogonal to every basis row
    for perp in np.atleast_2d(sub.perp_basis):
        for row in np.atleast_2d(sub.basis):
            assert abs(float(np.dot(perp, row))) < 1e-12


def test_order_subspace_zero_column_convention():
    # single reaction into a non-reactant product: difference is 0 - f
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    kin = cb.power_law([[2, -1]], [1])
    t = cb.build_t_matrices(net, kin)
    sub = cb.kinetic_order_subspace(t, net)
    assert sub.not_cycle_terminal
    assert rational.spans_equal([list(r) for r in t.exact_s_tilde_basis],
                                [[-2, 1]])


def test_numeric_rank_path():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.power_law([[0.5772156649, 0.0], [0.0, 1.0]], [1, 1])
    t = cb.build_t_matrices(net, kin)
    assert not t.ranks_exact
    assert t.q_hat == 2
    sub = cb.kinetic_order_subspace(t, net)
    assert not sub.exact and sub.dim == 1


def test_t_invariant_under_reaction_permutation(re1_powerlaw):
    net, kin = re1_powerlaw
    order = [3, 0, 7, 2, 5, 1, 6, 4]
    net2 = cb.build_network(
        net.species,
        [list(c.coeffs) for c in net.complexes],
        [(net.reactions[q].reactant, net.reactions[q].product,
          net.reactions[q].label) for q in order])
    kin2 = cb.power_law(kin.orders[order], kin.rates[order])
    t1 = cb.build_t_matrices(net, kin)
    t2 = cb.build_t_matrices(net2, kin2)
    assert np.array_equal(t1.t, t2.t)
    assert np.array_equal(t1.that, t2.that)
    assert t1.reactant_complexes == t2.reactant_complexes
