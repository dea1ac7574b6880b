"""T matrices, kinetic reactant deficiency, kinetic order subspace."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnbalance as cb
from crnbalance import linalg, rational
from crnbalance.fileformat import parse_crn
from crnbalance.kinetic_matrices import NotRDKError, TMatrices
from crnbalance.kinetics import _is_pl_rdk
from crnbalance.network import linkage_classes

from conftest import (bench_ladder, data_path, exact_rank, random_network,
                      random_weakly_reversible_network, spans_equal, y_array)

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
    y = y_array(net)
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
    for orders in ([[1, 0], [2, 0]], [[0.5, 0], [0.25, 0]]):
        kin = cb.power_law(orders, [1, 1])
        with pytest.raises(cb.NotRDKError):
            cb.build_t_matrices(net, kin)


def test_system_builds_t_matrices_only_for_pl_rdk(monkeypatch, counterexample, mm_polypl,
                                                  re1_massaction):
    from crnbalance import equilibria
    calls = []
    real = equilibria.build_t_matrices

    def counted(*args):
        calls.append(args)
        return real(*args)

    # the module global is looked up at each call, so a tracer that patches
    # it counts the calls made through `KineticSystem.t_matrices`
    monkeypatch.setattr(equilibria, "build_t_matrices", counted)
    assert cb.KineticSystem(*counterexample).t_matrices.q_hat == 4
    assert cb.KineticSystem(*mm_polypl).t_matrices is None
    assert len(calls) == 1
    # a power law that is not reactant determined is not built at all
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1], [1, 1]], [(0, 1), (0, 2)])
    assert cb.KineticSystem(net, cb.power_law([[1, 0], [2, 0]], [1, 1])).t_matrices is None
    assert len(calls) == 1
    cb.analyze_acb(cb.KineticSystem(*re1_massaction), cb.SolveConfig(seeds=4))
    assert len(calls) == 2


def test_rank_bounds(re1_powerlaw, counterexample, toy_pl_tik):
    for net, kin in (re1_powerlaw, counterexample, toy_pl_tik):
        inv = cb.structural_invariants(net)
        t = cb.build_t_matrices(net, kin)
        assert t.delta_hat >= 0
        assert t.q_hat <= t.q_tilde + inv.l
        assert t.q_hat <= inv.n_r


def test_one_elimination_gives_the_ranks_of_t_and_t_hat(re1_powerlaw, re1_massaction,
                                                       counterexample, toy_pl_tik):
    """One pass over the row stack (the within-class differences t_c -
    t_first, then the first column of each class with a reaction into a
    non-reactant complex, then the other first columns) ranks T by all its
    pivots and T_hat = [T; L^T] by l plus the pivots among the differences;
    on cycle-terminal networks delta_hat = n - l - dim S~."""
    systems = [re1_powerlaw, re1_massaction, counterexample, toy_pl_tik]
    systems += [bench_ladder(seed, r) for seed, r in ((3, 12), (2, 24), (0, 60))]
    for net, kin in systems:
        t = cb.build_t_matrices(net, kin)
        exact_t, exact_that = _exact_t_and_that(net, kin)
        assert t.q_tilde == exact_rank(exact_t)
        assert t.q_hat == exact_rank(exact_that)
        inv = cb.structural_invariants(net)
        assert inv.cycle_terminal
        assert t.delta_hat == inv.n - inv.l - len(t.exact_s_tilde_basis)


def test_order_subspace_mass_action_equals_stoichiometric(re1_massaction):
    net, kin = re1_massaction
    t = cb.build_t_matrices(net, kin)
    sub = cb.kinetic_order_subspace(t, net)
    s_basis = cb.stoichiometric_basis(net)
    assert sub.exact
    assert spans_equal(
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


def test_order_subspace_zero_column_convention():
    # single reaction into a non-reactant product: difference is 0 - f
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    kin = cb.power_law([[2, -1]], [1])
    t = cb.build_t_matrices(net, kin)
    sub = cb.kinetic_order_subspace(t, net)
    assert sub.not_cycle_terminal
    assert spans_equal([list(r) for r in t.exact_s_tilde_basis],
                                [[-2, 1]])


def test_numpy_integer_orders_rank_exactly():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    big, zero = np.int64(2 ** 32), np.int64(0)
    t = cb.build_t_matrices(net, cb.power_law([[big, zero], [zero, big]], [1, 1]))
    assert (t.q_tilde, t.q_hat) == (2, 2)


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


def test_t_matrices_refuse_assignment():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    system = cb.KineticSystem(net, cb.mass_action_from(net, [1, 1]))
    t = system.t_matrices
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.q_hat = 0
    for arr in (t.t, t.that, t.s_tilde_basis):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 5.0
    assert cb.is_pl_tik(system.t_matrices) and system.t_matrices.delta_hat == 0
    assert np.array_equal(system.t_matrices.t, np.eye(2))


def test_t_matrices_exact_fields_are_tuples():
    """Writing into the exact basis would change the order subspace that the
    system cached."""
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    system = cb.KineticSystem(net, cb.mass_action_from(net, [1, 1]))
    basis = system.t_matrices.exact_s_tilde_basis
    assert type(basis) is tuple and all(type(row) is tuple for row in basis)
    with pytest.raises(TypeError):
        basis[0][1] = Fraction(1)
    with pytest.raises(TypeError):
        basis[0] = (Fraction(0), Fraction(0))
    assert basis == ((1, -1),)


def _exact_t_and_that(net, kin):
    """T and T_hat = [T; L^T] over the rationals, rebuilt from the exact
    order rows: one column per reactant complex, from its first reaction."""
    by_reactant = net.reactions_by_reactant()
    reactants = net.reactant_complexes
    comps = linkage_classes(net)
    comp_of = {c: idx for idx, comp in enumerate(comps) for c in comp}
    cols = [kin.exact_orders[by_reactant[ci][0]] for ci in reactants]
    exact_t = [list(row) for row in zip(*cols)]
    indicator = [[Fraction(int(comp_of[ci] == lc)) for ci in reactants]
                 for lc in range(len(comps))]
    return exact_t, exact_t + indicator


def _parent_build_t_matrices(net, kin):
    """`build_t_matrices` as it was before it gathered every matrix from one
    set of index lists: the oracle of the differential test below."""
    if not _is_pl_rdk(kin, net):
        raise NotRDKError(
            "kinetic complexes are ill-defined: some reactant complex has "
            "reactions with differing kinetic order rows")
    m, n = net.num_species, net.num_complexes
    reactants = net.reactant_complexes
    n_r = len(reactants)
    by_reactant = net.reactions_by_reactant()

    ytilde = np.zeros((m, n))
    for ci in reactants:
        ytilde[:, ci] = kin.orders[by_reactant[ci][0]]
    t = ytilde[:, list(reactants)]

    comps = linkage_classes(net)
    l = len(comps)
    comp_of = {c: idx for idx, comp in enumerate(comps) for c in comp}
    lmat = np.zeros((n_r, l))
    for col, ci in enumerate(reactants):
        lmat[col, comp_of[ci]] = 1.0
    that = np.vstack([t, lmat.T])

    exact_t = exact_that = exact_basis = None
    if kin.exact_orders is not None:
        zero = Fraction(0)
        exact_cols = {ci: list(kin.exact_orders[by_reactant[ci][0]]) for ci in reactants}
        exact_t = [[exact_cols[ci][si] for ci in reactants] for si in range(m)]
        indicator = [
            [Fraction(1) if comp_of[ci] == lc else zero for ci in reactants]
            for lc in range(l)
        ]
        exact_that = exact_t + indicator
        # T's rows come first, so one elimination of T_hat ranks both
        pivots = rational.pivot_rows_int(rational.integer_rows(exact_that))
        q_tilde = sum(1 for i in pivots if i < m)
        q_hat = len(pivots)
        exact_ytilde_cols = {
            ci: exact_cols.get(ci, [zero] * m) for ci in range(n)
        }
        diffs = [
            [a - b for a, b in zip(exact_ytilde_cols[rx.product],
                                   exact_ytilde_cols[rx.reactant])]
            for rx in net.reactions
        ]
        red, pivots = rational.rref(diffs)
        exact_basis = red[:len(pivots)]
        basis = np.array(exact_basis, dtype=float) if exact_basis else np.zeros((0, m))
        ranks_exact = True
    else:
        q_tilde = linalg.numeric_rank(t)
        q_hat = linalg.numeric_rank(that)
        diffs_f = np.array([ytilde[:, rx.product] - ytilde[:, rx.reactant]
                            for rx in net.reactions])
        dim = linalg.numeric_rank(diffs_f)
        _, _, vt = np.linalg.svd(diffs_f) if diffs_f.size else (None, None, np.zeros((0, m)))
        basis = vt[:dim, :] if diffs_f.size else np.zeros((0, m))
        ranks_exact = False

    return TMatrices(
        t=t, that=that,
        reactant_complexes=reactants,
        q_tilde=q_tilde, q_hat=q_hat, delta_hat=n_r - q_hat,
        ranks_exact=ranks_exact,
        s_tilde_basis=basis,
        exact_s_tilde_basis=exact_basis,
    )


def _rdk_orders(net, rng, kind):
    """One order row per reactant complex, shared by its reactions: integers,
    p/q Fractions or non-integral floats."""
    rows = {}
    for ci in net.reactant_complexes:
        ints = rng.integers(-2, 4, size=net.num_species)
        if kind == "int":
            rows[ci] = [int(v) for v in ints]
        elif kind == "frac":
            rows[ci] = [Fraction(int(v), int(d))
                        for v, d in zip(ints, rng.integers(1, 5, size=ints.size))]
        else:
            rows[ci] = [float(v) + 0.5 * float(f)
                        for v, f in zip(ints, rng.uniform(-1, 1, size=ints.size))]
    return [rows[rx.reactant] for rx in net.reactions]


# (complexes over X, Y, Z; reactions), one for each block of the row stack
STACK_NETWORKS = {
    # the class {X, Y, Z} has one reactant complex, which reacts only into
    # non-reactant complexes; the class {X + Y, 2Z} has no such reaction
    "drain-only": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 2]],
                   [(0, 1), (0, 2), (3, 4), (4, 3)]),
    # X -> Y <- Z: two reactant complexes joined only through a product
    "joined-by-product": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(0, 1), (2, 1)]),
    # several reactions on one reactant complex, one cycle-terminal class
    "star": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1]],
             [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]),
    # a single linkage class that drains into 2Z
    "single-class": ([[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 0, 2]],
                     [(0, 1), (1, 2), (2, 0), (2, 3)]),
}


def _stack_systems(rng):
    """Each of `STACK_NETWORKS` with integer, p/q and float orders, and with
    one order row on every reaction, so that every difference is zero."""
    for complexes, reactions in STACK_NETWORKS.values():
        net = cb.build_network(["X", "Y", "Z"], complexes, reactions)
        for kind in ("int", "frac", "float"):
            yield net, cb.power_law(_rdk_orders(net, rng, kind), [1] * net.num_reactions)
        yield net, cb.power_law([["1/2", 1, 0]] * net.num_reactions, [1] * net.num_reactions)


def test_t_matrices_equal_the_parent_build(request):
    systems = [request.getfixturevalue(name) for name in (
        "re1_powerlaw", "re1_massaction", "counterexample", "toy_pl_tik")]
    systems += _stack_systems(np.random.default_rng(24))
    systems += [parse_crn(data_path(f"{name}.crn").read_text()) for name in (
        "counterexample", "re1_massaction", "re1_powerlaw", "decimal_powerlaw")]
    systems += [bench_ladder(seed, r) for seed, r in
                ((3, 12), (5, 12), (7, 12), (2, 24), (0, 40), (0, 60))]
    rng = np.random.default_rng(20)
    for make in (random_network, random_weakly_reversible_network):
        for i in range(24):
            net = make(rng)
            kind = ("int", "frac", "float")[i % 3]
            orders = _rdk_orders(net, rng, kind)
            systems.append((net, cb.power_law(orders, rng.uniform(0.5, 2, net.num_reactions))))
    zero_columns = numeric = 0
    for net, kin in systems:
        new, old = cb.build_t_matrices(net, kin), _parent_build_t_matrices(net, kin)
        for name in ("t", "that", "s_tilde_basis"):
            a, b = getattr(new, name), getattr(old, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
        for name in ("q_tilde", "q_hat", "delta_hat", "ranks_exact", "reactant_complexes",
                     "exact_s_tilde_basis"):
            want = getattr(old, name)
            if name.startswith("exact_") and want is not None:
                want = tuple(map(tuple, want))
            assert getattr(new, name) == want, name
        sub = cb.kinetic_order_subspace(new, net)
        assert sub.basis.tobytes() == old.s_tilde_basis.tobytes()
        assert (sub.dim, sub.exact) == (old.s_tilde_basis.shape[0],
                                        old.exact_s_tilde_basis is not None)
        zero_columns += sub.not_cycle_terminal
        numeric += not new.ranks_exact
    assert len(systems) >= 60 and zero_columns >= 10 and numeric >= 10


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["int", "frac"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_row_stack_matches_the_parent_build_on_random_networks(seed, kind):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    kin = cb.power_law(_rdk_orders(net, rng, kind), [1] * net.num_reactions)
    new, old = cb.build_t_matrices(net, kin), _parent_build_t_matrices(net, kin)
    for name in ("q_tilde", "q_hat", "delta_hat"):
        assert getattr(new, name) == getattr(old, name), name
    assert new.exact_s_tilde_basis == tuple(map(tuple, old.exact_s_tilde_basis))
    assert new.s_tilde_basis.tobytes() == old.s_tilde_basis.tobytes()
    inv = cb.structural_invariants(net)
    assert new.q_hat <= new.q_tilde + inv.l
    if inv.cycle_terminal:
        assert new.delta_hat == inv.n - inv.l - len(new.exact_s_tilde_basis)


def test_an_exact_build_runs_one_elimination(monkeypatch, re1_powerlaw, counterexample):
    calls = {"pivot_rows_int": 0, "rref_int": 0}
    for name in calls:
        real = getattr(rational, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rational, name, counted)
    for net, kin in (re1_powerlaw, counterexample, bench_ladder(0, 40)):
        calls.update(pivot_rows_int=0, rref_int=0)
        cb.build_t_matrices(net, kin)
        assert calls == {"pivot_rows_int": 1, "rref_int": 1}


def test_structural_invariants_are_kept_on_the_network(monkeypatch):
    net = cb.build_network(["X", "Y", "Z"], *STACK_NETWORKS["drain-only"])
    ranked = []
    real = rational.rank_int

    def counted(rows):
        ranked.append(rows)
        return real(rows)

    monkeypatch.setattr(rational, "rank_int", counted)
    assert cb.structural_invariants(net) is cb.structural_invariants(net)
    parts = cb.linkage_class_parts(net)
    verdict = cb.check_decomposition(net, parts)
    assert verdict.deficiency == cb.structural_invariants(net).delta
    # N of the network is ranked once; each part ranks its own rows
    assert [rows is net.n_int for rows in ranked] == [True] + [False] * len(parts)
