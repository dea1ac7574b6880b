"""Network construction, structural invariants, conservativity."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import crnbalance as cb
from crnbalance import rational
from crnbalance.fileformat import parse_crn
from crnbalance.network import _strongly_connected_components

from conftest import (DATA, exact_rank, matmul, nullspace, random_network,
                      random_weakly_reversible_network, spans_equal)

Y_PRINTED = [[2, 1, 0, 2, 1, 0], [0, 1, 2, 0, 0, 0], [0, 0, 0, 1, 2, 3]]
IA_PRINTED = [[-1, 1, 0, 0, 0, 0, 0, 0],
              [1, -1, -1, 1, 0, 0, 0, 0],
              [0, 0, 1, -1, 0, 0, 0, 0],
              [0, 0, 0, 0, -1, 1, 0, 0],
              [0, 0, 0, 0, 1, -1, -1, 1],
              [0, 0, 0, 0, 0, 0, 1, -1]]


def test_re1_matrices_exact(re1_net):
    """Y and Ia, views of the complexes and reactions, give Y Ia == N
    exactly, on re1, the random networks and their subnetworks; the float
    Ia is the exact one converted."""
    assert [[int(v) for v in row] for row in re1_net.y] == Y_PRINTED
    assert [[int(v) for v in row] for row in re1_net.ia] == IA_PRINTED
    rng = np.random.default_rng(32)
    nets = [re1_net]
    for seed in range(20):
        for gen in (random_network, random_weakly_reversible_network):
            net = gen(np.random.default_rng(seed))
            r = net.num_reactions
            nets += [net, cb.subnetwork(net, rng.choice(r, int(rng.integers(1, r + 1)), False))]
    for net in nets:
        n_mat = matmul([list(r) for r in net.y], [list(r) for r in net.ia])
        assert n_mat == [list(r) for r in net.n]
        assert all(type(v) is Fraction for row in net.y + net.ia for v in row)
        assert np.array_equal(net.ia_array(), np.array(net.ia, dtype=float))


def test_network_stores_no_matrix_it_can_derive():
    """Y and Ia are made on first read, not by `build_network` or
    `structural_invariants`; N is the one matrix a network keeps."""
    n = 3000
    net = cb.build_network(["X"], [[i] for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    assert cb.structural_invariants(net).delta == n - 2
    assert [f.name for f in dataclasses.fields(net)] == ["species", "complexes", "reactions", "n"]
    assert not {"y", "ia", "ia_int"} & set(vars(net))
    assert net.ia_int[0][:2] == (-1, 0) and net.y[0][:3] == (0, 1, 2)


def test_minimal_network():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    assert [[int(v) for v in row] for row in net.y] == [[1, 0], [0, 1]]
    assert [[int(v) for v in row] for row in net.ia] == [[-1], [1]]
    assert [[int(v) for v in row] for row in net.n] == [[-1], [1]]


def test_build_errors():
    with pytest.raises(cb.SelfLoopReactionError):
        cb.build_network(["A"], [[1], [2]], [(0, 0)])
    with pytest.raises(cb.DuplicateSpeciesError):
        cb.build_network(["A", "A"], [[1, 0], [0, 1]], [(0, 1)])
    with pytest.raises(cb.DuplicateComplexError):
        cb.build_network(["A"], [[1], [1]], [(0, 1)])
    with pytest.raises(cb.DuplicateReactionError):
        cb.build_network(["A"], [[1], [2]], [(0, 1), (0, 1)])
    with pytest.raises(cb.UnusedComplexError):
        cb.build_network(["A"], [[1], [2], [3]], [(0, 1)])
    with pytest.raises(cb.UnusedSpeciesError):
        cb.build_network(["A", "B"], [[1, 0], [2, 0]], [(0, 1)])
    with pytest.raises(cb.NegativeCoefficientError):
        cb.build_network(["A"], [[-1], [1]], [(0, 1)])
    # reaction ends are read as indices, and a reaction has 2 or 3 entries
    wrong_length = r"^reaction 1 has \d entries, expected \(reactant, product"
    for bad, message in (((0.0, 1, "r1"), r"^reaction r1: complex indices must be integers"),
                         ((0, "1"), r"^reaction R1: complex indices must be integers"),
                         ((0, 1, "r1", "x"), wrong_length), ((0,), wrong_length)):
        with pytest.raises(cb.CrnError, match=message):
            cb.build_network(["A"], [[1], [2]], [bad])
    net = cb.build_network(["A"], [[1], [2]], [(np.int64(0), np.int64(1))])
    assert [type(v) for v in net.reactions[0]] == [int, int, str]


def test_build_network_finds_duplicate_complexes_by_hash(monkeypatch):
    """A chain of 3000 complexes compares fewer complexes than it has: each
    is looked up by hash, not against every complex before it. A duplicate
    is still named with the index it appears at."""
    n = 3000
    calls = 0
    eq = cb.Complex.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return eq(self, other)

    monkeypatch.setattr(cb.Complex, "__eq__", counted)
    net = cb.build_network(["X"], [[i] for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    assert net.num_complexes == n and calls < n
    complexes = [[i] for i in range(5)] + [["6/2"]]
    with pytest.raises(cb.DuplicateComplexError, match=r"^duplicate complex '3 X' at index 5$"):
        cb.build_network(["X"], complexes, [(i, i + 1) for i in range(5)])


def test_build_refuses_a_coefficient_a_float_cannot_hold():
    """The float N of such a network would overflow, or read 0 where the
    exact N does not."""
    for big in (10 ** 400, Fraction(1, 10 ** 400)):
        with pytest.raises(cb.CrnError, match="coefficient of A: .* does not fit a float"):
            cb.build_network(["A", "B"], [[big, 0], [0, 1]], [(0, 1), (1, 0)])


def test_rational_coefficients_accepted():
    net = cb.build_network(["A"], [["1/2"], [2]], [(0, 1)])
    assert net.complexes[0].coeffs[0] == Fraction(1, 2)


def test_re1_invariants(re1_net):
    inv = cb.structural_invariants(re1_net)
    assert (inv.m, inv.n, inv.n_r, inv.r) == (3, 6, 6, 8)
    assert (inv.l, inv.sl, inv.t, inv.s, inv.delta) == (2, 2, 2, 2, 2)
    assert inv.weakly_reversible and inv.t_minimal and inv.cycle_terminal
    assert inv.linkage_partition == ((0, 1, 2, 3), (4, 5, 6, 7))
    # reactions listed across the classes keep their index order in each class,
    # and the classes keep the order of their smallest complex
    net = cb.build_network(["A"], [[1], [2], [3], [4], [5], [6]],
                           [(2, 3), (1, 0), (4, 5), (3, 2), (0, 1), (5, 4)])
    assert cb.structural_invariants(net).linkage_partition == ((1, 4), (0, 3), (2, 5))


def test_counterexample_invariants(counterexample):
    net, _ = counterexample
    inv = cb.structural_invariants(net)
    assert (inv.n, inv.l, inv.s, inv.delta) == (4, 1, 1, 2)
    assert inv.weakly_reversible


def test_irreversible_pair_invariants():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    inv = cb.structural_invariants(net)
    assert (inv.l, inv.sl, inv.t) == (1, 2, 1)
    assert not inv.weakly_reversible
    assert not inv.cycle_terminal and inv.n_r == 1


def test_conservativity_examples(counterexample):
    net = cb.build_network(["A", "B", "C"],
                           [[1, 1, 0], [0, 0, 1]], [(0, 1), (1, 0)])
    ok, witness = cb.is_conservative(net)
    assert ok
    nt = rational.transpose([list(r) for r in net.n])
    assert all(sum(a * b for a, b in zip(row, witness)) == 0 for row in nt)
    assert all(w > 0 for w in witness)

    net2 = cb.build_network(["A"], [[1], [2]], [(0, 1)])
    ok2, witness2 = cb.is_conservative(net2)
    assert not ok2 and witness2 is None

    cnet, _ = counterexample
    ok3, witness3 = cb.is_conservative(cnet)
    # oracle: the kernel of N^T is exactly {z : -2 z1 + z2 + z3 = 0}
    assert ok3
    assert -2 * witness3[0] + witness3[1] + witness3[2] == 0


def test_kernel_dimension_identities(re1_net, counterexample):
    for net in (re1_net, counterexample[0]):
        inv = cb.structural_invariants(net)
        ker_ia = len(nullspace([list(r) for r in net.ia]))
        ker_n = len(nullspace([list(r) for r in net.n]))
        assert ker_ia == inv.r - (inv.n - inv.l)
        assert ker_n == ker_ia + inv.delta


def test_weak_reversibility_kernel_criterion(re1_net, counterexample):
    nets = [re1_net, counterexample[0],
            cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])]
    rng = np.random.default_rng(5)
    nets += [random_network(rng) for _ in range(15)]
    for net in nets:
        inv = cb.structural_invariants(net)
        kernel = rational.positive_kernel_vector([list(r) for r in net.ia])
        assert inv.weakly_reversible == (kernel is not None)


def _scalar_invariants(net):
    inv = cb.structural_invariants(net)
    return (inv.m, inv.n, inv.n_r, inv.r, inv.l, inv.sl, inv.t, inv.s, inv.delta,
            inv.weakly_reversible, inv.t_minimal, inv.cycle_terminal,
            cb.is_conservative(net)[0])


def test_permutation_invariance(re1_net):
    base = _scalar_invariants(re1_net)
    rng = np.random.default_rng(11)
    species = list(re1_net.species)
    complexes = [list(c.coeffs) for c in re1_net.complexes]
    reactions = [(r.reactant, r.product, r.label) for r in re1_net.reactions]
    for _ in range(5):
        sp = list(rng.permutation(len(species)))
        cp = list(rng.permutation(len(complexes)))
        rp = list(rng.permutation(len(reactions)))
        cp_inv = {old: new for new, old in enumerate(cp)}
        net2 = cb.build_network(
            [species[i] for i in sp],
            [[complexes[ci][si] for si in sp] for ci in cp],
            [(cp_inv[reactions[ri][0]], cp_inv[reactions[ri][1]], reactions[ri][2])
             for ri in rp],
        )
        assert _scalar_invariants(net2) == base


def test_stoichiometric_basis(re1_net):
    basis = cb.stoichiometric_basis(re1_net)
    assert len(basis) == 2
    assert spans_equal(basis, [[-1, 1, 0], [-1, 0, 1]])


def test_terminal_classes_structure():
    # 0 -> 1 -> 2 -> 0 cycle feeding 2 -> 3 with 3 <-> 4: two SCCs, one terminal
    net = cb.build_network(
        ["A"], [[1], [2], [3], [4], [5]],
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)])
    inv = cb.structural_invariants(net)
    assert inv.l == 1 and inv.sl == 2 and inv.t == 1
    assert inv.terminal_classes == ((3, 4),)
    assert not inv.weakly_reversible
    assert inv.t_minimal  # one terminal class per linkage class


def test_cycle_terminal_without_weak_reversibility():
    # A -> B <-> C: every complex is a reactant yet the graph is not
    # strongly connected within its linkage class
    net = cb.build_network(["A"], [[1], [2], [3]], [(0, 1), (1, 2), (2, 1)])
    inv = cb.structural_invariants(net)
    assert inv.cycle_terminal
    assert not inv.weakly_reversible


def test_incidence_columns_sum_to_zero(re1_net, counterexample):
    for net in (re1_net, counterexample[0]):
        for col in zip(*net.ia):
            assert sum(col) == 0


def oracle_structural_invariants(net) -> dict:
    """`structural_invariants` as it was when it also decided conservativity,
    kept as the oracle: its fields by name."""
    m, n, r = net.num_species, net.num_complexes, net.num_reactions
    n_r = len(net.reactant_complexes)
    linkage_partition = cb.linkage_class_parts(net)
    l = len(linkage_partition)
    succ = [[] for _ in range(n)]
    for rx in net.reactions:
        succ[rx.reactant].append(rx.product)
    sccs = _strongly_connected_components(n, succ)
    sl = len(sccs)
    scc_of = {c: idx for idx, comp in enumerate(sccs) for c in comp}
    outgoing = [False] * sl
    for rx in net.reactions:
        if scc_of[rx.reactant] != scc_of[rx.product]:
            outgoing[scc_of[rx.reactant]] = True
    terminal = tuple(tuple(sccs[i]) for i in range(sl) if not outgoing[i])
    t = len(terminal)
    s = exact_rank([list(row) for row in net.n])
    z = rational.positive_kernel_vector(rational.transpose([list(row) for row in net.n]))
    return dict(m=m, n=n, n_r=n_r, r=r, l=l, sl=sl, t=t, s=s, delta=n - l - s,
                weakly_reversible=not any(outgoing), t_minimal=(t == l),
                cycle_terminal=(n - n_r == 0), conservative=z is not None,
                linkage_partition=linkage_partition, terminal_classes=terminal,
                conservation_witness=None if z is None else tuple(z))


def test_conservation_matches_the_old_invariant_fields(monkeypatch):
    systems = [parse_crn((DATA / name).read_text())
               for name in ("counterexample.crn", "hill_single.crn", "mm_polypl.crn",
                            "re1_massaction.crn", "re1_powerlaw.crn")]
    for seed in range(20):
        for gen in (random_network, random_weakly_reversible_network):
            net = gen(np.random.default_rng(seed))
            systems.append((net, cb.mass_action_from(net, [1] * net.num_reactions)))
    conservative = set()
    for net, kin in systems:
        old = oracle_structural_invariants(net)
        expected = (old.pop("conservative"), old.pop("conservation_witness"))
        conservative.add(expected[0])
        calls = []
        real = rational.positive_kernel_vector
        monkeypatch.setattr(rational, "positive_kernel_vector",
                            lambda mat: calls.append(mat) or real(mat))
        assert cb.structural_invariants(net)._asdict() == old
        assert not calls
        system = cb.KineticSystem(net, kin)
        assert system.conservation == system.conservation == expected
        assert len(calls) == 1
        assert cb.is_conservative(net) == expected
        monkeypatch.undo()
    assert conservative == {True, False}


def test_conservativity_scales_each_row_once(monkeypatch, re1_net):
    calls = []
    real = rational._scaled
    monkeypatch.setattr(rational, "_scaled", lambda row: calls.append(row) or real(row))
    conservative, witness = cb.is_conservative(re1_net)
    assert conservative and witness is not None
    # each of the r rows of N^T for the screen and the tableau, then the witness
    assert len(calls) == re1_net.num_reactions + 1
