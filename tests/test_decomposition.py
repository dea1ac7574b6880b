"""Decompositions: subnetworks, independence verdicts, partition search."""

from fractions import Fraction

import numpy as np
import pytest

import crnbalance as cb
from conftest import random_network, random_weakly_reversible_network


def test_subnetwork_re1_parts(re1_net):
    sub1 = cb.subnetwork(re1_net, [0, 1, 2, 3])
    inv1 = cb.structural_invariants(sub1)
    assert (inv1.n, inv1.l, inv1.s, inv1.delta) == (3, 1, 1, 1)
    assert sub1.species == ("X1", "X2")  # X3 is not touched

    sub2 = cb.subnetwork(re1_net, [4, 5, 6, 7])
    assert cb.structural_invariants(sub2).delta == 1

    full = cb.subnetwork(re1_net, range(8))
    assert cb.structural_invariants(full).delta == 2


def oracle_subnetwork(net, reactions):
    """`subnetwork` before it sliced the parent: the part's lists rebuilt and
    validated again by `build_network`."""
    idxs = sorted(set(int(q) for q in reactions))
    touched_cpx = sorted({net.reactions[q].reactant for q in idxs}
                         | {net.reactions[q].product for q in idxs})
    cpx_map = {c: i for i, c in enumerate(touched_cpx)}
    touched_sp = sorted({si for c in touched_cpx
                         for si in range(net.num_species)
                         if net.complexes[c].coeffs[si] != 0})
    species = [net.species[si] for si in touched_sp]
    complexes = [[net.complexes[c].coeffs[si] for si in touched_sp] for c in touched_cpx]
    rxns = [(cpx_map[net.reactions[q].reactant], cpx_map[net.reactions[q].product],
             net.reactions[q].label) for q in idxs]
    return cb.build_network(species, complexes, rxns)


def _rescaled(net, rng):
    """`net` with each species' coefficients times its own p/q > 0: still a
    valid network, now with non-integer Fraction entries."""
    scale = [Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
             for _ in net.species]
    complexes = [[v * f for v, f in zip(c.coeffs, scale)] for c in net.complexes]
    rxns = [(rx.reactant, rx.product, rx.label) for rx in net.reactions]
    return cb.build_network(net.species, complexes, rxns)


def test_subnetwork_slices_equal_the_rebuilt_oracle():
    rng = np.random.default_rng(1717)
    checked = fractional = 0
    while checked < 1200:
        gen = random_network if checked % 2 else random_weakly_reversible_network
        net = _rescaled(gen(rng), rng)
        fractional += any(v.denominator > 1 for row in net.y for v in row)
        r = net.num_reactions
        parts = [range(r)] + [np.flatnonzero(rng.random(r) < rng.uniform(0.1, 0.9))
                              for _ in range(7)]
        for part in (p for p in parts if len(p)):
            sub = cb.subnetwork(net, part)
            assert sub == oracle_subnetwork(net, part)
            assert hash(sub) == hash(oracle_subnetwork(net, part))
            checked += 1
    assert fractional > 50


def test_subnetwork_errors(re1_net):
    with pytest.raises(cb.EmptySelectionError):
        cb.subnetwork(re1_net, [])
    with pytest.raises(cb.CrnError):
        cb.subnetwork(re1_net, [99])


def test_re1_linkage_decomposition(re1_net):
    verdict = cb.check_decomposition(re1_net, [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert verdict.independent and verdict.incidence_independent
    assert verdict.bi_independent
    assert verdict.deficiency == 2 and verdict.deficiency_sum == 2
    assert verdict.relation == "delta == sum(delta_i)"


def test_trivial_decomposition(re1_net):
    verdict = cb.check_decomposition(re1_net, [range(8)])
    assert verdict.independent and verdict.incidence_independent


def test_not_a_partition(re1_net):
    with pytest.raises(cb.NotAPartitionError):
        cb.check_decomposition(re1_net, [[0, 1], [1, 2, 3, 4, 5, 6, 7]])
    with pytest.raises(cb.NotAPartitionError):
        cb.check_decomposition(re1_net, [[0, 1, 2]])


def _brute_partitions(items, max_parts):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _brute_partitions(rest, max_parts):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        if len(smaller) < max_parts:
            yield [[first]] + smaller


def _brute_search(net, predicate, max_parts):
    """Qualifying partitions, parts ordered by smallest reaction, sorted by
    their restricted-growth string (part index of each reaction)."""
    inv = cb.structural_invariants(net)
    ranks = {}  # part -> (s, n - l) of the subnetwork it induces
    found = []
    for parts in _brute_partitions(list(range(net.num_reactions)), max_parts):
        parts = tuple(sorted(tuple(sorted(p)) for p in parts))
        for p in parts:
            if p not in ranks:
                sub = cb.structural_invariants(cb.subnetwork(net, p))
                ranks[p] = (sub.s, sub.n - sub.l)
        s_sum = sum(ranks[p][0] for p in parts)
        i_sum = sum(ranks[p][1] for p in parts)
        ok = {"independent": s_sum == inv.s,
              "incidence_independent": i_sum == inv.n - inv.l,
              "bi_independent": s_sum == inv.s and i_sum == inv.n - inv.l}[predicate]
        if ok:
            found.append(parts)
    return sorted(found, key=lambda parts: [
        next(i for i, p in enumerate(parts) if q in p) for q in range(net.num_reactions)])


def test_search_re1_contains_linkage_partition(re1_net):
    found = cb.search_decompositions(re1_net, "bi_independent", max_parts=2)
    as_sets = {frozenset(frozenset(p) for p in d.parts) for d in found}
    assert frozenset({frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}) in as_sets


def test_search_single_reaction():
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    found = cb.search_decompositions(net, "independent")
    assert len(found) == 1 and found[0].parts == ((0,),)


@pytest.mark.parametrize("predicate", ["independent", "incidence_independent",
                                       "bi_independent"])
def test_search_matches_brute_force(re1_net, counterexample, mm_polypl, predicate):
    nets = [re1_net, counterexample[0], mm_polypl[0]]
    nets += [random_network(np.random.default_rng(100 + i)) for i in range(15)]
    nets += [random_weakly_reversible_network(np.random.default_rng(200 + i))
             for i in range(15)]
    for net in nets:
        for max_parts in (None, 2, 3):
            found = cb.search_decompositions(net, predicate, max_parts=max_parts)
            oracle = _brute_search(net, predicate, max_parts or net.num_reactions)
            assert [d.parts for d in found] == oracle, (net.reactions, max_parts)


def test_search_summarizes_each_distinct_part_once(monkeypatch):
    net = random_weakly_reversible_network(np.random.default_rng(207))
    expected = [cb.decompose(net, d.parts) for d in
                cb.search_decompositions(net, "incidence_independent")]
    calls = []
    real = cb.decomposition.structural_invariants

    def counted(sub):
        calls.append(sub)
        return real(sub)

    monkeypatch.setattr(cb.decomposition, "structural_invariants", counted)
    found = cb.search_decompositions(net, "incidence_independent")
    assert found == expected
    distinct = {part for d in found for part in d.parts}
    assert len(calls) == len(distinct) < sum(len(d.parts) for d in found)


def test_search_is_deterministic(counterexample):
    net, _ = counterexample
    a = cb.search_decompositions(net, "incidence_independent", max_parts=3)
    b = cb.search_decompositions(net, "incidence_independent", max_parts=3)
    assert [d.parts for d in a] == [d.parts for d in b]


def test_search_refuses_fewer_than_one_part(re1_net):
    # the one-part decomposition always qualifies, so one part is the least
    assert [d.parts for d in cb.search_decompositions(re1_net, "bi_independent", 1)] \
        == [(tuple(range(8)),)]
    for max_parts in (0, -3):
        with pytest.raises(cb.CrnError, match="max_parts must be at least 1"):
            cb.search_decompositions(re1_net, "bi_independent", max_parts)


def test_search_guard():
    reactions = [(i, i + 1) for i in range(13)]
    net = cb.build_network(["A"], [[i + 1] for i in range(14)], reactions)
    with pytest.raises(cb.TooLargeError):
        cb.search_decompositions(net, "independent")


def test_covering_inequalities_random_partitions(re1_net, counterexample):
    rng = np.random.default_rng(23)
    for net in (re1_net, counterexample[0]):
        inv = cb.structural_invariants(net)
        r = net.num_reactions
        for _ in range(10):
            labels = rng.integers(0, 3, size=r)
            parts = [np.where(labels == v)[0].tolist() for v in range(3)]
            parts = [p for p in parts if p]
            deco = cb.decompose(net, parts)
            s_sum = sum(p.s for p in deco.summaries)
            i_sum = sum(p.n - p.l for p in deco.summaries)
            assert inv.s <= s_sum
            assert inv.n - inv.l <= i_sum
            verdict = cb.check_decomposition(net, parts)
            if verdict.bi_independent:
                assert inv.delta == verdict.deficiency_sum
            elif verdict.independent:
                assert inv.delta <= verdict.deficiency_sum
            elif verdict.incidence_independent:
                assert inv.delta >= verdict.deficiency_sum
            # prop: bi <=> (ind or inc) and delta equality
            assert verdict.bi_independent == (
                (verdict.independent or verdict.incidence_independent)
                and inv.delta == verdict.deficiency_sum)


def test_linkage_classes_always_incidence_independent(re1_net, counterexample,
                                                      mm_polypl):
    for net in (re1_net, counterexample[0], mm_polypl[0]):
        parts = cb.linkage_class_parts(net)
        assert cb.check_decomposition(net, parts).incidence_independent
