"""Workload generators: pure functions of the seed.

Every generator draws from its own ``numpy.random.default_rng`` stream,
so the same seed gives the same networks and kinetics. Kinetics that are
meant to be complex balanced at x = 1 are checked to be so before they
are returned.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import crnbalance as cb

# (species, complexes) of the ROADMAP ladder; r = complexes.
LADDER_SHAPES = {12: (6, 12), 24: (10, 24), 40: (15, 40)}
# Power-law terms per reaction of the poly-PL ladder, each of coefficient 1/TERMS.
TERMS = 3


def _stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _distinct_complexes(rng, m: int, n: int) -> list[list[int]]:
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < n:
        vec = tuple(int(v) for v in rng.integers(0, 3, size=m))
        if any(vec) and vec not in seen:
            seen.add(vec)
            out.append(list(vec))
    return out


def ladder_network(seed: int, r: int) -> cb.ReactionNetwork:
    """Directed 4-cycles over a seeded permutation of n = r complexes with
    coefficients in {0, 1, 2}; every species occurs in some complex."""
    m, n = LADDER_SHAPES.get(r, (max(2, (3 * r) // 8), r))
    if n % 4:
        raise ValueError("ladder size must be a multiple of 4")
    rng = _stream(seed, 1, r)
    for _ in range(100):
        complexes = _distinct_complexes(rng, m, n)
        if not all(any(c[i] for c in complexes) for i in range(m)):
            continue
        perm = [int(v) for v in rng.permutation(n)]
        reactions = []
        for k in range(0, n, 4):
            cyc = perm[k:k + 4]
            for j in range(4):
                reactions.append((cyc[j], cyc[(j + 1) % 4], f"r{len(reactions) + 1}"))
        return cb.build_network([f"X{i + 1}" for i in range(m)], complexes, reactions)
    raise RuntimeError("ladder generation failed")


def _check_balanced_at_ones(net: cb.ReactionNetwork, kin) -> None:
    k = cb.evaluate(kin, np.ones(net.num_species))
    res = float(np.max(np.abs(net.ia_array() @ k)))
    if res > 1e-9 * max(1.0, float(np.max(k))):
        raise AssertionError(f"x = 1 is not complex balanced (residual {res:.3e})")


def _reactant_orders(rng, net: cb.ReactionNetwork) -> dict[int, list[int]]:
    """One random order row in {0, 1, 2}^m per reactant complex."""
    return {c: [int(v) for v in rng.integers(0, 3, size=net.num_species)]
            for c in net.reactant_complexes}


def ladder_power_law(seed: int, r: int):
    """Ladder network with reactant-determined power-law kinetics whose
    rates balance x = 1 (any order rows evaluate to the rates there)."""
    net = ladder_network(seed, r)
    rng = _stream(seed, 2, r)
    by_reactant = _reactant_orders(rng, net)
    orders = [by_reactant[rx.reactant] for rx in net.reactions]
    kin = cb.power_law(orders, cb.rates_balancing_all_ones(net))
    _check_balanced_at_ones(net, kin)
    return net, kin


def ladder_poly_pl(seed: int, r: int):
    """Ladder network with TERMS power-law terms of coefficient 1/TERMS
    per reaction, so every rate is reproduced at x = 1."""
    net = ladder_network(seed, r)
    rng = _stream(seed, 3, r)
    coeff = Fraction(1, TERMS)
    term_lists = []
    for _ in net.reactions:
        rows = set()
        while len(rows) < TERMS:
            rows.add(tuple(int(v) for v in rng.integers(0, 3, size=net.num_species)))
        term_lists.append([(coeff, row) for row in sorted(rows)])
    kin = cb.poly_pl(term_lists, cb.rates_balancing_all_ones(net))
    _check_balanced_at_ones(net, kin)
    return net, kin


def ladder_hill(seed: int, r: int):
    """Ladder network with Hill kinetics on each reactant's support.

    At x = 1 a Hill factor is 1 / (1 + d), so each balancing rate is
    multiplied by prod (1 + d) over its factors to keep x = 1 balanced.
    """
    net = ladder_network(seed, r)
    rng = _stream(seed, 4, r)
    base = cb.rates_balancing_all_ones(net)
    orders, dissoc, rates = [], [], []
    for q, rx in enumerate(net.reactions):
        coeffs = [int(c) for c in net.complexes[rx.reactant].coeffs]
        d_row = [Fraction(int(rng.integers(1, 4)), 2) if c else Fraction(0) for c in coeffs]
        scale = Fraction(1)
        for d in d_row:
            if d:
                scale *= 1 + d
        orders.append(coeffs)
        dissoc.append(d_row)
        rates.append(base[q] * scale)
    kin = cb.hill(orders, dissoc, rates)
    _check_balanced_at_ones(net, kin)
    return net, kin


def weakly_reversible_network(seed: int, index: int, r: int) -> cb.ReactionNetwork:
    """A weakly reversible network with exactly r reactions: directed
    cycles of length 2 to 4 over distinct complexes in {0, 1, 2}^m."""
    rng = _stream(seed, 5, index)
    for _ in range(200):
        lengths = []
        while sum(lengths) < r:
            lengths.append(int(rng.integers(2, 5)))
        if sum(lengths) != r:
            continue
        m = int(rng.integers(3, 6))
        complexes = _distinct_complexes(rng, m, r)
        if not all(any(c[i] for c in complexes) for i in range(m)):
            continue
        reactions, start = [], 0
        for length in lengths:
            cyc = list(range(start, start + length))
            for j in range(length):
                reactions.append((cyc[j], cyc[(j + 1) % length], f"r{len(reactions) + 1}"))
            start += length
        try:
            return cb.build_network([f"X{i + 1}" for i in range(m)], complexes, reactions)
        except cb.CrnError:
            continue
    raise RuntimeError("weakly reversible generation failed")
