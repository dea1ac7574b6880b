"""Decompositions of the reaction set and their independence verdicts.

A decomposition partitions the reactions; each part induces a subnetwork on
the complexes and species it touches. Independence (stoichiometric subspaces
sum directly), incidence independence (incidence images sum directly) and
bi-independence (both) are decided with exact ranks, so the deficiency
inequalities they certify are exact integer claims. Each holds exactly when
every part is a union of separator classes (components of a column matroid),
so `search_decompositions` partitions classes instead of reactions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rational
from .kinetics import (InvalidKineticsError, Kinetics, PolyPLKinetics,
                       PowerLawKinetics)
from .network import (CrnError, ReactionNetwork, StructuralInvariants,
                      build_network, structural_invariants)


class EmptySelectionError(CrnError):
    pass


class NotAPartitionError(CrnError):
    pass


class TooLargeError(CrnError):
    pass


_SEARCH_GUARD = 12  # set partitions beyond this reaction count are not desk scale


@dataclass(frozen=True)
class SubnetworkSummary:
    reactions: tuple[int, ...]
    n: int
    l: int
    s: int
    delta: int


@dataclass(frozen=True)
class Decomposition:
    parts: tuple[tuple[int, ...], ...]
    summaries: tuple[SubnetworkSummary, ...]

    @property
    def deficiency_sum(self) -> int:
        return sum(p.delta for p in self.summaries)


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    incidence_independent: bool
    bi_independent: bool
    deficiency: int
    deficiency_sum: int
    relation: str | None  # which deficiency inequality is certified
    summaries: tuple[SubnetworkSummary, ...]  # one per part, in part order


def subnetwork(net: ReactionNetwork, reactions) -> ReactionNetwork:
    """The subnetwork induced by a set of reaction indices.

    Keeps exactly the complexes and species the chosen reactions touch,
    in their original index order; reaction labels are preserved.
    """
    idxs = sorted(set(int(q) for q in reactions))
    if not idxs:
        raise EmptySelectionError("no reactions selected")
    if idxs[0] < 0 or idxs[-1] >= net.num_reactions:
        raise CrnError("reaction index out of range")
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
    return build_network(species, complexes, rxns)


def restrict_kinetics(kin: Kinetics, reactions, species_keep=None) -> Kinetics:
    """Kinetics of a subnetwork: row restriction of orders and rates.

    When `species_keep` is given, order columns are restricted too; a kept
    reaction whose orders touch a dropped species cannot be restricted and
    raises.
    """
    idxs = sorted(set(int(q) for q in reactions))
    if isinstance(kin, PowerLawKinetics):
        orders = kin.orders[idxs]
        exact = (tuple(kin.exact_orders[q] for q in idxs)
                 if kin.exact_orders is not None else None)
        if species_keep is not None:
            keep = list(species_keep)
            dropped = [i for i in range(kin.num_species) if i not in keep]
            if dropped and np.any(orders[:, dropped] != 0):
                raise InvalidKineticsError(
                    "kinetic orders reference a species outside the subnetwork")
            orders = orders[:, keep]
            if exact is not None:
                exact = tuple(tuple(row[i] for i in keep) for row in exact)
        return PowerLawKinetics(orders, kin.rates[idxs], exact)
    if isinstance(kin, PolyPLKinetics):
        coeffs = tuple(kin.term_coeffs[q] for q in idxs)
        orders = tuple(kin.term_orders[q] for q in idxs)
        e_c = (tuple(kin.exact_term_coeffs[q] for q in idxs)
               if kin.exact_term_coeffs is not None else None)
        e_o = (tuple(kin.exact_term_orders[q] for q in idxs)
               if kin.exact_term_orders is not None else None)
        if species_keep is not None:
            keep = list(species_keep)
            dropped = [i for i in range(kin.num_species) if i not in keep]
            if dropped and any(np.any(f[:, dropped] != 0) for f in orders):
                raise InvalidKineticsError(
                    "kinetic orders reference a species outside the subnetwork")
            orders = tuple(f[:, keep] for f in orders)
            if e_o is not None:
                e_o = tuple(tuple(tuple(row[i] for i in keep) for row in rows)
                            for rows in e_o)
        return PolyPLKinetics(coeffs, orders, kin.rates[idxs], e_c, e_o)
    raise InvalidKineticsError("only power-law and poly-PL kinetics restrict to parts")


def _validate_partition(net: ReactionNetwork, parts) -> list[tuple[int, ...]]:
    cleaned = [tuple(sorted(set(int(q) for q in part))) for part in parts]
    if any(not part for part in cleaned):
        raise NotAPartitionError("empty part")
    flat = [q for part in cleaned for q in part]
    if sorted(flat) != list(range(net.num_reactions)):
        raise NotAPartitionError("parts must partition the reaction set")
    return cleaned


def decompose(net: ReactionNetwork, parts) -> Decomposition:
    cleaned = _validate_partition(net, parts)
    summaries = []
    for part in cleaned:
        inv = structural_invariants(subnetwork(net, part))
        summaries.append(SubnetworkSummary(part, inv.n, inv.l, inv.s, inv.delta))
    return Decomposition(tuple(cleaned), tuple(summaries))


def check_decomposition(net: ReactionNetwork, parts,
                        inv: StructuralInvariants | None = None) -> IndependenceVerdict:
    """Independence / incidence independence / bi-independence, exactly.

    `inv` is the structural invariants of `net`, if already known.
    """
    deco = decompose(net, parts)
    if inv is None:
        inv = structural_invariants(net)
    s_sum = sum(p.s for p in deco.summaries)
    im_sum = sum(p.n - p.l for p in deco.summaries)
    independent = (inv.s == s_sum)
    incidence = (inv.n - inv.l == im_sum)
    bi = independent and incidence
    if bi:
        relation = "delta == sum(delta_i)"
    elif independent:
        relation = "delta <= sum(delta_i)"
    elif incidence:
        relation = "delta >= sum(delta_i)"
    else:
        relation = None
    return IndependenceVerdict(
        independent=independent,
        incidence_independent=incidence,
        bi_independent=bi,
        deficiency=inv.delta,
        deficiency_sum=deco.deficiency_sum,
        relation=relation,
        summaries=deco.summaries,
    )


def linkage_class_parts(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """The linkage-class decomposition of the reaction set."""
    return structural_invariants(net).linkage_partition


def _separator_classes(net: ReactionNetwork, predicate: str) -> list[list[int]]:
    """Components of the column matroid of N, of Ia, or of their join, ordered
    by smallest reaction. Row i of the rref holds pivot i and every column
    whose fundamental circuit contains it, so merging row supports joins them."""
    classes = [{q} for q in range(net.num_reactions)]
    for mat in {"independent": [net.n], "incidence_independent": [net.ia],
                "bi_independent": [net.n, net.ia]}[predicate]:
        red, pivots = rational.rref([list(row) for row in mat])
        for support in ({q for q, v in enumerate(row) if v != 0} for row in red[:len(pivots)]):
            joined = [c for c in classes if c & support]
            classes = [c for c in classes if not c & support] + [set().union(*joined)]
    return sorted(sorted(c) for c in classes)


def search_decompositions(net: ReactionNetwork, predicate: str,
                          max_parts: int | None = None) -> list[Decomposition]:
    """All partitions of the reaction set satisfying the predicate: one of
    'independent', 'incidence_independent' or 'bi_independent'.

    Lists the set partitions of the separator classes, at most `max_parts`
    blocks each, extending every prefix in order. Classes are ordered by
    smallest reaction, so the output keeps the lexicographic order of the
    reactions' restricted-growth strings. The guard counts reactions.
    """
    if predicate not in ("independent", "incidence_independent", "bi_independent"):
        raise ValueError(f"unknown predicate {predicate!r}")
    r = net.num_reactions
    if r > _SEARCH_GUARD:
        raise TooLargeError(f"{r} reactions exceed the desk-scale guard of {_SEARCH_GUARD}")
    max_parts = r if max_parts is None else max_parts
    partitions: list[list[list[int]]] = [[]]
    for cls in _separator_classes(net, predicate):
        # the class joins block b; b == len(blocks) opens a new block
        partitions = [blocks[:b] + [(blocks + [[]])[b] + cls] + blocks[b + 1:]
                      for blocks in partitions for b in range(min(len(blocks) + 1, max_parts))]
    return [decompose(net, blocks) for blocks in partitions]
