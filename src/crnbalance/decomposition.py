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

from typing import NamedTuple

from . import rational
from .network import Complex, CrnError, Reaction, ReactionNetwork, structural_invariants


class EmptySelectionError(CrnError):
    pass


class NotAPartitionError(CrnError):
    pass


class TooLargeError(CrnError):
    pass


_SEARCH_GUARD = 12  # set partitions beyond this reaction count are not desk scale


class SubnetworkSummary(NamedTuple):
    reactions: tuple[int, ...]
    n: int
    l: int
    s: int
    delta: int


class Decomposition(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    summaries: tuple[SubnetworkSummary, ...]

    @property
    def deficiency_sum(self) -> int:
        return sum(p.delta for p in self.summaries)


class IndependenceVerdict(NamedTuple):
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
    in their original index order; reaction labels are preserved. Species,
    complexes and N are slices of the parent's and are not validated again:
    a part of a valid network is valid, and the result equals what
    `build_network` makes of the same lists. The part's integer rows of N
    are sliced from the parent's: each is a positive multiple of the part's
    row, which changes no rank.
    """
    idxs = sorted(set(int(q) for q in reactions))
    if not idxs:
        raise EmptySelectionError("no reactions selected")
    if idxs[0] < 0 or idxs[-1] >= net.num_reactions:
        raise CrnError("reaction index out of range")
    rxns = [net.reactions[q] for q in idxs]
    touched_cpx = sorted({rx.reactant for rx in rxns} | {rx.product for rx in rxns})
    cpx_map = {c: i for i, c in enumerate(touched_cpx)}
    coeffs = [net.complexes[c].coeffs for c in touched_cpx]
    touched_sp = [si for si, col in enumerate(zip(*coeffs)) if any(col)]
    part = ReactionNetwork(
        species=tuple(net.species[si] for si in touched_sp),
        complexes=tuple(Complex(tuple(map(c.__getitem__, touched_sp))) for c in coeffs),
        reactions=tuple(Reaction(cpx_map[rx.reactant], cpx_map[rx.product], rx.label)
                        for rx in rxns),
        n=_block(net.n, touched_sp, idxs),
    )
    vars(part)["n_int"] = _block(net.n_int, touched_sp, idxs)
    return part


def _block(mat, rows, cols) -> tuple[tuple, ...]:
    """The entries of `mat` in the given rows and columns."""
    return tuple(tuple(map(mat[i].__getitem__, cols)) for i in rows)


def _validate_partition(net: ReactionNetwork, parts) -> list[tuple[int, ...]]:
    cleaned = [tuple(sorted(set(int(q) for q in part))) for part in parts]
    if any(not part for part in cleaned):
        raise NotAPartitionError("empty part")
    flat = [q for part in cleaned for q in part]
    if sorted(flat) != list(range(net.num_reactions)):
        raise NotAPartitionError("parts must partition the reaction set")
    return cleaned


def _summaries(net: ReactionNetwork, parts, known: dict) -> tuple[SubnetworkSummary, ...]:
    """One summary per part; `known` maps the parts already summarized."""
    for part in parts:
        if part not in known:
            inv = structural_invariants(subnetwork(net, part))
            known[part] = SubnetworkSummary(part, inv.n, inv.l, inv.s, inv.delta)
    return tuple(known[part] for part in parts)


def decompose(net: ReactionNetwork, parts) -> Decomposition:
    cleaned = tuple(_validate_partition(net, parts))
    return Decomposition(cleaned, _summaries(net, cleaned, {}))


def check_decomposition(net: ReactionNetwork, parts) -> IndependenceVerdict:
    """Independence / incidence independence / bi-independence, exactly."""
    deco = decompose(net, parts)
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


def _separator_classes(net: ReactionNetwork, predicate: str) -> list[list[int]]:
    """Components of the column matroid of N, of Ia, or of their join, ordered
    by smallest reaction. Row i of the rref holds pivot i and every column
    whose fundamental circuit contains it, so merging row supports joins them."""
    classes = [{q} for q in range(net.num_reactions)]
    for rows in {"independent": [net.n_int], "incidence_independent": [net.ia_int],
                 "bi_independent": [net.n_int, net.ia_int]}[predicate]:
        red, pivots, _ = rational.rref_int(rows)
        for support in ({q for q, v in enumerate(row) if v} for row in red[:len(pivots)]):
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
    reactions' restricted-growth strings. The guard counts reactions. A part
    that recurs across partitions is summarized once per call.
    """
    if predicate not in ("independent", "incidence_independent", "bi_independent"):
        raise ValueError(f"unknown predicate {predicate!r}")
    r = net.num_reactions
    if r > _SEARCH_GUARD:
        raise TooLargeError(f"{r} reactions exceed the desk-scale guard of {_SEARCH_GUARD}")
    max_parts = r if max_parts is None else max_parts
    if max_parts < 1:
        raise CrnError(f"max_parts must be at least 1, got {max_parts}")
    partitions: list[list[list[int]]] = [[]]
    for cls in _separator_classes(net, predicate):
        # the class joins block b; b == len(blocks) opens a new block
        partitions = [blocks[:b] + [(blocks + [[]])[b] + cls] + blocks[b + 1:]
                      for blocks in partitions for b in range(min(len(blocks) + 1, max_parts))]
    known: dict = {}
    found = []
    for blocks in partitions:
        parts = tuple(tuple(sorted(block)) for block in blocks)
        found.append(Decomposition(parts, _summaries(net, parts, known)))
    return found
