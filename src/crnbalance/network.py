"""Reaction network construction and its structural invariants.

A network stores its species, complexes, reactions and the stoichiometric
matrix N = Y Ia, in exact Fractions, so every rank-derived quantity (dim S,
deficiency, independence of decompositions) is an exact integer; Y and Ia are
views made on first read. The exact eliminations read N as integer rows, each
row times the lcm of its denominators (`n_int`), and Ia as its rows of -1, 0
and 1 (`ia_int`); a positive multiple of a row changes no rank, pivot or
reduced form. Float copies are only produced on demand for the numeric solvers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rational


class CrnError(Exception):
    """Base class for all analysis errors raised by this package."""


class DuplicateSpeciesError(CrnError):
    pass


class DuplicateComplexError(CrnError):
    pass


class DuplicateReactionError(CrnError):
    pass


class SelfLoopReactionError(CrnError):
    pass


class UnusedComplexError(CrnError):
    pass


class UnusedSpeciesError(CrnError):
    pass


class NegativeCoefficientError(CrnError):
    pass


class Complex(NamedTuple):
    """A formal nonnegative rational combination of the species."""

    coeffs: tuple[Fraction, ...]

    def format(self, species: tuple[str, ...]) -> str:
        parts = []
        for c, name in zip(self.coeffs, species):
            if c == 0:
                continue
            parts.append(name if c == 1 else f"{c} {name}")
        return " + ".join(parts) if parts else "0"


class Reaction(NamedTuple):
    reactant: int
    product: int
    label: str


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    complexes: tuple[Complex, ...]
    reactions: tuple[Reaction, ...]
    n: tuple[tuple[Fraction, ...], ...]   # m x r

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_complexes(self) -> int:
        return len(self.complexes)

    @property
    def num_reactions(self) -> int:
        return len(self.reactions)

    @property
    def reactant_complexes(self) -> tuple[int, ...]:
        """Indices of complexes that appear as a reactant, in index order."""
        return tuple(sorted({r.reactant for r in self.reactions}))

    def ia_array(self) -> np.ndarray:
        return np.array(self.ia_int, dtype=float)

    def n_array(self) -> np.ndarray:
        return np.array(self.n, dtype=float)

    @cached_property
    def n_int(self) -> tuple[tuple[int, ...], ...]:
        """The rows of N as integer rows, for the exact eliminations."""
        return tuple(map(tuple, rational.integer_rows(self.n)))

    @cached_property
    def y(self) -> tuple[tuple[Fraction, ...], ...]:    # m x n, the complexes as columns
        return tuple(zip(*(c.coeffs for c in self.complexes)))

    @cached_property
    def ia_int(self) -> tuple[tuple[int, ...], ...]:
        """The rows of Ia as integers: -1 at a reaction's reactant, 1 at its product."""
        rows = [[0] * len(self.reactions) for _ in self.complexes]
        for q, (a, p, _) in enumerate(self.reactions):
            rows[a][q], rows[p][q] = -1, 1
        return tuple(map(tuple, rows))

    @cached_property
    def ia(self) -> tuple[tuple[Fraction, ...], ...]:   # n x r
        units = (Fraction(0), Fraction(1), Fraction(-1))   # entry v is units[v], one object each
        return tuple(tuple(map(units.__getitem__, row)) for row in self.ia_int)

    def reactions_by_reactant(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for qi, r in enumerate(self.reactions):
            out.setdefault(r.reactant, []).append(qi)
        return out


class StructuralInvariants(NamedTuple):
    m: int
    n: int
    n_r: int
    r: int
    l: int
    sl: int
    t: int
    s: int
    delta: int
    weakly_reversible: bool
    t_minimal: bool
    cycle_terminal: bool
    linkage_partition: tuple[tuple[int, ...], ...]   # reaction indices per class
    terminal_classes: tuple[tuple[int, ...], ...]    # complex indices per class


def build_network(species, complexes, reactions) -> ReactionNetwork:
    """Assemble a validated network from raw lists.

    species: list of unique names. complexes: list of coefficient vectors
    (ints, Fractions or number strings a float can hold; floats rejected).
    reactions: (reactant_index, product_index[, label]) tuples.
    """
    species = tuple(species)
    seen: dict[str, int] = {}
    for name in species:
        if not name:
            raise DuplicateSpeciesError("empty species name")
        if name in seen:
            raise DuplicateSpeciesError(f"duplicate species {name!r}")
        seen[name] = 1

    m = len(species)
    index: dict[Complex, int] = {}   # each complex to its index, in order
    for ci, coeffs in enumerate(complexes):
        vec = tuple(rational.frac(c) for c in coeffs)
        if len(vec) != m:
            raise CrnError(f"complex {ci} has {len(vec)} coefficients, expected {m}")
        for c, name in zip(vec, species):
            if c < 0:
                raise NegativeCoefficientError(
                    f"complex {ci} has negative coefficient {c} for {name}")
            try:
                rational.to_float(c)
            except ValueError as exc:
                raise CrnError(f"complex {ci}, coefficient of {name}: {exc}") from None
        cpx = Complex(vec)
        if cpx in index:
            raise DuplicateComplexError(
                f"duplicate complex {cpx.format(species)!r} at index {ci}")
        index[cpx] = ci
    built = list(index)
    n = len(built)

    rxns: list[Reaction] = []
    seen_pairs: set[tuple[int, int]] = set()
    for qi, item in enumerate(reactions):
        if len(item) not in (2, 3):
            raise CrnError(f"reaction {qi + 1} has {len(item)} entries, expected "
                           f"(reactant, product[, label])")
        label = item[2] if len(item) == 3 else f"R{qi + 1}"
        try:
            reactant, product = map(operator.index, item[:2])
        except TypeError:
            raise CrnError(f"reaction {label}: complex indices must be integers, "
                           f"got {item[0]!r} and {item[1]!r}") from None
        if not (0 <= reactant < n and 0 <= product < n):
            raise CrnError(f"reaction {label}: complex index out of range")
        if reactant == product:
            raise SelfLoopReactionError(
                f"reaction {label}: reactant and product are both "
                f"{built[reactant].format(species)!r}")
        if (reactant, product) in seen_pairs:
            raise DuplicateReactionError(
                f"reaction {label} duplicates an earlier reactant/product pair")
        seen_pairs.add((reactant, product))
        rxns.append(Reaction(reactant, product, str(label)))

    used = {rx.reactant for rx in rxns} | {rx.product for rx in rxns}
    for ci in range(n):
        if ci not in used:
            raise UnusedComplexError(
                f"complex {built[ci].format(species)!r} appears in no reaction")
    for si, name in enumerate(species):
        if all(cpx.coeffs[si] == 0 for cpx in built):
            raise UnusedSpeciesError(f"species {name!r} appears in no complex")

    # N = Y Ia: column q is the product complex minus the reactant complex
    n_mat = zip(*(map(operator.sub, built[p].coeffs, built[a].coeffs) for a, p, _ in rxns))
    return ReactionNetwork(species, tuple(built), tuple(rxns), tuple(n_mat))


def _undirected_components(n_nodes: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n_nodes
    comps = []
    for root in range(n_nodes):
        if seen[root]:
            continue
        comp = []
        stack = [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _strongly_connected_components(n_nodes: int, succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to be safe on deep graphs."""
    index_of = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n_nodes):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        call: list[tuple[int, int]] = [(root, 0)]
        while call:
            v, ptr = call[-1]
            advanced = False
            while ptr < len(succ[v]):
                w = succ[v][ptr]
                ptr += 1
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    call[-1] = (v, ptr)
                    call.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            if advanced:
                continue
            call.pop()
            if call:
                u = call[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def linkage_classes(net: ReactionNetwork) -> list[list[int]]:
    """Connected components of the undirected reaction graph (complex indices)."""
    edges = [(rx.reactant, rx.product) for rx in net.reactions]
    return _undirected_components(net.num_complexes, edges)


def linkage_class_parts(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """The linkage-class decomposition of the reaction set: reaction indices
    per class, in the order of `linkage_classes`."""
    comps = linkage_classes(net)
    comp_of = {c: idx for idx, comp in enumerate(comps) for c in comp}
    parts: list[list[int]] = [[] for _ in comps]
    for qi, rx in enumerate(net.reactions):
        parts[comp_of[rx.reactant]].append(qi)
    return tuple(map(tuple, parts))


def is_conservative(net: ReactionNetwork) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Whether S-perp contains a strictly positive vector, with an exact witness.

    Decided by exact rational feasibility of N^T z = 0, z >= 1 (positivity is
    scale invariant), so the verdict carries no float tolerance.
    """
    nt = rational.transpose([list(row) for row in net.n])
    z = rational.positive_kernel_vector(nt)
    if z is None:
        return False, None
    return True, tuple(z)


def structural_invariants(net: ReactionNetwork) -> StructuralInvariants:
    """All scalar invariants and class partitions of the reaction graph.

    Conservativity needs a simplex, so it is left to `is_conservative`. The
    result is kept on the network, as its integer rows are, so a later call
    on the same network returns it without ranking N again.
    """
    kept = vars(net).get("invariants")
    if kept is not None:
        return kept
    m, n, r = net.num_species, net.num_complexes, net.num_reactions
    n_r = len(net.reactant_complexes)

    linkage_partition = linkage_class_parts(net)
    l = len(linkage_partition)

    succ: list[list[int]] = [[] for _ in range(n)]
    for rx in net.reactions:
        succ[rx.reactant].append(rx.product)
    sccs = _strongly_connected_components(n, succ)
    sl = len(sccs)
    scc_of = {}
    for idx, comp in enumerate(sccs):
        for c in comp:
            scc_of[c] = idx
    outgoing = [False] * sl
    for rx in net.reactions:
        if scc_of[rx.reactant] != scc_of[rx.product]:
            outgoing[scc_of[rx.reactant]] = True
    terminal = tuple(tuple(sccs[i]) for i in range(sl) if not outgoing[i])
    t = len(terminal)

    # every linkage class is strongly connected iff no reaction leaves its
    # strong linkage class
    weakly_reversible = not any(outgoing)

    s = rational.rank_int(net.n_int)
    delta = n - l - s

    vars(net)["invariants"] = inv = StructuralInvariants(
        m=m, n=n, n_r=n_r, r=r, l=l, sl=sl, t=t, s=s, delta=delta,
        weakly_reversible=weakly_reversible,
        t_minimal=(t == l),
        cycle_terminal=(n - n_r == 0),
        linkage_partition=linkage_partition,
        terminal_classes=terminal,
    )
    return inv


def stoichiometric_basis(net: ReactionNetwork) -> list[list[Fraction]]:
    """Exact basis of the stoichiometric subspace S (as row vectors): the
    columns of N at the pivots of its reduced form."""
    pivots = rational.rref_int(net.n_int)[1]
    return [[row[c] for row in net.n] for c in pivots]
