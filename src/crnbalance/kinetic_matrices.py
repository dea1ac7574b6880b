"""Kinetic-order matrices for reactant-determined power-law systems.

Builds the padded order matrix (one column per complex, zero on non-reactant
columns), its truncation T to reactant columns, the linkage-class indicator
block L, and the stacked matrix T_hat = [T; L^T]. The ranks of T and T_hat
give the kinetic reactant rank and the kinetic reactant deficiency
delta_hat = n_r - rank(T_hat); delta_hat = 0 is the maximal-rank property
that guarantees unconditional complex balancing on weakly reversible
networks. Ranks are exact whenever the kinetic orders are rational.

Exact ranks and the kinetic order subspace S~ come from one elimination of
n_r rows. The differences t_c - t_first of the columns of T within each
linkage class span T(ker L^T), so rank T_hat = l + their rank; S~ is
T(ker L^T) plus the columns t_c of the classes with a reaction into a
non-reactant complex, whose zero column makes each such t_c a difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg, rational
from .kinetics import ExactMatrix, PowerLawKinetics, _is_pl_rdk
from .network import CrnError, ReactionNetwork, linkage_classes


class NotRDKError(CrnError):
    pass


@dataclass(frozen=True, eq=False)
class TMatrices:
    """The order matrices of one PL-RDK system and their ranks; the float
    arrays are read-only and the exact ones tuples of tuples, so no holder
    can change a cached fact."""

    t: np.ndarray                          # (m, n_r)
    that: np.ndarray                       # (m + l, n_r)
    reactant_complexes: tuple[int, ...]    # complex index per T column
    q_tilde: int
    q_hat: int
    delta_hat: int
    ranks_exact: bool
    s_tilde_basis: np.ndarray              # rows spanning the order subspace
    exact_s_tilde_basis: ExactMatrix | None = None

    def __post_init__(self):
        for arr in (self.t, self.that, self.s_tilde_basis):
            arr.flags.writeable = False


@dataclass(frozen=True, eq=False)
class KineticOrderSubspace:
    basis: np.ndarray         # rows spanning S~
    dim: int
    not_cycle_terminal: bool  # zero columns stood in for non-reactant complexes
    exact: bool


def build_t_matrices(net: ReactionNetwork, kin: PowerLawKinetics) -> TMatrices:
    """Assemble T, L and T_hat, their ranks and the order subspace basis.

    Index lists give every matrix: the order row of each T column, the linkage
    class of each reactant complex, and the T column (from 1; 0 is the zero
    column) of each reaction's product and reactant. Floats are gathered from
    `kin.orders`, exact rows from `kin.exact_orders`, which also make the ranks
    and basis exact; without them those come from singular values.

    The exact facts come from one `pivot_rows_int` pass over n_r integer
    rows (the order rows times one common denominator), stacked as: t_c -
    t_first for every column that is not the first of its linkage class;
    t_first of each class with a reaction into a non-reactant complex;
    t_first of each other class. The pivots among the first k rows are a
    basis of those rows, so q_hat = l + the pivots in the first block,
    q_tilde = all pivots, and the reduced form of the pivot rows of the
    first two blocks is the basis of S~. On cycle-terminal networks the
    second block is empty and delta_hat = n - l - dim S~.
    """
    if not _is_pl_rdk(kin, net):
        raise NotRDKError(
            "kinetic complexes are ill-defined: some reactant complex has "
            "reactions with differing kinetic order rows")
    m = net.num_species
    reactants = net.reactant_complexes
    by_reactant = net.reactions_by_reactant()
    rows = [by_reactant[ci][0] for ci in reactants]
    comps = linkage_classes(net)
    comp_of = {c: idx for idx, comp in enumerate(comps) for c in comp}
    classes = [comp_of[ci] for ci in reactants]
    col_of = {ci: col for col, ci in enumerate(reactants, 1)}
    ends = [(col_of.get(rx.product, 0), col_of[rx.reactant]) for rx in net.reactions]

    padded = np.vstack([np.zeros((1, m)), kin.orders[rows]])
    t = padded[1:].T
    that = np.vstack([t, np.eye(len(comps))[classes].T])
    exact_basis = None
    if kin.exact_orders is not None:
        zero = Fraction(0)
        # the order rows times one common denominator are integer rows of T
        d = lcm(*(v.denominator for q in rows for v in kin.exact_orders[q]))
        cols = [[v.numerator * (d // v.denominator) for v in kin.exact_orders[q]]
                for q in rows]
        # one row per reactant column: t_c - t_first for each column that is
        # not the first of its class, then t_first of each class with a
        # reaction into a non-reactant complex, then the other firsts
        first = {}
        for col, lc in enumerate(classes):
            first.setdefault(lc, col)
        draining = {classes[r - 1] for p, r in ends if not p}
        stack = [[a - b for a, b in zip(cols[col], cols[first[lc]])]
                 for col, lc in enumerate(classes) if first[lc] != col]
        block1, block2 = len(stack), len(stack) + len(draining)
        stack += [cols[col] for lc, col in first.items() if lc in draining]
        stack += [cols[col] for lc, col in first.items() if lc not in draining]
        # every pivot row is a row plus earlier pivot rows, so the pivots
        # among the first k rows are a basis of those rows
        pivots = rational.pivot_rows_int(stack)
        q_tilde, q_hat = len(pivots), len(comps) + sum(1 for i in pivots if i < block1)
        red, _, den = rational.rref_int([stack[i] for i in pivots if i < block2])
        exact_basis = tuple(tuple(Fraction(v, den) if v else zero for v in row) for row in red)
        basis = np.array(exact_basis, dtype=float) if exact_basis else np.zeros((0, m))
    else:
        q_tilde, q_hat = linalg.numeric_rank(t), linalg.numeric_rank(that)
        diffs = np.array([padded[p] - padded[r] for p, r in ends])
        basis = np.linalg.svd(diffs)[2][:linalg.numeric_rank(diffs)]

    return TMatrices(t, that, reactants, q_tilde, q_hat, len(reactants) - q_hat,
                     kin.exact_orders is not None, basis, exact_basis)


def is_pl_tik(t: TMatrices) -> bool:
    """Maximal column rank of T_hat, equivalently zero kinetic reactant deficiency."""
    return t.q_hat == len(t.reactant_complexes)


def kinetic_order_subspace(t: TMatrices, net: ReactionNetwork) -> KineticOrderSubspace:
    """The kinetic order subspace that `t` spans, as a basis of rows.

    Spanned by the differences of kinetic complexes across reactions, with
    zero columns standing in for non-reactant product complexes; the warning
    flag is set when such columns exist (network not cycle terminal).
    """
    return KineticOrderSubspace(t.s_tilde_basis, t.s_tilde_basis.shape[0],
                                len(t.reactant_complexes) < net.num_complexes, t.ranks_exact)
