"""Kinetic-order matrices for reactant-determined power-law systems.

Builds the padded order matrix (one column per complex, zero on non-reactant
columns), its truncation T to reactant columns, the linkage-class indicator
block L, and the stacked matrix T_hat = [T; L^T]. The ranks of T and T_hat
give the kinetic reactant rank and the kinetic reactant deficiency
delta_hat = n_r - rank(T_hat); delta_hat = 0 is the maximal-rank property
that guarantees unconditional complex balancing on weakly reversible
networks. Ranks are exact whenever the kinetic orders are rational.
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
    exact_t: ExactMatrix | None = None
    exact_that: ExactMatrix | None = None
    exact_s_tilde_basis: ExactMatrix | None = None

    def __post_init__(self):
        for arr in (self.t, self.that, self.s_tilde_basis):
            arr.flags.writeable = False


@dataclass(frozen=True)
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
    and basis exact; without them those come from singular values. The exact
    ranks and basis are eliminated from integer rows, cleared of
    denominators once per build.
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
    exact_t = exact_that = exact_basis = None
    if kin.exact_orders is not None:
        zero, one = Fraction(0), Fraction(1)
        cols = [(zero,) * m] + [kin.exact_orders[q] for q in rows]
        exact_t = tuple(zip(*cols[1:]))
        lt = [[int(c == lc) for c in classes] for lc in range(len(comps))]
        exact_that = exact_t + tuple(tuple(one if v else zero for v in row) for row in lt)
        # the order rows times one common denominator are integer rows of
        # T, and their differences integer rows of the order subspace
        d = lcm(*(v.denominator for col in cols for v in col))
        cols = [[v.numerator * (d // v.denominator) for v in col] for col in cols]
        # T's rows come first, so one elimination of T_hat ranks both
        pivots = rational.pivot_rows_int([*zip(*cols[1:]), *lt])
        q_tilde, q_hat = sum(1 for i in pivots if i < m), len(pivots)
        exact_basis = tuple(map(tuple, rational.row_basis_int(
            [[a - b for a, b in zip(cols[p], cols[r])] for p, r in ends])))
        basis = np.array(exact_basis, dtype=float) if exact_basis else np.zeros((0, m))
    else:
        q_tilde, q_hat = linalg.numeric_rank(t), linalg.numeric_rank(that)
        diffs = np.array([padded[p] - padded[r] for p, r in ends])
        basis = np.linalg.svd(diffs)[2][:linalg.numeric_rank(diffs)]

    return TMatrices(t, that, reactants, q_tilde, q_hat, len(reactants) - q_hat,
                     kin.exact_orders is not None, basis, exact_t, exact_that, exact_basis)


def t_matrices_or_none(net: ReactionNetwork, kin) -> TMatrices | None:
    """The T matrices of a reactant-determined power-law kinetics, else None."""
    if not isinstance(kin, PowerLawKinetics):
        return None
    try:
        return build_t_matrices(net, kin)
    except NotRDKError:
        return None


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
