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

import numpy as np

from . import linalg, rational
from .kinetics import PowerLawKinetics, _is_pl_rdk
from .network import CrnError, ReactionNetwork, linkage_classes


class NotRDKError(CrnError):
    pass


@dataclass(eq=False)
class TMatrices:
    t: np.ndarray                          # (m, n_r)
    that: np.ndarray                       # (m + l, n_r)
    reactant_complexes: tuple[int, ...]    # complex index per T column
    q_tilde: int
    q_hat: int
    delta_hat: int
    ranks_exact: bool
    s_tilde_basis: np.ndarray              # rows spanning the order subspace
    exact_t: rational.Matrix | None = None
    exact_that: rational.Matrix | None = None
    exact_s_tilde_basis: list[list[Fraction]] | None = None


@dataclass(frozen=True)
class KineticOrderSubspace:
    basis: np.ndarray         # rows spanning S~
    perp_basis: np.ndarray    # rows spanning the orthogonal complement
    dim: int
    not_cycle_terminal: bool  # zero columns stood in for non-reactant complexes
    exact: bool


def build_t_matrices(net: ReactionNetwork, kin: PowerLawKinetics) -> TMatrices:
    """Assemble T, L and T_hat and their ranks for a PL-RDK kinetics."""
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
        pivots = rational.pivot_rows(exact_that)
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
        exact_basis = rational.row_basis(diffs)
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
        exact_t=exact_t, exact_that=exact_that, exact_s_tilde_basis=exact_basis,
    )


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
    """Basis of the kinetic order subspace and of its orthogonal complement.

    Spanned by the differences of kinetic complexes across reactions, with
    zero columns standing in for non-reactant product complexes; the warning
    flag is set when such columns exist (network not cycle terminal).
    """
    m = net.num_species
    not_ct = len(net.reactant_complexes) < net.num_complexes
    if t.exact_s_tilde_basis is not None:
        basis = t.exact_s_tilde_basis
        perp = rational.orthogonal_complement(basis, m)
        return KineticOrderSubspace(
            basis=np.array(basis, dtype=float) if basis else np.zeros((0, m)),
            perp_basis=np.array(perp, dtype=float) if perp else np.zeros((0, m)),
            dim=len(basis),
            not_cycle_terminal=not_ct,
            exact=True,
        )
    basis = t.s_tilde_basis
    perp = linalg.complement_basis_rows(basis, m)
    return KineticOrderSubspace(
        basis=basis, perp_basis=perp, dim=basis.shape[0],
        not_cycle_terminal=not_ct, exact=False,
    )
