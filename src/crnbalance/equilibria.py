"""Numeric equilibria search and theorem-backed balancing verdicts.

The solver is a multistart damped Newton iteration over one of two charts.
The log chart covers the positive orthant in coordinates u = log x, which
enforces positivity without projections. The coset chart covers one
stoichiometric coset x = x0 + B a and ends a run once x leaves the positive
orthant. The seeds of a multistart are stepped together (`newton._newton`):
states are stacks (seeds, d), and each line-search round evaluates the
kinetics once on the trial points of all seeds still running, while every
seed keeps the iterates it would have alone. The positive equilibria solve N K(x) = 0 and
the complex balanced ones Ia K(x) = 0. Found points are deduplicated,
re-verified and reported with both residuals. Counts derived from such
searches are certified lower bounds only; set-level claims (absolute
complex balancing, log parametrization, kernel-spanning images) are
rendered by the verdict engine, which combines numeric evidence with the
classical theorems and records a citation chain for every rule it fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .decomposition import IndependenceVerdict, check_decomposition
from .kinetics import (Kinetics, KineticsClassification, PolyPLKinetics,
                       _frozen, _is_mass_action, _residuals, classify, evaluate,
                       log_jacobian, normalize_poly_pl)
from .kinetic_matrices import TMatrices, is_pl_tik, t_matrices_or_none
from .newton import (DEDUP_TOL, SolveConfig, _Chart, _dedup_logs, _newton,
                     _normalized_rows, _seed_outcome)
from .network import (CrnError, ReactionNetwork, StructuralInvariants, is_conservative,
                      structural_invariants, stoichiometric_basis)


class NoEquilibriaError(CrnError):
    pass


class ReferenceNotEquilibriumError(CrnError):
    pass


class NotComplexBalancedError(CrnError):
    pass


LP_TOL = 1e-7           # log-parametrization membership tolerance
LP_SAMPLES = 8          # sampled complement directions per LP check
WITNESS_CFRF = 1e-4     # complex-balance violation for a witness ...
WITNESS_SFRF = 1e-9     # ... at this equilibrium residual


@dataclass(frozen=True, eq=False)
class KineticSystem:
    """A network with its kinetics, and the exact facts of the pair.

    Each fact is computed on first use and kept for the life of the system:
    the network's structural `invariants`, its `conservation` (whether it is
    conservative, with the witness), the `t_matrices` (None unless the
    kinetics is reactant-determined power law), the kinetics
    `classification`, the `linkage_verdict` of the linkage-class
    decomposition, and the read-only float matrices `n_float` (N) and
    `ia_float` (Ia). The pair is frozen, so the facts cannot go stale. A
    kinetics whose reaction or species count differs from the network's is
    refused.
    """

    network: ReactionNetwork
    kinetics: Kinetics

    def __post_init__(self):
        net, kin = self.network, self.kinetics
        if (kin.num_reactions, kin.num_species) != (net.num_reactions, net.num_species):
            raise CrnError(
                f"kinetics has {kin.num_reactions} reactions on {kin.num_species} species, "
                f"the network {net.num_reactions} on {net.num_species}")

    @cached_property
    def invariants(self) -> StructuralInvariants:
        return structural_invariants(self.network)

    @cached_property
    def conservation(self) -> tuple[bool, tuple[Fraction, ...] | None]:
        return is_conservative(self.network)

    @cached_property
    def t_matrices(self) -> TMatrices | None:
        return t_matrices_or_none(self.network, self.kinetics)

    @cached_property
    def classification(self) -> KineticsClassification:
        return classify(self.kinetics, self.network, self.t_matrices)

    @cached_property
    def linkage_verdict(self) -> IndependenceVerdict:
        inv = self.invariants
        return check_decomposition(self.network, inv.linkage_partition, inv)

    @cached_property
    def n_float(self) -> np.ndarray:
        return _frozen(self.network.n_array())

    @cached_property
    def ia_float(self) -> np.ndarray:
        return _frozen(self.network.ia_array())

    def sfrf_residual(self, x) -> float:
        return _residuals([(self.n_float, self.kinetics)], [x])[0]

    def cfrf_residual(self, x) -> float:
        return _residuals([(self.ia_float, self.kinetics)], [x])[0]


@dataclass(frozen=True, eq=False)
class EquilibriumPoint:
    x: np.ndarray
    sfrf_residual: float
    cfrf_residual: float
    kind: str  # "positive" | "complex_balanced"


@dataclass(frozen=True, eq=False)
class CosetConstraint:
    x0: np.ndarray               # positive anchor of the coset
    basis: np.ndarray            # rows spanning the subspace W


@dataclass(eq=False)
class SolveResult:
    points: list[EquilibriumPoint]
    diagnostics: dict

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _multistart(pairs, chart: _Chart, seeds, cfg: SolveConfig):
    """Damped Newton from every seed on the stacked residuals A K over `chart`.

    `pairs` lists (A, kinetics); each block of rows is flux-normalized on its
    own. The seeds are stepped together (`_newton`): each line-search round
    evaluates the kinetics once per pair, on the stack of trial points.
    Returns the accepted log points in seed order and the stop reason of
    every seed.
    """
    if not len(seeds):
        return [], []
    mats = [(a, np.abs(a), kin) for a, kin in pairs]

    def resjac(p):
        on, x = chart.to_x(p)
        gs, js, raw = [], [], np.zeros(x.shape[0])
        for a, abs_a, kin in mats:
            k, jk = log_jacobian(kin, x)
            g, jg, raw_inf = _normalized_rows(a, abs_a, k, chart.param_jac(jk, x))
            gs.append(g)
            js.append(jg)
            # fmax, like max() from 0.0, passes over a NaN residual
            raw = np.fmax(raw, raw_inf)
        if len(mats) == 1:
            return on, gs[0], js[0], raw
        return on, np.concatenate(gs, axis=-1), np.concatenate(js, axis=-2), raw

    logs: list[np.ndarray] = []
    stops: list[str] = []
    for run in _newton(resjac, np.array(seeds, dtype=float), cfg, chart.escape_bound):
        stop, log_x = _seed_outcome(run, chart.to_log, cfg)
        stops.append(stop)
        if log_x is not None:
            logs.append(log_x)
    return logs, stops


def _verified_states(pairs, chart: _Chart, seeds, cfg: SolveConfig) -> list[np.ndarray]:
    """The deduplicated states the multistart accepted whose residual on
    `pairs` is at most `tol`."""
    logs, _ = _multistart(pairs, chart, seeds, cfg)
    states = [np.exp(u) for u in _dedup_logs(logs)]
    return [x for x, res in zip(states, _residuals(pairs, states)) if res <= cfg.tol]


def solve_equilibria(system: KineticSystem, mode: str = "positive",
                     constraint: CosetConstraint | None = None,
                     config: SolveConfig | None = None) -> SolveResult:
    """Multistart search for positive or complex balanced equilibria.

    Deterministic for a fixed rng_seed; the all-ones state (or the coset
    anchor) is always the first seed. Points are deduplicated at distance
    `DEDUP_TOL` in log coordinates and re-verified against `tol`; an empty
    result with diagnostics, not an exception, signals no convergence.
    `diagnostics["stops"]` lists each seed's stop reason in seed order.
    """
    cfg = config or SolveConfig()
    net = system.network
    if mode == "positive":
        a = system.n_float
    elif mode == "complex_balanced":
        a = system.ia_float
    else:
        raise ValueError(f"unknown mode {mode!r}")
    chart = (_Chart.log(net.num_species) if constraint is None
             else _Chart.coset(net.num_species, constraint.x0, constraint.basis))
    logs, stops = _multistart([(a, system.kinetics)], chart, chart.seeds(cfg), cfg)
    kept = _dedup_logs(logs)
    states = [np.exp(u) for u in kept]
    sfrfs = _residuals([(system.n_float, system.kinetics)], states)
    cfrfs = _residuals([(system.ia_float, system.kinetics)], states)
    points = []
    for x, sfrf, cfrf in zip(states, sfrfs, cfrfs):
        if (sfrf if mode == "positive" else cfrf) <= cfg.tol:
            kind = "complex_balanced" if cfrf <= cfg.tol else "positive"
            points.append(EquilibriumPoint(x, sfrf, cfrf, kind))
    diagnostics = {"attempts": len(stops), "converged": len(logs), "distinct": len(kept),
                   "stops": stops, "mode": mode, "accepted": len(points)}
    return SolveResult(points, diagnostics)


@dataclass(frozen=True)
class CosetCounts:
    e_found: int
    z_found: int
    e_points: tuple[EquilibriumPoint, ...]
    z_points: tuple[EquilibriumPoint, ...]


def coset_intersection_count(system: KineticSystem, w_basis, x0,
                             config: SolveConfig | None = None) -> CosetCounts:
    """Found |E+ ∩ Q| and |Z+ ∩ Q| for Q = (x0 + span W) ∩ positives.

    Counts are certified lower bounds: the solver may miss equilibria, it
    can never fabricate one (every point is re-verified against `tol`).
    """
    cfg = config or SolveConfig()
    constraint = CosetConstraint(np.asarray(x0, dtype=float),
                                 np.atleast_2d(np.asarray(w_basis, dtype=float)))
    e = solve_equilibria(system, "positive", constraint, cfg)
    z = solve_equilibria(system, "complex_balanced", constraint, cfg)
    return CosetCounts(len(e.points), len(z.points),
                       tuple(e.points), tuple(z.points))


def sample_coset_counts(system: KineticSystem, w_basis, x_ref,
                        config: SolveConfig | None = None) -> list[tuple[np.ndarray, CosetCounts]]:
    """Coset counts over `coset_samples` anchors drawn as x_ref * exp(noise)."""
    cfg = config or SolveConfig()
    rng = np.random.default_rng(cfg.rng_seed + 1)
    x_ref = np.asarray(x_ref, dtype=float)
    out = []
    for _ in range(cfg.coset_samples):
        anchor = x_ref * np.exp(rng.uniform(-1.0, 1.0, size=x_ref.size))
        out.append((anchor, coset_intersection_count(system, w_basis, anchor, cfg)))
    return out


@dataclass(frozen=True, eq=False)
class LPSetSpec:
    """A flux subspace (as basis rows) with a positive reference state."""

    flux_basis: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.flux_basis, dtype=float))
        object.__setattr__(self, "flux_basis", basis)
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=float))
        if basis.shape[1] != self.reference.size:
            raise CrnError(f"flux basis rows have {basis.shape[1]} entries, the "
                           f"reference state {self.reference.size}")
        if linalg.numeric_rank(basis) != basis.shape[0]:
            raise CrnError("flux basis rows must be linearly independent")


@dataclass(frozen=True)
class LpPropertyReport:
    which: str                      # "E" or "Z"
    holds: bool
    found_direction_ok: bool        # every found equilibrium is in the LP set
    membership_direction_ok: bool   # every sampled LP-set member is an equilibrium
    max_projection: float
    max_residual: float
    n_found: int
    n_sampled: int


def check_lp_property(system: KineticSystem, which: str, spec: LPSetSpec,
                      config: SolveConfig | None = None,
                      points: list[EquilibriumPoint] | None = None) -> LpPropertyReport:
    """Two-sided sampled test that the chosen equilibria set is log
    parametrized by the orthogonal complement of the flux subspace.

    (a) every solver-found equilibrium x of the kind must satisfy
    log x - log x* ⊥ flux space within `LP_TOL`; (b) for `LP_SAMPLES` sampled
    directions in the complement, x* e^mu must have the kind's residual
    below `LP_TOL`.
    """
    cfg = config or SolveConfig()
    if which not in ("E", "Z"):
        raise ValueError("which must be 'E' or 'Z'")
    mode = "positive" if which == "E" else "complex_balanced"
    pairs = [(system.n_float if which == "E" else system.ia_float, system.kinetics)]
    ref = spec.reference
    ref_res = _residuals(pairs, [ref])[0]
    if ref_res > cfg.tol:
        raise ReferenceNotEquilibriumError(
            f"reference state has {which} residual {ref_res:.3e} above {cfg.tol:.1e}")

    if points is None:
        points = solve_equilibria(system, mode, config=cfg).points
    onto = linalg.orthonormal_columns(spec.flux_basis)
    max_proj = 0.0
    for p in points:
        v = np.log(p.x) - np.log(ref)
        max_proj = max(max_proj, linalg.projection_norm(v, onto))
    found_ok = max_proj <= LP_TOL

    perp = linalg.complement_basis_rows(spec.flux_basis, ref.size)
    rng = np.random.default_rng(cfg.rng_seed + 2)
    # A flux space filling R^m leaves no direction to sample.
    n_sampled = LP_SAMPLES if perp.shape[0] else 0
    samples = [ref * np.exp(perp.T @ rng.uniform(-1.0, 1.0, size=perp.shape[0]))
               for _ in range(n_sampled)]
    max_res = max([0.0, *_residuals(pairs, samples)])
    member_ok = max_res <= LP_TOL

    return LpPropertyReport(
        which=which, holds=found_ok and member_ok,
        found_direction_ok=found_ok, membership_direction_ok=member_ok,
        max_projection=max_proj, max_residual=max_res,
        n_found=len(points), n_sampled=n_sampled,
    )


@dataclass(frozen=True)
class KseReport:
    r_minus_s: int
    sampled_span_dim: int
    kse: bool
    por: bool
    incidence_kernel_dim: int           # dim ker Ia = r - n + l
    span_exceeds_incidence_kernel: bool


def kse_check(system: KineticSystem, found_equilibria: list[EquilibriumPoint],
              config: SolveConfig | None = None) -> KseReport:
    """Sampled dimension of the span of kinetic images over positive equilibria.

    Columns are K(x) at the found equilibria plus re-solves from log-space
    perturbations of them, each scaled to unit norm; their numeric rank
    (relative threshold 1e-9) is a certified lower bound for dim span K(E+).
    The kinetics is kernel spanning when that dimension reaches
    r - s = dim ker N; exceeding dim ker Ia = r - n + l already rules
    absolute complex balancing out on positive-deficiency networks.
    """
    cfg = config or SolveConfig()
    if not found_equilibria:
        raise NoEquilibriaError("no equilibria to sample the kinetic image on")
    net, kin, inv = system.network, system.kinetics, system.invariants
    rng = np.random.default_rng(cfg.rng_seed + 3)
    logs = [np.log(p.x) for p in found_equilibria]
    seeds = [base + rng.uniform(-0.8, 0.8, base.size) for base in logs[:8] for _ in range(3)]
    solved, _ = _multistart([(system.n_float, kin)], _Chart.log(net.num_species), seeds, cfg)
    logs = _dedup_logs(logs + solved)
    columns = evaluate(kin, np.array([np.exp(u) for u in logs])).T
    # unit-norm columns: the rank must not depend on the scale of each state
    norms = np.linalg.norm(columns, axis=0)
    dim = linalg.numeric_rank(columns / np.where(norms > 0, norms, 1.0))
    por = bool(system.classification.por)
    kernel_dim = inv.r - inv.n + inv.l
    return KseReport(
        r_minus_s=inv.r - inv.s,
        sampled_span_dim=dim,
        kse=(dim == inv.r - inv.s),
        por=por,
        incidence_kernel_dim=kernel_dim,
        span_exceeds_incidence_kernel=(dim > kernel_dim),
    )


@dataclass(frozen=True)
class PolyPlBalanceReport:
    pl_equilibrated: bool | None
    pl_complex_balanced: bool | None
    absolutely_pl_complex_balanced: bool | None
    n_full_e: int
    n_full_z: int
    n_joint_e: int
    n_joint_z: int


def poly_pl_equilibrated_check(net: ReactionNetwork, kin: PolyPLKinetics,
                               config: SolveConfig | None = None) -> PolyPlBalanceReport:
    """Sampled comparison of the poly-PL equilibria sets with the
    intersections over its power-law term systems.

    Membership is decided by residuals of the other side's defining maps at
    `LP_TOL`, which is sturdier than matching solver point lists; flags are
    None when a side produced no sample points.
    """
    cfg = config or SolveConfig()
    norm = normalize_poly_pl(kin)
    terms = [norm.term_system(j) for j in range(norm.length)]
    system = KineticSystem(net, norm)
    n_mat, ia_mat = system.n_float, system.ia_float

    full_e = solve_equilibria(system, "positive", config=cfg).points
    full_z = solve_equilibria(system, "complex_balanced", config=cfg).points

    joint_e_pairs = [(n_mat, tk) for tk in terms]
    joint_z_pairs = [(ia_mat, tk) for tk in terms]

    chart = _Chart.log(net.num_species)
    seeds = chart.seeds(cfg)

    joint_e = _verified_states(joint_e_pairs, chart, seeds, cfg)
    joint_z = _verified_states(joint_z_pairs, chart, seeds, cfg)

    def all_members(states, mats_kins) -> bool:
        return all(res <= LP_TOL for res in _residuals(mats_kins, states))

    pl_equilibrated = None
    if full_e or joint_e:
        pl_equilibrated = all_members([p.x for p in full_e], joint_e_pairs)
    pl_cb = None
    if full_z or joint_z:
        pl_cb = all_members([p.x for p in full_z], joint_z_pairs)
    abs_pl_cb = None
    if joint_z:
        abs_pl_cb = all_members(joint_e, joint_z_pairs)
    return PolyPlBalanceReport(
        pl_equilibrated=pl_equilibrated,
        pl_complex_balanced=pl_cb,
        absolutely_pl_complex_balanced=abs_pl_cb,
        n_full_e=len(full_e), n_full_z=len(full_z),
        n_joint_e=len(joint_e), n_joint_z=len(joint_z),
    )


# --- verdict engine -------------------------------------------------------

@dataclass(frozen=True)
class Citation:
    rule: str
    statement: str


CB_BY_SOLVER = Citation(
    "complex-balanced-point",
    "A complex balanced equilibrium was found numerically and re-verified.")
CB_BY_MAX_RANK = Citation(
    "maximal-rank-complex-balancing",
    "Weakly reversible power-law systems with reactant-determined orders and "
    "zero kinetic reactant deficiency (full column rank of the stacked order/"
    "linkage matrix) have a complex balanced equilibrium for every rate vector.")

RULE_FEINBERG = Citation(
    "deficiency-zero",
    "Feinberg ACB theorem: a complex balanced kinetic system with zero "
    "deficiency is absolutely complex balanced.")
RULE_HORN_JACKSON = Citation(
    "mass-action",
    "Horn-Jackson ACB theorem: every complex balanced mass action system is "
    "absolutely complex balanced.")
RULE_BILP = Citation(
    "bi-lp",
    "A complex balanced system whose complex balanced set is log parametrized "
    "(CLP) is absolutely complex balanced iff it is bi-LP: also PLP with the "
    "same flux space.")
RULE_DECOMPOSITION = Citation(
    "acb-decomposition",
    "A complex balanced system with a bi-independent decomposition into "
    "absolutely complex balanced subnetworks is absolutely complex balanced.")
RULE_DECOMPOSITION_REPLICA = Citation(
    "acb-replica-decomposition",
    "Replica construction: an incidence-independent linkage-class "
    "decomposition into absolutely complex balanced replicas, with the "
    "equilibria-set intersections certified by the termwise complex "
    "balancing of the source system, yields absolute complex balancing.")
RULE_KSE = Citation(
    "kse-partial-converse",
    "Partial converse to the Feinberg ACB theorem: an absolutely complex "
    "balanced system has dim span K(E+) <= dim ker Ia; kernel-spanning "
    "images (or any measured span above dim ker Ia) on a positive-deficiency "
    "network therefore exclude absolute complex balancing.")
RULE_WITNESS = Citation(
    "numeric-witness",
    "A re-verified positive equilibrium violates complex balancing by a "
    "margin far above solver tolerance.")
RULE_SWEEP = Citation(
    "numeric-sweep",
    "Multistart search found no positive equilibrium violating complex "
    "balancing; numeric evidence only, counts are lower bounds.")


@dataclass(frozen=True)
class AcbVerdict:
    status: str  # ACB_certified | NotACB_certified | ACB_numeric | NotACB_numeric | Inconclusive
    justification: tuple[Citation, ...]
    witness: EquilibriumPoint | None


@dataclass(frozen=True)
class DecompositionEvidence:
    parts_acb: tuple[str, ...]           # per-part verdict status strings
    intersection_certified: bool         # E+/Z+ of the whole equal the part intersections
    note: str


@dataclass(frozen=True, eq=False)
class AcbAnalysis:
    """Evidence on `system` for `acb_verdict`; exact facts stay on `system`."""

    system: KineticSystem
    complex_balanced: bool | None
    cb_citations: tuple[Citation, ...]
    e_points: list[EquilibriumPoint]
    z_points: list[EquilibriumPoint]
    e_diagnostics: dict = field(default_factory=dict)
    clp: LpPropertyReport | None = None    # CLP and PLP share one flux space
    plp: LpPropertyReport | None = None
    kse: KseReport | None = None
    decomposition: DecompositionEvidence | None = None


class _Rule(NamedTuple):
    citation: Citation
    status: str
    fires: Callable  # (analysis, witness or None) -> bool


def _parts_certified(a: AcbAnalysis) -> bool:
    parts = a.decomposition.parts_acb if a.decomposition is not None else ()
    return bool(parts) and all(s == "ACB_certified" for s in parts)


# The verdict rules in the order they apply. Each predicate reads the exact
# facts from `a.system` and the evidence from the analysis `a`; `w` is the witness.
_RULES = (
    _Rule(RULE_FEINBERG, "ACB_certified", lambda a, w: a.system.invariants.delta == 0),
    _Rule(RULE_HORN_JACKSON, "ACB_certified", lambda a, w: a.system.classification.mass_action),
    _Rule(RULE_BILP, "ACB_certified", lambda a, w: (
        a.clp is not None and a.clp.holds and a.plp is not None and a.plp.holds)),
    _Rule(RULE_DECOMPOSITION, "ACB_certified", lambda a, w: (
        _parts_certified(a) and a.system.linkage_verdict.bi_independent)),
    _Rule(RULE_DECOMPOSITION_REPLICA, "ACB_certified", lambda a, w: (
        _parts_certified(a) and not a.system.linkage_verdict.bi_independent
        and a.system.linkage_verdict.incidence_independent
        and a.decomposition.intersection_certified)),
    _Rule(RULE_KSE, "NotACB_certified", lambda a, w: (
        a.kse is not None and a.system.invariants.delta > 0
        and (a.kse.kse or a.kse.span_exceeds_incidence_kernel))),
    _Rule(RULE_WITNESS, "NotACB_numeric", lambda a, w: w is not None),
    _Rule(RULE_SWEEP, "ACB_numeric", lambda a, w: w is None and bool(a.e_points)),
)


def acb_verdict(analysis: AcbAnalysis, config: SolveConfig | None = None) -> AcbVerdict:
    """Fold `_RULES` in order over the analysis and its numeric witness.

    The witness is the found equilibrium that violates complex balancing the
    most (cfrf residual above `WITNESS_CFRF` at sfrf residual below
    `WITNESS_SFRF`). The status is that of the first rule that fires
    ("Inconclusive" if none does); the justification lists the
    complex-balancing citations, then every fired rule in table order.
    Certified verdicts both ways raise. `config` is not read.
    """
    if not (analysis.complex_balanced or analysis.z_points):
        raise NotComplexBalancedError(
            "verdict undefined: no complex balanced equilibrium is known or certified")
    witness = max((p for p in analysis.e_points
                   if p.sfrf_residual <= WITNESS_SFRF and p.cfrf_residual > WITNESS_CFRF),
                  key=lambda p: p.cfrf_residual, default=None)
    fired = [rule for rule in _RULES if rule.fires(analysis, witness)]
    statuses = {rule.status for rule in fired}
    if "ACB_certified" in statuses and "NotACB_certified" in statuses:
        raise CrnError("contradictory certified verdicts: inconsistent evidence bundle")
    return AcbVerdict(status=fired[0].status if fired else "Inconclusive",
                      justification=analysis.cb_citations + tuple(r.citation for r in fired),
                      witness=witness)


# --- orchestration ---------------------------------------------------------

def certify_complex_balancing(system: KineticSystem, z_points: list[EquilibriumPoint]):
    """Complex balancing status plus the citations that established it."""
    if z_points:
        return True, (CB_BY_SOLVER,)
    if not system.invariants.weakly_reversible:
        # A complex balanced system is necessarily weakly reversible.
        return False, ()
    if system.t_matrices is not None and is_pl_tik(system.t_matrices):
        return True, (CB_BY_MAX_RANK,)
    return None, ()


def linkage_decomposition_evidence(system: KineticSystem,
                                   config: SolveConfig | None = None,
                                   intersection_certified: bool | None = None,
                                   note: str = "") -> DecompositionEvidence | None:
    """Per-part ACB certificates for the linkage-class decomposition.

    Parts are certified only through the zero-deficiency and mass-action
    rules (no recursion). A part is solved as Ia diag(1_part) K(x) = 0, the
    incidence columns of the other reactions zeroed and the system's own
    kinetics kept, so parts of every kinetics family are solved.
    Intersection certification defaults to the independence status: for a
    bi-independent decomposition the equilibria sets of the whole are
    exactly the intersections of the parts'.

    The exact flags are settled first. When they rule the decomposition
    rule out (neither bi-independent nor incidence independent with
    certified intersections), no part is solved: `parts_acb` is empty and
    `note` gives the reason. A part that is neither of zero deficiency nor
    mass action is "Inconclusive" without a solve.
    """
    cfg = config or SolveConfig()
    net = system.network
    parts = system.invariants.linkage_partition
    if len(parts) < 2:
        return None
    verdict = system.linkage_verdict
    certified = (verdict.bi_independent if intersection_certified is None
                 else intersection_certified)
    note = note or "linkage-class decomposition"
    part_statuses = []
    if not (verdict.bi_independent
            or (verdict.incidence_independent and certified)):
        reason = ("not incidence independent" if not verdict.incidence_independent
                  else "not bi-independent and intersections not certified")
        note = f"{note}; per-part certificates skipped: {reason}"
    else:
        chart = _Chart.log(net.num_species)
        seeds = chart.seeds(cfg)
        ia = system.ia_float
        for part, summary in zip(parts, verdict.summaries):
            if not (summary.delta == 0
                    or _is_mass_action(system.kinetics, net, part)):
                part_statuses.append("Inconclusive")
                continue
            mask = np.zeros(net.num_reactions)
            mask[list(part)] = 1.0
            balanced = _verified_states([(ia * mask, system.kinetics)], chart, seeds, cfg)
            part_statuses.append("ACB_certified" if balanced else "Inconclusive")
    return DecompositionEvidence(
        parts_acb=tuple(part_statuses),
        intersection_certified=certified,
        note=note,
    )


def star_msc_acb_evidence(star_system: KineticSystem, source_system: KineticSystem,
                          config: SolveConfig | None = None) -> DecompositionEvidence | None:
    """Evidence that `star_system`, the replica transform of the poly-PL
    `source_system`, is ACB via its linkage classes.

    Requires the source system to be weakly reversible with zero deficiency,
    complex balanced, and termwise complex balanced (its complex balanced
    set equals the intersection over the term systems); then the replica
    linkage classes of the transform are zero-deficiency ACB parts and the
    transform's equilibria sets equal the part intersections.
    """
    cfg = config or SolveConfig()
    src_inv = source_system.invariants
    if not src_inv.weakly_reversible or src_inv.delta != 0:
        return None
    balance = poly_pl_equilibrated_check(source_system.network, source_system.kinetics, cfg)
    if balance.n_full_z == 0 or balance.pl_complex_balanced is not True:
        return None
    return linkage_decomposition_evidence(
        star_system, cfg, intersection_certified=True,
        note=("replica linkage classes of a termwise complex balanced, "
              "weakly reversible, zero-deficiency source"))


def default_flux_basis(system: KineticSystem) -> np.ndarray:
    """Flux space rows for LP checks: the kinetic order subspace for
    reactant-determined power-law kinetics with rational orders that is not
    mass action, the stoichiometric subspace otherwise."""
    t_matrices = system.t_matrices
    if (t_matrices is not None and not system.classification.mass_action
            and t_matrices.exact_s_tilde_basis is not None):
        return t_matrices.s_tilde_basis
    return np.array(stoichiometric_basis(system.network), dtype=float)


def analyze_acb(system: KineticSystem, config: SolveConfig | None = None,
                flux_spec_basis=None) -> AcbAnalysis:
    """Run the whole evidence pipeline for one system.

    Reads the system's exact facts (structural invariants, classification,
    order matrices where defined) and collects equilibria of both kinds,
    the CLP report on Z+ and, when E+ points were found, the PLP report on
    E+, both against one flux space (`flux_spec_basis`, by default
    `default_flux_basis`), so bi-LP holds exactly when both do; then the
    kinetic-image span report and linkage decomposition evidence. The
    result feeds `acb_verdict`.
    """
    cfg = config or SolveConfig()
    e_res = solve_equilibria(system, "positive", config=cfg)
    z_res = solve_equilibria(system, "complex_balanced", config=cfg)
    cb, cb_cites = certify_complex_balancing(system, z_res.points)

    clp = plp = None
    if z_res.points:
        basis = default_flux_basis(system) if flux_spec_basis is None else flux_spec_basis
        # each reference is a point the solver accepted at `tol`, so the
        # reference check of `check_lp_property` cannot refuse it
        clp = check_lp_property(system, "Z", LPSetSpec(basis, z_res.points[0].x),
                                config=cfg, points=z_res.points)
        if e_res.points:
            plp = check_lp_property(system, "E", LPSetSpec(basis, e_res.points[0].x),
                                    config=cfg, points=e_res.points)

    kse = None
    if e_res.points:
        kse = kse_check(system, e_res.points, cfg)

    deco = linkage_decomposition_evidence(system, cfg)

    return AcbAnalysis(
        system=system, complex_balanced=cb, cb_citations=cb_cites,
        e_points=e_res.points, z_points=z_res.points,
        e_diagnostics=e_res.diagnostics, clp=clp, plp=plp,
        kse=kse, decomposition=deco,
    )


def sample_positive_states(m: int, count: int = 20, rng_seed: int = 42,
                           width: float = 2.0) -> list[np.ndarray]:
    """Deterministic log-uniform positive states for sampled comparisons."""
    rng = np.random.default_rng(rng_seed)
    return [np.exp(rng.uniform(-width, width, size=m)) for _ in range(count)]
