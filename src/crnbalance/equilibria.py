"""Numeric equilibria search and theorem-backed balancing verdicts.

The solver is a multistart damped Newton iteration in log coordinates
u = log x, which enforces positivity without projections: the positive
equilibria solve N K(exp u) = 0 and the complex balanced ones
Ia K(exp u) = 0. Found points are deduplicated, re-verified and reported
with both residuals. Counts derived from such searches are certified lower
bounds only; set-level claims (absolute complex balancing, log
parametrization, kernel-spanning images) are rendered by the verdict
engine, which combines numeric evidence with the classical theorems and
records a citation chain for every rule it fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg, rational
from .decomposition import check_decomposition
from .kinetics import (Kinetics, KineticsClassification, PolyPLKinetics,
                       PowerLawKinetics, classify, evaluate, log_jacobian,
                       normalize_poly_pl)
from .kinetic_matrices import TMatrices, build_t_matrices, is_pl_tik, NotRDKError
from .network import (CrnError, ReactionNetwork, StructuralInvariants,
                      structural_invariants, stoichiometric_basis)


class NoEquilibriaError(CrnError):
    pass


class ReferenceNotEquilibriumError(CrnError):
    pass


class NotComplexBalancedError(CrnError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    seeds: int = 64
    rng_seed: int = 42
    tol: float = 1e-9
    max_iter: int = 200
    max_halvings: int = 40
    dedup_tol: float = 1e-6        # log-coordinate distance between distinct points
    seed_width: float = 3.0        # seeds drawn log-uniform in [e^-w, e^w]^m
    accept_bound: float = 36.0     # log-radius guard; fake roots where the
                                   # kinetics vanish are already rejected by the
                                   # relative residual test
    max_step: float = 4.0          # per-iteration log-space step clamp
    lp_tol: float = 1e-7           # log-parametrization membership tolerance
    witness_cfrf: float = 1e-4     # complex-balance violation for a witness ...
    witness_sfrf: float = 1e-9     # ... at this equilibrium residual
    coset_samples: int = 8


@dataclass(eq=False)
class KineticSystem:
    network: ReactionNetwork
    kinetics: Kinetics

    def sfrf_residual(self, x) -> float:
        return float(np.max(np.abs(self.network.n_array() @ evaluate(self.kinetics, x))))

    def cfrf_residual(self, x) -> float:
        return float(np.max(np.abs(self.network.ia_array() @ evaluate(self.kinetics, x))))


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


_U_BOUND = 44.0  # exp(44) ~ 1.3e19: beyond this the chart has left desk scale


def _normalized_rows(a, abs_a, k, jk_param):
    """Flux-normalized residual rows G = (A K) / (|A| K) and their Jacobian.

    Each row of A K is divided by the total kinetic flux through that row,
    which makes the residual scale invariant: shrinking or inflating the
    whole state cannot fake progress, and rows whose kinetics run at tiny
    magnitudes still count at full weight. Rows with no flux (all-zero rows
    of A) are identically zero and stay zero.
    """
    raw = a @ k
    flux = abs_a @ k
    div = np.where(flux > 0, flux, 1.0)
    g = raw / div
    d_raw = a @ jk_param
    d_flux = abs_a @ jk_param
    jg = (d_raw - g[:, None] * d_flux) / div[:, None]
    return g, jg, float(np.max(np.abs(raw), initial=0.0))


# Line-search collapse (Nocedal & Wright, ch. 3 and 10): once the last
# _COLLAPSE_STEPS accepted steps all needed lambda <= _COLLAPSE_LAMBDA while
# the normalized residual is still above _COLLAPSE_RESIDUAL, the run creeps
# and does not converge. A plateau taken at full steps is not a collapse:
# such runs can still converge.
_COLLAPSE_LAMBDA = 1e-3
_COLLAPSE_STEPS = 5
_COLLAPSE_RESIDUAL = 1e-2


class _Run(NamedTuple):
    u: np.ndarray
    gnorm: float       # normalized residual, max norm
    raw: float         # raw residual, max norm
    stop: str          # why the iteration ended


def _newton(resjac, u0: np.ndarray, cfg: SolveConfig,
            escape_bound: float | None = None) -> _Run:
    """Damped Gauss-Newton on the flux-normalized residual.

    Steps are clamped in the max norm (exponential charts make the linear
    model wildly optimistic far from a root) and damped on the 2-norm, which
    the least-squares direction is guaranteed to descend. `stop` is one of
    "converged" (the polish target is met), "left the chart" (no residual at
    u0), "escaped" (max|u| above `escape_bound`, where no point can be
    accepted), "non-finite step", "step below 1e-15", "line search
    exhausted", "line search collapsed" or "max_iter".
    """
    state = resjac(u0)
    if state is None:
        return _Run(u0, np.inf, np.inf, "left the chart")
    u = u0.copy()
    g, jac, raw = state
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    # Polish four digits past acceptance so downstream rank estimates are
    # not dominated by solver noise.
    target = 1e-4 * cfg.tol
    short_steps = 0
    for _ in range(cfg.max_iter):
        if gnorm <= target:
            return _Run(u, gnorm, raw, "converged")
        if escape_bound is not None and np.max(np.abs(u)) > escape_bound:
            return _Run(u, gnorm, raw, "escaped")
        # lstsq raises on a non-finite Jacobian, so test it first
        if not np.all(np.isfinite(jac)):
            return _Run(u, gnorm, raw, "non-finite step")
        step = np.linalg.lstsq(jac, -g, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return _Run(u, gnorm, raw, "non-finite step")
        if np.max(np.abs(step)) <= 1e-15 * (1.0 + np.max(np.abs(u))):
            return _Run(u, gnorm, raw, "step below 1e-15")
        biggest = float(np.max(np.abs(step)))
        if biggest > cfg.max_step:
            step = step * (cfg.max_step / biggest)
        g2sq_old = float(g @ g)
        lam = 1.0
        accepted = False
        for _ in range(cfg.max_halvings):
            trial = u + lam * step
            state = resjac(trial)
            if state is not None:
                g2, jac2, raw2 = state
                if float(g2 @ g2) < g2sq_old:
                    u, g, jac, raw = trial, g2, jac2, raw2
                    gnorm = float(np.max(np.abs(g2)))
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            return _Run(u, gnorm, raw, "line search exhausted")
        short_steps = short_steps + 1 if lam <= _COLLAPSE_LAMBDA else 0
        if short_steps >= _COLLAPSE_STEPS and gnorm > _COLLAPSE_RESIDUAL:
            return _Run(u, gnorm, raw, "line search collapsed")
    return _Run(u, gnorm, raw, "converged" if gnorm <= target else "max_iter")


def _seed_outcome(run: _Run, to_log, cfg: SolveConfig):
    """(stop reason, log point or None) of one multistart run.

    A run is accepted, as "converged", when both the flux-normalized and the
    raw residual clear `tol` and its point lies inside the log-radius bound.
    Any other run reports why it stopped; a run that met the polish target
    and was still refused reports the acceptance test it failed.
    """
    if run.gnorm <= cfg.tol and run.raw <= cfg.tol:
        log_x = to_log(run.u)
        if np.max(np.abs(log_x)) <= cfg.accept_bound:
            return "converged", log_x
    if run.stop != "converged":
        return run.stop, None
    return ("raw residual above tol" if run.raw > cfg.tol
            else "outside accept_bound"), None


def _log_chart(pairs, cfg):
    """resjac over u = log x for stacked residuals of (A @ K)(exp u)."""
    mats = [(a, np.abs(a), kin) for a, kin in pairs]

    def resjac(u):
        if np.max(np.abs(u)) > _U_BOUND:
            return None
        x = np.exp(u)
        gs, js, raw = [], [], 0.0
        for a, abs_a, kin in mats:
            k, jk = log_jacobian(kin, x)
            g, jg, raw_inf = _normalized_rows(a, abs_a, k, jk)
            gs.append(g)
            js.append(jg)
            raw = max(raw, raw_inf)
        return np.concatenate(gs), np.vstack(js), raw

    return resjac


def _coset_chart(pairs, x0, basis_rows, cfg):
    """resjac over coset coordinates x = x0 + B a, valid only while x > 0."""
    b = np.atleast_2d(np.asarray(basis_rows, dtype=float)).T  # (m, d)
    mats = [(a, np.abs(a), kin) for a, kin in pairs]

    def resjac(alpha):
        x = x0 + b @ alpha
        if np.any(x <= 0) or np.any(x > 1e18):
            return None
        gs, js, raw = [], [], 0.0
        for a, abs_a, kin in mats:
            k, jk = log_jacobian(kin, x)
            g, jg, raw_inf = _normalized_rows(a, abs_a, k, (jk / x[None, :]) @ b)
            gs.append(g)
            js.append(jg)
            raw = max(raw, raw_inf)
        return np.concatenate(gs), np.vstack(js), raw

    def to_log(alpha):
        # positive at every alpha the chart returned a residual for
        return np.log(x0 + b @ alpha)

    return resjac, to_log, b.shape[1]


def _identity(u):
    return u


def _dedup_logs(log_points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    ordered = sorted(log_points, key=lambda v: tuple(v))
    kept: list[np.ndarray] = []
    for u in ordered:
        if all(np.max(np.abs(u - v)) > tol for v in kept):
            kept.append(u)
    return kept


def _multistart(pairs, system: KineticSystem, cfg: SolveConfig,
                constraint: CosetConstraint | None):
    """Shared multistart driver; returns (points, diagnostics).

    `diagnostics["stops"]` lists each seed's stop reason in seed order.
    Only the log chart stops runs that escape past `accept_bound`; the
    coset chart ends at its own positivity boundary.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    m = system.network.num_species

    if constraint is None:
        resjac = _log_chart(pairs, cfg)
        to_log, escape_bound = _identity, cfg.accept_bound
        seeds = [np.zeros(m)]
        seeds.extend(rng.uniform(-cfg.seed_width, cfg.seed_width, size=m)
                     for _ in range(max(0, cfg.seeds - 1)))
    else:
        x0 = np.asarray(constraint.x0, dtype=float)
        if np.any(x0 <= 0):
            raise CrnError("coset anchor must be strictly positive")
        resjac, to_log, d = _coset_chart(pairs, x0, constraint.basis, cfg)
        escape_bound = None
        scale = 0.5 * float(np.min(x0)) / max(
            1.0, float(np.max(np.abs(constraint.basis))))
        seeds = [np.zeros(d)]
        seeds.extend(rng.uniform(-1.0, 1.0, size=d) * scale * (1 + trial)
                     for trial in range(max(0, cfg.seeds - 1)))

    stops: list[str] = []
    collected: list[np.ndarray] = []
    for u0 in seeds:
        stop, log_x = _seed_outcome(_newton(resjac, u0, cfg, escape_bound), to_log, cfg)
        stops.append(stop)
        if log_x is not None:
            collected.append(log_x)

    kept = _dedup_logs(collected, cfg.dedup_tol)
    points = []
    for u in kept:
        x = np.exp(u)
        points.append(EquilibriumPoint(
            x=x,
            sfrf_residual=system.sfrf_residual(x),
            cfrf_residual=system.cfrf_residual(x),
            kind="pending",
        ))
    diagnostics = {"attempts": len(stops), "converged": len(collected),
                   "distinct": len(kept), "stops": stops}
    return points, diagnostics


def solve_equilibria(system: KineticSystem, mode: str = "positive",
                     constraint: CosetConstraint | None = None,
                     config: SolveConfig | None = None) -> SolveResult:
    """Multistart search for positive or complex balanced equilibria.

    Deterministic for a fixed rng_seed; the all-ones state (or the coset
    anchor) is always the first seed. Points are deduplicated at distance
    `dedup_tol` in log coordinates and re-verified against `tol`; an empty
    result with diagnostics, not an exception, signals no convergence.
    """
    cfg = config or SolveConfig()
    net = system.network
    if mode == "positive":
        a = net.n_array()
    elif mode == "complex_balanced":
        a = net.ia_array()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    points, diagnostics = _multistart([(a, system.kinetics)], system, cfg, constraint)
    final = []
    for p in points:
        res = p.sfrf_residual if mode == "positive" else p.cfrf_residual
        if res <= cfg.tol:
            kind = "complex_balanced" if p.cfrf_residual <= cfg.tol else "positive"
            final.append(replace(p, kind=kind))
    diagnostics["mode"] = mode
    diagnostics["accepted"] = len(final)
    return SolveResult(final, diagnostics)


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
    exact_basis: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.flux_basis, dtype=float))
        object.__setattr__(self, "flux_basis", basis)
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=float))
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
                      n_samples: int = 8, config: SolveConfig | None = None,
                      points: list[EquilibriumPoint] | None = None) -> LpPropertyReport:
    """Two-sided sampled test that the chosen equilibria set is log
    parametrized by the orthogonal complement of the flux subspace.

    (a) every solver-found equilibrium x of the kind must satisfy
    log x - log x* ⊥ flux space within `lp_tol`; (b) for sampled directions
    in the complement, x* e^mu must have the kind's residual below `lp_tol`.
    """
    cfg = config or SolveConfig()
    if which not in ("E", "Z"):
        raise ValueError("which must be 'E' or 'Z'")
    mode = "positive" if which == "E" else "complex_balanced"
    ref = spec.reference
    ref_res = (system.sfrf_residual(ref) if which == "E"
               else system.cfrf_residual(ref))
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
    found_ok = max_proj <= cfg.lp_tol

    perp = linalg.complement_basis_rows(spec.flux_basis, ref.size)
    rng = np.random.default_rng(cfg.rng_seed + 2)
    # A flux space filling R^m leaves no direction to sample.
    n_sampled = n_samples if perp.shape[0] else 0
    max_res = 0.0
    for _ in range(n_sampled):
        mu = perp.T @ rng.uniform(-1.0, 1.0, size=perp.shape[0])
        x = ref * np.exp(mu)
        res = system.sfrf_residual(x) if which == "E" else system.cfrf_residual(x)
        max_res = max(max_res, res)
    member_ok = max_res <= cfg.lp_tol

    return LpPropertyReport(
        which=which, holds=found_ok and member_ok,
        found_direction_ok=found_ok, membership_direction_ok=member_ok,
        max_projection=max_proj, max_residual=max_res,
        n_found=len(points), n_sampled=n_sampled,
    )


def check_bilp(system: KineticSystem, z_spec: LPSetSpec, e_spec: LPSetSpec) -> bool:
    """Whether the two flux subspaces coincide (exact when both are rational)."""
    if z_spec.exact_basis is not None and e_spec.exact_basis is not None:
        return rational.spans_equal([list(r) for r in z_spec.exact_basis],
                                    [list(r) for r in e_spec.exact_basis])
    return linalg.rows_span_equal(z_spec.flux_basis, e_spec.flux_basis)


@dataclass(frozen=True)
class KseReport:
    r_minus_s: int
    sampled_span_dim: int
    kse: bool
    por: bool
    incidence_kernel_dim: int           # dim ker Ia = r - n + l
    span_exceeds_incidence_kernel: bool


def kse_check(net: ReactionNetwork, kin: Kinetics,
              found_equilibria: list[EquilibriumPoint],
              config: SolveConfig | None = None, *,
              inv: StructuralInvariants | None = None,
              cls: KineticsClassification | None = None) -> KseReport:
    """Sampled dimension of the span of kinetic images over positive equilibria.

    Columns are K(x) at the found equilibria plus re-solves from log-space
    perturbations of them; the numeric rank (relative threshold 1e-9) is a
    certified lower bound for dim span K(E+). The kinetics is kernel
    spanning when that dimension reaches r - s = dim ker N; exceeding
    dim ker Ia = r - n + l already rules absolute complex balancing out on
    positive-deficiency networks. `inv` and `cls` are the structural
    invariants of `net` and the classification of `kin`, if already known.
    """
    cfg = config or SolveConfig()
    if not found_equilibria:
        raise NoEquilibriaError("no equilibria to sample the kinetic image on")
    if inv is None:
        inv = structural_invariants(net)
    a = net.n_array()
    resjac = _log_chart([(a, kin)], cfg)
    rng = np.random.default_rng(cfg.rng_seed + 3)
    logs = [np.log(p.x) for p in found_equilibria]
    for base in list(logs)[:8]:
        for _ in range(3):
            run = _newton(resjac, base + rng.uniform(-0.8, 0.8, base.size), cfg,
                          cfg.accept_bound)
            _, log_x = _seed_outcome(run, _identity, cfg)
            if log_x is not None:
                logs.append(log_x)
    logs = _dedup_logs(logs, cfg.dedup_tol)
    columns = np.array([evaluate(kin, np.exp(u)) for u in logs]).T
    dim = linalg.numeric_rank(columns)
    if cls is None:
        cls = classify(kin, net)
    por = bool(cls.por) if cls.por is not None else False
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
    `lp_tol`, which is sturdier than matching solver point lists; flags are
    None when a side produced no sample points.
    """
    cfg = config or SolveConfig()
    norm = normalize_poly_pl(kin)
    terms = [norm.term_system(j) for j in range(norm.length)]
    system = KineticSystem(net, norm)
    n_mat, ia_mat = net.n_array(), net.ia_array()

    full_e = solve_equilibria(system, "positive", config=cfg).points
    full_z = solve_equilibria(system, "complex_balanced", config=cfg).points

    joint_e_pairs = [(n_mat, tk) for tk in terms]
    joint_z_pairs = [(ia_mat, tk) for tk in terms]
    joint_e, _ = _multistart(joint_e_pairs, system, cfg, None)
    joint_z, _ = _multistart(joint_z_pairs, system, cfg, None)
    joint_e = [p for p in joint_e
               if max(float(np.max(np.abs(n_mat @ evaluate(tk, p.x)))) for tk in terms) <= cfg.tol]
    joint_z = [p for p in joint_z
               if max(float(np.max(np.abs(ia_mat @ evaluate(tk, p.x)))) for tk in terms) <= cfg.tol]

    def all_members(points, mats_kins, tol) -> bool:
        return all(
            max(float(np.max(np.abs(mat @ evaluate(tk, p.x)))) for mat, tk in mats_kins) <= tol
            for p in points)

    pl_equilibrated = None
    if full_e or joint_e:
        pl_equilibrated = all_members(full_e, joint_e_pairs, cfg.lp_tol)
    pl_cb = None
    if full_z or joint_z:
        pl_cb = all_members(full_z, joint_z_pairs, cfg.lp_tol)
    abs_pl_cb = None
    if joint_z:
        abs_pl_cb = all_members(joint_e, joint_z_pairs, cfg.lp_tol)
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
    independent: bool
    incidence_independent: bool
    bi_independent: bool
    parts_acb: tuple[str, ...]           # per-part verdict status strings
    intersection_certified: bool         # E+/Z+ of the whole equal the part intersections
    note: str


@dataclass(eq=False)
class AcbAnalysis:
    system: KineticSystem
    structural: StructuralInvariants
    classification: KineticsClassification
    complex_balanced: bool | None
    cb_citations: tuple[Citation, ...]
    e_points: list[EquilibriumPoint]
    z_points: list[EquilibriumPoint]
    e_diagnostics: dict = field(default_factory=dict)
    t_matrices: TMatrices | None = None
    clp: LpPropertyReport | None = None
    plp: LpPropertyReport | None = None
    bilp: bool | None = None
    kse: KseReport | None = None
    decomposition: DecompositionEvidence | None = None


def acb_verdict(analysis: AcbAnalysis, config: SolveConfig | None = None) -> AcbVerdict:
    """Apply the verdict rules in order and collect every rule that fires.

    Rules: (1) zero deficiency, (2) mass action, (3) CLP + bi-LP,
    (4) decomposition into certified-ACB parts (bi-independent, or
    incidence-independent with certified intersections), (5) the partial
    converse via kernel-spanning/kernel-exceeding image spans, (6) a numeric
    witness, (7) a clean numeric sweep. The status is the first fired rule;
    the justification lists them all.
    """
    cfg = config or SolveConfig()
    cb = analysis.complex_balanced or bool(analysis.z_points)
    if not cb:
        raise NotComplexBalancedError(
            "verdict undefined: no complex balanced equilibrium is known or certified")

    fired: list[Citation] = list(analysis.cb_citations)
    statuses: list[str] = []

    if analysis.structural.delta == 0:
        fired.append(RULE_FEINBERG)
        statuses.append("ACB_certified")
    if analysis.classification.mass_action:
        fired.append(RULE_HORN_JACKSON)
        statuses.append("ACB_certified")
    if (analysis.clp is not None and analysis.clp.holds
            and analysis.plp is not None and analysis.plp.holds
            and analysis.bilp):
        fired.append(RULE_BILP)
        statuses.append("ACB_certified")
    deco = analysis.decomposition
    if deco is not None and deco.parts_acb and all(
            s == "ACB_certified" for s in deco.parts_acb):
        if deco.bi_independent:
            fired.append(RULE_DECOMPOSITION)
            statuses.append("ACB_certified")
        elif deco.incidence_independent and deco.intersection_certified:
            fired.append(RULE_DECOMPOSITION_REPLICA)
            statuses.append("ACB_certified")

    kse = analysis.kse
    if (kse is not None and analysis.structural.delta > 0
            and (kse.kse or kse.span_exceeds_incidence_kernel)):
        fired.append(RULE_KSE)
        statuses.append("NotACB_certified")

    witness = None
    for p in analysis.e_points:
        if p.sfrf_residual <= cfg.witness_sfrf and p.cfrf_residual > cfg.witness_cfrf:
            if witness is None or p.cfrf_residual > witness.cfrf_residual:
                witness = p
    if witness is not None:
        fired.append(RULE_WITNESS)
        statuses.append("NotACB_numeric")
    elif analysis.e_points:
        fired.append(RULE_SWEEP)
        statuses.append("ACB_numeric")

    if "ACB_certified" in statuses and "NotACB_certified" in statuses:
        raise CrnError("contradictory certified verdicts: inconsistent evidence bundle")

    status = statuses[0] if statuses else "Inconclusive"
    return AcbVerdict(status=status, justification=tuple(fired), witness=witness)


# --- orchestration ---------------------------------------------------------

def certify_complex_balancing(system: KineticSystem,
                              inv: StructuralInvariants,
                              t_matrices: TMatrices | None,
                              z_points: list[EquilibriumPoint]):
    """Complex balancing status plus the citations that established it."""
    if z_points:
        return True, (CB_BY_SOLVER,)
    if not inv.weakly_reversible:
        # A complex balanced system is necessarily weakly reversible.
        return False, ()
    if t_matrices is not None and is_pl_tik(t_matrices):
        return True, (CB_BY_MAX_RANK,)
    return None, ()


def _part_system(system: KineticSystem, part: tuple[int, ...]):
    """Residual matrices and row-restricted kinetics for one part, on the
    full species space (so order rows never lose support)."""
    from .decomposition import restrict_kinetics
    net = system.network
    cols = list(part)
    n_part = net.n_array()[:, cols]
    ia_part = net.ia_array()[:, cols]
    kin_part = restrict_kinetics(system.kinetics, part)
    return n_part, ia_part, kin_part


def _part_is_mass_action(system: KineticSystem, part, kin_part) -> bool:
    net = system.network
    if not isinstance(kin_part, PowerLawKinetics):
        return False
    for row, q in zip(kin_part.orders, part):
        target = np.array([float(c) for c in
                           net.complexes[net.reactions[q].reactant].coeffs])
        if np.max(np.abs(row - target)) > 1e-12:
            return False
    return True


def linkage_decomposition_evidence(system: KineticSystem,
                                   config: SolveConfig | None = None,
                                   intersection_certified: bool | None = None,
                                   note: str = "", *,
                                   inv: StructuralInvariants | None = None
                                   ) -> DecompositionEvidence | None:
    """Per-part ACB certificates for the linkage-class decomposition.

    Parts are certified only through the zero-deficiency and mass-action
    rules (no recursion). Intersection certification defaults to the
    independence status: for a bi-independent decomposition the equilibria
    sets of the whole are exactly the intersections of the parts'.

    The exact flags are settled first. When they rule the decomposition
    rule out (neither bi-independent nor incidence independent with
    certified intersections), no part is solved: `parts_acb` is empty and
    `note` gives the reason. A part that is neither of zero deficiency nor
    mass action is "Inconclusive" without a solve. `inv` is the structural
    invariants of the system's network, if already known.
    """
    cfg = config or SolveConfig()
    net = system.network
    if inv is None:
        inv = structural_invariants(net)
    parts = inv.linkage_partition
    if len(parts) < 2:
        return None
    verdict = check_decomposition(net, parts, inv)
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
        for part, summary in zip(parts, verdict.summaries):
            try:
                _, ia_part, kin_part = _part_system(system, part)
            except CrnError:
                part_statuses.append("Inconclusive")
                continue
            if not (summary.delta == 0
                    or _part_is_mass_action(system, part, kin_part)):
                part_statuses.append("Inconclusive")
                continue
            part_sys = KineticSystem(net, system.kinetics)  # residuals overridden below
            points, _ = _multistart([(ia_part, kin_part)], part_sys, cfg, None)
            cb = any(float(np.max(np.abs(ia_part @ evaluate(kin_part, p.x)))) <= cfg.tol
                     for p in points)
            part_statuses.append("ACB_certified" if cb else "Inconclusive")
    return DecompositionEvidence(
        independent=verdict.independent,
        incidence_independent=verdict.incidence_independent,
        bi_independent=verdict.bi_independent,
        parts_acb=tuple(part_statuses),
        intersection_certified=certified,
        note=note,
    )


def star_msc_acb_evidence(star, source_net: ReactionNetwork,
                          source_kin: PolyPLKinetics,
                          config: SolveConfig | None = None) -> DecompositionEvidence | None:
    """Evidence that a replica transform is ACB via its linkage classes.

    Requires the source system to be weakly reversible with zero deficiency,
    complex balanced, and termwise complex balanced (its complex balanced
    set equals the intersection over the term systems); then the replica
    linkage classes of the transform are zero-deficiency ACB parts and the
    transform's equilibria sets equal the part intersections.
    """
    cfg = config or SolveConfig()
    src_inv = structural_invariants(source_net)
    if not src_inv.weakly_reversible or src_inv.delta != 0:
        return None
    balance = poly_pl_equilibrated_check(source_net, source_kin, cfg)
    if balance.n_full_z == 0 or balance.pl_complex_balanced is not True:
        return None
    evidence = linkage_decomposition_evidence(
        KineticSystem(star.network, star.kinetics), cfg,
        intersection_certified=True,
        note=("replica linkage classes of a termwise complex balanced, "
              "weakly reversible, zero-deficiency source"))
    return evidence


def default_flux_spec(system: KineticSystem,
                      reference: np.ndarray,
                      t_matrices: TMatrices | None,
                      cls: KineticsClassification) -> LPSetSpec:
    """Flux space for LP checks: the kinetic order subspace for
    reactant-determined power-law kinetics, the stoichiometric subspace
    otherwise. `cls` is the classification of the system's kinetics."""
    net = system.network
    if (isinstance(system.kinetics, PowerLawKinetics) and cls.pl_rdk
            and not cls.mass_action and t_matrices is not None
            and t_matrices.exact_s_tilde_basis is not None):
        basis = t_matrices.exact_s_tilde_basis
        return LPSetSpec(np.array(basis, dtype=float), reference,
                         tuple(tuple(row) for row in basis))
    basis = stoichiometric_basis(net)
    return LPSetSpec(np.array(basis, dtype=float), reference,
                     tuple(tuple(row) for row in basis))


def analyze_acb(system: KineticSystem, config: SolveConfig | None = None,
                flux_spec_basis=None) -> AcbAnalysis:
    """Run the whole evidence pipeline for one system.

    Collects structural invariants, classification, order matrices where
    defined, equilibria of both kinds, LP/bi-LP reports against the default
    (or supplied) flux space, the kinetic-image span report, and linkage
    decomposition evidence; the result feeds `acb_verdict`.
    """
    cfg = config or SolveConfig()
    net = system.network
    inv = structural_invariants(net)
    t_matrices = None
    if isinstance(system.kinetics, PowerLawKinetics):
        try:
            t_matrices = build_t_matrices(net, system.kinetics)
        except NotRDKError:
            t_matrices = None
    cls = classify(system.kinetics, net, t_matrices)

    e_res = solve_equilibria(system, "positive", config=cfg)
    z_res = solve_equilibria(system, "complex_balanced", config=cfg)
    cb, cb_cites = certify_complex_balancing(system, inv, t_matrices, z_res.points)

    clp = plp = None
    bilp = None
    if z_res.points:
        ref = z_res.points[0].x
        if flux_spec_basis is not None:
            spec_z = LPSetSpec(np.atleast_2d(np.asarray(flux_spec_basis, dtype=float)), ref)
        else:
            spec_z = default_flux_spec(system, ref, t_matrices, cls)
        try:
            clp = check_lp_property(system, "Z", spec_z, config=cfg, points=z_res.points)
        except ReferenceNotEquilibriumError:
            clp = None
        if e_res.points:
            spec_e = LPSetSpec(spec_z.flux_basis, e_res.points[0].x, spec_z.exact_basis)
            try:
                plp = check_lp_property(system, "E", spec_e, config=cfg, points=e_res.points)
            except ReferenceNotEquilibriumError:
                plp = None
            if clp is not None and plp is not None:
                bilp = check_bilp(system, spec_z, spec_e)

    kse = None
    if e_res.points:
        kse = kse_check(net, system.kinetics, e_res.points, cfg, inv=inv, cls=cls)

    deco = linkage_decomposition_evidence(system, cfg, inv=inv)

    return AcbAnalysis(
        system=system, structural=inv, classification=cls,
        complex_balanced=cb, cb_citations=cb_cites,
        e_points=e_res.points, z_points=z_res.points,
        e_diagnostics=e_res.diagnostics,
        t_matrices=t_matrices, clp=clp, plp=plp, bilp=bilp,
        kse=kse, decomposition=deco,
    )


def sample_positive_states(m: int, count: int = 20, rng_seed: int = 42,
                           width: float = 2.0) -> list[np.ndarray]:
    """Deterministic log-uniform positive states for sampled comparisons."""
    rng = np.random.default_rng(rng_seed)
    return [np.exp(rng.uniform(-width, width, size=m)) for _ in range(count)]
