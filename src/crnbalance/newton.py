"""The numeric parts of the multistart solver: its settings, the damped
Newton iteration, its charts, the flux-normalized residual rows and their
Jacobian, the test that accepts a run's point and the deduplication of
accepted points.

`_newton` steps every seed of a multistart together over a `_Chart`;
`equilibria._multistart` forms K and the residual at every trial point,
and dK/du and the residual's Jacobian only where a seed steps from.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .network import CrnError

MAX_HALVINGS = 40       # line-search halvings per Newton step
MAX_STEP = 4.0          # per-iteration step clamp, max norm
SEED_WIDTH = 3.0        # log-chart seeds drawn log-uniform in [e^-w, e^w]^m
ACCEPT_BOUND = 36.0     # log-radius guard; fake roots where the kinetics
                        # vanish are already rejected by the relative
                        # residual test
_U_BOUND = 44.0  # exp(44) ~ 1.3e19: beyond this the chart has left desk scale
DEDUP_TOL = 1e-6        # log-coordinate distance between distinct points
_HALVES = [0.5 ** c for c in range(MAX_HALVINGS)]  # 2^-c, c < MAX_HALVINGS


# Line-search collapse (Nocedal & Wright, ch. 3 and 10): once the last
# _COLLAPSE_STEPS accepted steps all needed lambda <= _COLLAPSE_LAMBDA while
# the normalized residual is still above _COLLAPSE_RESIDUAL, the run creeps
# and does not converge. A plateau taken at full steps is not a collapse:
# such runs can still converge.
_COLLAPSE_LAMBDA = 1e-3
_COLLAPSE_STEPS = 5
_COLLAPSE_RESIDUAL = 1e-2


@dataclass(frozen=True)
class SolveConfig:
    seeds: int = 64
    rng_seed: int = 42
    tol: float = 1e-9
    max_iter: int = 200
    coset_samples: int = 8

    def __post_init__(self):
        # out of range or not integral, each is misread (seeds 0 ran one seed)
        # or fails later
        for name in ("seeds", "rng_seed", "max_iter", "coset_samples"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise CrnError(f"solver setting {name} must be an integer, "
                               f"got {getattr(self, name)!r}") from None
        for name, ok, rule in (("seeds", self.seeds >= 1, "at least 1"),
                               ("rng_seed", self.rng_seed >= 0, "at least 0"),
                               ("tol", isinstance(self.tol, numbers.Real)
                                and 0 < self.tol < np.inf, "finite and positive"),
                               ("max_iter", self.max_iter >= 0, "at least 0"),
                               ("coset_samples", self.coset_samples >= 0, "at least 0")):
            if not ok:
                raise CrnError(f"solver setting {name} must be {rule}, got {getattr(self, name)!r}")


class _Run(NamedTuple):
    u: np.ndarray
    gnorm: float       # normalized residual, max norm
    raw: float         # raw residual, max norm
    stop: str          # why the iteration ended


def _newton(resjac, p0: np.ndarray, cfg: SolveConfig,
            escape_bound: float | None = None) -> list[_Run]:
    """Damped Gauss-Newton on the residual `resjac` returns, from every row
    of `p0` (seeds, d) at once.

    `resjac(P)` evaluates a stack of points (n, d) and returns (on, G,
    jacobian, raw): the mask of the rows on the chart, the residual rows
    (k, q) and raw residuals (k,) of those k rows, and a callable that
    forms the Jacobians (len(js), q, d) of the rows js among them. Each
    line-search round makes one `resjac` call, on the trial points of every
    seed still searching, and at most one `jacobian` call, on the rows that
    a seed steps from; a length the line search refuses needs no Jacobian.
    Points, steps and residuals are numpy stacks; each seed's lambda,
    counters, residual norms and stop reason are Python scalars, and one
    pass over the seeds makes a round's choices. A round tries lambda,
    lambda/2, ... of a seed, as many as its last step needed and twice that
    after a round that refused them all, but at most 2 (n // s) with s of n
    seeds searching, so at most 2n trial points and n Jacobians; the seed
    takes the largest length whose squared residual falls. A seed's iterates
    are those of the seed run alone: each length is an exact power of two,
    above 2^-MAX_HALVINGS, each row gets the same arithmetic, and each
    Newton step is one least-squares solve of that seed's Jacobian.

    Steps are clamped in the max norm (exponential charts make the linear
    model wildly optimistic far from a root) and damped on the 2-norm, which
    the least-squares direction is guaranteed to descend. Each run's `stop`
    is one of "converged" (the polish target is met), "left the chart" (no
    residual at its seed), "escaped" (max|u| above `escape_bound`, where no
    point can be accepted), "non-finite step", "step below 1e-15", "line
    search exhausted", "line search collapsed" or "max_iter".
    """
    n = p0.shape[0]
    u, step = p0.copy(), np.zeros_like(p0)
    # Per seed: the next length, 2^-h of the step after h halvings in it, and
    # how many the next round tries; accepted steps, the latest run of short
    # ones; below, g . g, max|g|, the raw residual and the stop reason.
    lam, halved, tries, iters, short_steps = [1.0] * n, [0] * n, [1] * n, [0] * n, [0] * n
    # Polish four digits past acceptance so downstream rank estimates are
    # not dominated by solver noise.
    target = 1e-4 * cfg.tol

    def residuals(points):
        """resjac at `points`; per point its residual row (None off the
        chart) and g . g (inf off the chart), per row max|g| and raw."""
        on, g, jacobian, raw_on = resjac(points)
        at, sq = [None] * len(points), [math.inf] * len(points)
        # g . g of each row, as the dot product of that row alone computes it
        squares = np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0].tolist()
        for j, (t, s) in enumerate(zip(np.flatnonzero(on).tolist(), squares)):
            at[t], sq[t] = j, s
        gmax = np.maximum.reduce(np.abs(g), axis=1, initial=0.0).tolist()
        return at, sq, gmax, raw_on.tolist(), g, jacobian

    def newton_steps(took, points, g, jacobian):
        """The top of a Newton iteration for each (seed, t, j) of `took`, the
        seed being at points[t] with residual g[j] and Jacobian jacobian([j]):
        the stop tests, then a clamped step at lambda = 1. Returns the seeds
        that go on to search a line."""
        umax = np.maximum.reduce(np.abs(points), axis=1, initial=0.0).tolist()
        live = []
        for i, t, j in took:
            if iters[i] >= cfg.max_iter:
                stops[i] = "converged" if gnorm[i] <= target else "max_iter"
            elif gnorm[i] <= target:
                stops[i] = "converged"
            elif escape_bound is not None and umax[t] > escape_bound:
                stops[i] = "escaped"
            else:
                live.append((i, t, j))
        if not live:  # an empty list index would page in numpy code
            return []
        jac = jacobian([j for _, _, j in live])
        # lstsq raises on a non-finite Jacobian, so test it first
        finite = np.logical_and.reduce(np.isfinite(jac), axis=(1, 2)).tolist()
        solved = []
        for (i, t, j), jac_j, ok in zip(live, jac, finite):
            if not ok:
                stops[i] = "non-finite step"
            else:
                step[i] = np.linalg.lstsq(jac_j, -g[j], rcond=None)[0]
                solved.append((i, t))
        if not solved:
            return []
        # NaN or inf where the step is not finite, 0 on a zero-width chart
        biggest = np.maximum.reduce(np.abs(step[[i for i, _ in solved]]), axis=1,
                                    initial=0.0).tolist()
        going = []
        for (i, t), b in zip(solved, biggest):
            if not math.isfinite(b):
                stops[i] = "non-finite step"
            elif b <= 1e-15 * (1.0 + umax[t]):
                stops[i] = "step below 1e-15"
            else:
                if b > MAX_STEP:
                    step[i] *= MAX_STEP / b
                lam[i], halved[i] = 1.0, 0
                going.append(i)
        return going

    at, gsq, gmax, raws, g, jacobian = residuals(u)
    gnorm = [math.inf if j is None else gmax[j] for j in at]
    raw = [math.inf if j is None else raws[j] for j in at]
    stops = ["left the chart" if j is None else None for j in at]
    searching = newton_steps([(i, i, j) for i, j in enumerate(at) if j is not None], u, g,
                             jacobian)
    # The residuals are needed only for the steps just taken; dropping them
    # keeps one stack of them alive at a time.
    del g, jacobian
    while searching:
        # seed i tries lam[i] * 2^-c for c < k, after halved[i] + c halvings
        width = min(2 * (n // len(searching)), MAX_HALVINGS)
        counts = [min(tries[i], width, MAX_HALVINGS - halved[i]) for i in searching]
        rows = [i for i, k in zip(searching, counts) for _ in range(k)]
        lams = [lam[i] * h for i, k in zip(searching, counts) for h in _HALVES[:k]]
        trial = u[rows] + np.array(lams)[:, None] * step[rows]
        at, sq, gmax, raws, g, jacobian = residuals(trial)
        moved, took, kept, t = [], [], [], 0
        for i, k in zip(searching, counts):
            # the first, so the largest, length whose squared residual fell
            c = next((c for c in range(k) if sq[t + c] < gsq[i]), None)
            if c is None:
                # go on past the last length tried, with twice as many
                lam[i], halved[i], tries[i] = 0.5 * lams[t + k - 1], halved[i] + k, 2 * tries[i]
                if halved[i] >= MAX_HALVINGS:
                    stops[i] = "line search exhausted"
                else:
                    kept.append(i)
            else:
                j = at[t + c]
                moved.append((i, t + c))
                lam[i], gsq[i], gnorm[i], raw[i] = lams[t + c], sq[t + c], gmax[j], raws[j]
                tries[i], iters[i] = halved[i] + c + 1, iters[i] + 1
                short_steps[i] = short_steps[i] + 1 if lam[i] <= _COLLAPSE_LAMBDA else 0
                if short_steps[i] >= _COLLAPSE_STEPS and gnorm[i] > _COLLAPSE_RESIDUAL:
                    stops[i] = "line search collapsed"
                else:
                    took.append((i, t + c, j))
            t += k
        if moved:
            u[[i for i, _ in moved]] = trial[[t for _, t in moved]]
            kept += newton_steps(took, trial, g, jacobian)
        del g, jacobian
        searching = sorted(kept)  # in seed order
    return [_Run(u[i], gnorm[i], raw[i], stops[i]) for i in range(n)]


def _normalized_rows(a, abs_a, k):
    """Flux-normalized residual rows G = (A K) / (|A| K), the flux divisor
    and the raw residual max|A K| of each state.

    Each row of A K is divided by the total kinetic flux through that row,
    which makes the residual scale invariant: shrinking or inflating the
    whole state cannot fake progress, and rows whose kinetics run at tiny
    magnitudes still count at full weight. Rows with no flux (all-zero rows
    of A) are identically zero and stay zero. `k` is a stack (..., h, c) of h
    blocks of A's column count c; A K is formed one matrix-vector product per
    state and block, as for one. The Jacobian of G is `_normalized_jacobian`,
    formed apart so that the solver forms it only at the points it steps from.
    """
    raw = np.matmul(a, k[..., None])[..., 0]
    flux = np.matmul(abs_a, k[..., None])[..., 0]
    div = np.where(flux > 0, flux, 1.0)
    # over the blocks fmax, like max() from 0.0, passes over a NaN residual
    raw_inf = np.fmax.reduce(np.maximum.reduce(np.abs(raw), axis=-1, initial=0.0),
                             axis=-1, initial=0.0)
    return raw / div, div, raw_inf


def _normalized_jacobian(a, abs_a, g, div, jk_param):
    """dG/dp = (A dK - G |A| dK) / div, from the rows G and divisors of
    `_normalized_rows` and dK/dp (..., h, c, d) in the same blocks; each
    state and block gets the same arithmetic as when formed alone."""
    # in place to hold fewer stacks at once
    jg = np.matmul(abs_a, jk_param)
    jg *= g[..., None]
    np.subtract(np.matmul(a, jk_param), jg, out=jg)
    jg /= div[..., None]
    return jg


def _seed_outcome(run: _Run, to_log, cfg):
    """(stop reason, log point or None) of one multistart run.

    A run is accepted, as "converged", when both the flux-normalized and the
    raw residual clear `tol` and its point lies inside the log-radius bound.
    Any other run reports why it stopped; a run that met the polish target
    and was still refused reports the acceptance test it failed.
    """
    if run.gnorm <= cfg.tol and run.raw <= cfg.tol:
        log_x = to_log(run.u)
        if np.max(np.abs(log_x)) <= ACCEPT_BOUND:
            return "converged", log_x
    if run.stop != "converged":
        return run.stop, None
    return ("raw residual above tol" if run.raw > cfg.tol
            else "outside accept_bound"), None


def _dedup_logs(log_points: list[np.ndarray]) -> list[np.ndarray]:
    """The points in lexicographic order, each dropped that lies within
    `DEDUP_TOL` (max norm) of a point kept before it.

    The kept points are sorted by their first coordinate, so the scan walks
    them backwards and stops at the first v with u[0] - v[0] > `DEDUP_TOL`:
    that v, and every v before it, differs from u by more than the tolerance
    in the first coordinate alone.
    """
    ordered = sorted(log_points, key=lambda v: tuple(v))
    kept: list[np.ndarray] = []
    for u in ordered:
        for v in reversed(kept):
            if u[0] - v[0] > DEDUP_TOL:
                kept.append(u)
                break
            if np.max(np.abs(u - v)) <= DEDUP_TOL:
                break
        else:
            kept.append(u)
    return kept


class _Chart(NamedTuple):
    """Coordinates p in which the multistart solver searches.

    `to_x` maps a stack of points P (n, d) to (on, X): the mask of the rows
    on the chart and the states (k, m) of those rows; `param_jac` turns
    dK/dlog x at a stack of states into dK/dp, `to_log` maps p to log x, and
    `seeds(cfg)` draws the default seeds, the origin of the chart first. A
    run whose max|p| exceeds `escape_bound` is stopped as escaped; None
    leaves runs to end at the chart's own boundary.
    """

    to_x: Callable
    param_jac: Callable
    to_log: Callable
    escape_bound: float | None
    seeds: Callable

    @classmethod
    def log(cls, m: int) -> "_Chart":
        """The positive orthant in u = log x."""
        def to_x(u):
            on = ~(np.maximum.reduce(np.abs(u), axis=-1) > _U_BOUND)
            return on, np.exp(u[on])

        def seeds(cfg):
            rng = np.random.default_rng(cfg.rng_seed)
            return [np.zeros(m)] + [rng.uniform(-SEED_WIDTH, SEED_WIDTH, size=m)
                                    for _ in range(cfg.seeds - 1)]

        return cls(to_x, lambda jk, x: jk, lambda u: u, ACCEPT_BOUND, seeds)

    @classmethod
    def coset(cls, m: int, x0, basis_rows) -> "_Chart":
        """The positive part of the coset x0 + span(basis_rows), x = x0 + B a."""
        x0 = np.asarray(x0, dtype=float)
        b = np.atleast_2d(np.asarray(basis_rows, dtype=float)).T  # (m, d)
        if x0.shape != (m,) or b.shape[0] != m:
            raise CrnError(f"coset anchor and basis rows need one entry per species ({m}); "
                           f"got anchor shape {x0.shape}, basis rows of {b.shape[0]}")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(x0)) and np.all(x0 > 0)):
            raise CrnError("coset anchor must be finite and strictly positive, its basis finite")

        def state(alpha):
            # one matrix-vector product per point, as for a single point
            return x0 + np.matmul(b, alpha[..., None])[..., 0]

        def to_x(alpha):
            x = state(alpha)
            on = ~(np.logical_or.reduce(x <= 0, axis=-1) | np.logical_or.reduce(x > 1e18, axis=-1))
            return on, x[on]

        def to_log(alpha):
            # positive at every alpha the chart returned a state for
            return np.log(state(alpha))

        def seeds(cfg):
            rng = np.random.default_rng(cfg.rng_seed)
            scale = 0.5 * float(np.min(x0)) / max(1.0, float(np.max(np.abs(b), initial=0.0)))
            return [np.zeros(b.shape[1])] + [
                rng.uniform(-1.0, 1.0, size=b.shape[1]) * scale * (1 + trial)
                for trial in range(cfg.seeds - 1)]

        return cls(to_x, lambda jk, x: np.matmul(jk / x[..., None, :], b), to_log, None, seeds)
