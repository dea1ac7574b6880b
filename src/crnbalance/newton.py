"""The numeric parts of the multistart solver: the damped Newton
iteration, its charts, the flux-normalized residual rows, the test that
accepts a run's point and the deduplication of accepted points.

`_newton` steps every seed of a multistart together over a `_Chart`;
`equilibria._multistart` assembles the residual from the caller's pairs.
"""

from __future__ import annotations

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
# 2^-c and c for c < MAX_HALVINGS, from Python floats: numpy's float ** int
# loop would page in code no other part of a pass runs.
_HALVES = np.array([0.5 ** c for c in range(MAX_HALVINGS)])
_COUNTS = np.array([float(c) for c in range(MAX_HALVINGS)])


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


def _squares(g: np.ndarray) -> np.ndarray:
    """g . g of each row, as the dot product of that row alone computes it."""
    return np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0]


def _newton(resjac, p0: np.ndarray, cfg,
            escape_bound: float | None = None) -> list[_Run]:
    """Damped Gauss-Newton on the residual `resjac` returns, from every row
    of `p0` (seeds, d) at once.

    `resjac(P)` evaluates a stack of points (n, d) and returns (on, G, J,
    raw): the mask of the rows on the chart, and the residual rows (k, q),
    their Jacobians (k, q, d) and raw residuals (k,) of those k rows.
    Every round of the line search makes one such call, on the trial
    points of all seeds still searching, so the seeds advance together
    while each keeps its own step, lambda and counters. A round may try
    lambda, lambda/2, ... of a seed, as many as its last step needed and
    twice that after a round that refused them all, but at most n // s
    each with s of n seeds searching; the seed takes the largest length
    whose squared residual falls. A seed's iterates are those of the seed
    run alone: each length is an exact power of two, above 2^-MAX_HALVINGS,
    each row gets the same arithmetic, and each Newton step is one
    least-squares solve of that seed's Jacobian.

    `cfg` is the caller's `SolveConfig`; `max_iter` and `tol` are read.

    Steps are clamped in the max norm (exponential charts make the linear
    model wildly optimistic far from a root) and damped on the 2-norm, which
    the least-squares direction is guaranteed to descend. Each run's `stop`
    is one of "converged" (the polish target is met), "left the chart" (no
    residual at its seed), "escaped" (max|u| above `escape_bound`, where no
    point can be accepted), "non-finite step", "step below 1e-15", "line
    search exhausted", "line search collapsed" or "max_iter".
    """
    n = p0.shape[0]
    stops: list[str | None] = [None] * n
    u = p0.copy()
    on, g_on, j_on, raw_on = resjac(u)
    g = np.zeros((n,) + g_on.shape[1:])
    raw, gnorm, gsq = np.full(n, np.inf), np.full(n, np.inf), np.zeros(n)
    g[on], raw[on], gsq[on] = g_on, raw_on, _squares(g_on)
    gnorm[on] = np.max(np.abs(g_on), axis=1, initial=0.0)
    step = np.zeros_like(u)
    # The next length, 2^-h after h halvings in this step, and how many the
    # next round tries; accepted steps, and the latest run of short ones.
    # Float counts are exact here, and comparing them runs float loops numpy
    # has already paged in; integer compares would page in 128 KB more.
    lam, halved, tries = np.ones(n), np.zeros(n), np.ones(n)
    iters, short_steps = np.zeros(n), np.zeros(n)
    # Polish four digits past acceptance so downstream rank estimates are
    # not dominated by solver noise.
    target = 1e-4 * cfg.tol

    def stop(rows, why):
        for i in rows:
            stops[i] = why

    def newton_steps(rows: np.ndarray, jacs: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The top of a Newton iteration for `rows`, the Jacobian of rows[j]
        being jacs[at[j]]: the stop tests, then a clamped step at lambda = 1.
        Returns the rows that go on to search a line."""
        live = np.ones(rows.size, dtype=bool)

        def stop_where(mask, why):
            stop(rows[live & mask], why)
            live[mask] = False

        spent = iters[rows] >= cfg.max_iter
        stop_where(spent & (gnorm[rows] <= target), "converged")
        stop_where(spent, "max_iter")
        stop_where(gnorm[rows] <= target, "converged")
        if escape_bound is not None:
            stop_where(np.max(np.abs(u[rows]), axis=1, initial=0.0) > escape_bound, "escaped")
        # lstsq raises on a non-finite Jacobian, so test it first
        stop_where(~np.all(np.isfinite(jacs), axis=(1, 2))[at], "non-finite step")
        for i, j in zip(rows[live], at[live]):
            step[i] = np.linalg.lstsq(jacs[j], -g[i], rcond=None)[0]
        stop_where(~np.all(np.isfinite(step[rows]), axis=1), "non-finite step")
        # a zero-width chart (no coordinates) has an empty step
        biggest = np.max(np.abs(step[rows]), axis=1, initial=0.0)
        stop_where(biggest <= 1e-15 * (1.0 + np.max(np.abs(u[rows]), axis=1, initial=0.0)),
                   "step below 1e-15")
        clamp = live & (biggest > MAX_STEP)
        step[rows[clamp]] *= (MAX_STEP / biggest[clamp])[:, None]
        rows = rows[live]
        lam[rows], halved[rows] = 1.0, 0.0
        return rows

    stop(np.flatnonzero(~on), "left the chart")
    searching = newton_steps(np.flatnonzero(on), j_on, np.arange(np.count_nonzero(on)))
    # Jacobians are needed only for the steps just taken; dropping them keeps
    # one stack of them alive at a time.
    del j_on
    while searching.size:
        # column c: the length lam * 2^-c, after halved + c halvings
        width = min(n // searching.size, MAX_HALVINGS)
        counts = halved[searching, None] + _COUNTS[:width]
        lams = lam[searching, None] * _HALVES[:width]
        grid = (_COUNTS[:width] < tries[searching, None]) & (counts < MAX_HALVINGS)
        trial = (u[searching, None] + lams[..., None] * step[searching, None])[grid]
        on, g_on, j_on, raw_on = resjac(trial)
        sq = np.full(trial.shape[0], np.inf)
        sq[on] = _squares(g_on)
        sqs = np.full(grid.shape, np.inf)
        sqs[grid] = sq
        fell = sqs < gsq[searching, None]
        # the largest length whose residual fell, 0 where none did
        best = np.max(np.where(fell, lams, 0.0), axis=1)
        first = fell & (lams >= best[:, None])
        hit = best > 0.0
        acc, refused = searching[hit], searching[~hit]
        if acc.size:
            took = first[grid]
            at = np.flatnonzero(took[on])
            u[acc], g[acc], raw[acc], gsq[acc] = trial[took], g_on[at], raw_on[at], sq[took]
            gnorm[acc] = np.max(np.abs(g[acc]), axis=1, initial=0.0)
            lam[acc] = best[hit]
            tries[acc] = np.max(np.where(first, counts, 0.0), axis=1)[hit] + 1.0
            iters[acc] += 1
            short_steps[acc] = np.where(lam[acc] <= _COLLAPSE_LAMBDA, short_steps[acc] + 1, 0)
            creeping = (short_steps[acc] >= _COLLAPSE_STEPS) & (gnorm[acc] > _COLLAPSE_RESIDUAL)
            stop(acc[creeping], "line search collapsed")
            acc = newton_steps(acc[~creeping], j_on, at[~creeping])
        del j_on
        if refused.size:
            # go on past the last length tried, with twice as many
            last = np.max(np.where(grid, counts, 0.0), axis=1)
            tail = grid & (counts >= last[:, None])
            lam[refused] = 0.5 * np.max(np.where(tail, lams, 0.0), axis=1)[~hit]
            halved[refused] = last[~hit] + 1.0
            tries[refused] *= 2.0
            spent = halved[refused] >= MAX_HALVINGS
            stop(refused[spent], "line search exhausted")
            refused = refused[~spent]
        going = np.zeros(n, dtype=bool)
        going[refused] = going[acc] = True
        searching = np.flatnonzero(going)  # in seed order
    return [_Run(u[i], float(gnorm[i]), float(raw[i]), stops[i]) for i in range(n)]


def _normalized_rows(a, abs_a, k, jk_param):
    """Flux-normalized residual rows G = (A K) / (|A| K) and their Jacobian.

    Each row of A K is divided by the total kinetic flux through that row,
    which makes the residual scale invariant: shrinking or inflating the
    whole state cannot fake progress, and rows whose kinetics run at tiny
    magnitudes still count at full weight. Rows with no flux (all-zero rows
    of A) are identically zero and stay zero. `k` is a stack (..., r) and
    `jk_param` (..., r, d); A K is formed one matrix-vector product per
    state, as for a single state.
    """
    raw = np.matmul(a, k[..., None])[..., 0]
    flux = np.matmul(abs_a, k[..., None])[..., 0]
    div = np.where(flux > 0, flux, 1.0)
    g = raw / div
    # jg = (A dK - g |A| dK) / div, in place to hold fewer stacks at once
    jg = np.matmul(abs_a, jk_param)
    jg *= g[..., None]
    np.subtract(np.matmul(a, jk_param), jg, out=jg)
    jg /= div[..., None]
    return g, jg, np.max(np.abs(raw), axis=-1, initial=0.0)


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


@dataclass(frozen=True, eq=False)
class _Chart:
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
            on = ~(np.max(np.abs(u), axis=-1) > _U_BOUND)
            return on, np.exp(u[on])

        def seeds(cfg):
            rng = np.random.default_rng(cfg.rng_seed)
            return [np.zeros(m)] + [rng.uniform(-SEED_WIDTH, SEED_WIDTH, size=m)
                                    for _ in range(max(0, cfg.seeds - 1))]

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
            on = ~(np.any(x <= 0, axis=-1) | np.any(x > 1e18, axis=-1))
            return on, x[on]

        def to_log(alpha):
            # positive at every alpha the chart returned a state for
            return np.log(state(alpha))

        def seeds(cfg):
            rng = np.random.default_rng(cfg.rng_seed)
            scale = 0.5 * float(np.min(x0)) / max(1.0, float(np.max(np.abs(b), initial=0.0)))
            return [np.zeros(b.shape[1])] + [
                rng.uniform(-1.0, 1.0, size=b.shape[1]) * scale * (1 + trial)
                for trial in range(max(0, cfg.seeds - 1))]

        return cls(to_x, lambda jk, x: np.matmul(jk / x[..., None, :], b), to_log, None, seeds)
