"""Stop reasons of the damped Newton iteration, which steps all seeds of a
multistart together; a differential check of it against the sequential
per-seed iteration it replaced; and a differential check of the two early
stops against the iteration without them."""

import collections
import io
import json

import numpy as np
import pytest

import crnbalance as cb
from crnbalance.cli import run_cli
from crnbalance.equilibria import _seed_outcome
from crnbalance.fileformat import parse_crn
from crnbalance.newton import ACCEPT_BOUND, MAX_HALVINGS, MAX_STEP, _Chart, _Run, _newton

from conftest import DATA, bench_ladder, bench_workloads

CFG = cb.SolveConfig()
REASONS = {"converged", "line search collapsed", "escaped", "left the chart",
           "line search exhausted", "step below 1e-15", "non-finite step",
           "max_iter", "raw residual above tol", "outside accept_bound"}


def _state(g, jac):
    g = np.atleast_1d(np.asarray(g, dtype=float))
    return g, np.atleast_2d(np.asarray(jac, dtype=float)), float(np.max(np.abs(g)))


def _drifting(u):
    """1 / (1 + u) decreases along +u without reaching 0; from u = 0 the
    Newton steps are 1, 2 and then 4, clamped by `MAX_STEP`, all accepted
    at lambda = 1."""
    g = 1.0 / (1.0 + u[0])
    return _state([g], [[-g * g]])


class _Creeping:
    """A residual decreasing along +u whose Jacobian asks for a clamped step
    of `MAX_STEP`, but a trial farther than `reach` from the last accepted
    point is worse, so only steps of lambda <= reach / MAX_STEP are
    accepted. The last accepted point is the lowest residual seen."""

    def __init__(self, reach, level=1.0):
        self.reach = reach
        self.level = level
        self.best = None
        self.accepted = 0

    def __call__(self, u):
        if self.best is not None and abs(u[0] - self.best[0]) > self.reach:
            return _state([10.0], [[-1e-3]])
        g = self.level * (1.0 + np.exp(-u[0]))
        if self.best is None or g < self.best[1]:
            self.best = (u[0], g)
            self.accepted += 1
        return _state([g], [[-1e-3]])


def _stacked(resjac):
    """The stacked residual of a single-point one: the mask of the rows at
    which `resjac` gives a state, and the stacked states of those rows."""
    def stacked(p):
        states = [resjac(row) for row in p]
        on = np.array([state is not None for state in states], dtype=bool)
        kept = [state for state in states if state is not None]
        if not kept:
            return on, np.zeros((0, 1)), np.zeros((0, 1, p.shape[1])), np.zeros(0)
        return on, *(np.array([state[i] for state in kept]) for i in range(3))
    return stacked


def _run(resjac, u0, cfg=CFG, escape_bound=None):
    """The run of a single seed."""
    return _newton(_stacked(resjac), np.array([u0], dtype=float), cfg, escape_bound)[0]


def test_drift_past_accept_bound_escapes():
    run = _run(_drifting, np.zeros(1), CFG, ACCEPT_BOUND)
    assert run.stop == "escaped"
    assert ACCEPT_BOUND < run.u[0] <= ACCEPT_BOUND + MAX_STEP
    # without an escape bound, as on the coset chart, the run goes on
    assert _run(_drifting, np.zeros(1), CFG).stop == "max_iter"


def test_escape_is_checked_at_the_seed():
    run = _run(_drifting, np.array([ACCEPT_BOUND + 1.0]), CFG, ACCEPT_BOUND)
    assert run.stop == "escaped"
    assert run.u[0] == ACCEPT_BOUND + 1.0


def test_creeping_line_search_collapses():
    # accepted steps need lambda = 2^-11 < 1e-3
    resjac = _Creeping(reach=2e-3)
    run = _run(resjac, np.zeros(1), CFG)
    assert run.stop == "line search collapsed"
    assert resjac.accepted == 1 + 5  # the seed, then five short steps
    assert run.gnorm > 1e-2


def test_short_steps_above_the_collapse_lambda_do_not_stop():
    # accepted steps need lambda = 2^-9 > 1e-3: slow, but no collapse
    cfg = cb.SolveConfig(max_iter=30)
    resjac = _Creeping(reach=8e-3)
    run = _run(resjac, np.zeros(1), cfg)
    assert run.stop == "max_iter"
    assert resjac.accepted == 1 + 30


def test_collapse_needs_a_large_residual():
    # the same creep with the normalized residual already below 1e-2
    run = _run(_Creeping(reach=2e-3, level=4e-3), np.zeros(1), cb.SolveConfig(max_iter=20))
    assert run.stop == "max_iter"
    assert run.gnorm < 1e-2


def test_full_step_plateau_converges():
    """About 65 accepted full steps at a normalized residual near 0.6,
    then convergence: a plateau at lambda = 1 is not a collapse."""
    residuals = []

    def plateau(u):
        v = u[0]
        g = 0.6 - 1e-3 * v if v <= 65 else (0.6 - 0.065) * np.exp(-5.0 * (v - 65))
        residuals.append(g)
        return _state([g], [[-g]])  # the Newton step is +1

    run = _run(plateau, np.zeros(1), CFG)
    assert run.stop == "converged"
    assert run.gnorm <= 1e-4 * CFG.tol
    assert sum(g > 1e-2 for g in residuals) >= 65
    # no trial was refused, so every step was taken at lambda = 1
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_no_residual_at_the_seed_left_the_chart():
    run = _run(lambda u: None, np.zeros(2), CFG)
    assert run.stop == "left the chart"
    assert run.gnorm == np.inf and run.raw == np.inf


def test_nan_jacobian_is_a_non_finite_step():
    run = _run(lambda u: _state([1.0], [[np.nan]]), np.zeros(1), CFG)
    assert run.stop == "non-finite step"


def test_max_iter():
    run = _run(_drifting, np.zeros(1), cb.SolveConfig(max_iter=3), ACCEPT_BOUND)
    assert run.stop == "max_iter"
    assert run.u[0] == 7.0  # steps 1, 2, 4


def test_convergence_on_the_last_iteration_is_converged():
    def linear(u):
        return _state([u[0] - 1.0], [[1.0]])  # one full step reaches the root

    assert _run(linear, np.zeros(1), cb.SolveConfig(max_iter=1)).stop == "converged"
    assert _run(linear, np.zeros(1), cb.SolveConfig(max_iter=0)).stop == "max_iter"


def test_uphill_direction_exhausts_the_line_search():
    # the residual decreases along +u, the Jacobian points the other way
    run = _run(lambda u: _state([1.0 + np.exp(-u[0])], [[1.0]]), np.zeros(1), CFG)
    assert run.stop == "line search exhausted"


# One fake per stop reason of the iteration; each call makes a fresh one.
_FAKES = {
    "escaped": lambda: _drifting,
    "line search collapsed": lambda: _Creeping(reach=2e-3),
    "max_iter": lambda: _Creeping(reach=8e-3),
    "converged": lambda: lambda u: _state([u[0] - 1.0], [[1.0]]),
    "left the chart": lambda: lambda u: None,
    "non-finite step": lambda: lambda u: _state([1.0], [[np.nan]]),
    "line search exhausted": lambda: lambda u: _state([1.0 + np.exp(-u[0])], [[1.0]]),
    "step below 1e-15": lambda: lambda u: _state([1.0], [[1e20]]),
}


def _labelled_single(makers):
    """One residual over fresh fakes: the point (v, label) is the fake
    `label` at v, with a zero Jacobian column for the label coordinate."""
    fakes = [make() for make in makers]

    def resjac(u):
        state = fakes[int(round(u[1]))](u[:1])
        if state is None:
            return None
        g, jac, raw = state
        return g, np.hstack([jac, np.zeros((jac.shape[0], 1))]), raw

    return resjac


def _labelled(makers):
    """The stacked residual of `_labelled_single`."""
    return _stacked(_labelled_single(makers))


def _same_run(a, b):
    return (a.u.tobytes() == b.u.tobytes() and a.stop == b.stop
            and np.array_equal([a.gnorm, a.raw], [b.gnorm, b.raw], equal_nan=True))


def test_seeds_with_different_stops_share_a_batch():
    cfg = cb.SolveConfig(max_iter=30)
    makers = list(_FAKES.values())
    seeds = np.array([[0.0, label] for label in range(len(makers))])
    runs = _newton(_labelled(makers), seeds, cfg, ACCEPT_BOUND)
    assert [run.stop for run in runs] == list(_FAKES)
    for label, run in enumerate(runs):
        alone = _newton(_labelled(makers), seeds[label:label + 1], cfg, ACCEPT_BOUND)
        assert _same_run(run, alone[0]), run.stop


def test_every_seed_off_the_chart():
    runs = _newton(_stacked(lambda u: None), np.arange(3.0)[:, None], CFG)
    assert [run.stop for run in runs] == ["left the chart"] * 3
    assert [run.u[0] for run in runs] == [0.0, 1.0, 2.0]


def test_every_trial_leaves_the_chart_at_once():
    """The first trial of every seed lies beyond u = 0.5, off the chart; the
    runs halve their way back and match the runs of each seed alone."""
    def bounded(u):
        if u[0] > 0.5:
            return None
        return _state([1.0 + np.exp(-u[0])], [[-np.exp(-u[0])]])

    seeds = np.array([[0.0], [0.1], [0.2]])
    runs = _newton(_stacked(bounded), seeds, CFG)
    for i, run in enumerate(runs):
        assert _same_run(run, _newton(_stacked(bounded), seeds[i:i + 1], CFG)[0])
    assert all(run.u[0] <= 0.5 for run in runs)


def _check_stops(diagnostics):
    stops = diagnostics["stops"]
    assert len(stops) == diagnostics["attempts"]
    assert stops.count("converged") == diagnostics["converged"]
    assert set(stops) <= REASONS
    return collections.Counter(stops)


def test_stops_recorded_per_seed(re1_powerlaw):
    cfg = cb.SolveConfig(seeds=16)
    res = cb.solve_equilibria(cb.KineticSystem(*re1_powerlaw), "positive", config=cfg)
    stops = _check_stops(res.diagnostics)
    assert res.diagnostics["attempts"] == 16
    assert stops["escaped"] > 0  # runs drift towards |u| = 44 on this system
    assert res.diagnostics["stops"][0] == "converged"  # x = 1, the first seed


def test_stops_recorded_per_seed_on_a_coset(counterexample):
    net, kin = counterexample
    basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    constraint = cb.equilibria.CosetConstraint(np.ones(3), basis)
    res = cb.solve_equilibria(cb.KineticSystem(net, kin), "positive", constraint,
                              cb.SolveConfig(seeds=16))
    stops = _check_stops(res.diagnostics)
    assert stops["escaped"] == 0  # the coset chart has no escape bound
    assert stops["left the chart"] > 0  # seeds outside the positive coset


def test_equilibria_json_keeps_its_five_diagnostics_keys():
    out = io.StringIO()
    code = run_cli(["equilibria", str(DATA / "re1_powerlaw.crn"), "--json", "--seeds", "8"],
                   out, io.StringIO())
    assert code == 0
    diagnostics = json.loads(out.getvalue())["equilibria"]["diagnostics"]
    for side in diagnostics.values():
        assert list(side) == ["attempts", "converged", "distinct", "mode", "accepted"]


# --- the sequential per-seed iteration, as an oracle -----------------------

def _sequential_newton(resjac, u0: np.ndarray, cfg, escape_bound=None) -> _Run:
    """The damped Newton iteration of one seed, as the solver ran it seed by
    seed before the seeds were stepped together."""
    state = resjac(u0)
    if state is None:
        return _Run(u0, np.inf, np.inf, "left the chart")
    u = u0.copy()
    g, jac, raw = state
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    target = 1e-4 * cfg.tol
    short_steps = 0
    for _ in range(cfg.max_iter):
        if gnorm <= target:
            return _Run(u, gnorm, raw, "converged")
        if escape_bound is not None and np.max(np.abs(u)) > escape_bound:
            return _Run(u, gnorm, raw, "escaped")
        if not np.all(np.isfinite(jac)):
            return _Run(u, gnorm, raw, "non-finite step")
        step = np.linalg.lstsq(jac, -g, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return _Run(u, gnorm, raw, "non-finite step")
        if np.max(np.abs(step), initial=0.0) <= 1e-15 * (1.0 + np.max(np.abs(u), initial=0.0)):
            return _Run(u, gnorm, raw, "step below 1e-15")
        biggest = float(np.max(np.abs(step)))
        if biggest > MAX_STEP:
            step = step * (MAX_STEP / biggest)
        g2sq_old = float(g @ g)
        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
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
        short_steps = short_steps + 1 if lam <= 1e-3 else 0
        if short_steps >= 5 and gnorm > 1e-2:
            return _Run(u, gnorm, raw, "line search collapsed")
    return _Run(u, gnorm, raw, "converged" if gnorm <= target else "max_iter")


def _single_normalized_rows(a, abs_a, k, jk_param):
    raw = a @ k
    flux = abs_a @ k
    div = np.where(flux > 0, flux, 1.0)
    g = raw / div
    jg = (a @ jk_param - g[:, None] * (abs_a @ jk_param)) / div[:, None]
    return g, jg, float(np.max(np.abs(raw), initial=0.0))


def _single_resjac(pairs, to_x, param_jac):
    """The residual of one point p: None off the chart, else the stacked
    flux-normalized rows, their Jacobian and the raw residual."""
    mats = [(a, np.abs(a), kin) for a, kin in pairs]

    def resjac(p):
        x = to_x(p)
        if x is None:
            return None
        gs, js, raw = [], [], 0.0
        for a, abs_a, kin in mats:
            k, jk = cb.kinetics.log_jacobian(kin, x)
            g, jg, raw_inf = _single_normalized_rows(a, abs_a, k, param_jac(jk, x))
            gs.append(g)
            js.append(jg)
            raw = max(raw, raw_inf)
        return np.concatenate(gs), np.vstack(js), raw

    return resjac


def _single_log_chart():
    """(to_x, param_jac, to_log, escape_bound) of the log chart, one point at a time."""
    def to_x(u):
        return None if np.max(np.abs(u)) > cb.newton._U_BOUND else np.exp(u)
    return to_x, (lambda jk, x: jk), (lambda u: u), ACCEPT_BOUND


def _single_coset_chart(x0, basis_rows):
    x0 = np.asarray(x0, dtype=float)
    b = np.atleast_2d(np.asarray(basis_rows, dtype=float)).T

    def to_x(alpha):
        x = x0 + b @ alpha
        return None if np.any(x <= 0) or np.any(x > 1e18) else x

    return (to_x, (lambda jk, x: (jk / x[None, :]) @ b),
            (lambda alpha: np.log(x0 + b @ alpha)), None)


def _sequential_multistart(pairs, chart, seeds, cfg):
    """The per-seed multistart loop over `_sequential_newton`."""
    to_x, param_jac, to_log, escape_bound = chart
    resjac = _single_resjac(pairs, to_x, param_jac)
    logs, stops = [], []
    for p0 in seeds:
        stop, log_x = _seed_outcome(_sequential_newton(resjac, p0, cfg, escape_bound),
                                    to_log, cfg)
        stops.append(stop)
        if log_x is not None:
            logs.append(log_x)
    return logs, stops


def _bits(logs):
    return [(u.shape, u.tobytes()) for u in logs]


def _checked_multistart(monkeypatch):
    """Make every `_multistart` call run the sequential oracle too and
    require the same stops and bit-identical log points. Returns the list
    of the stop lists checked."""
    real, real_coset = cb.equilibria._multistart, _Chart.coset
    single_cosets = {}

    def coset(m, x0, basis_rows):
        chart = real_coset(m, x0, basis_rows)
        single_cosets[chart] = _single_coset_chart(x0, basis_rows)
        return chart

    checked = []

    def multistart(pairs, chart, seeds, cfg):
        logs, stops = real(pairs, chart, seeds, cfg)
        single = single_cosets.get(chart) or _single_log_chart()
        old_logs, old_stops = _sequential_multistart(pairs, single, seeds, cfg)
        assert stops == old_stops
        assert _bits(logs) == _bits(old_logs)
        checked.append(stops)
        return logs, stops

    monkeypatch.setattr(_Chart, "coset", staticmethod(coset))
    monkeypatch.setattr(cb.equilibria, "_multistart", multistart)
    return checked


def _coset_outcome(name, flux_space, cfg):
    net, kin = parse_crn((DATA / name).read_text())
    system = cb.KineticSystem(net, kin)
    if flux_space == "S":
        basis = cb.stoichiometric_basis(net)
    else:
        basis = cb.build_t_matrices(net, kin).exact_s_tilde_basis
    z = cb.solve_equilibria(system, "complex_balanced", config=cfg).points
    samples = cb.sample_coset_counts(system, np.array(basis, dtype=float), z[0].x, cfg)
    return [counts for _, counts in samples]


def test_seeds_stepped_together_match_the_sequential_iteration(monkeypatch):
    checked = _checked_multistart(monkeypatch)
    cfg = cb.SolveConfig(seeds=16)
    for path in sorted(DATA.glob("*.crn")):
        system = cb.KineticSystem(*parse_crn(path.read_text()))
        for mode in ("positive", "complex_balanced"):
            cb.solve_equilibria(system, mode, config=cfg)
    fixture_calls = len(checked)
    work = bench_workloads()
    ladders = [bench_ladder(seed, 12) for seed in (3, 5, 7)] + [
        bench_ladder(2, 24), work.ladder_poly_pl(1, 12), work.ladder_hill(1, 8)]
    for net, kin in ladders:
        cb.analyze_acb(cb.KineticSystem(net, kin), cfg)  # E, Z, KSE and part solves
    for name, space in (("re1_massaction.crn", "S"), ("counterexample.crn", "Stilde")):
        _coset_outcome(name, space, cfg)
    # the joint pairs stack one block of rows per term system
    for net, kin in (parse_crn((DATA / "mm_polypl.crn").read_text()), work.ladder_poly_pl(1, 12)):
        cb.poly_pl_equilibrated_check(net, kin, cfg)

    assert fixture_calls == 10
    stops = collections.Counter(s for call in checked for s in call)
    for reason in ("converged", "escaped", "left the chart", "line search collapsed",
                   "step below 1e-15"):
        assert stops[reason] > 0, reason


def test_multistart_edge_cases_match_the_sequential_iteration(monkeypatch, counterexample):
    checked = _checked_multistart(monkeypatch)
    multistart = cb.equilibria._multistart
    cfg = cb.SolveConfig(seeds=8)
    net, kin = counterexample
    pairs = [(net.n_array(), kin)]
    log = _Chart.log(3)
    assert multistart(pairs, log, [], cfg) == ([], [])

    # no coordinates: the anchor alone, an equilibrium at x = 1 and not at x = (1, 2, 3)
    for anchor, stop in ((np.ones(3), "converged"), (np.arange(1.0, 4.0), "step below 1e-15")):
        flat = _Chart.coset(3, anchor, np.zeros((0, 3)))
        _, stops = multistart(pairs, flat, flat.seeds(cfg), cfg)
        assert stops == [stop] * 8

    seeds = log.seeds(cfg)
    _, stops = multistart(pairs, log, seeds[:3] + [np.full(3, 50.0)] + seeds[3:], cfg)
    assert stops[3] == "left the chart" and stops.count("left the chart") == 1
    _, stops = multistart(pairs, log, [np.full(3, 50.0), np.array([0.0, 0.0, -45.0])], cfg)
    assert stops == ["left the chart"] * 2

    basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    coset = _Chart.coset(3, np.ones(3), basis)
    _, stops = multistart(pairs, coset, [np.array([5.0]), np.array([-5.0])], cfg)
    assert stops == ["left the chart"] * 2
    assert len(checked) == 6


# --- several lengths per line-search round --------------------------------

def _out_of_reach(u):
    """Decreasing along +u, with a Newton step clamped to +MAX_STEP; a trial
    farther than MAX_STEP * 2^-40 from u = 0 is worse than the seed u = 0.
    From that seed only the length 2^-40 would be accepted, a length the
    line search never tries, so the search is exhausted."""
    v = u[0]
    g = 10.0 if v > MAX_STEP * 0.5 ** 40 else 1.0 + np.exp(-v)
    return _state([g], [[-1e-3]])


def _holes(u):
    """Decreasing along +u, with a Newton step clamped to +MAX_STEP, except
    for three trial points of the seed u = 0: u = 4 is worse and u = 2 off
    the chart, so the first step needs two halvings and lands on u = 1. The
    second step then tries three lengths in one round: u = 5 is taken, and
    the trials past it, u = 3 (a NaN residual) and u = 2, are not."""
    v = u[0]
    if v == 2.0:
        return None
    if v == 3.0:
        return _state([np.nan], [[np.nan]])
    if 1.0 < v <= 4.0:
        return _state([10.0], [[-1e-3]])
    return _state([1.0 + np.exp(-v)], [[-1e-3]])


def _converging():
    return lambda u: _state([u[0] - 1.0], [[1.0]])


def _off_chart():
    return lambda u: None


def _counting(resjac, rows):
    """`resjac`, appending the number of rows of each call to `rows`."""
    def counted(p):
        rows.append(p.shape[0])
        return resjac(p)
    return counted


_ROUND_CASES = {
    # the exhausted seed searches alone for most of its 40 trials, at most
    # 4 per round, and never moves
    "exhausted": ([lambda: _out_of_reach, _converging, _converging, _off_chart],
                  ["line search exhausted", "converged", "converged", "left the chart"], 0.0),
    # two seeds stopping early leave the rows for three trials per seed; the
    # seed of `_holes` goes to u = 1, then 5, then on by MAX_STEP per step
    "trials past the taken one": (
        [lambda: _holes, _converging, _converging, lambda: _drifting, _off_chart, _off_chart],
        ["max_iter", "converged", "converged", "max_iter", "left the chart", "left the chart"],
        5.0 + 4 * MAX_STEP),
}


@pytest.mark.parametrize("case", list(_ROUND_CASES))
def test_rounds_of_several_lengths_match_the_sequential_iteration(case):
    makers, want, end = _ROUND_CASES[case]
    cfg = cb.SolveConfig(max_iter=6)
    seeds = np.array([[0.0, label] for label in range(len(makers))])
    rows = []
    runs = _newton(_counting(_labelled(makers), rows), seeds, cfg, ACCEPT_BOUND)
    assert [run.stop for run in runs] == want
    for seed, run in zip(seeds, runs):
        alone = _sequential_newton(_labelled_single(makers), seed, cfg, ACCEPT_BOUND)
        assert _same_run(run, alone), run.stop
    assert runs[0].u[0] == end
    assert max(rows) == rows[0] == len(seeds)


@pytest.mark.parametrize("h, rounds", [(0, 5), (3, 3 + 4), (11, 4 + 4)])
def test_steps_needing_h_halvings_take_one_round_after_the_first(h, rounds):
    """Every step of the first seed needs h halvings, and the 15 other seeds
    are off the chart, so a round may try up to 16 lengths. The first step
    takes rounds of 1, 2, 4, ... lengths until it reaches the (h+1)-th; each
    later step tries h + 1 lengths in a single round. Halving one length at
    a time, each of the five steps took h + 1 rounds."""
    cfg = cb.SolveConfig(max_iter=5)
    makers = [lambda: _Creeping(reach=MAX_STEP * 0.5 ** h)] + [_off_chart] * 15
    seeds = np.array([[0.0, label] for label in range(16)])
    rows = []
    run = _newton(_counting(_labelled(makers), rows), seeds, cfg)[0]
    alone = _sequential_newton(_labelled_single(makers), seeds[0], cfg)
    assert _same_run(run, alone)
    assert run.stop == ("line search collapsed" if h == 11 else "max_iter")
    assert len(rows) == 1 + rounds
    assert max(rows) == rows[0] == 16


def test_no_round_has_more_rows_than_the_seeds(monkeypatch):
    """On the fixtures and the ladders, no `resjac` call of a multistart
    gets more rows than its first, the seeds themselves."""
    real = cb.equilibria._newton
    multistarts = []

    def newton(resjac, p0, cfg, escape_bound=None):
        rows = []
        multistarts.append((p0.shape[0], rows))
        return real(_counting(resjac, rows), p0, cfg, escape_bound)

    monkeypatch.setattr(cb.equilibria, "_newton", newton)
    cfg = cb.SolveConfig(seeds=16)
    for path in sorted(DATA.glob("*.crn")):
        cb.analyze_acb(cb.KineticSystem(*parse_crn(path.read_text())), cfg)
    for seed in (3, 5, 7):
        cb.analyze_acb(cb.KineticSystem(*bench_ladder(seed, 12)), cfg)
    cb.analyze_acb(cb.KineticSystem(*bench_ladder(2, 24)), cfg)
    assert len(multistarts) > 20
    for n, rows in multistarts:
        assert max(rows) == rows[0] == n


# --- differential check against the iteration without the early stops ---

def _reference_newton(resjac, u0, cfg):
    """The damped Newton iteration before the escape and collapse stops."""
    state = resjac(u0)
    if state is None:
        return None
    u = u0.copy()
    g, jac, raw = state
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    for _ in range(cfg.max_iter):
        if gnorm <= 1e-4 * cfg.tol:
            break
        step = np.linalg.lstsq(jac, -g, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        if np.max(np.abs(step)) <= 1e-15 * (1.0 + np.max(np.abs(u))):
            break
        biggest = float(np.max(np.abs(step)))
        if biggest > MAX_STEP:
            step = step * (MAX_STEP / biggest)
        g2sq_old = float(g @ g)
        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
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
            break
    return u, gnorm, raw


def _reference_as_run(resjac, u0, cfg):
    out = _reference_newton(resjac, u0, cfg)
    if out is None:
        return _Run(u0, np.inf, np.inf, "left the chart")
    u, gnorm, raw = out
    return _Run(u, gnorm, raw, "converged" if gnorm <= 1e-4 * cfg.tol else "max_iter")


def _reference_multistart(calls):
    """A `_multistart` running `_reference_newton` seed by seed, on the
    solver's own chart; each call is appended to `calls`."""
    def multistart(pairs, chart, seeds, cfg):
        calls.append(len(seeds))

        def to_x(p):
            on, x = chart.to_x(p[None])
            return x[0] if on[0] else None

        resjac = _single_resjac(pairs, to_x, chart.param_jac)
        logs, stops = [], []
        for p0 in seeds:
            stop, log_x = _seed_outcome(_reference_as_run(resjac, p0, cfg), chart.to_log, cfg)
            stops.append(stop)
            if log_x is not None:
                logs.append(log_x)
        return logs, stops

    return multistart


def _counted(calls):
    real = cb.equilibria._multistart

    def multistart(pairs, chart, seeds, cfg):
        calls.append(len(seeds))
        return real(pairs, chart, seeds, cfg)

    return multistart


def _same_points(a, b):
    return len(a) == len(b) and all(
        np.allclose(p.x, q.x, rtol=1e-8, atol=0) for p, q in zip(a, b))


def _outcome(system, cfg):
    analysis = cb.analyze_acb(system, cfg)
    try:
        verdict = cb.acb_verdict(analysis, cfg)
        status = (verdict.status, [c.rule for c in verdict.justification])
    except cb.equilibria.NotComplexBalancedError:
        status = None
    deco = analysis.decomposition
    return {"e": analysis.e_points, "z": analysis.z_points, "status": status,
            "stops": analysis.e_diagnostics["stops"],
            "kse": analysis.kse, "parts_acb": None if deco is None else deco.parts_acb}


def _differential_cases():
    for path in sorted(DATA.glob("*.crn")):
        yield path.stem, cb.KineticSystem(*parse_crn(path.read_text()))
    for seed in (3, 5, 7):
        yield f"ladder-r12-s{seed}", cb.KineticSystem(*bench_ladder(seed, 12))


def _early_stop_runs(cfg):
    cases = list(_differential_cases())
    coset_cases = [("re1_massaction.crn", "S"), ("counterexample.crn", "Stilde")]
    return ([_outcome(system, cfg) for _, system in cases],
            [_coset_outcome(name, space, cfg) for name, space in coset_cases])


def test_early_stops_keep_points_and_verdicts(monkeypatch):
    cfg = cb.SolveConfig(seeds=16)
    cases = [name for name, _ in _differential_cases()]
    coset_cases = ["re1_massaction.crn", "counterexample.crn"]
    solver_calls, reference_calls = [], []
    monkeypatch.setattr(cb.equilibria, "_multistart", _counted(solver_calls))
    new, new_cosets = _early_stop_runs(cfg)
    monkeypatch.setattr(cb.equilibria, "_multistart", _reference_multistart(reference_calls))
    old, old_cosets = _early_stop_runs(cfg)
    # the reference replaced every multistart the solver made
    assert reference_calls == solver_calls and sum(solver_calls) > 0

    for name, a, b in zip(cases, new, old):
        assert _same_points(a["e"], b["e"]), name
        assert _same_points(a["z"], b["z"]), name
        assert a["status"] == b["status"], name
        assert a["kse"] == b["kse"], name
        assert a["parts_acb"] == b["parts_acb"], name
    # both early stops fire, so the comparison bites
    stops = collections.Counter(s for a in new for s in a["stops"])
    assert stops["escaped"] > 0 and stops["line search collapsed"] > 0
    assert sum(a["status"] is not None for a in new) >= 6
    assert sum(a["kse"] is not None for a in new) >= 5
    for name, a, b in zip(coset_cases, new_cosets, old_cosets):
        assert [(c.e_found, c.z_found) for c in a] == [(c.e_found, c.z_found) for c in b], name
        for c, d in zip(a, b):
            assert _same_points(c.e_points, d.e_points), name
            assert _same_points(c.z_points, d.z_points), name
