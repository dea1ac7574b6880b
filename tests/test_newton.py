"""Stop reasons of the damped Newton iteration, which steps all seeds of a
multistart together; a differential check of it against the sequential
per-seed iteration it replaced; a differential check of the two early
stops against the iteration without them; and a check that its rounds are
those of the stacked driver that kept each seed's scalars in numpy masks."""

import collections
import io
import json

import numpy as np
import pytest

import crnbalance as cb
from crnbalance.cli import run_cli
from crnbalance.equilibria import _seed_outcome
from crnbalance.fileformat import parse_crn
from crnbalance.newton import (_COLLAPSE_LAMBDA, _COLLAPSE_RESIDUAL, _COLLAPSE_STEPS,
                               ACCEPT_BOUND, MAX_HALVINGS, MAX_STEP, _Chart, _Run, _newton)

from conftest import DATA, bench_ladder, bench_workloads, term_system

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
    which `resjac` gives a state, the residual rows of those rows, a
    callable that picks the Jacobians of some of them, and their raw
    residuals."""
    def stacked(p):
        states = [resjac(row) for row in p]
        on = np.array([state is not None for state in states], dtype=bool)
        kept = [state for state in states if state is not None]
        if not kept:
            jac = np.zeros((0, 1, p.shape[1]))
            return on, np.zeros((0, 1)), lambda rows: jac[rows], np.zeros(0)
        g, jac, raw = (np.array([state[i] for state in kept]) for i in range(3))
        return on, g, lambda rows: jac[rows], raw
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


def test_equilibria_json_keeps_its_four_diagnostics_keys():
    out = io.StringIO()
    code = run_cli(["equilibria", str(DATA / "re1_powerlaw.crn"), "--json", "--seeds", "8"],
                   out, io.StringIO())
    assert code == 0
    diagnostics = json.loads(out.getvalue())["equilibria"]["diagnostics"]
    for side in diagnostics.values():
        assert list(side) == ["attempts", "converged", "distinct", "mode"]
    # bench/tracing.py `_count_solve` reads these three names from every solve
    net, kin = parse_crn((DATA / "re1_powerlaw.crn").read_text())
    for mode in ("positive", "complex_balanced"):
        res = cb.solve_equilibria(cb.KineticSystem(net, kin), mode, config=cb.SolveConfig(seeds=8))
        assert {"attempts", "converged", "distinct"} <= set(res.diagnostics)
        assert res.diagnostics["distinct"] == len(res.points)


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
            k, rows = cb.kinetics.log_jacobian(kin, x)
            g, jg, raw_inf = _single_normalized_rows(a, abs_a, k, param_jac(rows(...), x))
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


def _term_blocks(a, kin):
    """The (A, kinetics) blocks that `_multistart(a, kin, ...)` solves: one,
    or one per term system when `kin` stacks them, each rows j c to
    (j + 1) c - 1 of the stacked kinetics for c the columns of A."""
    c = a.shape[1]
    if kin.num_reactions == c:
        return [(a, kin)]
    return [(a, cb.PowerLawKinetics(kin.orders[j * c:(j + 1) * c], kin.rates[j * c:(j + 1) * c]))
            for j in range(kin.num_reactions // c)]


def _sequential_multistart(pairs, chart, seeds, cfg):
    """The per-seed multistart loop over `_sequential_newton`, each (A,
    kinetics) block of `pairs` evaluated and normalized on its own."""
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

    def multistart(a, kin, chart, seeds, cfg):
        logs, stops = real(a, kin, chart, seeds, cfg)
        single = single_cosets.get(chart) or _single_log_chart()
        old_logs, old_stops = _sequential_multistart(_term_blocks(a, kin), single, seeds, cfg)
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
    # the joint solves stack one block of rows per term system
    for net, kin in (parse_crn((DATA / "mm_polypl.crn").read_text()), work.ladder_poly_pl(1, 12)):
        cb.poly_pl_equilibrated_check(net, kin, cfg)

    assert fixture_calls == 12  # six fixtures, two modes each
    stops = collections.Counter(s for call in checked for s in call)
    for reason in ("converged", "escaped", "left the chart", "line search collapsed",
                   "step below 1e-15"):
        assert stops[reason] > 0, reason


def test_multistart_edge_cases_match_the_sequential_iteration(monkeypatch, counterexample):
    checked = _checked_multistart(monkeypatch)
    multistart = cb.equilibria._multistart
    cfg = cb.SolveConfig(seeds=8)
    net, kin = counterexample
    n = net.n_array()
    log = _Chart.log(3)
    assert multistart(n, kin, log, [], cfg) == ([], [])

    # no coordinates: the anchor alone, an equilibrium at x = 1 and not at x = (1, 2, 3)
    for anchor, stop in ((np.ones(3), "converged"), (np.arange(1.0, 4.0), "step below 1e-15")):
        flat = _Chart.coset(3, anchor, np.zeros((0, 3)))
        _, stops = multistart(n, kin, flat, flat.seeds(cfg), cfg)
        assert stops == [stop] * 8

    seeds = log.seeds(cfg)
    _, stops = multistart(n, kin, log, seeds[:3] + [np.full(3, 50.0)] + seeds[3:], cfg)
    assert stops[3] == "left the chart" and stops.count("left the chart") == 1
    _, stops = multistart(n, kin, log, [np.full(3, 50.0), np.array([0.0, 0.0, -45.0])], cfg)
    assert stops == ["left the chart"] * 2

    basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    coset = _Chart.coset(3, np.ones(3), basis)
    _, stops = multistart(n, kin, coset, [np.array([5.0]), np.array([-5.0])], cfg)
    assert stops == ["left the chart"] * 2
    assert len(checked) == 6


@pytest.mark.parametrize("seeds", [16, 64])
def test_joint_solves_match_the_per_term_oracle(seeds):
    """A joint poly-PL solve is one solve over the stacked term kinetics;
    its stops and log points are, bit for bit, those of the sequential
    oracle that evaluates and normalizes each term system on its own."""
    work = bench_workloads()
    cfg = cb.SolveConfig(seeds=seeds)
    cases = [work.ladder_poly_pl(0, 12), work.ladder_poly_pl(1, 12),
             parse_crn((DATA / "mm_polypl.crn").read_text())]
    found = 0
    for net, kin in cases:
        norm = cb.normalize_poly_pl(kin)
        chart = _Chart.log(net.num_species)
        for a in (net.n_array(), net.ia_array()):
            logs, stops = cb.equilibria._multistart(a, norm.term_kinetics(), chart,
                                                    chart.seeds(cfg), cfg)
            pairs = [(a, term_system(norm, j)) for j in range(norm.length)]
            old_logs, old_stops = _sequential_multistart(pairs, _single_log_chart(),
                                                         chart.seeds(cfg), cfg)
            assert stops == old_stops
            assert _bits(logs) == _bits(old_logs)
            found += len(logs)
    assert found > 0


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
    # 2 (4 // 1) = 8 per round, and never moves
    "exhausted": ([lambda: _out_of_reach, _converging, _converging, _off_chart],
                  ["line search exhausted", "converged", "converged", "left the chart"], 0.0, 8),
    # two seeds stopping early leave the rows for up to 2 (6 // 2) = 6
    # trials per seed; the seed of `_holes` goes to u = 1, then 5 (three
    # trials, as many as its first step needed), then on by MAX_STEP per step
    "trials past the taken one": (
        [lambda: _holes, _converging, _converging, lambda: _drifting, _off_chart, _off_chart],
        ["max_iter", "converged", "converged", "max_iter", "left the chart", "left the chart"],
        5.0 + 4 * MAX_STEP, 6),
}


@pytest.mark.parametrize("case", list(_ROUND_CASES))
def test_rounds_of_several_lengths_match_the_sequential_iteration(case):
    makers, want, end, most = _ROUND_CASES[case]
    cfg = cb.SolveConfig(max_iter=6)
    seeds = np.array([[0.0, label] for label in range(len(makers))])
    rows = []
    runs = _newton(_counting(_labelled(makers), rows), seeds, cfg, ACCEPT_BOUND)
    assert [run.stop for run in runs] == want
    for seed, run in zip(seeds, runs):
        alone = _sequential_newton(_labelled_single(makers), seed, cfg, ACCEPT_BOUND)
        assert _same_run(run, alone), run.stop
    assert runs[0].u[0] == end
    assert rows[0] == len(seeds) and max(rows) == most


@pytest.mark.parametrize("h, rounds", [(0, 5), (3, 3 + 4), (11, 4 + 4)])
def test_steps_needing_h_halvings_take_one_round_after_the_first(h, rounds):
    """Every step of the first seed needs h halvings, and the 15 other seeds
    are off the chart, so a round may try up to 2 (16 // 1) = 32 lengths.
    The first step takes rounds of 1, 2, 4, ... lengths until it reaches the
    (h+1)-th; each later step tries h + 1 lengths in a single round. Halving
    one length at a time, each of the five steps took h + 1 rounds."""
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


def test_rounds_form_at_most_n_jacobians_and_try_at_most_2n_rows(monkeypatch):
    """On the fixtures and the ladders, the first `resjac` call of a
    multistart gets the seeds themselves, no later one more than twice as
    many rows, and no round forms more Jacobians than there are seeds."""
    real = cb.equilibria._newton
    multistarts = []

    def newton(resjac, p0, cfg, escape_bound=None):
        rows, formed = [], []

        def counted(p):
            rows.append(p.shape[0])
            on, g, jacobian, raw = resjac(p)

            def counted_jacobian(js):
                formed.append(len(js))
                return jacobian(js)
            return on, g, counted_jacobian, raw

        multistarts.append((p0.shape[0], rows, formed))
        return real(counted, p0, cfg, escape_bound)

    monkeypatch.setattr(cb.equilibria, "_newton", newton)
    cfg = cb.SolveConfig(seeds=16)
    for path in sorted(DATA.glob("*.crn")):
        cb.analyze_acb(cb.KineticSystem(*parse_crn(path.read_text())), cfg)
    for seed in (3, 5, 7):
        cb.analyze_acb(cb.KineticSystem(*bench_ladder(seed, 12)), cfg)
    cb.analyze_acb(cb.KineticSystem(*bench_ladder(2, 24)), cfg)
    assert len(multistarts) > 20
    for n, rows, formed in multistarts:
        assert rows[0] == n and max(rows) <= 2 * n
        # at most one Jacobian call per round, none for an empty set of rows
        assert len(formed) <= len(rows) and 0 < min(formed, default=1)
        assert max(formed, default=0) <= n
    # the bounds bite: some round tries more rows than seeds, and fewer
    # Jacobians are formed than trial rows evaluated
    assert any(max(rows) > n for n, rows, _ in multistarts)
    assert sum(sum(formed) for *_, formed in multistarts) < sum(
        sum(rows) for _, rows, _ in multistarts)


@pytest.mark.parametrize("ladder, seed, r", [("ladder_power_law", 3, 12),
                                             ("ladder_poly_pl", 0, 12),
                                             ("ladder_hill", 0, 8)])
def test_multistart_forms_dk_du_only_at_the_rows_a_seed_steps_from(monkeypatch, ladder,
                                                                     seed, r):
    """Each line-search round calls `equilibria.log_jacobian` once and forms
    K at every trial row on the chart; its row function forms dK/du at as
    many rows as there are least-squares steps, fewer than the trial rows."""
    counts = collections.Counter()
    real_log_jacobian, real_newton = cb.equilibria.log_jacobian, cb.equilibria._newton
    real_lstsq = np.linalg.lstsq

    def log_jacobian(kin, x):
        counts["log_jacobian"] += 1
        counts["k_rows"] += len(x)
        k, rows = real_log_jacobian(kin, x)

        def counted_rows(js):
            counts["jac_rows"] += len(js)
            return rows(js)
        return k, counted_rows

    def newton(resjac, p0, cfg, escape_bound=None):
        def counted(p):
            out = resjac(p)
            counts["rounds"] += 1
            counts["trial_rows"] += int(np.count_nonzero(out[0]))
            return out
        return real_newton(counted, p0, cfg, escape_bound)

    def lstsq(*args, **kwargs):
        counts["lstsq"] += 1
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(cb.equilibria, "log_jacobian", log_jacobian)
    monkeypatch.setattr(cb.equilibria, "_newton", newton)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    system = cb.KineticSystem(*getattr(bench_workloads(), ladder)(seed, r))
    for mode in ("positive", "complex_balanced"):
        cb.solve_equilibria(system, mode, config=cb.SolveConfig(seeds=16))
    assert counts["log_jacobian"] == counts["rounds"] > 0
    assert counts["k_rows"] == counts["trial_rows"]
    assert counts["jac_rows"] == counts["lstsq"] > 0
    assert counts["jac_rows"] < counts["k_rows"]


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
    def multistart(a, kin, chart, seeds, cfg):
        calls.append(len(seeds))

        def to_x(p):
            on, x = chart.to_x(p[None])
            return x[0] if on[0] else None

        resjac = _single_resjac(_term_blocks(a, kin), to_x, chart.param_jac)
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

    def multistart(a, kin, chart, seeds, cfg):
        calls.append(len(seeds))
        return real(a, kin, chart, seeds, cfg)

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


# --- the masked stacked driver, as an oracle of the round schedule --------

# 2^-c and c for c < MAX_HALVINGS, as numpy rows, for `_masked_newton`.
_HALVES = np.array([0.5 ** c for c in range(MAX_HALVINGS)])
_COUNTS = np.array([float(c) for c in range(MAX_HALVINGS)])


def _squares(g: np.ndarray) -> np.ndarray:
    """g . g of each row, as the dot product of that row alone computes it."""
    return np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0]


def _masked_newton(resjac, p0: np.ndarray, cfg,
                   escape_bound: float | None = None) -> list[_Run]:
    """The stacked driver with each seed's lambda, counters and residual
    norms kept in numpy arrays and updated through masks, as `_newton` was
    written before its per-seed scalars became Python values; its window
    and its Jacobians, formed only where a seed steps, are those of
    `_newton` now."""
    n = p0.shape[0]
    stops: list[str | None] = [None] * n
    u = p0.copy()
    on, g_on, jacobian, raw_on = resjac(u)
    g = np.zeros((n,) + g_on.shape[1:])
    raw, gnorm, gsq = np.full(n, np.inf), np.full(n, np.inf), np.zeros(n)
    g[on], raw[on], gsq[on] = g_on, raw_on, _squares(g_on)
    gnorm[on] = np.max(np.abs(g_on), axis=1, initial=0.0)
    step = np.zeros_like(u)
    # The next length, 2^-h after h halvings in this step, and how many the
    # next round tries; accepted steps, and the latest run of short ones.
    lam, halved, tries = np.ones(n), np.zeros(n), np.ones(n)
    iters, short_steps = np.zeros(n), np.zeros(n)
    # Polish four digits past acceptance so downstream rank estimates are
    # not dominated by solver noise.
    target = 1e-4 * cfg.tol

    def stop(rows, why):
        for i in rows:
            stops[i] = why

    def newton_steps(rows: np.ndarray, jacobian, at: np.ndarray) -> np.ndarray:
        """The top of a Newton iteration for `rows`, the Jacobian of rows[j]
        being jacobian([at[j]]): the stop tests, then a clamped step at
        lambda = 1. Returns the rows that go on to search a line."""
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
        # Jacobians only for the rows still live, none when there are none
        formed = np.flatnonzero(live)
        jacs = jacobian(at[formed].tolist()) if formed.size else np.zeros((0, 0, 0))
        # lstsq raises on a non-finite Jacobian, so test it first
        finite = np.zeros(rows.size, dtype=bool)
        finite[formed] = np.all(np.isfinite(jacs), axis=(1, 2))
        stop_where(~finite, "non-finite step")
        for i, jac in zip(rows[live], jacs[finite[formed]]):
            step[i] = np.linalg.lstsq(jac, -g[i], rcond=None)[0]
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
    searching = newton_steps(np.flatnonzero(on), jacobian, np.arange(np.count_nonzero(on)))
    del jacobian
    while searching.size:
        # column c: the length lam * 2^-c, after halved + c halvings
        width = min(2 * (n // searching.size), MAX_HALVINGS)
        counts = halved[searching, None] + _COUNTS[:width]
        lams = lam[searching, None] * _HALVES[:width]
        grid = (_COUNTS[:width] < tries[searching, None]) & (counts < MAX_HALVINGS)
        trial = (u[searching, None] + lams[..., None] * step[searching, None])[grid]
        on, g_on, jacobian, raw_on = resjac(trial)
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
            acc = newton_steps(acc[~creeping], jacobian, at[~creeping])
        del jacobian
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


def _recorded(resjac, stacks):
    """`resjac`, appending the shape and bytes of each input stack to
    `stacks`, and the rows of each Jacobian call after it."""
    def recorded(p):
        stacks.append((p.shape, p.tobytes()))
        on, g, jacobian, raw = resjac(p)

        def recorded_jacobian(rows):
            stacks.append(list(rows))
            return jacobian(rows)
        return on, g, recorded_jacobian, raw
    return recorded


def test_rounds_match_the_masked_driver(monkeypatch):
    """Every `_newton` call of the fixtures, both coset charts and the
    ladders also runs `_masked_newton`: both must hand `resjac` the same
    stacks in the same order, ask for the Jacobians of the same rows after
    each, which fixes the per-layer call counts, and return bit-identical
    runs."""
    real = cb.equilibria._newton
    checked = []

    def newton(resjac, p0, cfg, escape_bound=None):
        stacks, masked_stacks = [], []
        runs = real(_recorded(resjac, stacks), p0, cfg, escape_bound)
        masked = _masked_newton(_recorded(resjac, masked_stacks), p0, cfg, escape_bound)
        assert stacks == masked_stacks
        assert len(runs) == len(masked)
        assert all(_same_run(a, b) for a, b in zip(runs, masked))
        rounds = sum(isinstance(call, tuple) for call in stacks)
        checked.append((rounds, [run.stop for run in runs]))
        return runs

    monkeypatch.setattr(cb.equilibria, "_newton", newton)
    cfg = cb.SolveConfig(seeds=16)
    for path in sorted(DATA.glob("*.crn")):
        system = cb.KineticSystem(*parse_crn(path.read_text()))
        for mode in ("positive", "complex_balanced"):
            cb.solve_equilibria(system, mode, config=cfg)
    assert len(checked) == 12  # six fixtures, two modes each
    for name, space in (("re1_massaction.crn", "S"), ("counterexample.crn", "Stilde")):
        _coset_outcome(name, space, cfg)
    work = bench_workloads()
    ladders = [bench_ladder(seed, 12) for seed in (3, 5, 7)] + [
        bench_ladder(2, 24), work.ladder_poly_pl(1, 12), work.ladder_hill(1, 8)]
    for net, kin in ladders:
        cb.analyze_acb(cb.KineticSystem(net, kin), cfg)  # E, Z, KSE and part solves

    assert len(checked) > 40
    assert max(rounds for rounds, _ in checked) > 20
    stops = collections.Counter(s for _, call in checked for s in call)
    for reason in ("converged", "escaped", "left the chart", "line search collapsed",
                   "line search exhausted", "step below 1e-15", "max_iter"):
        assert stops[reason] > 0, reason
