"""Stop reasons of the damped Newton iteration, and a differential check of
the two early stops against the iteration without them."""

import collections
import io
import json

import numpy as np

import crnbalance as cb
from crnbalance.cli import run_cli
from crnbalance.equilibria import ACCEPT_BOUND, MAX_HALVINGS, MAX_STEP, _newton
from crnbalance.fileformat import parse_crn

from conftest import DATA, bench_ladder

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


def test_drift_past_accept_bound_escapes():
    run = _newton(_drifting, np.zeros(1), CFG, ACCEPT_BOUND)
    assert run.stop == "escaped"
    assert ACCEPT_BOUND < run.u[0] <= ACCEPT_BOUND + MAX_STEP
    # without an escape bound, as on the coset chart, the run goes on
    assert _newton(_drifting, np.zeros(1), CFG).stop == "max_iter"


def test_escape_is_checked_at_the_seed():
    run = _newton(_drifting, np.array([ACCEPT_BOUND + 1.0]), CFG, ACCEPT_BOUND)
    assert run.stop == "escaped"
    assert run.u[0] == ACCEPT_BOUND + 1.0


def test_creeping_line_search_collapses():
    # accepted steps need lambda = 2^-11 < 1e-3
    resjac = _Creeping(reach=2e-3)
    run = _newton(resjac, np.zeros(1), CFG)
    assert run.stop == "line search collapsed"
    assert resjac.accepted == 1 + 5  # the seed, then five short steps
    assert run.gnorm > 1e-2


def test_short_steps_above_the_collapse_lambda_do_not_stop():
    # accepted steps need lambda = 2^-9 > 1e-3: slow, but no collapse
    cfg = cb.SolveConfig(max_iter=30)
    resjac = _Creeping(reach=8e-3)
    run = _newton(resjac, np.zeros(1), cfg)
    assert run.stop == "max_iter"
    assert resjac.accepted == 1 + 30


def test_collapse_needs_a_large_residual():
    # the same creep with the normalized residual already below 1e-2
    run = _newton(_Creeping(reach=2e-3, level=4e-3), np.zeros(1), cb.SolveConfig(max_iter=20))
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

    run = _newton(plateau, np.zeros(1), CFG)
    assert run.stop == "converged"
    assert run.gnorm <= 1e-4 * CFG.tol
    assert sum(g > 1e-2 for g in residuals) >= 65
    # no trial was refused, so every step was taken at lambda = 1
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_no_residual_at_the_seed_left_the_chart():
    run = _newton(lambda u: None, np.zeros(2), CFG)
    assert run.stop == "left the chart"
    assert run.gnorm == np.inf and run.raw == np.inf


def test_nan_jacobian_is_a_non_finite_step():
    run = _newton(lambda u: _state([1.0], [[np.nan]]), np.zeros(1), CFG)
    assert run.stop == "non-finite step"


def test_max_iter():
    run = _newton(_drifting, np.zeros(1), cb.SolveConfig(max_iter=3), ACCEPT_BOUND)
    assert run.stop == "max_iter"
    assert run.u[0] == 7.0  # steps 1, 2, 4


def test_uphill_direction_exhausts_the_line_search():
    # the residual decreases along +u, the Jacobian points the other way
    run = _newton(lambda u: _state([1.0 + np.exp(-u[0])], [[1.0]]), np.zeros(1), CFG)
    assert run.stop == "line search exhausted"


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


def _reference_as_run(resjac, u0, cfg, escape_bound=None):
    out = _reference_newton(resjac, u0, cfg)
    if out is None:
        return cb.equilibria._Run(u0, np.inf, np.inf, "left the chart")
    u, gnorm, raw = out
    return cb.equilibria._Run(u, gnorm, raw,
                              "converged" if gnorm <= 1e-4 * cfg.tol else "max_iter")


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


def _differential_cases():
    for path in sorted(DATA.glob("*.crn")):
        yield path.stem, cb.KineticSystem(*parse_crn(path.read_text()))
    for seed in (3, 5, 7):
        yield f"ladder-r12-s{seed}", cb.KineticSystem(*bench_ladder(seed, 12))


def test_early_stops_keep_points_and_verdicts(monkeypatch):
    cfg = cb.SolveConfig(seeds=16)
    cases = list(_differential_cases())
    coset_cases = [("re1_massaction.crn", "S"), ("counterexample.crn", "Stilde")]
    new = [_outcome(system, cfg) for _, system in cases]
    new_cosets = [_coset_outcome(name, space, cfg) for name, space in coset_cases]
    monkeypatch.setattr(cb.equilibria, "_newton", _reference_as_run)
    old = [_outcome(system, cfg) for _, system in cases]
    old_cosets = [_coset_outcome(name, space, cfg) for name, space in coset_cases]

    for (name, _), a, b in zip(cases, new, old):
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
    for (name, _), a, b in zip(coset_cases, new_cosets, old_cosets):
        assert [(c.e_found, c.z_found) for c in a] == [(c.e_found, c.z_found) for c in b], name
        for c, d in zip(a, b):
            assert _same_points(c.e_points, d.e_points), name
            assert _same_points(c.z_points, d.z_points), name
