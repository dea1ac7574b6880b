"""Equilibria search, LP/coset checks, kinetic-image spans, ACB verdicts."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crnbalance as cb
from crnbalance.fileformat import parse_crn

from conftest import DATA, bench_ladder, bench_workloads, random_weakly_reversible_network

CB_POINT = np.array([2.0, 2 ** 0.5 * 1.5 ** -0.25, 2 ** 0.5 * 1.5 ** 0.25])


@pytest.fixture(scope="module")
def ce_system(counterexample):
    net, kin = counterexample
    return cb.KineticSystem(net, kin)


@pytest.fixture(scope="module")
def ma_system(re1_massaction):
    net, kin = re1_massaction
    return cb.KineticSystem(net, kin)


@pytest.fixture(scope="module")
def ce_solutions(ce_system):
    cfg = cb.SolveConfig()
    e = cb.solve_equilibria(ce_system, "positive", config=cfg)
    z = cb.solve_equilibria(ce_system, "complex_balanced", config=cfg)
    return cfg, e, z


def test_counterexample_witness_and_cb_point(ce_solutions):
    cfg, e, z = ce_solutions
    ones = [p for p in e.points if np.max(np.abs(p.x - 1)) < 1e-9]
    assert ones, "the all-ones equilibrium must be found"
    assert ones[0].sfrf_residual <= 1e-9
    assert ones[0].cfrf_residual >= 1.0
    assert ones[0].kind == "positive"
    assert z.points, "a complex balanced point must be found"
    assert min(np.max(np.abs(p.x - CB_POINT)) for p in z.points) <= 1e-6
    assert all(p.kind == "complex_balanced" for p in z.points)


def test_residuals_reverify_independently(ce_solutions, ce_system):
    _, e, z = ce_solutions
    n_mat = ce_system.network.n_array()
    ia_mat = ce_system.network.ia_array()
    for p in list(e.points)[:10] + list(z.points):
        k = cb.evaluate(ce_system.kinetics, p.x)
        assert abs(float(np.max(np.abs(n_mat @ k))) - p.sfrf_residual) <= 1e-12
        assert abs(float(np.max(np.abs(ia_mat @ k))) - p.cfrf_residual) <= 1e-12


def test_z_subset_e_residual_implication(ce_solutions, ma_system, ce_system):
    cfg = cb.SolveConfig()
    for system in (ce_system, ma_system):
        z = cb.solve_equilibria(system, "complex_balanced", config=cfg)
        y_norm = float(np.max(np.sum(np.abs(system.network.y_array()), axis=1)))
        for p in z.points:
            assert p.cfrf_residual <= cfg.tol
            assert p.sfrf_residual <= y_norm * cfg.tol


def test_reversible_pair_modes_agree(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    system = cb.KineticSystem(net, cb.mass_action_from(net, [1, 1]))
    e = cb.solve_equilibria(system, "positive", config=fast_cfg)
    z = cb.solve_equilibria(system, "complex_balanced", config=fast_cfg)
    assert e.points and z.points
    for p in e.points:
        assert np.isclose(p.x[0], p.x[1], rtol=1e-8)
        assert p.kind == "complex_balanced"  # single linkage class: E+ = Z+


def test_no_convergence_returns_empty_with_diagnostics(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    system = cb.KineticSystem(net, cb.mass_action_from(net, [1]))
    res = cb.solve_equilibria(system, "positive", config=fast_cfg)
    assert res.points == []
    assert res.diagnostics["attempts"] == fast_cfg.seeds


def test_rate_scaling_invariance(ce_system, counterexample):
    net, kin = counterexample
    cfg = cb.SolveConfig(seeds=24)
    scaled = cb.KineticSystem(net, cb.power_law(kin.orders, kin.rates * 2.0))
    for mode in ("positive", "complex_balanced"):
        a = cb.solve_equilibria(ce_system, mode, config=cfg)
        b = cb.solve_equilibria(scaled, mode, config=cfg)
        logs_a = sorted(tuple(np.log(p.x)) for p in a.points)
        logs_b = sorted(tuple(np.log(p.x)) for p in b.points)
        assert len(logs_a) == len(logs_b)
        for ua, ub in zip(logs_a, logs_b):
            assert np.max(np.abs(np.array(ua) - np.array(ub))) <= cb.equilibria.DEDUP_TOL


def test_determinism(ce_system):
    cfg = cb.SolveConfig(seeds=24)
    a = cb.solve_equilibria(ce_system, "positive", config=cfg)
    b = cb.solve_equilibria(ce_system, "positive", config=cfg)
    assert [tuple(p.x) for p in a.points] == [tuple(p.x) for p in b.points]


def test_coset_full_space_equals_totals(ce_system):
    cfg = cb.SolveConfig(seeds=24)
    counts = cb.coset_intersection_count(ce_system, np.eye(3), np.ones(3), cfg)
    e = cb.solve_equilibria(ce_system, "positive", config=cfg)
    # full-space coset search explores the same solution set
    assert counts.e_found >= 1
    assert counts.z_found == len(cb.solve_equilibria(
        ce_system, "complex_balanced", config=cfg).points)
    assert e.points


def test_coset_counts_witness_mismatch(ce_system, counterexample):
    net, _ = counterexample
    cfg = cb.SolveConfig(seeds=24)
    s_basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    counts = cb.coset_intersection_count(ce_system, s_basis, np.ones(3), cfg)
    assert counts.e_found >= 1
    assert counts.z_found == 0  # the one CB point lies in another class


def test_coset_counts_mass_action_unique_cb(ma_system):
    cfg = cb.SolveConfig(seeds=16, coset_samples=8)
    s_basis = np.array(cb.stoichiometric_basis(ma_system.network), dtype=float)
    samples = cb.sample_coset_counts(ma_system, s_basis, np.ones(3), cfg)
    assert len(samples) == 8
    for _, counts in samples:
        assert counts.z_found == 1  # unique CB point per stoichiometric class


def test_check_lp_property_mass_action(ma_system):
    cfg = cb.SolveConfig(seeds=24)
    z = cb.solve_equilibria(ma_system, "complex_balanced", config=cfg)
    basis_rows = cb.stoichiometric_basis(ma_system.network)
    spec = cb.LPSetSpec(np.array(basis_rows, dtype=float), z.points[0].x)
    clp = cb.check_lp_property(ma_system, "Z", spec, config=cfg)
    assert clp.holds and clp.n_sampled == 8
    e = cb.solve_equilibria(ma_system, "positive", config=cfg)
    spec_e = cb.LPSetSpec(spec.flux_basis, e.points[0].x)
    plp = cb.check_lp_property(ma_system, "E", spec_e, config=cfg)
    assert plp.holds


def test_check_lp_property_wrong_flux_space_fails(ma_system):
    cfg = cb.SolveConfig(seeds=16)
    z = cb.solve_equilibria(ma_system, "complex_balanced", config=cfg)
    wrong = cb.LPSetSpec(np.array([[1.0, 0.0, 0.0]]), z.points[0].x)
    rep = cb.check_lp_property(ma_system, "Z", wrong, config=cfg)
    assert not rep.holds
    assert not rep.membership_direction_ok


def test_solve_config_rejects_settings_the_solver_cannot_use():
    for bad in ({"seeds": 0}, {"seeds": -3}, {"rng_seed": -1}, {"tol": float("nan")},
                {"tol": 0.0}, {"tol": -1.0}, {"tol": float("inf")}, {"max_iter": -1},
                {"coset_samples": -1}):
        (field, value), = bad.items()
        with pytest.raises(cb.CrnError, match=f"solver setting {field} must be "):
            cb.SolveConfig(**bad)
    # the smallest settings the solver reads as given
    cfg = cb.SolveConfig(seeds=1, rng_seed=0, tol=1e-300, max_iter=0, coset_samples=0)
    system = cb.KineticSystem(*parse_crn((DATA / "re1_massaction.crn").read_text()))
    assert cb.solve_equilibria(system, "positive", config=cfg).diagnostics["attempts"] == 1


def test_flux_basis_of_the_wrong_width_is_rejected(ma_system):
    with pytest.raises(cb.CrnError, match="2 entries, the reference state 3"):
        cb.LPSetSpec(np.array([[1.0, -1.0]]), np.ones(3))
    with pytest.raises(cb.CrnError, match="2 entries, the reference state 3"):
        cb.analyze_acb(ma_system, cb.SolveConfig(seeds=4), flux_spec_basis=[[1, -1]])


def test_check_lp_property_counterexample_kinetic_flux(ce_system, counterexample):
    net, kin = counterexample
    cfg = cb.SolveConfig(seeds=24)
    t = cb.build_t_matrices(net, kin)
    z = cb.solve_equilibria(ce_system, "complex_balanced", config=cfg)
    spec = cb.LPSetSpec(np.array(t.exact_s_tilde_basis, dtype=float), z.points[0].x)
    rep = cb.check_lp_property(ce_system, "Z", spec, config=cfg)
    assert rep.holds
    # S-tilde fills R^3, so no membership direction is left to sample
    assert rep.n_sampled == 0 and rep.max_residual == 0.0


def test_reference_not_equilibrium_raises(ma_system):
    spec = cb.LPSetSpec(np.array(cb.stoichiometric_basis(ma_system.network),
                                 dtype=float), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(cb.ReferenceNotEquilibriumError):
        cb.check_lp_property(ma_system, "Z", spec)


def test_toy_pl_tik_bilp(toy_pl_tik):
    net, kin = toy_pl_tik
    system = cb.KineticSystem(net, kin)
    cfg = cb.SolveConfig(seeds=24)
    analysis = cb.analyze_acb(system, cfg)
    assert analysis.clp is not None and analysis.clp.holds
    assert analysis.plp is not None and analysis.plp.holds
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "ACB_certified"
    rules = [c.rule for c in verdict.justification]
    assert "bi-lp" in rules and "deficiency-zero" in rules


def test_rkdzt_certificate_without_points(toy_pl_tik):
    net, kin = toy_pl_tik
    status, citations = cb.equilibria.certify_complex_balancing(
        cb.KineticSystem(net, kin), [])
    assert status is True
    assert citations[0].rule == "maximal-rank-complex-balancing"


def test_cb_impossible_without_weak_reversibility(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    system = cb.KineticSystem(net, cb.mass_action_from(net, [1]))
    analysis = cb.analyze_acb(system, fast_cfg)
    assert analysis.complex_balanced is False
    with pytest.raises(cb.NotComplexBalancedError):
        cb.acb_verdict(analysis, fast_cfg)


def test_kse_counterexample(ce_solutions, counterexample):
    net, kin = counterexample
    cfg, e, _ = ce_solutions
    rep = cb.kse_check(cb.KineticSystem(net, kin), e.points, cfg)
    assert rep.r_minus_s == 4
    assert rep.por is True
    assert rep.incidence_kernel_dim == 2
    # rows 2 and 3 of the kinetics are identical functions, so the image span
    # is capped one below the kernel dimension; it still tops dim ker Ia
    assert rep.sampled_span_dim == 3
    assert rep.kse is False
    assert rep.span_exceeds_incidence_kernel


def test_kse_reversible_pair(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.mass_action_from(net, [1, 2])
    system = cb.KineticSystem(net, kin)
    e = cb.solve_equilibria(system, "positive", config=fast_cfg)
    rep = cb.kse_check(system, e.points, fast_cfg)
    assert rep.r_minus_s == 1
    assert rep.sampled_span_dim == 1
    assert rep.kse is True


def test_kse_span_rank_is_scale_invariant_on_ladder_r24():
    # the kinetic images of ladder r = 24 (seed 2) differ in scale by orders
    # of magnitude; ranked as raw columns the span read 7, with unit-norm
    # columns it reads 9. The status is NotACB_certified either way
    # (7 and 9 both exceed dim ker Ia).
    cfg = cb.SolveConfig(seeds=16)
    system = cb.KineticSystem(*bench_ladder(2, 24))
    e = cb.solve_equilibria(system, "positive", config=cfg)
    rep = cb.kse_check(system, e.points, cfg)
    assert rep.sampled_span_dim == 9
    assert rep.span_exceeds_incidence_kernel


def test_kse_no_equilibria_raises(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    kin = cb.mass_action_from(net, [1])
    with pytest.raises(cb.NoEquilibriaError):
        cb.kse_check(cb.KineticSystem(net, kin), [], fast_cfg)


def test_poly_pl_balance_single_term(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    kin = cb.poly_pl([[(1, (1, 0))], [(1, (0, 1))]], [1, 1])
    rep = cb.poly_pl_equilibrated_check(net, kin, fast_cfg)
    assert rep.pl_equilibrated is True
    assert rep.pl_complex_balanced is True
    assert rep.absolutely_pl_complex_balanced is True


def test_poly_pl_balance_duplicated_term(fast_cfg, toy_polypl):
    net, kin = toy_polypl
    rep = cb.poly_pl_equilibrated_check(net, kin, fast_cfg)
    assert rep.pl_equilibrated is True
    assert rep.pl_complex_balanced is True
    assert rep.absolutely_pl_complex_balanced is True


def test_poly_pl_balance_enzyme(mm_polypl):
    net, kin = mm_polypl
    rep = cb.poly_pl_equilibrated_check(net, kin, cb.SolveConfig(seeds=24))
    assert rep.pl_equilibrated is True
    assert rep.pl_complex_balanced is True
    assert rep.absolutely_pl_complex_balanced is True


def test_acb_rule_feinberg(fast_cfg, mm_polypl):
    net, kin = mm_polypl
    system = cb.KineticSystem(net, kin)
    analysis = cb.analyze_acb(system, cb.SolveConfig(seeds=24))
    verdict = cb.acb_verdict(analysis, fast_cfg)
    assert verdict.status == "ACB_certified"
    assert "deficiency-zero" in [c.rule for c in verdict.justification]


def test_acb_rule_horn_jackson(ma_system):
    cfg = cb.SolveConfig(seeds=24)
    analysis = cb.analyze_acb(ma_system, cfg)
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "ACB_certified"
    rules = [c.rule for c in verdict.justification]
    assert "mass-action" in rules
    assert "acb-decomposition" in rules  # linkage classes are ACB parts here
    assert verdict.witness is None


def test_acb_counterexample_verdict(ce_system):
    cfg = cb.SolveConfig()
    analysis = cb.analyze_acb(ce_system, cfg)
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "NotACB_certified"
    rules = [c.rule for c in verdict.justification]
    assert "kse-partial-converse" in rules
    assert "numeric-witness" in rules
    assert verdict.witness is not None
    assert verdict.witness.cfrf_residual > 1e-4


def test_acb_star_replica_rule(mm_polypl):
    net, kin = mm_polypl
    cfg = cb.SolveConfig(seeds=24)
    star = cb.star_msc(net, kin)
    system = cb.KineticSystem(star.network, star.kinetics)
    evidence = cb.star_msc_acb_evidence(system, cb.KineticSystem(net, kin), cfg)
    assert evidence is not None
    verdict = system.linkage_verdict
    assert verdict.incidence_independent and not verdict.bi_independent
    assert all(s == "ACB_certified" for s in evidence.parts_acb)
    analysis = dataclasses.replace(cb.analyze_acb(system, cfg), decomposition=evidence)
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "ACB_certified"
    assert "acb-replica-decomposition" in [c.rule for c in verdict.justification]


def test_acb_rules_one_and_five_exclusive(ce_system, ma_system, mm_polypl):
    cfg = cb.SolveConfig(seeds=24)
    for system in (ce_system, ma_system,
                   cb.KineticSystem(*mm_polypl)):
        analysis = cb.analyze_acb(system, cfg)
        verdict = cb.acb_verdict(analysis, cfg)
        rules = [c.rule for c in verdict.justification]
        assert not ("deficiency-zero" in rules and "kse-partial-converse" in rules)


def test_lp_uniqueness_in_sampled_flux_classes(ma_system):
    # CLP certified with flux space S: constrained CB search in a sampled
    # positive class never returns two distinct points
    cfg = cb.SolveConfig(seeds=16, coset_samples=6)
    s_basis = np.array(cb.stoichiometric_basis(ma_system.network), dtype=float)
    for _, counts in cb.sample_coset_counts(ma_system, s_basis, np.ones(3), cfg):
        assert counts.z_found <= 1


def test_lp_spec_requires_independent_basis():
    with pytest.raises(cb.CrnError):
        cb.LPSetSpec(np.array([[1.0, 0.0], [2.0, 0.0]]), np.ones(2))


def test_acb_rule_feinberg_on_enzyme_mass_action(mm_polypl):
    # the enzyme network under mass action with kernel-balanced rates:
    # deficiency zero, complex balanced, certified by the zero-deficiency rule
    net, _ = mm_polypl
    kin = cb.mass_action_from(net, cb.rates_balancing_all_ones(net))
    cfg = cb.SolveConfig(seeds=24)
    analysis = cb.analyze_acb(cb.KineticSystem(net, kin), cfg)
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "ACB_certified"
    assert "deficiency-zero" in [c.rule for c in verdict.justification]


def test_poly_pl_balance_inconclusive_on_empty_samples(fast_cfg):
    # an irreversible pair has no positive equilibria at all
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    kin = cb.poly_pl([[(1, (1, 0))]], [1])
    rep = cb.poly_pl_equilibrated_check(net, kin, fast_cfg)
    assert rep.pl_equilibrated is None
    assert rep.pl_complex_balanced is None
    assert rep.absolutely_pl_complex_balanced is None


def test_constrained_solver_respects_coset(ce_system, counterexample):
    net, _ = counterexample
    cfg = cb.SolveConfig(seeds=24)
    s_basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    x0 = np.array([1.3, 0.9, 1.1])
    constraint = cb.CosetConstraint(x0, s_basis)
    res = cb.solve_equilibria(ce_system, "positive", constraint, cfg)
    perp = cb.linalg.complement_basis_rows(s_basis, 3)
    for p in res.points:
        # x - x0 must lie in span(S): its complement component vanishes
        assert np.max(np.abs(perp @ (p.x - x0))) < 1e-7


def test_coset_chart_rejects_bad_anchors_and_widths(ce_system, counterexample):
    net, _ = counterexample
    s_basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    cfg = cb.SolveConfig(seeds=4)
    bad = [
        (np.array([np.nan, 1.0, 1.0]), s_basis, "finite and strictly positive"),
        (np.array([np.inf, 1.0, 1.0]), s_basis, "finite and strictly positive"),
        (np.array([0.0, 1.0, 1.0]), s_basis, "finite and strictly positive"),
        (np.ones(2), s_basis, "one entry per species"),
        (np.ones(4), np.ones((1, 4)), "one entry per species"),
        (np.ones(3), s_basis[:, :2], "one entry per species"),
        (np.ones(3), np.array([[1.0, np.nan, 0.0]]), "its basis finite"),
    ]
    for x0, basis, message in bad:
        with pytest.raises(cb.CrnError, match=message):
            cb.solve_equilibria(ce_system, "positive", cb.CosetConstraint(x0, basis), cfg)
        with pytest.raises(cb.CrnError, match=message):
            cb.coset_intersection_count(ce_system, basis, x0, cfg)


def _contradictory_analysis():
    """Evidence certifying both ACB (mass action) and not ACB (KSE, delta 1):
    A <-> B, 2A <-> 2B under mass action, with an injected kernel-spanning
    image report."""
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1], [2, 0], [0, 2]],
                           [(0, 1), (1, 0), (2, 3), (3, 2)])
    return cb.AcbAnalysis(
        system=cb.KineticSystem(net, cb.mass_action_from(net, [1, 1, 1, 1])),
        complex_balanced=True, cb_citations=(), e_points=[], z_points=[],
        kse=cb.KseReport(r_minus_s=3, sampled_span_dim=3, kse=True, por=False,
                         incidence_kernel_dim=2, span_exceeds_incidence_kernel=True))


# --- the verdict rule table, one case per rule on injected evidence --------

_TABLE = [rule.citation.rule for rule in cb.equilibria._RULES]
_CLEAN = cb.EquilibriumPoint(np.ones(2), 0.0, 0.0, "complex_balanced")
_WITNESS = cb.EquilibriumPoint(np.ones(2), 0.0, 1.0, "positive")
_LP_HOLDS = cb.LpPropertyReport("Z", True, True, True, 0.0, 0.0, 1, 8)
_PARTS_ACB = cb.DecompositionEvidence(("ACB_certified",) * 2, True, "")


def _rule_system(name):
    """Tiny power-law systems: "pair" is A <-> B (deficiency 0); "pairs" is
    A <-> B, 2A <-> 2B (deficiency 1, incidence but not bi-independent
    linkage classes); "chains" is A <-> 2A <-> 3A, B <-> 2B <-> 3B
    (deficiency 2, bi-independent). "-ma" is mass action; otherwise every
    order row carries an extra 1 on B, so the kinetics is not mass action."""
    base, _, ma = name.partition("-")
    if base == "pair":
        complexes, reactions = [[1, 0], [0, 1]], [(0, 1), (1, 0)]
    elif base == "pairs":
        complexes = [[1, 0], [0, 1], [2, 0], [0, 2]]
        reactions = [(0, 1), (1, 0), (2, 3), (3, 2)]
    else:
        complexes = [[1, 0], [2, 0], [3, 0], [0, 1], [0, 2], [0, 3]]
        reactions = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 4)]
    net = cb.build_network(["A", "B"], complexes, reactions)
    rates = [1] * len(reactions)
    if ma:
        return cb.KineticSystem(net, cb.mass_action_from(net, rates))
    orders = [[complexes[q][0], complexes[q][1] + 1] for q, _ in reactions]
    return cb.KineticSystem(net, cb.power_law(orders, rates))


_RULE_CASES = [
    # (rule, system, injected evidence, fired rules, status)
    ("deficiency-zero", "pair", {"e_points": [_CLEAN]},
     ["deficiency-zero", "numeric-sweep"], "ACB_certified"),
    ("mass-action", "pairs-ma", {"e_points": [_CLEAN]},
     ["mass-action", "numeric-sweep"], "ACB_certified"),
    ("bi-lp", "pairs", {"clp": _LP_HOLDS, "plp": _LP_HOLDS, "e_points": [_WITNESS]},
     ["bi-lp", "numeric-witness"], "ACB_certified"),
    ("acb-decomposition", "chains", {"decomposition": _PARTS_ACB},
     ["acb-decomposition"], "ACB_certified"),
    ("acb-replica-decomposition", "pairs", {"decomposition": _PARTS_ACB},
     ["acb-replica-decomposition"], "ACB_certified"),
    ("kse-partial-converse", "pairs",
     {"kse": cb.KseReport(3, 3, True, False, 2, True), "e_points": [_WITNESS]},
     ["kse-partial-converse", "numeric-witness"], "NotACB_certified"),
    ("numeric-witness", "pairs", {"e_points": [_CLEAN, _WITNESS]},
     ["numeric-witness"], "NotACB_numeric"),
    ("numeric-sweep", "pairs", {"e_points": [_CLEAN]},
     ["numeric-sweep"], "ACB_numeric"),
]


def test_rule_cases_cover_the_table():
    assert [case[0] for case in _RULE_CASES] == _TABLE


@pytest.mark.parametrize("rule,system,evidence,fired,status", _RULE_CASES,
                         ids=[case[0] for case in _RULE_CASES])
def test_rule_table_entry(monkeypatch, rule, system, evidence, fired, status):
    calls = _counting_multistart(monkeypatch)
    analysis = dataclasses.replace(cb.AcbAnalysis(
        system=_rule_system(system), complex_balanced=True,
        cb_citations=(cb.equilibria.CB_BY_SOLVER,), e_points=[], z_points=[]), **evidence)
    verdict = cb.acb_verdict(analysis)
    rules = [c.rule for c in verdict.justification]
    assert rules == ["complex-balanced-point"] + fired
    assert rule in fired
    assert fired == sorted(fired, key=_TABLE.index)
    assert verdict.status == status
    assert verdict.witness is (_WITNESS if "numeric-witness" in fired else None)
    assert calls == []


def test_no_rule_fires_inconclusive():
    analysis = cb.AcbAnalysis(system=_rule_system("pairs"), complex_balanced=True,
                              cb_citations=(), e_points=[], z_points=[])
    verdict = cb.acb_verdict(analysis)
    assert (verdict.status, verdict.justification, verdict.witness) == (
        "Inconclusive", (), None)


def test_contradictory_verdict_raises():
    with pytest.raises(cb.CrnError, match="contradictory certified verdicts"):
        cb.acb_verdict(_contradictory_analysis())


def test_contradictory_verdict_raises_under_optimize():
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cb.__file__).parents[1]), str(here)]))
    code = ("import sys, crnbalance as cb\n"
            "from test_equilibria import _contradictory_analysis\n"
            "try:\n"
            "    cb.acb_verdict(_contradictory_analysis())\n"
            "except cb.CrnError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=here,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 contradictory certified verdicts")


def test_result_types_compare_without_raising():
    p = cb.EquilibriumPoint(np.ones(2), 0.0, 1.0, "positive")
    q = cb.EquilibriumPoint(np.ones(2), 0.0, 1.0, "positive")
    values = [p, q,
              cb.CosetConstraint(np.ones(2), np.eye(2)),
              cb.CosetConstraint(np.ones(2), np.eye(2)),
              cb.LPSetSpec(np.eye(2), np.ones(2)),
              cb.LPSetSpec(np.eye(2), np.ones(2)),
              cb.AcbVerdict("NotACB_numeric", (), p),
              cb.AcbVerdict("NotACB_numeric", (), q)]
    for a in values:
        hash(a)
        for b in values:  # array holders compare by identity, like KineticSystem
            assert (a == b) == (a is b)
    assert values[6] == cb.AcbVerdict("NotACB_numeric", (), p)


# --- linkage-decomposition evidence: exact flags before any solve ----------

def _counting_multistart(monkeypatch):
    calls = []
    real = cb.equilibria._multistart

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cb.equilibria, "_multistart", counted)
    return calls


def _two_four_cycles():
    """Two vertex-disjoint 4-cycles sharing both species: the linkage classes
    are incidence independent (always) but not independent (s = 2 < 2 + 2)."""
    complexes = [[1, 0], [2, 0], [2, 1], [1, 1], [3, 0], [4, 0], [4, 1], [3, 1]]
    reactions = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    net = cb.build_network(["A", "B"], complexes, reactions)
    orders = [[1, 1], [0, 2], [1, 0], [2, 1], [1, 2], [0, 1], [2, 0], [1, 1]]
    return net, cb.power_law(orders, cb.rates_balancing_all_ones(net))


def test_decomposition_evidence_skips_solves_when_rule_cannot_fire(monkeypatch, mm_polypl):
    calls = _counting_multistart(monkeypatch)
    net, kin = _two_four_cycles()
    ev = cb.linkage_decomposition_evidence(cb.KineticSystem(net, kin),
                                           cb.SolveConfig(seeds=16))
    verdict = cb.check_decomposition(net, cb.linkage_class_parts(net))
    assert verdict.incidence_independent and not verdict.bi_independent
    assert ev.intersection_certified is False
    assert ev.parts_acb == ()
    assert "skipped" in ev.note
    # the replica network of the enzyme is not bi-independent either; without
    # the certified intersections of star_msc_acb_evidence the replica rule cannot fire
    star = cb.star_msc(*mm_polypl)
    system = cb.KineticSystem(star.network, star.kinetics)
    ev = cb.linkage_decomposition_evidence(system, cb.SolveConfig(seeds=16))
    verdict = system.linkage_verdict
    assert verdict.incidence_independent and not verdict.bi_independent
    assert ev.parts_acb == ()
    assert calls == []


def test_decomposition_evidence_solves_only_certifiable_parts(monkeypatch, re1_powerlaw,
                                                              re1_massaction):
    calls = _counting_multistart(monkeypatch)
    cfg = cb.SolveConfig(seeds=16)
    # both linkage classes have deficiency 1 and are not mass action
    system = cb.KineticSystem(*re1_powerlaw)
    ev = cb.linkage_decomposition_evidence(system, cfg)
    assert system.linkage_verdict.bi_independent
    assert ev.parts_acb == ("Inconclusive", "Inconclusive")
    assert calls == []
    # under mass action each part can be certified, so each part is solved
    ev = cb.linkage_decomposition_evidence(cb.KineticSystem(*re1_massaction), cfg)
    assert ev.parts_acb == ("ACB_certified", "ACB_certified")
    assert len(calls) == 2


def _old_part_system(system, part):
    """The part as its own system: the incidence columns of its reactions
    and a power-law kinetics of their order rows; None for other families."""
    kin = system.kinetics
    if not isinstance(kin, cb.PowerLawKinetics):
        return None
    rows = list(part)
    exact = None if kin.exact_orders is None else tuple(kin.exact_orders[q] for q in rows)
    return (system.network.ia_array()[:, rows],
            cb.PowerLawKinetics(kin.orders[rows], kin.rates[rows], exact))


def _old_part_is_mass_action(system, part, kin_part):
    net = system.network
    for row, q in zip(kin_part.orders, part):
        target = np.array([float(c) for c in net.complexes[net.reactions[q].reactant].coeffs])
        if np.max(np.abs(row - target)) > 1e-12:
            return False
    return True


def _ungated_decomposition_evidence(system, cfg, intersection_certified=None):
    """Oracle: the per-part loop that solves every linkage class first, each
    part as its own system."""
    net = system.network
    parts = cb.linkage_class_parts(net)
    if len(parts) < 2:
        return None
    verdict = cb.check_decomposition(net, parts)
    deco = cb.decompose(net, parts)
    statuses = []
    for part, summary in zip(parts, deco.summaries):
        part_system = _old_part_system(system, part)
        if part_system is None:
            statuses.append("Inconclusive")
            continue
        ia_part, kin_part = part_system
        chart = cb.equilibria._Chart.log(net.num_species)
        logs, _ = cb.equilibria._multistart([(ia_part, kin_part)], chart, chart.seeds(cfg), cfg)
        balanced = any(
            float(np.max(np.abs(ia_part @ cb.evaluate(kin_part, np.exp(u))))) <= cfg.tol
            for u in cb.equilibria._dedup_logs(logs))
        exact = summary.delta == 0 or _old_part_is_mass_action(system, part, kin_part)
        statuses.append("ACB_certified" if balanced and exact else "Inconclusive")
    return cb.DecompositionEvidence(
        parts_acb=tuple(statuses),
        intersection_certified=(verdict.bi_independent if intersection_certified is None
                                else intersection_certified),
        note="")


def _differential_systems():
    for path in sorted(DATA.glob("*.crn")):
        yield path.stem, cb.KineticSystem(*parse_crn(path.read_text()))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = random_weakly_reversible_network(rng)
        rates = cb.rates_balancing_all_ones(net)
        orders = rng.integers(-1, 3, size=(net.num_reactions, net.num_species))
        yield f"mass-action-{seed}", cb.KineticSystem(net, cb.mass_action_from(net, rates))
        yield f"power-law-{seed}", cb.KineticSystem(net, cb.power_law(orders.tolist(), rates))


def test_gated_decomposition_evidence_matches_ungated_verdicts():
    cfg = cb.SolveConfig(seeds=16)
    fired = 0
    for name, system in _differential_systems():
        analysis = cb.analyze_acb(system, cfg)
        oracle = _ungated_decomposition_evidence(system, cfg)
        gated = analysis.decomposition
        assert (gated is None) == (oracle is None), name
        if gated is not None:
            assert dataclasses.replace(gated, parts_acb=(), note="") == \
                dataclasses.replace(oracle, parts_acb=(), note=""), name
            assert gated.parts_acb in ((), oracle.parts_acb), name
        if not (analysis.complex_balanced or analysis.z_points):
            continue
        new = cb.acb_verdict(analysis, cfg)
        old = cb.acb_verdict(dataclasses.replace(analysis, decomposition=oracle), cfg)
        assert (new.status, new.justification) == (old.status, old.justification), name
        fired += "acb-decomposition" in [c.rule for c in new.justification]
    assert fired >= 5  # the rule fires often enough for the comparison to bite


def test_gated_decomposition_evidence_matches_ungated_on_replicas(mm_polypl):
    # certified intersections keep the replica rule open on the replica network
    cfg = cb.SolveConfig(seeds=16)
    star = cb.star_msc(*mm_polypl)
    system = cb.KineticSystem(star.network, star.kinetics)
    gated = cb.linkage_decomposition_evidence(system, cfg, intersection_certified=True)
    oracle = _ungated_decomposition_evidence(system, cfg, intersection_certified=True)
    assert gated.parts_acb == oracle.parts_acb
    assert all(s == "ACB_certified" for s in gated.parts_acb)


def test_kinetic_system_is_frozen_and_keeps_its_facts(re1_massaction):
    system = cb.KineticSystem(*re1_massaction)
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.kinetics = re1_massaction[1]
    assert system.invariants is system.invariants
    assert system.linkage_verdict is system.linkage_verdict


def test_analyze_acb_computes_invariants_and_classification_once(monkeypatch, ce_system):
    counts = {"structural_invariants": 0, "classify": 0}
    for name in counts:
        real = getattr(cb.equilibria, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cb.equilibria, name, counted)
    # a fresh system: the shared fixture may already hold its facts
    system = cb.KineticSystem(ce_system.network, ce_system.kinetics)
    analysis = cb.analyze_acb(system, cb.SolveConfig(seeds=16))
    assert analysis.kse is not None
    assert counts == {"structural_invariants": 1, "classify": 1}


def test_ladder_analysis_computes_network_invariants_once(monkeypatch):
    net, kin = bench_ladder(3, 12)
    calls = []
    real = cb.network.structural_invariants

    def counted(arg):
        calls.append(arg is net)
        return real(arg)

    for module in (cb.network, cb.equilibria, cb.decomposition):
        monkeypatch.setattr(module, "structural_invariants", counted)
    analysis = cb.analyze_acb(cb.KineticSystem(net, kin), cb.SolveConfig(seeds=16))
    assert len(analysis.system.invariants.linkage_partition) >= 2
    assert analysis.decomposition is not None
    assert calls.count(True) == 1


def test_decomposition_evidence_decomposes_once(monkeypatch, re1_massaction):
    calls = []
    real = cb.decomposition.decompose

    def counted(*args):
        calls.append(args)
        return real(*args)

    # count calls made through a module-level name in equilibria as well
    monkeypatch.setattr(cb.decomposition, "decompose", counted)
    monkeypatch.setattr(cb.equilibria, "decompose", counted, raising=False)
    ev = cb.linkage_decomposition_evidence(cb.KineticSystem(*re1_massaction),
                                           cb.SolveConfig(seeds=16))
    assert ev.parts_acb == ("ACB_certified", "ACB_certified")
    assert len(calls) == 1


def test_check_decomposition_returns_the_part_summaries(re1_net):
    parts = cb.linkage_class_parts(re1_net)
    verdict = cb.check_decomposition(re1_net, parts, cb.structural_invariants(re1_net))
    assert verdict.summaries == cb.decompose(re1_net, parts).summaries
    assert verdict == cb.check_decomposition(re1_net, parts)


def test_hill_parts_are_solved():
    # A <-> B and C <-> D on disjoint species, each of deficiency 0; Hill
    # factors x/(1/2 + x) at rate 3/2 balance x = 1
    net = cb.build_network(["A", "B", "C", "D"], [[1, 0, 0, 0], [0, 1, 0, 0],
                                                  [0, 0, 1, 0], [0, 0, 0, 1]],
                           [(0, 1), (1, 0), (2, 3), (3, 2)])
    orders = np.eye(4).tolist()
    dissoc = (0.5 * np.eye(4)).tolist()
    system = cb.KineticSystem(net, cb.hill(orders, dissoc, ["3/2"] * 4))
    cfg = cb.SolveConfig(seeds=16)
    analysis = cb.analyze_acb(system, cfg)
    assert system.linkage_verdict.bi_independent
    assert analysis.decomposition.parts_acb == ("ACB_certified",) * 2
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "ACB_certified"
    rules = [c.rule for c in verdict.justification]
    assert rules.index("deficiency-zero") < rules.index("acb-decomposition")


def _zero_order_subspace():
    """A <-> B with both kinetic order rows on A: the kinetic order subspace is {0}."""
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    return cb.KineticSystem(net, cb.power_law([[1, 0], [1, 0]], [1, 1]))


def test_zero_kinetic_order_subspace_is_a_flux_space(fast_cfg):
    system = _zero_order_subspace()
    t = cb.build_t_matrices(system.network, system.kinetics)
    assert t.exact_s_tilde_basis == [] and t.s_tilde_basis.shape == (0, 2)
    assert cb.linalg.orthonormal_columns(t.s_tilde_basis).shape == (2, 0)
    analysis = cb.analyze_acb(system, fast_cfg)
    assert analysis.clp.holds and analysis.plp.holds
    verdict = cb.acb_verdict(analysis, fast_cfg)
    assert verdict.status == "ACB_certified"
    rules = [c.rule for c in verdict.justification]
    assert "deficiency-zero" in rules and "bi-lp" in rules


def test_zero_width_coset_counts_its_anchor_only(fast_cfg):
    # the chart of a zero-width coset is its anchor alone
    system = _zero_order_subspace()
    counts = cb.coset_intersection_count(system, np.zeros((0, 2)), [0.5, 3.0], fast_cfg)
    assert (counts.e_found, counts.z_found) == (1, 1)
    net = system.network
    ma = cb.KineticSystem(net, cb.mass_action_from(net, [1, 1]))
    assert cb.coset_intersection_count(ma, np.zeros((0, 2)), [1.0, 1.0], fast_cfg).e_found == 1
    res = cb.solve_equilibria(ma, "positive", cb.CosetConstraint(np.array([1.0, 2.0]),
                                                                 np.zeros((0, 2))), fast_cfg)
    assert len(res) == 0
    assert set(res.diagnostics["stops"]) == {"step below 1e-15"}


# --- deduplication of accepted log points ----------------------------------

def _quadratic_dedup(log_points):
    """Oracle: each point in lexicographic order against every kept one."""
    ordered = sorted(log_points, key=lambda v: tuple(v))
    kept = []
    for u in ordered:
        if all(np.max(np.abs(u - v)) > cb.equilibria.DEDUP_TOL for v in kept):
            kept.append(u)
    return kept


def _dedup_cases():
    tol = cb.equilibria.DEDUP_TOL
    rng = np.random.default_rng(11)
    for _ in range(40):
        base = rng.uniform(-2, 2, size=(int(rng.integers(1, 25)), 3))
        points = list(base)
        for p in base[:8]:
            points.append(p + rng.uniform(-1.5 * tol, 1.5 * tol, 3))   # near copies
            points.append(p + np.array([0.0, 3 * tol, 0.0]))            # same first coordinate
            points.append(p + np.array([0.0, tol, -tol]))
        yield [points[i] for i in rng.permutation(len(points))]
    # points exactly DEDUP_TOL apart, and a grid sharing first coordinates
    yield [np.array([j * tol, 0.0]) for j in (0, 1, 2, 4)]
    yield [np.array([a * tol, b * tol]) for a in range(4) for b in range(4)]
    yield []


def test_windowed_dedup_keeps_what_the_quadratic_scan_keeps():
    for points in _dedup_cases():
        kept, want = cb.equilibria._dedup_logs(points), _quadratic_dedup(points)
        assert len(kept) == len(want)
        assert all(a is b for a, b in zip(kept, want))
    exact = [np.array([0.0, 0.0]), np.array([1e-6, 0.0]), np.array([2e-6, 0.0])]
    assert [u[0] for u in cb.equilibria._dedup_logs(exact)] == [0.0, 2e-6]


def test_float_matrices_are_cached_and_read_only(re1_powerlaw):
    system = cb.KineticSystem(*re1_powerlaw)
    net = system.network
    assert system.n_float is system.n_float and system.ia_float is system.ia_float
    assert np.array_equal(system.n_float, net.n_array())
    assert np.array_equal(system.ia_float, net.ia_array())
    for a in (system.n_float, system.ia_float):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def _residual_of_one_point(pairs, x):
    """The residual max |A K(x)| of one state, block by block."""
    return max(float(np.max(np.abs(a @ cb.evaluate(kin, x)))) for a, kin in pairs)


def test_stacked_residuals_are_those_of_each_point():
    """Residuals reach the reports, so the stacked check must give each
    point's own bits: at solved equilibria of both kinds and at sampled
    states, on the fixtures and the ladders, for one block and for the
    joint blocks of poly-PL term systems."""
    work = bench_workloads()
    cases = [parse_crn(path.read_text()) for path in sorted(DATA.glob("*.crn"))]
    cases += [bench_ladder(seed, 12) for seed in (3, 5, 7)] + [
        bench_ladder(2, 24), work.ladder_poly_pl(1, 12), work.ladder_hill(1, 8)]
    cfg = cb.SolveConfig(seeds=8)
    checked = solved = 0
    for net, kin in cases:
        system = cb.KineticSystem(net, kin)
        points = [p for mode in ("positive", "complex_balanced")
                  for p in cb.solve_equilibria(system, mode, config=cfg).points]
        states = [p.x for p in points]
        states += cb.sample_positive_states(net.num_species, 6, rng_seed=3)
        blocks = [[(system.n_float, kin)], [(system.ia_float, kin)]]
        if isinstance(kin, cb.PolyPLKinetics):
            norm = cb.normalize_poly_pl(kin)
            blocks.append([(system.n_float, norm.term_system(j)) for j in range(norm.length)])
        for pairs in blocks:
            want = [_residual_of_one_point(pairs, x) for x in states]
            assert cb.kinetics._residuals(pairs, states) == want
            checked += len(states)
        # the recorded residuals of each solved point are those of the point
        # alone, so an LP check on a solved reference recomputes them exactly
        for p in points:
            assert p.sfrf_residual == cb.kinetics._residuals([(system.n_float, kin)], [p.x])[0]
            assert p.cfrf_residual == cb.kinetics._residuals([(system.ia_float, kin)], [p.x])[0]
        solved += len(points)
    assert checked > 200 and solved > 50
    assert cb.kinetics._residuals([(system.n_float, kin)], []) == []
