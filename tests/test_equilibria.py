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

from conftest import DATA, bench_ladder, random_weakly_reversible_network

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
            assert np.max(np.abs(np.array(ua) - np.array(ub))) <= cfg.dedup_tol


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
    spec = cb.LPSetSpec(np.array(basis_rows, dtype=float), z.points[0].x,
                        tuple(tuple(r) for r in basis_rows))
    clp = cb.check_lp_property(ma_system, "Z", spec, config=cfg)
    assert clp.holds and clp.n_sampled == 8
    e = cb.solve_equilibria(ma_system, "positive", config=cfg)
    spec_e = cb.LPSetSpec(spec.flux_basis, e.points[0].x, spec.exact_basis)
    plp = cb.check_lp_property(ma_system, "E", spec_e, config=cfg)
    assert plp.holds
    assert cb.check_bilp(ma_system, spec, spec_e)


def test_check_lp_property_wrong_flux_space_fails(ma_system):
    cfg = cb.SolveConfig(seeds=16)
    z = cb.solve_equilibria(ma_system, "complex_balanced", config=cfg)
    wrong = cb.LPSetSpec(np.array([[1.0, 0.0, 0.0]]), z.points[0].x)
    rep = cb.check_lp_property(ma_system, "Z", wrong, config=cfg)
    assert not rep.holds
    assert not rep.membership_direction_ok


def test_check_lp_property_counterexample_kinetic_flux(ce_system, counterexample):
    net, kin = counterexample
    cfg = cb.SolveConfig(seeds=24)
    t = cb.build_t_matrices(net, kin)
    z = cb.solve_equilibria(ce_system, "complex_balanced", config=cfg)
    basis = t.exact_s_tilde_basis
    spec = cb.LPSetSpec(np.array(basis, dtype=float), z.points[0].x,
                        tuple(tuple(r) for r in basis))
    rep = cb.check_lp_property(ce_system, "Z", spec, config=cfg)
    assert rep.holds
    # S-tilde fills R^3, so no membership direction is left to sample
    assert rep.n_sampled == 0 and rep.max_residual == 0.0


def test_reference_not_equilibrium_raises(ma_system):
    spec = cb.LPSetSpec(np.array(cb.stoichiometric_basis(ma_system.network),
                                 dtype=float), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(cb.ReferenceNotEquilibriumError):
        cb.check_lp_property(ma_system, "Z", spec)


def test_check_bilp_proper_subspace(ma_system):
    cfg = cb.SolveConfig(seeds=16)
    z = cb.solve_equilibria(ma_system, "complex_balanced", config=cfg)
    ref = z.points[0].x
    full = cb.LPSetSpec(
        np.array(cb.stoichiometric_basis(ma_system.network), dtype=float), ref,
        tuple(tuple(r) for r in cb.stoichiometric_basis(ma_system.network)))
    sub = cb.LPSetSpec(np.array([[-1.0, 1.0, 0.0]]), ref, ((-1, 1, 0),))
    assert not cb.check_bilp(ma_system, sub, full)
    assert cb.check_bilp(ma_system, full, full)


def test_toy_pl_tik_bilp(toy_pl_tik):
    net, kin = toy_pl_tik
    system = cb.KineticSystem(net, kin)
    cfg = cb.SolveConfig(seeds=24)
    analysis = cb.analyze_acb(system, cfg)
    assert analysis.clp is not None and analysis.clp.holds
    assert analysis.plp is not None and analysis.plp.holds
    assert analysis.bilp
    verdict = cb.acb_verdict(analysis, cfg)
    assert verdict.status == "ACB_certified"
    rules = [c.rule for c in verdict.justification]
    assert "bi-lp" in rules and "deficiency-zero" in rules


def test_rkdzt_certificate_without_points(toy_pl_tik):
    net, kin = toy_pl_tik
    inv = cb.structural_invariants(net)
    t = cb.build_t_matrices(net, kin)
    status, citations = cb.equilibria.certify_complex_balancing(
        cb.KineticSystem(net, kin), inv, t, [])
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
    rep = cb.kse_check(net, kin, e.points, cfg)
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
    rep = cb.kse_check(net, kin, e.points, fast_cfg)
    assert rep.r_minus_s == 1
    assert rep.sampled_span_dim == 1
    assert rep.kse is True


def test_kse_no_equilibria_raises(fast_cfg):
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1)])
    kin = cb.mass_action_from(net, [1])
    with pytest.raises(cb.NoEquilibriaError):
        cb.kse_check(net, kin, [], fast_cfg)


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
    evidence = cb.star_msc_acb_evidence(star, net, kin, cfg)
    assert evidence is not None
    assert evidence.incidence_independent and not evidence.bi_independent
    assert all(s == "ACB_certified" for s in evidence.parts_acb)
    system = cb.KineticSystem(star.network, star.kinetics)
    analysis = cb.analyze_acb(system, cfg)
    analysis.decomposition = evidence
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


def _contradictory_analysis():
    """Evidence certifying both ACB (mass action) and not ACB (KSE, delta 1)."""
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1), (1, 0)])
    return cb.AcbAnalysis(
        system=cb.KineticSystem(net, cb.power_law([[1, 0], [0, 1]], [1, 1])),
        structural=dataclasses.replace(cb.structural_invariants(net), delta=1),
        classification=cb.KineticsClassification(mass_action=True),
        complex_balanced=True, cb_citations=(), e_points=[], z_points=[],
        kse=cb.KseReport(r_minus_s=1, sampled_span_dim=1, kse=True, por=False,
                         incidence_kernel_dim=1, span_exceeds_incidence_kernel=False))


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
    assert (ev.independent, ev.incidence_independent, ev.bi_independent) == (
        verdict.independent, verdict.incidence_independent, verdict.bi_independent)
    assert ev.intersection_certified is False
    assert ev.parts_acb == ()
    assert "skipped" in ev.note
    # the replica network of the enzyme is not bi-independent either; without
    # the certified intersections of star_msc_acb_evidence rule 4 cannot fire
    star = cb.star_msc(*mm_polypl)
    ev = cb.linkage_decomposition_evidence(
        cb.KineticSystem(star.network, star.kinetics), cb.SolveConfig(seeds=16))
    assert ev.incidence_independent and not ev.bi_independent
    assert ev.parts_acb == ()
    assert calls == []


def test_decomposition_evidence_solves_only_certifiable_parts(monkeypatch, re1_powerlaw,
                                                              re1_massaction):
    calls = _counting_multistart(monkeypatch)
    cfg = cb.SolveConfig(seeds=16)
    # both linkage classes have deficiency 1 and are not mass action
    ev = cb.linkage_decomposition_evidence(cb.KineticSystem(*re1_powerlaw), cfg)
    assert ev.bi_independent
    assert ev.parts_acb == ("Inconclusive", "Inconclusive")
    assert calls == []
    # under mass action each part can be certified, so each part is solved
    ev = cb.linkage_decomposition_evidence(cb.KineticSystem(*re1_massaction), cfg)
    assert ev.parts_acb == ("ACB_certified", "ACB_certified")
    assert len(calls) == 2


def _ungated_decomposition_evidence(system, cfg, intersection_certified=None):
    """Oracle: the per-part loop that solves every linkage class first."""
    net = system.network
    parts = cb.linkage_class_parts(net)
    if len(parts) < 2:
        return None
    verdict = cb.check_decomposition(net, parts)
    deco = cb.decompose(net, parts)
    statuses = []
    for part, summary in zip(parts, deco.summaries):
        try:
            _, ia_part, kin_part = cb.equilibria._part_system(system, part)
        except cb.CrnError:
            statuses.append("Inconclusive")
            continue
        points, _ = cb.equilibria._multistart(
            [(ia_part, kin_part)], cb.KineticSystem(net, system.kinetics), cfg, None)
        balanced = any(float(np.max(np.abs(ia_part @ cb.evaluate(kin_part, p.x)))) <= cfg.tol
                       for p in points)
        exact = (summary.delta == 0
                 or cb.equilibria._part_is_mass_action(system, part, kin_part))
        statuses.append("ACB_certified" if balanced and exact else "Inconclusive")
    return cb.DecompositionEvidence(
        independent=verdict.independent,
        incidence_independent=verdict.incidence_independent,
        bi_independent=verdict.bi_independent,
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
        analysis.decomposition = oracle
        old = cb.acb_verdict(analysis, cfg)
        assert (new.status, new.justification) == (old.status, old.justification), name
        fired += "acb-decomposition" in [c.rule for c in new.justification]
    assert fired >= 5  # the rule fires often enough for the comparison to bite


def test_gated_decomposition_evidence_matches_ungated_on_replicas(mm_polypl):
    # certified intersections keep rule 4 open on the replica network
    cfg = cb.SolveConfig(seeds=16)
    star = cb.star_msc(*mm_polypl)
    system = cb.KineticSystem(star.network, star.kinetics)
    gated = cb.linkage_decomposition_evidence(system, cfg, intersection_certified=True)
    oracle = _ungated_decomposition_evidence(system, cfg, intersection_certified=True)
    assert gated.parts_acb == oracle.parts_acb
    assert all(s == "ACB_certified" for s in gated.parts_acb)


def test_analyze_acb_computes_invariants_and_classification_once(monkeypatch, ce_system):
    counts = {"structural_invariants": 0, "classify": 0}
    for name in counts:
        real = getattr(cb.equilibria, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cb.equilibria, name, counted)
    analysis = cb.analyze_acb(ce_system, cb.SolveConfig(seeds=16))
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
    assert len(analysis.structural.linkage_partition) >= 2
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
