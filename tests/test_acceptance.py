"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Criterion 3 is split in two: the verdict and its witnesses, and the
kinetic-image span clause, which asserts that the span of the counterexample's
kinetic images over its positive equilibria is certified to be 3. Every
reaction vector of that network is a multiple of (2, -1, -1), so
r - s = dim ker N = 4; but reactions r2 and r3 share their reactant complex,
hence (PL-RDK) their kinetic order row, and carry equal rates, so
K_2(x) = K_3(x) for every x > 0. Every kinetic image therefore lies in
ker N intersected with the hyperplane v_2 = v_3, a space of dimension 3 by
exact rank. The sampled span, a lower bound, reaches that upper bound, so
the span is exactly 3: not kernel spanning, yet above dim ker Ia = 2.
"""

from fractions import Fraction

import numpy as np
import pytest

import crnbalance as cb
from crnbalance import rational
from conftest import exact_rank, matmul, random_network, random_weakly_reversible_network, y_array


def _verdict(name: str, checks: list[tuple[str, bool]]):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "" if not failed else " — failing: " + ", ".join(failed)
    print(f"ACCEPTANCE {name}: {status}{detail}")
    assert not failed, f"{name}{detail}"


Y_PRINTED = [[2, 1, 0, 2, 1, 0], [0, 1, 2, 0, 0, 0], [0, 0, 0, 1, 2, 3]]
IA_PRINTED = [[-1, 1, 0, 0, 0, 0, 0, 0],
              [1, -1, -1, 1, 0, 0, 0, 0],
              [0, 0, 1, -1, 0, 0, 0, 0],
              [0, 0, 0, 0, -1, 1, 0, 0],
              [0, 0, 0, 0, 1, -1, -1, 1],
              [0, 0, 0, 0, 0, 0, 1, -1]]
THAT_PRINTED = [[0, -1, 0, 0], [-1, -1, -2, 0], [1, 1, 0, -2], [1, 1, 1, 1]]
# closed form of the unique complex balanced point at rates (1, 1, 1, 3/2);
# displays as (2, 1.27789, 1.56508) at five decimals
CB_POINT = (2.0, 2 ** 0.5 * 1.5 ** -0.25, 2 ** 0.5 * 1.5 ** 0.25)


def test_criterion_1_structure_of_the_running_example(re1_net):
    inv = cb.structural_invariants(re1_net)
    checks = [
        ("m=3", inv.m == 3), ("n=6", inv.n == 6), ("n_r=6", inv.n_r == 6),
        ("r=8", inv.r == 8), ("l=2", inv.l == 2), ("delta=2", inv.delta == 2),
        ("weakly reversible", inv.weakly_reversible),
        ("t-minimal", inv.t_minimal),
        ("Y exact", [[int(v) for v in row] for row in re1_net.y] == Y_PRINTED),
        ("Ia exact", [[int(v) for v in row] for row in re1_net.ia] == IA_PRINTED),
    ]
    _verdict("criterion 1", checks)


def test_criterion_2_counterexample_order_matrices(counterexample):
    net, kin = counterexample
    inv = cb.structural_invariants(net)
    t = cb.build_t_matrices(net, kin)
    cls = cb.classify(kin, net)
    cb_status, citations = cb.equilibria.certify_complex_balancing(
        cb.KineticSystem(net, kin), [])
    checks = [
        ("T-hat printed", np.array_equal(t.that, np.array(THAT_PRINTED, float))),
        ("q-hat=4", t.q_hat == 4),
        ("delta-hat=0", t.delta_hat == 0),
        ("PL-RDK", cls.pl_rdk is True),
        ("PL-TIK", cb.is_pl_tik(t)),
        ("weakly reversible", inv.weakly_reversible),
        ("complex balancing certified by the maximal-rank criterion",
         cb_status is True and citations[0].rule == "maximal-rank-complex-balancing"),
        ("delta=2", inv.delta == 2),
    ]
    _verdict("criterion 2", checks)


@pytest.fixture(scope="module")
def ce_pipeline(counterexample):
    net, kin = counterexample
    system = cb.KineticSystem(net, kin)
    cfg = cb.SolveConfig()  # 64 seeds, rng 42, tol 1e-9
    analysis = cb.analyze_acb(system, cfg)
    verdict = cb.acb_verdict(analysis, cfg)
    return cfg, analysis, verdict


def test_criterion_3_counterexample_verdict(ce_pipeline):
    cfg, analysis, verdict = ce_pipeline
    ones = [p for p in analysis.e_points if np.max(np.abs(p.x - 1)) < 1e-9]
    cb_hit = min((np.max(np.abs(p.x - np.array(CB_POINT)))
                  for p in analysis.z_points), default=np.inf)
    rules = [c.rule for c in verdict.justification]
    checks = [
        ("x=(1,1,1) found", bool(ones)),
        ("witness sfrf <= 1e-9", bool(ones) and ones[0].sfrf_residual <= 1e-9),
        ("witness cfrf >= 1.0", bool(ones) and ones[0].cfrf_residual >= 1.0),
        ("closed form displays as (2, 1.27789, 1.56508)",
         tuple(np.round(CB_POINT, 5)) == (2.0, 1.27789, 1.56508)),
        ("complex balanced point within 1e-6", cb_hit <= 1e-6),
        ("NotACB_certified", verdict.status == "NotACB_certified"),
        ("cites the partial converse", "kse-partial-converse" in rules),
        ("r - s = 4", analysis.kse is not None and analysis.kse.r_minus_s == 4),
    ]
    _verdict("criterion 3 (verdict and witnesses)", checks)


def test_criterion_3_kse_span_equality(counterexample, ce_pipeline):
    """The sampled kinetic-image span meets its exact upper bound, 3.

    Reactions r2 and r3 both start at 3A2 + 3A3. Under PL-RDK kinetics they
    therefore carry the same kinetic order row, so K_2(x)/k_2 = K_3(x)/k_3 at
    every positive state, whatever the rates; here k_2 = k_3 = 1. Every
    kinetic image K(x) thus lies in ker N intersected with
    {v : v_2/k_2 = v_3/k_3}, whose dimension r - rank(N stacked with that
    row) is computed below over the rationals, independently of
    `kse_check`: 5 - 2 = 3. The sampled span is a certified lower bound, so
    when it equals this upper bound dim span K(E+) = 3 is certified. That is
    below r - s = 4 (not kernel spanning) and above dim ker Ia = 2, the
    premise of the `kse-partial-converse` citation. The premise of the bound
    is pinned first: if the fixture stops tying r2 to r3, the test fails
    on that check rather than passing on a bound that no longer applies.
    """
    net, kin = counterexample
    rep = ce_pipeline[1].kse
    p, q = 1, 2  # r2 and r3
    states = cb.sample_positive_states(net.num_species, 5, rng_seed=42)
    premise = [
        ("r2, r3 share the reactant complex",
         net.reactions[p].reactant == net.reactions[q].reactant),
        ("r2, r3 share the kinetic order row",
         kin.exact_orders is not None
         and kin.exact_orders[p] == kin.exact_orders[q]),
        ("k_2 = k_3 = 1", kin.rates[p] == kin.rates[q] == 1),
        ("K_2(x) = K_3(x) at sampled states",
         all(cb.evaluate(kin, x)[p] == cb.evaluate(kin, x)[q] for x in states)),
    ]
    # v_2/k_2 - v_3/k_3 = 0, over the rates exactly as the fixture states them
    tie = [Fraction(0)] * net.num_reactions
    tie[p], tie[q] = 1 / kin.exact_rates[p], -1 / kin.exact_rates[q]
    upper = net.num_reactions - exact_rank([list(row) for row in net.n] + [tie])
    checks = premise + [
        ("exact upper bound = 3", upper == 3),
        ("sampled span = exact upper bound", rep.sampled_span_dim == upper),
        ("r - s = 4", rep.r_minus_s == 4),
        ("not KSE", rep.kse is False),
        ("dim ker Ia = 2", rep.incidence_kernel_dim == 2),
        ("span exceeds dim ker Ia", rep.span_exceeds_incidence_kernel is True),
    ]
    print(f"sampled span {rep.sampled_span_dim}, exact upper bound {upper},"
          f" r - s = {rep.r_minus_s}")
    _verdict("criterion 3 (KSE span equality)", checks)


def test_criterion_4_replica_transform(mm_polypl):
    net, kin = mm_polypl
    inv = cb.structural_invariants(net)
    star = cb.star_msc(net, kin)
    # independent recomputation of the transform deficiency via exact ranks
    recomputed = cb.structural_invariants(star.network).delta
    deviation = 0.0
    for x in cb.sample_positive_states(net.num_species, 20, rng_seed=42):
        f0 = cb.species_formation_rate(net, kin, x)
        f1 = cb.species_formation_rate(star.network, star.kinetics, x)
        deviation = max(deviation, float(np.max(np.abs(f0 - f1))
                                         / max(1.0, np.max(np.abs(f0)))))
    replica_verdict = cb.check_decomposition(
        star.network, cb.linkage_class_parts(star.network))
    checks = [
        ("|C*| = 9", star.network.num_complexes == 9),
        ("|R*| = 12", star.network.num_reactions == 12),
        ("M = 2", star.shift == 2),
        ("delta* = 4", recomputed == 4),
        ("delta* = delta + (n - l)(h - 1)",
         recomputed == inv.delta + (inv.n - inv.l) * (star.length - 1)),
        ("SFRF deviation <= 1e-10", deviation <= 1e-10),
        ("replicas incidence independent", replica_verdict.incidence_independent),
        ("replicas not bi-independent", not replica_verdict.bi_independent),
    ]
    _verdict("criterion 4", checks)


def test_criterion_5_linkage_decomposition(re1_net):
    parts = cb.linkage_class_parts(re1_net)
    verdict = cb.check_decomposition(re1_net, parts)
    deco = cb.decompose(re1_net, parts)
    deltas = [s.delta for s in deco.summaries]
    checks = [
        ("independent", verdict.independent),
        ("incidence independent", verdict.incidence_independent),
        ("bi-independent", verdict.bi_independent),
        ("delta_1 = delta_2 = 1", deltas == [1, 1]),
        ("delta = 1 + 1 = 2",
         verdict.deficiency == 2 and verdict.deficiency_sum == 2),
    ]
    _verdict("criterion 5", checks)


def test_criterion_6_mass_action_regression(re1_net):
    rates = cb.rates_balancing_all_ones(re1_net)  # exact incidence kernel
    kin = cb.mass_action_from(re1_net, rates)
    system = cb.KineticSystem(re1_net, kin)
    cfg = cb.SolveConfig()  # 64 seeds
    analysis = cb.analyze_acb(system, cfg)
    verdict = cb.acb_verdict(analysis, cfg)
    rules = [c.rule for c in verdict.justification]
    witnesses = [p for p in analysis.e_points
                 if p.sfrf_residual <= cb.equilibria.WITNESS_SFRF
                 and p.cfrf_residual > cb.equilibria.WITNESS_CFRF]
    checks = [
        ("x=1 complex balanced",
         cb.KineticSystem(re1_net, kin).cfrf_residual(np.ones(3)) == 0.0),
        ("delta > 0", analysis.system.invariants.delta == 2),
        ("CLP holds with P = S", analysis.clp is not None and analysis.clp.holds),
        ("bi-LP with P_E = P_Z = S",
         analysis.plp is not None and analysis.plp.holds and "bi-lp" in rules),
        ("ACB_certified", verdict.status == "ACB_certified"),
        ("rule 1 inapplicable", "deficiency-zero" not in rules),
        ("rule 2 fired", "mass-action" in rules),
        # 64 seeds and 24 perturbation seeds, 3 near each of the first 8 points
        ("88-seed sweep, 0 witnesses",
         analysis.e_diagnostics["attempts"] == 88 and not witnesses),
    ]
    _verdict("criterion 6", checks)


def test_criterion_7_denominator_clearing_equilibria(mm_rational):
    net, kq = mm_rational
    kpy = cb.hill_to_poly_pl(net, kq)
    cfg = cb.SolveConfig(seeds=32)
    sys_q = cb.KineticSystem(net, kq)
    sys_py = cb.KineticSystem(net, kpy)
    tol = 1e-7
    checks = []
    residuals = {
        "positive": lambda kin, x: np.max(np.abs(cb.species_formation_rate(net, kin, x))),
        "complex_balanced": lambda kin, x: cb.KineticSystem(net, kin).cfrf_residual(x),
    }
    for mode, residual in residuals.items():
        pts_q = cb.solve_equilibria(sys_q, mode, config=cfg).points
        pts_py = cb.solve_equilibria(sys_py, mode, config=cfg).points
        checks.append((f"{mode}: both sides found points",
                       bool(pts_q) and bool(pts_py)))
        checks.append((f"{mode}: rational points satisfy the poly-PL system",
                       all(residual(kpy, p.x) <= tol for p in pts_q)))
        checks.append((f"{mode}: poly-PL points satisfy the rational system",
                       all(residual(kq, p.x) <= tol for p in pts_py)))
    _verdict("criterion 7", checks)


def _fixture_systems(re1_powerlaw, re1_massaction, counterexample, mm_polypl,
                     toy_pl_tik, toy_polypl):
    return [re1_powerlaw, re1_massaction, counterexample, mm_polypl,
            toy_pl_tik, toy_polypl]


def test_criterion_8_property_suite(re1_powerlaw, re1_massaction, counterexample,
                                    mm_polypl, toy_pl_tik, toy_polypl):
    fixtures = _fixture_systems(re1_powerlaw, re1_massaction, counterexample,
                                mm_polypl, toy_pl_tik, toy_polypl)
    rng = np.random.default_rng(2024)
    nets = [net for net, _ in fixtures]
    nets += [random_network(rng) for _ in range(100)]

    checks = []
    part_rng = np.random.default_rng(7)
    ok_delta = ok_assembly = ok_wr = ok_linkage = ok_dhat = ok_relation = True
    for net in nets:
        inv = cb.structural_invariants(net)
        ok_delta &= inv.delta >= 0
        ok_assembly &= matmul(
            [list(r) for r in net.y], [list(r) for r in net.ia]) == \
            [list(r) for r in net.n]
        kernel = rational.positive_kernel_vector([list(r) for r in net.ia])
        ok_wr &= inv.weakly_reversible == (kernel is not None)
        if inv.l >= 2:
            ok_linkage &= cb.check_decomposition(
                net, inv.linkage_partition).incidence_independent
        tmat = cb.build_t_matrices(net, cb.mass_action_from(
            net, [1] * net.num_reactions))
        ok_dhat &= tmat.delta_hat >= 0
        labels = part_rng.integers(0, 2, size=net.num_reactions)
        parts = [np.where(labels == v)[0].tolist() for v in (0, 1)]
        parts = [p for p in parts if p]
        v = cb.check_decomposition(net, parts)
        if v.bi_independent:
            ok_relation &= inv.delta == v.deficiency_sum
        elif v.independent:
            ok_relation &= inv.delta <= v.deficiency_sum
        elif v.incidence_independent:
            ok_relation &= inv.delta >= v.deficiency_sum
    checks.append(("delta >= 0 on all fixtures + 100 random networks", ok_delta))
    checks.append(("N = Y Ia exactly", ok_assembly))
    checks.append(("weak reversibility: graph test == positive kernel test", ok_wr))
    checks.append(("linkage decompositions incidence independent", ok_linkage))
    checks.append(("delta-hat >= 0 under mass action", ok_dhat))
    checks.append(("deficiency inequality matches independence verdicts",
                   ok_relation))

    # solver-backed properties on the fixtures plus random balanced systems
    cfg = cb.SolveConfig(seeds=16)
    solver_systems = [cb.KineticSystem(net, kin) for net, kin in fixtures]
    wr_rng = np.random.default_rng(99)
    balanced = []
    for _ in range(8):
        net = random_weakly_reversible_network(wr_rng)
        kin = cb.mass_action_from(net, cb.rates_balancing_all_ones(net))
        system = cb.KineticSystem(net, kin)
        solver_systems.append(system)
        balanced.append(system)

    ok_zsube = True
    for system in solver_systems:
        y_norm = float(np.max(np.sum(np.abs(y_array(system.network)), axis=1)))
        z = cb.solve_equilibria(system, "complex_balanced", config=cfg)
        for p in z.points:
            ok_zsube &= p.cfrf_residual <= cfg.tol
            ok_zsube &= p.sfrf_residual <= y_norm * cfg.tol
    checks.append(("Z+ within E+ residual implication", ok_zsube))

    ok_scaling = True
    for net, kin in (counterexample, toy_pl_tik):
        scaled = cb.KineticSystem(net, cb.power_law(kin.orders, kin.rates * 3.0))
        base = cb.KineticSystem(net, kin)
        for mode in ("positive", "complex_balanced"):
            pa = cb.solve_equilibria(base, mode, config=cfg).points
            pb = cb.solve_equilibria(scaled, mode, config=cfg).points
            ok_scaling &= len(pa) == len(pb)
            for a, b in zip(sorted(tuple(np.log(p.x)) for p in pa),
                            sorted(tuple(np.log(p.x)) for p in pb)):
                ok_scaling &= float(np.max(np.abs(np.array(a) - np.array(b)))) \
                    <= cb.equilibria.DEDUP_TOL
    checks.append(("rate-scaling invariance of solver point sets", ok_scaling))

    ok_unique = True
    for system in balanced[:3] + [cb.KineticSystem(*re1_massaction)]:
        z = cb.solve_equilibria(system, "complex_balanced", config=cfg)
        if not z.points:
            continue
        basis = np.array(cb.stoichiometric_basis(system.network), dtype=float)
        for _, counts in cb.sample_coset_counts(system, basis, z.points[0].x,
                                                cb.SolveConfig(seeds=12,
                                                               coset_samples=4)):
            ok_unique &= counts.z_found <= 1
    checks.append(("no duplicate CB points within a sampled flux class",
                   ok_unique))

    _verdict("criterion 8", checks)
