#!/usr/bin/env python3
"""Replica transform of the reversible enzyme poly-PL system, plus the
denominator-clearing association from its rational form.

Run: python3 scripts/replica_transform_demo.py
"""

import numpy as np

import crnbalance as cb


def main():
    net = cb.build_network(
        ["S1", "S2", "S3", "S4"],
        [[1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]],
        [(0, 1, "r1"), (1, 0, "r2"), (1, 2, "r3"), (2, 1, "r4")],
    )
    kin = cb.poly_pl(
        [
            [(1, (1, 1, 0, 0)), (1, (1, 2, 0, 0)), (1, (1, 1, 0, 1))],
            [(1, (0, 0, 1, 0)), (1, (0, 1, 1, 0)), (1, (0, 0, 1, 1))],
            [(1, (0, 1, 0, 0))],
            [(1, (0, 0, 0, 1))],
        ],
        [1, 1, 1, 1],
    )
    inv = cb.structural_invariants(net)
    norm = cb.normalize_poly_pl(kin)
    print(f"source: n = {inv.n}, l = {inv.l}, deficiency = {inv.delta}, "
          f"poly-PL length h = {norm.length}")
    print(f"(single-term rows split into thirds: {norm.term_coeffs[2]})")

    star = cb.star_msc(net, kin)
    print(f"\nshift M = {star.shift}; transform has "
          f"{star.network.num_complexes} complexes, "
          f"{star.network.num_reactions} reactions")
    print(f"deficiency: predicted {star.predicted_delta}, recomputed exactly "
          f"{star.computed_delta}")

    deviation = 0.0
    for x in cb.sample_positive_states(4, 20, rng_seed=42):
        f0 = cb.species_formation_rate(net, kin, x)
        f1 = cb.species_formation_rate(star.network, star.kinetics, x)
        deviation = max(deviation, float(np.max(np.abs(f0 - f1))))
    print(f"max SFRF deviation over 20 random states: {deviation:.2e} "
          "(dynamically equivalent)")

    star_system = cb.KineticSystem(star.network, star.kinetics)
    verdict = star_system.linkage_verdict
    print(f"replica decomposition: incidence independent = "
          f"{verdict.incidence_independent}, bi-independent = "
          f"{verdict.bi_independent} (deficiency {verdict.deficiency} vs "
          f"part sum {verdict.deficiency_sum})")

    cfg = cb.SolveConfig()
    evidence = cb.star_msc_acb_evidence(star_system, cb.KineticSystem(net, kin), cfg)
    analysis = cb.analyze_acb(star_system, cfg)
    analysis.decomposition = evidence
    acb = cb.acb_verdict(analysis, cfg)
    print(f"\ntransform verdict: {acb.status}")
    for c in acb.justification:
        print(f"  [{c.rule}] {c.statement}")

    # the same network under its saturating rational kinetics
    factor = cb.RationalFactor(
        np.array([1.0, 1.0, 1.0]),
        np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float))
    kq = cb.RationalKinetics(
        np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=float),
        np.ones(4), ((), (), (factor,), (factor,)))
    kpy = cb.hill_to_poly_pl(net, kq)
    cert = cb.pff_check(kpy, kq, cb.sample_positive_states(4, 12, rng_seed=5))
    print(f"\ndenominator clearing: poly-PL with term counts "
          f"{[a.shape[0] for a in kpy.term_coeffs]}; "
          f"ratio to the rational form is one positive function "
          f"(spread {cert.sampled_max_spread:.1e})")
    z_q = cb.solve_equilibria(cb.KineticSystem(net, kq),
                              "complex_balanced", config=cfg)
    ok = all(cb.KineticSystem(net, kpy).cfrf_residual(p.x) <= 1e-7
             for p in z_q.points)
    print(f"complex balanced states of the rational form satisfy the "
          f"poly-PL system too: {ok}")


if __name__ == "__main__":
    main()
