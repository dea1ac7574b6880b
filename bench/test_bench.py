"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import crnbalance as cb
import suite
import tracing
import workloads as gen

GENERATORS = [
    lambda seed: gen.ladder_power_law(seed, 12),
    lambda seed: gen.ladder_poly_pl(seed, 12),
    lambda seed: gen.ladder_hill(seed, 8),
]


def _shape(net, kin):
    return (net.complexes, [(rx.reactant, rx.product) for rx in net.reactions],
            cb.evaluate(kin, np.full(net.num_species, 1.5)).tolist())


@pytest.mark.parametrize("make", GENERATORS)
def test_generators_are_pure_functions_of_the_seed(make):
    assert _shape(*make(3)) == _shape(*make(3))
    assert _shape(*make(3)) != _shape(*make(4))


@pytest.mark.parametrize("make", GENERATORS)
def test_ones_is_complex_balanced_and_reference_evaluator_agrees(make):
    net, kin = make(0)
    ones = np.ones(net.num_species)
    assert suite.residual(net, kin, "complex_balanced", ones) <= 1e-12
    x = np.exp(np.random.default_rng(0).uniform(-1, 1, net.num_species))
    np.testing.assert_allclose(suite.rates(kin, x), cb.evaluate(kin, x), rtol=1e-12)


def test_weakly_reversible_networks_have_the_requested_size():
    net = gen.weakly_reversible_network(0, 2, 12)
    inv = cb.structural_invariants(net)
    assert inv.r == 12 and inv.weakly_reversible


def test_install_patches_every_reference_and_uninstall_restores():
    original = cb.network.structural_invariants
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (cb, cb.network, cb.equilibria, cb.decomposition, cb.transform):
            assert mod.structural_invariants is not original
        assert cb.equilibria.log_jacobian is cb.kinetics.log_jacobian
    finally:
        tracer.uninstall()
    for mod in (cb, cb.network, cb.equilibria, cb.decomposition, cb.transform):
        assert mod.structural_invariants is original


def _traced_counts(item):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        item.run()
    finally:
        tracer.uninstall()
    tracer.end_item()
    return tracer


def test_two_traced_runs_give_identical_counters():
    item = suite.build("ladder-acb")[0]
    first, second = _traced_counts(item), _traced_counts(item)
    assert first.counts == second.counts
    counts = first.counts
    assert counts["kinetics.log_jacobian.calls"] > 0
    assert counts["equilibria.lstsq.calls"] > 0
    # kse_check, linkage evidence and the decomposition checks each call it
    # through their own imported reference.
    assert counts["network.structural_invariants.calls"] > 2
    assert first.inclusive["equilibria.analyze_acb"] >= first.inclusive["equilibria.solve_equilibria"]


def test_self_time_excludes_children():
    tracer = _traced_counts(suite.build("ladder-acb")[0])
    spans = tracer.spans
    assert all(s[2] >= s[1] for s in spans)
    assert tracer.self_s["equilibria.analyze_acb"] < tracer.inclusive["equilibria.analyze_acb"]


def test_cli_shim_writes_a_trace():
    os.makedirs(os.path.join(suite.BENCH_DIR, "out"), exist_ok=True)
    out = os.path.join(suite.BENCH_DIR, "out", f"test-shim-{os.getpid()}.json")
    env = suite.child_env(CRNBALANCE_BENCH_TRACE=out)
    argv = [sys.executable, os.path.join(suite.BENCH_DIR, "cli_shim.py"), "analyze",
            os.path.join(suite.DATA, "re1_powerlaw.crn")]
    proc = subprocess.run(argv, cwd=suite.ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    with open(out, encoding="utf-8") as fh:
        counts = json.load(fh)["summary"]["counts"]
    os.remove(out)
    assert counts["cli.run_cli.calls"] == 1
    assert counts["fileformat.parse_crn.calls"] == 1


def test_every_item_has_a_recorded_outcome():
    with open(os.path.join(suite.BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(suite.BUILDERS)
    for workload in suite.BUILDERS:
        names = [item.name for item in suite.build(workload)]
        assert sorted(names) == sorted(expected[workload])
