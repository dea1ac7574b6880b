"""CLI subcommands, exit codes, JSON report schema and stability."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import crnbalance
from crnbalance.cli import build_parser, run_cli
from crnbalance.fileformat import parse_crn

from conftest import data_path

# JSON Schema (draft 2020-12) that every --json report must satisfy
JSON_SCHEMA = json.loads(data_path("report_schema.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([str(a) for a in argv], out, err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(list(argv) + ["--json"])
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, JSON_SCHEMA)
    return report, out


def test_analyze_json_re1():
    report, _ = run_json(["analyze", data_path("re1_powerlaw.crn")])
    assert report["schema"] == "crn-balance/1"
    assert report["structural"]["deficiency"] == 2
    assert report["structural"]["weakly_reversible"] is True
    assert report["structural"]["rank_exact"] is True
    assert report["kinetics"]["pl_rdk"] is True
    assert report["t_matrices"]["ranks_exact"] is True


def test_analyze_text_mentions_deficiency():
    code, out, err = run(["analyze", data_path("re1_powerlaw.crn")])
    assert code == 0
    assert "deficiency = 2" in out


def test_tmatrix_json_counterexample():
    report, _ = run_json(["tmatrix", data_path("counterexample.crn")])
    tm = report["t_matrices"]
    assert tm["t_hat_rank"] == 4
    assert tm["kinetic_reactant_deficiency"] == 0
    assert tm["pl_tik"] is True
    that = [[float(v) for v in row] for row in tm["t_hat"]]
    assert that == [[0, -1, 0, 0], [-1, -1, -2, 0], [1, 1, 0, -2], [1, 1, 1, 1]]


def test_acb_json_counterexample():
    report, _ = run_json(["acb", data_path("counterexample.crn")])
    acb = report["verdicts"]["acb"]
    assert acb["status"] == "NotACB_certified"
    rules = [c["rule"] for c in acb["justification"]]
    assert "kse-partial-converse" in rules
    assert any("partial converse" in c["citation"].lower()
               for c in acb["justification"])
    assert report["verdicts"]["clp"]["holds"] is True
    assert report["verdicts"]["plp"]["holds"] is False


def test_acb_json_mass_action():
    report, _ = run_json(["acb", data_path("re1_massaction.crn")])
    verdicts = report["verdicts"]
    assert verdicts["acb"]["status"] == "ACB_certified"
    assert verdicts["clp"]["holds"] is True and verdicts["plp"]["holds"] is True
    assert "bi-lp" in [c["rule"] for c in verdicts["acb"]["justification"]]
    assert "bilp" not in verdicts


def test_module_entry_point_prints_the_report():
    env = dict(os.environ, PYTHONPATH=str(Path(crnbalance.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "crnbalance.cli", "acb",
         str(data_path("counterexample.crn")), "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == "crn-balance/1"


def test_missing_file_exit_2():
    code, out, err = run(["analyze", "does_not_exist.crn"])
    assert code == 2
    assert "parse error" in err


def test_bad_rate_exit_2(tmp_path):
    bad = tmp_path / "bad.crn"
    bad.write_text("species A B\nr1: A -> B rate -1\nkinetics massaction\n")
    code, _, err = run(["analyze", bad])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("role", ["file", "pff second file", "flux-space file"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, role):
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"\xd0\x00")
    fixture = data_path("re1_massaction.crn")
    argv = {"file": ["analyze", undecodable],
            "pff second file": ["pff", fixture, undecodable],
            "flux-space file": ["acb", fixture, "--seeds", "4", "--flux-space", undecodable]}
    code, out, err = run(argv[role])
    assert (code, out) == (2, "")
    assert err == f"parse error: {str(undecodable)!r} is not UTF-8 text (byte 0)\n"


def test_option_defaults_are_the_solver_defaults():
    args = build_parser().parse_args(["acb", "network.crn"])
    cfg = crnbalance.SolveConfig()
    assert (args.tol, args.seeds, args.rng) == (cfg.tol, cfg.seeds, cfg.rng_seed)


def test_analysis_error_exit_1():
    code, _, err = run(["tmatrix", data_path("mm_polypl.crn")])
    assert code == 1
    assert "analysis error" in err


def test_json_reruns_are_byte_identical():
    _, first = run_json(["acb", data_path("counterexample.crn"),
                         "--seeds", "24", "--rng", "7"])
    _, second = run_json(["acb", data_path("counterexample.crn"),
                          "--seeds", "24", "--rng", "7"])
    assert first == second


def test_starmsc_json():
    report, _ = run_json(["starmsc", data_path("mm_polypl.crn"), "--seeds", "24"])
    t = report["transform"]
    assert (t["shift"], t["length"]) == (2, 3)
    assert t["complexes"] == 9 and t["reactions"] == 12
    assert t["predicted_deficiency"] == t["computed_deficiency"] == 4
    assert t["replica_decomposition"]["incidence_independent"] is True
    assert t["replica_decomposition"]["bi_independent"] is False
    assert report["verdicts"]["acb"]["status"] == "ACB_certified"


def _count_calls(monkeypatch, module, name):
    """Record the calls to `module.name` made through any crnbalance reference."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "crnbalance" or key.startswith("crnbalance.")):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_starmsc_checks_the_replica_decomposition_once(monkeypatch):
    calls = _count_calls(monkeypatch, crnbalance.decomposition, "check_decomposition")
    code, _, err = run(["starmsc", data_path("mm_polypl.crn")])
    assert code == 0, err
    assert len(calls) == 1


def test_acb_with_stilde_builds_the_t_matrices_once(monkeypatch):
    calls = _count_calls(monkeypatch, crnbalance.kinetic_matrices, "build_t_matrices")
    code, _, err = run(["acb", data_path("counterexample.crn"), "--flux-space", "Stilde"])
    assert code == 0, err
    assert len(calls) == 1


def test_equilibria_json_with_flux_space():
    report, _ = run_json(["equilibria", data_path("re1_massaction.crn"),
                          "--seeds", "16", "--flux-space", "S"])
    assert report["equilibria"]["complex_balanced"]
    counts = report["coset_counts"]
    assert counts["e_side_exact"] is False
    assert counts["counts_are_lower_bounds"] is True
    for cls in counts["classes"]:
        assert cls["z_found"] >= 1


def test_assume_concordant_is_refused_and_no_coset_count_is_exact(capsys):
    # no coset count is computed exactly, so neither side may be marked exact
    for command in ("acb", "equilibria"):
        code, out, _ = run([command, data_path("re1_massaction.crn"), "--seeds", "16",
                            "--flux-space", "S", "--assume-concordant"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --assume-concordant" in capsys.readouterr().err
    report, _ = run_json(["equilibria", data_path("re1_massaction.crn"),
                          "--seeds", "16", "--flux-space", "S"])
    assert report["coset_counts"]["e_side_exact"] is False
    assert report["coset_counts"]["z_side_exact"] is False


def test_decompose_with_search():
    report, _ = run_json(["decompose", data_path("re1_powerlaw.crn"),
                          "--max-parts", "2"])
    deco = report["linkage_decomposition"]
    assert deco["bi_independent"] is True
    assert deco["deficiency"] == deco["deficiency_sum"] == 2
    assert [[0, 1, 2, 3], [4, 5, 6, 7]] in report["search"]["found"]


@pytest.mark.parametrize("max_parts", ["0", "-3"])
def test_decompose_refuses_fewer_than_one_part(max_parts):
    for extra in ([], ["--json"]):
        code, out, err = run(["decompose", data_path("re1_powerlaw.crn"),
                              "--max-parts", max_parts, *extra])
        assert (code, out) == (1, "")
        assert err.startswith("analysis error:") and "at least 1" in err


def test_pff_subcommand(tmp_path):
    doubled = tmp_path / "doubled.crn"
    text = data_path("re1_powerlaw.crn").read_text()
    doubled.write_text(text.replace("rate 1", "rate 2"))
    report, _ = run_json(["pff", data_path("re1_powerlaw.crn"), doubled])
    assert report["pff"]["equivalent"] is True
    assert report["pff"]["factor_kind"] == "constant"
    assert float(report["pff"]["rate_ratio"]) == 0.5


def test_kinetics_subcommand():
    report, _ = run_json(["kinetics", data_path("counterexample.crn")])
    assert report["kinetics"]["por"] is True
    assert report["kinetics"]["pl_rdk"] is True


def test_equilibria_text_output():
    code, out, _ = run(["equilibria", data_path("counterexample.crn"),
                        "--seeds", "16"])
    assert code == 0
    assert "complex balanced equilibria found: 1" in out


def test_flux_space_stilde_and_file(tmp_path):
    report, _ = run_json(["equilibria", data_path("counterexample.crn"),
                          "--seeds", "16", "--flux-space", "Stilde"])
    assert "coset_counts" in report
    basis_file = tmp_path / "basis.txt"
    basis_file.write_text("-2 1 1\n")
    report2, _ = run_json(["equilibria", data_path("counterexample.crn"),
                           "--seeds", "16", "--flux-space", basis_file])
    assert "coset_counts" in report2


def test_flux_space_rows_need_one_entry_per_species(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("1 -1\n")
    for command in ("acb", "equilibria"):
        code, out, err = run([command, data_path("re1_massaction.crn"), "--seeds", "4",
                              "--flux-space", short])
        assert code == 1, command
        assert out == ""
        assert err.startswith("analysis error: ")
        assert "2 entries, expected one per species (3)" in err
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("1 -1 0\n1 x 0\n")
    code, _, err = run(["acb", data_path("re1_massaction.crn"), "--seeds", "4",
                        "--flux-space", garbled])
    assert code == 1
    assert "line 2: not a row of numbers" in err


@pytest.mark.parametrize("token", ["1e400", "1e-400", "1_0", "1/0"])
def test_flux_space_rows_read_numbers_as_the_network_file_does(tmp_path, token):
    """A row entry that the number grammar refuses is refused here too: an
    overflow or underflow, `1_0` and a zero denominator."""
    rows = tmp_path / "rows.txt"
    rows.write_text(f"1 -1 0\n{token} 0 1\n")
    code, out, err = run(["acb", data_path("re1_massaction.crn"), "--seeds", "4",
                          "--flux-space", rows])
    assert (code, out) == (1, "")
    assert err == (f"analysis error: flux-space file {str(rows)!r} line 2: "
                   f"not a row of numbers: {token + ' 0 1'!r}\n")


def test_json_round_trips_losslessly():
    report, raw = run_json(["analyze", data_path("re1_powerlaw.crn")])
    from crnbalance.report import dumps_report
    assert dumps_report(report) == raw


ZERO_ORDER_SUBSPACE = """\
# A <-> B, both reactions of order 1 in A: the kinetic order subspace is {0}
species A B
r1: A -> B rate 1
r2: B -> A rate 1
kinetics powerlaw
order r1: A=1
order r2: A=1
"""


def test_zero_kinetic_order_subspace(tmp_path):
    path = tmp_path / "zero.crn"
    path.write_text(ZERO_ORDER_SUBSPACE)
    report, _ = run_json(["tmatrix", path])
    assert report["order_subspace"]["dim"] == 0
    for extra in ([], ["--flux-space", "Stilde"]):
        report, _ = run_json(["acb", path, "--seeds", "16", *extra])
        acb = report["verdicts"]["acb"]
        assert acb["status"] == "ACB_certified"
        rules = [item["rule"] for item in acb["justification"]]
        assert "deficiency-zero" in rules and "bi-lp" in rules
    report, _ = run_json(["equilibria", path, "--seeds", "16", "--flux-space", "Stilde"])
    assert all((c["e_found"], c["z_found"]) == (1, 1)
               for c in report["coset_counts"]["classes"])


def test_subcommands_take_only_the_options_they_read():
    code, out, _ = run(["analyze", data_path("re1_powerlaw.crn"), "--max-parts", "2"])
    assert (code, out) == (2, "")
    options = {"--json": [], "--tol": ["1e-9"], "--seeds": ["4"], "--rng": ["1"],
               "--max-parts": ["2"], "--flux-space": ["S"], "--assume-concordant": []}
    parser = build_parser()
    taken = {}
    for name in ("analyze", "kinetics", "tmatrix", "decompose", "starmsc",
                 "equilibria", "acb", "pff"):
        files = ["a.crn", "b.crn"] if name == "pff" else ["a.crn"]
        taken[name] = {option for option, value in options.items()
                       if not parser.parse_known_args([name, *files, option, *value])[1]}
    common = {"--json", "--tol", "--seeds", "--rng"}
    assert taken["decompose"] == common | {"--max-parts"}
    assert taken["acb"] == taken["equilibria"] == common | {"--flux-space"}
    assert sum(map(len, taken.values())) == 35


def test_readme_synopsis_lists_each_subcommands_own_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    listed = {}
    for line in block.splitlines():
        name, *rest = line.split("#")[0].split()[1:]
        listed[name] = set(re.findall(r"--[\w-]+", " ".join(rest)))
    action, = (a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {opt for a in sub._actions for opt in a.option_strings}
               for name, sub in action.choices.items()}
    common = set.intersection(*options.values())
    assert listed == {name: opts - common for name, opts in options.items()}


def _count_simplexes(monkeypatch):
    calls = []
    real = crnbalance.rational.positive_kernel_vector

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crnbalance.rational, "positive_kernel_vector", counted)
    return calls


def test_analyze_reads_the_conservation_witness_from_the_invariants(monkeypatch):
    # the conservativity simplex runs once, in KineticSystem.conservation,
    # which gives both the flag and the witness
    calls = _count_simplexes(monkeypatch)
    report, _ = run_json(["analyze", data_path("counterexample.crn")])
    assert report["structural"]["conservative"] is True
    assert "conservation_witness" in report["structural"]
    assert len(calls) == 1


@pytest.mark.parametrize("argv, simplexes", [
    # hill_single.crn has no acb verdict
    *[(["acb", name], 1) for name in ("counterexample.crn", "mm_polypl.crn",
                                      "re1_massaction.crn", "re1_powerlaw.crn")],
    # equilibria prints no conservative flag and never runs the simplex
    (["equilibria", "re1_massaction.crn", "--seeds", "8", "--flux-space", "S"], 0),
    (["equilibria", "counterexample.crn", "--seeds", "8", "--flux-space", "Stilde"], 0),
])
def test_reports_run_the_conservativity_simplex_only_for_the_flag(monkeypatch, argv,
                                                                    simplexes):
    # the simplex runs only for the acb report's structural "conservative"
    # flag; neither structural_invariants nor the decomposition part
    # summaries run it
    calls = _count_simplexes(monkeypatch)
    command, name, *options = argv
    report, _ = run_json([command, data_path(name), *options])
    assert len(calls) == simplexes
    if command == "acb":
        net, _ = parse_crn(data_path(name).read_text())
        assert report["structural"]["conservative"] is crnbalance.is_conservative(net)[0]


@pytest.mark.parametrize("option, value, field", [
    ("--seeds", "0", "seeds"), ("--seeds", "-3", "seeds"), ("--rng", "-1", "rng_seed"),
    ("--tol", "nan", "tol"), ("--tol", "-1", "tol"), ("--tol", "inf", "tol")])
def test_solver_settings_out_of_range_are_analysis_errors(option, value, field):
    # before: --seeds 0 ran one seed and printed 0, --rng -1 and --tol nan
    # ended in a traceback, --tol -1 accepted nothing
    code, out, err = run(["equilibria", data_path("re1_massaction.crn"), "--json", option, value])
    assert code == 1
    assert out == ""
    assert err.startswith(f"analysis error: solver setting {field} must be ")
    assert err.count("\n") == 1


def test_starmsc_computes_each_networks_invariants_once(monkeypatch):
    calls, ranked = [], []
    real, real_rank = crnbalance.network.structural_invariants, crnbalance.rational.rank_int

    def counted(net):
        calls.append(net)
        return real(net)

    def counted_rank(rows):
        ranked.append(rows)
        return real_rank(rows)

    for module in (crnbalance.network, crnbalance.equilibria, crnbalance.decomposition):
        monkeypatch.setattr(module, "structural_invariants", counted)
    monkeypatch.setattr(crnbalance.rational, "rank_int", counted_rank)
    report, _ = run_json(["starmsc", data_path("mm_polypl.crn")])
    assert report["transform"]["computed_deficiency"] == 4
    # the source, the replica and the three parts of the replica decomposition;
    # the replica's decomposition check reads the invariants kept on it
    assert len({id(net) for net in calls}) == 5
    assert len(calls) == 6
    assert len(ranked) == 5


def test_starmsc_deviation_matches_the_per_state_loop(monkeypatch):
    """The SFRF deviation of both networks' stacked rates has the bits of
    the loop over one state at a time."""
    monkeypatch.setattr(crnbalance.report, "residual_str", repr)  # every digit
    report, _ = run_json(["starmsc", data_path("mm_polypl.crn")])
    net, kin = parse_crn(Path(data_path("mm_polypl.crn")).read_text())
    star = crnbalance.star_msc(net, kin)
    deviation = 0.0
    for x in crnbalance.sample_positive_states(net.num_species, 20, 42):
        f0 = crnbalance.species_formation_rate(net, kin, x)
        f1 = crnbalance.species_formation_rate(star.network, star.kinetics, x)
        deviation = max(deviation, float(np.max(np.abs(f0 - f1))
                                         / max(1.0, np.max(np.abs(f0)))))
    assert deviation > 0.0
    assert report["transform"]["sfrf_max_relative_deviation"] == repr(deviation)


def test_pff_evaluates_each_kinetics_once(monkeypatch):
    """The sampled `pff` route evaluates each kinetics once on the stack of
    its 20 sample states."""
    calls = []
    evaluate = crnbalance.transform.evaluate

    def counting(kin, x):
        calls.append(np.shape(x))
        return evaluate(kin, x)

    monkeypatch.setattr(crnbalance.transform, "evaluate", counting)
    path = data_path("hill_single.crn")
    report, _ = run_json(["pff", path, path])
    assert report["pff"]["factor_kind"] == "sampled"
    assert calls == [(20, 1)] * 2


def test_cli_input_checks_are_analysis_errors(tmp_path):
    comments = tmp_path / "comments.txt"
    comments.write_text("# only comments\n\n   # and blank lines\n")
    # one reaction each, with equal orders and rates, on two networks
    one, two = tmp_path / "one.crn", tmp_path / "two.crn"
    for path, reactant in ((one, "A"), (two, "2 A")):
        path.write_text(f"species A B\nr1: {reactant} -> B rate 1\n"
                        "kinetics powerlaw\norder r1: A=1\n")
    cases = [
        (["acb", data_path("mm_polypl.crn"), "--seeds", "4", "--flux-space", "Stilde"],
         "Stilde flux space needs reactant-determined power-law kinetics"),
        (["acb", data_path("re1_massaction.crn"), "--seeds", "4", "--flux-space", comments],
         f"flux-space file {str(comments)!r} contains no rows"),
        (["starmsc", data_path("re1_powerlaw.crn")],
         "the replica transform needs poly-PL kinetics"),
        (["pff", data_path("re1_powerlaw.crn"), data_path("hill_single.crn")],
         "the two files define different reaction counts"),
        (["pff", one, two], "the two files define different networks"),
    ]
    for argv, message in cases:
        code, out, err = run(argv)
        assert (code, out, err) == (1, "", f"analysis error: {message}\n"), argv
