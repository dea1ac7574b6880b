"""CLI subcommands, exit codes, JSON report schema and stability."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema

import crnbalance
from crnbalance.cli import build_parser, run_cli
from crnbalance.report import JSON_SCHEMA

from conftest import data_path


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
    assert report["verdicts"]["acb"]["status"] == "ACB_certified"
    assert report["verdicts"]["bilp"] is True


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


def test_assume_concordant_marks_e_side_exact():
    report, _ = run_json(["equilibria", data_path("re1_massaction.crn"),
                          "--seeds", "16", "--flux-space", "S",
                          "--assume-concordant"])
    assert report["coset_counts"]["e_side_exact"] is True


def test_decompose_with_search():
    report, _ = run_json(["decompose", data_path("re1_powerlaw.crn"),
                          "--max-parts", "2"])
    deco = report["linkage_decomposition"]
    assert deco["bi_independent"] is True
    assert deco["deficiency"] == deco["deficiency_sum"] == 2
    assert [[0, 1, 2, 3], [4, 5, 6, 7]] in report["search"]["found"]


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
    assert taken["acb"] == taken["equilibria"] == common | {"--flux-space",
                                                            "--assume-concordant"}
    assert sum(map(len, taken.values())) == 37


def test_analyze_reads_the_conservation_witness_from_the_invariants(monkeypatch):
    # the conservativity simplex runs once, inside structural_invariants
    calls = []
    real = crnbalance.rational.positive_kernel_vector

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crnbalance.rational, "positive_kernel_vector", counted)
    report, _ = run_json(["analyze", data_path("counterexample.crn")])
    assert report["structural"]["conservative"] is True
    assert "conservation_witness" in report["structural"]
    assert len(calls) == 1


def test_starmsc_computes_each_networks_invariants_once(monkeypatch):
    calls = []
    real = crnbalance.network.structural_invariants

    def counted(net):
        calls.append(net)
        return real(net)

    for module in (crnbalance.network, crnbalance.equilibria, crnbalance.decomposition):
        monkeypatch.setattr(module, "structural_invariants", counted)
    report, _ = run_json(["starmsc", data_path("mm_polypl.crn")])
    assert report["transform"]["computed_deficiency"] == 4
    # the source, the replica and the three parts of the replica decomposition
    assert len(calls) == 5
    assert len({id(net) for net in calls}) == 5
