"""Recorded CLI output: 27 ``--json`` commands on the fixtures, re-run
in-process and compared with ``tests/data/cli_reports.json``, and the text
output of those commands (``tmatrix`` once per fixture) plus ``kinetics``,
``tmatrix`` and two ``pff`` comparisons, and ``tmatrix`` and ``analyze`` on
the decimal-order fixture, compared with ``tests/data/cli_text.json``. The
decimal fixture's ``--json`` is not recorded: its order subspace basis comes
from an SVD, whose signs depend on the LAPACK build.

Non-numeric fields must match exactly, key order included. Numbers, and
strings that parse as numbers (coordinates, residuals), must agree within
rtol 1e-8 or atol 1e-12, so that another BLAS build does not fail the test.
Text lines must match exactly outside their number literals, which get the
same tolerance. A command that fails must write the recorded stderr line
and exit code.

Regenerate both recordings (after a change that is meant to move a report)
with ``PYTHONPATH=src python tests/test_cli_reports.py``, and name every
changed entry in CHANGES.md.
"""

import io
import json
import math
import re
from pathlib import Path

from crnbalance.cli import run_cli

DATA = Path(__file__).parent / "data"
RECORDED = DATA / "cli_reports.json"
TEXT_RECORDED = DATA / "cli_text.json"
FIXTURES = ("counterexample", "hill_single", "mm_polypl", "re1_massaction", "re1_powerlaw")
RTOL, ATOL = 1e-8, 1e-12

COMMANDS = [[cmd, f"{name}.crn"] for name in FIXTURES
            for cmd in ("acb", "equilibria", "analyze", "decompose")] + [
    ["equilibria", "re1_massaction.crn", "--flux-space", "S"],
    ["equilibria", "counterexample.crn", "--flux-space", "Stilde"],
    ["starmsc", "mm_polypl.crn"],
    ["decompose", "re1_powerlaw.crn", "--max-parts", "8"],
]
TMATRIX_JSON = [["tmatrix", f"{name}.crn"]
                for name in ("counterexample", "re1_powerlaw", "re1_massaction")]
TEXT_COMMANDS = COMMANDS + [[cmd, f"{name}.crn"] for name in FIXTURES
                            for cmd in ("kinetics", "tmatrix")] + [
    ["pff", "hill_single.crn", "hill_single.crn"],
    ["pff", "re1_powerlaw.crn", "re1_massaction.crn"],
    ["tmatrix", "decimal_powerlaw.crn"],
    ["analyze", "decimal_powerlaw.crn"],
]
# a number literal: integer, decimal or exponent form
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _run(argv, as_json=True) -> dict:
    out, err = io.StringIO(), io.StringIO()
    files = [str(DATA / arg) if arg.endswith(".crn") else arg for arg in argv]
    code = run_cli(files + ["--json"] * as_json, out, err)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _mismatch(new, old, path="$"):
    """The JSON path of the first difference beyond tolerance, or None."""
    if isinstance(old, dict):
        if not isinstance(new, dict) or list(new) != list(old):
            return f"{path}: keys {list(new) if isinstance(new, dict) else new!r}"
        for key in old:
            found = _mismatch(new[key], old[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            return f"{path}: length"
        for i, (a, b) in enumerate(zip(new, old)):
            found = _mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if new == old and type(new) is type(old):
        return None
    a, b = _number(new), _number(old)
    if (a is not None and b is not None and type(new) is type(old)
            and math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= max(ATOL, RTOL * max(abs(a), abs(b)))):
        return None
    return f"{path}: {new!r} != {old!r}"


def _text_mismatch(new: str, old: str):
    """The first line that differs beyond the number tolerance, or None."""
    new_lines, old_lines = new.splitlines(), old.splitlines()
    if len(new_lines) != len(old_lines):
        return f"{len(new_lines)} lines != {len(old_lines)}"
    for number, (a, b) in enumerate(zip(new_lines, old_lines), 1):
        if _NUMBER.split(a) != _NUMBER.split(b) or any(
                _mismatch(x, y) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))):
            return f"line {number}: {a!r} != {b!r}"
    return None


def test_recorded_cli_reports():
    recorded = json.loads(RECORDED.read_text())
    assert [r["argv"] for r in recorded] == COMMANDS + TMATRIX_JSON
    for old in recorded:
        new = _run(old["argv"])
        name = " ".join(old["argv"])
        assert (new["exit"], new["stderr"]) == (old["exit"], old["stderr"]), name
        if old["exit"] != 0:
            assert new["stdout"] == old["stdout"], name
            continue
        found = _mismatch(json.loads(new["stdout"]), json.loads(old["stdout"]))
        assert found is None, f"{name}: {found}"


def test_recorded_cli_text():
    recorded = json.loads(TEXT_RECORDED.read_text())
    assert [r["argv"] for r in recorded] == TEXT_COMMANDS
    for old in recorded:
        new = _run(old["argv"], as_json=False)
        name = " ".join(old["argv"])
        assert (new["exit"], new["stderr"]) == (old["exit"], old["stderr"]), name
        found = _text_mismatch(new["stdout"], old["stdout"])
        assert found is None, f"{name}: {found}"


def test_recorded_acb_reports_cite_bi_lp_exactly_when_clp_and_plp_hold():
    """The `bi-lp` rule fires on `clp.holds and plp.holds`; no recorded
    report, JSON or text, may say more than that rule did."""
    recorded = [r["stdout"] for r in json.loads(RECORDED.read_text()) if r["exit"] == 0]
    assert not any(f'"{key}":' in out for out in recorded for key in ("bilp", "assumptions"))
    reports = [json.loads(out) for out in recorded]
    acb = [report["verdicts"] for report in reports if report["command"] == "acb"]
    assert len(acb) == 4
    for verdicts in acb:
        both = all(verdicts[lp] is not None and verdicts[lp]["holds"] for lp in ("clp", "plp"))
        rules = [c["rule"] for c in verdicts["acb"]["justification"]]
        assert ("bi-lp" in rules) == both, rules
    texts = [r["stdout"] for r in json.loads(TEXT_RECORDED.read_text())
             if r["argv"][0] == "acb" and r["exit"] == 0]
    assert len(texts) == 4
    for text in texts:
        # the bi-lp citation itself says "bi-LP", so only the summary line is read
        summary, = re.findall(r"^CLP: .*$", text, re.M)
        fields = dict(part.split(": ") for part in summary.split(", "))
        assert list(fields) == ["CLP", "PLP"], summary
        rules = re.findall(r"^  \[([\w-]+)\]", text, re.M)
        assert ("bi-lp" in rules) == (fields == {"CLP": "True", "PLP": "True"}), text


def test_tolerance_applies_to_numbers_only():
    assert _mismatch({"x": ["1.000000000001"]}, {"x": ["1"]}) is None
    assert _mismatch({"x": "1.1e-20"}, {"x": "1.0e-20"}) is None  # below atol
    assert _mismatch({"x": ["1.0001"]}, {"x": ["1"]}) is not None
    assert _mismatch({"a": 1, "b": 2}, {"b": 2, "a": 1}) is not None  # key order
    assert _mismatch({"k": "positive"}, {"k": "complex_balanced"}) is not None
    assert _mismatch({"k": True}, {"k": 1}) is not None
    assert _mismatch({"k": "3/2"}, {"k": "1.5"}) is not None
    assert _text_mismatch("x = (1.000000000001, -2)\n", "x = (1, -2)\n") is None
    assert _text_mismatch("cfrf 1.1e-20\n", "cfrf 1.0e-20\n") is None
    assert _text_mismatch("x = (1.0001, -2)\n", "x = (1, -2)\n") is not None
    assert _text_mismatch("x = (1, 2)\n", "x = (1, -2)\n") is not None
    assert _text_mismatch("CLP: True\n", "CLP: False\n") is not None
    assert _text_mismatch("a\n", "a\nb\n") is not None


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(
        [_run(argv) for argv in COMMANDS + TMATRIX_JSON], indent=1) + "\n")
    TEXT_RECORDED.write_text(json.dumps(
        [_run(argv, as_json=False) for argv in TEXT_COMMANDS], indent=1) + "\n")
