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
changed entry in CHANGES.md. The regeneration merges each fresh report into
the recorded one and keeps every recorded number or line that the tests
accept, so only what moved beyond the tolerance changes: another BLAS build
regenerates the recordings to themselves.
"""

import io
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest

from crnbalance.cli import run_cli
from crnbalance.report import dumps_report

DATA = Path(__file__).parent / "data"
RECORDED = DATA / "cli_reports.json"
SCHEMA = json.loads((DATA / "report_schema.json").read_text())
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


def _merge(new, old):
    """`new` with each leaf of `old` that `_mismatch` accepts kept in its
    place; dicts with the same keys and lists of the same length are merged
    member by member."""
    if isinstance(old, dict) and isinstance(new, dict) and list(new) == list(old):
        return {key: _merge(new[key], old[key]) for key in old}
    if isinstance(old, list) and isinstance(new, list) and len(new) == len(old):
        return [_merge(a, b) for a, b in zip(new, old)]
    return old if _mismatch(new, old) is None else new


def _merge_text(new: str, old: str) -> str:
    """`new` with each line of `old` that `_text_mismatch` accepts kept in
    its place, when both have as many lines."""
    new_lines, old_lines = new.splitlines(keepends=True), old.splitlines(keepends=True)
    if len(new_lines) != len(old_lines):
        return new
    return "".join(b if _text_mismatch(a, b) is None else a for a, b in zip(new_lines, old_lines))


def _merge_entry(new: dict, old: dict, as_json: bool) -> dict:
    """The fresh recording entry `new`, keeping what of the recorded `old`
    the tests accept; a JSON report is written back as `dumps_report` does."""
    if (new["argv"], new["exit"], new["stderr"]) != (old["argv"], old["exit"], old["stderr"]):
        return new
    if not as_json:
        return {**new, "stdout": _merge_text(new["stdout"], old["stdout"])}
    if new["exit"] != 0:
        return new
    merged = _merge(json.loads(new["stdout"]), json.loads(old["stdout"]))
    return {**new, "stdout": dumps_report(merged)}


def _regenerate(path: Path, commands, as_json: bool) -> None:
    recorded = {tuple(r["argv"]): r for r in json.loads(path.read_text())}
    entries = []
    for argv in commands:
        new = _run(argv, as_json)
        old = recorded.get(tuple(argv))
        entries.append(new if old is None else _merge_entry(new, old, as_json))
    path.write_text(json.dumps(entries, indent=1) + "\n")


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


def _recorded_reports() -> list[dict]:
    return [json.loads(r["stdout"]) for r in json.loads(RECORDED.read_text()) if r["exit"] == 0]


def test_recorded_reports_meet_the_report_schema():
    reports = _recorded_reports()
    assert len(reports) == 26  # every recorded --json command but `acb hill_single.crn`
    for report in reports:
        jsonschema.validate(report, SCHEMA)


@pytest.mark.parametrize("command, path, key, value", [
    ("acb", ["verdicts"], "bilp", True),
    ("starmsc", ["verdicts"], "bilp", True),
    ("equilibria", ["coset_counts"], "e_side_exact", "false"),
    ("equilibria", ["coset_counts"], "assumptions", {"concordant": True}),
    ("acb", ["verdicts", "acb"], "status", "ACB"),
    ("acb", ["verdicts", "clp"], "holds", "true"),
    ("acb", ["verdicts", "plp"], "n_found", -1),
    ("acb", ["verdicts", "kse"], "sampled_span_dim", 2.5),
    ("acb", ["verdicts", "poly_pl_balance"], "pl_equilibrated", 1),
])
def test_report_schema_refuses_what_no_report_writes(command, path, key, value):
    def block(report):
        for name in path:
            report = report.get(name) or {}
        return report

    report = next(r for r in _recorded_reports() if r["command"] == command and block(r))
    jsonschema.validate(report, SCHEMA)
    block(report)[key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)


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


def _moved(value):
    """`value` with every number in it, and every string that parses as
    one, moved by a relative 1e-10, inside the tolerance."""
    if isinstance(value, dict):
        return {key: _moved(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_moved(v) for v in value]
    number = _number(value)
    if number is None or isinstance(value, int):
        return value
    moved = number * (1 + 1e-10)
    return repr(moved) if isinstance(value, str) else moved


def test_regeneration_keeps_the_recorded_numbers_inside_the_tolerance():
    json_entries = [r for r in json.loads(RECORDED.read_text()) if r["exit"] == 0]
    for old in json_entries:
        new = {**old, "stdout": json.dumps(_moved(json.loads(old["stdout"])))}
        assert _merge_entry(new, old, as_json=True) == old, old["argv"]
    for old in json.loads(TEXT_RECORDED.read_text()):
        new = {**old, "stdout": _NUMBER.sub(lambda m: repr(_moved(float(m.group()))),
                                            old["stdout"])}
        assert _text_mismatch(new["stdout"], old["stdout"]) is None, old["argv"]
        assert _merge_entry(new, old, as_json=False) == old, old["argv"]
    # a leaf or line beyond the tolerance, or a changed shape, takes the fresh one
    assert _merge({"a": "1.0001", "b": "2"}, {"a": "1", "b": "2.0000000001"}) == {
        "a": "1.0001", "b": "2.0000000001"}
    assert _merge({"a": [1, 2]}, {"a": [1]}) == {"a": [1, 2]}
    assert _merge({"b": 1, "a": 2}, {"a": 2, "b": 1}) == {"b": 1, "a": 2}
    assert _merge_text("x 1.0001\ny 2\n", "x 1\ny 2.0000000001\n") == "x 1.0001\ny 2.0000000001\n"
    assert _merge_text("a\nb\n", "a\n") == "a\nb\n"
    changed = {**json_entries[0], "exit": 1}
    assert _merge_entry(changed, json_entries[0], as_json=True) == changed


if __name__ == "__main__":
    _regenerate(RECORDED, COMMANDS + TMATRIX_JSON, as_json=True)
    _regenerate(TEXT_RECORDED, TEXT_COMMANDS, as_json=False)
