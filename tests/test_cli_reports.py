"""Recorded CLI reports: 24 ``--json`` commands on the fixtures, re-run
in-process and compared with ``tests/data/cli_reports.json``.

Non-numeric fields must match exactly, key order included. Numbers, and
strings that parse as numbers (coordinates, residuals), must agree within
rtol 1e-8 or atol 1e-12, so that another BLAS build does not fail the test.
A command that fails must write the recorded stderr line and exit code.

Regenerate the recording (after a change that is meant to move a report)
with ``PYTHONPATH=src python tests/test_cli_reports.py``, and name every
changed entry in CHANGES.md.
"""

import io
import json
import math
from pathlib import Path

from crnbalance.cli import run_cli

DATA = Path(__file__).parent / "data"
RECORDED = DATA / "cli_reports.json"
FIXTURES = ("counterexample", "hill_single", "mm_polypl", "re1_massaction", "re1_powerlaw")
RTOL, ATOL = 1e-8, 1e-12

COMMANDS = [[cmd, f"{name}.crn"] for name in FIXTURES
            for cmd in ("acb", "equilibria", "analyze", "decompose")] + [
    ["equilibria", "re1_massaction.crn", "--flux-space", "S"],
    ["equilibria", "counterexample.crn", "--flux-space", "Stilde"],
    ["starmsc", "mm_polypl.crn"],
    ["decompose", "re1_powerlaw.crn", "--max-parts", "8"],
]


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([argv[0], str(DATA / argv[1]), *argv[2:], "--json"], out, err)
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


def test_recorded_cli_reports():
    recorded = json.loads(RECORDED.read_text())
    assert [r["argv"] for r in recorded] == COMMANDS
    for old in recorded:
        new = _run(old["argv"])
        name = " ".join(old["argv"])
        assert (new["exit"], new["stderr"]) == (old["exit"], old["stderr"]), name
        if old["exit"] != 0:
            assert new["stdout"] == old["stdout"], name
            continue
        found = _mismatch(json.loads(new["stdout"]), json.loads(old["stdout"]))
        assert found is None, f"{name}: {found}"


def test_tolerance_applies_to_numbers_only():
    assert _mismatch({"x": ["1.000000000001"]}, {"x": ["1"]}) is None
    assert _mismatch({"x": "1.1e-20"}, {"x": "1.0e-20"}) is None  # below atol
    assert _mismatch({"x": ["1.0001"]}, {"x": ["1"]}) is not None
    assert _mismatch({"a": 1, "b": 2}, {"b": 2, "a": 1}) is not None  # key order
    assert _mismatch({"k": "positive"}, {"k": "complex_balanced"}) is not None
    assert _mismatch({"k": True}, {"k": 1}) is not None
    assert _mismatch({"k": "3/2"}, {"k": "1.5"}) is not None


if __name__ == "__main__":
    RECORDED.write_text(json.dumps([_run(argv) for argv in COMMANDS], indent=1) + "\n")
