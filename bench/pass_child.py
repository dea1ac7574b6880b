"""One pass over a workload's items, in a fresh interpreter.

    python3 bench/pass_child.py WORKLOAD SEED PASS TRACE [SPANS_PATH]

with ``PYTHONPATH=src``. ``bench/run.py`` starts one of these per pass, so
nothing the program keeps for the life of a process (state attached to a
network object, a cache keyed by value) carries from one pass to the next:
each pass pays what one call from a fresh process pays. The items are
built before the timed region and run in an order drawn from (SEED, PASS);
each is checked against ``expected.json``. With TRACE 1 the items run
traced, and SPANS_PATH, when given, receives the spans.

The last line of stdout is one JSON object: each item's raw time, its time
scaled to the reference host speed, its failures, verified points and
stdout digest (CLI items), plus the kernel samples, the peak memory and,
when traced, the tracer's totals.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

import suite
import tracing
from hostclock import HostClock

OUT_DIR = os.path.join(suite.BENCH_DIR, "out")


def check(obs, want) -> tuple[list[str], int, bool]:
    """Failures of one item run, its number of re-verified points, and
    whether its outcome drifted from the recorded one."""
    errors = list(obs.errors)
    if want is None:
        return errors + [f"no recorded outcome; observed {json.dumps(obs.outcome)}"], 0, False
    drift = obs.outcome != want["outcome"]
    if drift:
        errors.append(f"outcome {json.dumps(obs.outcome)} != recorded "
                      f"{json.dumps(want['outcome'])}")
    verified = 0
    for net, kin, kind, x in obs.points:
        res = suite.residual(net, kin, kind, x, obs.rounded)
        if res <= suite.TOL:
            verified += 1
        else:
            errors.append(f"{kind} point residual {res:.3e} above tol")
    if verified < want["points"]:
        errors.append(f"{verified} verified points, fewer than the recorded {want['points']}")
    return errors, verified, drift


def run_item(item, tracer):
    """Run one item, traced when ``tracer`` is given; returns
    (seconds, result, error message or None)."""
    child_trace = None
    if tracer is not None:
        tracer.item = item.name
        if isinstance(item, suite.CliItem):
            child_trace = item.trace_path = os.path.join(OUT_DIR, f"child-{os.getpid()}.json")
        else:
            tracer.install()
    t0 = time.perf_counter()
    try:
        result, error = item.run(), None
    except Exception as exc:  # an item that raises is a failed item
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        took = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if child_trace is not None and os.path.exists(child_trace):
        with open(child_trace, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(child_trace)
        tracer.merge(child["summary"], child["spans"], item.name)
    return took, result, error


def main(argv) -> int:
    workload, seed, index, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    spans_path = argv[4] if len(argv) > 4 else None
    with open(os.path.join(suite.BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    items = suite.build(workload)
    order = np.random.default_rng([seed, index]).permutation(len(items))
    tracer = tracing.Tracer() if traced else None
    clock = HostClock()
    clock.sample()  # the first numpy calls of a process are slower
    clock.samples.clear()

    results = []
    before = clock.sample()
    for idx in order:
        item = items[idx]
        took, result, error = run_item(item, tracer)
        after = clock.sample()
        factor = clock.factor(before, after)
        before = after
        if tracer is not None:
            tracer.end_item(factor)
        verified, drift, sha = 0, False, None
        if error is None:
            try:
                obs = item.observe(result)
                errors, verified, drift = check(obs, expected.get(item.name))
                sha = obs.stdout_sha
            except Exception as exc:  # output the checks cannot read
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            errors = [error]
        results.append({"name": item.name, "raw_s": took, "scaled_s": took * factor,
                        "errors": errors, "verified": verified, "drift": drift,
                        "stdout_sha": sha})

    who = resource.RUSAGE_CHILDREN if workload == "cli-fixtures" else resource.RUSAGE_SELF
    out = {"items": results, "calibration_s": clock.samples,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "seed": seed, "pass": index,
                           "span_fields": ["name", "start", "end", "parent", "item"],
                           "summary": out["trace"], "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
