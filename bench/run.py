"""crnbalance benchmark: time to a verdict, checked against recorded outcomes.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

BLAS pinned to one thread. The run sets up (timed in fresh interpreters),
then makes passes over the workload's items, each pass in a fresh
interpreter (``pass_child.py``), until ``S`` seconds have gone by. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
the tracing overhead among them. The workload and metric names and units
are those of ``BENCHMARK.json``. Human readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7
MIN_PASSES = 2


def measure_setup(suite, workload: str, clock) -> list[tuple[float, float]]:
    """(raw, scaled) wall time of fresh interpreters doing the workload's set-up."""
    if workload == "cli-fixtures":
        argv = [sys.executable, "-c", "import crnbalance"]
    else:
        argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload]
    times = []
    before = clock.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _, _ = suite.run_child(argv, suite.child_env(), capture=False, timeout=30)
        took = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        after = clock.sample()
        times.append((took, took * clock.factor(before, after)))
        before = after
    return times


class Passes:
    """Runs passes in fresh interpreters and gathers their results."""

    def __init__(self, suite, workload: str, seed: int):
        self.suite = suite
        self.workload = workload
        self.seed = seed
        self.untraced: list[dict] = []   # per pass: item name -> (raw, scaled) seconds
        self.traced: list[dict] = []
        self.traces: list[dict] = []     # tracer totals of each traced pass
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.drift: set[str] = set()
        self.points_per_pass: list[int] = []
        self.calibration: list[float] = []
        self.peak_rss_mb = 0.0
        self._stdout: dict[str, str] = {}

    def run(self, traced: bool, spans_path: str | None = None) -> None:
        index = len(self.untraced) + len(self.traced)
        argv = [sys.executable, os.path.join(BENCH_DIR, "pass_child.py"), self.workload,
                str(self.seed), str(index), str(int(traced))] + ([spans_path] if spans_path else [])
        code, out, err = self.suite.run_child(argv, self.suite.child_env(), timeout=100)
        lines = out.decode(errors="replace").strip().splitlines()
        if code != 0 or not lines:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"pass {index} exited with {code}: {' '.join(tail)}")
        result = json.loads(lines[-1])
        times, points = {}, 0
        for item in result["items"]:
            name, errors = item["name"], list(item["errors"])
            sha = item["stdout_sha"]
            if sha is not None and self._stdout.setdefault(name, sha) != sha:
                errors.append("stdout differs from the first run of the same command")
            times[name] = (item["raw_s"], item["scaled_s"])
            points += item["verified"]
            if item["drift"]:
                self.drift.add(name)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.failures += [f"{name}: {e}" for e in errors]
        self.points_per_pass.append(points)
        self.calibration += result["calibration_s"]
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
        if traced:
            self.traced.append(times)
            self.traces.append(result["trace"])
        else:
            self.untraced.append(times)


def median(values):
    return statistics.median(values) if values else 0.0


def pass_seconds(passes: list[dict], which: int = 1) -> float:
    """One pass over the items, each at its median over the passes
    (``which`` 1: scaled to the reference host speed, 0: raw)."""
    return sum(median([p[name][which] for p in passes]) for name in passes[0])


def layer_metrics(per_layer: list[dict], runs: Passes, host: dict) -> dict:
    """Counts from the first traced pass; times are medians over traced passes."""
    counts = runs.traces[0]["counts"]
    out = {}
    for metric in per_layer:
        name = metric["name"]
        if metric["unit"] == "count":
            out[name] = counts.get(name, 0)
        elif name.endswith(".s"):
            out[name] = median([t["inclusive_s"].get(name[:-2], 0.0) for t in runs.traces])
    lj_calls = counts.get("kinetics.log_jacobian.calls", 0)
    out["kinetics.log_jacobian.us_per_call"] = (
        1e6 * out["kinetics.log_jacobian.s"] / lj_calls if lj_calls else 0.0)
    attempts = counts.get("equilibria.attempts", 0)
    out["equilibria.converged_frac"] = (
        counts.get("equilibria.converged", 0) / attempts if attempts else 0.0)
    out["equilibria.points_found"] = runs.points_per_pass[0]
    out["trace.wall_s"] = pass_seconds(runs.traced)
    out["trace.untraced_wall_s"] = pass_seconds(runs.untraced)
    out["trace.overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    out["host.calibration_s"] = host["calibration_s"]
    out["host.loadavg_1m"] = host["loadavg"][0]
    return {m["name"]: {"value": out[m["name"]], "unit": m["unit"]} for m in per_layer}


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        print(f"no {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before numpy loads, here and in every child: the host has two CPUs,
    # and BLAS threads would compete with the Python thread driving them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not os.path.isfile(os.path.join(SRC, "crnbalance", "__init__.py")):
        print(f"no crnbalance sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite
    from hostclock import HostClock

    if not os.path.abspath(suite.cb.__file__).startswith(SRC + os.sep):
        print(f"crnbalance was imported from {suite.cb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "cli-fixtures":
        fixtures = [os.path.join(ROOT, suite.DATA, f + ".crn") for _, f, _ in suite.CLI_COMMANDS]
        missing = [f for f in fixtures if not os.path.isfile(f)]
        if missing:
            print(f"missing fixtures: {missing}", file=sys.stderr)
            return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    # The kernel and the timed work must share a CPU: CLI children left free
    # to run on the other CPU correlated with the kernel at 0.05-0.4, pinned
    # at 0.5-0.85. Children inherit the mask.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    clock = HostClock()
    setup = measure_setup(suite, args.workload, clock)
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")

    runs = Passes(suite, args.workload, args.seed)
    start = time.perf_counter()
    try:
        while True:
            done = len(runs.untraced) + len(runs.traced)
            if done >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
                break
            if args.trace and len(runs.traced) < len(runs.untraced):
                runs.run(True, None if runs.traced else spans_path)
            else:
                runs.run(False)
    except RuntimeError as exc:  # a pass that crashed ends the run
        runs.attempted += 1
        runs.failed += 1
        runs.failures.append(str(exc))
        if not runs.untraced or (args.trace and not runs.traced):
            print(f"FAIL {exc}", file=sys.stderr)
            return 1

    if len(set(runs.points_per_pass)) > 1:
        runs.failures.append(f"verified points differ between passes: {runs.points_per_pass}")
    if args.trace and any(t["counts"] != runs.traces[0]["counts"] for t in runs.traces[1:]):
        runs.failures.append("counters differ between traced passes")
    calibration = clock.samples + runs.calibration
    host = {"nproc": len(cpus), "pinned_cpu": cpus[0], "cpu_count": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "calibration_s": median(calibration),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    setup_s = median([scaled for _, scaled in setup])
    wall_s = pass_seconds(runs.untraced)
    raw_sums = [sum(t[0] for t in p.values()) for p in runs.untraced]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"host nproc={host['nproc']} cpu_count={host['cpu_count']} pinned_cpu={cpus[0]} "
          f"loadavg={','.join(f'{v:.2f}' for v in host['loadavg'])} "
          f"calibration_s={host['calibration_s']:.4f} (median of {len(calibration)}; "
          f"reference {HostClock.REFERENCE_S}) "
          f"OPENBLAS_NUM_THREADS={host['blas_threads']}")
    print(f"setup_s {setup_s:.4f} s (median of {len(setup)}; raw median "
          f"{median([raw for raw, _ in setup]):.4f} s)")
    print(f"wall_s {wall_s:.4f} s (per-item medians over {len(runs.untraced)} passes; raw "
          f"{pass_seconds(runs.untraced, 0):.4f} s; raw passes "
          + ", ".join(f"{v:.3f}" for v in raw_sums) + ")")
    print(f"peak_rss_mb {runs.peak_rss_mb:.1f} MB")
    print(f"fail_frac {runs.failed / runs.attempted:.4f} "
          f"({runs.failed} of {runs.attempted} item runs failed)")
    print(f"verdict_drift {len(runs.drift)} items")
    print(f"points_found {runs.points_per_pass[0]} per pass")
    for msg in runs.failures[:20]:
        print(f"FAIL {msg}")

    if args.trace:
        metrics = layer_metrics(spec["per_layer"], runs, host)
        print(f"trace overhead {metrics['trace.overhead_frac']['value']:+.3f} of untraced wall_s "
              f"({len(runs.traced)} traced, {len(runs.untraced)} untraced passes); "
              f"spans in {spans_path}")
        for name, metric in metrics.items():
            print(f"  {name} {metric['value']} {metric['unit']}")
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": runs.peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not runs.failures, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
