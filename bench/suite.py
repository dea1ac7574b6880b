"""The benchmark workloads: their items, the timed calls and the checks.

An item is one timed call sequence into the public crnbalance API (or one
CLI subprocess) plus an untimed ``observe`` step that turns its result
into (a) discrete outcomes compared with ``expected.json`` (verdict status,
fired rules, exit code, exact counts and digests), (b) the equilibria it
reported, which the benchmark re-verifies with its own evaluator, and
(c) immediate failures such as a report without the schema id.

The instances are fixed (generator seeds below), so every run measures the
same work and each verdict has a recorded reference; the run's ``--seed``
only orders the items within each pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import crnbalance as cb
import crnbalance.fileformat
import workloads as gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DATA = os.path.join("tests", "data")
SCHEMA = "crn-balance/1"
# A floating-point literal; text lines that print one are left out of the
# recorded digest, since a faster evaluator may change the last digits.
FLOAT = re.compile(r"\d\.\d|\de[-+]?\d")
TOL = cb.SolveConfig().tol

# Reduced multistart seed counts keep one pass of each in-process workload
# to a few seconds; every other solver setting is the library default.
CFG_LADDER = cb.SolveConfig(seeds=16)
CFG_FAMILIES = cb.SolveConfig(seeds=16, coset_samples=2)
CFG_HILL = cb.SolveConfig(seeds=8)

# (r, generator seed) of the ladder instances; chosen so that the KSE,
# bi-LP and witness rules each decide one verdict.
LADDER_ITEMS = ((12, 3), (12, 5), (12, 7), (24, 2), (40, 0))
# (index, r) of the weakly reversible networks searched exhaustively.
SEARCH_ITEMS = ((0, 10), (1, 11), (2, 12), (3, 10), (4, 11), (5, 12))
SEARCH_PREDICATES = ("independent", "incidence_independent", "bi_independent")
EXACT_LADDER_SIZES = (40, 60)

CLI_COMMANDS = (
    ("acb", "counterexample", ("--json",)),
    ("acb", "re1_powerlaw", ("--json",)),
    ("acb", "re1_massaction", ("--json",)),
    ("acb", "mm_polypl", ("--json",)),
    ("acb", "hill_single", ("--json",)),
    ("starmsc", "mm_polypl", ()),
    ("equilibria", "re1_massaction", ("--flux-space", "S", "--json")),
    ("equilibria", "counterexample", ("--flux-space", "Stilde", "--json")),
    ("decompose", "re1_powerlaw", ("--max-parts", "8")),
    ("analyze", "re1_powerlaw", ()),
)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # the group ended meanwhile
        pass


def run_child(argv: list[str], env: dict, capture: bool = True,
              timeout: float = 60.0) -> tuple[int, bytes, bytes]:
    """Run a child process to completion from the checkout root.

    The wait blocks: ``subprocess``'s own timeout polls with sleeps of up
    to 50 ms, which would round measured times up to that step. A timer
    kills a child that outlives ``timeout`` seconds instead, together with
    the processes it started (the child leads its own process group).
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=pipe, stderr=pipe,
                          start_new_session=True) as proc:
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, out or b"", err or b""


def child_env(**extra) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


# -- checks ------------------------------------------------------------------

def rates(kin, x: np.ndarray) -> np.ndarray:
    """K(x) evaluated independently of crnbalance.kinetics."""
    if isinstance(kin, cb.PowerLawKinetics):
        return kin.rates * np.prod(x ** kin.orders, axis=1)
    if isinstance(kin, cb.PolyPLKinetics):
        return np.array([k * float(a @ np.prod(x ** f, axis=1))
                         for k, a, f in zip(kin.rates, kin.term_coeffs, kin.term_orders)])
    if isinstance(kin, cb.HillKinetics):
        xf = x ** kin.orders
        return kin.rates * np.prod(np.where(kin.orders != 0, xf / (kin.dissoc + xf), 1.0), axis=1)
    raise TypeError(f"no reference evaluator for {type(kin).__name__}")


def residual(net, kin, kind: str, x, normalized: bool = False) -> float:
    """max |A K(x)|, A = N for positive equilibria and Ia for complex balanced.

    ``normalized`` divides each row by its total flux |A| K(x), the solver's
    scale-free criterion; use it for points printed at 12 significant
    digits, whose rounding alone can lift the raw residual of a large state
    above ``tol``.
    """
    a = np.array(net.n if kind == "positive" else net.ia, dtype=float)
    k = rates(kin, np.asarray(x, dtype=float))
    raw = np.abs(a @ k)
    if normalized:
        flux = np.abs(a) @ k
        raw = raw / np.where(flux > 0, flux, 1.0)
    return float(np.max(raw))


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Observation:
    outcome: dict                                # compared with expected.json
    points: list = field(default_factory=list)   # (net, kin, kind, x) to re-verify
    errors: list = field(default_factory=list)
    rounded: bool = False                        # points came from a printed report
    stdout_sha: str | None = None                # CLI stdout, compared across passes


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    observe: Callable[[object], Observation]


def _solver_points(net, kin, kind: str, points) -> list:
    return [(net, kin, kind, p.x) for p in points]


# -- cli-fixtures --------------------------------------------------------------

@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


class CliItem:
    """One ``crnbalance`` subcommand as a fresh process (closed loop, one client)."""

    def __init__(self, command: str, fixture: str, flags: tuple[str, ...]):
        self.name = f"{command}-{fixture}"
        self.path = os.path.join(DATA, fixture + ".crn")
        self.argv = [sys.executable, os.path.join(BENCH_DIR, "cli_shim.py"),
                     command, self.path, *flags]
        self.json = "--json" in flags
        self.trace_path: str | None = None
        self._system = None

    def run(self) -> CliResult:
        env = child_env(**({"CRNBALANCE_BENCH_TRACE": self.trace_path} if self.trace_path else {}))
        return CliResult(*run_child(self.argv, env))

    def system(self):
        if self._system is None:
            with open(os.path.join(ROOT, self.path), encoding="utf-8") as fh:
                self._system = cb.fileformat.parse_crn(fh.read())
        return self._system

    def observe(self, res: CliResult) -> Observation:
        obs = Observation({"exit": res.returncode}, rounded=True,
                          stdout_sha=hashlib.sha256(res.stdout).hexdigest())
        if res.returncode != 0:
            lines = res.stderr.decode(errors="replace").strip().splitlines()
            obs.outcome["stderr"] = lines[-1] if lines else ""
            return obs
        if not self.json:
            lines = res.stdout.decode().splitlines()
            obs.outcome["stdout_sha"] = digest([ln for ln in lines if not FLOAT.search(ln)])
            return obs
        try:
            report = json.loads(res.stdout)
        except ValueError as exc:
            obs.errors.append(f"report is not JSON: {exc}")
            return obs
        if report.get("schema") != SCHEMA:
            obs.errors.append(f"report lacks \"schema\": \"{SCHEMA}\"")
        acb = report.get("verdicts", {}).get("acb")
        if acb is not None:
            obs.outcome["status"] = acb["status"]
            obs.outcome["rules"] = [c["rule"] for c in acb["justification"]]
        coset = report.get("coset_counts")
        if coset is not None:
            # Exact under the report's fixed rng_seed; a speed-up that stops
            # searching cosets lowers them.
            obs.outcome["coset_e_found"] = [c["e_found"] for c in coset["classes"]]
            obs.outcome["coset_z_found"] = [c["z_found"] for c in coset["classes"]]
        net, kin = self.system()
        for kind in ("positive", "complex_balanced"):
            for p in report.get("equilibria", {}).get(kind, []):
                obs.points.append((net, kin, kind, np.array([float(v) for v in p["x"]])))
        return obs


def cli_items() -> list:
    return [CliItem(*spec) for spec in CLI_COMMANDS]


# -- ladder-acb ----------------------------------------------------------------

def _acb_item(r: int, seed: int) -> Item:
    net, kin = gen.ladder_power_law(seed, r)

    def run():
        analysis = cb.analyze_acb(cb.KineticSystem(net, kin), CFG_LADDER)
        return analysis, cb.acb_verdict(analysis, CFG_LADDER)

    def observe(result) -> Observation:
        analysis, verdict = result
        return Observation(
            {"status": verdict.status, "rules": [c.rule for c in verdict.justification]},
            _solver_points(net, kin, "positive", analysis.e_points)
            + _solver_points(net, kin, "complex_balanced", analysis.z_points))

    return Item(f"acb-r{r}-s{seed}", run, observe)


def ladder_items() -> list:
    return [_acb_item(r, seed) for r, seed in LADDER_ITEMS]


# -- kinetics-families ---------------------------------------------------------

def _solve_item(name: str, net, kin, mode: str, cfg) -> Item:
    def run():
        return cb.solve_equilibria(cb.KineticSystem(net, kin), mode, config=cfg)

    def observe(res) -> Observation:
        return Observation({}, _solver_points(net, kin, mode, res.points))

    return Item(f"{name}-{mode}", run, observe)


def family_items() -> list:
    net, kin = gen.ladder_poly_pl(0, 12)
    basis = np.array(cb.stoichiometric_basis(net), dtype=float)
    ones = np.ones(net.num_species)

    def coset():
        return cb.sample_coset_counts(cb.KineticSystem(net, kin), basis, ones, CFG_FAMILIES)

    def coset_observe(samples) -> Observation:
        pts = []
        for _, counts in samples:
            pts += _solver_points(net, kin, "positive", counts.e_points)
            pts += _solver_points(net, kin, "complex_balanced", counts.z_points)
        return Observation({}, pts)

    def balance_observe(rep) -> Observation:
        return Observation({"pl_equilibrated": rep.pl_equilibrated,
                            "pl_complex_balanced": rep.pl_complex_balanced,
                            "absolutely_pl_complex_balanced": rep.absolutely_pl_complex_balanced})

    def star_observe(star) -> Observation:
        return Observation({"shift": star.shift, "length": star.length,
                            "complexes": star.network.num_complexes,
                            "reactions": star.network.num_reactions,
                            "predicted_deficiency": star.predicted_delta,
                            "computed_deficiency": star.computed_delta})

    hnet, hkin = gen.ladder_hill(0, 8)
    return [
        _solve_item("polypl-r12", net, kin, "positive", CFG_FAMILIES),
        _solve_item("polypl-r12", net, kin, "complex_balanced", CFG_FAMILIES),
        Item("polypl-r12-coset", coset, coset_observe),
        Item("polypl-r12-balance",
             lambda: cb.poly_pl_equilibrated_check(net, kin, CFG_FAMILIES), balance_observe),
        Item("polypl-r12-starmsc", lambda: cb.star_msc(net, kin), star_observe),
        _solve_item("hill-r8", hnet, hkin, "positive", CFG_HILL),
        _solve_item("hill-r8", hnet, hkin, "complex_balanced", CFG_HILL),
    ]


# -- exact-decompose -----------------------------------------------------------

def _search_item(index: int, r: int, predicate: str) -> Item:
    net = gen.weakly_reversible_network(0, index, r)

    def observe(found) -> Observation:
        parts = [[list(p) for p in d.parts] for d in found]
        return Observation({"found": len(found), "parts_sha": digest(parts)})

    return Item(f"search-wr{index}-r{r}-{predicate}",
                lambda: cb.search_decompositions(net, predicate), observe)


def _exact_ladder_item(r: int) -> Item:
    net, kin = gen.ladder_power_law(0, r)

    def run():
        inv = cb.structural_invariants(net)
        conservative, _ = cb.is_conservative(net)
        verdict = cb.check_decomposition(net, cb.linkage_class_parts(net))
        tmat = cb.build_t_matrices(net, kin)
        sub = cb.kinetic_order_subspace(tmat, net)
        return inv, conservative, verdict, tmat, sub

    def observe(result) -> Observation:
        inv, conservative, verdict, tmat, sub = result
        return Observation({
            "invariants": [inv.m, inv.n, inv.r, inv.l, inv.sl, inv.t, inv.s, inv.delta,
                           inv.weakly_reversible],
            "conservative": conservative,
            "linkage_decomposition": [verdict.independent, verdict.incidence_independent,
                                      verdict.bi_independent, verdict.deficiency_sum],
            "t_ranks": [tmat.q_tilde, tmat.q_hat, tmat.delta_hat],
            "order_subspace_dim": sub.dim,
        })

    return Item(f"exact-ladder-r{r}", run, observe)


def exact_items() -> list:
    items = [_search_item(i, r, p) for i, r in SEARCH_ITEMS for p in SEARCH_PREDICATES]
    return items + [_exact_ladder_item(r) for r in EXACT_LADDER_SIZES]


BUILDERS = {
    "cli-fixtures": cli_items,
    "ladder-acb": ladder_items,
    "kinetics-families": family_items,
    "exact-decompose": exact_items,
}


def build(workload: str) -> list:
    return BUILDERS[workload]()
