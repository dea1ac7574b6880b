"""Command line front end.

Subcommands: analyze, kinetics, tmatrix, decompose, starmsc, equilibria,
acb, pff. Every subcommand reads the network/kinetics text format, prints a
human-readable summary by default and the versioned JSON report with
``--json``. Exit codes: 0 success, 1 analysis error, 2 parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

import numpy as np

from . import report as rpt
from .decomposition import search_decompositions
from .equilibria import (KineticSystem, SolveConfig, acb_verdict, analyze_acb,
                         poly_pl_equilibrated_check, sample_coset_counts,
                         sample_positive_states, solve_equilibria,
                         star_msc_acb_evidence)
from .fileformat import ParseError, parse_crn
from .kinetic_matrices import build_t_matrices, kinetic_order_subspace
from .kinetics import (HillKinetics, PolyPLKinetics, PowerLawKinetics,
                       RationalKinetics, evaluate)
from .network import CrnError, stoichiometric_basis
from .transform import pff_check, star_msc


_FAMILIES = {PowerLawKinetics: "powerlaw", PolyPLKinetics: "polypl",
             HillKinetics: "hill", RationalKinetics: "rational"}


def _family(kin) -> str:
    return _FAMILIES.get(type(kin), type(kin).__name__)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_crn(fh.read())


def _resolve_flux_basis(value, system: KineticSystem) -> np.ndarray:
    """Basis rows of --flux-space S | Stilde | <file with one basis row per line>."""
    net = system.network
    if value == "S":
        return np.array(stoichiometric_basis(net), dtype=float)
    if value == "Stilde":
        if system.t_matrices is None:
            raise CrnError("Stilde flux space needs reactant-determined power-law kinetics")
        return system.t_matrices.s_tilde_basis
    rows = []
    with open(value, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                row = [Fraction(tok) for tok in line.split()]
            except (ValueError, ZeroDivisionError):
                raise CrnError(f"flux-space file {value!r} line {number}: "
                               f"not a row of numbers: {line!r}") from None
            if len(row) != net.num_species:
                raise CrnError(f"flux-space file {value!r} line {number}: {len(row)} "
                               f"entries, expected one per species ({net.num_species})")
            rows.append(row)
    if not rows:
        raise CrnError(f"flux-space file {value!r} contains no rows")
    return np.array([[float(v) for v in row] for row in rows])


def _verdict_lines(verdict: dict) -> list[str]:
    """Text lines of a verdict's JSON: status, citations, witness."""
    lines = [f"ACB verdict: {verdict['status']}"]
    lines += [f"  [{item['rule']}] {item['citation']}" for item in verdict["justification"]]
    if verdict.get("witness"):
        lines.append(f"  witness x = ({', '.join(verdict['witness']['x'])}), "
                     f"cfrf residual {verdict['witness']['cfrf_residual']}")
    return lines


# Each handler takes the parsed arguments, the system of `args.file`, the
# solver settings and the report `run_cli` started; it adds its own report
# sections and returns its text lines.

def _cmd_analyze(args, system, cfg, report):
    net, kin = system.network, system.kinetics
    inv, tmat, cls = system.invariants, system.t_matrices, system.classification
    conservative, witness = system.conservation
    report["network"] = rpt.network_json(net)
    report["structural"] = rpt.structural_json(inv, conservative, witness)
    report["kinetics"] = rpt.classification_json(cls, _family(kin))
    if tmat is not None:
        report["t_matrices"] = rpt.tmatrices_json(tmat)
    lines = [
        f"species {inv.m}, complexes {inv.n} ({inv.n_r} reactant), reactions {inv.r}",
        f"linkage classes {inv.l}, strong {inv.sl}, terminal {inv.t}",
        f"rank S = {inv.s} (exact), deficiency = {inv.delta}",
        f"weakly reversible: {inv.weakly_reversible}, t-minimal: {inv.t_minimal}, "
        f"cycle terminal: {inv.cycle_terminal}",
        f"conservative: {conservative}"
        + (f" (witness {[str(w) for w in witness]})" if witness else ""),
        f"kinetics family: {_family(kin)}, classification: "
        + ", ".join(f"{k}={v}" for k, v in rpt.classification_json(cls, _family(kin)).items()
                    if k != "family" and v is not None),
    ]
    if tmat is not None:
        lines.append(f"kinetic reactant rank {tmat.q_tilde}, T-hat rank {tmat.q_hat}, "
                     f"kinetic reactant deficiency {tmat.delta_hat}"
                     + (" (exact)" if tmat.ranks_exact else " (numeric)"))
    return lines


def _cmd_kinetics(args, system, cfg, report):
    report["kinetics"] = rpt.classification_json(system.classification,
                                                 _family(system.kinetics))
    return [f"{k} = {v}" for k, v in report["kinetics"].items() if v is not None]


def _cmd_tmatrix(args, system, cfg, report):
    net, kin = system.network, system.kinetics
    if not isinstance(kin, PowerLawKinetics):
        raise CrnError("T matrices are defined for power-law kinetics")
    tmat = build_t_matrices(net, kin)
    sub = kinetic_order_subspace(tmat, net)
    report["t_matrices"] = rpt.tmatrices_json(tmat)
    report["order_subspace"] = {
        "dim": sub.dim,
        "basis": [[rpt.sig12(v) for v in row] for row in np.atleast_2d(sub.basis)]
        if sub.dim else [],
        "not_cycle_terminal_warning": sub.not_cycle_terminal,
        "exact": sub.exact,
    }
    lines = ["T-hat ="]
    lines += ["  " + "  ".join(f"{v:8.3g}" for v in row) for row in tmat.that]
    lines.append(f"ranks: T {tmat.q_tilde}, T-hat {tmat.q_hat} "
                 + ("(exact)" if tmat.ranks_exact else "(numeric)"))
    lines.append(f"kinetic reactant deficiency = {tmat.delta_hat}; "
                 f"PL-TIK: {report['t_matrices']['pl_tik']}")
    lines.append(f"kinetic order subspace dim = {sub.dim}"
                 + (" [warning: not cycle terminal]" if sub.not_cycle_terminal else ""))
    return lines


def _cmd_decompose(args, system, cfg, report):
    parts, verdict = system.invariants.linkage_partition, system.linkage_verdict
    report["linkage_decomposition"] = {
        "parts": [list(p) for p in parts],
        "independent": verdict.independent,
        "incidence_independent": verdict.incidence_independent,
        "bi_independent": verdict.bi_independent,
        "deficiency": verdict.deficiency,
        "deficiency_sum": verdict.deficiency_sum,
        "relation": verdict.relation,
    }
    lines = [
        f"linkage-class decomposition into {len(parts)} parts",
        f"independent: {verdict.independent}, incidence independent: "
        f"{verdict.incidence_independent}, bi-independent: {verdict.bi_independent}",
        f"deficiency {verdict.deficiency} vs part sum {verdict.deficiency_sum}"
        + (f" ({verdict.relation})" if verdict.relation else ""),
    ]
    if args.max_parts is not None:
        found = search_decompositions(system.network, "bi_independent", args.max_parts)
        report["search"] = {
            "predicate": "bi_independent",
            "max_parts": args.max_parts,
            "found": [[list(p) for p in d.parts] for d in found],
        }
        lines.append(f"bi-independent decompositions with <= {args.max_parts} parts: "
                     f"{len(found)}")
    return lines


def _cmd_starmsc(args, system, cfg, report):
    net, kin = system.network, system.kinetics
    if not isinstance(kin, PolyPLKinetics):
        raise CrnError("the replica transform needs poly-PL kinetics")
    star = star_msc(net, kin)
    states = np.array(sample_positive_states(net.num_species, 20, cfg.rng_seed))
    # the SFRF N K(x) of both networks, one matrix-vector product per state
    f0, f1 = (np.matmul(n.n_array(), evaluate(k, states)[..., None])[..., 0]
              for n, k in ((net, kin), (star.network, star.kinetics)))
    deviation = max([0.0] + [d / max(1.0, s) for d, s in zip(
        np.max(np.abs(f0 - f1), axis=1).tolist(), np.max(np.abs(f0), axis=1).tolist())])
    verdict = star.system.linkage_verdict
    evidence = star_msc_acb_evidence(star.system, star.source, cfg)
    analysis = analyze_acb(star.system, cfg)
    if evidence is not None:
        analysis = dataclasses.replace(analysis, decomposition=evidence)
    acb = acb_verdict(analysis, cfg)
    report["transform"] = {
        "shift": star.shift,
        "length": star.length,
        "complexes": star.network.num_complexes,
        "reactions": star.network.num_reactions,
        "predicted_deficiency": star.predicted_delta,
        "computed_deficiency": star.computed_delta,
        "sfrf_max_relative_deviation": rpt.residual_str(deviation),
        "replica_decomposition": {
            "incidence_independent": verdict.incidence_independent,
            "bi_independent": verdict.bi_independent,
            "deficiency_sum": verdict.deficiency_sum,
        },
    }
    report["verdicts"] = {"acb": rpt.verdict_json(acb)}
    lines = [
        f"shift M = {star.shift}, length h = {star.length}",
        f"transform: {star.network.num_complexes} complexes, "
        f"{star.network.num_reactions} reactions",
        f"deficiency: predicted {star.predicted_delta}, computed {star.computed_delta}",
        f"SFRF max relative deviation over {len(states)} states: {deviation:.3e}",
        f"replica decomposition incidence independent: {verdict.incidence_independent}, "
        f"bi-independent: {verdict.bi_independent}",
    ]
    return lines + _verdict_lines(report["verdicts"]["acb"])


def _report_diagnostics(diagnostics: dict) -> dict:
    """The solver counts the report prints; per-seed stop reasons stay out."""
    return {key: diagnostics[key]
            for key in ("attempts", "converged", "distinct", "mode", "accepted")}


def _cmd_equilibria(args, system, cfg, report):
    e = solve_equilibria(system, "positive", config=cfg)
    z = solve_equilibria(system, "complex_balanced", config=cfg)
    report["equilibria"] = {
        "positive": [rpt.point_json(p) for p in e.points],
        "complex_balanced": [rpt.point_json(p) for p in z.points],
        "diagnostics": {"positive": _report_diagnostics(e.diagnostics),
                        "complex_balanced": _report_diagnostics(z.diagnostics)},
    }
    lines = [f"positive equilibria found: {len(e.points)} "
             f"(attempts {e.diagnostics['attempts']})",
             f"complex balanced equilibria found: {len(z.points)}"]
    for p in e.points[:10]:
        lines.append("  E: (" + ", ".join(rpt.sig12(v) for v in p.x)
                     + f")  sfrf {p.sfrf_residual:.2e} cfrf {p.cfrf_residual:.2e}")
    for p in z.points[:10]:
        lines.append("  Z: (" + ", ".join(rpt.sig12(v) for v in p.x)
                     + f")  cfrf {p.cfrf_residual:.2e}")
    if args.flux_space is not None and (e.points or z.points):
        basis = _resolve_flux_basis(args.flux_space, system)
        ref = (z.points[0].x if z.points else e.points[0].x)
        samples = sample_coset_counts(system, basis, ref, cfg)
        e_exact = bool(args.assume_concordant and system.conservation[0]
                       and system.invariants.weakly_reversible
                       and system.classification.pl_nik)
        report["coset_counts"] = rpt.coset_counts_json(samples, e_exact)
        lines.append(f"coset intersection counts over {len(samples)} sampled classes "
                     f"(E side exact: {e_exact}):")
        for anchor, counts in samples:
            lines.append(f"  anchor (" + ", ".join(rpt.sig12(v) for v in anchor)
                         + f"): |E| >= {counts.e_found}, |Z| >= {counts.z_found}")
    return lines


def _cmd_acb(args, system, cfg, report):
    net, kin = system.network, system.kinetics
    flux = (None if args.flux_space is None
            else _resolve_flux_basis(args.flux_space, system))
    analysis = analyze_acb(system, cfg, flux_spec_basis=flux)
    verdict = acb_verdict(analysis, cfg)
    inv = system.invariants
    # CLP and PLP are checked on one flux space, so the two spaces coincide
    # whenever PLP was checked; the report keeps the key
    bilp = True if analysis.plp is not None else None
    report["structural"] = rpt.structural_json(inv, system.conservation[0])
    report["kinetics"] = rpt.classification_json(system.classification, _family(kin))
    if system.t_matrices is not None:
        report["t_matrices"] = rpt.tmatrices_json(system.t_matrices)
    report["equilibria"] = {
        "positive": [rpt.point_json(p) for p in analysis.e_points],
        "complex_balanced": [rpt.point_json(p) for p in analysis.z_points],
    }
    report["verdicts"] = {
        "acb": rpt.verdict_json(verdict),
        "clp": rpt.lp_json(analysis.clp),
        "plp": rpt.lp_json(analysis.plp),
        "bilp": bilp,
        "kse": rpt.kse_json(analysis.kse),
    }
    if isinstance(kin, PolyPLKinetics):
        report["verdicts"]["poly_pl_balance"] = rpt.poly_pl_balance_json(
            poly_pl_equilibrated_check(net, kin, cfg))
    report["assumptions"] = {"concordant": bool(args.assume_concordant)}
    lines = [
        f"deficiency {inv.delta}, weakly reversible: {inv.weakly_reversible}",
        f"complex balanced: {analysis.complex_balanced or bool(analysis.z_points)} "
        f"({len(analysis.z_points)} point(s) found)",
        f"positive equilibria found: {len(analysis.e_points)}",
    ]
    if analysis.clp is not None:
        lines.append(f"CLP: {analysis.clp.holds}"
                     + (f", PLP: {analysis.plp.holds}" if analysis.plp else "")
                     + (f", bi-LP: {bilp}" if bilp is not None else ""))
    if analysis.kse is not None:
        lines.append(f"kinetic image span: {analysis.kse.sampled_span_dim} of "
                     f"r - s = {analysis.kse.r_minus_s} (KSE: {analysis.kse.kse})")
    return lines + _verdict_lines(report["verdicts"]["acb"])


def _cmd_pff(args, system, cfg, report):
    net_a, kin_a = system.network, system.kinetics
    net_b, kin_b = _load(args.file_b)
    if net_a.num_reactions != net_b.num_reactions:
        raise CrnError("the two files define different reaction counts")
    states = sample_positive_states(net_a.num_species, 20, cfg.rng_seed)
    cert = pff_check(kin_a, kin_b, states)
    report["pff"] = {
        "equivalent": cert.equivalent,
        "factor_kind": cert.factor_kind,
        "sampled_max_spread": rpt.residual_str(cert.sampled_max_spread),
        "rate_ratio": None if cert.rate_ratio is None else rpt.sig12(cert.rate_ratio),
        "order_shift": None if cert.order_shift is None
        else [rpt.sig12(v) for v in cert.order_shift],
    }
    return [f"PFF equivalent: {cert.equivalent} (factor kind: {cert.factor_kind}, "
            f"max spread {cert.sampled_max_spread:.3e})"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnbalance",
        description="Reaction network structure, kinetics and complex-balancing analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, two_files=False, max_parts=False, flux_space=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="network/kinetics file")
        if two_files:
            p.add_argument("file_b", help="second kinetics file on the same network")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--tol", type=float, default=1e-9, help="solver residual tolerance")
        p.add_argument("--seeds", type=int, default=64, help="multistart seed count")
        p.add_argument("--rng", type=int, default=42, help="random seed")
        if max_parts:
            p.add_argument("--max-parts", type=int, default=None, dest="max_parts",
                           help="search decompositions up to this many parts")
        if flux_space:
            p.add_argument("--assume-concordant", action="store_true",
                           dest="assume_concordant",
                           help="treat the network as concordant (user assertion)")
            p.add_argument("--flux-space", default=None, dest="flux_space",
                           help="S, Stilde, or a file with one basis row per line")
        p.set_defaults(handler=fn)
        return p

    add("analyze", _cmd_analyze, "structural invariants and classification")
    add("kinetics", _cmd_kinetics, "kinetics classification flags")
    add("tmatrix", _cmd_tmatrix, "kinetic order matrices and ranks")
    add("decompose", _cmd_decompose, "decomposition independence verdicts", max_parts=True)
    add("starmsc", _cmd_starmsc, "replica transform of a poly-PL system")
    add("equilibria", _cmd_equilibria, "multistart equilibria search", flux_space=True)
    add("acb", _cmd_acb, "absolute complex balancing verdict", flux_space=True)
    add("pff", _cmd_pff, "positive-function-factor comparison", two_files=True)
    return parser


def run_cli(argv, stdout=None, stderr=None) -> int:
    """Load `args.file`, run the subcommand's handler on its system and
    write the JSON report (``--json``) or the handler's text lines."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        net, kin = _load(args.file)
        cfg = SolveConfig(seeds=args.seeds, rng_seed=args.rng, tol=args.tol)
        report = rpt.base_report(args.command, cfg)
        lines = args.handler(args, KineticSystem(net, kin), cfg, report)
        out.write(rpt.dumps_report(report) if args.json
                  else "".join(line + "\n" for line in lines))
        return 0
    except (ParseError, OSError) as exc:
        err.write(f"parse error: {exc}\n")
        return 2
    except CrnError as exc:
        err.write(f"analysis error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
