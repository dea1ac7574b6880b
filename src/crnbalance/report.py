"""Analysis report assembly: one JSON document per run, schema crn-balance/1.

Reports are diff-able artifacts: equilibrium coordinates are decimal strings
(12 significant digits), residuals are fixed-format scientific strings, every
rank records whether it was computed exactly or numerically, and reruns with
the same configuration and rng seed produce byte-identical output.
"""

from __future__ import annotations

import json

from . import __version__
from .equilibria import (DEDUP_TOL, LP_TOL, AcbVerdict, EquilibriumPoint, KseReport,
                         LpPropertyReport, PolyPlBalanceReport, SolveConfig)
from .kinetic_matrices import TMatrices, is_pl_tik
from .kinetics import KineticsClassification
from .network import ReactionNetwork, StructuralInvariants

SCHEMA_ID = "crn-balance/1"


def sig12(value: float) -> str:
    return format(float(value), ".12g")


def residual_str(value: float) -> str:
    return format(float(value), ".6e")


def config_json(cfg: SolveConfig) -> dict:
    return {
        "tol": cfg.tol,
        "seeds": cfg.seeds,
        "rng_seed": cfg.rng_seed,
        "max_iter": cfg.max_iter,
        "dedup_tol": DEDUP_TOL,
        "lp_tol": LP_TOL,
        "coset_samples": cfg.coset_samples,
    }


def network_json(net: ReactionNetwork) -> dict:
    return {
        "species": list(net.species),
        "complexes": [cpx.format(net.species) for cpx in net.complexes],
        "reactions": [
            {"label": rx.label,
             "reactant": net.complexes[rx.reactant].format(net.species),
             "product": net.complexes[rx.product].format(net.species)}
            for rx in net.reactions
        ],
        "y": [[str(v) for v in row] for row in net.y],
        "incidence": [[str(v) for v in row] for row in net.ia],
    }


def structural_json(inv: StructuralInvariants, conservative: bool, witness=None) -> dict:
    out = {
        "species_count": inv.m,
        "complex_count": inv.n,
        "reactant_complex_count": inv.n_r,
        "reaction_count": inv.r,
        "linkage_classes": inv.l,
        "strong_linkage_classes": inv.sl,
        "terminal_strong_linkage_classes": inv.t,
        "stoichiometric_rank": inv.s,
        "deficiency": inv.delta,
        "rank_exact": True,
        "weakly_reversible": inv.weakly_reversible,
        "t_minimal": inv.t_minimal,
        "cycle_terminal": inv.cycle_terminal,
        "conservative": conservative,
        "linkage_partition": [list(part) for part in inv.linkage_partition],
        "terminal_classes": [list(part) for part in inv.terminal_classes],
    }
    if witness is not None:
        out["conservation_witness"] = [str(v) for v in witness]
    return out


def classification_json(cls: KineticsClassification, family: str) -> dict:
    return {
        "family": family,
        "pl_rdk": cls.pl_rdk,
        "factor_span_surjective": cls.factor_span_surjective,
        "pl_nik": cls.pl_nik,
        "por": cls.por,
        "cf": cls.cf,
        "mass_action": cls.mass_action,
    }


def tmatrices_json(t: TMatrices) -> dict:
    return {
        "reactant_complexes": list(t.reactant_complexes),
        "t": [[sig12(v) for v in row] for row in t.t],
        "t_hat": [[sig12(v) for v in row] for row in t.that],
        "kinetic_reactant_rank": t.q_tilde,
        "t_hat_rank": t.q_hat,
        "kinetic_reactant_deficiency": t.delta_hat,
        "pl_tik": is_pl_tik(t),
        "ranks_exact": t.ranks_exact,
        "order_subspace_dim": int(t.s_tilde_basis.shape[0]),
    }


def point_json(p: EquilibriumPoint) -> dict:
    return {
        "x": [sig12(v) for v in p.x],
        "sfrf_residual": residual_str(p.sfrf_residual),
        "cfrf_residual": residual_str(p.cfrf_residual),
        "kind": p.kind,
    }


def lp_json(rep: LpPropertyReport | None) -> dict | None:
    if rep is None:
        return None
    return {
        "which": rep.which,
        "holds": rep.holds,
        "found_direction_ok": rep.found_direction_ok,
        "membership_direction_ok": rep.membership_direction_ok,
        "max_projection": residual_str(rep.max_projection),
        "max_residual": residual_str(rep.max_residual),
        "n_found": rep.n_found,
        "n_sampled": rep.n_sampled,
    }


def kse_json(rep: KseReport | None) -> dict | None:
    if rep is None:
        return None
    return {
        "r_minus_s": rep.r_minus_s,
        "sampled_span_dim": rep.sampled_span_dim,
        "kse": rep.kse,
        "por": rep.por,
        "incidence_kernel_dim": rep.incidence_kernel_dim,
        "span_exceeds_incidence_kernel": rep.span_exceeds_incidence_kernel,
        "rank_exact": False,
    }


def verdict_json(v: AcbVerdict) -> dict:
    return {
        "status": v.status,
        "justification": [{"rule": c.rule, "citation": c.statement}
                          for c in v.justification],
        "witness": point_json(v.witness) if v.witness is not None else None,
    }


def poly_pl_balance_json(rep: PolyPlBalanceReport) -> dict:
    return {
        "pl_equilibrated": rep.pl_equilibrated,
        "pl_complex_balanced": rep.pl_complex_balanced,
        "absolutely_pl_complex_balanced": rep.absolutely_pl_complex_balanced,
        "sampled": True,
    }


def coset_counts_json(samples: list) -> dict:
    return {
        "e_side_exact": False,
        "z_side_exact": False,
        "classes": [
            {"anchor": [sig12(v) for v in anchor],
             "e_found": counts.e_found,
             "z_found": counts.z_found}
            for anchor, counts in samples
        ],
        "counts_are_lower_bounds": True,
    }


def base_report(command: str, cfg: SolveConfig) -> dict:
    return {
        "schema": SCHEMA_ID,
        "tool": {"name": "crnbalance", "version": __version__},
        "command": command,
        "config": config_json(cfg),
    }


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False, allow_nan=False) + "\n"

