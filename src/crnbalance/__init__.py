"""Reaction-network analysis: structural invariants, kinetic-order matrices,
decompositions, equilibria search and complex-balancing verdicts."""

__version__ = "0.1.0"

# The largest module first: without bytecode caches every process compiles
# the package, and the smaller modules then compile into the memory that
# its compile freed instead of growing the heap past it.
from .equilibria import (
    AcbAnalysis, AcbVerdict, Citation, CosetConstraint, CosetCounts,
    DecompositionEvidence, EquilibriumPoint, KineticSystem, KseReport,
    LPSetSpec, LpPropertyReport, NoEquilibriaError, NotComplexBalancedError,
    PolyPlBalanceReport, ReferenceNotEquilibriumError, SolveConfig,
    SolveResult, acb_verdict, analyze_acb, check_lp_property,
    coset_intersection_count, kse_check, linkage_decomposition_evidence,
    poly_pl_equilibrated_check, sample_coset_counts, sample_positive_states,
    solve_equilibria, star_msc_acb_evidence,
)
from .network import (
    Complex, CrnError, DuplicateComplexError, DuplicateReactionError,
    DuplicateSpeciesError, NegativeCoefficientError, Reaction, ReactionNetwork,
    SelfLoopReactionError, StructuralInvariants, UnusedComplexError,
    UnusedSpeciesError, build_network, is_conservative, linkage_class_parts,
    linkage_classes, stoichiometric_basis, structural_invariants,
)
from .kinetics import (
    HillKinetics, InvalidKineticsError, Kinetics, KineticsClassification,
    NonPositiveStateError, NotApplicableError, PolyPLKinetics,
    PowerLawKinetics, RationalFactor, RationalKinetics, classify,
    evaluate, hill, hill_as_rational,
    mass_action_from, normalize_poly_pl, poly_pl, power_law,
    rates_balancing_all_ones, species_formation_rate,
)
from .kinetic_matrices import (
    KineticOrderSubspace, NotRDKError, TMatrices, build_t_matrices,
    is_pl_tik, kinetic_order_subspace,
)
from .decomposition import (
    Decomposition, EmptySelectionError, IndependenceVerdict,
    NotAPartitionError, SubnetworkSummary, TooLargeError, check_decomposition,
    decompose, search_decompositions, subnetwork,
)
from .transform import (
    DimensionMismatchError, NonIntegerComplexError, PffCertificate,
    StarMscResult, hill_to_poly_pl, pff_check, star_msc,
)
