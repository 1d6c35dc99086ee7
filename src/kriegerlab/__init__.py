"""Krieger-type classification of infinite product measures.

The package models product measures through structured weight
templates, decides the type I / II_1 / II_inf / III_0 / III_lambda /
III_1 taxonomy from cluster-point and summability criteria, and
cross-checks the analytic verdicts with exact finite-block cocycle
search, brute-force oracles, and seeded Monte Carlo sampling.
"""

from .exact import FLOAT, RATIONAL, Num, format_scalar, parse_scalar
from .scheme import (
    CappedGeometric, CoverageGap, Deviation, ExplicitWeights, FactorSpec,
    GeometricTail, IndexClass, Indices, InfiniteAlphabet, ModeError,
    NonPositiveWeight, NotNormalized, Overlap, Perturbed, SchemeSpec,
    SpecError, TwoPoint, ValidatedScheme, factor_to_scheme, normalize,
    scheme_to_factor, truncate_alphabet, validate,
)
from .asymptotics import (
    ClusterReport, LambdaReport, NotTwoPoint, SummabilityVerdict,
    constant_series, geometric_series, lambda_clusters, power_series,
    summability, union_cluster_report,
)
from .groups import (
    DomainError, GroupStructure, ZeroInSet, commensurable, mult_group,
)
from .classify import (
    Certificate, TypeVerdict, classify, replay, test_type_I, test_type_II1,
    test_type_III,
)
from .cocycle import (
    Block, BlockTooLarge, CocycleSampleSet, DEFAULT_SEED, InsufficientSamples,
    LatticeVerdict, OverlappingBlocks, SearchBudgetExceeded, SymbolOutOfRange,
    Witness, WordLengthMismatch, block_for, brute_force_block, cocycle_ratio,
    compose_witnesses, estimate_ratio_set, lattice_detect, log_cocycle,
    mc_sample_cocycle, replay_witness, witness_search,
)
from .specfile import SpecFileError, dump_spec, load_spec, parse_spec, save_spec

__version__ = "0.1.0"
