"""Exact tooling for equivalence-query learning with random counterexamples.

The package computes Littlestone dimension, selects equivalence queries
by maximizing the minimum expected dimension drop against an adversarial
target, certifies the structural facts that make that strategy cheap
(opposite edge weights summing to at least 1, no light cycles, query
rank at least 1/2), runs and measures the resulting learner both exactly
and by seeded simulation, extends it to countable classes under a target
prior via staged prefixes, and builds dimension-sized sample compression
schemes with d + 1 reconstruction functions. All probability and weight
arithmetic is exact rational arithmetic.
"""

from .compression import (
    CompressionReport,
    GreedyRun,
    build_reconstructors,
    certify_scheme,
    compress,
    greedy_run,
)
from .concepts import (
    ClassFileError,
    ClassValidationError,
    Concept,
    ConceptClass,
    Domain,
    DomainMismatchError,
    PartialAssignment,
    load_class,
    load_class_with_prior,
    save_class,
)
from .generate import random_class, random_classes
from .learner import (
    TeacherResponse,
    Transcript,
    TrialSummary,
    derive_seed,
    exact_expected_queries,
    monte_carlo_trials,
    run_thicket_learner,
    teacher_respond,
)
from .littlestone import LdimCache, canonical_partial, drop, is_exceptional, ldim
from .querygraph import QueryGraph, edge_weight, find_deficient_cycle
from .staged import (
    AtomizedPrefix,
    CountableFamily,
    FiniteFamily,
    IntervalFamily,
    PriorExhaustedError,
    StagedResult,
    StagedSummary,
    StageSchedule,
    negative_feedback_probability,
    prefix_size,
    run_staged_learner,
    sample_target,
    schedule_for,
    stage_epsilon,
    staged_trials,
    step_budget,
)

__version__ = "0.1.0"

__all__ = [
    "AtomizedPrefix",
    "ClassFileError",
    "ClassValidationError",
    "CompressionReport",
    "Concept",
    "ConceptClass",
    "CountableFamily",
    "Domain",
    "DomainMismatchError",
    "FiniteFamily",
    "GreedyRun",
    "IntervalFamily",
    "LdimCache",
    "PartialAssignment",
    "PriorExhaustedError",
    "QueryGraph",
    "StageSchedule",
    "StagedResult",
    "StagedSummary",
    "TeacherResponse",
    "Transcript",
    "TrialSummary",
    "build_reconstructors",
    "canonical_partial",
    "certify_scheme",
    "compress",
    "derive_seed",
    "drop",
    "edge_weight",
    "exact_expected_queries",
    "find_deficient_cycle",
    "greedy_run",
    "is_exceptional",
    "ldim",
    "load_class",
    "load_class_with_prior",
    "monte_carlo_trials",
    "negative_feedback_probability",
    "prefix_size",
    "random_class",
    "random_classes",
    "run_staged_learner",
    "run_thicket_learner",
    "sample_target",
    "save_class",
    "schedule_for",
    "stage_epsilon",
    "staged_trials",
    "step_budget",
    "teacher_respond",
    "__version__",
]
