"""Intersection-closed semigroups of partial transformations.

The package builds finite sets of partial maps closed under composition and
intersection, computes their containment, semicompatibility, and
semiadjacency relations, checks the abstract hypotheses and closure axioms
that characterize such systems, and constructs the sum-of-simplest faithful
representation with a full verifier on top.
"""

from .abstract_system import AbstractSystem, derived_props, validate
from .closure import (
    ClosureCache,
    ClosureResult,
    WitnessNode,
    check_representability,
    closure_fixpoint,
    closure_step,
    derivation_chain,
    is_closed,
    least_closed_oracle,
    member_at_round,
    verify_witness_tree,
)
from .errors import (
    CapExceededError,
    CarrierMismatchError,
    HypothesesViolatedError,
    InstanceFormatError,
    InternalConsistencyError,
    MalformedSystemError,
    OracleBudgetError,
    TransemiError,
)
from .reports import CheckResult, Report
from .representation import (
    DeterminingPair,
    Representation,
    check_class_formulas,
    check_meet_hom_equivalence,
    determining_pair_for,
    simplest_representation,
    sum_representation,
    validate_determining_pair,
    verify_representability,
)
from .trans_semigroup import (
    TransSystem,
    check_adjacency_laws,
    check_domain_bounds,
    check_domain_meet,
    generate,
)

__version__ = "0.1.0"
