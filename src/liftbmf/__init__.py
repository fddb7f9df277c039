"""Boolean matrix factorization and evidence reduction for lifted inference.

The package factors binary relations over the Boolean semiring, rewrites
(possibly rank-truncated) binary evidence as unary evidence on fresh
predicates, and checks on a desk-scale Markov Logic engine that the
rewrite preserves conditional distributions.  A Gibbs sampler with
evidence-symmetry orbital moves reproduces the rank/accuracy/convergence
trade-offs as CSV curves.
"""

from .boolmat import (
    BoolMatrix,
    FlipCounts,
    boolean_product,
    flip_counts,
    hamming_error,
    integer_product_entry,
)
from .errors import (
    CapacityError,
    InconsistencyError,
    InputError,
    LiftBmfError,
    SearchBudgetError,
)
from .factorize import (
    AssoParams,
    Factorization,
    asso_factorize,
    exact_boolean_rank,
    optimal_error_at_rank,
    truncate,
)
from .mln import (
    Atom,
    EvidenceSet,
    Model,
    constant_symmetry_classes,
    exact_marginals,
    exact_query,
    ground,
    parse_evidence,
    parse_model,
)
from .reduction import (
    ReductionResult,
    encode_evidence,
    encode_partial_evidence,
    extend_model,
    matrix_to_evidence,
    symmetry_signature_classes,
)
from .sampler import ChainConfig, MarginalEstimate, estimate_marginals, kld

__version__ = "0.1.0"

__all__ = [
    "BoolMatrix", "FlipCounts", "boolean_product", "integer_product_entry",
    "hamming_error", "flip_counts",
    "AssoParams", "Factorization", "exact_boolean_rank", "asso_factorize",
    "truncate", "optimal_error_at_rank",
    "Atom", "Model", "EvidenceSet", "parse_model", "parse_evidence",
    "ground", "exact_query", "exact_marginals",
    "ReductionResult", "encode_evidence", "encode_partial_evidence",
    "symmetry_signature_classes", "extend_model",
    "matrix_to_evidence", "constant_symmetry_classes",
    "ChainConfig", "MarginalEstimate", "estimate_marginals", "kld",
    "LiftBmfError", "InputError", "CapacityError", "SearchBudgetError",
    "InconsistencyError",
    "__version__",
]
