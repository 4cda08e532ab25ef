"""Exact fiber point counts and paving certificates on the enhanced
nilpotent cone: bipartition combinatorics, GF(p) linear algebra,
normal-basis pairs, fiber counting oracles, and named verifications."""

from .combinatorics import (
    Bipartition,
    Diagram,
    FlagShape,
    Partition,
    bipartition,
    bipartitions,
    diagram,
    flag_shape,
    format_bipartition,
    is_distinguished,
    parse_bipartition,
    partitions,
)
from .gflinalg import (
    MatrixGF,
    SubspaceGF,
    enumerate_subspaces,
    is_prime,
    kernel,
    quotient_map,
    rank,
)
from .normalform import (
    Decomposition,
    GradedPair,
    NormalPair,
    centralizer_basis,
    classify_pair,
    decomposition_failures,
    explicit_decomposition,
    jordan_type,
    normal_pair,
)
from .fibers import (
    FiberCache,
    FiberQuery,
    InterpolationError,
    QPolynomial,
    closure_contains,
    closure_pairs,
    count_fiber,
    count_fiber_memo,
    count_lambda_fixed,
    enumerate_fiber_flags,
    enumerate_lambda_fixed_flags,
    fiber_cache,
    fiber_dimension_bound,
    fiber_polynomial,
    interpolate_qpoly,
    orbit_dimension,
)
from .checks import (
    CheckReport,
    check_alpha_partition,
    check_distinguished_lemma,
    check_kernel_recursion,
    check_polynomial_count,
    check_semismall,
    check_split_product,
)

__version__ = "0.1.0"
