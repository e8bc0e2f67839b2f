"""Quantum divergences on finite-dimensional positive operators, plus a
preserver toolkit that tests invariance under maps and reconstructs the
implementing (anti)unitaries."""

from .extended import INF, ExtendedReal
from .functions import (
    ScalarFunctionSpec,
    bounded_ratio_fn,
    linear_fn,
    power_fn,
    spec_from_name,
    xlogx_fn,
)
from .matrixcore import (
    eig_hermitian,
    from_spectrum,
    hs_inner,
    rank_one,
    superop_lr,
)
from .operators import DensityOperator, OperatorStack, PositiveOperator, ValidationError
from .divergence import (
    NonFiniteResultError,
    d_fg,
    d_fg_limit_probe,
    f_divergence,
    f_divergence_superop,
    make_divergence,
    renyi_traditional,
    sandwiched_core,
    sandwiched_renyi,
    umegaki,
)
from .maps import StateMap, depolarizing_channel
from .preserver import (
    InvarianceReport,
    check_invariance,
    functional_eq_residual,
    invariance_pairs,
    invariance_reports,
    order_dominance_test,
    orthogonality_indicator,
    prop1_evaluate,
    prop1_refutation,
    thm4_scalar_test,
    trace_similarity_check,
    verify_conjugation,
    wigner_probe_projections,
    wigner_reconstruct,
)
from .sampling import (
    SeededRng,
    ginibre,
    haar_unitary,
    random_antiunitary,
    random_density,
    random_density_matrix,
    random_positive_definite,
    random_simplex,
)

__version__ = "0.1.0"
