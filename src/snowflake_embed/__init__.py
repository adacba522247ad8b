"""Isometric Euclidean and quotient-space embeddings of snowflaked finite
metric spaces, with negative-type and general-position certificates."""

from .embedding import (
    EmbeddingResult,
    embed,
    embedding_residual,
    snowflake_embed,
)
from .errors import SnowflakeError
from .groups import (
    FiniteGroup,
    OrthogonalAction,
    close_group,
    dihedral_action,
    reflection_action,
    rotation_action,
    trivial_action,
)
from .metric import (
    FiniteMetricSpace,
    PointCloud,
    SnowflakeExponent,
    euclidean_metric,
    point_cloud,
    snowflake,
    squared_distance_matrix,
    validate_metric,
)
from .negative_type import (
    NegativeTypeReport,
    WeightVector,
    check_negative_type,
    check_strict_negative_type,
    general_position_certificate,
    geometric_form_check,
    gram_from_distances,
    quadratic_form,
)
from .quotient import (
    QngEmbedding,
    QuotientConfiguration,
    equivariance_defect,
    lift_orbits,
    qng_embed,
    quotient_distance,
)
from .schoenberg import (
    QuadratureSpec,
    check_kernel_psd,
    gaussian_kernel_matrix,
    schoenberg_constant,
    schoenberg_constant_quadrature,
    strict_decomposition_check,
    verify_power_identity,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingResult",
    "FiniteGroup",
    "FiniteMetricSpace",
    "NegativeTypeReport",
    "OrthogonalAction",
    "PointCloud",
    "QngEmbedding",
    "QuadratureSpec",
    "QuotientConfiguration",
    "SnowflakeError",
    "SnowflakeExponent",
    "WeightVector",
    "check_kernel_psd",
    "check_negative_type",
    "check_strict_negative_type",
    "close_group",
    "dihedral_action",
    "embed",
    "embedding_residual",
    "equivariance_defect",
    "euclidean_metric",
    "gaussian_kernel_matrix",
    "general_position_certificate",
    "geometric_form_check",
    "gram_from_distances",
    "lift_orbits",
    "point_cloud",
    "qng_embed",
    "quadratic_form",
    "quotient_distance",
    "reflection_action",
    "rotation_action",
    "schoenberg_constant",
    "schoenberg_constant_quadrature",
    "snowflake",
    "snowflake_embed",
    "squared_distance_matrix",
    "strict_decomposition_check",
    "trivial_action",
    "validate_metric",
    "verify_power_identity",
]
