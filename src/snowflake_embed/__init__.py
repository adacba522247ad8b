"""Isometric Euclidean and quotient-space embeddings of snowflaked finite
metric spaces, with negative-type and full-rank certificates."""

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
    euclidean_metric,
    snowflake,
    validate_metric,
)
from .negative_type import (
    NegativeTypeReport,
    check_negative_type,
    check_strict_negative_type,
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
    schoenberg_constant,
    schoenberg_constant_quadrature,
    verify_power_identity,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingResult",
    "FiniteGroup",
    "FiniteMetricSpace",
    "NegativeTypeReport",
    "OrthogonalAction",
    "QngEmbedding",
    "QuadratureSpec",
    "QuotientConfiguration",
    "SnowflakeError",
    "check_negative_type",
    "check_strict_negative_type",
    "close_group",
    "dihedral_action",
    "embed",
    "embedding_residual",
    "equivariance_defect",
    "euclidean_metric",
    "gram_from_distances",
    "lift_orbits",
    "qng_embed",
    "quadratic_form",
    "quotient_distance",
    "reflection_action",
    "rotation_action",
    "schoenberg_constant",
    "schoenberg_constant_quadrature",
    "snowflake",
    "snowflake_embed",
    "trivial_action",
    "validate_metric",
    "verify_power_identity",
]
