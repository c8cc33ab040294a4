"""Differentially private Fréchet means on SPD matrices (log-Euclidean metric)."""

from .errors import (
    DimensionError,
    DomainError,
    NumericalError,
    SpdPrivacyError,
)
from .geometry import (
    SpdMatrix,
    SymMatrix,
    TangentVector,
    ball_radius,
    expm,
    frechet_mean_le,
    identity,
    invvecd,
    le_add,
    le_distance,
    le_scale,
    le_sub,
    logm,
    vecd,
)
from .mechanisms import (
    MECHANISMS,
    PrivacyBudget,
    Sensitivity,
    SensitivityKind,
    calibrate_analytic,
    calibrate_classical,
    sensitivity_extrinsic,
    sensitivity_frechet_le,
)
from .sampling import (
    RngState,
    sample_synthetic_spd,
)
from .descriptors import (
    DescriptorParams,
    RasterImage,
    covariance_descriptor,
    descriptor_radius_bound,
    load_pnm,
    save_pnm,
)
from .harness import ExperimentSpec, TrialRecord, emit_csv, run_image, run_synthetic
from .plotting import emit_plot

__version__ = "0.1.0"

__all__ = [
    "SpdPrivacyError",
    "DomainError",
    "DimensionError",
    "NumericalError",
    "SymMatrix",
    "SpdMatrix",
    "TangentVector",
    "logm",
    "expm",
    "vecd",
    "invvecd",
    "le_distance",
    "le_add",
    "le_sub",
    "le_scale",
    "frechet_mean_le",
    "ball_radius",
    "identity",
    "RngState",
    "sample_synthetic_spd",
    "PrivacyBudget",
    "Sensitivity",
    "SensitivityKind",
    "sensitivity_frechet_le",
    "sensitivity_extrinsic",
    "calibrate_classical",
    "calibrate_analytic",
    "MECHANISMS",
    "RasterImage",
    "DescriptorParams",
    "covariance_descriptor",
    "descriptor_radius_bound",
    "load_pnm",
    "save_pnm",
    "ExperimentSpec",
    "TrialRecord",
    "run_synthetic",
    "run_image",
    "emit_csv",
    "emit_plot",
    "__version__",
]
