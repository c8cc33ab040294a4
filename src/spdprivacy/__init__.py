"""Differentially private Fréchet means on SPD matrices (log-Euclidean metric).

Importing the package loads the DP core: ``errors``, ``geometry``,
``mechanisms`` and ``sampling``.  The names it re-exports from the
application layer (the image pipeline ``descriptors``, the experiment
``harness`` and the SVG ``plotting``) load their module on first access
(PEP 562), so a library import compiles none of them.
"""

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

__version__ = "0.1.0"

# The module of each name loaded on first access.
_LAZY = {
    **dict.fromkeys(
        ("DescriptorParams", "RasterImage", "covariance_descriptor", "descriptor_radius_bound",
         "load_pnm", "save_pnm"),
        "descriptors",
    ),
    **dict.fromkeys(
        ("ExperimentSpec", "TrialRecord", "emit_csv", "run_image", "run_synthetic"), "harness"
    ),
    "emit_plot": "plotting",
}

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


def __getattr__(name: str):
    """A name of :data:`_LAZY`, imported from its module and kept in the
    package namespace, so later reads do not come here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
