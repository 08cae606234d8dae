"""Detection, location and confidence intervals for a single sparse mean
shift in high dimensional time series."""

from .core import (
    ChangePointEstimate,
    DegenerateJumpError,
    MeanPair,
    soft_threshold,
    stopped_means,
)
from .detect import DetectionResult, detect_change, thresholded_means
from .infer import (
    InferenceResult,
    QuantileMCSettings,
    confidence_interval,
    limit_quantile,
    plugin_sigma_sq,
    plugin_xi_sq,
    refit_means,
)
from .pls import PipelineResult, full_pipeline, pls_estimate
from .simbench import MetricsReport, SimConfig, gen_dataset, initializer_sweep, run_monte_carlo
from .tune import bic_gamma, bic_lambda

__version__ = "0.1.0"

__all__ = [
    "ChangePointEstimate",
    "DegenerateJumpError",
    "MeanPair",
    "DetectionResult",
    "PipelineResult",
    "InferenceResult",
    "QuantileMCSettings",
    "MetricsReport",
    "SimConfig",
    "soft_threshold",
    "stopped_means",
    "thresholded_means",
    "detect_change",
    "pls_estimate",
    "full_pipeline",
    "refit_means",
    "plugin_xi_sq",
    "plugin_sigma_sq",
    "limit_quantile",
    "confidence_interval",
    "bic_lambda",
    "bic_gamma",
    "gen_dataset",
    "run_monte_carlo",
    "initializer_sweep",
    "__version__",
]
