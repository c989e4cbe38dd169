"""Detection of non-overlapping template occurrences in noisy 1-D data.

The package provides an exact dynamic-programming detector for the
separation-constrained maximum-likelihood problem, greedy/random/convex
baselines, a permutation-null gap statistic for estimating the occurrence
count, noise whitening for colored-noise stripes, and a benchmark harness.
"""

from .convex import (
    ConvexConfig,
    DenoisedTrack,
    adjoint_op,
    convex_detect,
    convex_detect_full,
    denoise,
    forward_op,
)
from .dp import DpTable, dp_backtrack, dp_detect, dp_objective_column, dp_solve
from .gap import GapConfig, GapCurve, estimate_k, gap_curve, permute_measurement
from .greedy import greedy_detect, greedy_path, random_detect
from .metrics import ScoreReport, match_detections, score
from .model import (
    ConvergenceError,
    DetectError,
    DetectionResult,
    InfeasibleError,
    Measurement,
    PlacementSet,
    SignalTemplate,
    ValidationError,
    as_measurement,
    as_template,
    objective_value,
    validate_placements,
)
from .synth import SynthConfig, rect_template, sample_placements, synthesize
from .whiten import PsdEstimate, estimate_psd, whiten
from .xcorr import (
    correlation_scores,
    correlation_scores_direct,
    correlation_scores_fft,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvexConfig",
    "DenoisedTrack",
    "adjoint_op",
    "convex_detect",
    "convex_detect_full",
    "denoise",
    "forward_op",
    "DpTable",
    "dp_backtrack",
    "dp_detect",
    "dp_objective_column",
    "dp_solve",
    "GapConfig",
    "GapCurve",
    "estimate_k",
    "gap_curve",
    "permute_measurement",
    "greedy_detect",
    "greedy_path",
    "random_detect",
    "ScoreReport",
    "match_detections",
    "score",
    "ConvergenceError",
    "DetectError",
    "DetectionResult",
    "InfeasibleError",
    "Measurement",
    "PlacementSet",
    "SignalTemplate",
    "ValidationError",
    "as_measurement",
    "as_template",
    "objective_value",
    "validate_placements",
    "SynthConfig",
    "rect_template",
    "sample_placements",
    "synthesize",
    "PsdEstimate",
    "estimate_psd",
    "whiten",
    "correlation_scores",
    "correlation_scores_direct",
    "correlation_scores_fft",
]
