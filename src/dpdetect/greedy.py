"""Baseline detectors: iterative correlation peak picking and random placement.

The greedy detector repeatedly takes the highest remaining correlation
score whose start index is at least ``L`` away from every previous pick.
It is fast and works well for well-separated occurrences but is myopic in
dense regimes. The random baseline places occurrences uniformly among
valid separated configurations and anchors the low end of the benchmark.
"""

from __future__ import annotations

import numpy as np

from .model import (
    DetectionResult,
    PlacementSet,
    ValidationError,
    as_measurement,
    as_template,
    objective_value,
)
from .synth import SynthConfig, sample_placements
from .xcorr import correlation_scores

__all__ = ["greedy_path", "greedy_detect", "random_detect"]


def separated_peaks(values, length: int, k: int) -> tuple[list[int], bool]:
    """Up to ``k`` largest entries whose indices lie at least ``length`` apart.

    Returns the picks in selection order and a saturation flag, set when
    every remaining index was blocked before ``k`` picks. Ties go to the
    lowest index.
    """
    masked = np.array(values, dtype=float)
    picks: list[int] = []
    for _ in range(k):
        s = int(np.argmax(masked))
        if masked[s] == -np.inf:
            return picks, True
        picks.append(s)
        masked[max(0, s - length + 1) : s + length] = -np.inf
    return picks, False


def greedy_path(y, x, k: int) -> tuple[list[int], list[float], bool]:
    """Picks in selection order, their scores, and a saturation flag.

    Stops early (saturated) when no eligible position remains. The first
    ``j`` picks are exactly the greedy solution for ``j`` occurrences, so a
    single call serves every smaller count (used by the gap statistic).
    Ties go to the lowest start index.
    """
    y = as_measurement(y)
    x = as_template(x)
    if k < 1:
        raise ValidationError("need at least one pick")
    scores = correlation_scores(y, x).scores
    picks, saturated = separated_peaks(scores, x.length, k)
    return picks, [float(scores[s]) for s in picks], saturated


def greedy_detect(y, x, k: int) -> DetectionResult:
    """Greedy peak picking under the separation constraint.

    Saturation (fewer than ``k`` eligible positions) is reported via the
    result flag, not raised, so benchmark sweeps can score the partial
    detection as misses.
    """
    x = as_template(x)
    picks, pick_scores, saturated = greedy_path(y, x, k)
    return DetectionResult(
        placements=PlacementSet(sorted(picks), x.length),
        objective=float(sum(pick_scores)),
        method="greedy",
        k_hat=len(picks),
        saturated=saturated,
    )


def random_detect(y, x, k: int, rng: np.random.Generator) -> DetectionResult:
    """Uniformly random valid placements, scored like any other detector.

    Uses the same rejection sampler as synthesis with the plain separation
    regime.
    """
    y = as_measurement(y)
    x = as_template(x)
    cfg = SynthConfig(
        n_samples=y.length, length=x.length, k=k, sigma2=0.0, separation="arbitrary"
    )
    placements = sample_placements(cfg, rng)
    return DetectionResult(
        placements=placements,
        objective=objective_value(y, x, placements),
        method="random",
        k_hat=k,
    )
