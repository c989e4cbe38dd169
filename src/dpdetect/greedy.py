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

# Byte budget of one float64 block of score rows, in run_sweep's blocks of
# trials and in the gap statistic's greedy nulls (see block_rows). The DP
# fill keeps two such blocks (more when it folds) and greedy one padded
# copy. Larger blocks spread each kernel's fixed cost over more trials. The
# paper_sweep benchmark on a 2-core Xeon, numpy 2.4, by budget (rows per
# block at M=271): item_s_p50 over 20 s runs, seeds 71-74, read
# 0.114-0.173 s at 128 KiB (60 rows), 0.106-0.126 at 192 KiB (90) and
# 0.108-0.152 at 256 KiB (120), with peak RSS 39.11-39.18, 39.37-39.47
# and 39.92-39.97 MiB. tracemalloc peaks of one 200-trial noise level:
# 0.24 MiB at 32 KiB, 0.46 at 64, 0.75 at 128, 1.12 at 192, 1.46 at 256
# and 2.43 for the whole level as one block.
SCORE_BLOCK_BYTES = 192 << 10


def block_rows(n_pos: int) -> int:
    """Score rows of ``n_pos`` candidates per block under :data:`SCORE_BLOCK_BYTES`.

    90 at M=271; a long measurement falls to one row per block.
    """
    return max(1, SCORE_BLOCK_BYTES // (8 * (n_pos + 1)))


def separated_peaks(values, length: int, k: int):
    """Up to ``k`` largest entries per row whose indices lie at least ``length`` apart.

    ``values`` is a ``(T, M)`` block of rows. Each pick takes every row's
    ``argmax`` at once (ties go to the lowest index) and blocks the indices
    ``s - (length-1) .. s + (length-1)`` around it; no row holds more than
    ``ceil(M / length)`` picks, so it stops there. Returns ``(picks,
    saturated)``: a ``(T, k)`` int64 array of picks in selection order, -1
    past a row's last pick, and a ``(T,)`` bool array set for the rows in
    which every remaining index was blocked before ``k`` picks. A 1-D
    ``values`` is one row and gives its picks as a list and its flag as a
    bool.
    """
    values = np.asarray(values, dtype=float)
    rows = values.reshape(-1, values.shape[-1])
    n_rows, n_pos = rows.shape
    # Pad each side with at least one blocked entry: every pick's window
    # s - (length-1) .. s + (length-1) stays in range, and the argmax of a
    # row whose entries are all blocked lands in its left pad.
    pad = max(length - 1, 1)
    masked = np.full((n_rows, n_pos + 2 * pad), -np.inf)
    masked[:, pad : pad + n_pos] = rows
    # Flat indices of the window around index 0 of each row.
    windows = np.arange(n_rows)[:, np.newaxis] * masked.shape[1] + np.arange(1 - length, length)
    flat = masked.reshape(-1)
    fit = min(k, -(-n_pos // length))
    # A block keeps k columns; those past fit stay blocked.
    picks = np.zeros((n_rows, k if values.ndim > 1 else fit), dtype=np.int64)
    for i in range(fit):
        s = masked.argmax(axis=1)
        if not np.count_nonzero(s):  # every row's argmax is in its left pad
            break
        picks[:, i] = s
        # A saturated row's window, around s = 0, wraps into the previous
        # row's right pad and writes only entries that are already blocked.
        flat[windows + s[:, np.newaxis]] = -np.inf
    blocked = picks < pad  # from a row's first argmax in its pad on
    saturated = np.logical_or.reduce(blocked, axis=1)
    picks = np.where(blocked, -1, picks - pad)
    if values.ndim == 1:
        return [s for s in picks[0].tolist() if s >= 0], bool(saturated[0]) or k > fit
    return picks, saturated


def greedy_path(y, x, k: int) -> tuple[list[int], list[float], bool]:
    """Picks in selection order, their scores, and a saturation flag.

    Stops early (saturated) when no eligible position remains. The first
    ``j`` picks are exactly the greedy solution for ``j`` occurrences, so a
    single call serves every smaller count (the gap statistic relies on this).
    Ties go to the lowest start index.
    """
    y = as_measurement(y)
    x = as_template(x)
    if k < 1:
        raise ValidationError("need at least one pick")
    scores = correlation_scores(y, x)
    picks, saturated = separated_peaks(scores, x.length, k)
    return picks, [float(scores[s]) for s in picks], saturated


def greedy_detect(y, x, k: int) -> DetectionResult:
    """Greedy peak picking under the separation constraint.

    Saturation (fewer than ``k`` eligible positions) is reported via the
    result flag, not raised, so benchmark sweeps can score the partial
    detection as misses. A sum of pick scores that overflows float64
    raises :class:`ValidationError`.
    """
    x = as_template(x)
    picks, pick_scores, saturated = greedy_path(y, x, k)
    objective = float(sum(pick_scores))
    if not np.isfinite(objective):
        raise ValidationError(f"sums of scores overflow float64 at k={len(picks)} picks")
    return DetectionResult(
        placements=PlacementSet(sorted(picks), x.length),
        objective=objective,
        method="greedy",
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
    )
