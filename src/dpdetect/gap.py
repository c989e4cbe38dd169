"""Occurrence-count estimation via a permutation-null gap statistic.

The exact objective is non-decreasing in the occurrence count K, with the
marginal gain dropping sharply once K passes the true count. To locate
that knee statistically, the objective curve on the measurement is
compared against its average over random permutations of the measurement:
permuting destroys the planted structure while preserving the value
multiset, giving a signal-free null with identical marginals. The
estimate is the K maximizing the separation between the two curves.

For the dynamic program the whole curve comes from a single table fill
(the final row already holds the optimum for every K). The data gets one
:func:`~dpdetect.dp.dp_solve`, whose choice bits the detection backtracks.
The permutations need only their final rows, so their score vectors are
stacked as the columns of one block and swept position-major by
:func:`~dpdetect.dp.dp_final_rows`, which keeps the last ``min(L, M+1)``
rows and no table; the values equal one ``dp_solve`` per permutation bit
for bit. All permutations share the block unless their scores and rows
would pass :data:`dpdetect.dp.TABLE_BYTES_LIMIT`, the limit ``dp_solve``
enforces; then the block holds as many as fit, and a measurement whose
single column does not fit is refused before anything is allocated. The
nulls are computed before the data's table is filled, so the table and
the block are never alive at the same time. The greedy curve is the
running sum of pick scores, again from a single pass; the greedy nulls
stack their score rows into blocks of
:func:`~dpdetect.greedy.block_rows` rows, each picked by one
:func:`~dpdetect.greedy.separated_peaks` call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import dp, greedy
from .dp import check_table, dp_backtrack, dp_final_rows, dp_objective_column, dp_solve
from .greedy import separated_peaks
from .model import (
    DetectionResult,
    InfeasibleError,
    Measurement,
    PlacementSet,
    ValidationError,
    as_measurement,
    as_template,
)
from .xcorr import correlation_scores

__all__ = ["GapConfig", "GapCurve", "permute_measurement", "gap_curve", "estimate_k"]

GAP_SIGNS = ("actual_minus_null", "null_minus_actual")
DETECTORS = ("dp", "greedy")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapConfig:
    """Candidate range, permutation count, and sign convention.

    ``gap_sign="actual_minus_null"`` (default) peaks at the strongest
    evidence of signal; the reversed sign is available for comparison with
    conventions that subtract the other way around.
    """

    k_max: int
    perms: int = 50
    seed: int = 0
    gap_sign: str = "actual_minus_null"

    def __post_init__(self):
        if self.k_max < 1:
            raise ValidationError("k_max must be >= 1")
        if self.perms < 1:
            raise ValidationError("need at least one permutation")
        if self.gap_sign not in GAP_SIGNS:
            raise ValidationError(f"unknown gap_sign {self.gap_sign!r}")


@dataclass(frozen=True)
class GapCurve:
    """Objective, null mean/spread, and gap for each K in ``1..k_max``.

    Entries are -inf (and gap NaN) where K placements cannot fit; such K
    are excluded from the argmax.
    """

    k: np.ndarray
    actual: np.ndarray
    null_mean: np.ndarray
    null_std: np.ndarray
    gap: np.ndarray
    perms: int
    k_max: int
    method: str


def permute_measurement(y, rng: np.random.Generator) -> Measurement:
    """Uniformly random permutation of the samples (value multiset kept)."""
    y = as_measurement(y)
    return Measurement(rng.permutation(y.samples))


def _objective_curve(y, x, k_max: int, detector: str):
    """Objective value per K in 1..k_max, plus the payload for backtracking."""
    if detector == "dp":
        table = dp_solve(y, x, k_max)
        return dp_objective_column(table)[1:], table
    if detector == "greedy":
        scores = correlation_scores(y, x).scores
        picks, curve = _greedy_curves(scores[np.newaxis], x.length, k_max)
        return curve[0], picks[0][picks[0] >= 0].tolist()


def _greedy_curves(rows, length: int, k_max: int):
    """Greedy picks and objective curve of each row of a ``(T, M)`` score block.

    Entry ``j-1`` of a row's curve sums the scores of its first ``j``
    picks; past the last pick of a saturated row it stays at their total.
    """
    picks, _ = separated_peaks(rows, length, k_max)
    gains = np.take_along_axis(rows, np.maximum(picks, 0), axis=1)
    gains[picks < 0] = 0.0
    return picks, np.cumsum(gains, axis=1)


def gap_curve(y, x, cfg: GapConfig, detector: str = "dp") -> GapCurve:
    curve, _ = _gap_curve_full(y, x, cfg, detector)
    return curve


def _gap_curve_full(y, x, cfg, detector):
    y = as_measurement(y)
    x = as_template(x)
    if detector not in DETECTORS:
        raise ValidationError(f"unknown detector {detector!r}")
    if detector == "dp":
        # The table's refusals come before any null work.
        check_table(y.length, x.length, cfg.k_max)
    null = _null_curves(y, x, cfg, detector)
    actual, payload = _objective_curve(y, x, cfg.k_max, detector)

    # Infeasible counts carry the -inf sentinel; keep them out of the moments.
    ok = np.isfinite(null).all(axis=0)
    null_mean = np.full(cfg.k_max, -np.inf)
    null_std = np.full(cfg.k_max, np.nan)
    if ok.any():
        null_mean[ok] = null[:, ok].mean(axis=0)
        null_std[ok] = null[:, ok].std(axis=0)

    # Only infeasible counts are -inf; +inf from finite scores is overflow.
    if any(np.isposinf(a).any() for a in (actual, null, null_mean)):
        raise ValidationError("sums of scores overflow float64 in the gap curve")
    feasible = np.isfinite(actual) & np.isfinite(null_mean)
    if not feasible.any():
        raise InfeasibleError("no feasible occurrence count in 1..k_max")
    gap = np.full(cfg.k_max, np.nan)
    if cfg.gap_sign == "actual_minus_null":
        gap[feasible] = actual[feasible] - null_mean[feasible]
    else:
        gap[feasible] = null_mean[feasible] - actual[feasible]
    curve = GapCurve(
        k=np.arange(1, cfg.k_max + 1),
        actual=actual,
        null_mean=null_mean,
        null_std=null_std,
        gap=gap,
        perms=cfg.perms,
        k_max=cfg.k_max,
        method=detector,
    )
    return curve, payload


def _null_block_size(n_pos: int, length: int, k_max: int, perms: int) -> int:
    """Permutations per sweep block: all of them, unless the table limit bites."""
    limit = dp.TABLE_BYTES_LIMIT
    if limit is None:
        return perms
    slots = min(length, n_pos + 1)
    column_bytes = 8 * (n_pos + slots * (k_max + 1) + k_max)
    if column_bytes > limit:
        raise ValidationError(
            f"one null column for M={n_pos} candidates and k_max={k_max} needs "
            f"{column_bytes} bytes, above the limit of {limit} bytes "
            "(a quarter of physical memory)"
        )
    return min(limit // column_bytes, perms)


def _null_curves(y, x, cfg, detector):
    """Objective curve per permutation, one row each, in permutation order."""
    # Independent per-permutation streams; reduction order fixed by index.
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.perms)
    permuted = (permute_measurement(y, np.random.default_rng(c)) for c in children)
    null = np.empty((cfg.perms, cfg.k_max))
    n_pos = y.length - x.length + 1
    # Row c of the stack holds permutation c's scores. dp_final_rows sweeps
    # one score vector per column, so for dp the stack is the transpose of
    # a C-ordered (M, B) array; separated_peaks picks one per row.
    if detector == "dp":
        block = _null_block_size(n_pos, x.length, cfg.k_max, cfg.perms)
        stack = np.empty((n_pos, block)).T
    else:
        block = min(greedy.block_rows(n_pos), cfg.perms)
        stack = np.empty((block, n_pos))
    log.debug(
        "%s null: B=%d, blocks=%d, M=%d", detector, block, -(-cfg.perms // block), n_pos
    )
    for lo in range(0, cfg.perms, block):
        width = min(block, cfg.perms - lo)
        for c in range(width):
            stack[c] = correlation_scores(next(permuted), x).scores
        if detector == "dp":
            curves = dp_final_rows(stack[:width].T, x.length, cfg.k_max)[:, 1:]
        else:
            _, curves = _greedy_curves(stack[:width], x.length, cfg.k_max)
        null[lo : lo + width] = curves
    return null


def estimate_k(y, x, cfg: GapConfig, detector: str = "dp"):
    """Gap-maximizing occurrence count plus the detection at that count.

    Ties break toward the smallest K. The detection re-uses the table
    backtrack (dp) or the pick prefix (greedy); no extra solve is run.
    Returns ``(k_hat, DetectionResult)``.
    """
    y = as_measurement(y)
    x = as_template(x)
    curve, payload = _gap_curve_full(y, x, cfg, detector)
    ranked = np.where(np.isnan(curve.gap), -np.inf, curve.gap)
    k_hat = int(np.argmax(ranked)) + 1

    if detector == "dp":
        placements = dp_backtrack(payload, k_hat)
        result = DetectionResult(
            placements=placements,
            objective=float(curve.actual[k_hat - 1]),
            method="dp",
            k_hat=k_hat,
        )
    else:
        picks = payload[:k_hat]
        result = DetectionResult(
            placements=PlacementSet(sorted(picks), x.length),
            objective=float(curve.actual[k_hat - 1]),
            method="greedy",
            k_hat=len(picks),
            saturated=len(picks) < k_hat,
        )
    return k_hat, result
