"""Occurrence-count estimation via a permutation-null gap statistic.

The exact objective is non-decreasing in the occurrence count K, with the
marginal gain dropping sharply once K passes the true count. To locate
that knee statistically, the objective curve on the measurement is
compared against its average over random permutations of the measurement:
permuting destroys the planted structure while preserving the value
multiset, giving a signal-free null with identical marginals. The
estimate is the K maximizing the separation between the two curves.

The data's curve and the null curves come from one computation. The score
vectors of the data (row 0) and of each permutation (rows ``1..perms``)
are stacked into blocks, and each block yields every row's whole curve in
one pass. For the dynamic program, :func:`~dpdetect.dp.dp_final_rows`
sweeps the block position-major, keeping the last ``min(L, M+1)`` rows
of the recurrence and no table; its values equal one ``dp_solve`` per row
bit for bit. A block holds every row unless the rows would pass
:data:`dpdetect.dp.TABLE_BYTES_LIMIT`; then it holds as many as
:func:`~dpdetect.dp.final_rows_block` lets fit, and a measurement whose
single column does not fit is refused before anything is allocated. For
greedy, a row's curve is the running sum of its pick scores, blocks hold
:func:`~dpdetect.greedy.block_rows` rows, and one
:func:`~dpdetect.greedy.separated_peaks` call picks each block.
:func:`estimate_k` then detects at the gap-maximizing count with
:func:`~dpdetect.dp.dp_detect` or :func:`~dpdetect.greedy.greedy_detect`,
after the blocks are gone; the dp table it fills stops at that count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dp import check_table, dp_detect, dp_final_rows, final_rows_block
from .greedy import block_rows, greedy_detect, separated_peaks
from .model import (
    InfeasibleError,
    Measurement,
    ValidationError,
    as_measurement,
    as_template,
    check_seed,
)
from .xcorr import correlation_scores

__all__ = ["GapConfig", "GapCurve", "permute_measurement", "gap_curve", "estimate_k"]

DETECTORS = ("dp", "greedy")

# Score rows a dp block stages C-ordered before one copy into its transposed
# stack, at most a quarter of the block. Written one row at a time, the
# stack takes one element per cache line, and its cost jumps wherever the
# stride is a multiple of 512 bytes. At M = 5981, rows written one at a
# time filled 64, 120-129 and 256 columns in 3.0, 1.5-2.4 and 16.9 ms, and
# 128 columns in 7.4 ms; staged 16 at a time, in 0.9, 1.7-1.8 and 3.9 ms
# (median of 15, 2-core Xeon). 32 rows were 0.3 ms faster at 121 columns,
# but unknown_k's peak RSS rose 1.4 MiB against 0.9 MiB.
_STAGE_ROWS = 16

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapConfig:
    """Candidate range ``1..k_max``, permutation count and null seed."""

    k_max: int
    perms: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.k_max < 1:
            raise ValidationError("k_max must be >= 1")
        if self.perms < 1:
            raise ValidationError("need at least one permutation")
        check_seed(self.seed)


@dataclass(frozen=True)
class GapCurve:
    """Objective, null mean/spread, and gap ``actual - null_mean`` for each
    K in ``1..k_max``.

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


def _greedy_curves(rows, length: int, k_max: int) -> np.ndarray:
    """Greedy objective curve of each row of a ``(T, M)`` score block.

    Entry ``j-1`` of a row's curve sums the scores of its first ``j``
    picks; past the last pick of a saturated row it stays at their total.
    """
    picks, _ = separated_peaks(rows, length, k_max)
    gains = np.take_along_axis(rows, np.maximum(picks, 0), axis=1)
    gains[picks < 0] = 0.0
    return np.cumsum(gains, axis=1)


def _curves(y, x, cfg, detector):
    """Objective curve of the data (row 0) and of each permutation, in order."""
    # Independent per-permutation streams; reduction order fixed by index.
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.perms)
    measurements = chain(
        [y], (permute_measurement(y, np.random.default_rng(c)) for c in children)
    )
    n_rows = cfg.perms + 1
    curves = np.empty((n_rows, cfg.k_max))
    # M < 1 is refused by the first correlation_scores call.
    n_pos = max(y.length - x.length + 1, 0)
    # Row c of the stack holds measurement c's scores. dp_final_rows sweeps
    # one score vector per column, so for dp the stack is the transpose of
    # a C-ordered (M, B) array; separated_peaks picks one per row.
    if detector == "dp":
        block = final_rows_block(n_pos, x.length, cfg.k_max, n_rows)
        stack = np.empty((n_pos, block)).T
        staged = min(_STAGE_ROWS, block // 4)
    else:
        block = min(block_rows(n_pos), n_rows)
        stack = np.empty((block, n_pos))
        staged = 0
    # Rows are written into the stage, and a staged part copied over.
    stage = np.empty((staged, n_pos)) if staged > 1 else stack
    log.debug(
        "%s curves: B=%d, blocks=%d, M=%d", detector, block, -(-n_rows // block), n_pos
    )
    for lo in range(0, n_rows, block):
        width = min(block, n_rows - lo)
        for first in range(0, width, len(stage)):
            part = stage[: width - first]
            for row in part:
                row[:] = correlation_scores(next(measurements), x)
            if stage is not stack:
                stack[first : first + len(part)] = part
        if detector == "dp":
            rows = dp_final_rows(stack[:width].T, x.length, cfg.k_max)[:, 1:]
        else:
            rows = _greedy_curves(stack[:width], x.length, cfg.k_max)
        curves[lo : lo + width] = rows
    return curves


def gap_curve(y, x, cfg: GapConfig, detector: str = "dp") -> GapCurve:
    """Objective, null and gap curves of ``y`` for K in ``1..cfg.k_max``."""
    y = as_measurement(y)
    x = as_template(x)
    if detector not in DETECTORS:
        raise ValidationError(f"unknown detector {detector!r}")
    if detector == "dp":
        # The table's refusals come before any scoring.
        check_table(y.length, x.length, cfg.k_max)
    curves = _curves(y, x, cfg, detector)
    actual, null = curves[0].copy(), curves[1:]

    # Infeasible counts carry the -inf sentinel; keep them out of the moments.
    ok = np.isfinite(null).all(axis=0)
    null_mean = np.full(cfg.k_max, -np.inf)
    null_std = np.full(cfg.k_max, np.nan)
    if ok.any():
        null_mean[ok] = null[:, ok].mean(axis=0)
        null_std[ok] = null[:, ok].std(axis=0)

    # Only infeasible counts are -inf; +inf from finite scores is overflow.
    if any(np.isposinf(a).any() for a in (curves, null_mean)):
        raise ValidationError("sums of scores overflow float64 in the gap curve")
    feasible = np.isfinite(actual) & np.isfinite(null_mean)
    if not feasible.any():
        raise InfeasibleError("no feasible occurrence count in 1..k_max")
    gap = np.full(cfg.k_max, np.nan)
    gap[feasible] = actual[feasible] - null_mean[feasible]
    return GapCurve(
        k=np.arange(1, cfg.k_max + 1),
        actual=actual,
        null_mean=null_mean,
        null_std=null_std,
        gap=gap,
        perms=cfg.perms,
        k_max=cfg.k_max,
        method=detector,
    )


def estimate_k(y, x, cfg: GapConfig, detector: str = "dp"):
    """Gap-maximizing occurrence count plus the detection at that count.

    Ties break toward the smallest K. The detection is ``dp_detect`` or
    ``greedy_detect`` at that count. Returns ``(k_hat, DetectionResult)``.
    """
    y = as_measurement(y)
    x = as_template(x)
    curve = gap_curve(y, x, cfg, detector)
    ranked = np.where(np.isnan(curve.gap), -np.inf, curve.gap)
    k_hat = int(np.argmax(ranked)) + 1
    detect = dp_detect if detector == "dp" else greedy_detect
    return k_hat, detect(y, x, k_hat)
