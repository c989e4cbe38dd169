"""Detection scoring against ground truth.

An estimate counts as a true positive when its start index lies strictly
within half a template length of a truth start, with one-to-one matching.
The matching is a maximum one: a two-pointer sweep over both sorted start
lists, exact for any inputs, separated or not. :func:`match_rows` runs the
sweep in lockstep over a block of padded rows; :func:`match_detections`
is its one-row case, and :func:`score_rows` and :func:`score` share one
set of formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PlacementSet, ValidationError

__all__ = ["ScoreReport", "match_detections", "score"]


@dataclass(frozen=True)
class ScoreReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    k_err: float


def match_rows(truth, est, length) -> np.ndarray:
    """True positives per row of :func:`match_detections`, for a block.

    ``truth`` and ``est`` are ``(R, kt)`` and ``(R, ke)`` int blocks whose
    rows hold ascending starts after any ``-1`` padding (``np.sort`` of a
    row padded with ``-1`` has this form). Every row runs the two-pointer
    sweep; one step advances the heads of all open rows at once, so the
    block takes at most ``kt + ke`` steps.
    """
    truth = np.asarray(truth, dtype=np.int64)
    est = np.asarray(est, dtype=np.int64)
    n_rows = truth.shape[0]
    # Flat positions of each row's heads and ends. The appended entries keep
    # the heads of a finished last row in range.
    t_end = np.arange(1, n_rows + 1) * truth.shape[1]
    e_end = np.arange(1, n_rows + 1) * est.shape[1]
    t_at = t_end - np.count_nonzero(truth >= 0, axis=1)
    e_at = e_end - np.count_nonzero(est >= 0, axis=1)
    t_flat = np.append(truth, 0)
    e_flat = np.append(est, 0)
    tp = np.zeros(n_rows, dtype=np.int64)
    while True:
        live = (t_at < t_end) & (e_at < e_end)
        if not live.any():
            return tp
        d = e_flat[e_at] - t_flat[t_at]
        hit = live & (2 * np.abs(d) < length)
        drop_est = live & (d < 0) | hit
        tp += hit
        e_at += drop_est
        t_at += live & ~drop_est | hit


def match_detections(
    truth: PlacementSet, est: PlacementSet, length: int
) -> tuple[int, int, int]:
    """Maximum one-to-one matching of estimates to truths within radius ``L/2``.

    A pair is matchable iff ``|est - truth| < L/2`` (strict, real-valued).
    Walking both sorted start lists, matchable heads are matched and
    otherwise the smaller head is dropped: on a line that head can match
    nothing later, and matching the two leftmost matchable starts never
    costs a match. Returns ``(tp, fp, fn)``. The one-row case of
    :func:`match_rows`.
    """
    tp = int(match_rows(truth.starts[np.newaxis], est.starts[np.newaxis], length)[0])
    return tp, len(est) - tp, len(truth) - tp


def _rates(tp, n_est, n_truth, k_true):
    """``(f1, recall, precision, k_err)``, 0/0 cases defined as 0."""
    precision = np.divide(tp, n_est, out=np.zeros(np.shape(tp)), where=n_est > 0)
    recall = np.divide(tp, n_truth, out=np.zeros(np.shape(tp)), where=n_truth > 0)
    total = precision + recall
    f1 = np.divide(
        2.0 * precision * recall, total, out=np.zeros(np.shape(tp)), where=total > 0
    )
    return f1, recall, precision, np.abs(n_est / k_true - 1.0)


def score_rows(truth, est, length: int, k_true: int) -> np.ndarray:
    """:func:`score` of each row of padded blocks, as described in
    :func:`match_rows`: an ``(R, 4)`` array of F1, recall, precision and
    ``k_err`` per row, equal to ``score``'s bit for bit."""
    if k_true < 1:
        raise ValidationError("k_true must be >= 1")
    tp = match_rows(truth, est, length)
    n_est = np.count_nonzero(np.asarray(est) >= 0, axis=1)
    n_truth = np.count_nonzero(np.asarray(truth) >= 0, axis=1)
    return np.stack(_rates(tp, n_est, n_truth, k_true), axis=1)


def score(
    truth: PlacementSet, est: PlacementSet, length: int, k_true: int
) -> ScoreReport:
    """Precision, recall, F1 (0/0 cases defined as 0), and ``|k_hat/K - 1|``."""
    if k_true < 1:
        raise ValidationError("k_true must be >= 1")
    tp, fp, fn = match_detections(truth, est, length)
    f1, recall, precision, k_err = (
        float(v) for v in _rates(tp, tp + fp, tp + fn, k_true)
    )
    return ScoreReport(
        tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1, k_err=k_err
    )
