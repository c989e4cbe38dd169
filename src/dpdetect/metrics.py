"""Detection scoring against ground truth.

An estimate counts as a true positive when its start index lies strictly
within half a template length of a truth start, with one-to-one matching.
The matching is a maximum one: a two-pointer sweep over both sorted start
lists, exact for any inputs, separated or not.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def match_detections(
    truth: PlacementSet, est: PlacementSet, length: int
) -> tuple[int, int, int]:
    """Maximum one-to-one matching of estimates to truths within radius ``L/2``.

    A pair is matchable iff ``|est - truth| < L/2`` (strict, real-valued).
    Walking both sorted start lists, matchable heads are matched and
    otherwise the smaller head is dropped: on a line that head can match
    nothing later, and matching the two leftmost matchable starts never
    costs a match. Returns ``(tp, fp, fn)``.
    """
    t = truth.starts.tolist()
    e = est.starts.tolist()
    i = j = tp = 0
    while i < len(e) and j < len(t):
        d = e[i] - t[j]
        if 2 * abs(d) < length:
            tp += 1
            i += 1
            j += 1
        elif d < 0:
            i += 1
        else:
            j += 1
    return tp, len(e) - tp, len(t) - tp


def score(
    truth: PlacementSet, est: PlacementSet, length: int, k_true: int
) -> ScoreReport:
    """Precision, recall, F1 (0/0 cases defined as 0), and ``|k_hat/K - 1|``."""
    if k_true < 1:
        raise ValidationError("k_true must be >= 1")
    tp, fp, fn = match_detections(truth, est, length)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    k_err = abs(len(est) / k_true - 1.0)
    return ScoreReport(
        tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1, k_err=k_err
    )
