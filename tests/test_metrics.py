import itertools

import numpy as np
import pytest

from dpdetect import PlacementSet, match_detections, score


def exhaustive_tp(truth, est, length):
    """Best one-to-one matching by trying every assignment (oracle)."""
    small = list(truth)
    big = list(est)
    if len(small) > len(big):
        small, big = big, small
    best = 0
    for subset in itertools.permutations(range(len(big)), len(small)):
        tp = sum(
            1 for i, j in enumerate(subset) if abs(small[i] - big[j]) < length / 2
        )
        best = max(best, tp)
    return best


def test_strict_half_length_boundary():
    truth = PlacementSet([100], 30)
    est = PlacementSet([115], 30)
    assert match_detections(truth, est, 30) == (0, 1, 1)


def test_just_inside_radius():
    truth = PlacementSet([100], 30)
    est = PlacementSet([114], 30)
    assert match_detections(truth, est, 30) == (1, 0, 0)


def test_one_to_one_assignment():
    # both estimates sit within 15 of distinct truths
    truth = PlacementSet([0, 30], 30)
    est = PlacementSet([14, 16], 30)
    assert match_detections(truth, est, 30) == (2, 0, 0)


def test_perfect_detection():
    truth = PlacementSet([5, 40, 90], 20)
    rep = score(truth, truth, 20, 3)
    assert rep.precision == rep.recall == rep.f1 == 1.0
    assert rep.k_err == 0.0


def test_half_half_f1():
    truth = PlacementSet([0, 100], 30)
    est = PlacementSet([5, 200], 30)
    rep = score(truth, est, 30, 2)
    assert rep.precision == 0.5 and rep.recall == 0.5
    assert rep.f1 == pytest.approx(0.5)


def test_empty_estimate():
    truth = PlacementSet([0, 50], 20)
    rep = score(truth, PlacementSet([], 20), 20, 2)
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
    assert rep.k_err == 1.0


def test_f1_bounds_and_perfect_iff_no_errors():
    rng = np.random.default_rng(70)
    for _ in range(100):
        k_t = int(rng.integers(1, 5))
        k_e = int(rng.integers(0, 5))
        truth = PlacementSet(np.sort(rng.choice(200, size=k_t, replace=False) * 2), 8)
        est_starts = np.sort(rng.choice(400, size=k_e, replace=False))
        est = PlacementSet(est_starts, 8)
        rep = score(truth, est, 8, k_t)
        assert 0.0 <= rep.f1 <= 1.0
        assert (rep.f1 == 1.0) == (rep.fp == 0 and rep.fn == 0)


def test_tp_symmetric_under_swap():
    rng = np.random.default_rng(71)
    for _ in range(50):
        a = PlacementSet(np.sort(rng.choice(300, size=4, replace=False)), 10)
        b = PlacementSet(np.sort(rng.choice(300, size=6, replace=False)), 10)
        tp_ab, fp_ab, fn_ab = match_detections(a, b, 10)
        tp_ba, fp_ba, fn_ba = match_detections(b, a, 10)
        assert tp_ab == tp_ba
        assert (fp_ab, fn_ab) == (fn_ba, fp_ba)


def test_greedy_matching_is_optimal_for_separated_truths():
    # The two-pointer sweep must agree with exhaustive assignment on
    # separated truths and, as a maximum matching, on unseparated ones too.
    # Nearest-first matching gets the fixed case wrong: it pairs 9 with 5 and
    # strands both 0 and 14.
    assert match_detections(
        PlacementSet([0, 9], 12), PlacementSet([5, 14], 12), 12
    ) == (2, 0, 0)
    assert exhaustive_tp([0, 9], [5, 14], 12) == 2
    rng = np.random.default_rng(72)
    for _ in range(200):
        length = int(rng.integers(2, 10))
        k_t = int(rng.integers(1, 5))
        k_e = int(rng.integers(0, 5))
        gaps = rng.integers(length, length + 12, size=k_t)
        truth_starts = np.cumsum(gaps)
        est_starts = np.sort(rng.choice(100, size=k_e, replace=False))
        truth = PlacementSet(truth_starts, length)
        est = PlacementSet(est_starts, length)
        tp, _, _ = match_detections(truth, est, length)
        assert tp == exhaustive_tp(truth_starts, est_starts, length)
    # Unseparated truths: any starts in a short range.
    for _ in range(200):
        length = int(rng.integers(2, 12))
        k_t = int(rng.integers(1, 6))
        k_e = int(rng.integers(0, 6))
        truth_starts = np.sort(rng.choice(40, size=k_t, replace=False))
        est_starts = np.sort(rng.choice(40, size=k_e, replace=False))
        truth = PlacementSet(truth_starts, length)
        est = PlacementSet(est_starts, length)
        tp, _, _ = match_detections(truth, est, length)
        assert tp == exhaustive_tp(truth_starts, est_starts, length)
