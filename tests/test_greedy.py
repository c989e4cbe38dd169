import numpy as np
import pytest

from dpdetect import (
    SynthConfig,
    ValidationError,
    dp_detect,
    greedy_detect,
    greedy_path,
    random_detect,
    rect_template,
    score,
    synthesize,
    validate_placements,
)
from dpdetect.greedy import separated_peaks
from conftest import random_instance


def reference_peaks(values, length, k):
    """One row, one pick at a time: the highest unblocked entry, lowest index on ties."""
    masked = np.array(values, dtype=float)
    picks = []
    for _ in range(k):
        s = int(np.argmax(masked))
        if masked[s] == -np.inf:
            return picks, True
        picks.append(s)
        masked[max(0, s - length + 1) : s + length] = -np.inf
    return picks, False


def test_example_two_rects():
    result = greedy_detect([1, 1, 0, 1, 1, 0], [1, 1], 2)
    np.testing.assert_array_equal(result.placements.starts, [0, 3])
    assert result.objective == 4.0
    assert not result.saturated


def test_example_saturation_dense_pair():
    # scores [3, 4, 3]: the middle pick blocks everything else
    result = greedy_detect([1, 2, 2, 1], [1, 1], 2)
    np.testing.assert_array_equal(result.placements.starts, [1])
    assert result.objective == 4.0
    assert result.k_hat == 1 and result.saturated
    assert dp_detect([1, 2, 2, 1], [1, 1], 2).objective == 6.0


def test_single_pick_equals_dp():
    rng = np.random.default_rng(40)
    for _ in range(50):
        y, x, _ = random_instance(rng)
        assert greedy_detect(y, x, 1).objective == pytest.approx(
            dp_detect(y, x, 1).objective, rel=1e-12
        )


@pytest.mark.parametrize("length", [5, 1])
def test_overflowing_scores_raise_validation_error(length):
    # Finite samples whose scores (L=5) or only their sums (L=1) overflow:
    # no objective of inf.
    with pytest.raises(ValidationError, match="scores overflow float64"):
        greedy_detect([1e308] * 50, rect_template(length), 2)


def test_tie_break_lowest_index():
    result = greedy_detect([1, 1, 0, 1, 1, 0], [1, 1], 1)
    np.testing.assert_array_equal(result.placements.starts, [0])


def test_picks_separated_and_scores_non_increasing():
    rng = np.random.default_rng(41)
    for _ in range(50):
        y, x, k = random_instance(rng)
        picks, pick_scores, _ = greedy_path(y, x, k)
        if len(picks) > 1:
            assert np.diff(sorted(picks)).min() >= len(x)
            assert all(a >= b for a, b in zip(pick_scores, pick_scores[1:]))


def test_objective_recomputable():
    rng = np.random.default_rng(42)
    y = rng.standard_normal(120)
    x = rng.standard_normal(10)
    result = greedy_detect(y, x, 4)
    from dpdetect import objective_value

    assert result.objective == pytest.approx(
        objective_value(y, x, result.placements), rel=1e-12
    )


def test_random_detect_always_valid():
    rng = np.random.default_rng(43)
    for _ in range(30):
        y, x, k = random_instance(rng)
        result = random_detect(y, x, k, rng)
        assert validate_placements(result.placements, len(y), len(x))
        assert result.k_hat == k


def test_random_detect_unique_configuration():
    rng = np.random.default_rng(44)
    result = random_detect(np.ones(10), np.ones(5), 2, rng)
    np.testing.assert_array_equal(result.placements.starts, [0, 5])


def test_random_baseline_scores_well_below_detectors():
    # 100 trials at low noise: random placements miss most occurrences.
    tpl = rect_template(30)
    f1 = {"dp": 0.0, "greedy": 0.0, "random": 0.0}
    trials = 100
    for seed in range(trials):
        cfg = SynthConfig(n_samples=300, length=30, k=6, sigma2=0.5, seed=seed)
        rng = np.random.default_rng(seed)
        y, truth = synthesize(cfg, tpl, rng)
        f1["dp"] += score(truth, dp_detect(y, tpl, 6).placements, 30, 6).f1
        f1["greedy"] += score(truth, greedy_detect(y, tpl, 6).placements, 30, 6).f1
        f1["random"] += score(truth, random_detect(y, tpl, 6, rng).placements, 30, 6).f1
    for key in f1:
        f1[key] /= trials
    assert f1["random"] < f1["greedy"] - 0.3
    assert f1["random"] < f1["dp"] - 0.3


def test_block_peaks_match_per_row_reference():
    rng = np.random.default_rng(45)
    saturated_rows = 0
    for trial in range(400):
        rows = int(rng.integers(1, 8))
        n_pos = int(rng.integers(1, 50))
        length = int(rng.integers(1, 12))
        k = int(rng.integers(1, 9))
        if trial % 2:
            values = rng.integers(-2, 3, (rows, n_pos)).astype(float)  # ties
        else:
            values = rng.standard_normal((rows, n_pos))
        if trial % 5 == 0:
            values[rng.random((rows, n_pos)) < 0.3] = -np.inf  # blocked on entry
        before = values.copy()
        picks, saturated = separated_peaks(values, length, k)
        assert np.array_equal(values, before)
        assert picks.shape == (rows, k) and saturated.shape == (rows,)
        for t in range(rows):
            expected, full = reference_peaks(values[t], length, k)
            assert picks[t, : len(expected)].tolist() == expected
            assert (picks[t, len(expected) :] == -1).all()
            assert saturated[t] == full
            assert separated_peaks(values[t], length, k) == (expected, full)
            saturated_rows += full
    assert saturated_rows > 100
