import numpy as np
import pytest

from dpdetect import (
    DetectionResult,
    Measurement,
    PlacementSet,
    SignalTemplate,
    ValidationError,
    correlation_scores,
    objective_value,
    validate_placements,
)


def test_validate_boundary_gap_equal_length():
    assert validate_placements(PlacementSet([0, 3], 3), 6, 3)


def test_validate_gap_below_length():
    assert not validate_placements(PlacementSet([0, 2], 3), 6, 3)


def test_validate_well_separated_needs_double_gap():
    assert not validate_placements(PlacementSet([0, 3], 3), 6, 3, well_separated=True)
    assert validate_placements(PlacementSet([0, 6], 3), 9, 3, well_separated=True)


def test_validate_bounds():
    assert not validate_placements(PlacementSet([5], 3), 6, 3)
    assert not validate_placements(PlacementSet([-1, 4], 3), 6, 3)
    assert validate_placements(PlacementSet([], 3), 6, 3)


def test_objective_two_rect_windows():
    p = PlacementSet([0, 3], 2)
    assert objective_value([1, 1, 0, 1, 1, 0], [1, 1], p) == 4.0


def test_objective_empty_sum():
    assert objective_value([3.0, -1.0, 2.0], [1, 1], PlacementSet([], 2)) == 0.0


def test_objective_zero_measurement():
    p = PlacementSet([0, 4], 3)
    assert objective_value(np.zeros(8), [1.0, 2.0, 3.0], p) == 0.0


def test_objective_rejects_invalid_placements():
    with pytest.raises(ValidationError):
        objective_value([1, 1, 1, 1], [1, 1], PlacementSet([0, 1], 2))


def test_objective_additive_over_disjoint_sets():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(60)
    x = rng.standard_normal(5)
    left = PlacementSet([2, 9], 5)
    right = PlacementSet([20, 31, 44], 5)
    both = PlacementSet([2, 9, 20, 31, 44], 5)
    total = objective_value(y, x, left) + objective_value(y, x, right)
    assert objective_value(y, x, both) == pytest.approx(total, abs=1e-12)


def test_objective_matches_correlation_scores():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(80)
    x = rng.standard_normal(7)
    starts = [1, 12, 30, 55]
    track = correlation_scores(y, x)
    expected = sum(track.scores[s] for s in starts)
    got = objective_value(y, x, PlacementSet(starts, 7))
    assert got == pytest.approx(expected, rel=1e-12)


def test_placements_must_increase():
    with pytest.raises(ValidationError):
        PlacementSet([3, 3], 2)
    with pytest.raises(ValidationError):
        PlacementSet([5, 2], 2)


def test_types_reject_non_finite():
    with pytest.raises(ValidationError):
        SignalTemplate([1.0, np.nan])
    with pytest.raises(ValidationError):
        Measurement([np.inf, 0.0])


def test_placements_copy_their_input_once_and_freeze():
    source = np.array([1, 5, 9])
    p = PlacementSet(source, 2)
    source[0] = 4
    assert p.starts.tolist() == [1, 5, 9] and p.starts.dtype == np.int64
    with pytest.raises(ValueError):
        p.starts[0] = 0
    assert PlacementSet([], 3).starts.size == 0
    assert PlacementSet((7,), 3).starts.tolist() == [7]


def test_types_are_immutable():
    t = SignalTemplate([1.0, 2.0])
    with pytest.raises(ValueError):
        t.samples[0] = 5.0
    m = Measurement([0.0, 1.0])
    with pytest.raises(ValueError):
        m.samples[0] = 5.0


def test_detection_result_checks_k_hat():
    with pytest.raises(ValidationError):
        DetectionResult(PlacementSet([0], 2), 1.0, "dp", k_hat=2)
    with pytest.raises(ValidationError):
        DetectionResult(PlacementSet([0], 2), 1.0, "nope", k_hat=1)
