import logging
import tracemalloc

import numpy as np
import pytest

import dpdetect.dp as dp_mod
import dpdetect.gap as gap_mod
import dpdetect.greedy as greedy_mod
from dpdetect import (
    DetectError,
    GapConfig,
    InfeasibleError,
    Measurement,
    SignalTemplate,
    SynthConfig,
    ValidationError,
    dp_backtrack,
    dp_objective_column,
    dp_solve,
    estimate_k,
    gap_curve,
    greedy_path,
    permute_measurement,
    rect_template,
    score,
    synthesize,
)
from dpdetect.dp import dp_final_rows
from dpdetect.xcorr import correlation_scores


def test_permutation_preserves_multiset():
    rng = np.random.default_rng(50)
    y = rng.standard_normal(100)
    p = permute_measurement(y, rng)
    np.testing.assert_array_equal(np.sort(p.samples), np.sort(y))
    assert abs(p.samples.sum() - y.sum()) <= 1e-12 * max(1.0, abs(y.sum()))


def test_permutation_single_sample():
    p = permute_measurement([42.0], np.random.default_rng(0))
    np.testing.assert_array_equal(p.samples, [42.0])


def test_dp_actual_curve_equals_objective_column():
    cfg = SynthConfig(n_samples=120, length=12, k=4, sigma2=1.0, seed=51)
    y, _ = synthesize(cfg, rect_template(12))
    curve = gap_curve(y, rect_template(12), GapConfig(k_max=6, perms=5, seed=1), "dp")
    col = dp_objective_column(dp_solve(y, rect_template(12), 6))
    np.testing.assert_allclose(curve.actual, col[1:], rtol=1e-12)


def test_greedy_curve_is_prefix_cumsum():
    cfg = SynthConfig(n_samples=120, length=12, k=4, sigma2=1.0, seed=52)
    y, _ = synthesize(cfg, rect_template(12))
    curve = gap_curve(y, rect_template(12), GapConfig(k_max=5, perms=5, seed=2), "greedy")
    _, pick_scores, _ = greedy_path(y, rect_template(12), 5)
    np.testing.assert_allclose(curve.actual, np.cumsum(pick_scores), rtol=1e-12)


def test_noiseless_estimate_recovers_true_count():
    tpl = rect_template(30)
    cfg = SynthConfig(n_samples=300, length=30, k=6, sigma2=0.0, seed=53)
    y, truth = synthesize(cfg, tpl)
    k_hat, result = estimate_k(y, tpl, GapConfig(k_max=10, perms=50, seed=53), "dp")
    assert k_hat == 6
    rep = score(truth, result.placements, 30, 6)
    assert rep.f1 == 1.0


def test_k_max_one_returns_one():
    y = np.random.default_rng(54).standard_normal(40)
    k_hat, result = estimate_k(y, rect_template(5), GapConfig(k_max=1, perms=5, seed=0), "dp")
    assert k_hat == 1 and result.k_hat == 1


def test_estimate_deterministic_given_seed():
    cfg = SynthConfig(n_samples=200, length=20, k=4, sigma2=2.0, seed=55)
    y, _ = synthesize(cfg, rect_template(20))
    gcfg = GapConfig(k_max=8, perms=20, seed=7)
    a = estimate_k(y, rect_template(20), gcfg, "dp")
    b = estimate_k(y, rect_template(20), gcfg, "dp")
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1].placements.starts, b[1].placements.starts)


def test_infeasible_counts_excluded_from_argmax():
    # N=60, L=30: only K <= 2 fits; entries beyond stay -inf / NaN.
    cfg = SynthConfig(n_samples=60, length=30, k=2, sigma2=0.0, seed=56)
    y, _ = synthesize(cfg, rect_template(30))
    gcfg = GapConfig(k_max=5, perms=10, seed=3)
    curve = gap_curve(y, rect_template(30), gcfg, "dp")
    assert np.isneginf(curve.actual[2:]).all()
    assert np.isnan(curve.gap[2:]).all()
    k_hat, _ = estimate_k(y, rect_template(30), gcfg, "dp")
    assert k_hat <= 2


def test_all_infeasible_raises():
    # K=1 always fits once N >= L, so the only all-infeasible route is a
    # template longer than the measurement.
    with pytest.raises(DetectError):
        gap_curve(np.ones(4), np.ones(5), GapConfig(k_max=3, perms=2, seed=0), "dp")
    # M < 0: the length check must come before the curve block is allocated.
    for detector in ("dp", "greedy"):
        with pytest.raises(ValidationError, match="shorter than template"):
            gap_curve(np.ones(2), np.ones(5), GapConfig(k_max=3, perms=2, seed=0), detector)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("detector", ["dp", "greedy"])
@pytest.mark.parametrize("k_max", [1, 3])
def test_overflowing_sums_raise_validation_error(detector, k_max):
    # Finite scores of 1e308: at k_max=3 the objectives overflow, at k_max=1
    # only the null mean does. Neither is an infeasible count.
    cfg = GapConfig(k_max=k_max, perms=5, seed=0)
    with pytest.raises(ValidationError, match="scores overflow float64"):
        estimate_k([1e308] * 50, rect_template(1), cfg, detector)


def test_greedy_estimate_reuses_pick_prefix():
    cfg = SynthConfig(n_samples=200, length=20, k=4, sigma2=1.0, seed=58)
    y, _ = synthesize(cfg, rect_template(20))
    gcfg = GapConfig(k_max=8, perms=20, seed=5)
    k_hat, result = estimate_k(y, rect_template(20), gcfg, "greedy")
    picks, _, _ = greedy_path(y, rect_template(20), 8)
    np.testing.assert_array_equal(result.placements.starts, np.sort(picks[:k_hat]))


def test_pure_noise_has_no_sharp_peak():
    # For i.i.d. noise the data curve is itself a null draw, so the mean of
    # the maximal gap stays within a few null spreads of zero.
    rng = np.random.default_rng(59)
    tpl = rect_template(20)
    gcfg = GapConfig(k_max=8, perms=30, seed=60)
    max_gaps = []
    spreads = []
    for _ in range(25):
        y = Measurement(rng.standard_normal(200))
        curve = gap_curve(y, tpl, gcfg, "dp")
        max_gaps.append(np.nanmax(curve.gap))
        spreads.append(curve.null_std.mean())
    assert abs(np.mean(max_gaps)) <= 3.0 * np.mean(spreads)


def _curves_equal(a, b):
    for field in ("k", "actual", "null_mean", "null_std", "gap"):
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field


def _reference_curves(y, x, gcfg):
    """The data's row, then one row per permutation on gap's seed streams,
    each from its own dp_solve."""
    children = np.random.SeedSequence(gcfg.seed).spawn(gcfg.perms)
    measurements = [y] + [permute_measurement(y, np.random.default_rng(c)) for c in children]
    return np.array([
        dp_objective_column(dp_solve(m, x, gcfg.k_max))[1:] for m in measurements
    ])


def _assert_curves_match_reference(monkeypatch, y, x, gcfg):
    """Every curve row of gap_curve and estimate_k equals the reference, bit for bit."""
    rows = []
    real = gap_mod._curves

    def recording(*args):
        rows.append(real(*args))
        return rows[-1]

    monkeypatch.setattr(gap_mod, "_curves", recording)
    curve = gap_curve(y, x, gcfg, "dp")
    k_hat, result = estimate_k(y, x, gcfg, "dp")
    ref = _reference_curves(y, x, gcfg)
    assert len(rows) == 2
    for got in rows:
        assert np.array_equal(got, ref)
    assert np.array_equal(curve.actual, ref[0])
    table = dp_solve(y, x, gcfg.k_max)
    ranked = np.where(np.isnan(curve.gap), -np.inf, curve.gap)
    assert k_hat == int(np.argmax(ranked)) + 1
    assert result.objective == table.best[k_hat]
    assert np.array_equal(result.placements.starts, dp_backtrack(table, k_hat).starts)
    return curve


def test_null_sweep_matches_per_permutation_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(61)
    for trial in range(40):
        length = int(rng.integers(1, 10))
        n = int(rng.integers(length, 120))  # M <= L and infeasible counts
        if trial % 2:
            y = rng.integers(-2, 3, n).astype(float)  # tied scores
            x = np.ones(length)
        else:
            y = rng.standard_normal(n)
            x = rng.standard_normal(length)
        gcfg = GapConfig(k_max=int(rng.integers(1, 9)), perms=int(rng.integers(1, 12)),
                         seed=trial)
        _assert_curves_match_reference(monkeypatch, y, x, gcfg)


def _reference_greedy_curve(y, x, k_max):
    """Running sum of greedy_path's pick scores, held after its last pick."""
    picks, pick_scores, _ = greedy_path(y, x, k_max)
    curve = np.zeros(k_max)
    running = np.cumsum(pick_scores)
    if running.size:
        curve[: running.size] = running
        curve[running.size :] = running[-1]
    return curve, picks


def _reference_greedy_curves(y, x, gcfg):
    """The data's row, then one row per permutation on gap's seed streams,
    each from its own greedy_path."""
    children = np.random.SeedSequence(gcfg.seed).spawn(gcfg.perms)
    measurements = [y] + [permute_measurement(y, np.random.default_rng(c)) for c in children]
    return np.array([_reference_greedy_curve(m, x, gcfg.k_max)[0] for m in measurements])


def test_greedy_null_blocks_match_per_permutation_loop(monkeypatch, caplog):
    rng = np.random.default_rng(66)
    for trial in range(60):
        length = int(rng.integers(1, 10))
        n = int(rng.integers(length, 120))  # M <= L: saturated permutations
        if trial % 2:
            y = Measurement(rng.integers(-2, 3, n).astype(float))  # tied scores
            x = SignalTemplate(np.ones(length))
        else:
            y = Measurement(rng.standard_normal(n))
            x = SignalTemplate(rng.standard_normal(length))
        gcfg = GapConfig(k_max=int(rng.integers(1, 12)), perms=int(rng.integers(1, 12)),
                         seed=trial)
        # Blocks of 1 to 5 rows, or the data and all permutations at once.
        rows = int(rng.integers(1, 7))
        n_pos = n - length + 1
        budget = 8 * (n_pos + 1) * rows if rows < 6 else greedy_mod.SCORE_BLOCK_BYTES
        monkeypatch.setattr(greedy_mod, "SCORE_BLOCK_BYTES", budget)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dpdetect.gap"):
            curves = gap_mod._curves(y, x, gcfg, "greedy")
        n_rows = gcfg.perms + 1
        block = min(rows, n_rows) if rows < 6 else n_rows
        assert f"greedy curves: B={block}, blocks={-(-n_rows // block)}," in caplog.text
        assert np.array_equal(curves, _reference_greedy_curves(y, x, gcfg))
        monkeypatch.undo()
        curve = gap_curve(y, x, gcfg, "greedy")
        k_hat, result = estimate_k(y, x, gcfg, "greedy")
        ref_curve, ref_picks = _reference_greedy_curve(y, x, gcfg.k_max)
        assert np.array_equal(curve.actual, ref_curve)
        assert np.array_equal(result.placements.starts, sorted(ref_picks[:k_hat]))
        assert result.k_hat == len(ref_picks[:k_hat])
        assert result.saturated == (len(ref_picks) < k_hat)


def test_null_block_that_does_not_divide_perms(monkeypatch, caplog):
    y = np.random.default_rng(62).standard_normal(2000)
    x = rect_template(10)
    gcfg = GapConfig(k_max=40, perms=50, seed=8)
    default = gap_curve(y, x, gcfg, "dp")
    # A limit of 1992 * 41 * 9 bytes leaves room for 37 of the 51 columns.
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", 1992 * 41 * 9)
    with caplog.at_level(logging.DEBUG, logger="dpdetect.gap"):
        blocked = _assert_curves_match_reference(monkeypatch, y, x, gcfg)
    assert "dp curves: B=37, blocks=2, M=1991" in caplog.text
    _curves_equal(default, blocked)


def test_null_ring_within_table_bytes_when_template_outlasts_candidates(caplog):
    # M = 11 candidates under an L = 1000 template: L slabs would take
    # 1000 * 4001 * 8 bytes per column, min(L, M+1) = 12 slabs fit the table.
    length, k_max = 1000, 4000
    x = rect_template(length)
    y = np.random.default_rng(67).standard_normal(length + 10)
    table_bytes = 12 * (k_max + 1) * 9
    with caplog.at_level(logging.DEBUG, logger="dpdetect.gap"):
        gap_curve(y, x, GapConfig(k_max=k_max, perms=3, seed=2), "dp")
    assert "dp curves: B=4, blocks=1, M=11" in caplog.text
    scores = correlation_scores(y, x)[:, None]
    tracemalloc.start()
    try:
        rows = dp_final_rows(scores, length, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table_bytes + rows.nbytes
    assert np.array_equal(rows[0], dp_objective_column(dp_solve(y, x, k_max)))


def test_null_column_wider_than_table_still_sweeps(monkeypatch, caplog):
    # M = 1: two ring slabs and the spare row outweigh the two-row table.
    y = np.random.default_rng(68).standard_normal(10)
    gcfg = GapConfig(k_max=600, perms=2, seed=3)
    with caplog.at_level(logging.DEBUG, logger="dpdetect.gap"):
        _assert_curves_match_reference(monkeypatch, y, rect_template(10), gcfg)
    assert "dp curves: B=3, blocks=1, M=1" in caplog.text


def test_only_the_detection_fills_a_table(monkeypatch):
    calls = []
    real = dp_mod.fill_rows

    def counting(scores, length, k_max):
        calls.append((scores.shape, k_max))
        return real(scores, length, k_max)

    monkeypatch.setattr(dp_mod, "fill_rows", counting)
    cases = [
        (SynthConfig(n_samples=2000, length=10, k=12, sigma2=1.0, seed=63),
         GapConfig(k_max=40, perms=30, seed=9)),
        (SynthConfig(n_samples=100, length=10, k=3, sigma2=1.0, seed=57),
         GapConfig(k_max=6, perms=9, seed=4)),
    ]
    for cfg, gcfg in cases:
        y, _ = synthesize(cfg, rect_template(10))
        calls.clear()
        gap_curve(y, rect_template(10), gcfg, "dp")
        assert calls == []  # the data and the nulls are swept
        k_hat, _ = estimate_k(y, rect_template(10), gcfg, "dp")
        # The detection, to k_hat counts, on at most the M candidates: it
        # fills only the windows an optimal set can use.
        [((rows, width), counts)] = calls
        assert rows == 1 and width <= y.length - 9 and counts == k_hat


def test_over_limit_table_refused_before_any_null_score(monkeypatch):
    def no_scores(*args, **kwargs):
        raise AssertionError("a null was scored")

    monkeypatch.setattr(gap_mod, "correlation_scores", no_scores)
    # M = 1, k_max = 600 below. Its config is built first: its 3 x 600 curves
    # fit neither limit.
    gcfg = GapConfig(k_max=600, perms=2, seed=0)
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", dp_mod.table_bytes(91, 9, 10) - 1)
    y = np.random.default_rng(69).standard_normal(100)
    with pytest.raises(ValidationError, match="DP table .* above the limit"):
        estimate_k(y, rect_template(10), GapConfig(k_max=9, perms=5, seed=0), "dp")
    # M = 1, k_max = 600: the 2 x 601-cell table fits, one null column does not.
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", 2 * 601 * 9)
    with pytest.raises(ValidationError, match="one final-row column .* above the limit"):
        estimate_k(y[:10], rect_template(10), gcfg, "dp")


def test_over_limit_curves_refused_before_any_permutation_is_spawned(monkeypatch):
    spawned = []

    class Spy(np.random.SeedSequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    monkeypatch.setattr(np.random, "SeedSequence", Spy)
    # 8 * 6 * 9 bytes of curves: one byte over the limit is refused.
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", 8 * 6 * 9 - 1)
    with pytest.raises(ValidationError, match="gap curve block of 6 rows and k_max=9 needs 432"):
        GapConfig(k_max=9, perms=5, seed=0)
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", 8 * 6 * 9)
    gcfg = GapConfig(k_max=9, perms=5, seed=0)
    assert spawned == []
    y = np.random.default_rng(69).standard_normal(100)
    gap_curve(y, rect_template(10), gcfg, "greedy")
    assert spawned == [1] * 5  # one child per permutation, as it is scored


def test_data_table_and_null_block_never_alive_together():
    # A full table (19992 x 41 cells at 9 bytes) and the curve block (19991 x 31
    # scores plus ring) are each about 5-7 MB; together they would pass 12 MB.
    # The bound keeps that full-table size.
    n, length, k_max, perms = 20000, 10, 40, 30
    y = np.random.default_rng(70).standard_normal(n)
    n_pos = n - length + 1
    table_bytes = (n_pos + 1) * (k_max + 1) * 9
    block_bytes = 8 * perms * (n_pos + length * (k_max + 1) + k_max)
    tracemalloc.start()
    try:
        estimate_k(y, rect_template(length), GapConfig(k_max=k_max, perms=perms, seed=0), "dp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes + block_bytes // 2


def test_null_path_logged(caplog):
    y = np.random.default_rng(64).standard_normal(2000)
    with caplog.at_level(logging.DEBUG, logger="dpdetect.gap"):
        gap_curve(y, rect_template(10), GapConfig(k_max=40, perms=30, seed=1), "dp")
        gap_curve(y[:100], rect_template(10), GapConfig(k_max=6, perms=9, seed=1), "dp")
        gap_curve(y[:100], rect_template(10), GapConfig(k_max=6, perms=9, seed=1), "greedy")
    messages = [r.getMessage() for r in caplog.records if r.name == "dpdetect.gap"]
    assert messages == [
        "dp curves: B=31, blocks=1, M=1991",
        "dp curves: B=10, blocks=1, M=91",
        "greedy curves: B=10, blocks=1, M=91",
    ]


def _assert_concave(values, nondecreasing):
    finite = values[np.isfinite(values)]
    assert np.isfinite(values[: finite.size]).all()  # a prefix
    tol = 1e-9 * np.abs(finite).max()
    assert (np.diff(finite, 2) <= tol).all()
    if nondecreasing:
        assert (np.diff(finite) >= -tol).all()


def test_curves_concave_and_nondecreasing():
    rng = np.random.default_rng(65)
    for trial in range(30):
        length = int(rng.integers(1, 10))
        k_max = int(rng.integers(2, 10))
        if trial % 2:
            n = int(rng.integers(length, 150))  # M <= L and infeasible counts
            y = rng.standard_normal(n)
            x = rng.standard_normal(length)
        else:
            # Non-negative scores with room for one more start beside any
            # k_max - 1 others (M > (k_max - 1)(2L - 1)) make the optimum
            # non-decreasing in K; concavity holds for any scores.
            n = length - 1 + (k_max - 1) * (2 * length - 1) + int(rng.integers(1, 40))
            y = rng.random(n) + (rng.random(n) < 0.1)
            x = rect_template(length)
        curve = gap_curve(y, x, GapConfig(k_max=k_max, perms=6, seed=trial), "dp")
        _assert_concave(curve.actual, trial % 2 == 0)
        _assert_concave(curve.null_mean, trial % 2 == 0)
