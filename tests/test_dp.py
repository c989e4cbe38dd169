import tracemalloc

import numpy as np
import pytest

from dpdetect import (
    InfeasibleError,
    SynthConfig,
    ValidationError,
    dp_backtrack,
    dp_detect,
    dp_objective_column,
    dp_solve,
    greedy_detect,
    objective_value,
    rect_template,
    synthesize,
    validate_placements,
)
from dpdetect import dp as dp_mod
from dpdetect.dp import backtrack_rows, dp_detect_rows, dp_final_rows, fill_rows
from dpdetect.xcorr import correlation_scores
from conftest import brute_force_objective, random_instance


def test_solve_example_two_rects():
    table = dp_solve([1, 1, 0, 1, 1, 0], [1, 1], 2)
    assert table.best[2] == 4.0


def test_solve_example_dense_pair():
    # scores are [3, 4, 3]; the greedy-blocking case where {0, 2} wins
    table = dp_solve([1, 2, 2, 1], [1, 1], 2)
    assert table.best[2] == 6.0


def test_solve_single_placement_is_max_score():
    rng = np.random.default_rng(30)
    y = rng.standard_normal(50)
    x = rng.standard_normal(6)
    table = dp_solve(y, x, 1)
    expected = max(float(np.dot(y[s : s + 6], x)) for s in range(45))
    assert table.best[1] == pytest.approx(expected, rel=1e-12)


def test_objective_column_examples():
    assert np.array_equal(dp_objective_column(dp_solve([1.0, 2.0], [1.0], 0)), [0.0])
    col = dp_objective_column(dp_solve([1, 1, 0, 1, 1, 0], [1, 1], 2))
    np.testing.assert_array_equal(col, [0.0, 2.0, 4.0])


def test_objective_column_infeasible_sentinel():
    col = dp_objective_column(dp_solve(np.ones(6), np.ones(3), 4))
    assert col[2] == 6.0  # two placements fit exactly
    assert np.isneginf(col[3]) and np.isneginf(col[4])


def test_detect_example_dense_pair():
    result = dp_detect([1, 2, 2, 1], [1, 1], 2)
    np.testing.assert_array_equal(result.placements.starts, [0, 2])
    assert result.objective == 6.0
    assert result.method == "dp" and result.k_hat == 2


def test_detect_noiseless_recovers_planted_starts():
    cfg = SynthConfig(n_samples=300, length=30, k=6, sigma2=0.0, seed=5)
    y, truth = synthesize(cfg, rect_template(30))
    result = dp_detect(y, rect_template(30), 6)
    np.testing.assert_array_equal(result.placements.starts, truth.starts)
    assert result.objective == pytest.approx(6 * 30, rel=1e-12)


def test_detect_infeasible_k_raises():
    with pytest.raises(InfeasibleError):
        dp_detect(np.ones(10), np.ones(4), 3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("length", [5, 1])
def test_detect_overflowing_scores_raise_validation_error(length):
    # Finite samples whose scores (L=5) or only their sums (L=1) overflow:
    # not an infeasible count.
    with pytest.raises(ValidationError, match="scores overflow float64"):
        dp_detect([1e308] * 50, rect_template(length), 2)
    with pytest.raises(ValidationError, match="scores overflow float64"):
        dp_detect_rows(np.full((3, 51 - length), 1e308), length, 2)


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(300):
        y, x, k = random_instance(rng)
        expected = brute_force_objective(y, x, k)
        result = dp_detect(y, x, k)
        assert result.objective == pytest.approx(expected, abs=1e-12)
        # the backtracked placements actually achieve the reported value
        recomputed = objective_value(y, x, result.placements)
        assert recomputed == pytest.approx(result.objective, abs=1e-12)


def test_rows_monotone_and_placements_valid():
    rng = np.random.default_rng(32)
    for _ in range(30):
        y, x, k = random_instance(rng)
        table = dp_solve(y, x, k)
        # Row n of the table is the final row of the solve on the first n
        # candidates, i.e. on y[:L-1+n].
        rows = np.array(
            [dp_solve(y[: len(x) - 1 + n], x, k).best for n in range(1, len(y) - len(x) + 2)]
        )
        assert np.all(rows[1:] >= rows[:-1])
        assert np.array_equal(rows[-1], table.best)
        p = dp_backtrack(table, k)
        assert validate_placements(p, len(y), len(x))


def test_dominates_greedy():
    # Compare at greedy's achieved count: when greedy saturates early its
    # partial sum is only comparable against the optimum for that count.
    rng = np.random.default_rng(33)
    for _ in range(200):
        y, x, k = random_instance(rng)
        gr = greedy_detect(y, x, k)
        if gr.k_hat == 0:
            continue
        dp = dp_detect(y, x, gr.k_hat)
        assert dp.objective >= gr.objective - 1e-9 * max(1.0, abs(dp.objective))


def test_tie_break_prefers_earliest_positions():
    # scores [2, 1, 1, 2, 1]: single placement ties at 0 and 3, keep 0
    result = dp_detect([1, 1, 0, 1, 1, 0], [1, 1], 1)
    np.testing.assert_array_equal(result.placements.starts, [0])
    # scores [2, 0, 2, 2]: pairs {0,2} and {0,3} tie at 4, keep {0,2}
    result = dp_detect([2, 0, 0, 2, 0], [1, 1], 2)
    np.testing.assert_array_equal(result.placements.starts, [0, 2])
    assert result.objective == 4.0


def test_backtrack_every_feasible_count():
    rng = np.random.default_rng(34)
    y = rng.standard_normal(60)
    x = rng.standard_normal(7)
    table = dp_solve(y, x, 5)
    col = dp_objective_column(table)
    for j in range(1, 6):
        if np.isneginf(col[j]):
            continue
        p = dp_backtrack(table, j)
        assert len(p) == j
        assert objective_value(y, x, p) == pytest.approx(col[j], abs=1e-12)


def pointer_dp(scores, length, k_max):
    """Cell-by-cell table fill with the kernel's strict place-over-skip rule."""
    n_pos = len(scores)
    best = np.full((n_pos + 1, k_max + 1), -np.inf)
    choice = np.zeros((n_pos + 1, k_max + 1), dtype=bool)
    best[:, 0] = 0.0
    for j in range(1, k_max + 1):
        for n in range(1, n_pos + 1):
            skip = best[n - 1, j]
            place = best[max(n - length, 0), j - 1] + scores[n - 1]
            choice[n, j] = place > skip
            best[n, j] = place if place > skip else skip
    return best, choice


def pointer_backtrack(choice, length, k):
    starts = []
    n = choice.shape[0] - 1
    for j in range(k, 0, -1):
        while not choice[n, j]:
            n -= 1
        starts.append(n - 1)
        n = max(n - length, 0)
    return starts[::-1]


def test_kernel_matches_pointer_dp_bit_for_bit():
    rng = np.random.default_rng(35)
    for trial in range(400):
        length = int(rng.integers(1, 9))
        n = int(rng.integers(length, 50))  # M = n - length + 1 can be <= L
        k_max = int(rng.integers(0, 7))  # k_max = 0 and infeasible counts
        if trial % 2:
            # Small integers make tied scores and tied optima common.
            y = rng.integers(-2, 3, n).astype(float)
            x = np.ones(length)
        else:
            y = rng.standard_normal(n)
            x = rng.standard_normal(length)
        table = dp_solve(y, x, k_max)
        best, choice = pointer_dp(correlation_scores(y, x), length, k_max)
        bits = np.unpackbits(table.choice, axis=1, count=n - length + 2).astype(bool)
        assert np.array_equal(bits, choice.T)
        assert not np.unpackbits(table.choice, axis=1)[:, n - length + 2 :].any()
        assert np.array_equal(table.best, best[-1])
        for k in range(1, k_max + 1):
            if np.isfinite(best[-1, k]):
                starts = dp_backtrack(table, k).starts
                assert starts.tolist() == pointer_backtrack(choice, length, k)


def test_table_views_count_major_storage():
    table = dp_solve(np.arange(30.0), np.ones(4), 5)
    n_pos = 30 - 4 + 1
    assert table.choice.shape == (6, (n_pos + 8) // 8)
    assert table.choice.dtype == np.uint8
    assert table.best.shape == (6,) and table.best.dtype == np.float64
    assert table.k_max == 5


def test_table_larger_than_limit_fails_before_allocating(monkeypatch):
    def no_scoring(y, x):
        raise AssertionError("scores computed for a table over the limit")

    # M = 91 candidates and k_max = 9.
    needed = dp_mod.table_bytes(91, 9)
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", needed - 1)
    monkeypatch.setattr(dp_mod, "correlation_scores", no_scoring)
    with pytest.raises(ValidationError, match=f"needs {needed} bytes.*limit of {needed - 1}"):
        dp_solve(np.ones(100), np.ones(10), 9)
    with pytest.raises(ValidationError):
        dp_detect(np.ones(100), np.ones(10), 9)
    monkeypatch.undo()
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", needed)
    assert dp_solve(np.ones(100), np.ones(10), 9).choice.shape == (10, 12)


def test_limit_admits_wide_tables_at_one_bit_per_cell(monkeypatch):
    # M = 1e5, k_max = 3000: 37.5 MB of choice bits, where a float64 and a
    # bool per cell took 2.70e9 bytes.
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", 64 << 20)
    assert dp_mod.check_table(100_019, 20, 3000) == 100_000
    assert dp_mod.table_bytes(100_000, 3000) == 3001 * 12_501 + 8 * (2 * 100_001 + 3001 + 100_000)


def test_solve_memory_far_below_full_table():
    n, length, k_max = 1 << 17, 20, 96
    rng = np.random.default_rng(38)
    y, x = rng.standard_normal(n), rng.standard_normal(length)
    full_table_bytes = (n - length + 2) * (k_max + 1) * 9
    tracemalloc.start()
    try:
        table = dp_solve(y, x, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_table_bytes / 8
    assert len(dp_backtrack(table, k_max)) == k_max


def test_final_rows_match_solve_per_column_bit_for_bit():
    rng = np.random.default_rng(36)
    for trial in range(300):
        length = int(rng.integers(1, 9))  # L = 1 included
        n = int(rng.integers(length, 60))  # M = n - length + 1 can be <= L
        k_max = int(rng.integers(1, 8))  # k_max = 1 and infeasible counts
        width = int(rng.integers(1, 6))
        if trial % 2:
            # Small integers make tied scores and tied optima common.
            ys = rng.integers(-2, 3, (width, n)).astype(float)
            x = np.ones(length)
        else:
            ys = rng.standard_normal((width, n))
            x = rng.standard_normal(length)
        scores = np.stack([correlation_scores(y, x) for y in ys], axis=1)
        rows = dp_final_rows(scores, length, k_max)
        assert rows.shape == (width, k_max + 1)
        for b, y in enumerate(ys):
            assert np.array_equal(rows[b], dp_objective_column(dp_solve(y, x, k_max)))


def test_final_rows_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        dp_final_rows(np.ones(5), 2, 3)
    with pytest.raises(ValidationError):
        dp_final_rows(np.ones((0, 2)), 2, 3)
    with pytest.raises(ValidationError):
        dp_final_rows(np.ones((5, 2)), 0, 3)


def test_objective_column_concave_on_finite_prefix():
    # Separated placements form a totally unimodular system, so the
    # optimum is concave in the occurrence count.
    rng = np.random.default_rng(37)
    for trial in range(300):
        length = int(rng.integers(1, 9))
        n = int(rng.integers(length, 80))
        k_max = int(rng.integers(2, 12))
        if trial % 2:
            y = rng.integers(-2, 3, n).astype(float)
            x = np.ones(length)
        else:
            y = rng.standard_normal(n)
            x = rng.standard_normal(length)
        col = dp_objective_column(dp_solve(y, x, k_max))
        finite = col[np.isfinite(col)]
        assert np.isfinite(col[: finite.size]).all()  # a prefix
        tol = 1e-9 * np.abs(finite).max()
        assert (np.diff(finite, 2) <= tol).all()


def _random_block(rng, trial):
    """A (T, N) block of measurements for one template, and the template."""
    length = int(rng.integers(1, 9))
    n = int(rng.integers(length, 120))  # M = n - length + 1 can be <= L
    rows = int(rng.integers(1, 7))
    if trial % 3 == 1:
        # Small integers make tied scores and tied optima common.
        return rng.integers(-2, 3, (rows, n)).astype(float), np.ones(length)
    if trial % 3 == 2:
        # A few spikes: the place branch rarely wins, so set bits are sparse
        # and the backtrack scans long runs of zero bytes.
        return (rng.random((rows, n)) < 0.04).astype(float), np.ones(length)
    return rng.standard_normal((rows, n)), rng.standard_normal(length)


@pytest.mark.parametrize("scan_bytes", [1, 3, dp_mod._SCAN_BYTES])
def test_block_kernel_matches_per_row_solve_bit_for_bit(monkeypatch, scan_bytes):
    # Narrow scan windows make the backtrack step back over several windows.
    monkeypatch.setattr(dp_mod, "_SCAN_BYTES", scan_bytes)
    rng = np.random.default_rng(39)
    for trial in range(300):
        ys, x = _random_block(rng, trial)
        k_max = int(rng.integers(0, 7))  # k_max = 0 and infeasible counts
        scores = np.stack([correlation_scores(y, x) for y in ys])
        final, packed = fill_rows(scores, len(x), k_max)
        n_pos = scores.shape[1]
        assert final.shape == (len(ys), k_max + 1)
        assert packed.shape == (k_max + 1, len(ys), (n_pos + 8) // 8)
        tables = [dp_solve(y, x, k_max) for y in ys]
        for t, table in enumerate(tables):
            assert np.array_equal(final[t], table.best)
            assert np.array_equal(packed[:, t], table.choice)
        pointer = [pointer_dp(row, len(x), k_max)[1] for row in scores]
        for k in range(1, k_max + 1):
            if not np.isfinite(final[:, k]).all():
                continue
            starts = backtrack_rows(packed, n_pos, len(x), k)
            for t, table in enumerate(tables):
                expected = pointer_backtrack(pointer[t], len(x), k)
                assert starts[t].tolist() == expected
                assert dp_backtrack(table, k).starts.tolist() == expected


def _maximum_fill(scores, length, k_max):
    """Final rows and choice bits of fill_rows, closed by np.maximum.accumulate."""
    n_rows, n_pos = scores.shape
    final = np.zeros((n_rows, k_max + 1))
    packed = np.zeros((k_max + 1, n_rows, (n_pos + 8) // 8), dtype=np.uint8)
    prev = np.zeros((n_rows, n_pos + 1))
    lag = min(length, n_pos)
    for j in range(1, k_max + 1):
        cur = np.empty((n_rows, n_pos + 1))
        cur[:, 0] = -np.inf
        cur[:, 1 : lag + 1] = prev[:, :1] + scores[:, :lag]
        cur[:, lag + 1 :] = prev[:, 1 : n_pos - lag + 1] + scores[:, lag:]
        cur[:, 1:] = np.maximum.accumulate(cur[:, 1:], axis=1)
        placed = np.zeros((n_rows, n_pos + 1), dtype=bool)
        placed[:, 1:] = cur[:, 1:] > cur[:, :-1]
        packed[j] = np.packbits(placed, axis=1)
        final[:, j] = cur[:, n_pos]
        prev = cur
    return final, packed


def test_fill_equals_maximum_accumulate_fill_bit_for_bit():
    # fill_rows closes each count with np.fmax.accumulate; on input without
    # NaN it must equal np.maximum.accumulate, -inf scores included.
    rng = np.random.default_rng(41)
    for trial in range(300):
        ys, x = _random_block(rng, trial)
        scores = np.stack([correlation_scores(y, x) for y in ys])
        if trial % 2:
            scores[rng.random(scores.shape) < 0.3] = -np.inf
        k_max = int(rng.integers(0, 7))
        final, packed = fill_rows(scores, len(x), k_max)
        ref_final, ref_packed = _maximum_fill(scores, len(x), k_max)
        assert np.array_equal(final, ref_final)
        assert np.array_equal(packed, ref_packed)


def test_detect_rows_match_per_row_detect():
    rng = np.random.default_rng(40)
    for trial in range(200):
        ys, x = _random_block(rng, trial)
        k = int(rng.integers(1, 6))
        scores = np.stack([correlation_scores(y, x) for y in ys])
        try:
            expected = [dp_detect(y, x, k).placements for y in ys]
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError, match=str(exc)):
                dp_detect_rows(scores, len(x), k)
            continue
        got = dp_detect_rows(scores, len(x), k)
        assert got.dtype == np.int64 and got.shape == (len(ys), k)
        assert got.tolist() == [p.starts.tolist() for p in expected]


def test_detect_rows_refuse_what_detect_refuses(monkeypatch):
    scores = np.ones((3, 91))
    with pytest.raises(ValidationError, match="at least one occurrence"):
        dp_detect_rows(scores, 10, 0)
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", dp_mod.table_bytes(91, 9) - 1)
    with pytest.raises(ValidationError, match="needs"):
        dp_detect_rows(scores, 10, 9)
    monkeypatch.undo()
    assert len(dp_detect_rows(scores, 10, 10)[0]) == 10  # starts 0, 10, ..., 90
    with pytest.raises(InfeasibleError, match="11 placements of length 10 do not fit in N=100"):
        dp_detect_rows(scores, 10, 11)
