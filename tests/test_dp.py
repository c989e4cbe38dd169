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
    needed = dp_mod.table_bytes(91, 9, 10)
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
    # bool per cell took 2.70e9 bytes. The 100_001 cells fold into 4167
    # chunks of 24, filled in two tiles of 2084 chunks. The fill works in one
    # tile's 24 x 2088 cells (25 bytes and a packed bit each, and 320 bytes
    # of alignment), 11 bytes per chunk of a tile, 21 float64 carries per
    # count, and at most 3 x 8192 float64 of numpy's buffers and 512 bytes
    # of views per chunk row.
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", 64 << 20)
    assert dp_mod.check_table(100_019, 20, 3000) == 100_000
    tile = 24 * 2088
    assert dp_mod.table_bytes(100_000, 3000, 20) == (
        3001 * 12_501 + 8 * (3001 + 100_000)
        + 25 * tile + tile // 8 + 320 + 11 * 2084 + 8 * (3001 + 3000 * 20)
        + 3 * 8 * 8192 + 512 * 24
    )


def _cgroup_tree(tmp_path, proc_lines, limits):
    """A fake /proc/self/cgroup and cgroup mount: ``limits`` maps file paths to text."""
    tmp_path.mkdir(exist_ok=True)
    proc = tmp_path / "cgroup"
    proc.write_text("".join(line + "\n" for line in proc_lines))
    for rel, text in limits.items():
        (tmp_path / "fs" / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / rel).write_text(text + "\n")
    return dp_mod._cgroup_memory_limit(str(proc), str(tmp_path / "fs"))


def test_cgroup_v2_memory_limit_read_at_every_level(tmp_path):
    proc = ["0::/ctr/job"]
    assert _cgroup_tree(tmp_path / "own", proc, {"ctr/job/memory.max": "1073741824"}) == 1 << 30
    # A lower limit on an ancestor binds too; "max" sets none.
    assert _cgroup_tree(tmp_path / "parent", proc, {
        "ctr/job/memory.max": "max", "ctr/memory.max": "536870912",
    }) == 1 << 29
    # A namespaced mount whose root is the cgroup's own directory.
    assert _cgroup_tree(tmp_path / "ns", proc, {"memory.max": "268435456"}) == 1 << 28
    assert _cgroup_tree(tmp_path / "none", proc, {"ctr/job/memory.max": "max"}) is None


def test_cgroup_v1_memory_limit_from_the_memory_controller(tmp_path):
    proc = ["5:cpu,cpuacct:/other", "4:memory:/ctr", "0::/"]
    assert _cgroup_tree(tmp_path / "v1", proc, {
        "memory/ctr/memory.limit_in_bytes": "2147483648",
        "memory/memory.limit_in_bytes": "9223372036854771712",
        "cpu,cpuacct/other/memory.limit_in_bytes": "1",
    }) == 2 << 30
    assert _cgroup_tree(tmp_path / "unset", proc, {}) is None


def test_cgroup_memory_limit_unknown(tmp_path):
    assert dp_mod._cgroup_memory_limit(str(tmp_path / "missing"), str(tmp_path)) is None
    # Malformed lines and limits are skipped, not raised.
    assert _cgroup_tree(tmp_path, ["garbage", "0::/a"], {
        "a/memory.max": "lots", "memory.max": "4096",
    }) == 4096


def test_table_limit_is_a_quarter_of_the_lower_memory(monkeypatch):
    physical = dp_mod.os.sysconf("SC_PAGE_SIZE") * dp_mod.os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(dp_mod, "_cgroup_memory_limit", lambda: 1 << 30)
    assert dp_mod._quarter_of_memory() == min(physical, 1 << 30) // 4
    monkeypatch.setattr(dp_mod, "_cgroup_memory_limit", lambda: None)
    assert dp_mod._quarter_of_memory() == physical // 4


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


def _chunks(n_rows, n_pos, length):
    """The fold shape of every block, however few its chunks or many its padded cells."""
    height = -(-length // 8) * 8
    return height, -(-(n_pos + 1) // height)


FORCE_PATH = {"chunks": _chunks, "rows": lambda *shape: None}  # _fold_shape for each path


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


def test_fill_equals_maximum_accumulate_fill_bit_for_bit(monkeypatch):
    # fill_rows takes its running maxima with np.fmax, on either path; on
    # input without NaN it must equal np.maximum.accumulate, -inf scores
    # included.
    rng = np.random.default_rng(41)
    for trial in range(300):
        ys, x = _random_block(rng, trial)
        scores = np.stack([correlation_scores(y, x) for y in ys])
        if trial % 2:
            scores[rng.random(scores.shape) < 0.3] = -np.inf
        k_max = int(rng.integers(0, 7))
        ref_final, ref_packed = _maximum_fill(scores, len(x), k_max)
        for fold_shape in FORCE_PATH.values():
            monkeypatch.setattr(dp_mod, "_fold_shape", fold_shape)
            final, packed = fill_rows(scores, len(x), k_max)
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
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", dp_mod.table_bytes(91, 9, 10) - 1)
    with pytest.raises(ValidationError, match="needs"):
        dp_detect_rows(scores, 10, 9)
    monkeypatch.undo()
    assert len(dp_detect_rows(scores, 10, 10)[0]) == 10  # starts 0, 10, ..., 90
    with pytest.raises(InfeasibleError, match="11 placements of length 10 do not fit in N=100"):
        dp_detect_rows(scores, 10, 11)


def _fill_on(path, monkeypatch, caplog, scores, length, k_max):
    monkeypatch.setattr(dp_mod, "_fold_shape", FORCE_PATH[path])
    caplog.clear()
    with caplog.at_level("DEBUG", logger="dpdetect.dp"):
        final, packed = fill_rows(scores, length, k_max)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [f"dp fill {path}"]
    return final, packed


def _path_case(rng, trial):
    """Scores of a (T, M) block whose geometry and values stress the fold."""
    length = [1, 7, 8, 9, 20, 33, 40, 64][trial % 8]
    height = -(-length // 8) * 8
    if trial % 5 == 0:
        n_pos = int(rng.integers(1, height))  # M < B: a single chunk
    elif trial % 5 == 1:
        n_pos = height * int(rng.integers(1, 6)) - 1  # M+1 fills whole chunks
    else:
        n_pos = int(rng.integers(1, 12 * height))  # mostly a ragged last chunk
    rows = int(rng.integers(1, 4))
    kind = trial % 3
    if kind == 0:  # small integers: tied scores and tied optima
        return rng.integers(-2, 3, (rows, n_pos)).astype(float), length
    if kind == 1:  # sparse spikes: long runs without a set bit
        return (rng.random((rows, n_pos)) < 0.04).astype(float), length
    return rng.standard_normal((rows, n_pos)), length


def test_fill_paths_match_pointer_dp_and_each_other_bit_for_bit(monkeypatch, caplog):
    rng = np.random.default_rng(42)
    for trial in range(240):
        scores, length = _path_case(rng, trial)
        n_rows, n_pos = scores.shape
        k_max = int(rng.integers(0, 7))  # k_max = 0 and infeasible counts
        pointer = [pointer_dp(row, length, k_max) for row in scores]
        fills = {
            path: _fill_on(path, monkeypatch, caplog, scores, length, k_max)
            for path in FORCE_PATH
        }
        for final, packed in fills.values():
            assert final.shape == (n_rows, k_max + 1)
            assert packed.shape == (k_max + 1, n_rows, (n_pos + 8) // 8)
            bits = np.unpackbits(packed, axis=2)
            assert not bits[:, :, n_pos + 1 :].any()  # zero padding bits
            for t, (best, choice) in enumerate(pointer):
                assert np.array_equal(final[t], best[-1])
                assert np.array_equal(bits[:, t, : n_pos + 1].astype(bool), choice.T)
            for k in range(1, k_max + 1):
                if np.isfinite(final[:, k]).all():
                    starts = backtrack_rows(packed, n_pos, length, k)
                    expected = [pointer_backtrack(choice, length, k) for _, choice in pointer]
                    assert starts.tolist() == expected
        (f_rows, p_rows), (f_chunks, p_chunks) = fills["rows"], fills["chunks"]
        assert np.array_equal(f_rows, f_chunks) and np.array_equal(p_rows, p_chunks)


def _tiled_case(rng, trial):
    """Scores of a (T, M) block for small tiles: T = 1 and T > 1, B == L, L = 1, M <= L."""
    length = [1, 7, 8, 20, 24, 33][trial % 6]  # B == L at 8 and 24
    height = -(-length // 8) * 8
    rows = 1 if trial % 2 else int(rng.integers(2, 4))
    if trial % 7 == 0:
        n_pos = int(rng.integers(1, length + 1))  # M <= L: one tile
    else:
        n_pos = int(rng.integers(8 * height, 30 * height))  # a ragged last tile, mostly
    kind = trial % 3
    if kind == 0:  # small integers: tied scores and tied optima
        return rng.integers(-2, 3, (rows, n_pos)).astype(float), length
    if kind == 1:  # sparse spikes: long runs without a set bit
        return (rng.random((rows, n_pos)) < 0.04).astype(float), length
    return rng.standard_normal((rows, n_pos)), length


@pytest.mark.parametrize("tile_cells", [1, 400])
def test_tiles_match_pointer_dp_and_row_path_bit_for_bit(tile_cells, monkeypatch, caplog):
    # Small tiles run small blocks in many, so that both carries cross every
    # tile boundary: tiles of 3 to 8 chunk columns at tile_cells = 1, and of
    # up to 50 at 400 (72 and 41 of the 84 blocks run more than one tile).
    # _FOLD_MIN_WIDTH sets the narrowest chunk row of a tile.
    rng = np.random.default_rng(46)
    many = 0
    for trial in range(84):
        scores, length = _tiled_case(rng, trial)
        n_rows, n_pos = scores.shape
        k_max = int(rng.integers(0, 8))  # k_max = 0 and counts past what fits
        monkeypatch.setattr(dp_mod, "_TILE_CELLS", tile_cells)
        monkeypatch.setattr(dp_mod, "_FOLD_MIN_WIDTH", 16)
        final, packed = _fill_on("chunks", monkeypatch, caplog, scores, length, k_max)
        many += int(caplog.records[-1].getMessage().split("tiles=")[1].split(",")[0]) > 1
        f_rows, p_rows = _fill_on("rows", monkeypatch, caplog, scores, length, k_max)
        assert np.array_equal(final, f_rows) and np.array_equal(packed, p_rows)
        bits = np.unpackbits(packed, axis=2)
        assert not bits[:, :, n_pos + 1 :].any()  # zero padding bits
        pointer = [pointer_dp(row, length, k_max) for row in scores]
        for t, (best, choice) in enumerate(pointer):
            assert np.array_equal(final[t], best[-1])
            assert np.array_equal(bits[:, t, : n_pos + 1].astype(bool), choice.T)
        for k in range(1, k_max + 1):
            if np.isfinite(final[:, k]).all():
                starts = backtrack_rows(packed, n_pos, length, k)
                assert starts.tolist() == [pointer_backtrack(c, length, k) for _, c in pointer]
    assert many >= 40


def test_fill_debug_line_names_path_and_geometry(caplog):
    # 6000 samples fold into 250 chunks of 24 cells, below the cutover;
    # 2^16 into 2730, above it, in one tile of 65_520 cells; 2^18 into 10_922
    # chunks, in five tiles of 2185.
    x = np.ones(20)
    with caplog.at_level("DEBUG", logger="dpdetect.dp"):
        dp_solve(np.ones(6000), x, 3)
        dp_solve(np.ones(1 << 16), x, 3)
        dp_solve(np.ones(1 << 18), x, 3)
    lines = [r.getMessage() for r in caplog.records if r.name == "dpdetect.dp"]
    assert lines[0].startswith(
        "dp fill rows: T=1, M=5981, k_max=3, chunks of B=5982 cells, nb=1 per row, "
        "w=1 per tile, tiles=1, "
    )
    assert lines[1].startswith(
        "dp fill chunks: T=1, M=65517, k_max=3, chunks of B=24 cells, nb=2730 per row, "
        "w=2730 per tile, tiles=1, "
    )
    assert lines[2].startswith(
        "dp fill chunks: T=1, M=262125, k_max=3, chunks of B=24 cells, nb=10922 per row, "
        "w=2185 per tile, tiles=5, "
    )
    assert len(lines) == 3 and all(line.endswith(" working bytes") for line in lines)


@pytest.mark.parametrize(
    "n_samples, length",
    # The first fills 2730 chunks in one tile, the second pads 62 cells onto
    # 1024 chunks in one; 2^18 samples at L = 64 make four tiles of 1024
    # chunks and 2^19 at L = 20 nine tiles of 2428.
    [(1 << 16, 20), (1 << 16, 64), (1 << 18, 64), (1 << 19, 20)],
)
def test_folded_fill_memory_within_table_bytes(n_samples, length, caplog):
    rng = np.random.default_rng(43)
    k_max = 12
    scores = correlation_scores(rng.standard_normal(n_samples), rng.standard_normal(length))
    n_pos = scores.size
    tracemalloc.start()
    try:
        with caplog.at_level("DEBUG", logger="dpdetect.dp"):
            fill_rows(scores[np.newaxis], length, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caplog.records[-1].getMessage().startswith("dp fill chunks")
    assert peak <= dp_mod.table_bytes(n_pos, k_max, length)


def test_detect_rows_hold_the_whole_block_against_the_limit(monkeypatch):
    # One table of M = 91, k = 9 fits; the block's three do not, and the
    # refusal comes before the fill allocates anything.
    def no_fill(scores, length, k_max):
        raise AssertionError("fill started for a block over the limit")

    scores = np.ones((3, 91))
    one, block = dp_mod.table_bytes(91, 9, 10), dp_mod.table_bytes(91, 9, 10, rows=3)
    assert block == 3 * one  # the row path pads nothing
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", block - 1)
    monkeypatch.setattr(dp_mod, "fill_rows", no_fill)
    with pytest.raises(ValidationError, match=f"3 DP tables .* needs {block} bytes"):
        dp_detect_rows(scores, 10, 9)
    monkeypatch.undo()
    monkeypatch.setattr(dp_mod, "TABLE_BYTES_LIMIT", block)
    assert dp_detect_rows(scores, 10, 9).shape == (3, 9)


@pytest.mark.parametrize(
    "n_rows, n_pos, length, k",
    # 4 rows of 8192 candidates fold into 342 chunks of 24 cells each; 512
    # rows of 30 candidates into 2 chunks each, 17 of 48 cells padding. Both
    # fit in one tile; 3 rows of 40_000 candidates fill two tiles of 834
    # chunks, and 8 rows of 30_000 four of 313.
    [(4, 8192, 20, 6), (512, 30, 20, 2), (3, 40_000, 20, 6), (8, 30_000, 20, 4)],
)
def test_folded_block_memory_within_table_bytes(n_rows, n_pos, length, k, caplog):
    rng = np.random.default_rng(44)
    scores = rng.standard_normal((n_rows, n_pos))
    tracemalloc.start()
    try:
        with caplog.at_level("DEBUG", logger="dpdetect.dp"):
            starts = dp_detect_rows(scores, length, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caplog.records[-1].getMessage().startswith(f"dp fill chunks: T={n_rows}")
    assert starts.shape == (n_rows, k)
    assert peak <= dp_mod.table_bytes(n_pos, k, length, rows=n_rows)


@pytest.mark.parametrize(
    "n_rows, n_pos, path",
    [
        (1, 24_551, "rows"),  # 1023 chunks of 24 cells
        (1, 24_552, "chunks"),  # 1024 chunks, 23 cells of padding
        (4, 3047, "rows"),  # 4 x 127 chunks
        (4, 3071, "chunks"),  # 4 x 128 chunks
        (512, 24, "rows"),  # 1024 chunks, but 23 of each row's 48 cells padding
        (512, 30, "chunks"),  # 17 of 48 cells padding
        (1, 100_000, "chunks"),  # 4167 chunks in two tiles of 2084
        (3, 40_000, "chunks"),  # 3 x 1667 chunks in two tiles of 834
    ],
)
def test_table_bytes_counts_the_logged_fill_shape(n_rows, n_pos, path, caplog):
    # table_bytes is what the fill logs it works in (its arrays, the packed
    # bits and the final rows among them, and a bound on numpy's buffers and
    # its views), plus the float64 scores it is handed.
    length, k_max = 20, 2
    scores = np.random.default_rng(45).standard_normal((n_rows, n_pos))
    with caplog.at_level("DEBUG", logger="dpdetect.dp"):
        fill_rows(scores, length, k_max)
    words = caplog.records[-1].getMessage().replace(",", "").split()
    fields = dict(w.split("=") for w in words if "=" in w)
    assert words[2] == f"{path}:" and int(fields["T"]) == n_rows
    assert words[-2:] == ["working", "bytes"]
    working = int(words[-3])
    assert dp_mod.table_bytes(n_pos, k_max, length, n_rows) == working + scores.nbytes
