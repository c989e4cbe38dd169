import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dpdetect import (
    ConvexConfig,
    DetectError,
    GapConfig,
    PlacementSet,
    SynthConfig,
    ValidationError,
    convex_detect,
    dp_detect,
    estimate_k,
    greedy_detect,
    random_detect,
    rect_template,
    score,
    synthesize,
)
from dpdetect import bench as bench_mod
from dpdetect import greedy as greedy_mod
from dpdetect.bench import (
    BenchConfig,
    BenchRecord,
    emit_csv,
    emit_svg,
    load_config,
    run_length_scaling,
    run_sweep,
)
from dpdetect.synth import plant, sample_starts

SMALL = BenchConfig(
    n_samples=120,
    length=12,
    k=4,
    sigma2_grid=(0.5, 2.0),
    trials=25,
    methods=("dp", "greedy", "random"),
    seed=7,
)


def test_sweep_record_shape_and_ranges():
    records = run_sweep(SMALL)
    assert len(records) == 2 * 3  # grid points x methods
    for r in records:
        assert r.trials == 25
        for v in (r.mean_f1, r.mean_recall, r.mean_precision):
            assert 0.0 <= v <= 1.0
        assert r.mean_k_err >= 0.0


def test_sweep_reproducible():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    assert a == b


def test_sweep_random_baseline_well_below_detectors():
    # F1 ordering between dp and greedy is config-dependent (the dominance
    # guarantee is on objectives); the random baseline must trail both.
    records = run_sweep(SMALL)
    by = {(r.method, r.sigma2): r.mean_f1 for r in records}
    for s2 in SMALL.sigma2_grid:
        assert by[("random", s2)] < by[("dp", s2)] - 0.2
        assert by[("random", s2)] < by[("greedy", s2)] - 0.2


def test_length_hat_changes_detector_template():
    cfg = BenchConfig(
        n_samples=120,
        length=12,
        k=4,
        sigma2_grid=(1.0,),
        trials=10,
        methods=("dp",),
        length_hat=16,
        seed=3,
    )
    assert cfg.detector_length == 16
    records = run_sweep(cfg)
    assert records[0].trials == 10


def test_gap_mode_runs():
    cfg = BenchConfig(
        n_samples=120,
        length=12,
        k=4,
        sigma2_grid=(1.0,),
        trials=5,
        methods=("dp", "greedy"),
        k_mode="gap",
        k_max=8,
        perms=10,
        seed=11,
    )
    records = run_sweep(cfg)
    assert {r.method for r in records} == {"dp", "greedy"}
    assert all(r.k_mode == "gap" for r in records)


def test_convex_requires_small_n_by_default():
    limit = bench_mod._CONVEX_N_LIMIT
    with pytest.raises(ValidationError):
        BenchConfig(
            n_samples=limit + 1,
            length=30,
            k=3,
            sigma2_grid=(1.0,),
            methods=("dp", "convex"),
        )
    cfg = BenchConfig(
        n_samples=limit + 1,
        length=30,
        k=3,
        sigma2_grid=(1.0,),
        methods=("dp", "convex"),
        allow_slow_convex=True,
    )
    assert "convex" in cfg.methods


def test_convex_limit_boundary_admits_the_paper_geometry():
    limit = bench_mod._CONVEX_N_LIMIT
    assert limit >= 300  # N = 300, L = 30 runs convex by default
    base = dict(length=30, k=3, sigma2_grid=(1.0,), methods=("dp", "convex"))
    assert BenchConfig(n_samples=limit, **base).n_samples == limit
    with pytest.raises(ValidationError, match=f"limited to N <= {limit}"):
        BenchConfig(n_samples=limit + 1, **base)
    assert BenchConfig(n_samples=limit + 1, allow_slow_convex=True, **base).n_samples == limit + 1


def _assert_csv(path, records, x="sigma2"):
    """``path`` holds ``records`` field by field: each float is
    ``format(v, ".6g")``, each int and string ``str(v)``, and a ``failures``
    column follows ``trials`` only when some record counts one."""
    failed = any(r.failures for r in records)
    header = {"sigma2": "sigma2", "n_samples": "N"}[x]
    header += ",method,k_mode,f1,recall,precision,k_err,trials"
    lines = path.read_text().splitlines()
    assert lines[0] == header + (",failures" if failed else "")
    assert len(lines) == 1 + len(records)
    for line, r in zip(lines[1:], records):
        first = format(r.sigma2, ".6g") if x == "sigma2" else str(r.n_samples)
        means = (r.mean_f1, r.mean_recall, r.mean_precision, r.mean_k_err)
        fields = [first, r.method, r.k_mode, *(format(v, ".6g") for v in means), str(r.trials)]
        assert line.split(",") == fields + ([str(r.failures)] if failed else [])


def test_csv_round_trip(tmp_path):
    records = run_sweep(SMALL)
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    _assert_csv(path, records)


def test_csv_row_count(tmp_path):
    records = run_sweep(SMALL)
    path = tmp_path / "rows.csv"
    emit_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sigma2,method,k_mode,f1,recall,precision,k_err,trials"
    assert len(lines) == 1 + len(records)


def test_csv_bytes_reproducible(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(SMALL), p1)
    emit_csv(run_sweep(SMALL), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_records_rejected(tmp_path):
    with pytest.raises(ValidationError):
        emit_csv([], tmp_path / "nope.csv")
    with pytest.raises(ValidationError):
        emit_svg([], tmp_path / "nope.svg")
    assert not (tmp_path / "nope.csv").exists()


def test_svg_has_one_polyline_per_method(tmp_path):
    records = run_sweep(SMALL)
    path = tmp_path / "chart.svg"
    emit_svg(records, path)
    text = path.read_text()
    assert text.count("<polyline") == 3
    assert "noise variance" in text and "mean F1" in text


def test_scaling_grid_guards():
    with pytest.raises(ValidationError):
        run_length_scaling((110,), length=20, density=0.6)  # K = 3.3
    with pytest.raises(ValidationError):
        run_length_scaling((10,), length=20, density=0.6)  # K < 1
    with pytest.raises(ValidationError):
        run_length_scaling(())


def test_scaling_small_run(tmp_path):
    records = run_length_scaling(
        (100, 200), length=20, density=0.6, sigma2=0.5, trials=5, perms=10, seed=2
    )
    assert [r.n_samples for r in records] == [100, 100, 200, 200]
    assert {r.method for r in records} == {"dp", "greedy"}
    csv_path = tmp_path / "scaling.csv"
    emit_csv(records, csv_path, x="n_samples")
    head = csv_path.read_text().splitlines()[0]
    assert head == "N,method,k_mode,f1,recall,precision,k_err,trials"
    emit_svg(records, tmp_path / "scaling.svg", x="n_samples")
    assert (tmp_path / "scaling.svg").read_text().count("<polyline") == 2


def test_scaling_csv_round_trip(tmp_path):
    records = run_length_scaling((100, 200), trials=2, perms=5, seed=3)
    path = tmp_path / "scaling.csv"
    emit_csv(records, path, x="n_samples")
    _assert_csv(path, records, x="n_samples")
    assert [(r.n_samples, r.method) for r in records] == [
        (100, "dp"), (100, "greedy"), (200, "dp"), (200, "greedy")
    ]
    emit_csv(records, tmp_path / "again.csv", x="n_samples")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    no_sigma2 = [replace(r, sigma2=None) for r in records]
    with pytest.raises(ValidationError):
        emit_csv(no_sigma2, tmp_path / "out", x="sigma2")


def test_scaling_counts_failed_trials(tmp_path, monkeypatch, caplog):
    # A 1000-byte table limit makes every dp solve raise; greedy needs no
    # table. The failures must reach the records and the CSV.
    monkeypatch.setattr("dpdetect.dp.TABLE_BYTES_LIMIT", 1000)
    with caplog.at_level("WARNING", logger="dpdetect.bench"):
        records = run_length_scaling((100,), trials=3, perms=5, seed=1)
    assert {r.method: r.failures for r in records} == {"dp": 3, "greedy": 0}
    assert [r.n_samples for r in records] == [100, 100]
    assert len(caplog.records) == 3
    path = tmp_path / "scaling.csv"
    emit_csv(records, path, x="n_samples")
    lines = path.read_text().splitlines()
    assert lines[0] == "N,method,k_mode,f1,recall,precision,k_err,trials,failures"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["3", "0"]


def test_writers_reject_unknown_or_missing_x(tmp_path):
    records = run_sweep(SMALL)
    assert all(r.n_samples == SMALL.n_samples for r in records)
    for emit in (emit_csv, emit_svg):
        with pytest.raises(ValidationError):
            emit(records, tmp_path / "out", x="length")
    no_n = [BenchRecord(1.0, "dp", "known", 0.5, 0.5, 0.5, 0.0, 10)]
    assert no_n[0].n_samples is None
    for emit in (emit_csv, emit_svg):
        with pytest.raises(ValidationError, match="records carry no n_samples"):
            emit(no_n, tmp_path / "out", x="n_samples")
    assert not (tmp_path / "out").exists()


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"n_samples": 120, "length": 12, "k": 4, "sigma2_grid": [0.5, 2.0],'
        ' "trials": 25, "methods": ["dp", "greedy", "random"], "seed": 7}'
    )
    assert load_config(path) == SMALL


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_samples": 100, "length": 10, "k": 2, "banana": 1}')
    with pytest.raises(ValidationError):
        load_config(path)


def test_bad_config_values():
    with pytest.raises(ValidationError):
        BenchConfig(n_samples=100, length=10, k=2, sigma2_grid=())
    with pytest.raises(ValidationError):
        BenchConfig(n_samples=100, length=10, k=2, sigma2_grid=(1.0,), trials=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            BenchConfig(n_samples=100, length=10, k=2, sigma2_grid=(1.0, bad))
    with pytest.raises(ValidationError):
        BenchConfig(n_samples=100, length=10, k=2, sigma2_grid=(1.0,), methods=("zen",))
    with pytest.raises(ValidationError, match="repeat"):
        BenchConfig(n_samples=100, length=10, k=2, sigma2_grid=(1.0,), methods=("dp", "dp"))
    with pytest.raises(ValidationError):
        BenchConfig(n_samples=100, length=10, k=2, sigma2_grid=(1.0,), k_mode="psychic")
    # Values that would fail every trial of the sweep.
    for bad, match in (
        (dict(k=0), "k must be >= 1"),
        (dict(length=0), "length 0 outside 1..n_samples 100"),
        (dict(length=101), "length 101 outside 1..n_samples 100"),
        (dict(perms=0), "perms must be >= 1"),
        (dict(k_max=0), "k_max must be >= 1"),
        (dict(k_max=-2, k_mode="gap"), "k_max must be >= 1"),
    ):
        with pytest.raises(ValidationError, match=match):
            BenchConfig(**{**dict(n_samples=100, length=10, k=2, sigma2_grid=(1.0,)), **bad})
    assert BenchConfig(n_samples=100, length=100, k=1, sigma2_grid=(1.0,), k_max=1).k_max == 1


def test_seed_range_refused():
    base = dict(n_samples=100, length=10, k=2, sigma2_grid=(1.0, 2.0), trials=3)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        BenchConfig(seed=-1, **base)
    # The last trial seed, seed + 2 * 3 - 1, must stay below 2**128.
    assert BenchConfig(seed=2**128 - 6, **base).seed == 2**128 - 6
    with pytest.raises(ValidationError, match=f"trial seeds reach {2**128}, past"):
        BenchConfig(seed=2**128 - 5, **base)


def test_length_hat_longer_than_measurement_refused():
    # Every trial of every method would fail: refuse the config instead.
    with pytest.raises(ValidationError, match="length_hat 60 exceeds n_samples 50"):
        BenchConfig(n_samples=50, length=10, k=2, sigma2_grid=(1.0,), length_hat=60)
    cfg = BenchConfig(n_samples=50, length=10, k=1, sigma2_grid=(1.0,), length_hat=50, trials=2)
    assert cfg.detector_length == 50
    assert all(r.failures == 0 for r in run_sweep(cfg))


def test_record_equality_is_field_based():
    r = BenchRecord(1.0, "dp", "known", 0.5, 0.5, 0.5, 0.0, 10)
    assert r == BenchRecord(1.0, "dp", "known", 0.5, 0.5, 0.5, 0.0, 10)


def test_sweep_counts_failed_trials(tmp_path, caplog):
    # Four placements of length 40 cannot fit in N=120: dp raises on every
    # trial, greedy saturates without raising.
    cfg = BenchConfig(
        n_samples=120, length=12, k=4, sigma2_grid=(0.5,), trials=3,
        methods=("dp", "greedy"), length_hat=40,
    )
    with caplog.at_level("WARNING", logger="dpdetect.bench"):
        records = run_sweep(cfg)
    assert {r.method: r.failures for r in records} == {"dp": 3, "greedy": 0}
    assert len(caplog.records) == 3
    path = tmp_path / "failed.csv"
    emit_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma2,method,k_mode,f1,recall,precision,k_err,trials,failures"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["3", "0"]
    _assert_csv(path, records)


def test_sweep_without_failures_keeps_csv_layout(tmp_path):
    records = run_sweep(SMALL)
    assert all(r.failures == 0 for r in records)
    path = tmp_path / "ok.csv"
    emit_csv(records, path)
    assert "failures" not in path.read_text()
    _assert_csv(path, records)


def reference_sweep(cfg):
    """A trial-at-a-time sweep: records and the failed (trial, method) pairs."""
    k_max = cfg.k_max or max(cfg.n_samples // cfg.detector_length, 1)

    def gap(method):
        def detect(y, x, rng, seed, sigma2):
            gap_cfg = GapConfig(k_max=k_max, perms=cfg.perms, seed=seed)
            return estimate_k(y, x, gap_cfg, detector=method)[1]
        return detect

    detectors = {
        "dp": lambda y, x, rng, seed, sigma2: dp_detect(y, x, cfg.k),
        "greedy": lambda y, x, rng, seed, sigma2: greedy_detect(y, x, cfg.k),
        "random": lambda y, x, rng, seed, sigma2: random_detect(y, x, cfg.k, rng),
        "convex": lambda y, x, rng, seed, sigma2: convex_detect(
            y, x, cfg.k, ConvexConfig(sigma2=sigma2)
        ),
    }
    if cfg.k_mode == "gap":
        detectors.update(dp=gap("dp"), greedy=gap("greedy"))
    records, failed = [], []
    for i, sigma2 in enumerate(cfg.sigma2_grid):
        sums = {m: np.zeros(4) for m in cfg.methods}
        failures = dict.fromkeys(cfg.methods, 0)
        for t in range(cfg.trials):
            seed = cfg.seed + i * cfg.trials + t
            rng = np.random.default_rng(seed)
            synth = SynthConfig(
                n_samples=cfg.n_samples, length=cfg.length, k=cfg.k, sigma2=sigma2,
                separation=cfg.separation, seed=seed,
            )
            y, truth = synthesize(synth, rect_template(cfg.length), rng)
            for method in cfg.methods:
                try:
                    est = detectors[method](
                        y, rect_template(cfg.detector_length), rng, seed, sigma2
                    )
                    placements = est.placements
                except DetectError:
                    placements = PlacementSet([], cfg.detector_length)
                    failures[method] += 1
                    failed.append((seed, method))
                rep = score(truth, placements, cfg.length, cfg.k)
                sums[method] += (rep.f1, rep.recall, rep.precision, rep.k_err)
        for method in cfg.methods:
            f1, recall, precision, k_err = sums[method] / cfg.trials
            records.append(
                BenchRecord(
                    float(sigma2), method, cfg.k_mode, float(f1), float(recall),
                    float(precision), float(k_err), cfg.trials, failures[method],
                    cfg.n_samples,
                )
            )
    return records, failed


def _warned(caplog):
    """The (trial, method) pairs of the sweep's failure warnings, sorted."""
    return sorted(
        (int(r.getMessage().split()[1]), r.getMessage().split()[3])
        for r in caplog.records
        if r.levelno == logging.WARNING
    )


PAPER = dict(n_samples=300, length=30, trials=37, methods=("dp", "greedy", "random"))


@pytest.mark.parametrize(
    "cfg",
    [
        # c04, c05 and the two c09 configs, with fewer trials. c04's 130
        # trials make full blocks and a remainder at 32 KiB and at the
        # default; at the default its full block folds the DP fill into
        # chunks and its remainder does not.
        BenchConfig(k=6, sigma2_grid=(0.5, 2.0), seed=999, **{**PAPER, "trials": 130}),
        BenchConfig(k=3, sigma2_grid=(0.5, 3.0), separation="well_separated", seed=202, **PAPER),
        BenchConfig(k=6, sigma2_grid=(1.0, 2.0), seed=77, length_hat=39, **PAPER),
        BenchConfig(k=6, sigma2_grid=(1.0, 2.0), seed=77, length_hat=24, **PAPER),
        BenchConfig(
            n_samples=120, length=12, k=4, sigma2_grid=(0.5,), trials=9,
            methods=("random", "greedy", "dp"), seed=5,
        ),
        # Four placements of length 40 do not fit in N=120: dp and random
        # fail on every trial, in whatever blocks the trials run.
        BenchConfig(
            n_samples=120, length=12, k=4, sigma2_grid=(0.5, 2.0), trials=20,
            methods=("dp", "random", "greedy"), length_hat=40, seed=4,
        ),
        BenchConfig(
            n_samples=120, length=12, k=4, sigma2_grid=(0.5, 2.0), trials=7,
            methods=("dp", "greedy", "random"), k_mode="gap", k_max=8, perms=10, seed=11,
        ),
        BenchConfig(
            n_samples=60, length=6, k=3, sigma2_grid=(0.3, 1.5), trials=6,
            methods=("convex", "dp", "random"), seed=13,
        ),
    ],
    ids=["c04", "c05", "c09-39", "c09-24", "small", "dp-random-fail", "gap", "convex"],
)
def test_sweep_equals_trial_at_a_time_reference(cfg, monkeypatch, caplog):
    records, failed = reference_sweep(cfg)
    default = greedy_mod.SCORE_BLOCK_BYTES
    # One row per block, 32 KiB, the default and a whole noise level per block.
    for budget in (1, 32 << 10, default, 1 << 30):
        monkeypatch.setattr(greedy_mod, "SCORE_BLOCK_BYTES", budget)
        caplog.clear()
        with caplog.at_level("WARNING", logger="dpdetect.bench"), caplog.at_level(
            "DEBUG", logger="dpdetect.dp"
        ):
            assert run_sweep(cfg) == records, f"block budget {budget}"
        assert _warned(caplog) == sorted(failed)
        if cfg.trials == 130 and budget == default:
            fills = [r.getMessage() for r in caplog.records if r.name == "dpdetect.dp"]
            assert {f.split(":")[0] for f in fills} == {"dp fill rows", "dp fill chunks"}
    if cfg.length_hat == 40:
        assert {r.method: r.failures for r in records} == {"dp": 20, "random": 20, "greedy": 0}
    else:
        assert not failed


# One sweep trial's whole stream, pinned: the truth starts, the noise row
# (its first three and last samples), the random baseline's starts and the
# generator's next draw (the sweep's reused generator, left at the trial's
# state). A change to any draw or to their order shows here.
# c04's trial 999 and c05's trial 202, at sigma2 = 2.
@pytest.mark.parametrize(
    "overrides, truth, noise, random_starts, next_draw",
    [
        (
            dict(k=6, seed=999),
            [27, 74, 113, 165, 220, 264],
            [-0.008811387354385266, 0.7448475034155622, -0.7252382225613488,
             -1.5562275868608133],
            [37, 69, 135, 181, 226, 259],
            0.2591799551817906,
        ),
        (
            dict(k=3, separation="well_separated", seed=202),
            [50, 165, 244],
            [-1.535307700479306, -0.5683880634512924, -1.630011832610034,
             -2.0237123809801623],
            [81, 120, 256],
            0.33042984069951786,
        ),
    ],
    ids=["c04", "c05"],
)
def test_sweep_trial_stream_pinned(
    monkeypatch, overrides, truth, noise, random_starts, next_draw
):
    cfg = BenchConfig(sigma2_grid=(2.0,), **{**PAPER, "trials": 1}, **overrides)
    drawn, rows = [], []

    def spy_starts(synth_cfg, rng):
        starts = sample_starts(synth_cfg, rng)
        drawn.append((starts, rng))
        return starts

    def spy_plant(ys, starts, x):
        rows.append(ys.copy())
        plant(ys, starts, x)

    monkeypatch.setattr(bench_mod, "sample_starts", spy_starts)
    monkeypatch.setattr(bench_mod, "plant", spy_plant)
    run_sweep(cfg)
    (truth_drawn, rng), (random_drawn, random_rng) = drawn
    assert random_rng is rng
    assert truth_drawn == truth
    assert rows[0][0, [0, 1, 2, -1]].tolist() == noise
    assert random_drawn == random_starts
    assert rng.generator.random() == next_draw


def test_sweep_refuses_a_non_finite_measurement(monkeypatch):
    # What synthesize raises for the trial; not a detector failure.
    def plant_nan(rows, starts, x):
        rows[-1, 0] = np.nan

    monkeypatch.setattr(bench_mod, "plant", plant_nan)
    with pytest.raises(ValidationError, match="measurement contains non-finite values"):
        run_sweep(SMALL)


def test_sweep_failures_equal_reference_when_every_dp_table_is_refused(monkeypatch, caplog):
    cfg = BenchConfig(k=6, sigma2_grid=(0.5, 2.0), seed=3, **PAPER)
    monkeypatch.setattr("dpdetect.dp.TABLE_BYTES_LIMIT", 1000)
    records, failed = reference_sweep(cfg)
    with caplog.at_level("WARNING", logger="dpdetect.bench"):
        assert run_sweep(cfg) == records
    assert {r.method: r.failures for r in records if r.sigma2 == 0.5} == {
        "dp": 37, "greedy": 0, "random": 0,
    }
    assert _warned(caplog) == sorted(failed)
    assert len(failed) == 2 * 37


def _sweep_peak_bytes(cfg):
    tracemalloc.start()
    try:
        run_sweep(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_cell_memory_bounded_by_block(monkeypatch):
    # One 200-trial cell at M=271: blocks of 90 trials peak at about 1.1
    # MiB, the whole cell as one block at about 2.4 MiB.
    cfg = BenchConfig(
        n_samples=300, length=30, k=6, sigma2_grid=(1.0,), trials=200,
        methods=("dp", "greedy", "random"), seed=1,
    )
    run_sweep(BenchConfig(**{**cfg.__dict__, "trials": 2}))  # first-call allocations
    assert _sweep_peak_bytes(cfg) < 3 << 19
    monkeypatch.setattr(greedy_mod, "SCORE_BLOCK_BYTES", 1 << 30)
    assert _sweep_peak_bytes(cfg) > 3 << 19


def test_sweep_cell_logged(monkeypatch, caplog):
    cfg = BenchConfig(
        n_samples=120, length=12, k=4, sigma2_grid=(0.5, 2.0), trials=3,
        methods=("dp", "greedy"), length_hat=40,
    )
    # Two score rows of M=81 per block: the 3 trials make blocks of 2 and 1.
    monkeypatch.setattr(greedy_mod, "SCORE_BLOCK_BYTES", 2 * 8 * 82)
    with caplog.at_level(logging.DEBUG, logger="dpdetect.bench"):
        run_sweep(cfg)
    cells = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert cells == [
        f"sweep cell: sigma2={s2:g}, trials=3, block=2x81, blocks=2, k=4, "
        "failures={'dp': 3, 'greedy': 0}"
        for s2 in (0.5, 2.0)
    ]
