"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are fixed here and not tuned at runtime.
"""

import time

import numpy as np

import dpdetect as dpd
from dpdetect import (
    ConvexConfig,
    GapConfig,
    Measurement,
    PlacementSet,
    SynthConfig,
    adjoint_op,
    convex_detect_full,
    correlation_scores,
    correlation_scores_direct,
    correlation_scores_fft,
    dp_detect,
    estimate_k,
    forward_op,
    greedy_detect,
    match_detections,
    objective_value,
    random_detect,
    rect_template,
    sample_placements,
    score,
    synthesize,
    validate_placements,
)
from dpdetect.bench import BenchConfig, run_sweep
from dpdetect.dp import dp_detect_rows
from conftest import brute_force_objective, window_scores


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _mean_f1_by_method(cfg):
    records = run_sweep(cfg)
    table = {}
    for r in records:
        table[(r.method, r.sigma2)] = r.mean_f1
    return table


def test_c01_oracle_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        length = int(rng.integers(2, 7))
        n = int(rng.integers(max(length + 1, 8), 41))
        n_pos = n - length + 1
        k_fit = (n_pos - 1) // length + 1
        k = int(rng.integers(1, min(3, k_fit) + 1))
        sigma2 = float(rng.choice([0.0, 1.0]))
        y = rng.standard_normal(n) * np.sqrt(max(sigma2, 1e-12))
        if rng.random() < 0.5:
            s = int(rng.integers(0, n_pos))
            y[s : s + length] += 1.0
        x = rng.standard_normal(length)
        expected = brute_force_objective(y, x, k)
        got = dp_detect(y, x, k).objective
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 30.0,
        f"500 instances, worst |dp-brute|={worst:.3g}, {elapsed:.1f}s",
    )


def test_c02_dominance_ten_thousand_paired_trials():
    # Two saturation-free geometries so greedy always attains K picks:
    # greedy blocks at most (K-1)(2L-1) < M positions before the last pick.
    configs = [
        dict(n_samples=300, length=30, k=3, separation="well_separated"),
        dict(n_samples=300, length=30, k=4, separation="arbitrary"),
    ]
    sigmas = (0.5, 1.0, 2.0, 3.0)
    trials_per_cell = 1250
    tpl = rect_template(30)
    total = 0
    violations = 0
    for c_idx, geo in enumerate(configs):
        for s_idx, sigma2 in enumerate(sigmas):
            for t in range(trials_per_cell):
                seed = 2_000_000 + ((c_idx * 4 + s_idx) * trials_per_cell + t)
                rng = np.random.default_rng(seed)
                cfg = SynthConfig(sigma2=sigma2, seed=seed, **geo)
                y, _ = synthesize(cfg, tpl, rng)
                dp_obj = dp_detect(y, tpl, geo["k"]).objective
                gr_obj = greedy_detect(y, tpl, geo["k"]).objective
                ra_obj = random_detect(y, tpl, geo["k"], rng).objective
                tol = 1e-9 * max(1.0, abs(dp_obj))
                if gr_obj - dp_obj > tol or ra_obj - gr_obj > tol:
                    violations += 1
                total += 1
    _report(2, total >= 10_000 and violations == 0,
            f"{total} paired trials, {violations} dominance violations")


def test_c03_noiseless_recovery_both_regimes():
    tpl = rect_template(30)
    perfect = 0
    total = 0
    for geo in (
        dict(k=6, separation="arbitrary"),
        dict(k=3, separation="well_separated"),
    ):
        for seed in range(100):
            cfg = SynthConfig(n_samples=300, length=30, sigma2=0.0, seed=seed, **geo)
            y, truth = synthesize(cfg, tpl)
            result = dp_detect(y, tpl, geo["k"])
            rep = score(truth, result.placements, 30, geo["k"])
            perfect += rep.f1 == 1.0
            total += 1
    _report(3, perfect == total, f"F1=1 on {perfect}/{total} noiseless trials")


def test_c04_dense_sweep_dp_beats_greedy():
    cfg = BenchConfig(
        n_samples=300, length=30, k=6, sigma2_grid=(0.5, 1.0, 2.0, 3.0),
        trials=300, methods=("dp", "greedy"), separation="arbitrary", seed=999,
    )
    table = _mean_f1_by_method(cfg)
    diffs = {s2: table[("dp", s2)] - table[("greedy", s2)] for s2 in cfg.sigma2_grid}
    ok = all(v > 0 for v in diffs.values()) and diffs[2.0] >= 0.02
    _report(4, ok, "dp-greedy mean-F1 margins "
            + ", ".join(f"s2={s}: {v:+.3f}" for s, v in diffs.items()))


def test_c05_well_separated_sweep_comparable():
    cfg = BenchConfig(
        n_samples=300, length=30, k=3, sigma2_grid=(0.5, 1.0, 2.0, 3.0),
        trials=300, methods=("dp", "greedy"), separation="well_separated", seed=202,
    )
    table = _mean_f1_by_method(cfg)
    gaps = {s2: abs(table[("dp", s2)] - table[("greedy", s2)]) for s2 in cfg.sigma2_grid}
    _report(5, all(v <= 0.05 for v in gaps.values()),
            "|dp-greedy| " + ", ".join(f"s2={s}: {v:.3f}" for s, v in gaps.items()))


def test_c06_gap_statistic_sanity():
    tpl = rect_template(30)
    hits = 0
    for seed in range(100):
        cfg = SynthConfig(n_samples=300, length=30, k=6, sigma2=0.0, seed=seed)
        y, _ = synthesize(cfg, tpl)
        k_hat, _ = estimate_k(y, tpl, GapConfig(k_max=10, perms=50, seed=seed), "dp")
        hits += k_hat == 6
    gap_cfg = BenchConfig(
        n_samples=300, length=30, k=6, sigma2_grid=(2.0,), trials=300,
        methods=("dp", "greedy"), separation="arbitrary",
        k_mode="gap", k_max=10, perms=50, seed=404,
    )
    table = _mean_f1_by_method(gap_cfg)
    dp_f1, gr_f1 = table[("dp", 2.0)], table[("greedy", 2.0)]
    ok = hits >= 95 and dp_f1 > gr_f1
    _report(6, ok,
            f"noiseless k_hat=6 on {hits}/100 seeds; "
            f"gap-mode mean F1 at s2=2: dp {dp_f1:.3f} vs greedy {gr_f1:.3f}")


def test_c07_convex_detector():
    # (a) adjoint identity against a dense-matrix oracle at N=64
    rng = np.random.default_rng(1007)
    n, length = 64, 7
    x = rng.standard_normal(length)
    xpad = np.concatenate([x, np.zeros(n - length)])
    dense = np.stack([np.roll(xpad, m) for m in range(n)], axis=1)
    sv, rv = rng.standard_normal(n), rng.standard_normal(n)
    fwd_err = np.abs(forward_op(sv, x, n) - dense @ sv).max()
    adj_err = np.abs(adjoint_op(rv, x, n) - dense.T @ rv).max()
    dot_gap = abs(
        np.dot(forward_op(sv, x, n), rv) - np.dot(sv, adjoint_op(rv, x, n))
    )
    part_a = max(fwd_err, adj_err, dot_gap) <= 1e-9

    # (b) noiseless binary sparse recovery
    ncfg = SynthConfig(n_samples=75, length=15, k=3, sigma2=0.0, seed=1008)
    truth = sample_placements(ncfg, np.random.default_rng(1008))
    s_true = np.zeros(75)
    s_true[truth.starts] = 1.0
    y = forward_op(s_true, rect_template(15), 75)
    result, _ = convex_detect_full(
        y, rect_template(15), 3, ConvexConfig(delta_override=1e-6)
    )
    part_b = score(truth, result.placements, 15, 3).f1 == 1.0

    # (c) scaled noise sweep: dp mean F1 >= convex mean F1 at every point
    cfg = BenchConfig(
        n_samples=75, length=15, k=3, sigma2_grid=(0.5, 1.0, 2.0, 3.0),
        trials=300, methods=("dp", "convex"), separation="arbitrary", seed=505,
    )
    table = _mean_f1_by_method(cfg)
    part_c = all(
        table[("dp", s2)] >= table[("convex", s2)] for s2 in cfg.sigma2_grid
    )
    sweep = ", ".join(
        f"s2={s2}: dp {table[('dp', s2)]:.3f} vs cvx {table[('convex', s2)]:.3f}"
        for s2 in cfg.sigma2_grid
    )
    _report(7, part_a and part_b and part_c,
            f"adjoint<=1e-9: {part_a}; noiseless F1=1: {part_b}; sweep {sweep}")


def test_c08_dp_runtime_scaling():
    rng = np.random.default_rng(1009)
    x = rng.standard_normal(64)
    # Sizes large enough that each timing (about 5 ms and up) stands well
    # above scheduler jitter, and the best of 7 calls per size. The fill
    # runs in tiles of about 2^16 cells, which stay in the 2 MiB L2 cache,
    # so its cost per cell holds once a row makes more than one tile; the
    # direct correlation steps up between 2^19 and 2^20. One BLAS thread,
    # 2-core Xeon, best of 7: fill 3.1-3.4 ns per cell and count at 2^16
    # (one tile), then 2.5, 2.4, 2.3-2.4 and 2.2 ns at 2^17, 2^18, 2^19 and
    # 2^20 (untiled: 3.3-3.5, 3.7-3.8, 3.7 and 3.3-3.8 ns); scores 19-22 ns
    # per sample up to 2^19 and 26-28 ns at 2^20. So the DP (fill and
    # backtrack) is timed alone, on scores computed beforehand, at sizes
    # that all run several tiles: each ratio measures the doubling.
    # The sizes take turns, so a change in the host's speed during the test
    # reaches every size's best call alike.
    sizes = (1 << 18, 1 << 19, 1 << 20)
    scores = {n: correlation_scores(rng.standard_normal(n), x)[None, :] for n in sizes}
    best = dict.fromkeys(sizes, np.inf)
    for n in sizes:
        dp_detect_rows(scores[n], x.size, 8)  # warm up
    for _ in range(7):
        for n in sizes:
            t0 = time.perf_counter()
            dp_detect_rows(scores[n], x.size, 8)
            best[n] = min(best[n], time.perf_counter() - t0)
    r1 = best[sizes[1]] / best[sizes[0]]
    r2 = best[sizes[2]] / best[sizes[1]]
    _report(8, r1 <= 2.5 and r2 <= 2.5,
            f"doubling ratios {r1:.2f}, {r2:.2f} (times "
            + ", ".join(f"{n}: {t * 1e3:.1f}ms" for n, t in best.items()) + ")")


def test_c09_wrong_template_length_robustness():
    # true L=30; detectors get 39 (ratio 1.3) then 24 (ratio 0.8)
    base = dict(
        n_samples=300, length=30, k=6, sigma2_grid=(1.0, 2.0), trials=300,
        methods=("dp", "greedy"), separation="arbitrary", seed=77,
    )
    long_cfg = BenchConfig(length_hat=39, **base)
    t_long = _mean_f1_by_method(long_cfg)
    long_ok = all(
        t_long[("dp", s2)] > t_long[("greedy", s2)] for s2 in (1.0, 2.0)
    )
    short_cfg = BenchConfig(length_hat=24, **base)
    t_short = _mean_f1_by_method(short_cfg)
    short_gap = max(
        abs(t_short[("dp", s2)] - t_short[("greedy", s2)]) for s2 in (1.0, 2.0)
    )
    _report(9, long_ok and short_gap <= 0.07,
            f"ratio 1.3 dp ahead: {long_ok}; ratio 0.8 max |gap|={short_gap:.3f}")


def test_c10_stated_unit_examples():
    checks = []
    # metrics
    checks.append(match_detections(PlacementSet([100], 30), PlacementSet([115], 30), 30) == (0, 1, 1))
    checks.append(match_detections(PlacementSet([100], 30), PlacementSet([114], 30), 30) == (1, 0, 0))
    checks.append(match_detections(PlacementSet([0, 30], 30), PlacementSet([14, 16], 30), 30) == (2, 0, 0))
    rep = score(PlacementSet([0, 100], 30), PlacementSet([5, 200], 30), 30, 2)
    checks.append(rep.f1 == 0.5 and rep.precision == 0.5 and rep.recall == 0.5)
    rep = score(PlacementSet([0, 100], 30), PlacementSet([], 30), 30, 2)
    checks.append(rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0 and rep.k_err == 1.0)
    # model
    checks.append(validate_placements(PlacementSet([0, 3], 3), 6, 3))
    checks.append(not validate_placements(PlacementSet([0, 2], 3), 6, 3))
    checks.append(not validate_placements(PlacementSet([0, 3], 3), 6, 3, well_separated=True))
    checks.append(objective_value([1, 1, 0, 1, 1, 0], [1, 1], PlacementSet([0, 3], 2)) == 4.0)
    checks.append(objective_value([1.0, 2.0, 3.0], [1, 1], PlacementSet([], 2)) == 0.0)
    checks.append(objective_value(np.zeros(9), np.ones(4), PlacementSet([0, 5], 4)) == 0.0)
    # xcorr
    checks.append(np.array_equal(correlation_scores_direct([1, 1, 0, 1, 1, 0], [1, 1]), [2, 1, 1, 2, 1]))
    y = np.array([4.0, -2.0, 7.0])
    checks.append(np.array_equal(correlation_scores_direct(y, [1.0]), y))
    fft_track = correlation_scores_fft([1, 1, 0, 1, 1, 0], [1, 1])
    checks.append(np.abs(fft_track - np.array([2, 1, 1, 2, 1])).max() <= 1e-9 * 2)
    checks.append(np.abs(correlation_scores_fft(y, [1.0]) - y).max() <= 1e-9 * 7)
    rng = np.random.default_rng(1010)
    yr, xr = rng.standard_normal(64), rng.standard_normal(5)
    a = correlation_scores_direct(yr, xr)
    b = correlation_scores_fft(yr, xr)
    checks.append(np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max()))
    checks.append(np.abs(correlation_scores_fft(yr, xr) - window_scores(yr, xr)).max() <= 1e-9)
    # synth
    checks.append(np.array_equal(rect_template(30).samples, np.ones(30)))
    checks.append(np.array_equal(rect_template(1).samples, [1.0]))
    checks.append(np.array_equal(rect_template(20).samples, np.ones(20)))
    p = sample_placements(SynthConfig(n_samples=300, length=30, k=6, sigma2=0), np.random.default_rng(0))
    checks.append(len(p) == 6 and np.diff(p.starts).min() >= 30)
    p = sample_placements(
        SynthConfig(n_samples=300, length=30, k=3, sigma2=0, separation="well_separated"),
        np.random.default_rng(0),
    )
    checks.append(len(p) == 3 and np.diff(p.starts).min() >= 60)
    p = sample_placements(SynthConfig(n_samples=10, length=5, k=2, sigma2=0), np.random.default_rng(0))
    checks.append(np.array_equal(p.starts, [0, 5]))
    y6, t6 = synthesize(SynthConfig(n_samples=6, length=3, k=2, sigma2=0.0), rect_template(3))
    checks.append(np.array_equal(y6.samples, np.ones(6)) and np.array_equal(t6.starts, [0, 3]))
    yk, tk = synthesize(SynthConfig(n_samples=300, length=30, k=6, sigma2=0.0, seed=1), rect_template(30))
    checks.append(abs(objective_value(yk, rect_template(30), tk) - 6 * 30) <= 1e-9)
    yv, tv = synthesize(SynthConfig(n_samples=300, length=30, k=6, sigma2=2.0, seed=77), rect_template(30))
    clean = np.zeros(300)
    for s in tv.starts:
        clean[s : s + 30] += 1.0
    checks.append(1.6 <= (yv.samples - clean).var() <= 2.4)
    _report(10, all(checks), f"{sum(checks)}/{len(checks)} stated examples hold")


def test_c11_whitening_improves_detection_on_colored_noise():
    # Substitute for the real-micrograph runs: synthetic stripes with
    # narrowband interference plus white noise; a signal-free prefix feeds
    # the spectrum estimate, and whitened detection must beat raw detection
    # at matched noise on mean F1.
    def stripe(seed, n_noise=1024, n_signal=2048, length=32, k=12):
        rng = np.random.default_rng(seed)
        n = n_noise + n_signal
        t = np.arange(n)
        noise = rng.standard_normal(n) * np.sqrt(0.5)
        for amp, period in ((2.5, 64.0), (2.0, 37.0)):
            noise += amp * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        cfg = SynthConfig(n_samples=n_signal - length, length=length, k=k, sigma2=0.0)
        inner = sample_placements(cfg, rng)
        starts = inner.starts + n_noise
        clean = np.zeros(n)
        for s in starts:
            clean[s : s + length] += 1.0
        return Measurement(clean + noise), PlacementSet(starts, length), n_noise

    length, k = 32, 12
    tpl = rect_template(length)
    raw_f1 = []
    white_f1 = []
    for seed in range(30):
        y, truth, n_noise = stripe(seed)
        raw = dp_detect(y, tpl, k)
        psd = dpd.estimate_psd(y, (0, n_noise), window_len=256)
        whitened = dpd.whiten(y, psd)
        wht = dp_detect(whitened, tpl, k)
        raw_f1.append(score(truth, raw.placements, length, k).f1)
        white_f1.append(score(truth, wht.placements, length, k).f1)
    raw_mean = float(np.mean(raw_f1))
    white_mean = float(np.mean(white_f1))
    _report(11, white_mean > raw_mean + 0.1,
            f"mean F1 raw {raw_mean:.3f} vs whitened {white_mean:.3f} over 30 stripes")
