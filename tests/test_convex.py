import numpy as np
import pytest

from dpdetect import convex as convex_module
from dpdetect import (
    ConvergenceError,
    ConvexConfig,
    InfeasibleError,
    SynthConfig,
    ValidationError,
    adjoint_op,
    convex_detect,
    convex_detect_full,
    denoise,
    forward_op,
    rect_template,
    sample_placements,
    validate_placements,
)


def dense_circulant(x, n):
    """Explicit matrix whose action is circular convolution with padded x."""
    xpad = np.concatenate([np.asarray(x, float), np.zeros(n - len(x))])
    cols = [np.roll(xpad, m) for m in range(n)]
    return np.stack(cols, axis=1)


def test_impulse_response():
    x = rect_template(4)
    s = np.zeros(16)
    s[0] = 1.0
    out = forward_op(s, x, 16)
    expected = np.concatenate([np.ones(4), np.zeros(12)])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_zero_input():
    assert not forward_op(np.zeros(12), rect_template(3), 12).any()
    assert not adjoint_op(np.zeros(12), rect_template(3), 12).any()


def test_operators_match_dense_oracle():
    rng = np.random.default_rng(80)
    n, length = 64, 7
    x = rng.standard_normal(length)
    G = dense_circulant(x, n)
    s = rng.standard_normal(n)
    r = rng.standard_normal(n)
    np.testing.assert_allclose(forward_op(s, x, n), G @ s, atol=1e-9)
    np.testing.assert_allclose(adjoint_op(r, x, n), G.T @ r, atol=1e-9)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(81)
    n = 64
    x = rng.standard_normal(9)
    s = rng.standard_normal(n)
    r = rng.standard_normal(n)
    lhs = np.dot(forward_op(s, x, n), r)
    rhs = np.dot(s, adjoint_op(r, x, n))
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_zero_measurement_gives_zero_solution():
    track = denoise(np.zeros(40), rect_template(5), ConvexConfig(sigma2=1.0))
    assert not track.s.any()
    assert track.residual_sq == 0.0


def test_noiseless_sparse_recovery_support():
    n, length, k = 75, 15, 3
    cfg = SynthConfig(n_samples=n, length=length, k=k, sigma2=0.0, seed=82)
    truth = sample_placements(cfg, np.random.default_rng(82))
    s_true = np.zeros(n)
    s_true[truth.starts] = 1.0
    y = forward_op(s_true, rect_template(length), n)
    result, track = convex_detect_full(
        y, rect_template(length), k, ConvexConfig(delta_override=1e-6)
    )
    np.testing.assert_array_equal(result.placements.starts, truth.starts)
    assert track.residual_sq <= 1e-6 * (1 + 1e-9)


def test_iterates_stay_in_box_and_feasible():
    rng = np.random.default_rng(83)
    cfg = SynthConfig(n_samples=80, length=8, k=4, sigma2=1.0, seed=83)
    from dpdetect import synthesize

    y, _ = synthesize(cfg, rect_template(8), rng)
    track = denoise(y, rect_template(8), ConvexConfig(sigma2=1.0))
    delta = 1.2 * 80 * 1.0
    assert track.s.min() >= 0.0 and track.s.max() <= 1.0
    assert track.residual_sq <= delta * (1 + 1e-9)


def test_bisection_residual_monotone_in_penalty():
    from dpdetect import synthesize

    cfg = SynthConfig(n_samples=64, length=8, k=3, sigma2=0.5, seed=84)
    y, _ = synthesize(cfg, rect_template(8), np.random.default_rng(84))
    track = denoise(y, rect_template(8), ConvexConfig(sigma2=0.5))
    pts = sorted(track.trace)
    lams = [p[0] for p in pts]
    resids = [p[1] for p in pts]
    # residual grows with the penalty weight, modulo inner-solve tolerance
    slack = 1e-6 * max(resids)
    assert all(b >= a - slack for a, b in zip(resids, resids[1:]))
    assert lams == sorted(lams)


def test_objective_close_to_high_precision_reference():
    from dpdetect import synthesize

    cfg = SynthConfig(n_samples=96, length=12, k=3, sigma2=1.0, seed=85)
    y, _ = synthesize(cfg, rect_template(12), np.random.default_rng(85))
    fast = denoise(y, rect_template(12), ConvexConfig(sigma2=1.0))
    ref = denoise(y, rect_template(12), ConvexConfig(sigma2=1.0, max_iter=20000))
    l1_fast = np.abs(fast.s).sum()
    l1_ref = np.abs(ref.s).sum()
    assert abs(l1_fast - l1_ref) <= 0.01 * max(l1_ref, 1.0)


def test_peak_single_spike():
    n = 30
    y = np.zeros(n)
    s = np.zeros(n)
    s[7] = 1.0
    # feed the picker through convex_detect on a noiseless spike measurement
    x = rect_template(5)
    y = forward_op(s, x, n)
    result = convex_detect(y, x, 1, ConvexConfig(delta_override=1e-8))
    np.testing.assert_array_equal(result.placements.starts, [7])


def test_peak_tie_break_on_flat_track():
    from dpdetect.greedy import separated_peaks

    picks, saturated = separated_peaks(np.zeros(20), 6, 2)
    assert picks == [0, 6]
    assert not saturated


def test_peak_saturation_flag():
    from dpdetect.greedy import separated_peaks

    picks, saturated = separated_peaks(np.ones(5), 4, 3)
    assert len(picks) == 2
    assert saturated


def test_detected_placements_always_valid():
    from dpdetect import synthesize

    rng = np.random.default_rng(86)
    for seed in range(5):
        cfg = SynthConfig(n_samples=60, length=10, k=2, sigma2=1.0, seed=seed)
        y, _ = synthesize(cfg, rect_template(10), rng)
        result = convex_detect(y, rect_template(10), 2, ConvexConfig(sigma2=1.0))
        assert validate_placements(result.placements, 60, 10)


def test_bad_delta_rejected():
    with pytest.raises(ValidationError):
        denoise(np.ones(20), rect_template(4), ConvexConfig(sigma2=0.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            ConvexConfig(sigma2=bad)
        with pytest.raises(ValidationError, match="finite"):
            ConvexConfig(delta_override=bad)


def test_budget_below_box_minimum_is_infeasible():
    # y < 0 everywhere and s >= 0: the box's best residual is s = 0, 450.
    with pytest.raises(InfeasibleError, match=r"delta 1 .*\(450 at"):
        denoise(-3 * np.ones(50), np.ones(5), ConvexConfig(delta_override=1.0))


def test_unconverged_infeasible_search_stays_convergence_error():
    # The budget is below the box minimum (about 40.5) either way; only a
    # converged last solve may call it infeasible.
    y = np.random.default_rng(66).standard_normal(50)
    with pytest.raises(ConvergenceError) as info:
        denoise(y, np.ones(5), ConvexConfig(delta_override=1e-3, max_iter=3))
    assert info.value.residual_sq > 40.0
    with pytest.raises(InfeasibleError):
        denoise(y, np.ones(5), ConvexConfig(delta_override=1e-3))


def test_search_out_of_steps_with_attainable_budget_stays_convergence_error():
    # Three steps meet delta = 41; two stop at a penalty too large to tell
    # whether the box can, so the search only ran out of steps.
    y = np.random.default_rng(66).standard_normal(50)
    with pytest.raises(ConvergenceError):
        denoise(y, np.ones(5), ConvexConfig(delta_override=41.0, max_outer=2))
    track = denoise(y, np.ones(5), ConvexConfig(delta_override=41.0, max_outer=3))
    assert track.residual_sq <= 41.0
    # One step suffices to prove the negative measurement infeasible.
    with pytest.raises(InfeasibleError):
        denoise(-3 * np.ones(50), np.ones(5),
                ConvexConfig(delta_override=1.0, max_outer=1))


def test_zero_template_is_infeasible_not_a_division_by_zero():
    # G = 0 has no positive eigenvalue to set the step; G s = 0 everywhere.
    with pytest.raises(InfeasibleError, match=r"\(180 at"):
        denoise(3 * np.ones(20), np.zeros(4), ConvexConfig(delta_override=1.0))


def test_convergence_on_the_last_allowed_iteration_counts_as_converged():
    # Every solve's first step is a zero update, so with max_iter=1 each
    # converges on its last allowed iteration and proves the budget infeasible.
    with pytest.raises(InfeasibleError):
        denoise(-3 * np.ones(50), np.ones(5),
                ConvexConfig(delta_override=1.0, max_iter=1))


def test_no_bisection_steps_rejected():
    y = np.random.default_rng(71).standard_normal(50)
    with pytest.raises(ValidationError):
        denoise(y, np.ones(5), ConvexConfig(delta_override=1e-3, max_outer=0))


def test_lipschitz_step_is_largest_gram_eigenvalue():
    rng = np.random.default_rng(87)
    for n, x in ((64, rng.standard_normal(7)), (150, np.ones(15)), (300, np.ones(30))):
        G = dense_circulant(x, n)
        top = np.linalg.eigvalsh(G.T @ G)[-1]
        _, step, _ = convex_module._step_operator(np.fft.rfft(x, n), n)
        assert 1.0 / step == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("n", [64, 97, 150])
def test_dense_and_fft_gradient_paths_agree(monkeypatch, n):
    from dpdetect import synthesize

    rng = np.random.default_rng(88 + n)
    x = rng.standard_normal(7) if n == 64 else rect_template(n // 10).samples
    G = dense_circulant(x, n)
    z = rng.standard_normal(n)
    cfg = SynthConfig(n_samples=n, length=len(x), k=3, sigma2=0.1, seed=n)
    y, _ = synthesize(cfg, x, np.random.default_rng(n))
    tracks = {}
    for limit, path in ((n, "dense"), (n - 1, "fft")):
        monkeypatch.setattr(convex_module, "_DENSE_GRAM_MAX_N", limit)
        apply, step, got = convex_module._step_operator(np.fft.rfft(x, n), n)
        assert got == path
        out = np.empty(n)
        apply(z, out)
        np.testing.assert_allclose(out, z - step * (G.T @ (G @ z)), rtol=0, atol=1e-12)
        tracks[path] = denoise(y, x, ConvexConfig(sigma2=0.1))
    dense, fft = tracks["dense"], tracks["fft"]
    assert dense.iterations > 0
    np.testing.assert_allclose(dense.s, fft.s, rtol=0, atol=1e-12)
    assert dense.residual_sq == pytest.approx(fft.residual_sq, rel=1e-12)
    assert dense.iterations == fft.iterations


def test_denoise_logs_gradient_path_on_each_side_of_cutover(caplog):
    x = rect_template(10)
    for n, path in (
        (convex_module._DENSE_GRAM_MAX_N, "dense"),
        (convex_module._DENSE_GRAM_MAX_N + 1, "fft"),
    ):
        s_true = np.zeros(n)
        s_true[[5, 60, 200]] = 1.0
        y = forward_op(s_true, x, n)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="dpdetect.convex"):
            track = denoise(y, x, ConvexConfig(delta_override=1.0))
        assert [r.getMessage() for r in caplog.records] == [
            f"convex {path} gram: N={n}, outer={len(track.trace)}, "
            f"iters={track.iterations}"
        ]
