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


def test_zero_measurement_gives_zero_solution(caplog):
    with caplog.at_level("DEBUG", logger="dpdetect.convex"):
        track = denoise(np.zeros(40), rect_template(5), ConvexConfig(sigma2=1.0))
    assert not track.s.any()
    assert track.residual_sq == 0.0
    assert [r.getMessage() for r in caplog.records] == [
        "convex zero track: N=40, ||y||^2=0 <= delta=48"
    ]


@pytest.mark.parametrize("n", [150, 361, 800])  # the dense step, then the FFT step
def test_residual_is_the_forward_operators(n):
    x = rect_template(15)
    rng = np.random.default_rng(n)
    for sigma2 in (0.25, 0.5, 1.0):
        s_true = np.zeros(n)
        s_true[rng.choice(n - 15, n // 20, replace=False)] = 1.0
        y = forward_op(s_true, x, n) + rng.normal(0.0, np.sqrt(sigma2), n)
        track = denoise(y, x, ConvexConfig(sigma2=sigma2))
        r = y - forward_op(track.s, x, n)
        assert track.s.any() and track.residual_sq == float(np.dot(r, r))


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


def test_objective_close_to_high_precision_reference(monkeypatch):
    from dpdetect import synthesize

    cfg = SynthConfig(n_samples=96, length=12, k=3, sigma2=1.0, seed=85)
    y, _ = synthesize(cfg, rect_template(12), np.random.default_rng(85))
    fast = denoise(y, rect_template(12), ConvexConfig(sigma2=1.0))
    monkeypatch.setattr(convex_module, "_MAX_ITER", 20000)
    ref = denoise(y, rect_template(12), ConvexConfig(sigma2=1.0))
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


def test_unconverged_infeasible_search_stays_convergence_error(monkeypatch):
    # The budget is below the box minimum (about 40.5) either way; only a
    # converged last solve may call it infeasible.
    y = np.random.default_rng(66).standard_normal(50)
    with monkeypatch.context() as m, pytest.raises(ConvergenceError) as info:
        m.setattr(convex_module, "_MAX_ITER", 3)
        denoise(y, np.ones(5), ConvexConfig(delta_override=1e-3))
    assert info.value.residual_sq > 40.0
    with pytest.raises(InfeasibleError):
        denoise(y, np.ones(5), ConvexConfig(delta_override=1e-3))


def test_search_out_of_steps_with_attainable_budget_stays_convergence_error(monkeypatch):
    # Three steps meet delta = 41; two stop at a penalty too large to tell
    # whether the box can, so the search only ran out of steps.
    y = np.random.default_rng(66).standard_normal(50)
    monkeypatch.setattr(convex_module, "_MAX_OUTER", 2)
    with pytest.raises(ConvergenceError):
        denoise(y, np.ones(5), ConvexConfig(delta_override=41.0))
    monkeypatch.setattr(convex_module, "_MAX_OUTER", 3)
    track = denoise(y, np.ones(5), ConvexConfig(delta_override=41.0))
    assert track.residual_sq <= 41.0
    # One step suffices to prove the negative measurement infeasible.
    monkeypatch.setattr(convex_module, "_MAX_OUTER", 1)
    with pytest.raises(InfeasibleError):
        denoise(-3 * np.ones(50), np.ones(5), ConvexConfig(delta_override=1.0))


def test_zero_template_is_infeasible_not_a_division_by_zero():
    # G = 0 has no positive eigenvalue to set the step; G s = 0 everywhere.
    with pytest.raises(InfeasibleError, match=r"\(180 at"):
        denoise(3 * np.ones(20), np.zeros(4), ConvexConfig(delta_override=1.0))


def test_convergence_on_the_last_allowed_iteration_counts_as_converged(monkeypatch):
    # Every solve's first step is a zero update, so with _MAX_ITER = 1 each
    # converges on its last allowed iteration and proves the budget infeasible.
    monkeypatch.setattr(convex_module, "_MAX_ITER", 1)
    with pytest.raises(InfeasibleError):
        denoise(-3 * np.ones(50), np.ones(5), ConvexConfig(delta_override=1.0))


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


def _spy_fista(monkeypatch):
    """Record every ``_fista`` return of the searches that follow."""
    fista = convex_module._fista
    steps = []

    def spy(*args):
        steps.append(fista(*args))
        return steps[-1]

    monkeypatch.setattr(convex_module, "_fista", spy)
    return steps


def _polish_off(monkeypatch):
    monkeypatch.setattr(convex_module, "_polish", lambda *args: None)


def test_denoise_logs_gradient_path_on_each_side_of_cutover(monkeypatch, caplog):
    x = rect_template(10)
    for n, path in (
        (convex_module._DENSE_GRAM_MAX_N, "dense"),
        (convex_module._DENSE_GRAM_MAX_N + 1, "fft"),
    ):
        s_true = np.zeros(n)
        s_true[[5, 60, 200]] = 1.0
        y = forward_op(s_true, x, n)
        caplog.clear()
        steps = _spy_fista(monkeypatch)
        with caplog.at_level("DEBUG", logger="dpdetect.convex"):
            track = denoise(y, x, ConvexConfig(delta_override=1.0))
        monkeypatch.undo()
        certified = sum(out[3] is not None for out in steps)
        polished = sum(out[4] for out in steps)
        assert polished > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"convex {path} gram: N={n}, outer={len(track.trace)}, "
            f"certified={certified}, polished={polished}, iters={track.iterations}"
        ]


def _draws():
    """c07's geometry (N=75, L=15, K=3, sigma2 0.5-3) and convex_small's
    (N=150, L=15, K=6, sigma2 0.5-2, noise energy within the budget)."""
    from dpdetect import synthesize

    x = rect_template(15)
    for n, k, grid in ((75, 3, (0.5, 1.0, 2.0, 3.0)), (150, 6, (0.5, 1.0, 2.0))):
        for sigma2 in grid:
            cfg = ConvexConfig(sigma2=sigma2)
            rng = np.random.default_rng([n, int(10 * sigma2)])
            for draw in range(5):
                synth = SynthConfig(n_samples=n, length=15, k=k, sigma2=sigma2, seed=draw)
                y, truth = synthesize(synth, x, rng)
                noise = y.samples - sum(np.roll(np.pad(x.samples, (0, n - 15)), s) for s in truth.starts)
                if n == 75 or np.dot(noise, noise) <= cfg.delta(n):
                    yield y, x, k, cfg


def _outcome(y, x, k, cfg):
    try:
        result, track = convex_detect_full(y, x, k, cfg)
    except (InfeasibleError, ConvergenceError) as exc:
        return type(exc).__name__, None
    return result.placements.starts.tolist(), track


def test_certificate_off_gives_the_same_search(monkeypatch):
    # A check interval past _MAX_ITER never certifies: every step runs to
    # _REL_TOL, as the solver did before the certificate.
    iterations = [0, 0]
    for y, x, k, cfg in _draws():
        picks, fast = _outcome(y, x, k, cfg)
        monkeypatch.setattr(convex_module, "_GAP_CHECK_EVERY", convex_module._MAX_ITER + 1)
        ref_picks, ref = _outcome(y, x, k, cfg)
        monkeypatch.undo()
        assert picks == ref_picks
        if ref is None:
            continue
        assert [lam for lam, _ in fast.trace] == [lam for lam, _ in ref.trace]
        assert fast.lambda_star == ref.lambda_star
        np.testing.assert_allclose(fast.s, ref.s, rtol=0, atol=5e-5)
        assert fast.residual_sq == pytest.approx(ref.residual_sq, rel=1e-6)
        assert fast.iterations <= ref.iterations
        iterations[0] += fast.iterations
        iterations[1] += ref.iterations
    assert iterations[0] < 0.5 * iterations[1]


def test_certified_sides_agree_with_long_solves(monkeypatch):
    fista = convex_module._fista
    steps = []

    def spy(apply, c, s0, max_iter, rel_tol, band):
        out = fista(apply, c, s0, max_iter, rel_tol, band)
        steps.append((apply, c, band, out[3]))
        return out

    monkeypatch.setattr(convex_module, "_fista", spy)
    # The polish ends steps the certificate would otherwise settle; with it
    # off, the certificate is tested alone.
    _polish_off(monkeypatch)
    sides = {"hi": 0, "lo": 0}
    for y, x, k, cfg in _draws():
        steps.clear()
        _outcome(y, x, k, cfg)
        n = y.length
        for apply, c, band, certificate in steps:
            if certificate is None:
                continue
            side, bound = certificate
            with monkeypatch.context() as m:
                m.setattr(convex_module, "_GAP_CHECK_EVERY", 20001)
                s, _, converged, *_ = fista(apply, c, np.zeros(n), 20000, 1e-10, band)
            assert converged
            r = y.samples - forward_op(s, x, n)
            resid_sq = float(np.dot(r, r))
            if side == "hi":
                assert bound <= resid_sq * (1 + 1e-9) and resid_sq > band.hi_sq
            else:
                assert bound >= resid_sq * (1 - 1e-9) and resid_sq < band.lo_sq
            sides[side] += 1
    assert sides["hi"] > 20 and sides["lo"] > 20


def test_infeasible_proof_from_a_certified_step(monkeypatch, caplog):
    # Budget 1 is far below what the box allows for this negative-mean
    # measurement. With _MAX_ITER = 20 the one bisection step stops before its
    # step test; its certified residual bound still proves infeasibility.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    y = rng.standard_normal(60) - 2.0
    cfg = ConvexConfig(delta_override=1.0)
    with monkeypatch.context() as m:
        m.setattr(convex_module, "_MAX_ITER", 20)
        m.setattr(convex_module, "_MAX_OUTER", 1)
        with caplog.at_level("DEBUG", logger="dpdetect.convex"):
            with pytest.raises(InfeasibleError, match="below the smallest residual_sq"):
                denoise(y, x, cfg)
        assert "outer=1, certified=1, polished=0, iters=20" in caplog.records[-1].getMessage()
        # Without the certificate the same unconverged search proves nothing ...
        m.setattr(convex_module, "_GAP_CHECK_EVERY", 21)
        with pytest.raises(ConvergenceError):
            denoise(y, x, cfg)
    # ... and a converged search agrees that the budget is infeasible.
    monkeypatch.setattr(convex_module, "_GAP_CHECK_EVERY", 21)
    with pytest.raises(InfeasibleError):
        denoise(y, x, cfg)


def test_polish_off_gives_the_same_search(monkeypatch):
    iterations = [0, 0]
    for y, x, k, cfg in _draws():
        picks, fast = _outcome(y, x, k, cfg)
        _polish_off(monkeypatch)
        ref_picks, ref = _outcome(y, x, k, cfg)
        monkeypatch.undo()
        assert picks == ref_picks
        if ref is None:
            continue
        assert [lam for lam, _ in fast.trace] == [lam for lam, _ in ref.trace]
        assert fast.lambda_star == ref.lambda_star
        np.testing.assert_allclose(fast.s, ref.s, rtol=0, atol=5e-5)
        assert fast.iterations <= ref.iterations
        iterations[0] += fast.iterations
        iterations[1] += ref.iterations
    assert iterations[0] < 0.5 * iterations[1]


def _penalized(s, y, x, lam):
    r = y.samples - forward_op(s, x, y.length)
    return lam * float(s.sum()) + 0.5 * float(np.dot(r, r))


def test_each_accepted_polish_is_the_optimum(monkeypatch):
    polish = convex_module._polish
    fista = convex_module._fista
    accepted = []

    def spy(s, apply, c, rel_tol, band):
        p = polish(s, apply, c, rel_tol, band)
        if p is not None:
            accepted.append((p, apply, c, rel_tol, band))
        return p

    monkeypatch.setattr(convex_module, "_polish", spy)
    count = 0
    for y, x, k, cfg in _draws():
        accepted.clear()
        _outcome(y, x, k, cfg)
        n = y.length
        for p, apply, c, rel_tol, band in accepted:
            assert p.min() >= 0.0 and p.max() <= 1.0
            moved = np.empty(n)
            apply(p, moved)
            step = np.clip(moved + c, 0.0, 1.0) - p
            assert np.linalg.norm(step) <= rel_tol * max(1.0, np.linalg.norm(p))
            with monkeypatch.context() as m:
                m.setattr(convex_module, "_GAP_CHECK_EVERY", 20001)
                s, _, converged, *_ = fista(apply, c, np.zeros(n), 20000, 1e-10, band)
            assert converged
            lam = float(np.mean(band.gty - c / band.step))
            ref = _penalized(s, y, x, lam)
            assert _penalized(p, y, x, lam) <= ref + 1e-9 * max(1.0, abs(ref))
            count += 1
    assert count > 100


def _polish_inputs(x, n):
    """``(apply, band)`` for calling ``_polish`` on template ``x`` alone."""
    spec = np.fft.rfft(x, n)
    apply, step, _ = convex_module._step_operator(spec, n)
    band = convex_module._Band(
        step=step, gty=np.zeros(n), gty_max=0.0, yy=0.0, guard=0.0,
        lo_sq=0.0, hi_sq=0.0, gram=np.fft.irfft(np.abs(spec) ** 2, n),
    )
    return apply, band


def test_polish_falls_back_on_a_singular_or_ill_conditioned_free_set():
    # A zero template makes G^T G = 0 (singular: LinAlgError). A rect
    # template of length 10 on N = 60 has spectral zeros, so G^T G is
    # singular in exact arithmetic and every entry free leaves H_FF = H.
    n = 60
    for x in (np.zeros(10), np.ones(10)):
        apply, band = _polish_inputs(x, n)
        assert convex_module._polish(np.full(n, 0.5), apply, np.full(n, 0.01), 1e-8, band) is None
    # A whole search with that template still ends in the box, in budget.
    y = forward_op(np.eye(n)[[3, 25, 41]].sum(axis=0), np.ones(10), n)
    y = y + np.random.default_rng(5).standard_normal(n)
    cfg = ConvexConfig(sigma2=1.0)
    track = denoise(y, np.ones(10), cfg)
    assert track.s.min() >= 0.0 and track.s.max() <= 1.0
    assert track.residual_sq <= cfg.delta(n)


def test_polish_refuses_a_solve_just_outside_the_box():
    # c is built so that the free-set solve on F = {5, 20} gives exactly
    # x = (0.5, top), and every other entry clips to 0. At top = 1 + 1e-10
    # one prox-gradient step moves p by 1e-10, inside the step test, so only
    # the box check keeps p out of the returned solutions.
    n, free = 40, np.array([5, 20])
    apply, band = _polish_inputs(np.ones(4), n)
    h_ff = band.gram[(free[:, None] - free) % n]
    s = np.zeros(n)
    s[free] = (0.3, 0.7)
    for top, kept in ((1.0 - 1e-3, True), (1.0 + 1e-10, False)):
        c = np.full(n, -10.0)
        c[free] = band.step * (h_ff @ np.array([0.5, top]))
        p = convex_module._polish(s, apply, c, 1e-8, band)
        assert (p is not None) == kept
        if kept:
            np.testing.assert_allclose(p[free], (0.5, top), rtol=0, atol=1e-12)


def test_free_set_past_the_cap_is_not_polished(monkeypatch):
    apply, band = _polish_inputs(np.ones(8), 80)
    monkeypatch.setattr(convex_module, "_POLISH_MAX_FREE", 79)
    monkeypatch.setattr(np.linalg, "solve", None)  # never reached
    assert convex_module._polish(np.full(80, 0.5), apply, np.zeros(80), 1e-8, band) is None
    monkeypatch.undo()
    # A cap of 0 admits only free sets that are empty; the searches match
    # the ones with the polish off.
    for y, x, k, cfg in list(_draws())[:6]:
        _polish_off(monkeypatch)
        ref_picks, ref = _outcome(y, x, k, cfg)
        monkeypatch.undo()
        monkeypatch.setattr(convex_module, "_POLISH_MAX_FREE", 0)
        picks, capped = _outcome(y, x, k, cfg)
        monkeypatch.undo()
        assert picks == ref_picks
        assert [lam for lam, _ in capped.trace] == [lam for lam, _ in ref.trace]
        np.testing.assert_allclose(capped.s, ref.s, rtol=0, atol=5e-5)


def test_polish_on_the_fft_path(monkeypatch):
    from dpdetect import synthesize

    n = convex_module._DENSE_GRAM_MAX_N + 1
    x = rect_template(n // 10)
    synth = SynthConfig(n_samples=n, length=x.length, k=6, sigma2=1.0, seed=9)
    y, _ = synthesize(synth, x, np.random.default_rng(9))
    cfg = ConvexConfig(sigma2=1.0)
    steps = _spy_fista(monkeypatch)
    fast = denoise(y, x, cfg)
    monkeypatch.undo()
    _polish_off(monkeypatch)
    ref = denoise(y, x, cfg)
    assert sum(out[4] for out in steps) > 0
    assert [lam for lam, _ in fast.trace] == [lam for lam, _ in ref.trace]
    assert fast.lambda_star == ref.lambda_star
    np.testing.assert_allclose(fast.s, ref.s, rtol=0, atol=5e-5)
    assert fast.iterations < ref.iterations


def test_infeasible_proof_from_a_polished_step(monkeypatch):
    # The box's least residual_sq is about 29.33, and budget 29.27 lies just
    # below what the 14th penalty (4.4e-4) proves. That step's gap cannot
    # settle its side before its free set is solved exactly; the polished
    # optimum's residual proves the budget infeasible.
    rng = np.random.default_rng(0)
    x = np.exp(-0.5 * ((np.arange(8) - 4) / 2.0) ** 2)
    y = rng.standard_normal(60) + 0.3
    cfg = ConvexConfig(delta_override=29.27)
    monkeypatch.setattr(convex_module, "_MAX_OUTER", 14)
    steps = _spy_fista(monkeypatch)
    with pytest.raises(InfeasibleError, match="below the smallest residual_sq"):
        denoise(y, x, cfg)
    converged, certificate, polished = steps[-1][2:]
    assert converged and polished and certificate is None
    # With the polish off, the gap settles that step's side with a bound too
    # loose to prove anything; more bisection steps prove the same.
    monkeypatch.undo()
    _polish_off(monkeypatch)
    with monkeypatch.context() as m, pytest.raises(ConvergenceError):
        m.setattr(convex_module, "_MAX_OUTER", 14)
        denoise(y, x, cfg)
    with pytest.raises(InfeasibleError):
        denoise(y, x, cfg)
