import time

import numpy as np
import pytest

import dpdetect.xcorr as xcorr_mod
from dpdetect import (
    ValidationError,
    correlation_scores,
    correlation_scores_direct,
    correlation_scores_fft,
)
from conftest import window_scores

REL_TOL = 1e-9


def test_direct_example():
    scores = correlation_scores_direct([1, 1, 0, 1, 1, 0], [1, 1])
    np.testing.assert_array_equal(scores, [2, 1, 1, 2, 1])


def test_direct_identity_template():
    y = [3.0, -1.0, 2.5, 0.0]
    scores = correlation_scores_direct(y, [1.0])
    np.testing.assert_array_equal(scores, y)


def test_direct_zero_measurement():
    scores = correlation_scores_direct(np.zeros(10), np.ones(3))
    assert not scores.any()


def test_fft_matches_direct_example():
    scores = correlation_scores_fft([1, 1, 0, 1, 1, 0], [1, 1])
    np.testing.assert_allclose(scores, [2, 1, 1, 2, 1], atol=REL_TOL)


def test_fft_identity_template():
    y = np.array([3.0, -1.0, 2.5, 0.0])
    scores = correlation_scores_fft(y, [1.0])
    np.testing.assert_allclose(scores, y, atol=REL_TOL)


def test_fft_matches_direct_random_small():
    rng = np.random.default_rng(10)
    for _ in range(50):
        length = int(rng.integers(1, 9))
        n = int(rng.integers(length, 65))
        y = rng.standard_normal(n)
        x = rng.standard_normal(length)
        a = correlation_scores_direct(y, x)
        b = correlation_scores_fft(y, x)
        scale = max(np.abs(a).max(), 1.0)
        assert np.abs(a - b).max() <= REL_TOL * scale


def test_fft_in_place_product_is_bit_identical():
    # The FFT path multiplies in place; it must equal the out-of-place
    # rfft(y) * conj(rfft(x)) product bit for bit.
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 3000))
        length = int(rng.integers(1, n + 1))
        y = rng.standard_normal(n)
        x = rng.standard_normal(length)
        nfft = 1 << int(np.ceil(np.log2(n + length - 1)))
        spec = np.fft.rfft(y, nfft) * np.conj(np.fft.rfft(x, nfft))
        expected = np.fft.irfft(spec, nfft)[: n - length + 1]
        np.testing.assert_array_equal(correlation_scores_fft(y, x), expected)


def test_fft_matches_direct_large():
    rng = np.random.default_rng(11)
    for n, length in [(1_000, 30), (10_000, 64), (100_000, 200)]:
        y = rng.standard_normal(n)
        x = rng.standard_normal(length)
        a = correlation_scores_direct(y, x)
        b = correlation_scores_fft(y, x)
        assert np.abs(a - b).max() <= REL_TOL * np.abs(a).max()


def test_matches_independent_window_sums():
    rng = np.random.default_rng(12)
    y = rng.standard_normal(50)
    x = rng.standard_normal(6)
    expected = window_scores(y, x)
    np.testing.assert_allclose(correlation_scores(y, x), expected, rtol=1e-12)


def test_linearity_in_measurement():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(40)
    x = rng.standard_normal(5)
    base = correlation_scores_fft(y, x)
    scaled = correlation_scores_fft(2.5 * y, x)
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


def test_dispatch_modes():
    rng = np.random.default_rng(14)
    y = rng.standard_normal(30)
    x = rng.standard_normal(4)
    auto = correlation_scores(y, x)
    direct = correlation_scores(y, x, method="direct")
    fft = correlation_scores(y, x, method="fft")
    np.testing.assert_allclose(auto, direct, rtol=1e-12)
    np.testing.assert_allclose(fft, direct, atol=REL_TOL)
    with pytest.raises(ValidationError):
        correlation_scores(y, x, method="banana")


def test_auto_logs_path_on_each_side_of_cutover(caplog):
    # Every L below N + 2 pads N = 8192 to nfft = 2^14, so the FFT cost is
    # 14 * 2^14 and auto switches at the first L whose M*L passes the
    # calibrated multiple of it. The timings put that L between 500 and 1000.
    n, fft_cost = 8192, 14 << 14
    budget = xcorr_mod._DIRECT_PER_FFT_COST * fft_cost
    last_direct = max(length for length in range(1, n // 2) if (n - length + 1) * length <= budget)
    assert 500 <= last_direct < 1000
    rng = np.random.default_rng(16)
    y = rng.standard_normal(n)
    for length, path, reference in (
        (last_direct, "direct", correlation_scores_direct),
        (last_direct + 1, "fft", correlation_scores_fft),
    ):
        x = rng.standard_normal(length)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="dpdetect.xcorr"):
            scores = correlation_scores(y, x)
        assert [r.getMessage() for r in caplog.records] == [
            f"xcorr {path}: N={n}, L={length}, M*L={(n - length + 1) * length}, "
            f"nfft*log2(nfft)={fft_cost}"
        ]
        np.testing.assert_array_equal(scores, reference(y, x))


@pytest.mark.parametrize("method", ["auto", "direct", "fft"])
def test_overflowing_scores_rejected(method):
    # Finite samples whose window sums pass the largest float64, refused by
    # the dispatcher and by the entry point that forces the same path.
    forced = {"auto": correlation_scores, "direct": correlation_scores_direct,
              "fft": correlation_scores_fft}[method]
    for call in (lambda y, x: correlation_scores(y, x, method=method), forced):
        with pytest.raises(ValidationError, match=r"overflow float64 at 46 of 46 starts"):
            with np.errstate(over="ignore", invalid="ignore"):  # the FFT's own overflow
                call([1e308] * 50, np.ones(5))
    if method != "fft":  # the transforms of such samples overflow themselves
        y = np.full(50, 1e308)
        y[::2] = -1e308  # sums of +-1e308 pairs are finite: no error
        np.testing.assert_array_equal(correlation_scores(y, np.ones(2), method=method), 0.0)


def test_template_longer_than_measurement_rejected():
    with pytest.raises(ValidationError):
        correlation_scores_direct([1.0, 2.0], [1.0, 2.0, 3.0])


def test_fft_runtime_scales_quasilinearly():
    # Coarse growth check: the effective exponent over a 4x size step must
    # sit far below quadratic (2.0). Wall-clock ratios on small shared
    # machines wander with the memory hierarchy, so the bound is on the
    # exponent rather than a fixed ratio; a quadratic regression would
    # measure ~2.0 and fail clearly.
    rng = np.random.default_rng(15)
    x = rng.standard_normal(128)
    sizes = (1 << 16, 1 << 18)
    ys = {n: rng.standard_normal(n) for n in sizes}
    for n in sizes:
        correlation_scores_fft(ys[n], x)  # warm up both plans
    best = {n: np.inf for n in sizes}
    for _ in range(10):
        for n in sizes:  # interleaved so load noise hits both sizes alike
            t0 = time.perf_counter()
            correlation_scores_fft(ys[n], x)
            best[n] = min(best[n], time.perf_counter() - t0)
    exponent = np.log(best[sizes[1]] / best[sizes[0]]) / np.log(4.0)
    assert exponent <= 1.6
