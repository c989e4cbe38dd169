"""Per-start correlation scores between a measurement and a template.

The score at start ``s`` is ``sum_i y[s+i] * x[i]`` for ``i in [0, L)``,
which is exactly the contribution of a placement at ``s`` to the detection
objective. :func:`correlation_scores` computes them by direct summation
or through the FFT and returns a plain float64 array of ``N - L + 1``
scores; the two named entry points force one path. It is the one-row case
of :func:`correlation_rows`, which scores a ``(T, N)`` block of
measurements, as a benchmark sweep hands it.
"""

from __future__ import annotations

import logging

import numpy as np

from .model import ValidationError, as_measurement, as_template, check_fits

__all__ = [
    "correlation_scores_direct",
    "correlation_scores_fft",
    "correlation_scores",
]

log = logging.getLogger(__name__)

# Direct summation costs M*L multiply-adds (M = N - L + 1 starts), the FFT
# path about nfft*log2(nfft) for the power of two nfft >= N + L - 1; auto
# takes the FFT once M*L exceeds this many times the latter. np.correlate
# runs far more multiply-adds per second than the FFT runs butterflies.
# Best of 5-20 calls, one BLAS thread, 2-core Xeon, numpy 2.4 (direct vs
# FFT, ms): N=2^19 L=20 8.9 vs 77.9, L=100 11.5 vs 78.4, L=1000 64.1 vs
# 81.2, L=1500 119.1 vs 86.1; N=2^15 L=1000 4.3 vs 4.5, L=1500 6.8 vs 4.4;
# N=2^13 L=500 0.58 vs 0.86, L=750 0.92 vs 0.86. The crossover sits at
# M*L / (nfft*log2(nfft)) = 20-35 for every N from 2^13 to 2^19.
_DIRECT_PER_FFT_COST = 24


def correlation_scores_direct(y, x) -> np.ndarray:
    """Scores by direct summation (numpy sliding dot product)."""
    return correlation_scores(y, x, method="direct")


def correlation_scores_fft(y, x) -> np.ndarray:
    """Scores via frequency-domain multiplication."""
    return correlation_scores(y, x, method="fft")


def correlation_scores(y, x, method: str = "auto") -> np.ndarray:
    """Score per candidate start ``s in [0, N-L]``, by the chosen path.

    ``direct`` uses ``np.correlate``; ``fft`` zero-pads to the power of two
    ``nfft >= N + L - 1``, so the circular product never wraps into the
    valid range. ``auto`` picks FFT once the direct multiply count ``M*L``
    exceeds ``_DIRECT_PER_FFT_COST`` times the FFT's ``nfft*log2(nfft)``;
    both paths agree to ~1e-12 relative error. The ``dpdetect.xcorr``
    logger reports the path and both costs at debug level. Raises
    :class:`ValidationError` when a score overflows float64, which finite
    samples can still do. The one-row case of :func:`correlation_rows`.
    """
    y = as_measurement(y)
    return correlation_rows(y.samples[np.newaxis], x, method)[0]


def correlation_rows(ys, x, method: str = "auto") -> np.ndarray:
    """:func:`correlation_scores` of each row of a ``(T, N)`` block, ``(T, M)``.

    The rows must be finite (a :class:`~dpdetect.model.Measurement` each,
    or checked by the caller). Row ``t`` equals ``correlation_scores`` of
    row ``t`` bit for bit: the direct path runs ``np.correlate`` per row,
    the FFT path the same transforms along the last axis. One path choice,
    one debug line and one overflow check cover the block.
    """
    if method not in ("auto", "direct", "fft"):
        raise ValidationError(f"unknown correlation method {method!r}")
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2:
        raise ValidationError(f"expected a (T, N) block of rows, got shape {ys.shape}")
    x = as_template(x)
    n, length = ys.shape[1], x.length
    check_fits(n, length)
    direct_cost = (n - length + 1) * length
    log_nfft = (n + length - 2).bit_length()
    fft_cost = log_nfft << log_nfft
    if method == "auto":
        method = "fft" if direct_cost > _DIRECT_PER_FFT_COST * fft_cost else "direct"
    log.debug(
        "xcorr %s: N=%d, L=%d, M*L=%d, nfft*log2(nfft)=%d",
        method, n, length, direct_cost, fft_cost,
    )
    if method == "fft":
        # In place: one nfft/2 complex temporary fewer than fy * conj(fx).
        nfft = 1 << log_nfft
        fy = np.fft.rfft(ys, nfft)
        fx = np.fft.rfft(x.samples, nfft)
        np.conjugate(fx, out=fx)
        fy *= fx
        scores = np.fft.irfft(fy, nfft)[:, : n - length + 1]
    elif ys.shape[0] == 1:  # np.correlate has no out argument: no block copy
        scores = np.correlate(ys[0], x.samples, mode="valid")[np.newaxis]
    else:
        scores = np.empty((ys.shape[0], n - length + 1))
        for row, y in zip(scores, ys):
            row[:] = np.correlate(y, x.samples, mode="valid")
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValidationError(
            f"correlation scores overflow float64 at {finite.size - np.count_nonzero(finite)} "
            f"of {finite.size} starts (N={n}, L={length}); rescale the measurement "
            "or the template"
        )
    return scores
