"""Per-start correlation scores between a measurement and a template.

The score at start ``s`` is ``sum_i y[s+i] * x[i]`` for ``i in [0, L)``,
which is exactly the contribution of a placement at ``s`` to the detection
objective. Two implementations are provided: direct summation and an
FFT-based path for long measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ValidationError, as_measurement, as_template

__all__ = [
    "ScoreTrack",
    "correlation_scores_direct",
    "correlation_scores_fft",
    "correlation_scores",
]

# Direct summation costs O(N*L) multiplies; beyond this budget the
# O(N log N) FFT path wins comfortably.
_FFT_CUTOVER_MULTIPLIES = 1 << 18


@dataclass(frozen=True)
class ScoreTrack:
    """Correlation score per candidate start ``s in [0, N-L]``."""

    scores: np.ndarray
    n_samples: int
    length: int

    def __post_init__(self):
        if self.scores.size != self.n_samples - self.length + 1:
            raise ValidationError("score track has wrong length")

    @property
    def centers(self) -> np.ndarray:
        """Center-index view of the candidate positions (``start + L//2``)."""
        return np.arange(self.scores.size) + self.length // 2


def _coerce(y, x):
    """Coerce both inputs; the template must fit in the measurement."""
    y = as_measurement(y)
    x = as_template(x)
    if y.length < x.length:
        raise ValidationError(
            f"measurement shorter than template ({y.length} < {x.length})"
        )
    return y, x


def _direct(y, x) -> ScoreTrack:
    scores = np.correlate(y.samples, x.samples, mode="valid")
    return ScoreTrack(scores=scores, n_samples=y.length, length=x.length)


def _fft(y, x) -> ScoreTrack:
    n, length = y.length, x.length
    nfft = 1 << int(np.ceil(np.log2(n + length - 1)))
    # In place: one nfft/2 complex temporary fewer than fy * conj(fx).
    fy = np.fft.rfft(y.samples, nfft)
    fx = np.fft.rfft(x.samples, nfft)
    np.conjugate(fx, out=fx)
    fy *= fx
    scores = np.fft.irfft(fy, nfft)[: n - length + 1]
    return ScoreTrack(scores=scores, n_samples=n, length=length)


def correlation_scores_direct(y, x) -> ScoreTrack:
    """Scores by direct summation (numpy sliding dot product)."""
    return _direct(*_coerce(y, x))


def correlation_scores_fft(y, x) -> ScoreTrack:
    """Scores via frequency-domain multiplication.

    Zero-pads to the next power of two at or above ``N + L - 1`` so the
    circular product never wraps into the valid range.
    """
    return _fft(*_coerce(y, x))


def correlation_scores(y, x, method: str = "auto") -> ScoreTrack:
    """Dispatch between the direct and FFT paths.

    ``auto`` picks FFT once the direct multiply count at this size exceeds
    a fixed budget; both paths agree to ~1e-12 relative error.
    """
    if method not in ("auto", "direct", "fft"):
        raise ValidationError(f"unknown correlation method {method!r}")
    y, x = _coerce(y, x)
    if method == "auto":
        cost = (y.length - x.length + 1) * x.length
        method = "fft" if cost > _FFT_CUTOVER_MULTIPLIES else "direct"
    return _fft(y, x) if method == "fft" else _direct(y, x)
