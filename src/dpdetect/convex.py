"""Convex-denoising baseline detector.

The clean measurement is modeled as ``G s`` where ``G`` is the circulant
matrix whose action is circular convolution with the zero-padded template
and ``s`` is a binary indicator of occurrence starts, relaxed to the box
``[0, 1]^N``. Denoising solves

    minimize ||s||_1  subject to  ||y - G s||^2 <= delta,  0 <= s <= 1,

with ``delta = 1.2 * N * sigma^2`` by default. The solver runs an
accelerated proximal gradient method on the penalized form
``lam * ||s||_1 + 0.5 * ||y - G s||^2`` over the box (the prox is a shift
and clip, exact because the box is non-negative) and bisects on ``lam``
until the residual lands in the feasibility band just below ``delta``.
The step size is ``1 / max |spec|^2``, the exact largest eigenvalue of the
circulant ``G^T G``. ``I - step G^T G`` is built once per :func:`denoise`
and applied as a dense ``N x N`` matvec up to ``_DENSE_GRAM_MAX_N`` samples
and as one rfft/irfft pair above it, where the dense matrix would cost
more time than the FFT and ``N^2`` memory. Detection then picks the K
largest denoised entries subject to the usual start-index separation.

The circulant (wrap-around) convention differs from the linear synthesis
model only in the last ``L - 1`` positions; peak picking is restricted to
the valid start range ``[0, N - L]`` so results always form valid
placements.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConvergenceError,
    DetectionResult,
    InfeasibleError,
    PlacementSet,
    ValidationError,
    as_measurement,
    as_template,
    objective_value,
)
from .greedy import separated_peaks

__all__ = [
    "ConvexConfig",
    "DenoisedTrack",
    "forward_op",
    "adjoint_op",
    "denoise",
    "convex_detect",
    "convex_detect_full",
]

log = logging.getLogger(__name__)

# Largest N whose FISTA step applies I - step G^T G as a dense N x N
# matvec (1.0 MiB at the cutover); above it the step is one rfft/irfft pair.
# Timed per FISTA iteration of a whole denoise, one BLAS thread, rect
# template of length N/10 (dense vs FFT, microseconds): N=150 11.3 vs 19.2,
# N=300 22.1 vs 35.5, N=360 26.4-35.2 vs 34.9-38.0, N=380 29.5-40.3 vs
# 28.3-37.3, N=400 35.9 vs 31.5, N=600 138.8 vs 48.0. FFT sizes with a
# large prime factor move the crossover up (N=379: 42.1 vs 91.8).
_DENSE_GRAM_MAX_N = 360


@dataclass(frozen=True)
class ConvexConfig:
    """Noise level (setting the residual budget) and solver controls."""

    sigma2: float = 1.0
    delta_override: float | None = None
    max_outer: int = 40
    feas_tol: float = 0.01
    max_iter: int = 2000
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValidationError("max_outer must be >= 1")

    def delta(self, n_samples: int) -> float:
        d = (
            self.delta_override
            if self.delta_override is not None
            else 1.2 * n_samples * self.sigma2
        )
        if d <= 0:
            raise ValidationError("residual budget delta must be positive")
        return float(d)


@dataclass(frozen=True)
class DenoisedTrack:
    """Solution of the box-constrained program plus solver diagnostics.

    ``trace`` records ``(lam, residual_sq)`` per outer bisection step.
    """

    s: np.ndarray
    residual_sq: float
    lambda_star: float
    iterations: int
    trace: tuple[tuple[float, float], ...] = ()


def _padded_spectrum(x, n_samples: int) -> np.ndarray:
    x = as_template(x)
    if x.length > n_samples:
        raise ValidationError("template longer than measurement")
    return np.fft.rfft(x.samples, n_samples)


def forward_op(s, x, n_samples: int) -> np.ndarray:
    """Circular convolution of ``s`` with the zero-padded template."""
    s = np.asarray(s, dtype=float)
    if s.size != n_samples:
        raise ValidationError(f"expected length {n_samples}, got {s.size}")
    spec = _padded_spectrum(x, n_samples)
    return np.fft.irfft(np.fft.rfft(s) * spec, n_samples)


def adjoint_op(r, x, n_samples: int) -> np.ndarray:
    """Adjoint of :func:`forward_op` (circular correlation)."""
    r = np.asarray(r, dtype=float)
    if r.size != n_samples:
        raise ValidationError(f"expected length {n_samples}, got {r.size}")
    spec = _padded_spectrum(x, n_samples)
    return np.fft.irfft(np.fft.rfft(r) * np.conj(spec), n_samples)


def _step_operator(spec, n_samples: int):
    """``(apply, step, path)`` for the gradient step of :func:`_fista`.

    ``G^T G`` is circulant with eigenvalues ``|spec|^2``, so its largest
    one, the Lipschitz constant of the gradient, is exact and ``step`` is
    its inverse. ``apply(z, out)`` writes ``(I - step G^T G) z``, the
    circulant with spectrum ``1 - step |spec|^2``: as a dense ``N x N``
    matvec up to ``_DENSE_GRAM_MAX_N`` (path ``"dense"``), above it as one
    rfft/irfft pair (path ``"fft"``), so large measurements never allocate
    ``N^2`` floats.
    """
    power = np.abs(spec) ** 2
    step = 1.0 / (float(power.max()) or 1.0)
    a_spec = 1.0 - step * power
    if n_samples <= _DENSE_GRAM_MAX_N:
        col = np.fft.irfft(a_spec, n_samples)
        idx = np.arange(n_samples)
        a = col[(idx[:, None] - idx) % n_samples]

        def apply(z, out):
            np.dot(a, z, out=out)

        return apply, step, "dense"

    def apply(z, out):
        np.fft.irfft(np.fft.rfft(z) * a_spec, n_samples, out=out)

    return apply, step, "fft"


def _fista(apply, c, s0, max_iter, rel_tol):
    """Accelerated proximal gradient for the penalized box problem.

    One step is ``s_new = clip(A z + c, 0, 1)`` with ``A = I - step G^T G``
    applied by ``apply(z, out)`` (see :func:`_step_operator`) and
    ``c = step (G^T y - lam)``. Momentum restarts when it points against
    the latest progress. Returns the iterate, the iterations run, and
    whether the step test was met.
    """
    s = np.clip(s0, 0.0, 1.0)
    z = s.copy()
    s_new = np.empty_like(s)
    d = np.empty_like(s)
    w = np.empty_like(s)
    t = 1.0
    for it in range(1, max_iter + 1):
        apply(z, s_new)
        s_new += c
        np.maximum(s_new, 0.0, out=s_new)
        np.minimum(s_new, 1.0, out=s_new)
        np.subtract(s_new, s, out=d)
        np.subtract(z, s_new, out=w)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if np.dot(w, d) > 0.0:
            t_new = 1.0
        np.multiply(d, (t - 1.0) / t_new, out=z)
        z += s_new
        s, s_new = s_new, s
        t = t_new
        if math.sqrt(np.dot(d, d)) <= rel_tol * max(1.0, math.sqrt(np.dot(s, s))):
            return s, it, True
    return s, max_iter, False


def denoise(y, x, cfg: ConvexConfig) -> DenoisedTrack:
    """Solve the constrained program by bisecting the l1 penalty weight.

    The residual of the penalized solution increases with ``lam``; the
    bisection stops once it falls within ``[delta*(1-feas_tol), delta]``.
    Raises :class:`InfeasibleError` when no step met the budget, the last
    solve (at the smallest penalty tried) converged, and its residual
    proves that no point of the box meets ``delta``. Raises
    :class:`ConvergenceError` (carrying the best iterate) when no step met
    the budget otherwise: that last solve hit ``max_iter``, or the search
    ran out of steps before the penalty was small enough to tell.
    """
    y = as_measurement(y)
    x = as_template(x)
    n = y.length
    delta = cfg.delta(n)
    yv = y.samples

    spec = _padded_spectrum(x, n)
    correlation = np.fft.irfft(np.fft.rfft(yv) * np.conj(spec), n)
    # Any penalty at or above the peak correlation keeps the zero vector
    # optimal, so bisection starts just above it.
    lam_zero = max(float(correlation.max()), 0.0) * 1.001 + 1e-12

    if float(np.dot(yv, yv)) <= delta:
        # The zero vector is feasible and has minimal l1 norm.
        return DenoisedTrack(
            s=np.zeros(n),
            residual_sq=float(np.dot(yv, yv)),
            lambda_star=lam_zero,
            iterations=0,
        )

    apply, step, path = _step_operator(spec, n)

    hi = lam_zero
    lo = 0.0
    warm = np.zeros(n)
    total_iters = 0
    best = None
    trace = []
    for _ in range(cfg.max_outer):
        lam = 0.5 * (lo + hi)
        c = step * (correlation - lam)
        s, iters, converged = _fista(apply, c, warm, cfg.max_iter, cfg.rel_tol)
        total_iters += iters
        resid = yv - np.fft.irfft(np.fft.rfft(s) * spec, n)
        resid_sq = float(np.dot(resid, resid))
        trace.append((lam, resid_sq))
        warm = s
        if resid_sq > delta:
            hi = lam
        else:
            if best is None or lam > best[2]:
                best = (s, resid_sq, lam)
            if resid_sq >= delta * (1.0 - cfg.feas_tol):
                break
            lo = lam
        if hi <= 1e-14:
            # Penalty has collapsed: the (near) unconstrained fit sits
            # inside the budget, so take it as-is.
            break
    log.debug(
        "convex %s gram: N=%d, outer=%d, iters=%d", path, n, len(trace), total_iters
    )
    # The penalized optimum s_lam beats the box's least-residual point s_0
    # on lam*||s||_1 + 0.5*r, and ||s_0||_1 <= n, so r(s_0) >= r(s_lam) - 2*lam*n.
    last_lam, last_resid = trace[-1]
    floor = last_resid - 2.0 * last_lam * n
    if best is None and converged and floor > delta:
        raise InfeasibleError(
            f"residual budget delta {delta:.6g} is below the smallest residual_sq "
            f"the box allows ({last_resid:.6g} at penalty {last_lam:.3g}, "
            f"so at least {floor:.6g})"
        )
    if best is None:
        raise ConvergenceError(
            f"no feasible iterate within {cfg.max_outer} bisection steps "
            f"(best residual_sq {last_resid:.6g} vs delta {delta:.6g})",
            best=warm,
            residual_sq=last_resid,
        )
    s, resid_sq, lam = best
    return DenoisedTrack(
        s=s,
        residual_sq=resid_sq,
        lambda_star=lam,
        iterations=total_iters,
        trace=tuple(trace),
    )


def convex_detect(y, x, k: int, cfg: ConvexConfig) -> DetectionResult:
    """Denoise, then pick the K largest separated entries as starts."""
    result, _ = convex_detect_full(y, x, k, cfg)
    return result


def convex_detect_full(
    y, x, k: int, cfg: ConvexConfig
) -> tuple[DetectionResult, DenoisedTrack]:
    """Like :func:`convex_detect` but also returns the denoised track."""
    y = as_measurement(y)
    x = as_template(x)
    if k < 1:
        raise ValidationError("need at least one occurrence to detect")
    track = denoise(y, x, cfg)
    valid = track.s[: y.length - x.length + 1]
    picks, saturated = separated_peaks(valid, x.length, k)
    placements = PlacementSet(sorted(picks), x.length)
    result = DetectionResult(
        placements=placements,
        objective=objective_value(y, x, placements),
        method="convex",
        k_hat=len(picks),
        saturated=saturated,
    )
    return result, track
