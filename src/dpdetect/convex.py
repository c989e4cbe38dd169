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
Detection then picks the K largest denoised entries subject to the usual
start-index separation.

The circulant (wrap-around) convention differs from the linear synthesis
model only in the last ``L - 1`` positions; peak picking is restricted to
the valid start range ``[0, N - L]`` so results always form valid
placements.
"""

from __future__ import annotations

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


def _operator_norm_sq(spec, n_samples: int, iters: int = 20) -> float:
    """Largest eigenvalue of G^T G by power iteration."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n_samples)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = np.fft.irfft(np.fft.rfft(v) * np.abs(spec) ** 2, n_samples)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 1.0
        v = w / lam
    return lam


def _fista(y, spec, lam, step, s0, max_iter, rel_tol):
    """Accelerated proximal gradient for the penalized box problem.

    The gradient G^T G v - G^T y needs a single spectrum multiply per
    step since G^T G is circular convolution with |spec|^2. Momentum
    restarts when it points against the latest progress. Returns the
    iterate, the iterations run, and whether the step test was met.
    """
    n = y.size
    power = np.abs(spec) ** 2
    grad_const = np.fft.irfft(np.fft.rfft(y) * np.conj(spec), n)

    s = np.clip(s0, 0.0, 1.0)
    z = s
    t = 1.0
    shift = step * lam
    for it in range(1, max_iter + 1):
        grad = np.fft.irfft(np.fft.rfft(z) * power, n) - grad_const
        s_new = np.clip(z - step * grad - shift, 0.0, 1.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if np.dot(z - s_new, s_new - s) > 0.0:
            t_new = 1.0
        z = s_new + ((t - 1.0) / t_new) * (s_new - s)
        delta = np.linalg.norm(s_new - s)
        s = s_new
        t = t_new
        if delta <= rel_tol * max(1.0, np.linalg.norm(s)):
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

    lip = _operator_norm_sq(spec, n)
    # Slight inflation guards against the power-iteration underestimate.
    step = 1.0 / (lip * (1.0 + 1e-3))

    hi = lam_zero
    lo = 0.0
    warm = np.zeros(n)
    total_iters = 0
    best = None
    trace = []
    for _ in range(cfg.max_outer):
        lam = 0.5 * (lo + hi)
        s, iters, converged = _fista(yv, spec, lam, step, warm, cfg.max_iter, cfg.rel_tol)
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
