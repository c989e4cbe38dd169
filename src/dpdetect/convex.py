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

The bisection reads only on which side of the band each penalty's
optimal residual lies, so a step need not be solved to ``_REL_TOL``. Every
``_GAP_CHECK_EVERY`` iterations the duality gap of the penalized problem,
with the current residual as the dual point, bounds the distance from the
iterate's residual to the optimal one (the residual term is 1-strongly
convex in ``G s``); a step stops as soon as that bound puts the optimal
residual above ``delta`` or below ``delta*(1-_FEAS_TOL)``. A step whose
optimal residual lies in the band cannot be settled that way. At the same
checks the solver then tries to polish the iterate: the entries strictly
inside the box name the free set, and one linear solve of the optimality
conditions on that set, with the other entries held at their bounds, gives
the exact optimum if the set is the optimum's. The polished point is kept
only if one proximal gradient step moves it by no more than ``_REL_TOL``,
the step test FISTA's own iterates must pass; otherwise FISTA runs on.

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

# Iterations between two duality-gap checks of a bisection step in _fista.
# A check costs one more apply and about a dozen numpy calls (about 18 us at
# N=150, some 1.5 iterations). Per denoise, min of 3 runs, one BLAS thread,
# 2-core Xeon, checks every 5/10/20/40 iterations vs none: 160 draws at
# N=150, L=15, K=6 took 11.2/10.5/10.4/10.8 vs 29.3 ms (673/699/749/817 vs
# 2316 iterations); 240 draws at N=75, L=15, K=3 took 10.3/9.6/9.5/10.0 vs
# 26.5 ms.
_GAP_CHECK_EVERY = 20

# Largest free set _polish solves; its gather and solve cost O(|F|^2) memory
# and O(|F|^3) time. One attempt, one BLAS thread, 2-core Xeon: 0.24 ms at
# |F|=128, 1.0 at 256, 5.3 at 512 and 34 at 1024, against 33 us per FFT
# apply at N=2000 and 115 us at N=8000, so an attempt at 512 costs about 40
# FISTA iterations at N=8000 and one at 1024 about 260. Accepted free sets:
# at most 108 at N=2000, L=20, K=60; 443 at N=8000, L=20, K=240, where
# rejected ones reached 1090 and a cap of 512 (not 384) cut a denoise from
# 1189 to 520 iterations.
_POLISH_MAX_FREE = 512

# Solver controls: bisection steps, the feasibility band's relative width,
# FISTA iterations per step and the step test's relative tolerance.
_MAX_OUTER = 40
_FEAS_TOL = 0.01
_MAX_ITER = 2000
_REL_TOL = 1e-8


@dataclass(frozen=True)
class ConvexConfig:
    """Noise level, which sets the residual budget, or the budget itself."""

    sigma2: float = 1.0
    delta_override: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.sigma2):
            raise ValidationError("noise variance must be finite")
        if self.delta_override is not None and not math.isfinite(self.delta_override):
            raise ValidationError("residual budget delta must be finite")

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


def _circular(v, spec, n_samples: int) -> np.ndarray:
    """The circulant with spectrum ``spec`` applied to ``v``."""
    return np.fft.irfft(np.fft.rfft(v) * spec, n_samples)


def forward_op(s, x, n_samples: int) -> np.ndarray:
    """Circular convolution of ``s`` with the zero-padded template."""
    s = np.asarray(s, dtype=float)
    if s.size != n_samples:
        raise ValidationError(f"expected length {n_samples}, got {s.size}")
    return _circular(s, _padded_spectrum(x, n_samples), n_samples)


def adjoint_op(r, x, n_samples: int) -> np.ndarray:
    """Adjoint of :func:`forward_op` (circular correlation)."""
    r = np.asarray(r, dtype=float)
    if r.size != n_samples:
        raise ValidationError(f"expected length {n_samples}, got {r.size}")
    return _circular(r, np.conj(_padded_spectrum(x, n_samples)), n_samples)


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


@dataclass(frozen=True)
class _Band:
    """What :func:`_certify` and :func:`_polish` need besides the iterate:
    the gradient step, ``G^T y`` and its largest magnitude, ``||y||^2``, the
    rounding guard ``2 N eps``, the residual band ``[lo_sq, hi_sq]`` and
    the first column ``gram`` of the circulant ``G^T G``."""

    step: float
    gty: np.ndarray
    gty_max: float
    yy: float
    guard: float
    lo_sq: float
    hi_sq: float
    gram: np.ndarray


def _certify(s, a_s, c, band: _Band):
    """The side of the band the optimal residual provably lies on, or None.

    ``a_s`` is ``A s`` for the iterate ``s`` and ``c = step (G^T y - lam)``.
    With ``r = y - G s`` as the dual point, the gap of the penalized
    problem is ``sum_i max(v_i s_i, (s_i - 1) v_i)`` with
    ``v = lam - G^T r = (s - A s - c) / step``, a sum of non-negative terms
    free of cancellation. The residual term is 1-strongly convex in ``G s``,
    so the optimal residual lies within ``sqrt(2 gap)`` of ``||r||``, and
    ``||r||^2 = ||y||^2 - 2 <G^T y, s> + <s, G^T G s>``. Both are widened by
    a bound on their rounding, ``N eps`` per dot product over its terms'
    magnitudes (``s`` lies in the box, and ``A`` and ``step G^T G`` have
    entries of magnitude at most 1), so no side is decided on cancellation
    error. Returns ``("hi", lower^2)`` when the optimal residual exceeds
    ``hi_sq`` and ``("lo", upper^2)`` when it is below ``lo_sq``, with the
    certified bound on the optimal ``residual_sq``.
    """
    step = band.step
    gram = s - a_s  # step G^T G s
    v = gram - c  # step (lam - G^T r)
    gap = float(np.maximum(v * s, v * (s - 1.0)).sum()) / step
    r_sq = band.yy - 2.0 * float(np.dot(band.gty, s)) + float(np.dot(s, gram)) / step
    m = float(s.sum())
    c_max = float(np.abs(c).max())
    r_err = band.guard * (band.yy + m * (2.0 * band.gty_max + (2.0 * m + 1.0) / step))
    gap_err = band.guard * (s.size + 3) * (2.0 * (m + c_max) + 1.0) / step
    rad = math.sqrt(2.0 * (gap + gap_err))
    lower = math.sqrt(max(r_sq - r_err, 0.0)) - rad
    if lower > 0.0 and lower * lower > band.hi_sq:
        return "hi", lower * lower
    upper = math.sqrt(r_sq + r_err) + rad
    if upper * upper < band.lo_sq:
        return "lo", upper * upper
    return None


def _polish(s, apply, c, rel_tol, band: _Band):
    """The exact optimum on the free set of ``s`` if it passes the step test,
    else None.

    With ``F = {0 < s < 1}`` and ``U = {s == 1}`` (FISTA's iterates are
    clip outputs, so bound entries are exact), zeroing the gradient
    ``lam + G^T G p - G^T y`` on ``F`` gives
    ``H_FF x = c_F / step - H_FU 1`` with ``H = G^T G`` gathered from its
    circulant first column. The point ``p`` (1 on ``U``, ``x`` on ``F``, 0
    elsewhere) is returned only if ``x`` lies in the box and
    ``||clip(A p + c, 0, 1) - p|| <= rel_tol max(1, ||p||)``, the test a
    FISTA iterate must pass to count as converged. A free set larger than
    ``_POLISH_MAX_FREE``, a singular ``H_FF`` or an ``x`` outside the box
    gives None.
    """
    free = np.flatnonzero((s > 0.0) & (s < 1.0))
    if free.size > _POLISH_MAX_FREE:
        return None
    upper = np.flatnonzero(s == 1.0)
    n = s.size
    rhs = c[free] / band.step - band.gram[(free[:, None] - upper) % n].sum(axis=1)
    try:
        x = np.linalg.solve(band.gram[(free[:, None] - free) % n], rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all((x >= 0.0) & (x <= 1.0)):
        return None
    p = np.zeros(n)
    p[upper] = 1.0
    p[free] = x
    moved = np.empty(n)
    apply(p, moved)
    moved += c
    np.clip(moved, 0.0, 1.0, out=moved)
    moved -= p
    if math.sqrt(np.dot(moved, moved)) > rel_tol * max(1.0, math.sqrt(np.dot(p, p))):
        return None
    return p


def _fista(apply, c, s0, max_iter, rel_tol, band: _Band):
    """Accelerated proximal gradient for the penalized box problem.

    One step is ``s_new = clip(A z + c, 0, 1)`` with ``A = I - step G^T G``
    applied by ``apply(z, out)`` (see :func:`_step_operator`) and
    ``c = step (G^T y - lam)``. Momentum restarts when it points against
    the latest progress. Every ``_GAP_CHECK_EVERY`` iterations one more
    ``apply`` of the iterate feeds :func:`_certify` with the ``band``,
    and the solve stops as soon as the duality gap proves on which side of
    the band the optimal residual lies. When it proves neither,
    :func:`_polish` solves the optimality conditions on the iterate's free
    set, and a polished point that passes the step test ends the solve as
    converged; one that fails it is dropped and FISTA runs on. Returns the
    iterate, the iterations run, whether the step test was met, the
    certificate (``(side, bound_sq)``, or None when the solve ran to the
    step test or to ``max_iter``) and whether the iterate was polished.
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
            return s, it, True, None, False
        if it % _GAP_CHECK_EVERY == 0:
            apply(s, w)
            certificate = _certify(s, w, c, band)
            if certificate is not None:
                return s, it, False, certificate, False
            polished = _polish(s, apply, c, rel_tol, band)
            if polished is not None:
                return polished, it, True, None, True
    return s, max_iter, False, None, False


def denoise(y, x, cfg: ConvexConfig) -> DenoisedTrack:
    """Solve the constrained program by bisecting the l1 penalty weight.

    The residual of the penalized solution increases with ``lam``; the
    bisection stops once it falls within ``[delta*(1-_FEAS_TOL), delta]``.
    Each step stops early once its duality gap proves on which side of
    that band the optimal residual lies (see :func:`_fista`); the step in
    the band runs until an iterate, or the exact solve on an iterate's free
    set (:func:`_polish`), passes the ``_REL_TOL`` step test. A polished
    step counts as converged, for its side and for the infeasibility proof
    below; a failed polish is dropped and FISTA runs on. The
    ``dpdetect.convex`` debug line counts the certified and the polished
    steps, or says that ``||y||^2 <= delta`` made the zero vector the
    answer. A search that runs out of steps first returns its feasible step
    with the largest penalty, which may be a certified-feasible iterate
    that is not fully converged.
    Raises :class:`InfeasibleError` when no step met the budget, the last
    solve (at the smallest penalty tried) converged or was certified above
    the budget, and its residual (for a certified step, the certified
    lower bound on the optimal residual) proves that no point of the box
    meets ``delta``. Raises :class:`ConvergenceError` (carrying the best
    iterate) when no step met the budget otherwise: that last solve hit
    ``_MAX_ITER`` unsettled, or the search ran out of steps before the
    penalty was small enough to tell.
    """
    y = as_measurement(y)
    x = as_template(x)
    n = y.length
    delta = cfg.delta(n)
    yv = y.samples

    spec = _padded_spectrum(x, n)
    correlation = _circular(yv, np.conj(spec), n)  # G^T y
    # Any penalty at or above the peak correlation keeps the zero vector
    # optimal, so bisection starts just above it.
    lam_zero = max(float(correlation.max()), 0.0) * 1.001 + 1e-12
    yy = float(np.dot(yv, yv))

    if yy <= delta:
        # The zero vector is feasible and has minimal l1 norm.
        log.debug("convex zero track: N=%d, ||y||^2=%.6g <= delta=%.6g", n, yy, delta)
        return DenoisedTrack(s=np.zeros(n), residual_sq=yy, lambda_star=lam_zero, iterations=0)

    apply, step, path = _step_operator(spec, n)
    band = _Band(
        step=step,
        gty=correlation,
        gty_max=float(np.abs(correlation).max()),
        yy=yy,
        guard=2.0 * n * np.finfo(float).eps,
        lo_sq=delta * (1.0 - _FEAS_TOL),
        hi_sq=delta,
        gram=np.fft.irfft(np.abs(spec) ** 2, n),
    )

    hi = lam_zero
    lo = 0.0
    warm = np.zeros(n)
    total_iters = 0
    certified = 0
    polished = 0
    best = None
    trace = []
    for _ in range(_MAX_OUTER):
        lam = 0.5 * (lo + hi)
        c = step * (correlation - lam)
        s, iters, converged, certificate, was_polished = _fista(
            apply, c, warm, _MAX_ITER, _REL_TOL, band
        )
        total_iters += iters
        polished += was_polished
        resid = yv - _circular(s, spec, n)
        resid_sq = float(np.dot(resid, resid))
        trace.append((lam, resid_sq))
        warm = s
        if certificate is not None:
            certified += 1
            side, bound = certificate
        else:
            side, bound = ("hi" if resid_sq > delta else "lo"), resid_sq
        if side == "hi":
            hi = lam
        else:
            if best is None or lam > best[2]:
                best = (s, resid_sq, lam)
            if certificate is None and resid_sq >= band.lo_sq:
                break
            lo = lam
        if hi <= 1e-14:
            # Penalty has collapsed: the (near) unconstrained fit sits
            # inside the budget, so take it as-is.
            break
    log.debug(
        "convex %s gram: N=%d, outer=%d, certified=%d, polished=%d, iters=%d",
        path, n, len(trace), certified, polished, total_iters,
    )
    # The penalized optimum s_lam beats the box's least-residual point s_0
    # on lam*||s||_1 + 0.5*r, and ||s_0||_1 <= n, so r(s_0) >= r(s_lam) - 2*lam*n.
    # A certified step's bound is a lower bound on r(s_lam) itself.
    last_lam, last_resid = trace[-1]
    floor = bound - 2.0 * last_lam * n
    if best is None and (converged or certificate is not None) and floor > delta:
        raise InfeasibleError(
            f"residual budget delta {delta:.6g} is below the smallest residual_sq "
            f"the box allows ({bound:.6g} at penalty {last_lam:.3g}, "
            f"so at least {floor:.6g})"
        )
    if best is None:
        raise ConvergenceError(
            f"no feasible iterate within {_MAX_OUTER} bisection steps "
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
        saturated=saturated,
    )
    return result, track
