"""Independent checks of dpdetect's outputs.

Nothing in this module imports dpdetect. Every expected value is recomputed
from the inputs by other means, or is a property the method must have:

* window sums come from a cumulative sum, not from a correlation;
* the exact optimum for a count ``k`` comes from the Lagrangian dual of the
  count constraint, each dual value being one count-free ``O(M)``
  recurrence. The window constraints and the count row have consecutive
  ones, so the constraint matrix is totally unimodular (Hoffman-Kruskal),
  the optimum is concave in ``k`` and the dual is tight;
* the optimal set for small instances comes from a pointer-based dynamic
  program written apart from the package's kernel;
* the convex residual comes from a direct circular convolution, not an FFT.

Every check raises :class:`Mismatch` with a message naming what differed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance on objectives. Float error in the package (FFT scores,
# summation order) is near 1e-13 relative; a perturbation of 1e-6 must fail.
REL_TOL = 1e-9


class Mismatch(AssertionError):
    """An output of the program disagrees with an independent check."""


def window_sums(y, length: int) -> np.ndarray:
    """Sum of each length-``length`` window of ``y`` (rectangular template)."""
    c = np.concatenate(([0.0], np.cumsum(np.asarray(y, dtype=float))))
    return c[length:] - c[:-length]


def set_weight(w: np.ndarray, starts) -> float:
    """Objective of a placement set: the window sums at its starts."""
    return math.fsum(float(w[s]) for s in starts)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_close(reported: float, expected: float, what: str) -> None:
    if not close(float(reported), float(expected)):
        raise Mismatch(f"{what}: reported {reported!r}, expected {expected!r}")


def check_placements(starts, n_samples: int, length: int, min_gap: int | None = None):
    """Integer starts, strictly increasing, in ``[0, N-L]``, gaps >= ``min_gap``."""
    gap = length if min_gap is None else min_gap
    arr = np.asarray(starts)
    if arr.size == 0:
        return
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise Mismatch(f"starts are not a flat integer list: {starts!r}")
    if arr[0] < 0 or arr[-1] > n_samples - length:
        raise Mismatch(f"start out of range [0, {n_samples - length}]: {arr.tolist()}")
    if arr.size > 1 and np.diff(arr).min() < gap:
        raise Mismatch(f"starts closer than {gap}: {arr.tolist()}")


def check_detection(starts, objective, y, length: int, min_gap: int | None = None):
    """Valid placements whose reported objective is their window-sum total."""
    y = np.asarray(y, dtype=float)
    check_placements(starts, y.size, length, min_gap)
    check_close(objective, set_weight(window_sums(y, length), starts), "objective")


# --------------------------------------------------------------------------
# Exact optimum through the Lagrangian dual of the count constraint.


@dataclass(frozen=True)
class _Point:
    count: int
    weight: float


def lagrangian_solve(w: np.ndarray, length: int, lam: float) -> list[int]:
    """Starts maximizing ``sum(w[s] - lam)`` over sets with gaps >= ``length``.

    ``f[n] = max(f[n-1], f[max(n-L, 0)] + w[n-1] - lam)``. Within a block of
    ``L`` consecutive prefixes every ``f[n-L]`` lies in an earlier block, so
    each block is one vectorized running maximum.
    """
    m = w.size
    g = w - lam
    f = np.empty(m + 1)
    f[0] = 0.0
    for lo in range(1, m + 1, length):
        hi = min(lo + length, m + 1)
        n = np.arange(lo, hi)
        cand = f[np.maximum(n - length, 0)] + g[n - 1]
        f[lo:hi] = np.maximum(np.maximum.accumulate(cand), f[lo - 1])
    improved = np.zeros(m + 1, dtype=bool)
    improved[1:] = f[1:] > f[:-1]
    last = np.maximum.accumulate(np.where(improved, np.arange(m + 1), 0))
    starts = []
    n = m
    while n > 0 and last[n] > 0:
        r = int(last[n])
        starts.append(r - 1)
        n = max(r - length, 0)
    starts.reverse()
    return starts


def _point(w, length, lam) -> _Point:
    starts = lagrangian_solve(w, length, lam)
    return _Point(len(starts), set_weight(w, starts))


def exact_optima(w, length: int, ks) -> dict[int, float]:
    """Exact ``P(k) = max sum w[s]`` over sets of exactly ``k`` separated starts.

    Walks the upper concave hull of ``P`` by chords: the chord between two
    known hull points has slope ``lam``; the Lagrangian solution at ``lam``
    is either on the chord (then ``P`` is linear there, by concavity) or a
    new hull vertex between them. Raises ``ValueError`` for a ``k`` that does
    not fit.
    """
    w = np.asarray(w, dtype=float)
    ks = sorted({int(k) for k in ks})
    fit = -(-w.size // length)
    if not ks or ks[0] < 0 or ks[-1] > fit:
        raise ValueError(f"counts {ks} outside 0..{fit}")
    top = _point(w, length, float(w.max()) + 1.0)  # no start pays: count 0
    scale = float(np.abs(w).max()) + 1.0
    lam = -2.0 * scale * (fit + 1)
    low = _point(w, length, lam)
    while low.count < ks[-1]:
        lam *= 2.0
        low = _point(w, length, lam)
    vertices = {top.count: top.weight, low.count: low.weight}
    out: dict[int, float] = {}
    stack = [(top, low)]
    while stack:
        b, a = stack.pop()
        inside = [k for k in ks if b.count < k < a.count]
        if not inside:
            continue
        slope = (a.weight - b.weight) / (a.count - b.count)
        p = _point(w, length, slope)
        chord = a.weight - slope * a.count
        tol = 1e-12 * max(1.0, abs(a.weight), abs(b.weight))
        if p.weight - slope * p.count <= chord + tol or p.count in (a.count, b.count):
            for k in inside:
                out[k] = b.weight + slope * (k - b.count)
            continue
        vertices[p.count] = p.weight
        stack += [(b, p), (p, a)]
    for k in ks:
        if k in vertices:
            out[k] = vertices[k]
    return {k: out[k] for k in ks}


# --------------------------------------------------------------------------
# Small instances: an optimal set, a greedy set, and the F1 score.


def exact_starts(w, length: int, k: int) -> list[int]:
    """One optimal set of exactly ``k`` separated starts (pointer DP)."""
    w = np.asarray(w, dtype=float)
    m = w.size
    prefix = np.arange(1, m + 1)
    back = np.maximum(prefix - length, 0)
    prev = np.zeros(m + 1)
    pointers = []
    for _ in range(k):
        cand = prev[back] + w
        run = np.maximum.accumulate(cand)
        pointers.append(np.maximum.accumulate(np.where(cand >= run, prefix, 0)))
        prev = np.concatenate(([-np.inf], run))
    if not np.isfinite(prev[m]):
        raise ValueError(f"{k} starts of gap {length} do not fit in {m} positions")
    starts = []
    n = m
    for j in range(k - 1, -1, -1):
        r = int(pointers[j][n - 1])
        starts.append(r - 1)
        n = max(r - length, 0)
    starts.reverse()
    return starts


def greedy_starts(w, length: int, k: int) -> list[int]:
    """Repeated highest remaining score, blocking ``L-1`` on either side."""
    masked = np.asarray(w, dtype=float).copy()
    picks = []
    for _ in range(k):
        if not np.isfinite(masked).any():
            break
        s = int(np.argmax(masked))
        picks.append(s)
        masked[max(0, s - length + 1) : s + length] = -np.inf
    return sorted(picks)


def f1_score(truth, est, length: int) -> float:
    """F1 with matches strictly within ``L/2``.

    Both sets are separated by at least ``L``, so each truth has at most one
    estimate within ``L/2`` and vice versa; a match count needs no pairing.
    """
    t = np.asarray(truth, dtype=float)
    e = np.sort(np.asarray(est, dtype=float))
    if t.size + e.size == 0:
        return 0.0
    tp = 0
    if e.size and t.size:
        i = np.searchsorted(e, t)
        right = np.abs(e[np.minimum(i, e.size - 1)] - t)
        left = np.abs(e[np.maximum(i - 1, 0)] - t)
        tp = int(np.count_nonzero(np.minimum(left, right) < length / 2))
    return 2.0 * tp / (t.size + e.size)


# --------------------------------------------------------------------------
# Curves and the convex program.


def check_concave_nondecreasing(curve, what: str) -> None:
    c = np.asarray(curve, dtype=float)
    if not np.isfinite(c).all():
        raise Mismatch(f"{what}: non-finite entries")
    tol = REL_TOL * max(1.0, float(np.abs(c).max()))
    d = np.diff(c)
    if d.size and d.min() < -tol:
        raise Mismatch(f"{what}: decreases at k={int(np.argmin(d)) + 2}")
    dd = np.diff(d)
    if dd.size and dd.max() > tol:
        raise Mismatch(f"{what}: not concave at k={int(np.argmax(dd)) + 2}")


def circular_residual_sq(y, template, s) -> float:
    """``||y - G s||^2`` with ``G s`` summed directly as a circular convolution."""
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    gs = np.zeros_like(y)
    for j, xj in enumerate(np.asarray(template, dtype=float)):
        gs += xj * np.roll(s, j)
    r = y - gs
    return float(np.dot(r, r))


def check_convex_track(y, template, s, residual_sq: float, delta: float) -> None:
    """Denoised track inside the box, its residual recomputed and within budget."""
    s = np.asarray(s, dtype=float)
    if s.shape != np.shape(y) or s.min() < 0.0 or s.max() > 1.0:
        raise Mismatch("denoised track leaves the box [0, 1]")
    direct = circular_residual_sq(y, template, s)
    check_close(residual_sq, direct, "residual_sq")
    if direct > delta * (1.0 + REL_TOL):
        raise Mismatch(f"residual {direct!r} exceeds budget {delta!r}")
