"""Core domain types and index conventions shared by every detector.

Conventions used throughout the package:

* All indices are 0-based.
* An occurrence is identified by its *start index*: the left-most sample it
  covers.  An occurrence starting at ``s`` covers samples ``s .. s+L-1``.
* Two occurrences of a length-``L`` template do not overlap iff their start
  indices differ by at least ``L`` (the separation constraint).  The
  "well separated" variant requires a gap of at least ``2*L``.
* The detection objective for a placement set is the sum, over placements,
  of the inner product between the template and the measurement window at
  each start.  Maximizing it under the separation constraint is equivalent
  to maximum likelihood under i.i.d. Gaussian noise.

The center of an occurrence is ``start + L // 2`` when a centered view is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DetectError",
    "ValidationError",
    "InfeasibleError",
    "ConvergenceError",
    "SignalTemplate",
    "Measurement",
    "PlacementSet",
    "DetectionResult",
    "METHODS",
    "as_template",
    "as_measurement",
    "validate_placements",
    "objective_value",
]


class DetectError(Exception):
    """Base class for library errors; ``category`` feeds the CLI error line."""

    category = "error"


class ValidationError(DetectError):
    """Malformed input: wrong lengths, non-finite values, bad placements."""

    category = "validation"


class InfeasibleError(DetectError):
    """A requested number of placements cannot fit under the separation."""

    category = "infeasible"


class ConvergenceError(DetectError):
    """An iterative solver failed to reach its tolerance."""

    category = "convergence"

    def __init__(self, message, best=None, residual_sq=None):
        super().__init__(message)
        self.best = best
        self.residual_sq = residual_sq


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)  # one copy, from a list or an array
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-D sequence, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SignalTemplate:
    """Known signal shape of length ``L``. Immutable after construction."""

    samples: np.ndarray

    def __init__(self, samples):
        arr = _frozen_array(samples)
        if arr.size < 1:
            raise ValidationError("template must have at least one sample")
        if not np.isfinite(arr).all():
            raise ValidationError("template contains non-finite values")
        object.__setattr__(self, "samples", arr)

    @property
    def length(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class Measurement:
    """Observed 1-D sequence of length ``N``. Immutable after construction."""

    samples: np.ndarray

    def __init__(self, samples):
        arr = _frozen_array(samples)
        if arr.size < 1:
            raise ValidationError("measurement must have at least one sample")
        if not np.isfinite(arr).all():
            raise ValidationError("measurement contains non-finite values")
        object.__setattr__(self, "samples", arr)

    @property
    def length(self) -> int:
        return int(self.samples.size)


def as_template(x) -> SignalTemplate:
    """Coerce an array-like (or pass through a SignalTemplate)."""
    return x if isinstance(x, SignalTemplate) else SignalTemplate(x)


def as_measurement(y) -> Measurement:
    """Coerce an array-like (or pass through a Measurement)."""
    return y if isinstance(y, Measurement) else Measurement(y)


@dataclass(frozen=True)
class PlacementSet:
    """Sorted start indices of occurrences, plus the separation unit ``L``.

    Construction enforces only that the starts are strictly increasing
    integers; bounds and separation against a concrete measurement are
    checked by :func:`validate_placements` so that candidate sets from any
    source (including invalid ones under scrutiny) can be represented.
    """

    starts: np.ndarray
    separation: int

    def __init__(self, starts, separation: int):
        arr = _frozen_array(starts, dtype=np.int64)
        if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
            raise ValidationError("starts must be strictly increasing")
        if separation < 1:
            raise ValidationError("separation unit must be >= 1")
        object.__setattr__(self, "starts", arr)
        object.__setattr__(self, "separation", int(separation))

    def __len__(self) -> int:
        return int(self.starts.size)


METHODS = frozenset({"dp", "greedy", "convex", "random"})


@dataclass(frozen=True)
class DetectionResult:
    """Placements found by one detector, with the objective they achieve.

    ``saturated`` is set by the greedy-style detectors when fewer than the
    requested number of eligible positions remained; ``k_hat`` then falls
    short of the request.
    """

    placements: PlacementSet
    objective: float
    method: str
    k_hat: int
    saturated: bool = field(default=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.k_hat != len(self.placements):
            raise ValidationError("k_hat must equal the number of placements")


def validate_placements(
    placements: PlacementSet,
    n_samples: int,
    length: int,
    well_separated: bool = False,
) -> bool:
    """True iff every start lies in ``[0, N-L]``, starts are strictly
    increasing, and consecutive gaps are at least ``L`` (``2L`` when
    ``well_separated``). Pure predicate; never raises."""
    starts = placements.starts
    if starts.size == 0:
        return True
    if starts[0] < 0 or starts[-1] > n_samples - length:
        return False
    gaps = np.diff(starts)
    if gaps.size and np.any(gaps <= 0):
        return False
    min_gap = 2 * length if well_separated else length
    return bool(starts.size < 2 or np.all(gaps >= min_gap))


def objective_value(y, x, placements: PlacementSet) -> float:
    """Sum over placements of the template/measurement inner product.

    Raises :class:`ValidationError` if the placements are not valid for the
    measurement length and template length.
    """
    y = as_measurement(y)
    x = as_template(x)
    if not validate_placements(placements, y.length, x.length):
        raise ValidationError(
            f"invalid placement set for N={y.length}, L={x.length}"
        )
    total = 0.0
    for s in placements.starts:
        total += float(np.dot(y.samples[s : s + x.length], x.samples))
    return total
