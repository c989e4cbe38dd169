"""Synthetic measurement generation.

Placements are rejection-sampled: each new start is drawn uniformly over
the positions still eligible under the separation regime; if a partial
configuration dead-ends (no eligible position left), the whole draw is
restarted. Gaussian noise is then added on top of the clean superposition
of template copies. :func:`plant` adds the copies to a ``(T, N)`` block of
noise rows at once; :func:`synthesize` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    InfeasibleError,
    Measurement,
    PlacementSet,
    SignalTemplate,
    ValidationError,
    as_template,
)

__all__ = [
    "SEPARATIONS",
    "SynthConfig",
    "rect_template",
    "sample_placements",
    "synthesize",
]

SEPARATIONS = ("arbitrary", "well_separated")

# Cap on the configurations sample_starts draws before it gives up.
MAX_ATTEMPTS = 10000


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic measurement.

    ``separation="arbitrary"`` spaces start indices by at least ``length``;
    ``"well_separated"`` by at least ``2 * length``.
    """

    n_samples: int
    length: int
    k: int
    sigma2: float
    separation: str = "arbitrary"
    seed: int = 0

    def __post_init__(self):
        if self.length < 1 or self.n_samples < self.length:
            raise ValidationError("need n_samples >= length >= 1")
        if self.k < 1:
            raise ValidationError("need at least one occurrence")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ValidationError("noise variance must be finite and non-negative")
        if self.separation not in SEPARATIONS:
            raise ValidationError(f"unknown separation {self.separation!r}")

    @property
    def min_gap(self) -> int:
        return self.length if self.separation == "arbitrary" else 2 * self.length


def rect_template(length: int) -> SignalTemplate:
    """All-ones rectangular template of the given length."""
    if length < 1:
        raise ValidationError("template length must be >= 1")
    return SignalTemplate(np.ones(length))


def sample_placements(cfg: SynthConfig, rng: np.random.Generator) -> PlacementSet:
    """Draw ``k`` starts, each uniform over the currently eligible positions.

    A position is eligible when it lies in ``[0, N-L]`` and is at least
    ``min_gap`` away (in start index) from every start already placed. A
    dead end restarts the configuration; the total number of configuration
    attempts is capped by :data:`MAX_ATTEMPTS`. Raises
    :class:`InfeasibleError` when no configuration fits, that is when
    ``(k-1) * min_gap + length > N``, before drawing anything.
    """
    return PlacementSet(sample_starts(cfg, rng), cfg.length)


def sample_starts(cfg: SynthConfig, rng: np.random.Generator) -> list[int]:
    """The sorted starts of :func:`sample_placements`, from the same draws."""
    gap = cfg.min_gap
    if (cfg.k - 1) * gap + cfg.length > cfg.n_samples:
        raise InfeasibleError(
            f"cannot fit K={cfg.k} occurrences of length {cfg.length} in "
            f"N={cfg.n_samples} with separation {gap}"
        )
    n_positions = cfg.n_samples - cfg.length + 1
    integers = rng.integers
    for _ in range(MAX_ATTEMPTS):
        # Eligible starts as sorted half-open intervals [los[j], his[j]),
        # and their count.
        los, his = [0], [n_positions]
        size = n_positions
        starts = []
        for _ in range(cfg.k):
            if size == 0:
                break
            # The i-th eligible start: the same draw and stream as
            # rng.choice over the sorted eligible positions.
            i = int(integers(0, size))
            j = 0
            while i >= his[j] - los[j]:
                i -= his[j] - los[j]
                j += 1
            lo, hi = los[j], his[j]
            s = lo + i
            starts.append(s)
            # Block s - gap + 1 .. s + gap - 1. Earlier picks block 2*gap - 1
            # positions each, so the block reaches no other interval: the
            # hit interval is split, trimmed or deleted in place.
            left, right = s - gap + 1, s + gap
            if left > lo:
                his[j] = left
                if right < hi:
                    los.insert(j + 1, right)
                    his.insert(j + 1, hi)
                size -= min(hi, right) - left
            elif right < hi:
                los[j] = right
                size -= right - lo
            else:
                del los[j], his[j]
                size -= hi - lo
        else:
            starts.sort()
            return starts
    raise InfeasibleError(
        f"placement sampling exhausted {MAX_ATTEMPTS} attempts for "
        f"N={cfg.n_samples}, L={cfg.length}, K={cfg.k}, separation {gap}"
    )


def plant(rows: np.ndarray, starts: np.ndarray, x: np.ndarray) -> None:
    """Add a copy of ``x`` at each start of each row, in place.

    ``rows`` is a ``(T, N)`` float block and ``starts`` a ``(T, k)`` int
    block of starts at least ``len(x)`` apart within each row, so no sample
    receives two copies and one fancy-indexed add covers the block.
    """
    index = starts[:, :, np.newaxis] + np.arange(x.size)
    rows[np.arange(rows.shape[0])[:, np.newaxis, np.newaxis], index] += x


def synthesize(
    cfg: SynthConfig,
    x,
    rng: np.random.Generator | None = None,
) -> tuple[Measurement, PlacementSet]:
    """Plant ``k`` template copies at sampled starts and add white noise.

    Returns the noisy measurement together with the ground-truth placements.
    Bit-reproducible for a fixed ``cfg.seed`` when no generator is passed.
    The generator draws the starts, then ``N`` normal samples.
    """
    x = as_template(x)
    if x.length != cfg.length:
        raise ValidationError(
            f"template length {x.length} does not match config length {cfg.length}"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    starts = sample_starts(cfg, rng)
    y = rng.normal(0.0, np.sqrt(cfg.sigma2), (1, cfg.n_samples))
    plant(y, np.array([starts], dtype=np.int64), x.samples)
    return Measurement(y[0]), PlacementSet(starts, cfg.length)
