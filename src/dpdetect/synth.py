"""Synthetic measurement generation.

Placements are rejection-sampled: each new start is drawn uniformly over
the positions still eligible under the separation regime; if a partial
configuration dead-ends (no eligible position left), the whole draw is
restarted. Gaussian noise is then added on top of the clean superposition
of template copies.
"""

from __future__ import annotations

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
    max_attempts: int = 10000

    def __post_init__(self):
        if self.length < 1 or self.n_samples < self.length:
            raise ValidationError("need n_samples >= length >= 1")
        if self.k < 1:
            raise ValidationError("need at least one occurrence")
        if self.sigma2 < 0:
            raise ValidationError("noise variance must be non-negative")
        if self.separation not in SEPARATIONS:
            raise ValidationError(f"unknown separation {self.separation!r}")
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be positive")

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
    attempts is capped by ``cfg.max_attempts``.
    """
    gap = cfg.min_gap
    if cfg.k * gap > cfg.n_samples:
        raise InfeasibleError(
            f"cannot fit K={cfg.k} occurrences of length {cfg.length} in "
            f"N={cfg.n_samples} with separation {gap}"
        )
    n_positions = cfg.n_samples - cfg.length + 1
    positions = np.arange(n_positions)
    for _ in range(cfg.max_attempts):
        eligible = np.ones(n_positions, dtype=bool)
        starts = []
        for _ in range(cfg.k):
            candidates = positions[eligible]
            if candidates.size == 0:
                break
            # Same draw and stream as rng.choice(candidates), without its
            # per-call overhead.
            s = int(candidates[rng.integers(0, candidates.size)])
            starts.append(s)
            eligible[max(0, s - gap + 1) : s + gap] = False
        else:
            return PlacementSet(sorted(starts), cfg.length)
    raise InfeasibleError(
        f"placement sampling exhausted {cfg.max_attempts} attempts for "
        f"N={cfg.n_samples}, L={cfg.length}, K={cfg.k}, separation {gap}"
    )


def synthesize(
    cfg: SynthConfig,
    x,
    rng: np.random.Generator | None = None,
) -> tuple[Measurement, PlacementSet]:
    """Plant ``k`` template copies at sampled starts and add white noise.

    Returns the noisy measurement together with the ground-truth placements.
    Bit-reproducible for a fixed ``cfg.seed`` when no generator is passed.
    """
    x = as_template(x)
    if x.length != cfg.length:
        raise ValidationError(
            f"template length {x.length} does not match config length {cfg.length}"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    truth = sample_placements(cfg, rng)
    clean = np.zeros(cfg.n_samples)
    for s in truth.starts:
        clean[s : s + cfg.length] += x.samples
    noise = rng.normal(0.0, np.sqrt(cfg.sigma2), cfg.n_samples)
    return Measurement(clean + noise), truth
