"""Synthetic measurement generation.

Placements are rejection-sampled: each new start is drawn uniformly over
the positions still eligible under the separation regime; if a partial
configuration dead-ends (no eligible position left), the whole draw is
restarted. Gaussian noise is then added on top of the clean superposition
of template copies. :func:`plant` adds the copies to a ``(T, N)`` block of
noise rows at once; :func:`synthesize` is its one-row case.

A block of seeded trials can take each trial's ``default_rng(seed)``
stream without building a generator per trial: :func:`pcg64_states`
computes every trial's seeded ``PCG64`` state at once, and
:class:`StreamDraws` sets each state into one reused generator and takes
the starts' ``integers(0, n)`` draws from its raw 64-bit stream, bit for
bit as ``Generator.integers`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dp import check_limit
from .model import (
    InfeasibleError,
    Measurement,
    PlacementSet,
    SignalTemplate,
    ValidationError,
    as_template,
    check_seed,
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

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i mod 2**32`` for ``i < count``, as uint32."""
    return np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(count)], np.uint32)


# numpy's SeedSequence (pool of four 32-bit words; NEP 19 freezes it): hash
# call i of the pool's mixing XORs with _POOL_HASH[i] and multiplies by
# _POOL_HASH[i + 1] (16 calls), and of generate_state likewise with
# _STATE_HASH (8 calls).
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic measurement.

    ``separation="arbitrary"`` spaces start indices by at least ``length``;
    ``"well_separated"`` by at least ``2 * length``. The measurement's
    float64 samples are held against :data:`dpdetect.dp.TABLE_BYTES_LIMIT`.
    """

    n_samples: int
    length: int
    k: int
    sigma2: float
    separation: str = "arbitrary"
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.length <= self.n_samples:
            raise ValidationError(f"length {self.length} outside 1..n_samples {self.n_samples}")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ValidationError("noise variance must be finite and non-negative")
        if self.separation not in SEPARATIONS:
            raise ValidationError(f"unknown separation {self.separation!r}")
        check_seed(self.seed)
        check_limit(f"a measurement of N={self.n_samples} samples", 8 * self.n_samples)

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


def sample_starts(cfg: SynthConfig, rng) -> list[int]:
    """The sorted starts of :func:`sample_placements`, from the same draws.

    ``rng`` is a ``Generator`` or a :class:`StreamDraws`; only its
    ``integers(0, n)`` is called.
    """
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


def _hash(values: np.ndarray, constants: np.ndarray, first: int) -> np.ndarray:
    """SeedSequence's hashmix of ``values[i]`` as its hash call ``first + i``."""
    n = len(values)
    values = values ^ constants[first : first + n, np.newaxis]
    values *= constants[first + 1 : first + n + 1, np.newaxis]
    return values ^ (values >> np.uint32(16))


def pcg64_states(seeds) -> list[dict]:
    """``np.random.PCG64(s).state`` for each seed ``s``, ``0 <= s < 2**128``.

    ``SeedSequence(s)`` hashes ``s`` as four little-endian 32-bit words
    (a shorter seed hashes as if padded with zero words), so its pool and
    its ``generate_state(4, uint64)`` are uint32 arithmetic over all the
    seeds at once. PCG64 takes those four 64-bit words as ``initstate``
    (the first two) and ``initseq`` (the last two), and sets
    ``inc = 2 initseq + 1`` and ``state = (inc + initstate) mult + inc``,
    mod ``2**128``, in Python ints.
    """
    seeds = list(seeds)
    if seeds and (min(seeds) < 0 or max(seeds) > _MASK128):
        raise ValidationError("seeds must lie in 0 .. 2**128 - 1")
    words = np.array(
        [[s & _MASK32, s >> 32 & _MASK32, s >> 64 & _MASK32, s >> 96] for s in seeds],
        dtype=np.uint32,
    ).reshape(-1, 4)
    pool = _hash(words.T, _POOL_HASH, 0)
    for src in range(4):
        # One hash call per other word, in order; each hashes word src.
        dst = [i for i in range(4) if i != src]
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(
            pool[[src] * 3], _POOL_HASH, 4 + 3 * src
        )
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    # generate_state(4, uint64): eight 32-bit words, low word first.
    state_words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH, 0).astype(np.uint64)
    halves = state_words[0::2] | state_words[1::2] << np.uint64(32)
    states = []
    for s0, s1, s2, s3 in halves.T.tolist():
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


class StreamDraws:
    """One reused PCG64 ``generator`` and its ``integers(low, high)`` draws.

    :meth:`start` sets a state from :func:`pcg64_states`; from there,
    ``integers`` and ``generator``'s doubles and normals draw what
    ``default_rng(seed)``'s would. ``integers(low, high)`` returns what
    ``Generator.integers(low, high)`` would for ``1 <= high - low <= 2**32``,
    as a Python int: Lemire's bounded draw over 32-bit words, each 64-bit
    output giving its low half first and keeping the high half for the
    next draw (the bit generator's ``has_uint32`` buffer, which its
    doubles and normals leave alone). A range of one draws nothing.
    """

    __slots__ = ("generator", "_raw", "_half")

    def __init__(self):
        self.generator = np.random.Generator(np.random.PCG64(0))
        self._raw = self.generator.bit_generator.random_raw
        self._half = None

    def start(self, state: dict) -> None:
        """Continue from ``state``, with an empty 32-bit buffer."""
        self.generator.bit_generator.state = state
        self._half = None

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if n == 1:
            return low
        while True:
            half = self._half
            if half is None:
                raw = self._raw()
                self._half = raw >> 32
                m = (raw & _MASK32) * n
            else:
                self._half = None
                m = half * n
            # Lemire's rejection threshold, (2**32 - n) % n, is below n:
            # a leftover of n or more passes without computing it.
            leftover = m & _MASK32
            if leftover >= n or leftover >= ((1 << 32) - n) % n:
                return low + (m >> 32)
