"""Exact constrained-likelihood maximization by dynamic programming.

Let ``scores[s]`` be the correlation score at candidate start ``s`` (there
are ``M = N - L + 1`` candidates) and let ``best[n][j]`` be the largest
objective achievable with ``j`` non-overlapping placements whose starts all
lie among the first ``n`` candidates. Then

    best[n][j] = max(best[n-1][j], best[max(n-L, 0)][j-1] + scores[n-1])

because a placement at start ``n-1`` forces the previous placement's start
to be at most ``n-1-L``. Row 0 holds the empty prefix: 0 for ``j = 0`` and
-inf for ``j >= 1`` (the infeasibility sentinel, which also makes the
clamped index correct for ``n < L``). The final row therefore carries the
exact optimum for every occurrence count up to ``k_max``.

There is one fill kernel, :func:`fill_rows`, over a ``(T, M)`` block of
score rows; :func:`dp_solve` is its ``T = 1`` case and a benchmark sweep
hands it a block of trials. The fill streams over occurrence counts.
Count ``j`` reads only row ``j-1``, so two float64 rows of length ``M+1``
per score row are kept and swapped per count: row ``j-1`` shifted by ``L``
and added to the scores, then closed with a running maximum along each
row, gives row ``j`` in O(T·M) contiguous numpy work. One choice bit per
cell records whether the "place" branch won strictly; ties prefer the
"skip" branch, which keeps the backtracked solution deterministic (among
optima, the earliest improving position is kept at every level). Each
count's choice rows are packed eight cells to a byte and kept, together
with each row's last cell, the optimum ``best[M][j]``. The one backtrack,
:func:`backtrack_rows`, reads one packed row per placement, backwards
from each row's current position, for all rows at once.

Per cell the table takes one bit; on top come the two float rows, the
scores and the final row (see :func:`table_bytes`). :func:`dp_solve`
refuses, before computing any score, a table larger than
:data:`TABLE_BYTES_LIMIT`, a quarter of physical memory.

When only the final row is needed, for many score vectors at once,
:func:`dp_final_rows` runs the same recurrence position-major over a block
of columns and keeps only the last ``min(L, M+1)`` rows, with no choice
bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import cycle

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import (
    DetectionResult,
    InfeasibleError,
    PlacementSet,
    ValidationError,
    as_measurement,
    as_template,
)
from .xcorr import correlation_scores

__all__ = [
    "DpTable",
    "dp_solve",
    "dp_backtrack",
    "dp_detect",
    "dp_objective_column",
]

def _quarter_of_physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4
    except (AttributeError, ValueError, OSError):
        return None


# Largest table, in bytes, that dp_solve allocates, and the cap on the gap
# statistic's null block; None (no limit) where the platform does not
# report physical memory.
TABLE_BYTES_LIMIT = _quarter_of_physical_memory()


@dataclass(frozen=True)
class DpTable:
    """Final row of the table plus the packed choice bits.

    ``best[j]`` is the optimum ``best[M][j]`` for ``j`` placements among all
    ``M`` candidates, -inf when ``j`` placements cannot fit; ``best[0]`` is
    zero. ``choice`` is a ``(k_max+1, (M+8)//8)`` uint8 array whose row
    ``j`` holds, packed big-endian by :func:`numpy.packbits`, one bit per
    prefix ``n = 0 .. M``: set when the place branch strictly won cell
    ``(n, j)``.
    """

    best: np.ndarray
    choice: np.ndarray
    n_samples: int
    length: int

    @property
    def k_max(self) -> int:
        return self.best.shape[0] - 1


def table_bytes(n_pos: int, k_max: int) -> int:
    """Bytes of a :func:`dp_solve` table for ``M = n_pos`` and ``k_max``.

    The packed choice bits, the two float64 rows, the final row and the
    float64 scores: what :func:`check_table` holds against
    :data:`TABLE_BYTES_LIMIT`.
    """
    bits = (k_max + 1) * ((n_pos + 8) // 8)
    return bits + 8 * (2 * (n_pos + 1) + (k_max + 1) + n_pos)


def check_table(n_samples: int, length: int, k_max: int) -> int:
    """Candidate count ``M`` of a table that :func:`dp_solve` may allocate.

    Raises :class:`ValidationError` for a negative ``k_max``, a measurement
    shorter than the template, or a table above :data:`TABLE_BYTES_LIMIT`.
    """
    if k_max < 0:
        raise ValidationError("k_max must be non-negative")
    if n_samples < length:
        raise ValidationError(
            f"measurement shorter than template ({n_samples} < {length})"
        )
    n_pos = n_samples - length + 1
    needed = table_bytes(n_pos, k_max)
    if TABLE_BYTES_LIMIT is not None and needed > TABLE_BYTES_LIMIT:
        raise ValidationError(
            f"DP table for M={n_pos} candidates and k_max={k_max} needs "
            f"{needed} bytes, above the limit of {TABLE_BYTES_LIMIT} bytes "
            "(a quarter of physical memory)"
        )
    return n_pos


def fill_rows(scores, length: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill one table per row of a ``(T, M)`` score block, count by count.

    Returns ``(final, choice)``: ``final[t]`` is row ``t``'s final row
    ``best[M][0..k_max]`` and ``choice`` a ``(k_max+1, T, (M+8)//8)`` uint8
    array whose ``[:, t]`` slice is row ``t``'s packed choice bits, in the
    :class:`DpTable` layout. Each count does, for all ``T`` rows at once,
    the same adds, running maximum and strict comparison as a single row,
    so every row equals its own one-row fill bit for bit.
    """
    n_rows, n_pos = scores.shape
    final = np.zeros((n_rows, k_max + 1))
    packed = np.zeros((k_max + 1, n_rows, (n_pos + 8) // 8), dtype=np.uint8)
    prev = np.zeros((n_rows, n_pos + 1))  # rows of count 0
    cur = np.empty((n_rows, n_pos + 1))
    placed = np.zeros((n_rows, n_pos + 1), dtype=bool)  # bit 0: the empty prefix places nothing

    # A placement at start n-1 continues from row max(n-L, 0) of the
    # previous count: the first `lag` starts all continue from row 0.
    lag = min(length, n_pos)
    for j in range(1, k_max + 1):
        cur[:, 0] = -np.inf
        np.add(prev[:, :1], scores[:, :lag], out=cur[:, 1 : lag + 1])
        np.add(prev[:, 1 : n_pos - lag + 1], scores[:, lag:], out=cur[:, lag + 1 :])
        # fmax runs faster than maximum, and equals it on input without NaN:
        # correlation_scores refuses non-finite scores, and -inf + a finite
        # score is -inf.
        np.fmax.accumulate(cur[:, 1:], axis=1, out=cur[:, 1:])
        # The place branch won cell n strictly iff the running maximum rose
        # there: best[n] = max(best[n-1], place) exceeds best[n-1] only
        # when place does.
        np.greater(cur[:, 1:], cur[:, :-1], out=placed[:, 1:])
        packed[j] = np.packbits(placed, axis=1)
        final[:, j] = cur[:, n_pos]
        prev, cur = cur, prev
    return final, packed


def dp_solve(y, x, k_max: int) -> DpTable:
    """Fill the table for every occurrence count ``j = 0 .. k_max``.

    The one-row case of :func:`fill_rows`. Raises :class:`ValidationError`,
    before scoring or allocating the table, when the table would exceed
    :data:`TABLE_BYTES_LIMIT`.
    """
    y = as_measurement(y)
    x = as_template(x)
    check_table(y.length, x.length, k_max)
    scores = correlation_scores(y, x)
    final, packed = fill_rows(scores[np.newaxis], x.length, k_max)
    return DpTable(best=final[0], choice=packed[:, 0], n_samples=y.length, length=x.length)


def dp_final_rows(scores, length: int, k_max: int) -> np.ndarray:
    """Final-row optima ``best[M][0..k_max]`` of every column of ``scores``.

    ``scores`` has shape ``(M, B)``: one length-``M`` score vector per
    column, for a template of length ``length``. Row ``b`` of the returned
    ``(B, k_max+1)`` array equals ``dp_objective_column`` of a
    :func:`dp_solve` on column ``b``, bit for bit: the cells see the same
    adds and maxes in the same order.

    The sweep runs over positions, not counts. A ring of ``R = min(L, M+1)``
    slabs of shape ``(k_max+1, B)`` holds the last ``R`` rows, slab
    ``n % R`` holding ``best[n]``. Every slab starts as row 0 (0 for
    ``j = 0``, -inf otherwise), so the slab about to be overwritten is
    always ``best[max(n-L, 0)]``: for ``R = L`` it is ``L`` rows back, and
    for ``R = M+1`` the ring never wraps and slab ``n`` is still row 0.
    Position ``n`` computes, for all counts ``j >= 1`` and all columns at
    once,

        best[n][j] = max(best[n-1][j], best[max(n-L, 0)][j-1] + scores[n-1])

    in two vectorized calls. Memory is ``R·(k_max+1)·B`` floats, with no
    table.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1:
        raise ValidationError(f"expected an (M, B) score array, got shape {scores.shape}")
    if length < 1:
        raise ValidationError("template length must be positive")
    if k_max < 0:
        raise ValidationError("k_max must be non-negative")
    n_pos, width = scores.shape
    slots = min(length, n_pos + 1)
    ring = np.full((slots, k_max + 1, width), -np.inf)
    ring[:, 0] = 0.0
    # Slab pairs in visiting order: position n = 1, 2, ... writes slab n % R.
    slabs = [(ring[n % slots, 1:], ring[n % slots, :-1]) for n in range(1, slots + 1)]
    # Every position writes and reads this scratch slab. numpy promises only
    # 16-byte alignment, and a slab that straddles cache lines made the sweep
    # about a quarter slower, so start it on a 64-byte line.
    spare = np.empty(k_max * width + 8)
    skip = (-spare.ctypes.data % 64) // 8
    tmp = spare[skip : skip + k_max * width].reshape(k_max, width)
    prev = ring[0, 1:]
    for s_row, (head, tail) in zip(scores, cycle(slabs)):
        np.add(tail, s_row, out=tmp)
        np.maximum(prev, tmp, out=head)
        prev = head
    return ring[n_pos % slots].T.copy()


# Bytes scanned per step of the backtrack's search for a set bit.
_SCAN_BYTES = 2048
# Per byte value, the cell offset of its last set cell: packbits puts the
# first cell in the most significant bit.
_LAST_CELL = np.array([0] + [8 - (b & -b).bit_length() for b in range(1, 256)])


def _window_masks(width: int) -> np.ndarray:
    """Byte masks for a window of ``width`` bytes that ends at cell ``n``.

    Entry ``[o, width-1-c]`` is the mask row for a window holding cell
    ``n``'s byte at position ``c`` with ``n % 8 == o``: full bytes before
    ``c``, cells ``0 .. o`` of byte ``c``, nothing after it.
    """
    masks = np.zeros((8, 2 * width - 1), dtype=np.uint8)
    masks[:, : width - 1] = 0xFF
    masks[:, width - 1] = [(0xFF << (7 - o)) & 0xFF for o in range(8)]
    return _windows(masks, width)


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Read-only view of every run of ``width`` entries along the last axis.

    ``numpy.lib.stride_tricks.sliding_window_view`` gives the same view;
    its first call in a process touches about 190 KiB more memory.
    """
    shape = a.shape[:-1] + (a.shape[-1] - width + 1, width)
    return as_strided(a, shape, a.strides + a.strides[-1:], writeable=False)


def backtrack_rows(choice: np.ndarray, n_pos: int, length: int, k: int) -> np.ndarray:
    """Starts of one optimal ``k``-placement set per row, shape ``(T, k)``.

    ``choice`` is the ``(k_max+1, T, (M+8)//8)`` packed array of
    :func:`fill_rows` for ``M = n_pos``; every row must be feasible for
    ``k`` (a row that is not gets meaningless starts). Each count takes,
    for all rows at once, the last set bit at or before the row's current
    position ``n``: a step copies the ``W`` bytes ending at cell ``n``'s
    byte (or starting at byte 0), masks the cells past ``n`` and takes the
    last set one; the rows without one repeat the step below their
    window. Nothing is unpacked.
    """
    width = min(_SCAN_BYTES, choice.shape[2])
    windows = _windows(choice, width)
    masks = _window_masks(width)
    every = np.arange(choice.shape[1])
    starts = np.empty((every.size, k), dtype=np.int64)
    last = np.empty(every.size, dtype=np.int64)
    n = np.full(every.size, n_pos, dtype=np.int64)
    for j in range(k, 0, -1):
        rows, at_n = every, n
        while True:
            top = at_n >> 3
            lo = np.maximum(top - (width - 1), 0)
            window = windows[j, rows, lo] & masks[at_n - 8 * top, lo - top + (width - 1)]
            at = (width - 1) - (window != 0)[:, ::-1].argmax(axis=1)
            byte = window[every[: rows.size], at]
            last[rows] = 8 * (lo + at) + _LAST_CELL[byte]
            more = (byte == 0) & (lo > 0)
            if not np.count_nonzero(more):
                break
            rows, at_n = rows[more], 8 * lo[more] - 1  # the last cell below the window
        starts[:, j - 1] = last - 1
        n = np.maximum(last - length, 0)
    return starts


def _check_optima(optima, k: int, length: int, n_samples: int) -> None:
    """Raise unless every optimum for ``k`` placements is finite.

    The fill reaches ``-inf`` only where ``k`` placements do not fit; on
    finite scores, ``+inf`` means their sum overflowed.
    """
    if np.isfinite(optima).all():
        return
    if np.any(optima == np.inf):
        raise ValidationError(f"sums of scores overflow float64 at k={k} placements")
    raise InfeasibleError(
        f"{k} placements of length {length} do not fit in "
        f"N={n_samples} under the separation constraint"
    )


def dp_backtrack(table: DpTable, k: int) -> PlacementSet:
    """Recover one optimal placement set for ``k`` occurrences.

    The one-row case of :func:`backtrack_rows`.
    """
    if not 0 <= k <= table.k_max:
        raise ValidationError(f"k={k} outside table range 0..{table.k_max}")
    _check_optima(table.best[k], k, table.length, table.n_samples)
    n_pos = table.n_samples - table.length + 1
    starts = backtrack_rows(table.choice[:, np.newaxis], n_pos, table.length, k)
    return PlacementSet(starts[0], table.length)


def dp_detect_rows(scores, length: int, k: int) -> np.ndarray:
    """:func:`dp_detect`'s starts for each row of a ``(T, M)`` block of score rows.

    Returns a ``(T, k)`` int64 array whose row ``t`` holds, ascending, the
    starts ``dp_detect`` finds on the measurement whose
    :func:`correlation_scores` row ``t`` is. Raises what ``dp_detect``
    would for one row: :class:`ValidationError` for ``k < 1`` or a table
    above :data:`TABLE_BYTES_LIMIT` or when some row's optimum overflows
    float64, :class:`InfeasibleError` when ``k`` placements do not fit in
    ``M`` candidates, which all rows share.
    """
    if k < 1:
        raise ValidationError("need at least one occurrence to detect")
    n_pos = scores.shape[1]
    n_samples = n_pos + length - 1
    check_table(n_samples, length, k)
    final, packed = fill_rows(scores, length, k)
    _check_optima(final[:, k], k, length, n_samples)
    return backtrack_rows(packed, n_pos, length, k)


def dp_detect(y, x, k: int) -> DetectionResult:
    """Exact maximizer of the separation-constrained objective for ``k``.

    Raises :class:`InfeasibleError` when ``k`` placements cannot fit, and
    :class:`ValidationError` when the optimum overflows float64.
    """
    if k < 1:
        raise ValidationError("need at least one occurrence to detect")
    table = dp_solve(y, x, k)
    placements = dp_backtrack(table, k)
    return DetectionResult(
        placements=placements,
        objective=float(table.best[k]),
        method="dp",
        k_hat=k,
    )


def dp_objective_column(table: DpTable) -> np.ndarray:
    """Final-row optima for ``j = 0 .. k_max`` (a copy)."""
    return table.best.copy()
