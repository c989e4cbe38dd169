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

The fill streams over occurrence counts. Count ``j`` reads only row
``j-1``, so two float64 rows of length ``M+1`` are kept and swapped per
count: row ``j-1`` shifted by ``L`` and added to the scores, then closed
with a running maximum, gives row ``j`` in O(M) contiguous numpy work. One
choice bit per cell records whether the "place" branch won strictly; ties
prefer the "skip" branch, which keeps the backtracked solution
deterministic (among optima, the earliest improving position is kept at
every level). Each count's choice row is packed eight cells to a byte and
kept, together with the row's last cell, the optimum ``best[M][j]``. The
backtrack scans one packed row per placement, backwards from the current
position.

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


def dp_solve(y, x, k_max: int) -> DpTable:
    """Fill the table for every occurrence count ``j = 0 .. k_max``.

    Raises :class:`ValidationError`, before scoring or allocating the
    table, when the table would exceed :data:`TABLE_BYTES_LIMIT`.
    """
    y = as_measurement(y)
    x = as_template(x)
    n_pos = check_table(y.length, x.length, k_max)
    length = x.length
    scores = correlation_scores(y, x).scores

    final = np.zeros(k_max + 1)
    packed = np.zeros((k_max + 1, (n_pos + 8) // 8), dtype=np.uint8)
    prev = np.zeros(n_pos + 1)  # row of count 0
    cur = np.empty(n_pos + 1)
    placed = np.zeros(n_pos + 1, dtype=bool)  # bit 0: the empty prefix places nothing

    # A placement at start n-1 continues from row max(n-L, 0) of the
    # previous count: the first `lag` starts all continue from row 0.
    lag = min(length, n_pos)
    place = np.empty(n_pos)
    for j in range(1, k_max + 1):
        np.add(prev[0], scores[:lag], out=place[:lag])
        np.add(prev[1 : n_pos - lag + 1], scores[lag:], out=place[lag:])
        cur[0] = -np.inf
        np.maximum.accumulate(place, out=cur[1:])
        # Strict improvement over the skip branch marks a placement at n-1.
        placed[1] = place[0] > -np.inf
        np.greater(place[1:], cur[1:-1], out=placed[2:])
        packed[j] = np.packbits(placed)
        final[j] = cur[n_pos]
        prev, cur = cur, prev
    return DpTable(best=final, choice=packed, n_samples=y.length, length=length)


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


def _last_set_bit(row: np.ndarray, n: int) -> int:
    """Largest ``i <= n`` whose bit is set in the packed ``row``, else 0."""
    hi = n >> 3
    # Keep the bits of cells 8*hi .. n; packbits puts cell 8*hi in the MSB.
    byte = int(row[hi]) & (0xFF << (7 - (n & 7))) & 0xFF
    width = 64
    while not byte:
        if hi == 0:
            return 0
        lo = max(hi - width, 0)
        nonzero = np.flatnonzero(row[lo:hi])
        if nonzero.size:
            hi = lo + int(nonzero[-1])
            byte = int(row[hi])
        else:
            hi = lo
            width *= 2
    # The lowest set bit of the byte is its last cell.
    return 8 * hi + 8 - (byte & -byte).bit_length()


def dp_backtrack(table: DpTable, k: int) -> PlacementSet:
    """Recover one optimal placement set for ``k`` occurrences."""
    if not 0 <= k <= table.k_max:
        raise ValidationError(f"k={k} outside table range 0..{table.k_max}")
    if not np.isfinite(table.best[k]):
        raise InfeasibleError(
            f"{k} placements of length {table.length} do not fit in "
            f"N={table.n_samples} under the separation constraint"
        )
    starts = []
    n = table.n_samples - table.length + 1
    for j in range(k, 0, -1):
        # Most recent row (<= n) where the place branch strictly improved.
        r = _last_set_bit(table.choice[j], n)
        starts.append(r - 1)
        n = max(r - table.length, 0)
    starts.reverse()
    return PlacementSet(starts, table.length)


def dp_detect(y, x, k: int) -> DetectionResult:
    """Exact maximizer of the separation-constrained objective for ``k``.

    Raises :class:`InfeasibleError` when ``k`` placements cannot fit.
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
