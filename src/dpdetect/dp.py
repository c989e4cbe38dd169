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

The table is stored count-major: one contiguous length-``M+1`` row per
occurrence count. Count ``j`` is filled from row ``j-1`` alone, shifted by
``L`` and added to the scores, then closed with a running maximum, so the
table costs O(M) contiguous numpy work per occurrence count on top of one
score computation. One boolean per cell records whether the "place" branch
won strictly; ties prefer the "skip" branch, which keeps the backtracked
solution deterministic (among optima, the earliest improving position is
kept at every level). The backtrack scans one contiguous choice row per
placement.

The table takes 9 bytes per cell (a float64 optimum and a bool choice).
:func:`dp_solve` refuses, before computing any score, a table larger than
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

# Bytes per table cell: a float64 optimum plus a bool choice.
CELL_BYTES = 9


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
    """Filled table of shape ``(M+1, k_max+1)`` plus the choice bits.

    ``best[n][j]`` is -inf when ``j`` placements cannot fit in the first
    ``n`` candidate positions; column 0 is identically zero. ``best`` and
    ``choice`` are transposed views of C-contiguous ``(k_max+1, M+1)``
    arrays, so the cells of one occurrence count are adjacent in memory.
    """

    best: np.ndarray
    choice: np.ndarray
    n_samples: int
    length: int

    @property
    def k_max(self) -> int:
        return self.best.shape[1] - 1


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
    needed = (n_pos + 1) * (k_max + 1) * CELL_BYTES
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

    best = np.full((k_max + 1, n_pos + 1), -np.inf)
    choice = np.zeros((k_max + 1, n_pos + 1), dtype=bool)
    best[0] = 0.0

    # A placement at start n-1 continues from row max(n-L, 0) of the
    # previous count: the first `lag` starts all continue from row 0.
    lag = min(length, n_pos)
    place = np.empty(n_pos)
    for j in range(1, k_max + 1):
        prev = best[j - 1]
        np.add(prev[0], scores[:lag], out=place[:lag])
        np.add(prev[1 : n_pos - lag + 1], scores[lag:], out=place[lag:])
        np.maximum.accumulate(place, out=best[j, 1:])
        # Strict improvement over the skip branch marks a placement at n-1.
        choice[j, 1] = place[0] > -np.inf
        np.greater(place[1:], best[j, 1:-1], out=choice[j, 2:])
    return DpTable(best=best.T, choice=choice.T, n_samples=y.length, length=length)


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
    tmp = np.empty((k_max, width))
    prev = ring[0, 1:]
    for s_row, (head, tail) in zip(scores, cycle(slabs)):
        np.add(tail, s_row, out=tmp)
        np.maximum(prev, tmp, out=head)
        prev = head
    return ring[n_pos % slots].T.copy()


def dp_backtrack(table: DpTable, k: int) -> PlacementSet:
    """Recover one optimal placement set for ``k`` occurrences."""
    if not 0 <= k <= table.k_max:
        raise ValidationError(f"k={k} outside table range 0..{table.k_max}")
    if not np.isfinite(table.best[-1, k]):
        raise InfeasibleError(
            f"{k} placements of length {table.length} do not fit in "
            f"N={table.n_samples} under the separation constraint"
        )
    choice = table.choice.T
    starts = []
    n = choice.shape[1] - 1
    for j in range(k, 0, -1):
        # Most recent row (<= n) where the place branch strictly improved.
        placed = np.flatnonzero(choice[j, : n + 1])
        r = int(placed[-1]) if placed.size else 0
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
        objective=float(table.best[-1, k]),
        method="dp",
        k_hat=k,
    )


def dp_objective_column(table: DpTable) -> np.ndarray:
    """Final-row optima for ``j = 0 .. k_max`` (read-only copy)."""
    return table.best[-1, :].copy()
