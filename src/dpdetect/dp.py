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
Count ``j`` reads only row ``j-1``, so two float64 rows of ``M+1`` cells
per score row are kept and swapped per count: row ``j-1`` shifted by ``L``
and added to the scores gives each cell's place value, and a running
maximum over the cells closes row ``j``. Short rows and small blocks take
that maximum along contiguous rows, one serial ``fmax.accumulate`` per
count. Long rows are folded into chunks of ``B >= L`` cells, cell
``c*B + i`` stored at ``[i, c]`` of a ``(B, nb)`` array, so that one numpy
call advances every chunk by one cell: the best value before each chunk
is carried into its first cell (a reduce over the chunk, then a running
maximum over the ``nb`` chunks), and ``B - 1`` vectorized ``fmax`` calls
close all chunks at once. Both paths make the same adds and take exact
maxima, so they agree bit for bit. One choice bit per cell records
whether the "place" branch won strictly; ties prefer the "skip" branch,
which keeps the backtracked solution deterministic (among optima, the
earliest improving position is kept at every level). Each count's choice
rows are packed eight cells to a byte, in natural cell order on either
path, and kept, together with each row's last cell, the optimum
``best[M][j]``. The one backtrack, :func:`backtrack_rows`, reads one
packed row per placement, backwards from each row's current position,
for all rows at once.

Per cell the table takes one bit; on top come the scores, the final row
and the fill's working arrays, under 27 bytes per cell (see
:func:`table_bytes`). :func:`dp_solve` refuses, before computing any
score, a table larger than :data:`TABLE_BYTES_LIMIT`, a quarter of
physical memory, or of the process's cgroup memory limit where that is
lower.

When only the final row is needed, for many score vectors at once,
:func:`dp_final_rows` runs the same recurrence position-major over a block
of columns and keeps only the last ``min(L, M+1)`` rows, with no choice
bits; :func:`final_rows_block` sizes such blocks under the same limit.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger(__name__)

# fill_rows folds one score row into chunks when it makes at least this many
# chunk columns. A folded count makes about B + 12 numpy calls
# (B = L rounded up to a multiple of 8) where the row path makes five, and
# on narrow folds those calls cost more than the serial running maximum
# they replace. Folded over row-path fill time, best of 9 calls, one
# process, 2-core Xeon, numpy 2.4, for L = 1, 8, 20, 64 and T = 1, 4, 15
# at K = 4-16: 0.96-1.65 at 256 columns, 0.74-1.18 at 512, 0.63-1.07 at
# 768, 0.64-0.88 at 1024, 0.63-0.82 at 1536; 0.61 at N = 2^19, L = 20,
# K = 96 (21845 columns). table_bytes bounds the padding by this width.
#
# A block of two or more rows folds from half this width. Many short rows
# cost the row path more per cell, so such blocks cross over earlier. The
# same ratios, best of 9 alternating calls, at run_sweep's blocks (N = 300
# and L = 39, 30, 24: M = 262, 271, 277 and B = 40, 32, 24; K = 3 and 6):
# 1.3-2.5 at T = 8-15 (56-180 columns), 0.93-1.43 at T = 30 (210-360),
# 0.80-1.17 at T = 45 (315-540), 0.63-0.96 at T = 60-100 (420-1200),
# 0.64-0.99 at T = 114-124 (798-1488). Other blocks from 512 to 1023
# columns: 0.68-0.77 for 160-512 rows of M = 31-120, 0.63-0.92 at T = 2-30
# with M = 600-30000 (668-1008 columns), 0.99-1.14 at T = 2 and 4 (518 and
# 520 columns), and 1.24 for 256 rows of M = 24 (two chunks of 24 cells
# each, half of them padding).
_FOLD_MIN_WIDTH = 1024


def _cgroup_memory_limit(proc_cgroup="/proc/self/cgroup", root="/sys/fs/cgroup") -> int | None:
    """The lowest memory limit on this process's cgroup and its ancestors, in bytes.

    ``proc_cgroup`` names the cgroup: a cgroup v2 line ``0::<path>`` is read
    as ``memory.max`` under ``root``, a v1 line whose controllers include
    ``memory`` as ``memory.limit_in_bytes`` under ``root/memory``. A
    directory's limit binds its descendants, so every level from the
    cgroup's own directory up to the mount root counts. None when no level
    sets a limit (``max``, or no such file) or the cgroup is not known.
    """
    try:
        with open(proc_cgroup) as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if not controllers:
            base, name = root, "memory.max"
        elif "memory" in controllers.split(","):
            base, name = os.path.join(root, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(base, *parts[:depth], name)) as f:
                    text = f.read().strip()
                if text != "max":
                    limits.append(int(text))
            except (OSError, ValueError):
                continue
    return min(limits, default=None)


def _quarter_of_memory() -> int | None:
    """A quarter of physical memory, or of the cgroup's limit where that is lower."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        physical = None
    known = [m for m in (physical, _cgroup_memory_limit()) if m is not None]
    return min(known) // 4 if known else None


# Largest table, in bytes, that dp_solve allocates, and the cap on a block
# of dp_final_rows (final_rows_block); None (no limit) where the platform
# reports neither physical memory nor a cgroup limit.
TABLE_BYTES_LIMIT = _quarter_of_memory()


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


def table_bytes(n_pos: int, k_max: int, rows: int = 1, length: int | None = None) -> int:
    """Bytes of :func:`fill_rows` on ``rows`` score rows of ``M = n_pos``.

    The packed choice bits, the final row and the float64 scores, plus what
    :func:`fill_rows` works in per cell: on either path at most two float64
    rows, a float64 copy of the scores, a bool row, the packed bytes of one
    count in two orders and the chunk carries, under 27 bytes in all. The
    folded path pads each row's ``M+1`` cells to whole chunks of ``B``
    cells. A single row folds only into at least :data:`_FOLD_MIN_WIDTH`
    chunks, which keeps its padding below one cell per
    ``_FOLD_MIN_WIDTH - 1``; a block of rows may fold into few chunks per
    row, so its padding is counted from the chunk size, and ``length``
    (the template length that sets ``B``) is needed when ``rows > 1``.
    This is what :func:`check_table` holds against
    :data:`TABLE_BYTES_LIMIT`.
    """
    bits = (k_max + 1) * ((n_pos + 8) // 8)
    if rows == 1:
        cells = n_pos + 1 + (n_pos + 1) // (_FOLD_MIN_WIDTH - 1)
    else:
        fold = _fold_shape(rows, n_pos, length)
        cells = fold[0] * fold[1] if fold else n_pos + 1
    return rows * (bits + 8 * (k_max + 1 + n_pos) + 27 * cells)


def check_table(n_samples: int, length: int, k_max: int, rows: int = 1) -> int:
    """Candidate count ``M`` of ``rows`` tables that :func:`fill_rows` may allocate.

    Raises :class:`ValidationError` for a negative ``k_max``, a measurement
    shorter than the template, or tables above :data:`TABLE_BYTES_LIMIT`
    in all.
    """
    if k_max < 0:
        raise ValidationError("k_max must be non-negative")
    if n_samples < length:
        raise ValidationError(
            f"measurement shorter than template ({n_samples} < {length})"
        )
    n_pos = n_samples - length + 1
    needed = table_bytes(n_pos, k_max, rows, length)
    _check_limit(f"{rows} DP tables" if rows > 1 else "DP table", n_pos, k_max, needed)
    return n_pos


def _check_limit(what: str, n_pos: int, k_max: int, needed: int) -> None:
    """Refuse ``needed`` bytes for ``what`` above :data:`TABLE_BYTES_LIMIT`."""
    if TABLE_BYTES_LIMIT is not None and needed > TABLE_BYTES_LIMIT:
        raise ValidationError(
            f"{what} for M={n_pos} candidates and k_max={k_max} needs "
            f"{needed} bytes, above the limit of {TABLE_BYTES_LIMIT} bytes "
            "(a quarter of physical memory, or of the cgroup's memory limit if lower)"
        )


def _fold_shape(n_rows: int, n_pos: int, length: int) -> tuple[int, int] | None:
    """``(B, nb)`` when :func:`fill_rows` folds this block, else None.

    Chunks hold ``B >= L`` cells, ``B`` a multiple of 8 so that each
    chunk's choice bits fill whole bytes; each row makes ``nb`` of them.
    One row folds into at least :data:`_FOLD_MIN_WIDTH` chunks, and a
    block of rows when they make at least half as many in all.
    """
    height = -(-length // 8) * 8
    columns = -(-(n_pos + 1) // height)
    width = _FOLD_MIN_WIDTH if n_rows == 1 else _FOLD_MIN_WIDTH // 2
    return (height, columns) if n_rows * columns >= width else None


def fill_rows(scores, length: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill one table per row of a ``(T, M)`` score block, count by count.

    Returns ``(final, choice)``: ``final[t]`` is row ``t``'s final row
    ``best[M][0..k_max]`` and ``choice`` a ``(k_max+1, T, (M+8)//8)`` uint8
    array whose ``[:, t]`` slice is row ``t``'s packed choice bits, in the
    :class:`DpTable` layout. Each count does, for all ``T`` rows at once,
    the same adds and strict comparisons as a single row, and takes exact
    maxima, so every row equals its own one-row fill bit for bit.

    Two paths fill the same cells. Short rows and small blocks run each
    count's running maximum along contiguous rows, one serial
    ``fmax.accumulate``. A row that folds into at least
    :data:`_FOLD_MIN_WIDTH` chunks, or a block of rows that fold into at
    least half as many in all (:func:`_fold_shape`), runs the folded path
    (:func:`_fill_folded`), which moves every chunk forward one cell per
    numpy call. The ``dpdetect.dp`` logger reports the path, the chunk
    size and count and the bytes the fill works in at debug level.
    """
    n_rows, n_pos = scores.shape
    final = np.zeros((n_rows, k_max + 1))
    packed = np.zeros((k_max + 1, n_rows, (n_pos + 8) // 8), dtype=np.uint8)
    fold = _fold_shape(n_rows, n_pos, length)
    if fold:
        height, columns = fold
        path, work = "chunks", _fill_folded(scores, length, height, columns, final, packed)
    else:
        path, work = "rows", _fill_contiguous(scores, length, final, packed)
        height, columns = n_pos + 1, 1  # one chunk per row
    log.debug(
        "dp fill %s: T=%d, M=%d, k_max=%d, chunks of B=%d cells, nb=%d per row, "
        "%d working bytes",
        path, n_rows, n_pos, k_max, height, columns, work + final.nbytes + packed.nbytes,
    )
    return final, packed


def _fill_contiguous(scores, length: int, final: np.ndarray, packed: np.ndarray) -> int:
    """The row path of :func:`fill_rows`; returns the bytes of its rows."""
    n_rows, n_pos = scores.shape
    prev = np.zeros((n_rows, n_pos + 1))  # rows of count 0
    cur = np.empty((n_rows, n_pos + 1))
    placed = np.zeros((n_rows, n_pos + 1), dtype=bool)  # bit 0: the empty prefix places nothing

    # A placement at start n-1 continues from row max(n-L, 0) of the
    # previous count: the first `lag` starts all continue from row 0.
    lag = min(length, n_pos)
    for j in range(1, final.shape[1]):
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
    return prev.nbytes + cur.nbytes + placed.nbytes


# Big-endian bit weights: packbits puts the first cell in the top bit.
_BIT_WEIGHTS = (1 << np.arange(7, -1, -1)).astype(np.uint8)


def _fill_folded(
    scores, length: int, height: int, columns: int, final: np.ndarray, packed: np.ndarray
) -> int:
    """The folded path of :func:`fill_rows`; returns the bytes of its arrays.

    Cell ``n = c*B + i`` of score row ``t`` sits at ``[i, t, c]`` of a
    ``(B, T, nb)`` array, ``B = height`` and ``nb = columns``; cells past
    ``M`` pad the last column. Since ``B >= L``, a placement at cell ``n``
    continues from ``[i-L, t, c]`` when ``i >= L`` and from
    ``[i-L+B, t, c-1]`` otherwise: two flat adds at fixed offsets, after
    which column 0, whose cells continue from cell 0, is redone. The
    running maximum carries first: each chunk's best place value (one
    reduce over the ``B`` chunk rows), accumulated over the ``nb`` chunks,
    goes into the first cell of the next chunk, and ``B - 1`` calls of
    ``fmax`` then close every chunk at once. The choice bits are the same
    strict comparisons; each column's ``B`` bits pack into ``B/8`` bytes,
    which are copied back to natural order.
    """
    n_rows, n_pos = scores.shape
    width = n_rows * columns  # cells in one chunk row
    padded = np.zeros((n_rows, columns * height))
    padded[:, 1 : n_pos + 1] = scores  # cell n places at start n-1
    by_cell = padded.reshape(n_rows, columns, height)
    folded = np.empty((height, n_rows, columns))
    # The transposing copy runs in tiles of 512 columns, which stay in
    # cache: at B = 64 and 8190 columns it takes a third of one whole copy.
    for c in range(0, columns, 512):
        folded[:, :, c : c + 512] = by_cell[:, c : c + 512].transpose(2, 0, 1)
    del padded, by_cell
    prev = np.zeros_like(folded)  # count 0
    cur = np.empty_like(folded)
    prev_rows, cur_rows = list(prev.reshape(height, width)), list(cur.reshape(height, width))
    placed = np.zeros(folded.shape, dtype=bool)  # bit 0: the empty prefix places nothing
    chunk_bytes = np.empty((height // 8, width), dtype=np.uint8)
    natural = np.empty((n_rows, columns, height // 8), dtype=np.uint8)
    carry = np.empty((n_rows, columns))
    # Views: eight chunk rows per byte row, the bytes by column, a row's bytes.
    byte_rows = placed.view(np.uint8).reshape(height // 8, 8, width)
    by_column = chunk_bytes.reshape(height // 8, n_rows, columns).transpose(1, 2, 0)
    natural_rows = natural.reshape(n_rows, -1)[:, : packed.shape[2]]

    flat_scores = folded.reshape(-1)
    up = length * width  # cells i >= L read this many flat cells back
    wrap = (height - length) * width - 1  # cells i < L this many ahead
    last_cells = n_pos + 1 - (columns - 1) * height  # cells of the last column up to M
    for j in range(1, final.shape[1]):
        flat_prev, flat_cur = prev.reshape(-1), cur.reshape(-1)
        np.add(flat_prev[: folded.size - up], flat_scores[up:], out=flat_cur[up:])
        np.add(flat_prev[1 + wrap : up + wrap], flat_scores[1:up], out=flat_cur[1:up])
        np.add(prev[0, :, 0], folded[:length, :, 0], out=cur[:length, :, 0])
        cur[0, :, 0] = -np.inf
        np.fmax.reduce(cur, axis=0, out=carry)
        np.fmax.accumulate(carry, axis=1, out=carry)
        np.fmax(cur[0, :, 1:], carry[:, :-1], out=cur[0, :, 1:])
        for above, below in zip(cur_rows, cur_rows[1:]):
            np.fmax(above, below, out=below)
        # The place branch won cell n strictly iff the running maximum rose.
        np.greater(cur[1:], cur[:-1], out=placed[1:])
        np.greater(cur[0, :, 1:], cur[-1, :, :-1], out=placed[0, :, 1:])
        placed[last_cells:, :, -1] = False  # padding bits stay zero
        np.einsum("k,bkw->bw", _BIT_WEIGHTS, byte_rows, out=chunk_bytes)
        natural[...] = by_column
        packed[j] = natural_rows
        final[:, j] = cur[n_pos % height, :, n_pos // height]
        prev, cur = cur, prev
        prev_rows, cur_rows = cur_rows, prev_rows
    return sum(a.nbytes for a in (folded, prev, cur, placed, chunk_bytes, natural, carry))


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


def final_rows_block(n_pos: int, length: int, k_max: int, columns: int) -> int:
    """Columns per :func:`dp_final_rows` block: all ``columns``, unless the limit bites.

    A column takes its ``M`` scores, its ``min(L, M+1)`` ring slabs of
    ``k_max+1`` cells and its share of the scratch slab, all float64; a
    block holds as many columns as fit in :data:`TABLE_BYTES_LIMIT`.
    Raises :class:`ValidationError` when one column does not fit.
    """
    if TABLE_BYTES_LIMIT is None:
        return columns
    slots = min(length, n_pos + 1)
    column_bytes = 8 * (n_pos + slots * (k_max + 1) + k_max)
    _check_limit("one final-row column", n_pos, k_max, column_bytes)
    return min(TABLE_BYTES_LIMIT // column_bytes, columns)


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
    ``M`` candidates, which all rows share. The limit holds the whole
    block's ``T`` tables, and the refusal comes before any allocation.
    """
    if k < 1:
        raise ValidationError("need at least one occurrence to detect")
    n_rows, n_pos = scores.shape
    n_samples = n_pos + length - 1
    check_table(n_samples, length, k, n_rows)
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
