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
close all chunks at once. The fold runs in tiles of chunk columns small
enough to stay in the L2 cache, each tile through every count; per count,
the running maximum and the previous count's last chunk column carry into
the next tile. Both paths make the same adds and take exact maxima, so
they agree bit for bit. One choice bit per cell records whether the
"place" branch won strictly; ties prefer the "skip" branch, which keeps
the backtracked solution deterministic (among optima, the earliest
improving position is kept at every level). Each count's choice rows are
packed eight cells to a byte, in natural cell order on either path, and
kept, together with each row's last cell, the optimum ``best[M][j]``.
Counts past what fits in ``M`` candidates are rows of -inf without a set
bit, and neither path runs them. The one backtrack,
:func:`backtrack_rows`, reads one packed row per placement, backwards from
each row's current position, for all rows at once.

Per cell the table takes one bit; on top come the scores, the final row
and the fill's working arrays: 17 bytes per cell on the row path, and on
the folded path one tile's arrays and ``L + 1`` float64 carries per count
and row (see :func:`table_bytes`). :func:`dp_solve` refuses, before
computing any score, a table larger than :data:`TABLE_BYTES_LIMIT`, a
quarter of physical memory, or of the process's cgroup memory limit where
that is lower.

One detection (:func:`dp_detect`) first keeps only the windows that an
optimal ``k``-set can use. Let ``R = (k-1)(2L-1) + 1`` and let θ be the
R-th largest score. Each of a set's other ``k-1`` placements rules out at
most ``2L-1`` starts, so if a set used a window scoring below θ, one of
the ``R`` windows scoring θ or more could replace it and raise the exact
objective. The table's values are left-to-right float sums of ``k``
scores, each within ``δ = k²·2⁻⁵³·max|s|`` of its exact value, so every
float-optimal set, the one the backtrack picks among them, uses only
windows scoring at least ``θ - 2δ``; the cut sits at ``θ - 8k²·ulp(max|s|)``,
more than four times that slack below θ. Since ``R`` grows with ``k``,
the final row ``0 .. k`` is unchanged too. The kept starts
``c_1 < ... < c_m`` sit at ``q_1 = 0``, ``q_{i+1} = q_i + min(c_{i+1} -
c_i, L)`` of a compressed row whose other cells score -inf: two kept
starts conflict there exactly when they do in the full row. The fill and
the backtrack run on it unchanged and the starts map back, bit for bit.
:func:`check_table` still holds the full row against the limit, and
:func:`dp_solve` and :func:`dp_detect_rows` fill every cell.

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
    check_fits,
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
# K = 96 (21845 columns).
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
# 520 columns).
#
# No block folds when padding makes up 3/8 or more of its cells: the folded
# path pays for them, the row path does not. Best of 9 alternating calls,
# K = 2, three to five runs, at T = 256 / 512 / 1024 rows: M = 24 at B = 24
# (48% padding) 1.12-1.25 / 0.94-1.32 / 0.88-1.49, M = 40 at B = 40 (49%)
# 1.17-1.56 / 1.05-1.36 / 1.61-1.75, M = 48 at B = 40 (39%) 1.08-1.09 /
# 0.94-1.13 / 1.38-1.46; against M = 30 at B = 24 (35%) 0.96-1.05 /
# 0.79-1.16 / 0.74-1.32 and M = 60 at B = 40 (24%) 0.86 / 0.76-0.84 /
# 0.99-1.05. run_sweep's blocks above pad at most 6% and fold as before:
# 0.62-0.80 at T = 90 (folded), 1.03-1.46 at T = 20 (rows).
_FOLD_MIN_WIDTH = 1024

# _fill_tiled runs the fold in tiles of B * T * w <= _TILE_CELLS cells, so
# that a tile's three float64 arrays (1.5 MiB) stay in the 2 MiB L2 cache
# while it runs every count. Best of 3 to 7 calls, one process, 2-core Xeon,
# numpy 2.4, ns per cell and count at tiles of 2^14 / 2^15 / 2^16 / 2^17 /
# 2^18 cells, against the untiled fill: N = 2^19, L = 20, K = 96: 3.0 /
# 2.3 / 2.1 / 2.5 / 2.6-2.8, untiled 2.9-3.1; L = 64, K = 8 at N = 2^18,
# 2^19 and 2^20: 2.7-3.1 / 2.7-2.9 / 2.3-2.4 / 2.6-2.7 / 3.0-3.4, untiled
# 3.0-3.9; N = 2^20, L = 200, K = 8: 2.8-3.0 at every size, untiled 3.7-3.8.
# The columns split evenly: at N = 2^19, L = 20, K = 96, nine tiles of 2428
# chunks took 103-107 ms, eight of 2728 and a last of 22 took 106-111 ms.
#
# A tile's chunk rows keep at least _FOLD_MIN_WIDTH // 2 cells, since each
# tile makes about B + 12 numpy calls per count. At N = 2^20 and K = 8, rows
# of 64 / 128 / 256 / 512 / 1024 cells took 44 / 42-45 / 33-34 / 30 / 29-30
# ms at L = 500 and 75 / 50 / 37-39 / 34-35 / 33-34 ms at L = 1000, against
# 31-35 and 34-35 ms untiled.
_TILE_CELLS = 1 << 16


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


def table_bytes(n_pos: int, k_max: int, length: int, rows: int = 1) -> int:
    """Bytes of :func:`fill_rows` on ``rows`` score rows of ``M = n_pos``.

    The packed choice bits, the final row and the float64 scores, plus the
    arrays the fill works in, the bytes its debug line names. On the row
    path those are two float64 rows and a bool row of ``M+1`` cells per
    score row, and one count's packed bits. A block that
    :func:`_fold_shape` folds (``length``, the template length, sets the
    chunk size ``B``) keeps one tile's arrays (:func:`_tile_width`): the
    folded scores and two count rows, float64 on 64-byte lines, a bool
    per cell, one count's packed bytes in two orders and a float64 per
    chunk; a block of more than one tile adds ``L + 1`` float64 carries
    per count it runs (those that fit) and row. Either path adds a bound
    on numpy's buffers and the fill's views (:func:`_scratch_bytes`).
    This is what :func:`check_table` holds against
    :data:`TABLE_BYTES_LIMIT`.
    """
    bits = (k_max + 1) * ((n_pos + 8) // 8)
    fold = _fold_shape(rows, n_pos, length)
    held = rows * (bits + 8 * (k_max + 1 + n_pos)) + _scratch_bytes(rows, n_pos, fold)
    if not fold:
        return held + rows * (17 * (n_pos + 1) + (n_pos + 8) // 8)
    height, columns = fold
    tile = _tile_width(rows, height, columns)
    cells = height * _chunk_row(rows, tile)
    work = 25 * cells + cells // 8 + 8 * 40 + rows * tile * (height // 8 + 8)
    if tile < columns:
        counts = _counts_filled(n_pos, length, k_max)
        work += 8 * rows * (counts + 1 + counts * length)
    return held + work


def check_table(n_samples: int, length: int, k_max: int, rows: int = 1) -> int:
    """Candidate count ``M`` of ``rows`` tables that :func:`fill_rows` may allocate.

    Raises :class:`ValidationError` for a negative ``k_max``, a measurement
    shorter than the template, or tables above :data:`TABLE_BYTES_LIMIT`
    in all.
    """
    if k_max < 0:
        raise ValidationError("k_max must be non-negative")
    check_fits(n_samples, length)
    n_pos = n_samples - length + 1
    needed = table_bytes(n_pos, k_max, length, rows)
    tables = f"{rows} DP tables" if rows > 1 else "DP table"
    check_limit(f"{tables} for M={n_pos} candidates and k_max={k_max}", needed)
    return n_pos


def check_limit(what: str, needed: int) -> None:
    """Refuse ``needed`` bytes for ``what`` above :data:`TABLE_BYTES_LIMIT`."""
    if TABLE_BYTES_LIMIT is not None and needed > TABLE_BYTES_LIMIT:
        raise ValidationError(
            f"{what} needs {needed} bytes, above the limit of {TABLE_BYTES_LIMIT} bytes "
            "(a quarter of physical memory, or of the cgroup's memory limit if lower)"
        )


def _fold_shape(n_rows: int, n_pos: int, length: int) -> tuple[int, int] | None:
    """``(B, nb)`` when :func:`fill_rows` folds this block, else None.

    Chunks hold ``B >= L`` cells, ``B`` a multiple of 8 so that each
    chunk's choice bits fill whole bytes; each row makes ``nb`` of them.
    One row folds into at least :data:`_FOLD_MIN_WIDTH` chunks, and a
    block of rows when they make at least half as many in all, unless
    padding makes up 3/8 or more of the cells.
    """
    height = -(-length // 8) * 8
    columns = -(-(n_pos + 1) // height)
    width = _FOLD_MIN_WIDTH if n_rows == 1 else _FOLD_MIN_WIDTH // 2
    dense = 8 * (n_pos + 1) > 5 * columns * height
    return (height, columns) if dense and n_rows * columns >= width else None


def fill_rows(scores, length: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill one table per row of a ``(T, M)`` score block, count by count.

    Returns ``(final, choice)``: ``final[t]`` is row ``t``'s final row
    ``best[M][0..k_max]`` and ``choice`` a ``(k_max+1, T, (M+8)//8)`` uint8
    array whose ``[:, t]`` slice is row ``t``'s packed choice bits, in the
    :class:`DpTable` layout. Each count does, for all ``T`` rows at once,
    the same adds and strict comparisons as a single row, and takes exact
    maxima, so every row equals its own one-row fill bit for bit.

    Two paths fill the same cells. A block that :func:`_fold_shape` folds
    runs the folded path (:func:`_fill_tiled`), which moves every chunk
    forward one cell per numpy call, tile by tile; any other runs each
    count's running maximum along contiguous rows, one serial
    ``fmax.accumulate``. The ``dpdetect.dp`` logger reports the path, the
    chunk size and count, the tile width and count and the bytes the fill
    works in at debug level.
    """
    n_rows, n_pos = scores.shape
    final = np.zeros((n_rows, k_max + 1))
    packed = np.zeros((k_max + 1, n_rows, (n_pos + 8) // 8), dtype=np.uint8)
    # Counts past what fits are rows of -inf without a set bit; neither path runs them.
    counts = _counts_filled(n_pos, length, k_max)
    final[:, counts + 1 :] = -np.inf
    run = final[:, : counts + 1], packed[: counts + 1]
    fold = _fold_shape(n_rows, n_pos, length)
    if fold:
        height, columns = fold
        tile = _tile_width(n_rows, height, columns)
        path, work = "chunks", _fill_tiled(scores, length, height, columns, tile, *run)
    else:
        path, work = "rows", _fill_contiguous(scores, length, *run)
        height, columns, tile = n_pos + 1, 1, 1  # one chunk per row
    log.debug(
        "dp fill %s: T=%d, M=%d, k_max=%d, chunks of B=%d cells, nb=%d per row, "
        "w=%d per tile, tiles=%d, %d working bytes",
        path, n_rows, n_pos, k_max, height, columns, tile, -(-columns // tile),
        work + _scratch_bytes(n_rows, n_pos, fold) + final.nbytes + packed.nbytes,
    )
    return final, packed


def _counts_filled(n_pos: int, length: int, k_max: int) -> int:
    """How many of the counts ``1 .. k_max`` fit in ``M = n_pos`` candidates: those the fill runs."""
    return min(k_max, (n_pos - 1) // length + 1)


def _scratch_bytes(n_rows: int, n_pos: int, fold) -> int:
    """Bytes a fill allocates beyond its arrays, a bound.

    numpy's ufuncs buffer strided operands: at most ``getbufsize()``
    elements of each of three float64 operands, and no more than an
    operand holds. The folded path adds the views of its chunk rows,
    under 128 bytes each, four per chunk row while one tile's views
    replace the last's.
    """
    buffered = 3 * 8 * min(np.getbufsize(), n_rows * (n_pos + 1))
    return buffered + (512 * fold[0] if fold else 0)


def _fill_contiguous(scores, length: int, final: np.ndarray, packed: np.ndarray) -> int:
    """The row path of :func:`fill_rows`; returns the bytes of its rows and of one count's bits."""
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
    return prev.nbytes + cur.nbytes + placed.nbytes + packed[0].nbytes


# Big-endian bit weights: packbits puts the first cell in the top bit.
_BIT_WEIGHTS = (1 << np.arange(7, -1, -1)).astype(np.uint8)


def _tile_width(n_rows: int, height: int, columns: int) -> int:
    """Chunk columns per tile of :func:`_fill_tiled`; the last tile may hold fewer.

    The ``columns`` split evenly into the fewest tiles of at most
    :data:`_TILE_CELLS` cells (``B * T * w``) each; but every tile's chunk
    rows hold ``T * w >= 512`` cells, the narrowest a block folds at all.
    """
    least = -(-(_FOLD_MIN_WIDTH // 2) // n_rows)
    width = max(_TILE_CELLS // (height * n_rows), least)
    tiles = -(-columns // width)
    return -(-columns // tiles)


def _line_aligned(size: int) -> np.ndarray:
    """An uninitialized float64 array of ``size`` whose first cell starts a 64-byte line.

    numpy promises only 16-byte alignment, and an elementwise call into an
    output that straddles cache lines runs slower: a 7260-cell add took
    2.7 us into a 64-byte-aligned output and 4.3-4.9 us at the seven
    other offsets, 2-core Xeon, numpy 2.4.
    """
    spare = np.empty(size + 8)
    skip = (-spare.ctypes.data % 64) // 8
    return spare[skip : skip + size]


def _chunk_row(n_rows: int, width: int) -> int:
    """Flat cells of one chunk row of a tile: ``T * w``, padded to a multiple of 8."""
    return -(-n_rows * width // 8) * 8


def _tile_cells(flat: np.ndarray, height: int, row: int, n_rows: int, width: int) -> np.ndarray:
    """The ``(B, T, w)`` cells of a tile stored as ``B`` chunk rows of ``row`` flat cells."""
    return flat[: height * row].reshape(height, row)[:, : n_rows * width].reshape(
        height, n_rows, width
    )


def _fill_tiled(
    scores, length: int, height: int, columns: int, tile: int,
    final: np.ndarray, packed: np.ndarray,
) -> int:
    """The folded path of :func:`fill_rows`; returns the bytes of its arrays.

    Cell ``n = c*B + i`` of score row ``t`` sits in chunk row ``i``, column
    ``c``, of a fold of ``B = height`` rows and ``nb = columns`` chunks;
    cells past ``M`` pad the last chunk. The fold runs in tiles of ``w =
    tile`` chunk columns, and each tile runs every count while its arrays
    stay in cache. In a tile, cell ``[i, t, c]`` sits at flat cell
    ``i*R + t*w + c``: the chunk row of ``T*w`` cells is padded to ``R``, a
    multiple of 8, so that every chunk row starts on a 64-byte line. Since
    ``B >= L``, a placement at cell ``n`` continues from ``[i-L, t, c]``
    when ``i >= L`` and from ``[i-L+B, t, c-1]`` otherwise: two flat adds at
    fixed offsets, after which the tile's column 0 is redone from cell 0 in
    the first tile, or else from the previous tile's last column, which
    each count carries. The running maximum carries first: each chunk's
    best place value (one reduce over the ``B`` chunk rows), accumulated
    over the tile's chunks, goes into the first cell of the next chunk,
    and the previous tile's last running maximum, which each count also
    carries, into the tile's first; ``B - 1`` calls of ``fmax`` then close
    every chunk at once. The choice bits are the same strict comparisons;
    each column's ``B`` bits pack into ``B/8`` bytes, which are copied to
    the tile's own bytes of ``packed``, in natural order. A block of one
    tile carries nothing.
    """
    n_rows, n_pos = scores.shape
    k_max = final.shape[1] - 1
    cells = height * _chunk_row(n_rows, tile)
    folded = _line_aligned(cells)
    # One spare line before cell 0: at B == L the wrap add reads cell -1.
    pair = [_line_aligned(cells + 8), _line_aligned(cells + 8)]
    for buf in pair:
        buf[:8] = 0.0
    placed = np.zeros(cells, dtype=bool)  # bit 0: the empty prefix places nothing
    chunk_bytes = np.empty(cells // 8, dtype=np.uint8)
    natural = np.empty(n_rows * tile * height // 8, dtype=np.uint8)
    peak = np.empty(n_rows * tile)
    work = [folded, *pair, placed, chunk_bytes, natural, peak]
    if tile < columns:
        # Per count: the previous tile's last running maximum, and the last
        # L cells of each chunk of its last column.
        reach = np.full((k_max + 1, n_rows), -np.inf)
        tail = np.empty((k_max, length, n_rows))
        work += [reach, tail]
    last_cells = n_pos + 1 - (columns - 1) * height  # cells of the last column up to M

    for c0 in range(0, columns, tile):
        w = min(tile, columns - c0)
        row = _chunk_row(n_rows, w)
        size = height * row
        up = length * row  # cells i >= L read this many flat cells back
        wrap = (height - length) * row - 1  # cells i < L this many ahead
        sides = [
            (buf, buf[8 : 8 + size], list(buf[8 : 8 + size].reshape(height, row)),
             _tile_cells(buf[8:], height, row, n_rows, w))
            for buf in pair
        ]
        s_flat = folded[:size]
        s3 = _tile_cells(folded, height, row, n_rows, w)
        # Cell n places at start n-1; the tile holds cells first .. stop-1.
        first, stop = c0 * height, (c0 + w) * height
        if first and stop <= n_pos + 1:
            block = scores[:, first - 1 : stop - 1]
        else:  # cell 0 or cells past M: stage the scores, zero-padded, in count 1's row
            block = sides[1][1][: n_rows * w * height].reshape(n_rows, w * height)
            lo, hi = max(first, 1) - first, min(stop, n_pos + 1) - first
            block[:, :lo] = block[:, hi:] = 0.0
            block[:, lo:hi] = scores[:, first + lo - 1 : first + hi - 1]
        s3[...] = block.reshape(n_rows, w, height).transpose(2, 0, 1)
        s_flat.reshape(height, row)[:, n_rows * w :] = 0.0  # the padding of each chunk row
        sides[0][1][...] = 0.0  # count 0
        tile_peak = peak[: n_rows * w].reshape(n_rows, w)
        placed3 = _tile_cells(placed, height, row, n_rows, w)
        byte_rows = placed[:size].view(np.uint8).reshape(height // 8, 8, row)
        tile_bytes = chunk_bytes[: size // 8].reshape(height // 8, row)
        by_column = tile_bytes[:, : n_rows * w].reshape(height // 8, n_rows, w).transpose(1, 2, 0)
        tile_natural = natural[: n_rows * w * height // 8].reshape(n_rows, w, height // 8)
        b0 = c0 * height // 8
        b1 = min(b0 + w * height // 8, packed.shape[2])
        natural_rows = tile_natural.reshape(n_rows, -1)[:, : b1 - b0]
        more = c0 + w < columns

        for j in range(1, k_max + 1):
            (p_buf, p_flat, _, p3), (_, c_flat, c_rows, c3) = sides[(j - 1) % 2], sides[j % 2]
            np.add(p_flat[: size - up], s_flat[up:], out=c_flat[up:])
            np.add(p_buf[8 + wrap : 8 + wrap + up], s_flat[:up], out=c_flat[:up])
            if c0:
                np.add(tail[j - 1], s3[:length, :, 0], out=c3[:length, :, 0])
            else:
                np.add(p3[0, :, 0], s3[:length, :, 0], out=c3[:length, :, 0])
                c3[0, :, 0] = -np.inf
            if more:
                tail[j - 1] = p3[height - length :, :, w - 1]
            np.fmax.reduce(c3, axis=0, out=tile_peak)
            if c0:
                np.fmax(tile_peak[:, 0], reach[j], out=tile_peak[:, 0])
            np.fmax.accumulate(tile_peak, axis=1, out=tile_peak)
            np.fmax(c3[0, :, 1:], tile_peak[:, :-1], out=c3[0, :, 1:])
            if c0:
                np.fmax(c3[0, :, 0], reach[j], out=c3[0, :, 0])
            for above, below in zip(c_rows, c_rows[1:]):
                np.fmax(above, below, out=below)
            # The place branch won cell n strictly iff the running maximum rose.
            np.greater(c_flat[row:], c_flat[:-row], out=placed[row:size])
            np.greater(c3[0, :, 1:], c3[-1, :, :-1], out=placed3[0, :, 1:])
            if c0:
                np.greater(c3[0, :, 0], reach[j], out=placed3[0, :, 0])
            if more:
                reach[j] = tile_peak[:, -1]
            else:
                placed3[last_cells:, :, -1] = False  # padding bits stay zero
                final[:, j] = c3[n_pos % height, :, n_pos // height - c0]
            np.einsum("k,bkw->bw", _BIT_WEIGHTS, byte_rows, out=tile_bytes)
            tile_natural[...] = by_column
            packed[j, :, b0:b1] = natural_rows
    return sum(a.nbytes if a.base is None else a.base.nbytes for a in work)


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
    # Every position writes and reads this scratch slab; one that straddled
    # cache lines made the sweep about a quarter slower.
    tmp = _line_aligned(k_max * width).reshape(k_max, width)
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
    check_limit(f"one final-row column for M={n_pos} candidates and k_max={k_max}", column_bytes)
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


# Bytes _candidates holds per candidate start at its peak, a bound: the
# float64 scores, and at the largest of its steps their copy in
# np.partition; a bool per start and the kept starts; or the kept starts,
# their compressed places, their gathered scores and the compressed row, at
# most eight bytes per start each.
_PASS_BYTES_PER_START = 40


def _candidates(scores: np.ndarray, length: int, k: int):
    """The score row :func:`dp_detect` fills, and the map of its starts back to ``scores``.

    Returns ``(row, kept, places)``: the compressed row of the module
    docstring, the kept starts and their places in it. ``row`` is
    ``scores`` itself, with ``kept`` and ``places`` None, when ``R >= M``,
    when the pass's bytes would pass :data:`TABLE_BYTES_LIMIT`, when a sum
    of ``k`` scores could overflow float64 (the error bound then fails),
    or when the compressed fill and the map would take no fewer bytes than
    the full fill. The ``dpdetect.dp`` logger gives R, θ, the kept count
    and ``M -> M'``, or why the row was not pruned, at debug level.
    """
    n_pos, rank = scores.size, (k - 1) * (2 * length - 1) + 1
    if rank >= n_pos:
        log.debug("dp prune: not pruned, R=%d >= M=%d", rank, n_pos)
        return scores, None, None
    needed = _PASS_BYTES_PER_START * n_pos
    if TABLE_BYTES_LIMIT is not None and needed > TABLE_BYTES_LIMIT:
        log.debug("dp prune: not pruned, the pass needs %d bytes, above the limit", needed)
        return scores, None, None
    top = float(max(scores.max(), -scores.min()))
    if not np.isfinite(2.0 * k * top):
        log.debug("dp prune: not pruned, a sum of k=%d scores up to %.6g could overflow", k, top)
        return scores, None, None
    theta = np.partition(scores, n_pos - rank)[n_pos - rank]
    kept = np.flatnonzero(scores >= theta - 8.0 * k * k * np.spacing(top))
    places = np.empty_like(kept)
    places[0] = 0
    np.subtract(kept[1:], kept[:-1], out=places[1:])
    np.minimum(places, length, out=places)
    np.cumsum(places, out=places)
    width = int(places[-1]) + 1
    pruned = table_bytes(width, k, length) + kept.nbytes + places.nbytes
    full = table_bytes(n_pos, k, length)
    shape = f"R={rank}, theta={theta:.17g}, kept {kept.size}, M={n_pos} -> M'={width}"
    if pruned >= full:
        log.debug("dp prune: not pruned, %s takes %d bytes, not fewer than %d", shape, pruned, full)
        return scores, None, None
    log.debug("dp prune: %s", shape)
    row = np.full(width, -np.inf)
    row[places] = scores[kept]
    return row, kept, places


def dp_detect(y, x, k: int) -> DetectionResult:
    """Exact maximizer of the separation-constrained objective for ``k``.

    The fill runs only on the windows that some optimal set can use (the
    exchange bound of the module docstring, with its float slack), on a
    compressed row, and finds the starts and objective a fill of every
    cell finds, bit for bit. The full table is held against
    :data:`TABLE_BYTES_LIMIT` before any score is computed; the candidate
    pass runs only where its bytes fit under the limit too, so it refuses
    nothing the full fill would run. Raises :class:`InfeasibleError` when
    ``k`` placements cannot fit, and :class:`ValidationError` when the
    optimum overflows float64 or the table would pass the limit.
    """
    if k < 1:
        raise ValidationError("need at least one occurrence to detect")
    y = as_measurement(y)
    x = as_template(x)
    check_table(y.length, x.length, k)
    row, kept, places = _candidates(correlation_scores(y, x), x.length, k)
    final, packed = fill_rows(row[np.newaxis], x.length, k)
    _check_optima(final[0, k], k, x.length, y.length)
    starts = backtrack_rows(packed, row.size, x.length, k)[0]
    if kept is not None:
        starts = kept[np.searchsorted(places, starts)]
    return DetectionResult(
        placements=PlacementSet(starts, x.length),
        objective=float(final[0, k]),
        method="dp",
    )


def dp_objective_column(table: DpTable) -> np.ndarray:
    """Final-row optima for ``j = 0 .. k_max`` (a copy)."""
    return table.best.copy()
