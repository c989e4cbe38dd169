"""File formats: plain-text measurements and JSON placement records.

Measurement files carry one finite decimal number per line. They are read
by a vectorised decoder when every line is ``-?D+(.D+)?(e[+-]?D+)?``, by
one ``np.loadtxt`` pass when loadtxt reads the file as one column of
finite values, and by a checked per-line parse otherwise; all three give
the correctly rounded value of each line, as ``float()`` does. Ground-truth
placement files are JSON objects with keys N, L, sigma2, starts, and
well_separated; detection results serialize method, starts, objective, and
k_hat (plus optional diagnostics).
"""

from __future__ import annotations

import functools
import json
import logging
import os
import warnings
from pathlib import Path

import numpy as np

from .model import (
    DetectionResult,
    Measurement,
    PlacementSet,
    SignalTemplate,
    ValidationError,
    as_measurement,
)

__all__ = [
    "read_measurement",
    "write_measurement",
    "read_template",
    "write_ground_truth",
    "result_to_dict",
]

log = logging.getLogger(__name__)


def read_measurement(path) -> Measurement:
    values = _read_numeric_lines(path)
    return Measurement(values)


def read_template(path) -> SignalTemplate:
    values = _read_numeric_lines(path)
    return SignalTemplate(values)


def _read_numeric_lines(path) -> np.ndarray:
    # Three steps, each reading a file the one before it does not take, to
    # the same bits: the vectorised reader below, one C-level np.loadtxt
    # parse, and the checked per-line parse. A file loadtxt reads as one
    # column of finite values, the per-line parse reads to the same bits.
    # Anything else (a token loadtxt refuses, two numbers on a line, no
    # data, a non-finite value) goes to the per-line parse, which accepts
    # what it accepts and names the first bad line; so loadtxt's warning
    # that the input holds no data is not shown.
    values = _read_decimal(path)
    if values is not None:
        return values
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="loadtxt: input contained no data", category=UserWarning
            )
            values = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if values.shape[1] == 1 and values.size and np.isfinite(values).all():
            log.debug("io read %s: loadtxt, %d lines", path, len(values))
            return values[:, 0]
    values = _parse_lines_checked(path, Path(path).read_text().splitlines())
    if not values:
        raise ValidationError(f"{path}: no samples")
    log.debug("io read %s: per-line parse, %d lines", path, len(values))
    return np.array(values)


# The vectorised reader takes files whose every line is -?D+(.D+)?(e[+-]?D+)?
# ended by \n (the last \n may be missing). It reads _CHUNK bytes at a time,
# cut after the last newline, into a buffer whose _PAD leading bytes keep
# every read of up to three 8-byte words that ends at or before a line's
# end inside the buffer.
_CHUNK = 1 << 18
_PAD = 24


def _read_decimal(path) -> np.ndarray | None:
    """The file's values, bit for bit as float() gives them, or None when
    some line is outside the grammar or reads as a non-finite value."""
    buf = np.full(_PAD + _CHUNK + 1, ord("0"), np.uint8)
    out, n, slow, keep = np.empty(0), 0, 0, 0
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        while True:
            got = f.readinto(memoryview(buf)[_PAD + keep : _PAD + _CHUNK])
            end = _PAD + keep + got
            if not got:
                if not keep:
                    break
                buf[end] = 10  # the last line has no newline
                end += 1
            nl = np.flatnonzero(buf[_PAD:end] == 10) + _PAD
            if not nl.size:
                if end - _PAD == _CHUNK:
                    return None  # a line longer than a chunk
                keep = end - _PAD
                continue
            chunk = _decode_lines(buf, nl)
            if chunk is None:
                return None
            values, fallback = chunk
            keep = end - 1 - nl[-1]
            if n + values.size > out.size:
                # Room for the rest of the file at this chunk's bytes per line.
                more = (size - f.tell() + keep) * values.size // (nl[-1] + 1 - _PAD)
                out = np.concatenate([out[:n], np.empty(values.size + more + 64)])
            out[n : n + values.size] = values
            n += values.size
            slow += fallback
            buf[_PAD : _PAD + keep] = buf[nl[-1] + 1 : end]
            if not got:
                break
    if not n:
        return None
    log.debug("io read %s: vectorised, %d lines, %d by float()", path, n, slow)
    return out[:n]


def _decode_lines(buf, ends):
    """Values of the lines that end at the newlines ``ends`` of ``buf`` and
    how many went to float(), or None if a line is outside the grammar."""
    starts = np.empty_like(ends)
    starts[0], starts[1:] = _PAD, ends[:-1] + 1
    seg = buf[_PAD : ends[-1]]
    # Every byte that is not a digit must be one the grammar puts in place.
    odd = np.count_nonzero(np.subtract(seg, 48, dtype=np.uint8) > 9) - ends.size + 1
    neg = buf[starts] == 45
    d0 = starts + neg
    dots = np.flatnonzero(seg == 46) + _PAD
    odd -= dots.size + np.count_nonzero(neg)
    x = ends
    if odd:  # exponents, or bytes outside the grammar
        es = np.flatnonzero(seg == 101) + _PAD
        le = _lines_of(es, ends)
        if le is None:
            return None
        sign = buf[es + 1]
        minus = sign == 45
        signed = minus | (sign == 43)
        ne = ends[le] - es - 1 - signed
        if odd != es.size + np.count_nonzero(signed) or not (ne > 0).all():
            return None
        x = ends.copy()
        x[le] = es
    if dots.size == ends.size and (dots >= starts).all() and (dots < x).all():
        p = dots
    else:  # lines without a '.'
        ld = _lines_of(dots, ends)
        if ld is None:
            return None
        p = x.copy()
        p[ld] = dots
        if not (p <= x).all():
            return None
    ni = p - d0
    nf = np.maximum(x - p - 1, 0)
    if not ((ni > 0) & (x - p != 1)).all():
        return None
    whole = _digits(buf, p, ni)
    # Past 19 digits the mantissa may not fit 64 bits; a zero integer part
    # (as in 0.0012345678901234567) adds none, when it is read whole: more
    # than 19 digits are read modulo 2**64 and may wrap to 0.
    slow = np.where((whole == 0) & (ni <= 19), nf, ni + nf) > 19
    q = -nf
    if odd:
        e = _digits(buf, ends[le], np.minimum(ne, 8)).astype(np.int64)
        q[le] += np.where(minus, -e, e)
        slow[le[ne > 8]] = True
    w = whole * _POW10[np.minimum(nf, 19)] + _digits(buf, x, nf)
    w[slow] = 0
    values, undecided = _scale(w, q)
    np.negative(values, out=values, where=neg)
    slow |= undecided
    i = np.flatnonzero(slow)
    if i.size:
        lines = zip(starts[i].tolist(), ends[i].tolist())
        values[i] = [float(buf[a:b].tobytes()) for a, b in lines]
        if not np.isfinite(values[i]).all():
            return None
    return values, i.size


def _lines_of(pos, ends):
    """The line of each position in ``pos``, or None if two share a line."""
    lines = np.searchsorted(ends, pos)
    return lines if (np.diff(lines) > 0).all() else None


_POW10 = 10 ** np.arange(20, dtype=np.uint64)
# _TOP[nw - 1][c]: the bytes of each of nw words that hold the last c digits
# of a run that ends with the last word, the top bytes of each word.
_TOP = [
    np.array(
        [[(1 << 64) - (256 ** (8 - min(max(c - 8 * k, 0), 8))) for k in range(nw)[::-1]]
         for c in range(25)],
        np.uint64,
    )
    for nw in (1, 2, 3)
]


def _digits(buf, end, count):
    """Integer value of the ``count`` ASCII digits before each ``end``,
    modulo 2**64; eight digits per 64-bit word, combined by multiplies
    that act on every byte pair, then every 16-bit lane, at once."""
    count = np.minimum(count, 24)
    nw = -(-int(count.max()) // 8)
    if not nw:
        return np.zeros(end.size, np.uint64)
    # The nw little-endian words that end at each end, from one gather.
    rows = np.ndarray((buf.size - 8 * nw + 1, nw), "<u8", buf, strides=(1, 8))
    x = rows[end - 8 * nw]
    x ^= 0x3030303030303030  # ASCII digits to 0-9
    x &= _TOP[nw - 1].take(count, axis=0)  # zero the bytes before the run
    x *= 2561  # 10 * d[2i] + d[2i+1] in byte 2i + 1
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 6553601  # four digits in each 16-bit lane 2i + 1
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 42949672960001  # eight digits in the top half
    x >>= 32
    value = x[:, 0].copy()
    for k in range(1, nw):
        value *= 10**8
        value += x[:, k]
    return value


_QMIN, _QMAX = -290, 288
_EXACT10 = np.array([float(10**k) for k in range(23)])


@functools.cache
def _powers():
    # 10**q = hi + lo to about 2**-106, hi = a + b in halves of 26 bits, from
    # exact integers (int / int and float(int) round correctly).
    rows = []
    for q in range(_QMIN, _QMAX + 1):
        if q >= 0:
            hi = float(10**q)
            lo = float(10**q - int(hi))
        else:
            num, den = (hi := 1 / 10**-q).as_integer_ratio()
            lo = (den - num * 10**-q) / (den * 10**-q)
        c = hi * 134217729.0
        rows.append((hi, lo, c - (c - hi)))
    hi, lo, a = np.array(rows).T
    return hi, lo, a, hi - a


def _scale(w, q):
    """``w * 10**q`` rounded correctly, and a mask of where it is not known."""
    i = q - _QMIN
    hi, lo, a, b = (t.take(i, mode="clip") for t in _powers())
    wf = w.astype(np.float64)
    wl = (w - wf.astype(np.uint64)).view(np.int64).astype(np.float64)  # w = wf + wl
    wa = wf * 134217729.0
    wa -= wa - wf
    wb = wf - wa
    p = wf * hi
    # p + t is w * 10**q to about 2**-102 relative: Dekker's exact error of
    # wf * hi (wa, wb and a, b are 26-bit halves), then the cross terms;
    # wl * lo and lo's own error are smaller. In place, left to right:
    # t = (((wa*a - p) + wa*b + wb*a) + wb*b) + (wf*lo + wl*hi).
    t = wa * a
    t -= p
    wa *= b
    t += wa
    a *= wb
    t += a
    wb *= b
    t += wb
    lo *= wf
    wl *= hi
    lo += wl
    t += lo
    value = p + t
    # Decided when w * 10**q +- 2**-90 p round to the same double.
    d = p * 2.0**-90
    up = t + d
    up += p
    t -= d
    t += p
    undecided = up != t
    if i.min() < 0 or i.max() > _QMAX - _QMIN:
        undecided |= (i < 0) | (i > _QMAX - _QMIN)
    # Clinger's exact path: one correctly rounded operation on exact operands.
    u = np.flatnonzero(undecided)
    u = u[(w[u] <= 1 << 53) & (np.abs(q[u]) <= 22)]
    if u.size:
        e = np.abs(q[u])
        value[u] = np.where(q[u] < 0, wf[u] / _EXACT10[e], wf[u] * _EXACT10[e])
        undecided[u] = False
    return value, undecided


def _parse_lines_checked(path, lines) -> list[float]:
    values = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: not a number: {line!r}") from exc
        if not np.isfinite(v):
            raise ValidationError(f"{path}:{lineno}: non-finite value")
        values.append(v)
    return values


def write_measurement(y, path) -> None:
    y = as_measurement(y)
    lines = "\n".join(format(v, ".17g") for v in y.samples)
    Path(path).write_text(lines + "\n")


def write_ground_truth(
    truth: PlacementSet, n_samples: int, sigma2: float, well_separated: bool, path
) -> None:
    payload = {
        "N": int(n_samples),
        "L": int(truth.separation),
        "sigma2": float(sigma2),
        "starts": [int(s) for s in truth.starts],
        "well_separated": bool(well_separated),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def result_to_dict(result: DetectionResult, extra: dict | None = None) -> dict:
    payload = {
        "method": result.method,
        "starts": [int(s) for s in result.placements.starts],
        "objective": float(result.objective),
        "k_hat": int(result.k_hat),
        "saturated": bool(result.saturated),
    }
    if extra:
        payload.update(extra)
    return payload
