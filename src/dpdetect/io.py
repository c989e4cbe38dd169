"""File formats: plain-text measurements and JSON placement records.

Measurement files carry one finite decimal number per line. Ground-truth
placement files are JSON objects with keys N, L, sigma2, starts, and
well_separated; detection results serialize method, starts, objective, and
k_hat (plus optional diagnostics).
"""

from __future__ import annotations

import json
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


def read_measurement(path) -> Measurement:
    values = _read_numeric_lines(path)
    return Measurement(values)


def read_template(path) -> SignalTemplate:
    values = _read_numeric_lines(path)
    return SignalTemplate(values)


def _read_numeric_lines(path) -> np.ndarray:
    # One C-level parse of the whole file. A file it reads as one column of
    # finite values, the per-line parse reads to the same bits. Anything
    # else (a token loadtxt refuses, two numbers on a line, no data, a
    # non-finite value) goes to the per-line parse, which accepts what it
    # accepts and names the first bad line; so loadtxt's warning that the
    # input holds no data is not shown.
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
            return values[:, 0]
    values = _parse_lines_checked(path, Path(path).read_text().splitlines())
    if not values:
        raise ValidationError(f"{path}: no samples")
    return np.array(values)


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
