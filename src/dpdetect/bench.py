"""Benchmark sweeps over noise levels, template-length mismatch, and
measurement length.

Each trial synthesizes one fresh measurement with the true template length
and hands every requested method the same measurement (paired comparison),
possibly with a mismatched template length. Scoring always uses the true
length's radius. Trial ``t`` of noise level ``i`` seeds both its synthesis
config and its generator with ``cfg.seed + i * trials + t``, so trials are
independent and the whole sweep is reproducible; per-trial detector
failures are logged, scored as empty detections and counted in the
record's ``failures``.

:func:`run_sweep` processes the trials of a noise level in blocks of
bounded size (:func:`~dpdetect.greedy.block_rows`). Only the generator
draws stay per trial, in trial order (the truth starts, the noise row and
the random baseline's starts). They come from one reused generator: each
block's seeded states are computed at once
(:func:`~dpdetect.synth.pcg64_states`), and the starts are drawn from the
raw stream (:class:`~dpdetect.synth.StreamDraws`), the same draws
``default_rng(seed)`` makes, so the seed rule and each trial's stream are
unchanged. The template copies are planted into the block at once,
and each method then takes one detection step over the block: known-count
``dp`` and ``greedy`` run once over one shared score row per trial, and
the convex baseline and the gap statistic's count estimates run per trial
on their block row. Each block's starts are scored in one lockstep
matching as soon as its detections are in, and the scores are summed in
trial order, so the records equal those of a trial-at-a-time loop.

Both sweeps (:func:`run_sweep` over noise, :func:`run_length_scaling` over
the measurement length) yield :class:`BenchRecord` rows, written by
:func:`emit_csv` and :func:`emit_svg` with ``x`` naming the swept field.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convex import ConvexConfig, convex_detect
from .dp import dp_detect_rows
from .gap import GapConfig, estimate_k
from .greedy import block_rows, separated_peaks
from .metrics import score_rows
from .model import METHODS, DetectError, ValidationError
from .synth import (
    StreamDraws,
    SynthConfig,
    pcg64_states,
    plant,
    rect_template,
    sample_starts,
)
from .xcorr import correlation_rows

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "run_sweep",
    "run_length_scaling",
    "emit_csv",
    "emit_svg",
    "load_config",
]

log = logging.getLogger(__name__)

K_MODES = ("known", "gap")


@dataclass(frozen=True)
class BenchConfig:
    """One sweep: noise grid x methods at fixed geometry.

    ``length_hat`` is the template length handed to the detectors (the true
    ``length`` is always used for synthesis and scoring); ``k_mode="gap"``
    estimates the occurrence count for dp/greedy instead of using the true
    one (convex and random always receive the true count).
    """

    n_samples: int
    length: int
    k: int
    sigma2_grid: tuple[float, ...]
    trials: int = 300
    methods: tuple[str, ...] = ("dp", "greedy")
    separation: str = "arbitrary"
    length_hat: int | None = None
    k_mode: str = "known"
    k_max: int | None = None
    perms: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not self.sigma2_grid:
            raise ValidationError("sigma2 grid must be non-empty")
        if not self.methods:
            raise ValidationError("need at least one method")
        unknown = set(self.methods) - METHODS
        if unknown:
            raise ValidationError(f"unknown methods {sorted(unknown)}")
        if len(set(self.methods)) < len(self.methods):
            raise ValidationError(f"methods repeat: {list(self.methods)}")
        if self.k_mode not in K_MODES:
            raise ValidationError(f"unknown k_mode {self.k_mode!r}")
        # The trials' own configs refuse what would fail every trial.
        for sigma2 in self.sigma2_grid:
            SynthConfig(self.n_samples, self.length, self.k, sigma2, self.separation, self.seed)
        if self.length_hat is not None and self.length_hat < 1:
            raise ValidationError("length_hat must be >= 1")
        if self.length_hat is not None and self.length_hat > self.n_samples:
            raise ValidationError(
                f"length_hat {self.length_hat} exceeds n_samples {self.n_samples}: "
                "no detector template fits in a measurement"
            )
        # Known-count trials build no GapConfig: an unset k_max checks as 1, so
        # the null curves' byte limit refuses no known-count geometry.
        known = self.k_mode == "known" and self.k_max is None
        GapConfig(1 if known else self.gap_k_max, self.perms, self.seed)
        # The sweep seeds its trials' generators as a block (pcg64_states).
        last = self.seed + len(self.sigma2_grid) * self.trials - 1
        if last >= 1 << 128:
            raise ValidationError(f"trial seeds reach {last}, past 2**128 - 1")

    @property
    def detector_length(self) -> int:
        return self.length if self.length_hat is None else self.length_hat

    @property
    def gap_k_max(self) -> int:
        """The gap statistic's ``k_max``: as set, else ``n_samples // detector_length``."""
        return self.n_samples // self.detector_length if self.k_max is None else self.k_max


@dataclass(frozen=True)
class BenchRecord:
    """Means over ``trials`` for one (sigma2, method) cell.

    ``failures`` counts the trials whose detector raised a
    :class:`DetectError`; those are scored as empty detections.
    ``sigma2`` and ``n_samples`` are the noise variance and measurement
    length, the fields a writer can sweep over.
    """

    sigma2: float
    method: str
    k_mode: str
    mean_f1: float
    mean_recall: float
    mean_precision: float
    mean_k_err: float
    trials: int
    failures: int
    n_samples: int


def _detect(method, ys, scores, out, cfg: BenchConfig, x, sigma2, seeds) -> dict:
    """Write ``method``'s starts for a block of trials into ``out``; return its failures.

    ``ys`` is the block's ``(T, N)`` measurements and ``out`` the method's
    ``(T, width)`` starts, ``-1`` padded on the left. Known-count ``dp`` and
    ``greedy`` run once over ``scores``, the block's score rows (or the
    error :func:`correlation_rows` raised), and an error fails every row.
    ``convex`` and gap-mode ``dp``/``greedy`` run per row, the gap statistic
    seeded by the row's trial seed in ``seeds``. Returns ``{row: DetectError}``.
    """
    if method != "convex" and cfg.k_mode == "known":
        try:
            if isinstance(scores, DetectError):
                raise scores
            if method == "dp":
                out[:, -cfg.k :] = dp_detect_rows(scores, x.length, cfg.k)
            else:
                out[:, -cfg.k :] = np.sort(separated_peaks(scores, x.length, cfg.k)[0], axis=1)
        except DetectError as exc:
            return dict.fromkeys(range(len(ys)), exc)
        return {}
    failed = {}
    for row, y in enumerate(ys):
        try:
            if method == "convex":
                found = convex_detect(y, x, cfg.k, ConvexConfig(sigma2=sigma2))
            else:
                gap_cfg = GapConfig(k_max=cfg.gap_k_max, perms=cfg.perms, seed=seeds[row])
                found = estimate_k(y, x, gap_cfg, detector=method)[1]
        except DetectError as exc:
            failed[row] = exc
        else:
            starts = found.placements.starts
            out[row, out.shape[1] - starts.size :] = starts
    return failed


def _add_scores(sums, truth, est, cfg: BenchConfig) -> np.ndarray:
    """``sums`` plus the scores of one block's trials, added in trial order.

    ``sums`` is ``(methods, 4)``: F1, recall, precision and ``k_err``.
    ``truth`` holds the block's ``(T, k)`` truth starts and ``est`` its
    ``(methods, T, width)`` estimates, ``-1`` padded. One lockstep matching
    scores them all; a running sum from ``sums`` adds them as a
    trial-at-a-time loop would.
    """
    n_methods, n_trials, width = est.shape
    stats = score_rows(
        np.tile(truth, (n_methods, 1)), est.reshape(-1, width), cfg.length, cfg.k
    ).reshape(n_methods, n_trials, 4)
    return np.cumsum(np.concatenate([sums[:, np.newaxis], stats], axis=1), axis=1)[:, -1]


def run_sweep(cfg: BenchConfig) -> list[BenchRecord]:
    """Mean scores per (sigma2, method) over paired synthetic trials.

    Trials run in blocks of :func:`~dpdetect.greedy.block_rows` rows. Per
    trial, in trial order, only the generator draws run: the truth starts,
    the noise row and, for ``random``, its starts (the draws of
    :func:`~dpdetect.greedy.random_detect`, without its objective). They
    are ``default_rng(seed)``'s draws, taken from one reused generator set
    to each trial's state from :func:`~dpdetect.synth.pcg64_states`. The
    template copies are planted into the block at once; then each method
    in turn writes its starts for the block (:func:`_detect`), and its
    failures are logged and counted. Each block's starts are scored in one
    lockstep matching, and each method's scores are summed in trial order,
    so the records equal those of a trial-at-a-time loop and do not depend
    on the block size.
    """
    true_template = rect_template(cfg.length)
    x = rect_template(cfg.detector_length)
    n_pos = cfg.n_samples - x.length + 1
    # Padded width of a method's starts: a gap-mode count can reach k_max,
    # but no detection returns more than ceil(M / L) starts.
    width = cfg.k
    if cfg.k_mode == "gap":
        width = min(max(cfg.k, cfg.gap_k_max), -(-n_pos // x.length))
    # Known-count dp and greedy share one score row per trial.
    shared_scores = cfg.k_mode == "known" and not {"dp", "greedy"}.isdisjoint(cfg.methods)
    # random_detect's sampler
    random_cfg = SynthConfig(n_samples=cfg.n_samples, length=x.length, k=cfg.k, sigma2=0.0)
    block = block_rows(n_pos)
    draws = StreamDraws()
    normal = draws.generator.standard_normal
    records = []
    for sig_idx, sigma2 in enumerate(cfg.sigma2_grid):
        synth_cfg = SynthConfig(
            n_samples=cfg.n_samples,
            length=cfg.length,
            k=cfg.k,
            sigma2=sigma2,
            separation=cfg.separation,
        )
        sd = np.sqrt(sigma2)
        seeds = range(cfg.seed + sig_idx * cfg.trials, cfg.seed + (sig_idx + 1) * cfg.trials)
        sums = np.zeros((len(cfg.methods), 4))
        failures = dict.fromkeys(cfg.methods, 0)
        for first in range(0, cfg.trials, block):
            block_seeds = seeds[first : first + block]
            ys = np.empty((len(block_seeds), cfg.n_samples))
            truth, drawn, random_failed = [], {}, {}  # random's by block row
            for row, state in enumerate(pcg64_states(block_seeds)):
                draws.start(state)
                truth.append(sample_starts(synth_cfg, draws))
                normal(out=ys[row])
                if "random" in cfg.methods:
                    try:
                        drawn[row] = sample_starts(random_cfg, draws)
                    except DetectError as exc:
                        random_failed[row] = exc
            # rng.normal(0.0, sd, N) takes the same draws and returns
            # 0.0 + sd * z: the same two roundings, bit for bit.
            ys *= sd
            ys += 0.0
            truth = np.array(truth, dtype=np.int64)
            plant(ys, truth, true_template.samples)
            if not np.isfinite(ys).all():
                raise ValidationError("measurement contains non-finite values")
            scores = None
            if shared_scores:
                try:
                    scores = correlation_rows(ys, x)
                except DetectError as exc:
                    scores = exc
            est = np.full((len(cfg.methods), len(block_seeds), width), -1, dtype=np.int64)
            for m, method in enumerate(cfg.methods):
                if method == "random":
                    failed = random_failed
                    if drawn:
                        est[m, list(drawn), -cfg.k :] = list(drawn.values())
                else:
                    failed = _detect(method, ys, scores, est[m], cfg, x, sigma2, block_seeds)
                for row, exc in failed.items():
                    log.warning(
                        "trial %d method %s failed (%s); scoring as empty",
                        block_seeds[row],
                        method,
                        exc,
                    )
                failures[method] += len(failed)
            sums = _add_scores(sums, truth, est, cfg)
        log.debug(
            "sweep cell: sigma2=%g, trials=%d, block=%dx%d, blocks=%d, k=%d, failures=%s",
            sigma2,
            cfg.trials,
            min(block, cfg.trials),
            n_pos,
            -(-cfg.trials // block),
            cfg.k,
            failures,
        )
        for method, total in zip(cfg.methods, sums):
            f1, recall, precision, k_err = total / cfg.trials
            records.append(
                BenchRecord(
                    sigma2=float(sigma2),
                    method=method,
                    k_mode=cfg.k_mode,
                    mean_f1=float(f1),
                    mean_recall=float(recall),
                    mean_precision=float(precision),
                    mean_k_err=float(k_err),
                    trials=cfg.trials,
                    failures=failures[method],
                    n_samples=cfg.n_samples,
                )
            )
    return records


def run_length_scaling(
    n_grid,
    length: int = 20,
    density: float = 0.6,
    sigma2: float = 1.0,
    trials: int = 100,
    perms: int = 50,
    seed: int = 0,
) -> list[BenchRecord]:
    """Fixed-density sweep over the measurement length, count unknown.

    Each grid point must make ``density * N / length`` a positive integer
    (the true K); dp and greedy then estimate it via the gap statistic.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid:
        raise ValidationError("n_grid must be non-empty")
    records = []
    for n_idx, n in enumerate(n_grid):
        k_float = density * n / length
        k = int(round(k_float))
        if k < 1 or abs(k_float - k) > 1e-9:
            raise ValidationError(
                f"density {density} with N={n}, L={length} needs integer K >= 1, "
                f"got {k_float}"
            )
        cfg = BenchConfig(
            n_samples=n,
            length=length,
            k=k,
            sigma2_grid=(sigma2,),
            trials=trials,
            methods=("dp", "greedy"),
            separation="arbitrary",
            k_mode="gap",
            perms=perms,
            seed=seed + n_idx * trials,
        )
        records += run_sweep(cfg)
    return records


# Swept field -> (CSV column, SVG axis label).
_X_AXES = {
    "sigma2": ("sigma2", "noise variance"),
    "n_samples": ("N", "measurement length"),
}


def _x_axis(records, x) -> tuple[str, str]:
    """(CSV column, axis label) for ``x``; there must be records to write."""
    if x not in _X_AXES:
        raise ValidationError(f"unknown x {x!r}; expected one of {list(_X_AXES)}")
    if not records:
        raise ValidationError("no records to write")
    return _X_AXES[x]


def emit_csv(records, path, x: str = "sigma2") -> None:
    """Sweep records as CSV, first column the swept field ``x``.

    ``x`` is ``"sigma2"`` (column ``sigma2``) or ``"n_samples"`` (column
    ``N``). Floats carry six significant digits. When any trial failed, a
    ``failures`` column follows ``trials``, so a failure can be told from a
    miss; a sweep without failures keeps the eight-column layout.
    """
    column, _ = _x_axis(records, x)
    failed = any(r.failures for r in records)
    header = column + ",method,k_mode,f1,recall,precision,k_err,trials"
    lines = [header + ",failures" if failed else header]
    for r in records:
        # N prints as an integer: ".6g" would turn 1000000 into "1e+06".
        first = format(r.sigma2, ".6g") if x == "sigma2" else str(r.n_samples)
        row = ",".join(
            [
                first,
                r.method,
                r.k_mode,
                format(r.mean_f1, ".6g"),
                format(r.mean_recall, ".6g"),
                format(r.mean_precision, ".6g"),
                format(r.mean_k_err, ".6g"),
                str(r.trials),
            ]
        )
        lines.append(f"{row},{r.failures}" if failed else row)
    Path(path).write_text("\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _render_svg(series, xlabel, ylabel, path) -> None:
    """Minimal deterministic line chart: one polyline per labeled series."""
    width, height = 640, 420
    left, right, top, bottom = 60, 150, 20, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [1.0])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return left + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return top + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{sx(x):.1f}" y="{top + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{x:.6g}</text>'
        )
    for i in range(5):
        y = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{left - 6}" y="{sy(y):.1f}" font-size="11" '
            f'text-anchor="end">{y:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="15" y="{top + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 15 {top + plot_h / 2:.1f})">'
        f"{ylabel}</text>"
    )
    for idx, (label, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        ly = top + 16 + 16 * idx
        lx = left + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def emit_svg(records, path, x: str = "sigma2") -> None:
    """Mean F1 versus the swept field ``x``, one polyline per method."""
    _, label = _x_axis(records, x)
    series: dict[str, list] = {}
    for r in records:
        series.setdefault(r.method, []).append((float(getattr(r, x)), r.mean_f1))
    _render_svg(series, label, "mean F1", path)


def load_config(path) -> BenchConfig:
    """Build a sweep config from a JSON object mirroring the field names."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    for key in ("sigma2_grid", "methods"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    try:
        return BenchConfig(**raw)
    except TypeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
