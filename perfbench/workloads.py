"""The benchmark's workloads: inputs made from a seed, items, and checks.

Each workload builds its inputs from ``--seed`` alone and hands the program
only those inputs. :meth:`round` returns the items of one round as
``(run, check, ops)``: ``run`` is the timed call into dpdetect, ``check``
verifies its output against :mod:`oracles` and returns the number of
failed operations it saw, and ``ops`` is the number of operations the item
attempts. Items call dpdetect through module attributes (``dpdetect.cli``,
``dpdetect.estimate_k``, ...) so that traced runs see every call.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

import dpdetect
import dpdetect.bench
import dpdetect.cli
import oracles as O


def planted_starts(rng, n_samples: int, length: int, k: int) -> np.ndarray:
    """``k`` sorted starts in ``[0, N-L]`` with gaps of at least ``L``, uniform."""
    slack = n_samples - length + 1 - (k - 1) * (length - 1)
    picks = np.sort(rng.choice(slack, size=k, replace=False))
    return picks + np.arange(k) * (length - 1)


def plant(rng, n_samples: int, length: int, k: int, sigma2: float):
    """Unit rectangles at planted starts plus white noise; returns (y, starts, noise)."""
    starts = planted_starts(rng, n_samples, length, k)
    clean = np.zeros(n_samples)
    for s in starts:
        clean[s : s + length] += 1.0
    noise = rng.normal(0.0, np.sqrt(sigma2), n_samples)
    return clean + noise, starts, noise


class FailureLog(logging.Handler):
    """Counts the per-trial failures ``run_sweep`` logs and then scores as misses."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class CliDetectLong:
    """``dpdetect detect --method dp`` in-process on a long text stripe."""

    n_samples, length, k, sigma2 = 1 << 19, 20, 96, 1.0

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        y, starts, _ = plant(rng, self.n_samples, self.length, self.k, self.sigma2)
        self.y = y
        self.path = workdir / f"cli_detect_long-{seed}.txt"
        self.out = workdir / f"cli_detect_long-{seed}.json"
        # %.17g reads back exactly: the oracle sees the program's measurement.
        self.path.write_text("\n".join(format(v, ".17g") for v in y) + "\n")
        self.cleanup = [self.path, self.out]
        w = O.window_sums(y, self.length)
        self.optimum = O.exact_optima(w, self.length, [self.k])[self.k]
        self.planted = O.set_weight(w, starts)
        self.argv = [
            "detect", "--in", str(self.path), "--rect", str(self.length),
            "--method", "dp", "--k", str(self.k), "--out", str(self.out),
        ]

    def round(self, r: int):
        return [(self.detect, self.check, 1)]

    def detect(self) -> int:
        # Without this, a call that writes nothing is checked against the
        # previous call's output.
        self.out.unlink(missing_ok=True)
        return dpdetect.cli.main(self.argv)

    def check(self, code) -> int:
        if code != 0:
            return 1
        res = json.loads(self.out.read_text())
        if len(res["starts"]) != self.k or res["k_hat"] != self.k:
            raise O.Mismatch(f"expected {self.k} starts, got {len(res['starts'])}")
        O.check_detection(res["starts"], res["objective"], self.y, self.length)
        O.check_close(res["objective"], self.optimum, "objective vs Lagrangian optimum")
        if res["objective"] < self.planted - O.REL_TOL * abs(self.planted):
            raise O.Mismatch("objective below the planted set's")
        return 0


class UnknownK:
    """``estimate_k(detector="dp")`` with many permutations, direct-path scores."""

    n_samples, length, k_true, sigma2 = 6000, 20, 24, 1.0
    k_max, perms, pool = 60, 120, 3
    cleanup = ()

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        template = dpdetect.rect_template(self.length)
        ks = range(1, self.k_max + 1)
        for i in range(self.pool):
            y, _, _ = plant(rng, self.n_samples, self.length, self.k_true, self.sigma2)
            cfg = dpdetect.GapConfig(k_max=self.k_max, perms=self.perms, seed=seed * 10 + i)
            opt = O.exact_optima(O.window_sums(y, self.length), self.length, ks)
            # The published curve for the same config; estimate_k reduces it.
            curve = dpdetect.gap_curve(y, template, cfg, detector="dp")
            self.cases.append((dpdetect.Measurement(y), template, cfg, curve, opt))

    def round(self, r: int):
        items = []
        for y, template, cfg, curve, opt in self.cases:
            run = lambda y=y, t=template, c=cfg: dpdetect.estimate_k(y, t, c, detector="dp")
            check = lambda out, y=y, curve=curve, opt=opt: self.check(out, y, curve, opt)
            items.append((run, check, 1))
        return items

    def check(self, out, y, curve, opt) -> int:
        for k in range(1, self.k_max + 1):
            O.check_close(curve.actual[k - 1], opt[k], f"actual[{k}]")
        O.check_concave_nondecreasing(curve.actual, "actual")
        O.check_concave_nondecreasing(curve.null_mean, "null_mean")
        k_hat, result = out
        gap = np.where(np.isnan(curve.gap), -np.inf, curve.gap)
        if k_hat != int(np.argmax(gap)) + 1:
            raise O.Mismatch(f"k_hat {k_hat} is not the argmax of the gap")
        starts = result.placements.starts
        if len(starts) != k_hat:
            raise O.Mismatch(f"{len(starts)} starts for k_hat={k_hat}")
        O.check_detection(starts, result.objective, y.samples, self.length)
        O.check_close(result.objective, curve.actual[k_hat - 1], "objective vs actual[k_hat]")
        return 0


class PaperSweep:
    """``run_sweep`` over the paper's noise grid, dense and well-separated cells."""

    grid = (0.5, 1.0, 2.0, 3.0)
    methods = ("dp", "greedy", "random")
    trials = 200
    cleanup = ()

    def __init__(self, seed: int, workdir: Path):
        base = dict(n_samples=300, length=30, sigma2_grid=self.grid,
                    trials=self.trials, methods=self.methods)
        self.configs = [
            dpdetect.bench.BenchConfig(k=6, separation="arbitrary", seed=seed * 10_000, **base),
            dpdetect.bench.BenchConfig(
                k=3, separation="well_separated", seed=seed * 10_000 + 5_000, **base
            ),
        ]
        self.expected = [self._expected_f1(cfg) for cfg in self.configs]
        self.ops = len(self.configs) * len(self.grid) * self.trials * len(self.methods)

    def _expected_f1(self, cfg) -> dict:
        """Mean F1 per (sigma2, method) from an independent exact DP and greedy.

        Trials are regenerated by run_sweep's documented rule: trial ``t`` of
        grid entry ``i`` uses seed ``cfg.seed + i * trials + t`` for both the
        synthesis config and the generator.
        """
        template = dpdetect.rect_template(cfg.length)
        out = {}
        for i, sigma2 in enumerate(cfg.sigma2_grid):
            f1 = {"dp": [], "greedy": []}
            for t in range(cfg.trials):
                trial_seed = cfg.seed + i * cfg.trials + t
                synth = dpdetect.SynthConfig(
                    n_samples=cfg.n_samples, length=cfg.length, k=cfg.k,
                    sigma2=sigma2, separation=cfg.separation, seed=trial_seed,
                )
                y, truth = dpdetect.synthesize(
                    synth, template, np.random.default_rng(trial_seed)
                )
                w = O.window_sums(y.samples, cfg.length)
                for method, detect in (("dp", O.exact_starts), ("greedy", O.greedy_starts)):
                    est = detect(w, cfg.length, cfg.k)
                    f1[method].append(O.f1_score(truth.starts, est, cfg.length))
            for method, values in f1.items():
                out[(float(sigma2), method)] = float(np.mean(values))
        return out

    def round(self, r: int):
        run = lambda: [dpdetect.bench.run_sweep(c) for c in self.configs]  # noqa: E731
        return [(run, self.check, self.ops)]

    def check(self, out) -> int:
        cells = len(self.grid) * len(self.methods)
        for records, expected in zip(out, self.expected):
            if len(records) != cells:
                raise O.Mismatch(f"{len(records)} records, expected {cells}")
            for rec in records:
                if rec.trials != self.trials:
                    raise O.Mismatch(f"record over {rec.trials} trials")
                key = (rec.sigma2, rec.method)
                if key in expected:
                    if abs(rec.mean_f1 - expected[key]) > 1e-9:
                        raise O.Mismatch(
                            f"mean F1 {key}: {rec.mean_f1!r}, expected {expected[key]!r}"
                        )
                elif not 0.0 <= rec.mean_f1 <= 1.0:
                    raise O.Mismatch(f"mean F1 {key} outside [0, 1]")
        return 0


class ConvexSmall:
    """``convex_detect_full`` at N=150 over three noise levels, fresh draws per item."""

    n_samples, length, k = 150, 15, 6
    grid, draws = (0.5, 1.0, 2.0), 2
    cleanup = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.template = dpdetect.rect_template(self.length)

    def _case(self, rng, sigma2):
        """A draw whose planted indicator meets the residual budget.

        The program is only posed problems with a feasible point. On draws
        whose noise energy alone exceeds ``delta``, ``denoise`` raises
        ``ConvergenceError`` for some seeds and not others.
        """
        cfg = dpdetect.ConvexConfig(sigma2=sigma2)
        delta = cfg.delta(self.n_samples)
        while True:
            y, _, noise = plant(rng, self.n_samples, self.length, self.k, sigma2)
            if float(np.dot(noise, noise)) <= delta:
                return y, cfg, delta

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, 4, r])
        cases = [self._case(rng, s2) for s2 in self.grid for _ in range(self.draws)]

        def run():
            out = []
            for y, cfg, _ in cases:
                try:
                    out.append(dpdetect.convex_detect_full(y, self.template, self.k, cfg))
                except dpdetect.DetectError:
                    out.append(None)
            return out

        return [(run, lambda out: self.check(out, cases), len(cases))]

    def check(self, out, cases) -> int:
        failed = 0
        for res, (y, _, delta) in zip(out, cases):
            if res is None:
                failed += 1
                continue
            result, track = res
            O.check_detection(result.placements.starts, result.objective, y, self.length)
            O.check_convex_track(y, self.template.samples, track.s, track.residual_sq, delta)
        return failed


WORKLOADS = {
    "cli_detect_long": CliDetectLong,
    "unknown_k": UnknownK,
    "paper_sweep": PaperSweep,
    "convex_small": ConvexSmall,
}
