"""Spans around calls into dpdetect's layers, recorded from outside.

:func:`install` wraps the public functions of each module of
``src/dpdetect`` and rebinds every name that points at the original,
including the names other modules bound at import time
(``dpdetect.gap.dp_solve``, ``dpdetect.bench.dp_detect``, ...), so calls
made inside the package are traced as well. Spans are kept in memory; the
caller writes them out when the run ends.

A span's self time is its duration minus the time its direct children
cover. Per-layer metrics are totals over the traced items divided by the
number of items.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

# (module, function, span name). A span name's prefix up to the first dot
# is its layer.
WRAPPED = (
    ("cli", "main", "cli"),
    ("io", "read_measurement", "io.read"),
    ("io", "result_to_dict", "io.write"),
    ("xcorr", "correlation_scores", "xcorr"),
    ("xcorr", "correlation_scores_direct", "xcorr.direct"),
    ("xcorr", "correlation_scores_fft", "xcorr.fft"),
    ("dp", "dp_solve", "dp.solve"),
    ("dp", "dp_backtrack", "dp.backtrack"),
    ("dp", "dp_detect", "dp.detect"),
    ("dp", "dp_objective_column", "dp.column"),
    ("gap", "estimate_k", "gap"),
    ("gap", "gap_curve", "gap"),
    ("gap", "permute_measurement", "gap"),
    ("greedy", "greedy_path", "greedy"),
    ("greedy", "greedy_detect", "greedy"),
    ("greedy", "random_detect", "greedy"),
    ("synth", "synthesize", "synth"),
    ("synth", "sample_placements", "synth"),
    ("metrics", "score", "metrics"),
    ("metrics", "match_detections", "metrics"),
    ("bench", "run_sweep", "bench"),
    ("convex", "convex_detect", "convex.pick"),
    ("convex", "convex_detect_full", "convex.pick"),
    ("convex", "denoise", "convex.denoise"),
    ("model", "objective_value", "model.objective"),
)

# Self time of these span names, per item.
SELF_TIME_METRICS = {
    "dp.solve_self_s": ("dp.solve",),
    "dp.backtrack_self_s": ("dp.backtrack",),
    "gap.self_s": ("gap",),
    "xcorr.self_s": ("xcorr", "xcorr.direct", "xcorr.fft"),
    "io.read_self_s": ("io.read",),
    "io.write_self_s": ("io.write",),
    "cli.self_s": ("cli",),
    "synth.self_s": ("synth",),
    "greedy.self_s": ("greedy",),
    "metrics.self_s": ("metrics",),
    "bench.self_s": ("bench",),
    "convex.denoise_self_s": ("convex.denoise",),
    "convex.pick_self_s": ("convex.pick",),
    "model.objective_self_s": ("model.objective",),
}

MIB = float(1 << 20)


def _share(num: float, den: float | None) -> float:
    return num / den if den else 0.0


def _length(v) -> int:
    n = getattr(v, "length", None)
    return int(n) if n is not None else len(v)


class Tracer:
    """Span stack plus counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self._stack: list[int] = []
        self.item = -1
        self.counts: dict[str, float] = {}
        self.tables_mib: list[float] = []
        self.alloc_peaks_mib: list[float] = []
        self._alloc_pass = False
        self._undo: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def write(self, path, workload: str, seed: int) -> None:
        """Spans as gzipped JSON, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - t0) * 1e6), round((end - start) * 1e6), parent, item]
            for name, start, end, parent, item in self.spans
        ]
        payload = {"workload": workload, "seed": seed,
                   "fields": ["name", "start_us", "dur_us", "parent", "item"], "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))

    def count_spans(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._alloc_pass:
                return tracer._alloc_call(fn, name, args, kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook:
                named = dict(zip(params, args))
                named.update(kwargs)
                hook(tracer, named, out)
            return out

        return traced

    def _alloc_call(self, fn, name, args, kwargs):
        if name != "dp.solve":
            return fn(*args, **kwargs)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        self.alloc_peaks_mib.append((tracemalloc.get_traced_memory()[1] - base) / MIB)
        return out

    def install(self) -> None:
        """Wrap every function in :data:`WRAPPED` wherever it is bound."""
        for mod_name, _, _ in WRAPPED:
            importlib.import_module(f"dpdetect.{mod_name}")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "dpdetect" or key.startswith("dpdetect."))
        ]
        for mod_name, fn_name, span in WRAPPED:
            orig = getattr(sys.modules[f"dpdetect.{mod_name}"], fn_name)
            wrapped = self._wrap(orig, span, HOOKS.get(fn_name))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def alloc_pass(self, run_item) -> None:
        """Run one item with tracemalloc on, recording each solve's peak."""
        self._alloc_pass = True
        tracemalloc.start()
        try:
            run_item()
        finally:
            tracemalloc.stop()
            self._alloc_pass = False

    # -- metrics ----------------------------------------------------------

    def metrics(self, items: int, item_s: float, untraced_p50: float, traced_p50: float):
        """Per-item values of every per-layer metric.

        ``item_s`` is the summed duration of the traced items; layer self
        times should account for nearly all of it.
        """
        per = 1.0 / max(items, 1)
        selfs = self.self_times()
        out = {}
        for key, names in SELF_TIME_METRICS.items():
            out[key] = sum(selfs.get(n, 0.0) for n in names) * per
        c = self.counts
        out["dp.solves"] = self.count_spans("dp.solve") * per
        out["dp.cells"] = c.get("dp.cells", 0.0) * per
        out["dp.table_mib"] = max(self.tables_mib, default=0.0)
        out["dp.alloc_peak_mib"] = max(self.alloc_peaks_mib, default=0.0)
        out["dp.backtracked_share"] = _share(c.get("dp.cells_backtracked", 0.0), c.get("dp.cells"))
        null_solves = c.get("gap.solves", 0.0) - c.get("gap.curves", 0.0)
        out["gap.null_solves"] = max(null_solves, 0.0) * per
        out["xcorr.calls"] = self.count_spans("xcorr") * per
        out["xcorr.fft_calls"] = self.count_spans("xcorr.fft") * per
        out["io.read_mib"] = c.get("io.read_bytes", 0.0) / MIB * per
        out["greedy.picks"] = c.get("greedy.picks", 0.0) * per
        out["metrics.pairs"] = c.get("metrics.pairs", 0.0) * per
        out["bench.failed_trials"] = c.get("bench.failed_trials", 0.0) * per
        iters = c.get("convex.fista_iters", 0.0)
        steps = c.get("convex.outer_steps", 0.0)
        out["convex.fista_iters"] = iters * per
        out["convex.outer_steps"] = steps * per
        out["convex.s_per_iter"] = _share(selfs.get("convex.denoise", 0.0), iters)
        out["convex.feasible_step_share"] = _share(c.get("convex.feasible_steps", 0.0), steps)
        out["tracing.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
        out["tracing.accounted_share"] = _share(sum(selfs.values()), item_s)
        return out


# -- counters read from arguments and results ------------------------------


def _dp_solve(tr: Tracer, a, out) -> None:
    cells = (_length(a["y"]) - _length(a["x"]) + 2) * (int(a["k_max"]) + 1)
    tr.add("dp.cells", cells)
    tr.tables_mib.append(cells * 9 / MIB)
    if any(tr.spans[i][0] == "gap" for i in tr._stack):
        tr.add("gap.solves", 1)


def _dp_backtrack(tr: Tracer, a, out) -> None:
    tr.add("dp.cells_backtracked", a["table"].best.size)


def _gap_curve(tr: Tracer, a, out) -> None:
    if not any(tr.spans[i][0] == "gap" for i in tr._stack):
        tr.add("gap.curves", 1)


def _read(tr: Tracer, a, out) -> None:
    tr.add("io.read_bytes", os.path.getsize(a["path"]))


def _greedy_path(tr: Tracer, a, out) -> None:
    tr.add("greedy.picks", len(out[0]))


def _match(tr: Tracer, a, out) -> None:
    tr.add("metrics.pairs", len(a["truth"]) * len(a["est"]))


def _denoise(tr: Tracer, a, out) -> None:
    delta = a["cfg"].delta(_length(a["y"]))
    tr.add("convex.fista_iters", out.iterations)
    tr.add("convex.outer_steps", len(out.trace))
    tr.add("convex.feasible_steps", sum(1 for _, r in out.trace if r <= delta))


HOOKS = {
    "dp_solve": _dp_solve,
    "dp_backtrack": _dp_backtrack,
    "estimate_k": _gap_curve,
    "gap_curve": _gap_curve,
    "read_measurement": _read,
    "greedy_path": _greedy_path,
    "match_detections": _match,
    "denoise": _denoise,
}
