"""Run one dpdetect benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload cli_detect_long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process runs the items in a closed loop with one client, with
BLAS and OpenMP pinned to one thread. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Spans of a traced run are written to
``.perfbench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 15
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import dpdetect.cli; "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)


def measure_setup() -> float:
    """Median time from spawning an interpreter until ``dpdetect.cli`` is imported."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout) - start)
    return statistics.median(samples)


class Loop:
    """Closed loop over whole rounds of a workload's items."""

    def __init__(self, workload, failures):
        from dpdetect import DetectError
        from oracles import Mismatch

        self.workload = workload
        self.failures = failures
        self.errors = (DetectError, Mismatch)
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.rounds = 0

    def run_item(self, run, check, ops, tracer=None) -> float:
        """Time one item, check its output and count its operations."""
        detect_error, mismatch = self.errors
        logged = self.failures.count
        if tracer is not None:
            tracer.item += 1
        start = time.perf_counter()
        try:
            out = run()
        except detect_error as exc:
            out = exc
        elapsed = time.perf_counter() - start
        failed = self.failures.count - logged
        if tracer is not None:
            tracer.add("bench.failed_trials", failed)
        if isinstance(out, detect_error):
            failed = ops
        else:
            try:
                failed += check(out)
            except mismatch as exc:
                self.mismatches.append(str(exc))
        self.attempted += ops
        self.failed += min(failed, ops)
        return elapsed

    def measure(self, seconds: float, tracer=None) -> None:
        """Whole rounds until ``seconds`` have passed.

        With a tracer, every item runs twice, untraced and then traced, so the
        overhead compares the same inputs.
        """
        start = time.perf_counter()
        while True:
            for run, check, ops in self.workload.round(self.rounds):
                self.times.append(self.run_item(run, check, ops))
                if tracer is not None:
                    tracer.install()
                    try:
                        self.traced_times.append(self.run_item(run, check, ops, tracer))
                    finally:
                        tracer.uninstall()
            self.rounds += 1
            if time.perf_counter() - start >= seconds:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpdetect" / "__init__.py").is_file():
        print(f"error: no dpdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpdetect
    from workloads import WORKLOADS, FailureLog

    if Path(dpdetect.__file__).resolve().parent != (SRC / "dpdetect").resolve():
        print(f"error: imported dpdetect from {dpdetect.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    failures = FailureLog()
    logging.getLogger("dpdetect.bench").addHandler(failures)
    setup_s = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    loop = Loop(workload, failures)
    try:
        if args.trace:
            metrics = traced(loop, args)
        else:
            loop.measure(args.seconds)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "item_s_p50": {"value": statistics.median(loop.times), "unit": "s"},
                "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    finally:
        for path in workload.cleanup:
            path.unlink(missing_ok=True)

    for msg in loop.mismatches[:5]:
        print(f"mismatch: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not loop.mismatches,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def traced(loop: Loop, args) -> dict:
    """Paired untraced and traced items, then one allocation pass."""
    from tracing import Tracer

    tracer = Tracer()
    loop.measure(args.seconds, tracer)
    if tracer.count_spans("dp.solve"):
        run, check, ops = loop.workload.round(0)[0]
        tracer.install()
        try:
            tracer.alloc_pass(lambda: loop.run_item(run, check, ops))
        finally:
            tracer.uninstall()
    values = tracer.metrics(
        items=len(loop.traced_times),
        item_s=sum(loop.traced_times),
        untraced_p50=statistics.median(loop.times),
        traced_p50=statistics.median(loop.traced_times),
    )
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json.gz", args.workload, args.seed)
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
