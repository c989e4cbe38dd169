"""Steadiness of the end-to-end metrics over two sets of ten seeds.

    python3 perfbench/steady.py

Runs every workload of ``BENCHMARK.json`` once per seed of the first set,
then once per seed of the second set, so the sets are taken at different
times. Each run is its own process through ``run.py`` and measures for the
``run_seconds`` of ``BENCHMARK.json``. For each workload and end-to-end
metric it prints each set's median, quartiles and spread (the distance
between the quartiles as a share of the median), how far the second set's
median moved from the first's, and the metric's bound. A spread or a shift
in either direction past the bound fails the check. All run results are
written to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS, RUNS = 2, 10
SEED_BASE = 1000  # set s uses seeds SEED_BASE * (s + 1) + i


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: dict = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(RUNS):
                seed = SEED_BASE * (s + 1) + i
                started = time.strftime("%Y-%m-%dT%H:%M:%S")
                res = run_once(w, seed, seconds)
                runs.append({"seed": seed, "started": started, **res})
                print(f"set {s} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)
            results[w].append(runs)

    out = ROOT / ".perfbench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    within = steady = True
    print(f"\n{'workload':16} {'metric':13} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'shift':>7} {'bound':>6}")
    for w in workloads:
        sets = results[w]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            for s, st in enumerate(stats):
                shift = st["median"] / stats[0]["median"] - 1.0
                if m["better"] == "higher":
                    shift = -shift
                over, high = st["spread"] > bound, st["spread"] > bound / 3
                moved = abs(shift) > bound
                within &= not (over or moved)
                steady &= not (high or moved)
                flag = "".join(f for f, on in ((" spread>bound", over),
                                               (" spread>bound/3", high and not over),
                                               (" |shift|>bound", moved)) if on)
                print(f"{w:16} {name:13} {s:>3} {st['median']:10.5g} {st['q1']:10.5g} "
                      f"{st['q3']:10.5g} {st['spread']:7.2%} {shift:7.2%} {bound:6.2f}{flag}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        within &= correct and len(shares) == 1
        print(f"{w:16} correct={correct} failed shares={sorted(shares)}")
    print(f"\nwritten {out.relative_to(ROOT)}")
    print(f"every spread and shift within its bound: {within}")
    print(f"every spread below a third of its bound: {steady}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
