"""Run the benchmark on every workload and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads game-eg split] [--trace 0]

Each (workload, seed) pair is one ``run.py`` process, run one after another
with ``BENCHMARK.json``'s ``run_seconds``.  For every metric the summary gives
the median over seeds, the quartiles, and their distance as a share of the
median (the run-to-run spread), next to the metric's bound.  It also prints
``failed_frac`` per workload.  Exits 1 if any run fails, is incorrect, or an
end-to-end spread (``setup_s`` aside) exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_one(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median); no spread for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        results, walls = [], []
        for seed in args.seeds:
            start = perf_counter()
            res = run_one(spec["command"], workload, seed, spec["run_seconds"], args.trace)
            walls.append(perf_counter() - start)
            results.append(res)
            if not res["correct"] or res["failed"]:
                ok = False
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(
            f"== {workload}: {len(results)} runs of {min(walls):.1f}-{max(walls):.1f} s wall, "
            f"{attempted} solves, failed_frac {failed / attempted!r}"
        )
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  <-- spread above a third of the bound"
                ok = False
            print(
                f"  {name:40s} {med:14.6g} {first['unit']:8s} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {rel:.4f}" + (f" bound {bound}" if bound is not None else "") + flag
            )
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
