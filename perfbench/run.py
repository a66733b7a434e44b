"""saddlekit benchmark: certified-solve time and oracle counts on seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload game-eg --seed 1 --seconds 20 --trace 0

The run imports saddlekit from the checkout's ``src/`` and times set-up
``SETUP_REPEATS`` times: a fresh interpreter's ``import saddlekit`` plus drawing
the workload's instances from ``--seed``.  It then solves the instance set
pass after pass, single-threaded, until ``--seconds`` have elapsed.  Every
solve goes through the correctness gate in ``workloads.check``; a solve that
raises or fails the gate is counted in ``failed`` and never retried.  Oracle
counts must repeat exactly from pass to pass.  Times are reported in nominal
seconds (see ``hostclock.py``); the raw wall times are printed alongside.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends the first
half of the time untraced and the second half traced (see ``tracer.py``) and
reports the per-layer metrics.  Lines before the last describe the machine
and the run; the last line is the JSON result.  A copy of the result, and in
traced runs the spans, go to ``.perfbench_out/`` in the checkout.
"""

import blas1  # noqa: F401  (pins BLAS to one thread; must precede numpy)

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import saddlekit; print(time.perf_counter() - t0)"


class SetupError(Exception):
    """The checkout does not hold a usable saddlekit."""


def load_library() -> None:
    """Put the checkout's ``src/`` first on the path and import saddlekit from there."""
    if not (SRC / "saddlekit" / "__init__.py").is_file():
        raise SetupError(f"saddlekit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import saddlekit

    if Path(saddlekit.__file__).resolve().parent != SRC / "saddlekit":
        raise SetupError(f"imported saddlekit from {saddlekit.__file__}, not from {SRC}")


def import_s() -> float:
    """Wall time of a fresh interpreter's ``import saddlekit`` (numpy included)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


@dataclass
class PassResult:
    solve_s: float = 0.0  # nominal seconds spent in solve_saddle
    wall_s: float = 0.0  # the same in wall time
    matvecs: list = field(default_factory=list)  # per case, 0 when the solve raised
    oracle_calls: int = 0
    attempts: int = 0
    failures: list = field(default_factory=list)

    def counts(self) -> tuple:
        return (tuple(self.matvecs), self.oracle_calls, self.attempts)


def run_pass(workloads, cases, clock: HostClock, tracer=None) -> PassResult:
    """Solve every case once; only the ``solve_saddle`` calls are timed."""
    res = PassResult()
    for i, case in enumerate(cases):
        problem = case.problem()
        if tracer is not None:
            tracer.wrap_problem(problem)
            tracer.solve_id += 1
        rep = None
        with clock.timed(sample_inside=tracer is None) as t:
            try:
                rep = workloads.solve(case, problem)
            except Exception as exc:  # a raising solve is a failed solve, never a crash
                res.failures.append(f"case {i}: {type(exc).__name__}: {exc}")
        res.solve_s += t.nominal_s
        res.wall_s += t.wall_s
        if rep is None:
            res.matvecs.append(0)
            continue
        res.matvecs.append(rep.tally.count(workloads.OracleKind.MATVEC))
        res.oracle_calls += workloads.counted_oracle_calls(rep)
        res.attempts += rep.extras.get("attempts", 0)
        reason = workloads.check(case, rep)
        if reason is not None:
            res.failures.append(f"case {i}: {reason}")
    return res


def run_passes(workloads, cases, clock: HostClock, seconds: float, tracer=None) -> list:
    """Closed loop of passes until ``seconds`` have elapsed (at least one pass)."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(workloads, cases, clock, tracer))
    return passes


@dataclass
class Setup:
    cases: list
    nominal_s: float  # median nominal seconds of import plus generation
    wall_s: float  # median wall seconds of the same
    gen_s: float  # median wall seconds of generation alone
    import_wall_s: list


def set_up(workload, seed: int, clock: HostClock) -> Setup:
    nominal, wall, gen, imports = [], [], [], []
    for _ in range(SETUP_REPEATS):
        before = clock.kernel_s()
        imports.append(import_s())
        import_nominal = clock.nominal(imports[-1], before, clock.kernel_s())
        with clock.timed() as t:
            cases = workload.cases(seed)
        gen.append(t.wall_s)
        wall.append(imports[-1] + t.wall_s)
        nominal.append(import_nominal + t.nominal_s)
    med = statistics.median
    return Setup(cases, med(nominal), med(wall), med(gen), imports)


def bare_matvec_us(np, cases, weights) -> float:
    """Matvec-weighted wall time of a bare ``a @ x`` / ``a.T @ y`` at each case's shape."""
    per_shape = {}
    total = 0.0
    for case, w in zip(cases, weights):
        shape = case.shape
        if shape not in per_shape:
            m, n = shape
            a = case.inst.a
            x, y = np.ones(n), np.ones(m)
            reps = max(5, min(100, 25000 // (m * n)))
            samples = []
            for _ in range(5):
                t0 = perf_counter()
                for _ in range(reps):
                    a @ x
                    a.T @ y
                samples.append((perf_counter() - t0) / (2 * reps))
            per_shape[shape] = statistics.median(samples)
        total += w * per_shape[shape]
    return 1e6 * total / max(sum(weights), 1)


def machine(np) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in blas1.THREAD_VARS},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the denominator is 0 (an idle layer)."""
    return num / den if den else 0.0


def median_of(passes, attr: str) -> float:
    return statistics.median(getattr(p, attr) for p in passes)


def check_determinism(passes: list) -> list:
    first = passes[0].counts()
    return [f"pass {i}: oracle counts differ from pass 0" for i, p in enumerate(passes) if p.counts() != first]


def end_to_end(passes, setup: Setup) -> dict:
    return {
        "solve_s": metric(median_of(passes, "solve_s"), "s"),
        "matvecs": metric(sum(passes[0].matvecs), "count"),
        "oracle_calls": metric(passes[0].oracle_calls, "count"),
        "setup_s": metric(setup.nominal_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr, setup: Setup, plain, traced, bare_us: float, kernel_us: float) -> dict:
    """Per-layer metrics from the tracer and the untraced passes.

    Counts and span times are per traced pass, in wall seconds; a ratio whose
    denominator is zero (a layer the workload never enters) reads 0.
    """
    from saddlekit.core import OracleKind

    k = len(traced)
    per = lambda v: v / k  # noqa: E731
    calls, self_s, bumps = tr.calls, tr.self_s, tr.bumps
    layers = tr.layer_self_s()
    wall = sum(p.wall_s for p in traced)
    matvecs = sum(plain[0].matvecs)
    us_per_matvec = 1e6 * ratio(median_of(plain, "wall_s"), matvecs)
    flops = sum(2.0 * c.shape[0] * c.shape[1] * mv for c, mv in zip(setup.cases, plain[0].matvecs))
    counted = sum(bumps(kind) for kind in OracleKind if kind is not OracleKind.MATVEC)
    raw_calls = tr.oracle_calls()
    restarts = sum(r.extras["restarts"] for r in tr.returns["mirror_prox.run_restarted_mp"])
    attempts = sum(p.attempts for p in traced)
    solves = sum(len(p.matvecs) for p in traced)
    in_sliding = "sliding.sliding_solve"
    out = {
        "core.bump_calls": (per(calls["core.OracleTally.bump"]), "count"),
        "core.bump_s": (per(self_s["core.OracleTally.bump"]), "s"),
        "core.snapshot_calls": (per(calls["core.OracleTally.snapshot"]), "count"),
        "testbed.oracle_calls": (per(raw_calls), "count"),
        "testbed.oracle_s": (per(layers["testbed"]), "s"),
        "testbed.value_calls": (per(tr.oracle_calls(("value_r", "value_h", "value_F"))), "count"),
        "testbed.metered_frac": (ratio(counted, raw_calls), "ratio"),
        "testbed.bare_matvec_us": (bare_us, "us"),
        "testbed.gflops": (ratio(flops * k, layers["testbed"]) / 1e9, "GFLOP/s"),
        "testbed.gen_s": (setup.gen_s, "s"),
        "overhead.us_per_matvec": (us_per_matvec, "us"),
        "overhead.ratio_to_bare": (ratio(us_per_matvec, bare_us), "ratio"),
        "fgm.run_fgm.calls": (per(calls["fgm.run_fgm"]), "count"),
        "fgm.run_fgm.self_s": (per(self_s["fgm.run_fgm"]), "s"),
        "fgm.run_restarted_fgm.self_s": (per(self_s["fgm.run_restarted_fgm"]), "s"),
        "fgm.solve_to_gap.calls": (per(calls["fgm.solve_to_gap"]), "count"),
        "fgm.solve_to_gap.self_s": (per(self_s["fgm.solve_to_gap"]), "s"),
        "fgm.solve_to_gap.blocks_per_call": (
            ratio(tr.child_calls("fgm.run_fgm", "fgm.solve_to_gap"), calls["fgm.solve_to_gap"]),
            "count",
        ),
        "inner_max.inexact_grad_g.calls": (per(calls["inner_max.inexact_grad_g"]), "count"),
        "inner_max.inexact_grad_g.self_s": (per(self_s["inner_max.inexact_grad_g"]), "s"),
        "inner_max.grady_per_call": (
            ratio(bumps(OracleKind.GRAD_Y_F, "inner_max.inexact_grad_g"), calls["inner_max.inexact_grad_g"]),
            "count",
        ),
        "mirror_prox.run_mirror_prox.calls": (per(calls["mirror_prox.run_mirror_prox"]), "count"),
        "mirror_prox.run_mirror_prox.self_s": (per(self_s["mirror_prox.run_mirror_prox"]), "s"),
        "mirror_prox.restarts": (per(restarts), "count"),
        "sliding.sliding_solve.calls": (per(calls[in_sliding]), "count"),
        "sliding.sliding_solve.self_s": (per(self_s[in_sliding]), "s"),
        "sliding.g_per_r": (ratio(bumps(OracleKind.GRAD_X_F, in_sliding), bumps(OracleKind.GRAD_R, in_sliding)), "ratio"),
        "saddle.solve_saddle.self_s": (per(self_s["saddle.solve_saddle"]), "s"),
        "saddle.attempts": (per(attempts), "count"),
        "saddle.attempt_success_ratio": (ratio(solves, attempts), "ratio"),
        "saddle.duality_gap.calls": (per(calls["saddle.duality_gap"]), "count"),
        "saddle.duality_gap.self_s": (per(self_s["saddle.duality_gap"]), "s"),
        "saddle.cert_matvec_frac": (
            ratio(bumps(OracleKind.MATVEC, "saddle.duality_gap"), bumps(OracleKind.MATVEC)),
            "ratio",
        ),
    }
    for layer, s in layers.items():
        if layer != "testbed":  # testbed.oracle_s is that layer's self time
            out[f"{layer}.self_s"] = (per(s), "s")
    out["trace.wall_s"] = (per(wall), "s")
    out["trace.unattributed_s"] = (per(wall - tr.root_s), "s")
    out["trace.overhead_frac"] = (median_of(traced, "solve_s") / median_of(plain, "solve_s") - 1.0, "ratio")
    out["wall.solve_s"] = (median_of(plain, "wall_s"), "s")
    out["wall.setup_s"] = (setup.wall_s, "s")
    out["host.ref_kernel_us"] = (kernel_us, "us")
    return {name: metric(v, unit) for name, (v, unit) in out.items()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_library()
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    import numpy as np
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    # an untimed draw sizes the clock's kernel (and lets lazy library set-up happen)
    clock = HostClock(max(max(case.shape) for case in wl.cases(args.seed)))
    setup = set_up(wl, args.seed, clock)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(workloads, setup.cases, clock, budget)
    bare_us = bare_matvec_us(np, setup.cases, plain[0].matvecs)
    problems = check_determinism(plain)
    traced = []
    if args.trace:
        tr = tracing.Tracer()
        with tr.installed():
            traced = run_passes(workloads, setup.cases, clock, budget, tr)
        problems += check_determinism(plain + traced)
        if abs(sum(tr.layer_self_s().values()) - tr.root_s) > 1e-6 * max(tr.root_s, 1.0):
            problems.append("layer self times do not add up to the traced span time")
    kernel_us = 1e6 * statistics.median(clock.samples)
    metrics = per_layer(tr, setup, plain, traced, bare_us, kernel_us) if args.trace else end_to_end(plain, setup)

    failures = [f for p in plain + traced for f in p.failures]
    attempted = sum(len(p.matvecs) for p in plain + traced)
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solves_per_pass": len(setup.cases),
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "pass_solve_s": [p.solve_s for p in plain + traced],
        "pass_wall_s": [p.wall_s for p in plain + traced],
        "setup_wall_s": setup.wall_s,
        "import_wall_s": setup.import_wall_s,
        "ref_kernel_us": kernel_us,
        "bare_matvec_us": bare_us,
        "failed_frac": len(failures) / attempted,
        **machine(np),
    }
    print("# run " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    print(f"# failed_frac {info['failed_frac']!r} ratio")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"run": info, "result": result, "failures": failures + problems}, f, indent=1)
    if args.trace:
        tr.write_spans(OUT / f"{stem}-spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
