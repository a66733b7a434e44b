"""Self-test of the benchmark's own solve path and tracer.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed 1]

Checks, each printed as a PASS/FAIL line (exit 1 on any failure):

1. Criterion 8 cross-check: ``gen_smoothed_game(50, 1e3, seed=808)`` solved
   through ``workloads.solve`` (criterion-11 radii, epsilon 1e-6) passes the
   gate and counts exactly 160,018 matvecs with ``mirror_prox`` and 15,068
   with ``case1``, the counts ``tests/test_acceptance.py`` measures.
2. Determinism: for every workload, two passes at one seed give identical
   ``matvecs``, ``oracle_calls`` and ``saddle.attempts``, with no failed solve.
3. Tracer: a traced pass gives the same counts as an untraced one, its layer
   self times add up to the time covered by root spans, and every wrapped
   attribute is the original again afterwards.
"""

import blas1  # noqa: F401  (pins BLAS to one thread; must precede numpy)

import argparse
import sys

import run
from hostclock import HostClock

CRITERION_8 = {"mirror_prox": 160_018, "case1": 15_068}


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        run.load_library()
    except run.SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    from saddlekit import testbed

    ok = True
    clock = HostClock()
    inst = testbed.gen_smoothed_game(50, 1e3, seed=808)
    for engine, expected in CRITERION_8.items():
        case = workloads.Case(inst, engine)
        res = run.run_pass(workloads, [case], clock)
        ok &= report(
            f"criterion 8 cross-check ({engine})",
            res.matvecs == [expected] and not res.failures,
            f"{res.matvecs[0]} matvecs (expected {expected}), failures {res.failures}",
        )

    for name, wl in workloads.WORKLOADS.items():
        cases = wl.cases(args.seed)
        first, second = (run.run_pass(workloads, cases, clock) for _ in range(2))
        ok &= report(
            f"determinism ({name}, seed {args.seed})",
            first.counts() == second.counts() and not first.failures + second.failures,
            f"matvecs {sum(first.matvecs)} / {sum(second.matvecs)}, oracle_calls "
            f"{first.oracle_calls} / {second.oracle_calls}, attempts {first.attempts} / "
            f"{second.attempts}, failures {first.failures + second.failures}",
        )

    core = tracing.core
    attrs = [(owner, attr) for owner, attr, _ in tracing.SPAN_TARGETS]
    attrs += [(core.OracleTally, "bump"), (core.OracleTally, "snapshot")]
    attrs += [(core.Metered, method) for method in tracing.METERED_METHODS]
    before = [vars(owner)[attr] for owner, attr in attrs]
    cases = workloads.WORKLOADS["pool-auto"].cases(args.seed)[:20]
    plain = run.run_pass(workloads, cases, clock)
    tr = tracing.Tracer()
    with tr.installed():
        traced = run.run_pass(workloads, cases, clock, tr)
    restored = all(vars(owner)[attr] is fn for (owner, attr), fn in zip(attrs, before))
    parts = sum(tr.layer_self_s().values())
    ok &= report(
        "tracer",
        traced.counts() == plain.counts() and restored and abs(parts - tr.root_s) <= 1e-6 * tr.root_s,
        f"counts equal: {traced.counts() == plain.counts()}; attributes restored: {restored}; "
        f"layer self times {parts:.6f} s vs root spans {tr.root_s:.6f} s",
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
