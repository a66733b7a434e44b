"""Bit-identity fingerprints of seeded solves, for refactors that must not move a number.

Run as ``PYTHONPATH=src python tests/fingerprint.py`` on two checkouts and diff
the output: each line is ``<case> <sha256>``, the hash taken over the returned
x/y bytes, the certified gap, ``converged``, the final tally, every history
row (iteration, gap, tally; not wall time) and the extras.  A case that raises
hashes the exception type and message instead.  Cases:

* all six engines on a seeded bilinear and a seeded quadratic instance;
* the criterion-8 smoothed games (kappa 1e2, 1e3, 1e4; ``case1`` and
  ``mirror_prox``);
* the curved probes: quadratic instances whose structured modulus
  lambda_min+ / (l_y + l_yy) exceeds mu_x (``case1`` and ``case2``);
* every workload case of ``perfbench/workloads.py`` at seeds 1 and 7;
* the role-swapped ``dual_view`` of the seeded bilinear and quadratic
  instances (``case1``, ``case2`` and ``mirror_prox``);
* direct calls of each driver, including ``run_mirror_prox`` and
  ``run_restarted_mp`` on all of space and on a product of balls.

Pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

import numpy as np

import saddlekit as sk
from saddlekit import fgm, inner_max, mirror_prox, saddle, sliding
from saddlekit.core import EuclideanBall, Metered, OracleKind, OracleTally

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _canon(v) -> str:
    """A deterministic text form of a report field: arrays by their bytes, floats by repr."""
    if v is None or isinstance(v, (bool, int, str)):
        return repr(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        return f"nd{v.dtype}{v.shape}:{digest}"
    if isinstance(v, np.generic):
        return _canon(v.item())
    if isinstance(v, enum.Enum):
        return repr(v.value)
    if isinstance(v, OracleTally):
        return _canon(v.snapshot())
    if dataclasses.is_dataclass(v):
        return type(v).__name__ + _canon({f.name: getattr(v, f.name) for f in dataclasses.fields(v)})
    if isinstance(v, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v[k])}" for k in sorted(v, key=str)) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_canon(e) for e in v) + "]"
    return f"<{type(v).__name__}>"


def _report_text(rep) -> str:
    rows = [(row.iteration, row.gap, row.tally) for row in rep.history]
    return _canon([
        rep.x_final, rep.y_final, rep.certified_gap, rep.target, rep.converged,
        rep.tally, rows, rep.extras,
    ])


def fingerprint(name: str, run) -> None:
    try:
        text = _report_text(run())
    except Exception as exc:  # a raise is part of the behaviour being pinned
        text = f"raise {type(exc).__name__}: {exc}"
    print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)


def _radii(inst) -> tuple[float, float]:
    return (
        2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0),
        2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0),
    )


def engine_cases() -> None:
    instances = {
        "bilinear": sk.gen_bilinear(6, 5, 10.0, seed=3),
        "quadratic": sk.gen_quadratic_saddle(6, 5, 10.0, seed=3),
    }
    for family, inst in instances.items():
        r_x, r_y = _radii(inst)
        for engine in saddle.Engine:
            def run(inst=inst, engine=engine):
                p = inst.problem()
                if engine in (saddle.Engine.CASE3, saddle.Engine.CASE4):
                    p.prox_friendly_h = False
                return sk.solve_saddle(p, 1e-6, engine=engine, r_x=r_x, r_y=r_y)

            fingerprint(f"engine/{family}/{engine.value}", run)


def game_cases() -> None:
    for kappa in (1e2, 1e3, 1e4):
        inst = sk.gen_smoothed_game(50, kappa, seed=808)
        r_x, r_y = _radii(inst)
        for engine in ("case1", "mirror_prox"):
            fingerprint(
                f"game/kappa{kappa:g}/{engine}",
                lambda: sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=r_x, r_y=r_y),
            )


def dual_view_cases() -> None:
    for family, inst in (
        ("bilinear", sk.gen_bilinear(6, 5, 10.0, seed=3)),
        ("quadratic", sk.gen_quadratic_saddle(6, 5, 10.0, seed=3)),
    ):
        r_y, r_x = _radii(inst)  # the view's x is the instance's y
        for engine in ("case1", "case2", "mirror_prox"):
            fingerprint(
                f"dual_view/{family}/{engine}",
                lambda: sk.solve_saddle(
                    sk.dual_view(inst.problem()), 1e-6, engine=engine, r_x=r_x, r_y=r_y
                ),
            )


def curved_probe_cases() -> None:
    for seed in (0, 1, 2):
        inst = sk.gen_quadratic_saddle(6, 8, 10.0, seed=seed, mu_x=0.01, mu_y=0.1)
        r_x, r_y = _radii(inst)
        for engine in ("case1", "case2"):
            fingerprint(
                f"curved/seed{seed}/{engine}",
                lambda: sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=r_x, r_y=r_y),
            )


def workload_cases() -> None:
    for seed in (1, 7):
        for name, workload in workloads.WORKLOADS.items():
            for i, case in enumerate(workload.cases(seed)):
                name_i = f"workload/{name}/seed{seed}/{i}"
                fingerprint(name_i, lambda: workloads.solve(case, case.problem()))


def _quad(diag, b, domain=None):
    diag, b = np.asarray(diag, dtype=float), np.asarray(b, dtype=float)
    x_star = b / diag
    return fgm.CompositeObjective(
        smooth_grad=lambda x: diag * x - b,
        l_smooth=float(diag.max()),
        mu=float(diag.min()),
        domain=domain if domain is not None else sk.AllSpace(),
        full_value=lambda x: 0.5 * float(x @ (diag * x)) - float(b @ x),
        f_star=0.5 * float(x_star @ (diag * x_star)) - float(b @ x_star),
    )


def _two_term(tally, n=4, l_g=40.0):
    rdiag = np.linspace(0.1, 1.0, n)
    gdiag = np.linspace(0.0, l_g, n)
    b = np.linspace(-1.0, 1.0, n) + 0.3
    x_star = np.linalg.solve(np.diag(rdiag + gdiag), b)

    def value(x):
        return 0.5 * float(x @ ((rdiag + gdiag) * x)) - float(b @ x)

    def grad_r(x):
        tally.bump(OracleKind.GRAD_R)
        return rdiag * x

    def grad_g(x):
        tally.bump(OracleKind.GRAD_X_F)
        return gdiag * x - b

    obj = sliding.TwoTermObjective(
        value_r=lambda x: 0.5 * float(x @ (rdiag * x)),
        grad_r=grad_r,
        value_g=lambda x: 0.5 * float(x @ (gdiag * x)) - float(b @ x),
        grad_g=grad_g,
        prox_g=lambda w, scale: (b + scale * w) / (gdiag + scale),
        x_star=x_star,
        f_star=value(x_star),
    )
    spec = sliding.SlidingSpec(l_r=1.0, l_g=l_g, mu_r=0.1, mu_g=0.0)
    return obj, spec


def driver_cases() -> None:
    diag, b = np.geomspace(1.0, 300.0, 8), np.linspace(-2.0, 3.0, 8)
    x0 = np.full(8, 5.0)
    fingerprint("fgm/run_fgm", lambda: fgm.run_fgm(_quad(diag, b), x0, 40, tally=OracleTally()))
    fingerprint(
        "fgm/run_restarted_fgm",
        lambda: fgm.run_restarted_fgm(_quad(diag, b), x0, 1e-9, r0=40.0, tally=OracleTally()),
    )
    fingerprint(
        "fgm/run_restarted_fgm/one_block",
        lambda: fgm.run_restarted_fgm(_quad(diag, b), x0, 1e3, r0=40.0, tally=OracleTally()),
    )

    def understated_l():
        obj = _quad([1.0, 10.0], [0.7, 3.0])
        obj.l_smooth = 5.0  # the true constant is 10: the blocks diverge
        with np.errstate(all="ignore"):
            return fgm.run_restarted_fgm(obj, np.zeros(2), 1e-3, r0=1.5, tally=OracleTally())

    fingerprint("fgm/run_restarted_fgm/understated_l", understated_l)
    fingerprint("fgm/solve_to_gap/free", lambda: fgm.solve_to_gap(_quad(diag, b), x0, 1e-10))
    ball = EuclideanBall(np.zeros(8), 0.05)
    fingerprint("fgm/solve_to_gap/ball", lambda: fgm.solve_to_gap(_quad(diag, b, ball), x0, 1e-10))

    quad = sk.gen_quadratic_saddle(7, 6, 20.0, seed=5)
    bil = sk.gen_bilinear(7, 6, 20.0, seed=5)
    for family, inst in (("quadratic", quad), ("bilinear", bil)):
        def inner(inst=inst):
            mp = Metered(inst.problem())
            ig = inner_max.inexact_grad_g(mp, np.linspace(-1.0, 1.0, 7), 1e-9)
            return sk.SolveReport(ig.grad, ig.delta, mp.tally, None, y_final=ig.witness_y)

        fingerprint(f"inner_max/{family}", inner)
        r_x, r_y = _radii(inst)
        fingerprint(
            f"duality_gap/{family}",
            lambda inst=inst, r_x=r_x, r_y=r_y: _gap_report(inst, r_x, r_y),
        )

    game = sk.gen_smoothed_game(20, 50.0, seed=4)
    z_star = np.concatenate([game.closed_form_x, game.closed_form_y])
    z0 = np.linspace(-1.0, 1.0, 40)

    def mp_free():
        op = mirror_prox.assemble_saddle_operator(Metered(game.problem()))
        return mirror_prox.run_mirror_prox(op, z0, 300, z_star=z_star, record_every=7)

    def mp_balls():
        op = mirror_prox.assemble_saddle_operator(Metered(game.problem()))
        balls = mirror_prox.ProductSet(
            EuclideanBall(np.zeros(20), 0.3), EuclideanBall(np.full(20, 0.1), 0.2), 20
        )
        op = dataclasses.replace(op, domain=balls)
        return mirror_prox.run_mirror_prox(op, z0, 300, z_star=z_star, record_every=7)

    def mp_restarted():
        op = mirror_prox.assemble_saddle_operator(Metered(game.problem()))
        return mirror_prox.run_restarted_mp(op, z0, 1e-10, r0=8.0)

    def mp_restarted_balls():
        # balls that hold the saddle, entered from the far side: the steps
        # project, and the residual stop still fires
        op = mirror_prox.assemble_saddle_operator(Metered(game.problem()))
        balls = mirror_prox.ProductSet(
            EuclideanBall(np.zeros(20), 1.2 * float(np.linalg.norm(game.closed_form_x))),
            EuclideanBall(np.zeros(20), 1.2 * float(np.linalg.norm(game.closed_form_y))),
            20,
        )
        op = dataclasses.replace(op, domain=balls)
        start = balls.project(-10.0 * z_star)
        return mirror_prox.run_restarted_mp(op, start, 1e-10, r0=float(np.linalg.norm(start - z_star)))

    fingerprint("mirror_prox/run_mirror_prox/free", mp_free)
    fingerprint("mirror_prox/run_mirror_prox/balls", mp_balls)
    fingerprint("mirror_prox/run_restarted_mp", mp_restarted)
    fingerprint("mirror_prox/run_restarted_mp/balls", mp_restarted_balls)

    for engine in ("apg", "catalyst"):
        for l_g in (40.0, 0.5):  # 0.5 < l_r breaks the orientation rule and raises
            def split(engine=engine, l_g=l_g):
                tally = OracleTally()
                obj, spec = _two_term(tally, l_g=l_g)
                return sliding.sliding_solve(spec, obj, np.zeros(4), 1e-7, engine=engine, tally=tally)

            fingerprint(f"sliding/{engine}/l_g{l_g:g}", split)

    def apg_exact():
        tally = OracleTally()
        obj, spec = _two_term(tally)
        return sliding.apg_inexact_solve(spec, obj, np.zeros(4), 1e-7, exact_inner=True, tally=tally)

    fingerprint("sliding/apg/exact_inner", apg_exact)
    fingerprint(
        "sliding/composite_gm_solve",
        lambda: sliding.composite_gm_solve(_quad(diag, b), x0, 60, tally=OracleTally()),
    )


def _gap_report(inst, r_x, r_y):
    mp = Metered(inst.problem())
    x = inst.closed_form_x + 1e-3
    y = inst.closed_form_y - 1e-3
    cert = saddle.duality_gap(mp, x, y, r_x, r_y, 1e-8)
    return sk.SolveReport(x, cert.gap, mp.tally, None, y_final=y, extras={"certificate": cert})


def main() -> None:
    driver_cases()
    engine_cases()
    game_cases()
    curved_probe_cases()
    workload_cases()
    dual_view_cases()


if __name__ == "__main__":
    main()
