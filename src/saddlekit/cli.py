"""Experiment command line: solve, sweep, verify, predict.

Outputs are machine readable and byte-reproducible for a fixed config and
seed: a summary CSV with one row per run and, per run, an iteration-history
CSV.  Wall-clock columns are written as 0 unless timing is explicitly
requested, so that repeated sweeps diff clean.

Instance descriptors are JSON.  Either explicit data::

    {"family": "bilinear", "a": [[1,0],[0,2]], "b": [1,1], "mu_x": 1, "mu_y": 1}

(the quadratic family also needs the diagonals of P and Q, ``"p_diag"`` and
``"q_diag"``, which default to zeros for the bilinear one) or generator
parameters::

    {"family": "quadratic", "n": 20, "m": 20, "cond": 100, "seed": 7}

Spec descriptors for ``predict`` carry the declared constants and flags::

    {"l_xx": 0, "l_xy": 2, "mu_x": 1, "mu_y": 1, "dim_x": 2, "dim_y": 2,
     "prox_friendly_r": true, "prox_friendly_h": true}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import properties
from .core import OracleKind, SaddleSpec, SpectralInfo
from .saddle import Engine, predict_complexity, solve_saddle
from .testbed import SaddleInstance, gen_bilinear, gen_quadratic_saddle

SUMMARY_HEADER = (
    "run_id,engine,n,m,cond,mu_x,mu_y,eps,gap,calls_grad_r,calls_grad_h,"
    "calls_gradx_F,calls_grady_F,calls_prox_r,calls_prox_h,matvecs,wall_ms,converged"
)
HISTORY_HEADER = "iter,gap,calls_gradx_F,calls_grady_F,wall_ms"

_TALLY_COLUMNS = (
    OracleKind.GRAD_R,
    OracleKind.GRAD_H,
    OracleKind.GRAD_X_F,
    OracleKind.GRAD_Y_F,
    OracleKind.PROX_R,
    OracleKind.PROX_H,
    OracleKind.MATVEC,
)


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


MAX_DIM = 200  # desk-scale caps for CLI-driven experiments
MAX_COND = 1e5


def _check_caps(n: int, m: int, cond: float) -> None:
    if n > MAX_DIM or m > MAX_DIM:
        raise ConfigError(f"dimensions capped at {MAX_DIM} for CLI runs")
    if cond > MAX_COND:
        raise ConfigError(f"conditioning capped at {MAX_COND:g} for CLI runs")


def _load_instance(desc: dict) -> SaddleInstance:
    family = desc.get("family", "bilinear")
    if family not in ("bilinear", "quadratic"):
        raise ConfigError(f"unknown instance family {family!r}")
    mu_x, mu_y = float(desc.get("mu_x", 1.0)), float(desc.get("mu_y", 1.0))
    if "a" not in desc:
        n, m, cond = int(desc["n"]), int(desc["m"]), float(desc.get("cond", 10.0))
        _check_caps(n, m, cond)
        gen = gen_bilinear if family == "bilinear" else gen_quadratic_saddle
        return gen(n, m, cond, int(desc.get("seed", 0)), mu_x, mu_y)
    a = np.asarray(desc["a"], dtype=float)
    if a.ndim != 2:
        raise ConfigError(f"a must be a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    _check_caps(n, m, 1.0)
    if family == "quadratic" and not ("p_diag" in desc and "q_diag" in desc):
        raise ConfigError("explicit quadratic data needs both p_diag and q_diag")
    p_diag = np.asarray(desc.get("p_diag", np.zeros(n)), dtype=float)
    q_diag = np.asarray(desc.get("q_diag", np.zeros(m)), dtype=float)
    if p_diag.shape != (n,) or q_diag.shape != (m,) or not np.all(np.r_[p_diag, q_diag] >= 0.0):
        raise ConfigError(f"p_diag and q_diag must be nonnegative, of lengths {n} and {m}")
    inst = SaddleInstance(a, np.asarray(desc["b"], dtype=float), mu_x, mu_y, p_diag, q_diag)
    if inst.spectral.lambda_max > 0.0:  # a zero matrix has no conditioning to cap
        _check_caps(n, m, inst.spectral.lambda_max / inst.spectral.lambda_min_plus)
    return inst


def _default_radii(inst) -> tuple[float, float]:
    rx = 2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0)
    ry = 2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0)
    return rx, ry


def _run_one(inst, engine: str, eps: float, rx=None, ry=None):
    drx, dry = _default_radii(inst)
    return solve_saddle(
        inst.problem(),
        eps,
        engine=engine,
        r_x=rx if rx is not None else drx,
        r_y=ry if ry is not None else dry,
    )


def _summary_row(run_id, engine, n, m, cond, mu_x, mu_y, eps, report, wall: bool) -> str:
    t = report.tally
    cells = [
        run_id,
        engine,
        str(n),
        str(m),
        _fmt(cond),
        _fmt(mu_x),
        _fmt(mu_y),
        _fmt(eps),
        _fmt(report.certified_gap),
    ]
    cells += [str(t.count(k)) for k in _TALLY_COLUMNS]
    cells.append(_fmt(report.wall_ms) if wall else "0")
    cells.append("1" if report.converged else "0")
    return ",".join(cells)


def _history_lines(report, wall: bool) -> list[str]:
    lines = [HISTORY_HEADER]
    for row in report.history:
        lines.append(
            ",".join(
                [
                    str(row.iteration),
                    _fmt(row.gap),
                    str(row.tally.get(OracleKind.GRAD_X_F.value, 0)),
                    str(row.tally.get(OracleKind.GRAD_Y_F.value, 0)),
                    _fmt(row.wall_ms) if wall else "0",
                ]
            )
        )
    return lines


def _out_dir(arg: str | None) -> Path:
    base = arg or os.environ.get("SADDLEKIT_OUTDIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(args) -> int:
    desc = json.loads(Path(args.instance).read_text())
    inst = _load_instance(desc)
    report = _run_one(inst, args.engine, args.eps, args.rx, args.ry)
    out = _out_dir(args.out)
    n, m = inst.dims
    run_id = f"{desc.get('family', 'bilinear')}-n{n}-m{m}-{args.engine}"
    summary = "\n".join(
        [
            SUMMARY_HEADER,
            _summary_row(
                run_id, args.engine, n, m, desc.get("cond", 1.0),
                inst.mu_x, inst.mu_y, args.eps, report, args.wall,
            ),
        ]
    )
    (out / "summary.csv").write_text(summary + "\n")
    (out / "history.csv").write_text("\n".join(_history_lines(report, args.wall)) + "\n")
    print(f"gap {report.certified_gap:.3e} converged {report.converged}")
    print(f"wrote {out / 'summary.csv'} and {out / 'history.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    family = cfg.get("family", "bilinear")
    n = int(cfg.get("n", 10))
    m = int(cfg.get("m", n))
    conds = [float(c) for c in cfg.get("conds", [10.0])]
    mus = [float(v) for v in cfg.get("mus", [1.0])]
    engines = [str(e) for e in cfg.get("engines", ["auto"])]
    seeds = [int(s) for s in cfg.get("seeds", [0])]
    eps = float(cfg.get("eps", 1e-6))
    wall = bool(cfg.get("record_wall", False))
    with_history = bool(cfg.get("history", False))
    out = _out_dir(cfg.get("out_dir", args.out))

    rows = [SUMMARY_HEADER]
    for seed in seeds:
        for cond in conds:
            for mu in mus:
                desc = {
                    "family": family,
                    "n": n,
                    "m": m,
                    "cond": cond,
                    "seed": seed,
                    "mu_x": mu,
                    "mu_y": mu,
                }
                inst = _load_instance(desc)
                for engine in engines:
                    report = _run_one(inst, engine, eps)
                    run_id = f"{family}-n{n}-m{m}-cond{cond:g}-mu{mu:g}-seed{seed}-{engine}"
                    rows.append(
                        _summary_row(run_id, engine, n, m, cond, mu, mu, eps, report, wall)
                    )
                    if with_history:
                        (out / f"hist_{run_id}.csv").write_text(
                            "\n".join(_history_lines(report, wall)) + "\n"
                        )
    (out / "summary.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {out / 'summary.csv'}")
    return 0


def _cmd_verify(args) -> int:
    names = list(properties.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        if name not in properties.SUITES:
            raise ConfigError(f"unknown suite {args.suite!r}")
        kwargs = {"seed": args.seed}
        if name == "envelope":
            kwargs["samples"] = args.samples
        elif name == "argmax_lipschitz":
            kwargs["pairs"] = args.samples
        result = properties.SUITES[name](**kwargs)
        print(result.summary())
        for key, value in result.details.items():
            print(f"  {key}: {value:.3e}")
        failed = failed or not result.ok
    return 1 if failed else 0


def _cmd_predict(args) -> int:
    desc = json.loads(Path(args.spec).read_text())
    spec = SaddleSpec(
        dim_x=int(desc.get("dim_x", 1)),
        dim_y=int(desc.get("dim_y", 1)),
        mu_x=float(desc["mu_x"]),
        mu_y=float(desc["mu_y"]),
        l_xx=float(desc.get("l_xx", 0.0)),
        l_xy=float(desc.get("l_xy", 0.0)),
        l_yy=float(desc.get("l_yy", 0.0)),
        l_x=float(desc["l_x"]) if "l_x" in desc else None,
        l_y=float(desc["l_y"]) if "l_y" in desc else None,
    )
    spectral_info = None
    if "lambda_max" in desc and "lambda_min_plus" in desc:
        spectral_info = SpectralInfo(
            float(desc["lambda_max"]),
            float(desc["lambda_min_plus"]),
            np.zeros((spec.dim_x, 0)),
        )
    pred = predict_complexity(
        spec,
        bool(desc.get("prox_friendly_r", True)),
        bool(desc.get("prox_friendly_h", True)),
        spectral=spectral_info,
    )
    for name in sorted(pred.formulas):
        print(f"{name} {_fmt(pred.formulas[name])}")
    for kind, (base, formula) in sorted(pred.counts.items(), key=lambda kv: kv[0].value):
        print(f"count[{kind.value}] {_fmt(base)} ({formula})")
    if pred.mu_x_substituted:
        print("mu_x substituted by lambda_min_plus / (l_y + l_yy)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlekit",
        description="Metered solvers and experiments for structured saddle problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance with one engine")
    p_solve.add_argument("--instance", required=True, help="instance JSON file")
    p_solve.add_argument(
        "--engine", default="auto", choices=[e.value for e in Engine]
    )
    p_solve.add_argument("--eps", type=float, default=1e-6)
    p_solve.add_argument("--rx", type=float, default=None)
    p_solve.add_argument("--ry", type=float, default=None)
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.add_argument("--wall", action="store_true", help="record wall-clock columns")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid of runs from a JSON config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument(
        "--suite", default="all", choices=["all", *properties.SUITES]
    )
    p_verify.add_argument(
        "--samples", type=int, default=2000,
        help="samples of the envelope suite and pairs of argmax_lipschitz;"
        " curvature and averaged_residual run their fixed sizes",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_predict = sub.add_parser("predict", help="closed-form oracle-count estimates")
    p_predict.add_argument("--spec", required=True, help="spec JSON file")
    p_predict.set_defaults(func=_cmd_predict)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
