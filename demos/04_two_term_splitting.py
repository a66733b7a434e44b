"""Splitting a two-term objective so each gradient is paid at its own rate.

P = r + g with l_r = 1 and l_g = 10^4: a monolithic accelerated run would
charge both oracles sqrt((l_r + l_g)/mu) calls.  The splitting solvers charge
the cheap term ~sqrt(l_r/mu) and the expensive one ~sqrt(l_g/mu) (times the
scheduled inner log factor).  r must be the cheaper term (l_r <= l_g).
"""

import numpy as np

import saddlekit as sk
from saddlekit.core import OracleKind, OracleTally, counted


def build(l_g, tally):
    n = 4
    rdiag = np.linspace(0.1, 1.0, n)
    gdiag = np.linspace(0.0, l_g, n)
    b = np.array([1.0, -0.6, 0.4, 0.8])
    x_star = np.linalg.solve(np.diag(rdiag + gdiag), b)
    f_star = 0.5 * x_star @ ((rdiag + gdiag) * x_star) - b @ x_star
    obj = sk.TwoTermObjective(
        value_r=lambda x: 0.5 * float(x @ (rdiag * x)),
        grad_r=counted(lambda x: rdiag * x, tally, OracleKind.GRAD_R),
        value_g=lambda x: 0.5 * float(x @ (gdiag * x)) - float(b @ x),
        grad_g=counted(lambda x: gdiag * x - b, tally, OracleKind.GRAD_X_F),
        prox_g=lambda w, scale: (b + scale * w) / (gdiag + scale),
        x_star=x_star,
        f_star=float(f_star),
    )
    return obj


def main():
    eps = 1e-4
    print(f"target accuracy {eps:g}, l_r = 1, mu = 0.1")
    print(f"{'l_g':>8} {'engine':>10} {'grad r':>8} {'grad g':>10} {'achieved gap':>13}")
    for l_g in (1e2, 1e4):
        for engine in ("apg", "catalyst"):
            tally = OracleTally()
            obj = build(l_g, tally)
            spec = sk.SlidingSpec(l_r=1.0, l_g=l_g, mu_r=0.1, mu_g=0.0)
            gap0 = obj.value(np.zeros(4)) - obj.f_star
            rep = sk.sliding_solve(spec, obj, np.zeros(4), eps, engine=engine, gap0=gap0, tally=tally)
            gap = obj.value(rep.x_final) - obj.f_star
            print(
                f"{l_g:>8.0e} {engine:>10} {tally.count(OracleKind.GRAD_R):>8} "
                f"{tally.count(OracleKind.GRAD_X_F):>10} {gap:>13.2e}"
            )
    print("\nthe r-gradient budget barely moves while the g budget tracks sqrt(l_g)")

    print("\n== the scheduled loop's parameters are fully explicit ==")
    spec = sk.SlidingSpec(l_r=1.0, l_g=1.0, mu_r=0.0, mu_g=1.0)
    p = sk.alg5_params(spec, epsilon=0.16, gap0=1.0)
    print(
        f"alpha={p.alpha:.5f} beta={p.beta:.5f} eta={p.eta:.5f}\n"
        f"c1={p.c1:g} inner relative accuracy={p.delta_rel_inner:g}\n"
        f"outer steps={p.k_outer}, inner budget per step={p.t_inner}"
    )


if __name__ == "__main__":
    main()
