"""Accelerated composite steps, their rate bound, and restart scaling.

Runs the fast gradient method on seeded quadratics, compares the measured
objective gap with the 8 L R^2 / (N+1)^2 guarantee (plus 2 N delta under an
inexact oracle), and shows the sqrt(condition-number) growth of the restarted
wrapper's gradient budget.
"""

import numpy as np

import saddlekit as sk


def quadratic(diag, b):
    diag = np.asarray(diag, dtype=float)
    b = np.asarray(b, dtype=float)
    x_star = b / diag
    f_star = 0.5 * x_star @ (diag * x_star) - b @ x_star
    obj = sk.CompositeObjective(
        smooth_grad=lambda x: diag * x - b,
        l_smooth=float(diag.max()),
        mu=float(diag.min()),
        full_value=lambda x: 0.5 * float(x @ (diag * x)) - float(b @ x),
        f_star=float(f_star),
    )
    return obj, x_star


def main():
    rng = np.random.default_rng(0)
    diag = rng.uniform(0.5, 20.0, 10)
    b = rng.standard_normal(10)
    obj, x_star = quadratic(diag, b)
    x0 = rng.standard_normal(10)
    r_sq = 0.5 * float((x0 - x_star) @ (x0 - x_star))

    print("== rate bound on a seeded 10-d quadratic ==")
    rep = sk.run_fgm(obj, x0, 40)
    print(f"{'iter':>5} {'measured gap':>14} {'bound':>14}")
    for row in rep.history[::8] + [rep.history[-1]]:
        bound = 8 * obj.l_smooth * r_sq / (row.iteration + 1) ** 2
        print(f"{row.iteration:>5} {row.gap:>14.3e} {bound:>14.3e}")

    print("\n== restarted wrapper: certified accuracy 1e-10 ==")
    r0 = float(np.linalg.norm(x0 - x_star)) * 1.1
    rep = sk.run_restarted_fgm(obj, x0, 1e-10, r0=r0)
    print(
        f"restarts: {rep.extras['restarts']} of {rep.extras['scheduled_restarts']} scheduled, "
        f"block size: {rep.extras['block_size']}, "
        f"certified gap: {rep.certified_gap:.2e}, true gap: {obj.gap_at(rep.x_final):.2e}"
    )

    print("\n== gradient budget vs condition number ==")
    print(f"{'kappa':>8} {'smooth calls':>13}")  # block steps plus certificate checks
    for kappa in (1e2, 1e3, 1e4, 1e5):
        o, _ = quadratic([1.0, kappa], [0.7, 0.3 * kappa])
        rep = sk.run_restarted_fgm(o, np.zeros(2), 1e-6, r0=1.5)
        print(f"{kappa:>8.0e} {rep.extras['smooth_calls']:>13}")
    print("(each factor of 10 in kappa multiplies the budget by about sqrt(10))")


if __name__ == "__main__":
    main()
