"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criterion 9's count-ratio clause is implemented faithfully and is expected to
fail: the inner-budget certificate forces a log factor into the g-gradient
count that the factor-3 window cannot absorb (see the failure message for the
measured numbers).
"""

import math
import zlib

import numpy as np

import saddlekit as sk
from saddlekit import properties
from saddlekit.core import Metered, OracleKind, OracleTally, counted


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def quad_objective(diag, b):
    diag = np.asarray(diag, dtype=float)
    b = np.asarray(b, dtype=float)
    x_star = b / diag
    f_star = 0.5 * float(x_star @ (diag * x_star)) - float(b @ x_star)
    obj = sk.CompositeObjective(
        smooth_grad=lambda x: diag * x - b,
        l_smooth=float(diag.max()),
        mu=float(diag.min()),
        full_value=lambda x: 0.5 * float(x @ (diag * x)) - float(b @ x),
        f_star=f_star,
    )
    return obj, x_star


def two_term_quadratic(rdiag, gdiag, b, tally):
    rdiag = np.asarray(rdiag, dtype=float)
    gdiag = np.asarray(gdiag, dtype=float)
    b = np.asarray(b, dtype=float)
    x_star = np.linalg.solve(np.diag(rdiag + gdiag), b)
    f_star = 0.5 * float(x_star @ ((rdiag + gdiag) * x_star)) - float(b @ x_star)
    return sk.TwoTermObjective(
        value_r=lambda x: 0.5 * float(x @ (rdiag * x)),
        grad_r=counted(lambda x: rdiag * x, tally, OracleKind.GRAD_R),
        value_g=lambda x: 0.5 * float(x @ (gdiag * x)) - float(b @ x),
        grad_g=counted(lambda x: gdiag * x - b, tally, OracleKind.GRAD_X_F),
        prox_g=lambda w, scale: (b + scale * w) / (gdiag + scale),
        x_star=x_star,
        f_star=f_star,
    )


def test_criterion_01_fgm_rate():
    """Exact-oracle trajectories stay under 8 L R^2 / (k+1)^2 at every k."""
    rng = np.random.default_rng(101)
    violations = 0
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        diag = rng.uniform(0.1, 50.0, n)
        b = rng.standard_normal(n)
        obj, x_star = quad_objective(diag, b)
        x0 = rng.standard_normal(n)
        r_sq = 0.5 * float((x0 - x_star) @ (x0 - x_star))
        rep = sk.run_fgm(obj, x0, 60)
        for row in rep.history:
            checked += 1
            bound = 8.0 * obj.l_smooth * r_sq / (row.iteration + 1) ** 2
            if row.gap > bound * (1 + 1e-9):
                violations += 1
    ok = report(
        "criterion 1 (exact rate bound)",
        violations == 0,
        f"{checked} iterate checks over 100 seeded quadratics, {violations} violations",
    )
    assert ok


def test_criterion_02_inexact_fgm_rate():
    """Injected per-call inexactness delta adds at most 2 N delta."""
    rng = np.random.default_rng(202)
    violations = 0
    checked = 0
    for delta in (1e-2, 1e-4):
        for trial in range(20):
            n = int(rng.integers(2, 20))
            true_diag = rng.uniform(0.2, 5.0, n)
            b = rng.standard_normal(n)
            x_star = b / true_diag
            f_star = 0.5 * float(x_star @ (true_diag * x_star)) - float(b @ x_star)
            l_declared = 2.0 * float(true_diag.max())
            mu = float(true_diag.min())

            def noisy_grad(x, _d=true_diag, _b=b, _mu=mu, _delta=delta):
                local = np.random.default_rng(zlib.crc32(x.tobytes()))
                e = local.standard_normal(x.shape)
                e *= math.sqrt(_mu * _delta) / np.linalg.norm(e)
                return _d * x - _b + e

            obj = sk.CompositeObjective(
                smooth_grad=noisy_grad,
                l_smooth=l_declared,
                mu=mu,
                full_value=lambda x, _d=true_diag, _b=b: 0.5 * float(x @ (_d * x)) - float(_b @ x),
                f_star=f_star,
            )
            x0 = rng.standard_normal(n)
            r_sq = 0.5 * float((x0 - x_star) @ (x0 - x_star))
            rep = sk.run_fgm(obj, x0, 120)
            for row in rep.history:
                checked += 1
                bound = 8.0 * l_declared * r_sq / (row.iteration + 1) ** 2 + 2.0 * row.iteration * delta
                if row.gap > bound:
                    violations += 1
    ok = report(
        "criterion 2 (inexact rate bound)",
        violations == 0,
        f"{checked} iterate checks at delta in {{1e-2, 1e-4}}, {violations} violations",
    )
    assert ok


def test_criterion_03_restart_scaling():
    """Total smooth-gradient calls scale as sqrt(condition number)."""
    kappas = [1e2, 1e3, 1e4, 1e5]
    calls = []
    for kappa in kappas:
        obj, _ = quad_objective([1.0, kappa], [0.7, 0.3 * kappa])
        rep = sk.run_restarted_fgm(obj, np.zeros(2), 1e-6, r0=1.5)
        calls.append(rep.extras["smooth_calls"])
    slope = float(np.polyfit(np.log10(kappas), np.log10(calls), 1)[0])
    ok = report(
        "criterion 3 (restart scaling)",
        0.4 <= slope <= 0.6,
        f"calls {calls} over condition numbers {kappas}, log-log slope {slope:.3f}",
    )
    assert ok


def test_criterion_04_envelope():
    """Two-sided envelope and gradient-error bound over 10^4 seeded triples."""
    result = properties.envelope_suite(samples=10000, seed=404)
    ok = report(
        "criterion 4 (inexact-gradient envelope)",
        result.ok,
        f"{result.checked} bundles, {result.violations} violations, "
        f"worst envelope margin {result.details['worst_envelope_margin']:.2e}, "
        f"worst gradient margin {result.details['worst_grad_margin']:.2e}",
    )
    assert ok


def test_criterion_05_argmax_lipschitz():
    result = properties.argmax_lipschitz_suite(pairs=1000, seed=505)
    ok = report(
        "criterion 5 (argmax Lipschitz ratio)",
        result.ok,
        f"{result.checked} pairs, {result.violations} above 2 l_xy / mu_y + 1e-7",
    )
    assert ok


def test_criterion_06_partial_max_constants():
    result = properties.curvature_suite(instances=50, samples=40, seed=606)
    ok = report(
        "criterion 6 (partial-max curvature constants)",
        result.ok,
        f"50 instances, {result.violations} violations; "
        f"worst kernel overlap {result.details['worst_kernel']:.2e}",
    )
    assert ok


def test_criterion_07_extragradient_bound_and_scaling():
    resid = properties.averaged_residual_suite(runs=8, iterations=150, seed=707)
    # restarted variant: operator evaluations vs L/mu at accuracy 1e-8
    ratios = [1e2, 1e3, 1e4]
    evals = []
    for ratio in ratios:
        inst = sk.gen_bilinear(6, 6, 25.0, seed=7, mu_x=5.0 / ratio, mu_y=5.0 / ratio)
        tally = OracleTally()
        op = sk.assemble_saddle_operator(Metered(inst.problem(), tally))
        rep = sk.run_restarted_mp(op, np.zeros(12), 1e-8, r0=6.0)
        z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
        assert float(np.linalg.norm(rep.x_final - z_star) ** 2) <= 1e-8 / op.mu * (1 + 1e-6)
        evals.append(tally.count(OracleKind.GRAD_X_F))
    slope = float(np.polyfit(np.log10(ratios), np.log10(evals), 1)[0])
    ok = report(
        "criterion 7 (extragradient residual bound and restart scaling)",
        resid.ok and 0.8 <= slope <= 1.2,
        f"{resid.checked} residual checks with {resid.violations} violations; "
        f"operator evals {evals}, slope {slope:.3f}",
    )
    assert ok


def test_criterion_08_game_benchmark():
    """Smoothed matrix games: accelerated pipeline sqrt(kappa), baseline kappa."""
    kappas = [1e2, 1e3, 1e4]
    matvecs = {"case1": [], "mirror_prox": []}
    for kappa in kappas:
        inst = sk.gen_smoothed_game(50, kappa, seed=808)
        r_x = 2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0)
        r_y = 2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0)
        for engine in matvecs:
            rep = sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=r_x, r_y=r_y)
            assert rep.converged and rep.certified_gap <= 1e-6
            matvecs[engine].append(rep.tally.count(OracleKind.MATVEC))
    lk = np.log10(kappas)
    slope_acc = float(np.polyfit(lk, np.log10(matvecs["case1"]), 1)[0])
    slope_eg = float(np.polyfit(lk, np.log10(matvecs["mirror_prox"]), 1)[0])
    advantage = matvecs["mirror_prox"][-1] / matvecs["case1"][-1]
    ok = report(
        "criterion 8 (matrix-game complexity split)",
        0.35 <= slope_acc <= 0.65 and 0.8 <= slope_eg <= 1.2 and advantage >= 10.0,
        f"accelerated matvecs {matvecs['case1']} (slope {slope_acc:.3f}), "
        f"extragradient matvecs {matvecs['mirror_prox']} (slope {slope_eg:.3f}), "
        f"advantage at kappa=1e4: {advantage:.1f}x",
    )
    assert ok


def _sliding_counts(l_g: float, engine: str, epsilon: float = 1e-3):
    n = 4
    rdiag = np.linspace(0.1, 1.0, n)
    gdiag = np.linspace(0.0, l_g, n)
    gdiag[0] = 0.0
    b = np.array([1.0, -0.6, 0.4, 0.8])
    tally = OracleTally()
    obj = two_term_quadratic(rdiag, gdiag, b, tally)
    spec = sk.SlidingSpec(l_r=1.0, l_g=l_g, mu_r=0.1, mu_g=0.0)
    gap0 = obj.value(np.zeros(n)) - obj.f_star
    rep = sk.sliding_solve(spec, obj, np.zeros(n), epsilon, engine=engine, gap0=gap0, tally=tally)
    achieved = obj.value(rep.x_final) - obj.f_star
    assert achieved <= epsilon * (1 + 1e-9), f"{engine} missed the target: {achieved:.2e}"
    return tally.count(OracleKind.GRAD_R), tally.count(OracleKind.GRAD_X_F)


def test_criterion_09a_sliding_count_ratio():
    """N_r / N_g within a factor 3 of sqrt(l_r / l_g) at fixed mu.

    Faithfully implemented and expected to fail: the scheduled inner budget
    must satisfy the certified relative accuracy 1 / (32 c1), which costs a
    factor ~ log((l_r + l_g) / (delta_rel (l_r + mu_g))) of extra g-gradient
    calls per outer step (about 20-36 here, confirmed by direct calibration:
    shrinking the budget below ~2/3 of the schedule breaks the approximation
    certificate).  The measured ratio therefore sits 30-50x below the
    factor-3 window around sqrt(l_r / l_g); no compliant schedule can close
    a gap that the certificate itself enforces.
    """
    lines = []
    ok = True
    for l_g in (1e2, 1e4):
        n_r, n_g = _sliding_counts(l_g, "apg")
        measured = n_r / n_g
        target = math.sqrt(1.0 / l_g)
        factor = max(measured / target, target / measured)
        lines.append(
            f"l_g={l_g:g}: N_r={n_r} N_g={n_g} ratio={measured:.3e} "
            f"target={target:.3e} off by {factor:.1f}x"
        )
        ok = ok and factor <= 3.0
    ok = report("criterion 9a (sliding count ratio)", ok, "; ".join(lines))
    assert ok, (
        "count ratio deviates from sqrt(l_r/l_g) by the inner-budget log factor; "
        "see the decisions ledger for the full analysis: " + "; ".join(lines)
    )


def test_criterion_09b_engine_agreement():
    """Default and proximal-point engines agree on both counts within 3x."""
    lines = []
    ok = True
    for l_g in (1e2, 1e4):
        nr_a, ng_a = _sliding_counts(l_g, "apg")
        nr_c, ng_c = _sliding_counts(l_g, "catalyst")
        f_r = max(nr_a / nr_c, nr_c / nr_a)
        f_g = max(ng_a / ng_c, ng_c / ng_a)
        lines.append(
            f"l_g={l_g:g}: N_r {nr_a} vs {nr_c} ({f_r:.2f}x), N_g {ng_a} vs {ng_c} ({f_g:.2f}x)"
        )
        ok = ok and f_r <= 3.0 and f_g <= 3.0
    ok = report("criterion 9b (engine agreement on counts)", ok, "; ".join(lines))
    assert ok


def test_criterion_10_lyapunov_and_ranges():
    """Lyapunov contraction by (1-alpha) with exact oracles and inner solves."""
    rng = np.random.default_rng(1010)
    contraction_ok = True
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 10))
        rdiag = rng.uniform(0.3, 1.5, n)
        gdiag = rng.uniform(0.5, 60.0, n)
        b = rng.standard_normal(n)
        tally = OracleTally()
        obj = two_term_quadratic(rdiag, gdiag, b, tally)
        spec = sk.SlidingSpec(
            l_r=float(rdiag.max()),
            l_g=float(gdiag.max()),
            mu_r=float(rdiag.min()),
            mu_g=float(gdiag.min()),
        )
        rep = sk.apg_inexact_solve(
            spec, obj, np.zeros(n), 1e-10, gap0=10.0, exact_inner=True, tally=tally
        )
        alpha = rep.extras["params"].alpha
        ly = rep.extras["lyapunov"]
        for prev, cur in zip(ly, ly[1:]):
            if prev <= 1e-13:
                break
            ratio = cur / prev
            worst = max(worst, ratio - (1 - alpha))
            if ratio > (1 - alpha) + 1e-6:
                contraction_ok = False
    # parameter ranges over a seeded spec grid
    ranges_ok = True
    for trial in range(300):
        l_r = float(rng.uniform(0.05, 20))
        l_g = float(rng.uniform(l_r, 1e5))
        mu_r = float(rng.uniform(0, l_r))
        mu_g = float(rng.uniform(0, l_g))
        if mu_r + mu_g == 0:
            continue
        p = sk.alg5_params(
            sk.SlidingSpec(l_r=l_r, l_g=l_g, mu_r=mu_r, mu_g=mu_g), 10 ** rng.uniform(-9, -2)
        )
        if not (0 < p.alpha <= 0.25 and 0.5 <= p.beta <= 1 - p.alpha):
            ranges_ok = False
    ok = report(
        "criterion 10 (Lyapunov contraction and parameter ranges)",
        contraction_ok and ranges_ok,
        f"worst contraction excess {worst:.2e}; ranges ok: {ranges_ok}",
    )
    assert ok


def test_criterion_11_end_to_end():
    """50 seeded instances solved to a certified gap of 1e-6."""
    rng = np.random.default_rng(1111)
    eps = 1e-6
    worst_gap = 0.0
    worst_dist = 0.0
    failures = 0
    instances = []
    for j in range(25):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 51))
        cond = float(rng.uniform(1.0, 100.0))
        instances.append(sk.gen_bilinear(n, m, cond, seed=2000 + j, mu_x=4.0, mu_y=4.0))
    for j in range(25):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(2, 41))
        cond = float(rng.uniform(1.0, 50.0))
        instances.append(sk.gen_quadratic_saddle(n, m, cond, seed=3000 + j, mu_x=4.0, mu_y=4.0))
    for inst in instances:
        r_x = 2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0)
        r_y = 2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0)
        rep = sk.solve_saddle(inst.problem(), eps, engine="auto", r_x=r_x, r_y=r_y)
        dist = math.hypot(
            float(np.linalg.norm(rep.x_final - inst.closed_form_x)),
            float(np.linalg.norm(rep.y_final - inst.closed_form_y)),
        )
        worst_gap = max(worst_gap, rep.certified_gap)
        worst_dist = max(worst_dist, dist)
        if not (rep.converged and rep.certified_gap <= eps and dist <= 1e-3):
            failures += 1
    # dual-view round trip on a subset
    dual_ok = True
    for inst in instances[:5]:
        dv = sk.dual_view(inst.problem())
        r_x = 2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0)
        r_y = 2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0)
        rep = sk.solve_saddle(dv, eps, engine="auto", r_x=r_x, r_y=r_y)
        if np.linalg.norm(rep.x_final - inst.closed_form_y) > 1e-3:
            dual_ok = False
    ok = report(
        "criterion 11 (end-to-end certified solves)",
        failures == 0 and dual_ok,
        f"50 instances, {failures} failures; worst gap {worst_gap:.2e}, "
        f"worst distance {worst_dist:.2e}; dual-view round trip ok: {dual_ok}",
    )
    assert ok


def test_criterion_12_oracle_accounting():
    """Scheduled loops make exactly the advertised number of oracle calls."""
    tally = OracleTally()
    obj = two_term_quadratic([1.0, 0.5], [10.0, 30.0], [1.0, -1.0], tally)
    spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.5, mu_g=10.0)
    rep = sk.apg_inexact_solve(spec, obj, np.zeros(2), 1e-8, gap0=3.0, tally=tally)
    p = rep.extras["params"]
    apg_ok = (
        tally.count(OracleKind.GRAD_R) == p.k_outer
        and tally.count(OracleKind.GRAD_X_F) == p.k_outer * p.t_inner
    )
    # non-accelerated composite method: one smooth gradient per iteration
    gm_ok = True
    for n in (1, 13, 57):
        t2 = OracleTally()
        gdiag = np.array([3.0, 8.0])
        b2 = np.array([1.0, 2.0])
        comp = sk.CompositeObjective(
            smooth_grad=counted(lambda x: x, t2, OracleKind.GRAD_R),
            l_smooth=1.0,
            mu=4.0,
            prox_model=lambda u, a, lin, _g=gdiag, _b=b2: (u - a * (lin - _b)) / (1.0 + a * _g),
        )
        sk.composite_gm_solve(comp, np.zeros(2), n, tally=t2)
        gm_ok = gm_ok and t2.count(OracleKind.GRAD_R) == n
    ok = report(
        "criterion 12 (exact oracle accounting)",
        apg_ok and gm_ok,
        f"outer loop: grad_r={tally.count(OracleKind.GRAD_R)} (k_outer={p.k_outer}), "
        f"grad_g={tally.count(OracleKind.GRAD_X_F)} (k_outer*t_inner={p.k_outer * p.t_inner}); "
        f"composite method exact: {gm_ok}",
    )
    assert ok
