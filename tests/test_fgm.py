import math
import zlib

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.core import Metered
from saddlekit.fgm import certificate, quadratic_prox_model


def quad_objective(diag, b=None, domain=None):
    """f(x) = 1/2 x' diag x - <b, x> with closed-form minimizer."""
    diag = np.asarray(diag, dtype=float)
    b = np.zeros_like(diag) if b is None else np.asarray(b, dtype=float)
    x_star = b / diag
    f_star = 0.5 * float(x_star @ (diag * x_star)) - float(b @ x_star)
    obj = sk.CompositeObjective(
        smooth_grad=lambda x: diag * x - b,
        l_smooth=float(diag.max()),
        mu=float(diag.min()),
        domain=domain if domain is not None else sk.AllSpace(),
        full_value=lambda x: 0.5 * float(x @ (diag * x)) - float(b @ x),
        f_star=f_star,
    )
    return obj, x_star


class TestNextAlpha:
    def test_at_zero(self):
        assert sk.next_alpha(0.0, 1.0) == pytest.approx(1.0)
        assert sk.next_alpha(0.0, 2.0) == pytest.approx(0.5)

    def test_quadratic_root(self):
        # independent: larger root of alpha^2 - alpha - 1 = 0
        root = max(np.roots([1.0, -1.0, -1.0]).real)
        assert sk.next_alpha(1.0, 1.0) == pytest.approx(root)
        assert root == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_satisfies_defining_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            big_a, l = rng.uniform(0, 50), rng.uniform(0.01, 20)
            alpha = sk.next_alpha(big_a, l)
            assert l * alpha**2 == pytest.approx(big_a + alpha, rel=1e-12)


class TestRunFgm:
    def test_rate_bound_1d(self):
        obj, _ = quad_objective([1.0])
        rep = sk.run_fgm(obj, np.array([1.0]), 10)
        # R^2 = 0.5 * ||x0 - x*||^2 = 0.5
        assert rep.history[-1].gap <= 8 * 1.0 * 0.5 / 11**2

    def test_fixed_point(self):
        obj, x_star = quad_objective([2.0, 5.0], [1.0, 1.0])
        rep = sk.run_fgm(obj, x_star, 7)
        for row in rep.history:
            assert row.gap <= 1e-15

    def test_per_iteration_bound_dominates(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 20))
            diag = rng.uniform(0.5, 50.0, n)
            b = rng.standard_normal(n)
            obj, x_star = quad_objective(diag, b)
            x0 = rng.standard_normal(n)
            r_sq = 0.5 * float((x0 - x_star) @ (x0 - x_star))
            rep = sk.run_fgm(obj, x0, 40)
            for row in rep.history:
                bound = 8 * obj.l_smooth * r_sq / (row.iteration + 1) ** 2
                assert row.gap <= bound * (1 + 1e-9) + 1e-15

    def test_inexact_rate_bound(self):
        # valid inexact oracle at level delta: true smoothness l/2 declared as l,
        # gradient perturbed by a seeded direction of norm sqrt(mu * delta)
        delta = 1e-3
        diag = np.array([0.5, 0.35])
        l_declared, mu = 1.0, float(diag.min())
        b = np.array([0.2, -0.4])
        x_star = b / diag
        f_star = 0.5 * float(x_star @ (diag * x_star)) - float(b @ x_star)

        def noisy_grad(x):
            rng = np.random.default_rng(zlib.crc32(x.tobytes()))
            e = rng.standard_normal(x.shape)
            e *= math.sqrt(mu * delta) / np.linalg.norm(e)
            return diag * x - b + e

        obj = sk.CompositeObjective(
            smooth_grad=noisy_grad,
            l_smooth=l_declared,
            mu=mu,
            full_value=lambda x: 0.5 * float(x @ (diag * x)) - float(b @ x),
            f_star=f_star,
        )
        x0 = np.array([2.0, -1.0])
        r_sq = 0.5 * float((x0 - x_star) @ (x0 - x_star))
        rep = sk.run_fgm(obj, x0, 100)
        for row in rep.history:
            bound = 8 * l_declared * r_sq / (row.iteration + 1) ** 2 + 2 * row.iteration * delta
            assert row.gap <= bound

    def test_growth_of_accumulated_weight(self):
        for l in (0.5, 1.0, 7.0):
            big_a = 0.0
            for k in range(1, 200):
                big_a += sk.next_alpha(big_a, l)
                assert big_a >= k**2 / (4 * l) * (1 - 1e-12)


class TestRunFgmHistory:
    def test_one_row_per_step_exactly_with_a_value_oracle(self):
        obj, _ = quad_objective([1.0, 4.0], [1.0, 1.0])
        rep = sk.run_fgm(obj, np.zeros(2), 9)
        assert [row.iteration for row in rep.history] == list(range(1, 10))
        obj.full_value = None
        again = sk.run_fgm(obj, np.zeros(2), 9)
        assert again.history == []
        assert again.x_final.tobytes() == rep.x_final.tobytes()


def test_restarted_fgm_fails_closed_on_a_non_finite_point():
    # a NaN gradient leaves a NaN point whose certificate is NaN: the run
    # reports inf and does not converge, and the history's row for that
    # point, which logs the certificate, reads inf too
    obj = sk.CompositeObjective(smooth_grad=lambda x: np.full_like(x, np.nan), l_smooth=2.0, mu=1.0)
    rep = sk.run_restarted_fgm(obj, np.zeros(2), 1e-6, 2.0)
    assert np.isnan(rep.x_final).all()
    assert rep.certified_gap == math.inf and not rep.converged
    assert rep.history[-1].gap == math.inf


def test_restarted_fgm_with_an_understated_l_ends_unconverged():
    # l_smooth declared 5 for a true 10: the blocks diverge, and the run
    # reports the p-th block's certificate, unconverged
    obj, x_star = quad_objective([1.0, 10.0], [0.7, 3.0])
    obj.l_smooth = 5.0
    with np.errstate(all="ignore"):
        rep = sk.run_restarted_fgm(obj, np.zeros(2), 1e-3, r0=1.5)
    assert not rep.converged
    assert rep.extras["restarts"] == rep.extras["scheduled_restarts"]
    assert rep.history[-1].gap == rep.certified_gap >= obj.gap_at(rep.x_final) > 1e3


class TestRestarts:
    def test_block_size(self):
        assert sk.restart_budget(2.0, 1.0) == 6

    def test_restart_count(self):
        assert sk.restart_count(1.0, 1.0, 0.01) == 7

    def test_final_gap_certified(self):
        obj, x_star = quad_objective([1.0, 9.0], [1.0, -2.0])
        x0 = np.zeros(2)
        r0 = float(np.linalg.norm(x0 - x_star)) * 1.05
        rep = sk.run_restarted_fgm(obj, x0, 1e-8, r0=r0)
        assert rep.converged
        assert obj.full_value(rep.x_final) - obj.f_star <= 1e-8

    def test_scaling_slope(self):
        # total smooth calls vs condition number: log-log slope 1/2
        kappas = [1e2, 1e3, 1e4, 1e5]
        calls = []
        for kappa in kappas:
            obj, x_star = quad_objective([1.0, kappa], [0.5, 0.5 * kappa])
            rep = sk.run_restarted_fgm(obj, np.zeros(2), 1e-6, r0=1.5)
            calls.append(rep.extras["smooth_calls"])
        slope = np.polyfit(np.log10(kappas), np.log10(calls), 1)[0]
        assert 0.4 <= slope <= 0.6


    def test_scheduled_run_certifies_at_the_scheduled_count(self):
        # with exact constants the squared distance bound shrinks by 4/9 per
        # block, so the p-th block's certificate passes at the latest; every
        # exit reports a certificate that holds at its witness
        rng = np.random.default_rng(11)
        exits = {"scheduled": 0, "check": 0}
        for _ in range(40):
            n = int(rng.integers(1, 6))
            diag = np.exp(rng.uniform(0.0, np.log(1e4), n))
            diag[0] = 1.0
            obj, x_star = quad_objective(diag, rng.standard_normal(n))
            x0 = rng.standard_normal(n)
            r0 = float(np.linalg.norm(x0 - x_star)) * rng.uniform(1.0, 5.0) + 1e-3
            eps = 10.0 ** rng.uniform(-10.0, 1.0)
            rep = sk.run_restarted_fgm(obj, x0, eps, r0=r0)
            p = sk.restart_count(obj.mu, r0 * r0, eps)
            assert rep.extras["scheduled_restarts"] == p
            assert rep.converged
            if rep.extras["restarts"] == p:
                exits["scheduled"] += 1
                assert rep.certified_gap <= 0.5 * eps
            else:
                exits["check"] += 1
            err = rep.x_final - x_star  # f - f* without the cancellation of a difference
            assert 0.5 * float(err @ (diag * err)) <= rep.certified_gap <= eps
            assert len(rep.history) == rep.extras["restarts"]
        assert min(exits.values()) > 0  # both exits occur among the draws

    def test_composite_run_certifies_at_its_witness(self):
        # f = 1/2 x'Dx - <b, x> + w/2 ||x - c||^2 with the quadratic term in the
        # prox: the certificate's witness is one prox-gradient step, its true gap
        # is 1/2 e'(D + w)e with e = x - x*, and smooth_calls counts every call
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            diag = np.exp(rng.uniform(0.0, np.log(1e4), n))
            b, c = rng.standard_normal(n), rng.standard_normal(n)
            w = 10.0 ** rng.uniform(-2.0, 1.0)
            x_star = (b + w * c) / (diag + w)
            calls = []

            def smooth_grad(x, diag=diag, b=b):
                calls.append(1)
                return diag * x - b

            obj = sk.CompositeObjective(
                smooth_grad=smooth_grad,
                l_smooth=float(diag.max()),
                mu=float(diag.min()) + w,
                prox_model=sk.fgm.quadratic_prox_model(w, c),
            )
            x0 = rng.standard_normal(n)
            r0 = float(np.linalg.norm(x0 - x_star)) * rng.uniform(1.0, 5.0) + 1e-3
            eps = 10.0 ** rng.uniform(-10.0, 1.0)
            rep = sk.run_restarted_fgm(obj, x0, eps, r0=r0)
            assert rep.converged and rep.certified_gap <= eps
            assert rep.extras["smooth_calls"] == len(calls)
            restarts, n_b, p = (rep.extras[k] for k in ("restarts", "block_size", "scheduled_restarts"))
            assert len(calls) == restarts * (n_b + 1)  # a certificate after every block
            err = rep.x_final - x_star
            # the closed form rounds four times, so within two ulps of it the
            # returned point is x* to working precision, and a certificate of
            # 0 there can sit below the closed form's own rounding (~1e-32)
            at_x_star = np.all(np.abs(err) <= 2.0 * np.spacing(np.abs(x_star)))
            assert 0.5 * float(err @ ((diag + w) * err)) <= rep.certified_gap or at_x_star


class TestSolveToGap:
    def test_certified(self):
        obj, x_star = quad_objective([1.0, 30.0], [2.0, 3.0])
        rep = sk.solve_to_gap(obj, np.zeros(2), 1e-9)
        assert rep.converged
        true_gap = obj.full_value(rep.x_final) - obj.f_star
        assert true_gap <= rep.certified_gap <= 1e-9

    def test_budget_exceeded_carries_best(self, monkeypatch):
        obj, _ = quad_objective([1.0, 5000.0], [1.0, 1.0])
        monkeypatch.setattr(sk.fgm, "MAX_BLOCKS", 1)
        with pytest.raises(sk.BudgetExceededError) as err:
            sk.solve_to_gap(obj, np.full(2, 10.0), 1e-14)
        assert err.value.best is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_certificate_fails_closed(self, bad):
        # `bound > target` is False for NaN: a plain comparison would stop as converged
        obj = sk.CompositeObjective(
            smooth_grad=lambda x: np.full_like(x, bad), l_smooth=1.0, mu=1.0
        )
        with pytest.raises(sk.BudgetExceededError) as err:
            sk.solve_to_gap(obj, np.zeros(2), 1e-6)
        assert np.array_equal(err.value.best, np.zeros(2))
        assert err.value.tally is not None

    def test_zero_modulus_raises_a_typed_error_before_any_call(self):
        calls = []
        obj = sk.CompositeObjective(
            smooth_grad=lambda x: calls.append(1) or x, l_smooth=1.0, mu=0.0
        )
        with pytest.raises(sk.InvalidSpecError):
            sk.solve_to_gap(obj, np.zeros(2), 1e-6)
        assert calls == []

    def test_composite_certificate_bounds_gap(self):
        # ball-constrained quadratic: certificate upper-bounds the true gap
        rng = np.random.default_rng(7)
        import scipy.optimize as opt

        for _ in range(5):
            diag = rng.uniform(0.5, 10.0, 3)
            b = rng.standard_normal(3)
            ball = sk.EuclideanBall(np.zeros(3), 0.5)
            obj, _ = quad_objective(diag, b, domain=ball)
            f = lambda x: 0.5 * x @ (diag * x) - b @ x
            ref = opt.minimize(
                f,
                np.zeros(3),
                constraints=[{"type": "ineq", "fun": lambda x: 0.25 - x @ x}],
                method="SLSQP",
                options={"ftol": 1e-14, "maxiter": 500},
            )
            x = ball.project(rng.standard_normal(3))
            bound, witness = certificate(obj, x)
            assert f(witness) - ref.fun <= bound + 1e-9


class TestProxModels:
    def test_quadratic_prox_against_reference(self):
        # model: min 1/2||v-u||^2 + alpha(<lin,v> + w/2||v-c||^2 + <t,v>)
        rng = np.random.default_rng(11)
        import scipy.optimize as opt

        for constrained in (False, True):
            for _ in range(5):
                n = 3
                u = rng.standard_normal(n)
                lin = rng.standard_normal(n)
                c = rng.standard_normal(n)
                t = rng.standard_normal(n)
                w, alpha = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
                dom = sk.EuclideanBall(np.zeros(n), 0.8) if constrained else None
                prox = quadratic_prox_model(w, center=c, lin_term=t)
                got = prox(u, alpha, lin)
                if dom is not None:  # the isotropic model's ball minimizer is a projection
                    got = dom.project(got)

                def model(v):
                    return (
                        0.5 * (v - u) @ (v - u)
                        + alpha * (lin @ v + 0.5 * w * (v - c) @ (v - c) + t @ v)
                    )

                cons = (
                    [{"type": "ineq", "fun": lambda v: 0.64 - v @ v}] if constrained else []
                )
                ref = opt.minimize(model, u, constraints=cons, method="SLSQP",
                                   options={"ftol": 1e-14, "maxiter": 500})
                assert model(got) <= ref.fun + 1e-9


def _reference_fgm(obj, x0, n):
    """``run_fgm`` written with the step formula (alpha u + A x) / A' spelled out."""
    x = np.array(x0, dtype=float)
    u = x.copy()
    big_a = 0.0
    rows = []
    for k in range(n):
        alpha = sk.next_alpha(big_a, obj.l_smooth)
        a_next = big_a + alpha
        y = (alpha * u + big_a * x) / a_next
        u = obj.prox_model(u, alpha, obj.smooth_grad(y))
        x = (alpha * u + big_a * x) / a_next
        big_a = a_next
        if obj.full_value is not None:
            rows.append((k + 1, obj.gap_at(x)))
    return x, big_a, rows


class TestRunFgmMatchesTheFormula:
    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("with_value", [False, True])
    def test_bytewise(self, composite, with_value):
        rng = np.random.default_rng(23)
        ball = sk.EuclideanBall(np.full(5, 0.1), 0.7)
        diag = rng.uniform(0.5, 40.0, 5)
        obj, _ = quad_objective(diag, rng.standard_normal(5), domain=ball if composite else None)
        if composite:
            model = quadratic_prox_model(0.3, center=np.ones(5))
            obj.prox_model = lambda u, alpha, lin: ball.project(model(u, alpha, lin))
        if not with_value:
            obj.full_value = None
        x0 = rng.standard_normal(5)
        rep = sk.run_fgm(obj, x0, 41)
        x, big_a, rows = _reference_fgm(obj, x0, 41)
        assert rep.x_final.tobytes() == x.tobytes()
        assert rep.extras["big_a"] == big_a
        assert [(row.iteration, row.gap) for row in rep.history] == rows
        assert len(rows) == (41 if with_value else 0)


class TestSolveToGapStart:
    def test_certified_start_runs_no_block(self, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a block ran")

        monkeypatch.setattr(sk.fgm, "run_fgm", no_block)
        for domain in (None, sk.EuclideanBall(np.zeros(2), 5.0)):
            obj, x_star = quad_objective([1.0, 4.0], [1.0, 4.0], domain=domain)
            rep = sk.solve_to_gap(obj, x_star, 1e-9)
            assert rep.converged and rep.extras["blocks"] == 0

    def test_plain_smooth_follows_the_model_step(self):
        # f(x) = 1/2 ||x||^2 + 3/2 ||x - c||^2: a gradient-norm certificate read
        # from the smooth part alone certified x = 0, gap 5.625, as optimal
        c = np.array([1.0, -2.0])
        model = quadratic_prox_model(3.0, center=c)
        composite = sk.CompositeObjective(smooth_grad=lambda x: x, l_smooth=1.0, mu=4.0, prox_model=model)
        swapped = sk.CompositeObjective(smooth_grad=lambda x: x, l_smooth=1.0, mu=4.0)
        assert swapped.plain_smooth
        swapped.prox_model = model
        for obj in (composite, swapped):
            assert not obj.plain_smooth
            rep = sk.solve_to_gap(obj, np.zeros(2), 1e-9)
            x = rep.x_final
            gap = 0.5 * float(x @ x) + 1.5 * float((x - c) @ (x - c)) - 1.875
            assert rep.converged and gap <= rep.certified_gap <= 1e-9
        with pytest.raises(AttributeError):
            swapped.plain_smooth = True
        with pytest.raises(TypeError):
            sk.CompositeObjective(smooth_grad=lambda x: x, l_smooth=1.0, plain_smooth=True)

    def test_plain_smooth_result_does_not_alias_the_start(self):
        obj, x_star = quad_objective([1.0, 4.0], [1.0, 4.0])
        x0 = x_star.copy()
        rep = sk.solve_to_gap(obj, x0, 1e-9)
        assert rep.extras["blocks"] == 0
        assert rep.x_final is not x0
        x0[:] = 7.0
        assert rep.x_final.tobytes() == x_star.tobytes()

    def test_nan_target_raises_before_any_call(self):
        # `target <= 0` is False for NaN: the check must not let it run the blocks
        calls = []
        obj = sk.CompositeObjective(
            smooth_grad=lambda x: calls.append(1) or x, l_smooth=1.0, mu=1.0
        )
        with pytest.raises(sk.InvalidSpecError):
            sk.solve_to_gap(obj, np.ones(3), math.nan)
        assert calls == []

    def test_infinite_target_raises_before_any_call(self):
        # with an infinite target an overflowing start would "converge" with an
        # infinite certificate; the target is refused before the first gradient
        calls = []

        def overflowing(x):
            calls.append(1)
            return np.full_like(x, math.inf)

        obj = sk.CompositeObjective(smooth_grad=overflowing, l_smooth=1.0, mu=1.0)
        with pytest.raises(sk.InvalidSpecError, match="finite and positive"):
            sk.solve_to_gap(obj, np.ones(2), math.inf)
        assert calls == []


def _identity_operator(l=1.0, mu=1.0):
    return sk.ViOperator(bind=lambda z, out: lambda: z, l=l, mu=mu)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: sk.restart_count(1.0, 1.0, math.nan), "epsilon"),
        (lambda: sk.restart_count(math.nan, 1.0, 1.0), "mu"),
        (
            lambda: sk.run_restarted_fgm(
                quad_objective([1.0, 2.0])[0], np.zeros(2), math.nan, 1.0
            ),
            "epsilon",
        ),
        (
            lambda: sk.run_restarted_fgm(
                quad_objective([1.0, 2.0])[0], np.zeros(2), 1e-6, math.nan
            ),
            "r0",
        ),
        (
            lambda: sk.EnvelopeGradOracle(Metered(sk.gen_bilinear(3, 3, 2.0, seed=1).problem())).solve(
                np.ones(3), math.nan
            ),
            "delta",
        ),
        (lambda: sk.run_restarted_mp(_identity_operator(), np.ones(2), math.nan, r0=1.0), "epsilon"),
        (lambda: sk.restart_count(1.0, math.inf, 1e-6), "r0"),
        (
            lambda: sk.run_restarted_fgm(
                quad_objective([1.0, 2.0])[0], np.zeros(2), 1e-6, math.inf
            ),
            "r0",
        ),
        (lambda: sk.run_restarted_mp(_identity_operator(), np.ones(2), 1e-6, r0=math.inf), "r0"),
        (lambda: sk.run_restarted_mp(_identity_operator(), np.ones(2), 1e-6, r0=math.nan), "r0"),
        (lambda: sk.restart_count(math.inf, 1.0, 1e-6), "mu"),
        (lambda: sk.restart_count(1.0, 1.0, math.inf), "epsilon"),
        (lambda: sk.restart_count(1.0, 1e300, 1e-300), "epsilon"),
        (
            lambda: sk.run_restarted_fgm(
                quad_objective([1.0, 2.0])[0], np.zeros(2), math.inf, 1.0
            ),
            "epsilon",
        ),
        (lambda: sk.run_restarted_mp(_identity_operator(), np.ones(2), math.inf, r0=1.0), "epsilon"),
        (
            lambda: sk.run_restarted_mp(_identity_operator(mu=1e-320), np.ones(2), 1e-6, r0=1.0),
            "mu",
        ),
    ],
    ids=[
        "count-eps", "count-mu", "restarted-eps", "restarted-r0", "inner-delta", "mp-eps",
        "count-r0-inf", "restarted-r0-inf", "mp-r0-inf", "mp-r0-nan", "count-mu-inf",
        "count-eps-inf", "count-ratio-inf", "restarted-eps-inf", "mp-eps-inf", "mp-ratio-inf",
    ],
)
def test_nan_accuracies_are_rejected(call, name):
    # each raises a typed error naming the bad value, before any oracle call
    with pytest.raises(sk.InvalidSpecError, match=name):
        call()


def _nan_objective(l_smooth=1.0, mu=1.0):
    return sk.CompositeObjective(smooth_grad=lambda x: x, l_smooth=l_smooth, mu=mu)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _nan_objective(l_smooth=math.nan),
        lambda: sk.run_restarted_fgm(_nan_objective(mu=math.nan), np.ones(2), 1e-6, 1.0),
        lambda: sk.restart_budget(math.nan, 1.0),
        lambda: sk.restart_budget(1.0, math.nan),
        lambda: sk.next_alpha(0.0, math.nan),
        lambda: _identity_operator(l=math.nan),
        lambda: _identity_operator(mu=math.nan),
        lambda: sk.EnvelopeGradOracle(sk.gen_bilinear(3, 3, 2.0, seed=1).problem()).grad_and_witness(
            np.ones(3), math.nan
        ),
        lambda: _nan_objective(l_smooth=math.inf),
        lambda: sk.run_restarted_fgm(_nan_objective(mu=math.inf), np.ones(2), 1e-6, 1.0),
        lambda: sk.restart_budget(math.inf, 1.0),
        lambda: sk.restart_budget(1.0, 1e-320),
        lambda: sk.next_alpha(0.0, math.inf),
        lambda: _identity_operator(l=math.inf),
        lambda: _identity_operator(mu=math.inf),
    ],
    ids=[
        "objective-l", "restarted-mu", "budget-l", "budget-mu", "alpha-l", "operator-l",
        "operator-mu", "envelope-delta", "objective-l-inf", "restarted-mu-inf", "budget-l-inf",
        "budget-ratio-inf", "alpha-l-inf", "operator-l-inf", "operator-mu-inf",
    ],
)
def test_nan_declared_constants_are_rejected(call):
    # `x <= 0` is False for NaN and an infinite constant passes it: each guard
    # must reject both with a typed error, not let them through to a bare
    # ValueError or OverflowError from int(ceil(...)) later, or to a NaN step
    with pytest.raises(sk.InvalidSpecError):
        call()
