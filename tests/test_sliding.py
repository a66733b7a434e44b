import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.core import OracleKind, OracleTally, counted
from saddlekit.fgm import quadratic_prox_model
from saddlekit.sliding import normalize_split


def two_term_quadratic(rdiag, gdiag, b, tally=None):
    """P(x) = 1/2 x'Rx + 1/2 x'Gx - <b,x> split into the two diagonal parts."""
    rdiag = np.asarray(rdiag, dtype=float)
    gdiag = np.asarray(gdiag, dtype=float)
    b = np.asarray(b, dtype=float)
    x_star = np.linalg.solve(np.diag(rdiag + gdiag), b)
    f_star = 0.5 * float(x_star @ ((rdiag + gdiag) * x_star)) - float(b @ x_star)
    t = tally if tally is not None else OracleTally()
    obj = sk.TwoTermObjective(
        value_r=lambda x: 0.5 * float(x @ (rdiag * x)),
        grad_r=counted(lambda x: rdiag * x, t, OracleKind.GRAD_R),
        value_g=lambda x: 0.5 * float(x @ (gdiag * x)) - float(b @ x),
        grad_g=counted(lambda x: gdiag * x - b, t, OracleKind.GRAD_X_F),
        prox_g=lambda w, scale: (b + scale * w) / (gdiag + scale),
        x_star=x_star,
        f_star=f_star,
    )
    return obj, t


class TestAlg5Params:
    def test_worked_example(self):
        spec = sk.SlidingSpec(l_r=1.0, l_g=1.0, mu_r=0.0, mu_g=1.0)
        p = sk.alg5_params(spec, epsilon=0.16, gap0=1.0)
        assert p.c1 == pytest.approx(8.0)
        assert p.alpha == pytest.approx(0.25 * math.sqrt(0.5))
        assert p.eta == pytest.approx(1.09540, abs=1e-5)
        assert p.beta == pytest.approx(0.72615, abs=1e-5)
        assert p.delta_rel_inner == pytest.approx(1.0 / 256)

    def test_boundary_modulus(self):
        # mu -> l_r + mu_g: alpha hits its cap 1/4 and beta stays in range
        spec = sk.SlidingSpec(l_r=1.0, l_g=1.0, mu_r=0.0, mu_g=1.0)
        spec.mu_g = 1.0
        spec.l_r = 0.0 + 1.0  # mu = 1, l_r + mu_g = 2 -> alpha < 1/4
        p = sk.alg5_params(spec, 1e-3)
        assert p.alpha <= 0.25
        spec2 = sk.SlidingSpec(l_r=1.0, l_g=2.0, mu_r=1.0, mu_g=1.0)  # mu = l_r + mu_g
        p2 = sk.alg5_params(spec2, 1e-3)
        assert p2.alpha == pytest.approx(0.25)
        assert 0.5 <= p2.beta <= 1 - p2.alpha

    def test_range_checks_over_random_specs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            l_pair = sorted(rng.uniform(0.1, 10, 2).tolist())
            l_r, l_g = l_pair
            mu_r = rng.uniform(0, l_r)
            mu_g = rng.uniform(0, l_g)
            if mu_r + mu_g <= 0:
                continue
            spec = sk.SlidingSpec(l_r=l_r, l_g=l_g, mu_r=mu_r, mu_g=mu_g)
            p = sk.alg5_params(spec, 10 ** rng.uniform(-8, -2))
            assert 0 < p.alpha <= 0.25
            assert 0.5 <= p.beta <= 1 - p.alpha


class TestNormalization:
    @pytest.mark.parametrize(
        "rdiag, gdiag, l_r, l_g, mu_r, mu_g",
        [
            ([1.0, 1.0], [5.0, 5.0], 1.0, 5.0, 0.0, 1.0),  # only g curved: left alone
            ([1.0, 1.0], [4.0, 4.0], 1.0, 4.0, 1.0, 0.0),  # shifted only
            ([1.0, 0.5], [4.0, 2.0], 1.0, 4.0, 0.5, 2.0),  # left alone
        ],
    )
    def test_idempotent(self, rdiag, gdiag, l_r, l_g, mu_r, mu_g):
        # a split that is already normalized comes back unchanged
        obj, _ = two_term_quadratic(rdiag, gdiag, [1.0, -1.0])
        spec = sk.SlidingSpec(l_r=l_r, l_g=l_g, mu_r=mu_r, mu_g=mu_g)
        obj_n, spec_n = normalize_split(obj, spec)
        obj_2, spec_2 = normalize_split(obj_n, spec_n)
        assert obj_2 is obj_n
        assert spec_2 is spec_n

    def test_shift_when_only_r_strongly_convex(self):
        obj, _ = two_term_quadratic([1.0, 1.0], [4.0, 4.0], [1.0, 1.0])
        spec = sk.SlidingSpec(l_r=1.0, l_g=4.0, mu_r=1.0, mu_g=0.0)
        obj_n, spec_n = normalize_split(obj, spec)
        assert spec_n.mu_g == pytest.approx(0.5)
        assert spec_n.mu_r == pytest.approx(0.5)
        assert spec_n.l_g == pytest.approx(4.5)
        # shifted oracles still sum to the same objective
        x = np.array([0.7, -0.2])
        assert obj_n.value_r(x) + obj_n.value_g(x) == pytest.approx(
            obj.value_r(x) + obj.value_g(x)
        )
        assert np.allclose(obj_n.grad_r(x) + obj_n.grad_g(x), obj.grad_r(x) + obj.grad_g(x))
        # shifted exact prox still solves its subproblem
        w, scale = np.array([0.4, 0.9]), 2.0
        v = obj_n.prox_g(w, scale)
        grad = obj_n.grad_g(v) + scale * (v - w)
        assert np.allclose(grad, 0.0, atol=1e-10)


class TestCompositeGm:
    def make_objective(self, tally):
        rdiag = np.array([1.0, 0.6])
        gdiag = np.array([3.0, 8.0])
        b = np.array([1.0, -0.5])
        x_star = b / (rdiag + gdiag)
        f_star = 0.5 * float(x_star @ ((rdiag + gdiag) * x_star)) - float(b @ x_star)
        obj = sk.CompositeObjective(
            smooth_grad=counted(lambda x: rdiag * x, tally, OracleKind.GRAD_R),
            l_smooth=1.0,
            mu=float((rdiag + gdiag).min()),
            prox_model=quadratic_prox_model(0.0),  # replaced below
            full_value=lambda x: 0.5 * float(x @ ((rdiag + gdiag) * x)) - float(b @ x),
            f_star=f_star,
        )

        def prox_model(u, alpha, lin):
            # min 1/2||v-u||^2 + alpha(<lin,v> + g(v)); g quadratic diagonal
            return (u - alpha * (lin - b)) / (1.0 + alpha * gdiag)

        obj.prox_model = prox_model
        return obj, x_star

    def test_average_gap_monotone(self):
        tally = OracleTally()
        obj, _ = self.make_objective(tally)
        rep = sk.composite_gm_solve(obj, np.array([2.0, -3.0]), 50, tally=tally)
        gaps = [row.gap for row in rep.history]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_fixed_point(self):
        tally = OracleTally()
        obj, x_star = self.make_objective(tally)
        rep = sk.composite_gm_solve(obj, x_star, 5, tally=tally)
        assert np.allclose(rep.x_final, x_star, atol=1e-12)

    def test_exactly_one_smooth_call_per_iteration(self):
        tally = OracleTally()
        obj, _ = self.make_objective(tally)
        sk.composite_gm_solve(obj, np.zeros(2), 1, tally=tally)
        assert tally.count(OracleKind.GRAD_R) == 1
        tally2 = OracleTally()
        obj2, _ = self.make_objective(tally2)
        sk.composite_gm_solve(obj2, np.zeros(2), 37, tally=tally2)
        assert tally2.count(OracleKind.GRAD_R) == 37

    def test_history_rows_only_with_a_value_oracle(self):
        # one row per step with a value oracle, as run_fgm logs; none without
        obj, _ = self.make_objective(OracleTally())
        assert len(sk.composite_gm_solve(obj, np.zeros(2), 5).history) == 5
        obj.full_value = None
        assert sk.composite_gm_solve(obj, np.zeros(2), 5).history == []

    def test_no_step_returns_the_start(self):
        # with no step the average is the start itself, as run_fgm returns it
        tally = OracleTally()
        obj, _ = self.make_objective(tally)
        x0 = np.array([3.0, -1.0])
        rep = sk.composite_gm_solve(obj, x0, 0, tally=tally)
        assert rep.x_final.tobytes() == x0.tobytes() and rep.x_final is not x0
        assert rep.extras["iterations"] == 0 and tally.snapshot() == {}


class TestApg:
    def test_counts_exact(self):
        tally = OracleTally()
        obj, _ = two_term_quadratic([1.0, 0.8], np.linspace(1, 60, 2), [1.0, 2.0], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=60.0, mu_r=0.8, mu_g=1.0)
        rep = sk.apg_inexact_solve(spec, obj, np.zeros(2), 1e-6, gap0=5.0, tally=tally)
        p = rep.extras["params"]
        assert tally.count(OracleKind.GRAD_R) == p.k_outer
        assert tally.count(OracleKind.GRAD_X_F) == p.k_outer * p.t_inner

    def test_fixed_point(self):
        tally = OracleTally()
        obj, t = two_term_quadratic([1.0, 1.0], [2.0, 3.0], [1.0, 1.0], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=3.0, mu_r=1.0, mu_g=2.0)
        rep = sk.apg_inexact_solve(spec, obj, obj.x_star, 1e-8, gap0=1.0,
                                   exact_inner=True, tally=tally)
        assert np.allclose(rep.x_final, obj.x_star, atol=1e-10)

    def test_lyapunov_contraction_exact_inner(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(2, 8))
            rdiag = rng.uniform(0.5, 1.5, n)
            gdiag = rng.uniform(1.0, 40.0, n)
            b = rng.standard_normal(n)
            tally = OracleTally()
            obj, _ = two_term_quadratic(rdiag, gdiag, b, tally)
            spec = sk.SlidingSpec(
                l_r=float(rdiag.max()),
                l_g=float(gdiag.max()),
                mu_r=float(rdiag.min()),
                mu_g=float(gdiag.min()),
            )
            rep = sk.apg_inexact_solve(spec, obj, np.zeros(n), 1e-10, gap0=10.0,
                                       exact_inner=True, tally=tally)
            alpha = rep.extras["params"].alpha
            ly = rep.extras["lyapunov"]
            for prev, cur in zip(ly, ly[1:]):
                if prev <= 1e-13:
                    break  # floating-point floor of the logged quantity
                assert cur <= prev * (1 - alpha) * (1 + 1e-6) + 1e-15

    def test_g_call_scaling_in_modulus(self):
        # scheduled g-gradient calls grow like 1 / sqrt(mu) at fixed constants;
        # the counts equal the schedule exactly, so the product is the law
        mus = [1e-1, 1e-2, 1e-3]
        products = []
        for mu in mus:
            spec = sk.SlidingSpec(l_r=1.0, l_g=50.0, mu_r=mu, mu_g=0.0)
            p = sk.alg5_params(spec, 1e-6, gap0=1.0)
            products.append(p.k_outer * p.t_inner)
        slope = np.polyfit(np.log10([1.0 / m for m in mus]), np.log10(products), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_certified_target_reached(self):
        tally = OracleTally()
        obj, _ = two_term_quadratic([1.0], [2.0], [1.5], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=2.0, mu_r=1.0, mu_g=2.0)
        rep = sk.sliding_solve(spec, obj, np.zeros(1), 1e-10, gap0=2.0, tally=tally)
        assert obj.value(rep.x_final) - obj.f_star <= 1e-10

    @pytest.mark.parametrize("solve", ["apg", "sliding"])
    def test_non_finite_iterate_fails_closed(self, solve):
        # l_g declared 2, true 1e6: the scheduled loop blows up to NaN
        tally = OracleTally()
        obj, _ = two_term_quadratic([1.0, 1.0], [1e6, 1.0], [1.0, -1.0], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=2.0, mu_r=1.0, mu_g=1.0)
        with np.errstate(all="ignore"):
            if solve == "apg":
                rep = sk.apg_inexact_solve(spec, obj, np.zeros(2), 1e-6, tally=tally)
            else:
                rep = sk.sliding_solve(spec, obj, np.zeros(2), 1e-6, tally=tally)
        assert not np.isfinite(rep.x_final).all()
        assert not rep.converged
        assert rep.certified_gap == math.inf
        # failing closed spends no oracle call beyond the schedule
        p = rep.extras["params"]
        assert tally.count(OracleKind.GRAD_R) == p.k_outer
        assert tally.count(OracleKind.GRAD_X_F) == p.k_outer * p.t_inner


class TestCatalyst:
    def test_converges_with_certificate(self):
        tally = OracleTally()
        obj, _ = two_term_quadratic([1.0, 0.7], np.linspace(0.5, 30, 2), [1.0, -2.0], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)
        rep = sk.catalyst_solve(obj, np.zeros(2), 1e-8, spec=spec, tally=tally)
        assert rep.converged
        assert obj.value(rep.x_final) - obj.f_star <= 1e-8

    def test_start_at_minimizer(self):
        tally = OracleTally()
        obj, _ = two_term_quadratic([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=1.0, mu_r=1.0, mu_g=1.0)
        rep = sk.catalyst_solve(obj, obj.x_star, 1e-6, spec=spec, tally=tally)
        assert rep.converged
        assert rep.extras["outer_iterations"] == 0

    def test_history_logs_the_certificate(self):
        # the rows log the certificate the loop stops on, not the true gap,
        # also when f_star is known
        obj, tally = two_term_quadratic([1.0, 0.7], [0.5, 30.0], [1.0, -2.0])
        spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)
        rep = sk.catalyst_solve(obj, np.zeros(2), 1e-8, spec=spec, tally=tally)
        assert obj.f_star is not None and rep.converged
        assert rep.history[-1].gap == rep.certified_gap > obj.gap_at(rep.x_final)

    def test_cap_exit_certifies_the_returned_point(self, monkeypatch):
        # subproblems that make no progress run the outer loop to its cap; the
        # reported certificate is still the one of the point returned
        obj, tally = two_term_quadratic([1.0, 0.7], [0.5, 30.0], [1.0, -2.0])
        spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)

        def stalled(inner, x0, target_gap, tally=None):
            return types.SimpleNamespace(x_final=np.array(x0))

        monkeypatch.setattr(sk.fgm, "solve_to_gap", stalled)
        x0 = np.array([0.3, -0.2])
        rep = sk.catalyst_solve(obj, x0, 1e-8, spec=spec, tally=tally)
        assert not rep.converged and rep.extras["outer_iterations"] > 0
        assert rep.history[-1].iteration == rep.extras["outer_iterations"]
        grad_p = obj.grad_r(rep.x_final) + obj.grad_g(rep.x_final)
        assert rep.certified_gap == rep.history[-1].gap
        assert rep.certified_gap == pytest.approx(float(grad_p @ grad_p) / (2.0 * spec.mu))

    def test_non_finite_certificate_ends_the_run(self, monkeypatch):
        # a subproblem that lands where grad g overflows: the run stops on the
        # infinite certificate and reports it
        obj, tally = two_term_quadratic([1.0, 0.7], [0.5, 30.0], [1.0, -2.0])
        spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)

        def overflowing(inner, x0, target_gap, tally=None):
            return types.SimpleNamespace(x_final=np.full_like(x0, 1e308))

        monkeypatch.setattr(sk.fgm, "solve_to_gap", overflowing)
        with np.errstate(over="ignore"):
            rep = sk.catalyst_solve(obj, np.zeros(2), 1e-8, spec=spec, tally=tally)
        assert [math.isfinite(row.gap) for row in rep.history] == [True, False]
        assert rep.certified_gap == math.inf and not rep.converged
        assert rep.extras["outer_iterations"] == 1

    def test_diverged_step_keeps_a_finite_subproblem_target(self, monkeypatch):
        # a step so far off that the regularization term overflows must not
        # hand the next model step's certified solve an infinite target
        obj, tally = two_term_quadratic([1.0, 0.7], [0.5, 30.0], [1.0, -2.0])
        spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)
        targets = []

        def one_far_step(inner, x0, target_gap, tally=None):
            # the first model step diverges, the later ones land back at 0
            targets.append(target_gap)
            far = len(targets) == 1
            return types.SimpleNamespace(x_final=np.full_like(x0, 1e200 if far else 0.0))

        monkeypatch.setattr(sk.fgm, "solve_to_gap", one_far_step)
        with np.errstate(over="ignore"):
            sk.catalyst_solve(obj, np.zeros(2), 1e-8, spec=spec, tally=tally)
        assert len(targets) >= 2 and all(math.isfinite(t) for t in targets)

    def test_subproblem_stops_at_the_step_cap(self, monkeypatch):
        # model steps that keep jumping by 1 never pass the step-length bound:
        # each subproblem stops after n_cap = max(4, ceil(4 l_r / (mu + l_r)) + 8)
        # composite steps, one grad_r each, between two certificates (grad_r
        # then grad_g)
        obj, _ = two_term_quadratic([1.0, 0.7], [0.5, 30.0], [1.0, -2.0])
        spec = sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)
        calls = []
        grad_r, grad_g = obj.grad_r, obj.grad_g
        obj = dataclasses.replace(
            obj,
            grad_r=lambda x: calls.append("r") or grad_r(x),
            grad_g=lambda x: calls.append("g") or grad_g(x),
        )
        jumps = itertools.cycle([1.0, -1.0])

        def jumping(inner, x0, target_gap, tally=None):
            return types.SimpleNamespace(x_final=x0 + next(jumps))

        monkeypatch.setattr(sk.fgm, "solve_to_gap", jumping)
        rep = sk.catalyst_solve(obj, np.zeros(2), 1e-8, spec=spec)
        n_cap = max(4, math.ceil(4.0 * spec.l_r / (spec.mu + spec.l_r)) + 8)
        outer = rep.extras["outer_iterations"]
        assert n_cap == 10 and outer > 0 and not rep.converged
        assert "".join(calls) == "rg" + ("r" * n_cap + "rg") * outer

    def test_well_conditioned_few_outer_steps(self):
        # mu = l_r = l_g with a modest starting offset: three proximal steps
        # with momentum reach 1e-6
        tally = OracleTally()
        obj, _ = two_term_quadratic([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=1.0, mu_r=1.0, mu_g=1.0)
        x0 = obj.x_star + np.array([0.01, -0.01])
        rep = sk.catalyst_solve(obj, x0, 1e-6, spec=spec, tally=tally)
        assert rep.converged
        assert rep.extras["outer_iterations"] <= 3

    def test_gradient_split_scaling(self):
        # reg weight at l_r: g-gradient calls stay within a small factor of
        # sqrt(l_g / mu) * polylog while r-gradient calls track sqrt(l_r / mu)
        tally = OracleTally()
        rdiag = np.linspace(0.01, 1.0, 4)
        gdiag = np.linspace(0.0, 100.0, 4)
        b = np.array([1.0, -1.0, 0.5, 0.25])
        obj, _ = two_term_quadratic(rdiag, gdiag, b, tally)
        spec = sk.SlidingSpec(l_r=1.0, l_g=100.0, mu_r=0.01, mu_g=0.0)
        rep = sk.catalyst_solve(obj, np.zeros(4), 1e-6, spec=spec, tally=tally)
        assert rep.converged
        n_r = tally.count(OracleKind.GRAD_R)
        n_g = tally.count(OracleKind.GRAD_X_F)
        assert n_g <= 10 * math.sqrt(100.0 / 0.01) * math.log(1e6) ** 2
        assert n_r < n_g


def _sliding_case():
    spec = sk.SlidingSpec(l_r=1.0, l_g=10.0, mu_r=0.5, mu_g=0.5)
    obj, tally = two_term_quadratic([1.0, 0.5], [10.0, 0.5], [1.0, -1.0])
    return spec, obj, tally


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, obj: dataclasses.replace(spec, l_r=math.nan).validate(),
        lambda spec, obj: dataclasses.replace(spec, l_g=math.nan).validate(),
        lambda spec, obj: dataclasses.replace(spec, mu_r=math.nan).validate(),
        lambda spec, obj: dataclasses.replace(spec, mu_g=math.nan).validate(),
        lambda spec, obj: sk.alg5_params(spec, math.nan),
        lambda spec, obj: sk.alg5_params(spec, 1e-6, gap0=math.nan),
        lambda spec, obj: sk.catalyst_solve(obj, np.zeros(2), math.nan, spec),
        lambda spec, obj: sk.sliding_solve(spec, obj, np.zeros(2), math.inf, engine="catalyst"),
        lambda spec, obj: sk.sliding_solve(spec, obj, np.zeros(2), math.inf, engine="apg"),
    ],
    ids=[
        "spec-l_r", "spec-l_g", "spec-mu_r", "spec-mu_g", "alg5-eps", "alg5-gap0",
        "catalyst-eps", "solve-inf-catalyst", "solve-inf-apg",
    ],
)
def test_non_finite_constants_and_targets_are_rejected(call):
    # `x <= 0` is False for NaN and an infinite target is met at once: each
    # must raise a typed error before any oracle call, not run or converge
    spec, obj, tally = _sliding_case()
    with pytest.raises(sk.InvalidSpecError):
        call(spec, obj)
    assert tally.snapshot() == {}


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, obj, tally: spec.validate(),
        lambda spec, obj, tally: sk.apg_inexact_solve(
            spec, obj, np.zeros(2), 1e-6, exact_inner=True, tally=tally
        ),
        lambda spec, obj, tally: sk.catalyst_solve(obj, np.zeros(2), 1e-8, spec, tally=tally),
        lambda spec, obj, tally: sk.sliding_solve(spec, obj, np.zeros(2), 1e-8, tally=tally),
        lambda spec, obj, tally: sk.sliding_solve(
            spec, obj, np.zeros(2), 1e-8, engine="catalyst", tally=tally
        ),
    ],
    ids=["validate", "apg", "catalyst", "sliding-apg", "sliding-catalyst"],
)
def test_a_heavier_r_is_refused_before_any_call(call):
    # r must be the cheaper term: l_r = 40 > l_g = 2 names the rule, and no
    # oracle is called
    obj, tally = two_term_quadratic([40.0, 3.0], [2.0, 0.5], [1.0, -2.0])
    spec = sk.SlidingSpec(l_r=40.0, l_g=2.0, mu_r=3.0, mu_g=0.5)
    with pytest.raises(sk.InvalidSpecError, match="l_r <= l_g"):
        call(spec, obj, tally)
    assert tally.snapshot() == {}
