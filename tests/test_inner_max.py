import math

import numpy as np
import pytest

import saddlekit as sk
from saddlekit import properties
from saddlekit.core import Metered, OracleTally


def zero_coupling_problem(dim=2, mu_y=1.0):
    """F identically zero, h = mu_y/2 ||y||^2: the inner maximizer is 0."""
    inst = sk.bilinear_instance(np.zeros((dim, dim)), np.zeros(dim), 1.0, mu_y)
    return inst.problem()


def solve_inner(problem, x, delta):
    return sk.EnvelopeGradOracle(Metered(problem)).solve(x, delta)


class TestSolveInnerMax:
    def test_b1_maximizer(self, b1_problem):
        w = solve_inner(b1_problem, np.array([1.0, 1.0]), 1e-12)
        assert np.allclose(w, [1.0, 2.0], atol=1e-5)

    def test_zero_coupling(self):
        p = zero_coupling_problem()
        w = solve_inner(p, np.array([3.0, -1.0]), 1e-10)
        assert np.allclose(w, 0.0, atol=1e-8)

    def test_certified_gap(self, b1, b1_problem):
        x = np.array([1.0, 1.0])
        delta = 0.005
        w = solve_inner(b1_problem, x, delta)
        g_x = b1.g_value(x)
        assert g_x == pytest.approx(2.5)
        achieved = b1_problem.value_F(x, w) - b1_problem.value_h(w)
        assert g_x - achieved <= delta + 1e-12

    def test_quadratic_family_certified(self):
        inst = sk.gen_quadratic_saddle(4, 5, 20.0, seed=2)
        p = inst.problem()
        rng = np.random.default_rng(0)
        for delta in (1e-2, 1e-5, 1e-8):
            x = rng.standard_normal(4)
            w = solve_inner(p, x, delta)
            y_star = inst.y_star_of(x)
            exact = p.value_F(x, y_star) - p.value_h(y_star)
            achieved = p.value_F(x, w) - p.value_h(w)
            assert exact - achieved <= delta * (1 + 1e-9)

    def test_budget_exceeded(self, monkeypatch):
        inst = sk.gen_quadratic_saddle(4, 5, 20.0, seed=2)
        p = inst.problem()
        monkeypatch.setattr(sk.fgm, "MAX_BLOCKS", 0)
        with pytest.raises(sk.BudgetExceededError) as err:
            solve_inner(p, np.full(4, 50.0), 1e-14)
        assert err.value.best is not None


class TestInexactGrad:
    def test_forced_witness_bundle(self, b1_problem):
        x = np.array([1.0, 1.0])
        ig = sk.inexact_grad_from_witness(b1_problem, x, np.array([1.0, 1.9]), 0.005)
        assert np.allclose(ig.grad, [1.0, 3.8])
        err = np.linalg.norm(ig.grad - np.array([1.0, 4.0]))
        bound = b1_problem.spec.l_xy * math.sqrt(2 * 0.005 / b1_problem.spec.mu_y)
        assert err == pytest.approx(0.2)
        assert bound == pytest.approx(0.2)
        assert ig.delta == pytest.approx(0.01)
        assert ig.l_env == pytest.approx(8.0)  # 2 (l_xx + l_xy^2 / mu_y), l_xy = 2

    def test_small_delta_recovers_gradient(self, b1_problem):
        ig = sk.inexact_grad_g(b1_problem, np.array([1.0, 1.0]), 1e-12)
        assert np.allclose(ig.grad, [1.0, 4.0], atol=1e-5)

    def test_zero_coupling_gradient(self):
        p = zero_coupling_problem()
        for x in (np.zeros(2), np.array([4.0, -2.0])):
            ig = sk.inexact_grad_g(p, x, 1e-3)
            assert np.allclose(ig.grad, 0.0)

    def test_gradient_error_bound_sampled(self):
        rng = np.random.default_rng(4)
        instances = [sk.gen_bilinear(4, 3, 30.0, 0), sk.gen_quadratic_saddle(3, 4, 10.0, 1)]
        for i in range(60):
            inst = instances[i % 2]
            p = inst.problem()
            x = rng.standard_normal(inst.dims[0])
            delta = 10.0 ** rng.uniform(-8, -2)
            ig = sk.inexact_grad_g(p, x, delta)
            err = np.linalg.norm(ig.grad - inst.g_grad(x))
            assert err <= p.spec.l_xy * math.sqrt(2 * delta / p.spec.mu_y) + 1e-8

    def test_finite_difference_match(self, b1):
        # central differences of the exact partial max against the bundle
        p = b1.problem()
        x = np.array([0.4, -0.3])
        delta = 1e-10
        ig = sk.inexact_grad_g(p, x, delta)
        step = 1e-5
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd[i] = (b1.g_value(x + e) - b1.g_value(x - e)) / (2 * step)
        assert np.allclose(ig.grad, fd, atol=1e-7 + math.sqrt(delta))


class TestEnvelopeCheck:
    def test_exact_witness_probe(self, b1, b1_problem):
        x = np.array([1.0, 1.0])
        ig = sk.inexact_grad_g(b1_problem, x, 1e-9)
        assert sk.envelope_check(b1.g_value, ig, x, np.zeros(2), lower_slack=1e-10)

    def test_probe_at_base_point(self, b1, b1_problem):
        x = np.array([1.0, 1.0])
        ig = sk.inexact_grad_from_witness(b1_problem, x, np.array([1.0, 1.9]), 0.005)
        # z = x reduces to 0 <= g(x) - value <= delta
        assert sk.envelope_check(b1.g_value, ig, x, x)

    def test_corrupted_gradient_detected(self, b1, b1_problem):
        x = np.array([1.0, 1.0])
        ig = sk.inexact_grad_g(b1_problem, x, 1e-12)
        ig.delta = 0.0
        ig.grad = ig.grad + np.array([1.0, 0.0])
        # brute-force probe grid finds a violation
        grid = [np.array([a, c]) for a in np.linspace(-2, 3, 11) for c in np.linspace(-2, 3, 11)]
        assert any(not sk.envelope_check(b1.g_value, ig, x, z) for z in grid)

    def test_argmax_lipschitz_property(self):
        rng = np.random.default_rng(9)
        inst = sk.gen_bilinear(5, 4, 40.0, seed=3, mu_y=0.7)
        spec = inst.problem().spec
        for _ in range(300):
            x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
            dx = np.linalg.norm(x1 - x2)
            dy = np.linalg.norm(inst.y_star_of(x1) - inst.y_star_of(x2))
            assert dy <= (2 * spec.l_xy / spec.mu_y) * dx + 1e-7

    def test_envelope_constant_is_tight(self):
        # the equality case of the (2 delta, 2 L_g) envelope: h = mu_y/2 ||y||^2,
        # the witness y* - sqrt(2 delta / mu_y) A d / ||A d|| and d along A's top
        # right singular vector with ||d|| = sqrt(2 delta / L_g) meet the upper
        # side exactly, so any smaller envelope constant fails there
        inst = sk.gen_bilinear(6, 5, 10.0, seed=0, mu_y=0.5)
        problem = inst.problem()
        spec = problem.spec
        l_g = sk.effective_smoothness(spec)
        assert spec.l_xx == 0.0 and l_g == pytest.approx(inst.spectral.lambda_max / inst.mu_y)
        delta = 1e-2
        _, vecs = np.linalg.eigh(inst.a.T @ inst.a)
        d = vecs[:, -1] * math.sqrt(2.0 * delta / l_g)
        x = np.random.default_rng(3).standard_normal(6)
        witness, gap = properties._witness_with_gap(inst, x, -(inst.a @ d), delta)
        assert gap == delta
        ig = sk.inexact_grad_from_witness(problem, x, witness, delta)
        assert ig.l_env == 2.0 * l_g
        z = x + d
        lhs = inst.g_value(z) - (ig.value + float(ig.grad @ d))
        assert lhs == pytest.approx(0.5 * ig.l_env * float(d @ d) + ig.delta, rel=1e-9)
        assert sk.envelope_check(inst.g_value, ig, x, z)
        ig.l_env *= 0.999  # 2e-5 below the equality, far above the check's slack
        assert not sk.envelope_check(inst.g_value, ig, x, z)

    @pytest.mark.parametrize("gen", [sk.gen_bilinear, sk.gen_quadratic_saddle])
    def test_argmax_is_l_xy_over_mu_y_lipschitz(self, gen):
        # the premise of L_g = l_xx + l_xy^2 / mu_y on both routes: y*(.) is
        # (l_xy / mu_y)-Lipschitz, and so grad g is L_g-Lipschitz; a bilinear
        # instance attains the ratio along A's top right singular vector
        rng = np.random.default_rng(27)
        for seed in range(3):
            inst = gen(6, 5, 30.0, seed=seed, mu_y=0.5 + seed)
            spec = inst.problem().spec
            assert inst.bilinear == (gen is sk.gen_bilinear)
            assert inst.bilinear or inst.q_diag.min() > 0.0
            lip, l_g = spec.l_xy / spec.mu_y, sk.effective_smoothness(spec)
            for _ in range(200):
                x1, x2 = rng.standard_normal((2, 6)) * rng.uniform(0.1, 5.0)
                dx = np.linalg.norm(x1 - x2)
                dy = np.linalg.norm(inst.y_star_of(x1) - inst.y_star_of(x2))
                assert dy <= lip * dx * (1.0 + 1e-12)
                assert np.linalg.norm(inst.g_grad(x1) - inst.g_grad(x2)) <= l_g * dx * (1.0 + 1e-12)
            if inst.bilinear:
                top = np.linalg.eigh(inst.a.T @ inst.a)[1][:, -1]
                assert np.linalg.norm(inst.y_star_of(top)) == pytest.approx(lip, rel=1e-12)


class TestEnvelopeOracle:
    def test_warm_start_and_delta_update(self, b1_problem):
        # each call solves at half the envelope accuracy it is given, so its
        # gradient error is at most l_xy sqrt(delta_env / mu_y), and its
        # witness can seed the next call; the oracle keeps no state, so the
        # same accuracy and warm start give the same bytes again
        x, spec = np.array([1.0, 1.0]), b1_problem.spec
        oracle = sk.EnvelopeGradOracle(Metered(b1_problem))
        warm = None
        for delta_env in (1e-2, 1e-6):
            grad, witness = oracle.grad_and_witness(x, delta_env, warm)
            err = np.linalg.norm(grad - np.array([1.0, 4.0]))
            assert err <= spec.l_xy * math.sqrt(delta_env / spec.mu_y)
            again = oracle.grad_and_witness(x, delta_env, warm)
            assert (again[0].tobytes(), again[1].tobytes()) == (grad.tobytes(), witness.tobytes())
            warm = witness
        with pytest.raises(sk.InvalidSpecError):
            oracle.grad_and_witness(x, 0.0, warm)


def inner_mode_problem(mode):
    """One problem per inner-solve mode of the shared inner object."""
    if mode == "exact-prox":  # prox-friendly h, l_yy = 0: one prox call per solve
        p = sk.gen_bilinear(6, 5, 10.0, seed=2).problem()
        assert p.prox_friendly_h and p.spec.l_yy == 0.0
        return p
    p = sk.gen_quadratic_saddle(6, 5, 10.0, seed=2).problem()
    assert p.spec.l_yy > 0.0
    p.prox_friendly_h = mode == "prox-h"  # otherwise h is a smooth term
    return p


INNER_MODES = ["prox-h", "smooth-h", "exact-prox"]


class TestSharedInnerObject:
    """EnvelopeGradOracle reuses one inner object for every x."""

    def points(self, n=6):
        rng = np.random.default_rng(11)
        return [rng.standard_normal(6) for _ in range(n)]

    @pytest.mark.parametrize("mode", INNER_MODES)
    def test_bundles_equal_one_shot_calls(self, mode):
        # the warm-started pair the loop reads is the one-shot bundle's
        # gradient and witness, at the same cost
        p = inner_mode_problem(mode)
        shared_tally, fresh_tally = OracleTally(), OracleTally()
        oracle = sk.EnvelopeGradOracle(Metered(p, shared_tally))
        warm = None
        for k, x in enumerate(self.points()):
            delta_env = 1e-3 * 0.1**k
            grad, witness = oracle.grad_and_witness(x, delta_env, warm)
            ref = sk.inexact_grad_g(Metered(p, fresh_tally), x, 0.5 * delta_env, y0=warm)
            warm = ref.witness_y
            assert grad.tobytes() == ref.grad.tobytes()
            assert witness.tobytes() == ref.witness_y.tobytes()
            assert (delta_env, oracle.l_env) == (ref.delta, ref.l_env)
            assert shared_tally.snapshot() == fresh_tally.snapshot()
        assert shared_tally.count(sk.OracleKind.GRAD_X_F) == len(self.points())


INEXACT_MODES = ["prox-h", "smooth-h"]


class TestCertificateFirstSolve:
    """The inexact route certifies its start first and builds no report."""

    @staticmethod
    def counted_reports(monkeypatch):
        built = []
        report = sk.core.SolveReport

        def counting(*args, **kwargs):
            built.append(1)
            return report(*args, **kwargs)

        monkeypatch.setattr(sk.core, "SolveReport", counting)
        return built

    @pytest.mark.parametrize("certifies", [True, False], ids=["certifying-start", "cold-start"])
    @pytest.mark.parametrize("mode", INEXACT_MODES)
    def test_solve_matches_solve_to_gap(self, mode, certifies, monkeypatch):
        p = inner_mode_problem(mode)
        x = np.linspace(-1.0, 1.0, 6)
        delta = 1e-4
        start = sk.EnvelopeGradOracle(p).solve(x, 1e-12) if certifies else np.full(5, 3.0)
        before = start.copy()
        ref_tally, tally = OracleTally(), OracleTally()
        ref = sk.EnvelopeGradOracle(Metered(p, ref_tally))
        ref.x = x
        rep = sk.fgm.solve_to_gap(ref.objective, start, delta, tally=ref_tally)
        assert (rep.extras["blocks"] == 0) == certifies
        built = self.counted_reports(monkeypatch)
        w = sk.EnvelopeGradOracle(Metered(p, tally)).solve(x, delta, start)
        assert w.tobytes() == rep.x_final.tobytes()
        assert tally.snapshot() == ref_tally.snapshot()
        assert not np.shares_memory(w, start)
        assert start.tobytes() == before.tobytes()
        assert (built == []) == certifies

    @pytest.mark.parametrize("mode", INEXACT_MODES)
    def test_nan_oracle_raises_with_the_best_iterate(self, mode):
        p = inner_mode_problem(mode)
        p.grad_y_F = lambda x, y: np.full(5, np.nan)
        with pytest.raises(sk.BudgetExceededError, match="not finite") as err:
            sk.EnvelopeGradOracle(p).solve(np.ones(6), 1e-6)
        assert err.value.best is not None and err.value.best.shape == (5,)


class TestInnerTally:
    """An oracle bills its own view's tally."""

    def test_own_tally_or_none_is_billed(self):
        p = sk.gen_bilinear(3, 3, 2.0, seed=1).problem()
        oracle = sk.EnvelopeGradOracle(p)
        a = sk.inexact_grad_g(oracle, np.ones(3), 1e-6)
        b = sk.inexact_grad_g(oracle, np.ones(3), 1e-6)
        assert a.grad.tobytes() == b.grad.tobytes()
        assert oracle.mp.tally.snapshot() == {
            "gradx_F": 2, "grady_F": 2, "matvec": 4, "prox_h": 2
        }


@pytest.mark.parametrize("mode", INNER_MODES)
@pytest.mark.parametrize(
    "call",
    [
        lambda mp: sk.EnvelopeGradOracle(mp).solve(np.ones(6), math.inf),
        lambda mp: sk.inexact_grad_g(mp, np.ones(6), math.inf),
        lambda mp: sk.EnvelopeGradOracle(mp).grad_and_witness(np.ones(6), math.inf),
        lambda mp: sk.inexact_grad_from_witness(mp, np.ones(6), np.ones(5), math.inf),
        lambda mp: sk.inexact_grad_from_witness(mp, np.ones(6), np.ones(5), math.nan),
    ],
    ids=["solve", "inexact-grad", "grad-and-witness", "from-witness-inf", "from-witness-nan"],
)
def test_infinite_accuracy_raises_before_any_call(call, mode):
    # an infinite accuracy certifies nothing: every route must refuse it,
    # also the exact-prox one that never reaches a certificate
    mp = Metered(inner_mode_problem(mode))
    with pytest.raises(sk.InvalidSpecError, match="finite and positive"):
        call(mp)
    assert mp.tally.snapshot() == {}


def test_smooth_h_without_grad_h_raises_the_oracle_rule_before_any_call():
    # an h that is neither prox-friendly nor smooth cannot shape the inner max
    p = inner_mode_problem("smooth-h")
    p.grad_h = None
    mp = Metered(p)
    with pytest.raises(sk.UnsupportedProblemError, match="needs the grad_h oracle"):
        sk.EnvelopeGradOracle(mp).solve(np.ones(6), 1e-6)
    assert mp.tally.snapshot() == {}
