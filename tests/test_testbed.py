import math

import numpy as np
import pytest

import saddlekit as sk


class TestSpectral:
    def test_diagonal(self):
        lam_max, lam_min_plus, kernel = sk.spectral(np.diag([1.0, 2.0]))
        assert lam_max == pytest.approx(4.0)
        assert lam_min_plus == pytest.approx(1.0)
        assert kernel.shape == (2, 0)

    def test_rank_deficient(self):
        lam_max, lam_min_plus, kernel = sk.spectral(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert lam_max == pytest.approx(1.0)
        assert lam_min_plus == pytest.approx(1.0)
        assert kernel.shape == (2, 1)
        assert np.allclose(np.abs(kernel[:, 0]), [0.0, 1.0])

    def test_zero_matrix_rejected(self):
        with pytest.raises(sk.InvalidSpecError):
            sk.spectral(np.zeros((2, 2)))

    def test_matches_construction(self):
        # generator singular values vs an independent eigendecomposition
        inst = sk.gen_bilinear(7, 5, 64.0, seed=12)
        lam_max, lam_min_plus, _ = sk.spectral(inst.a)
        assert lam_max == pytest.approx(64.0, rel=1e-8)
        assert lam_min_plus == pytest.approx(1.0, rel=1e-8)
        assert inst.spectral.lambda_max == pytest.approx(lam_max, abs=1e-8)


class TestGenerators:
    def test_b1_closed_form(self, b1):
        assert np.allclose(b1.closed_form_x, [0.5, 0.2])
        assert np.allclose(b1.closed_form_y, [0.5, 0.4])

    def test_isotropic_when_cond_one(self):
        inst = sk.gen_bilinear(4, 4, 1.0, seed=0)
        assert inst.spectral.lambda_max == pytest.approx(inst.spectral.lambda_min_plus)

    def test_seed_reproducible_bitwise(self):
        a = sk.gen_bilinear(6, 5, 30.0, seed=3)
        b = sk.gen_bilinear(6, 5, 30.0, seed=3)
        assert a.a.tobytes() == b.a.tobytes()
        assert a.b.tobytes() == b.b.tobytes()
        c = sk.gen_quadratic_saddle(6, 5, 30.0, seed=3)
        d = sk.gen_quadratic_saddle(6, 5, 30.0, seed=3)
        assert c.a.tobytes() == d.a.tobytes() and c.p_diag.tobytes() == d.p_diag.tobytes()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: sk.gen_bilinear(3, 3, math.nan, seed=0), "cond"),
            (lambda: sk.gen_bilinear(3, 3, math.inf, seed=0), "cond"),
            (lambda: sk.gen_quadratic_saddle(3, 3, math.nan, seed=0), "cond"),
            (lambda: sk.gen_quadratic_saddle(3, 3, 4.0, seed=0, mu_y=math.nan), "mu_y"),
            (lambda: sk.gen_smoothed_game(4, math.nan, seed=0), "kappa"),
            (lambda: sk.gen_smoothed_game(4, math.inf, seed=0), "kappa"),
            (lambda: sk.bilinear_instance(np.eye(2), np.ones(2), math.nan, 1.0), "mu_x"),
            (lambda: sk.bilinear_instance(np.eye(2), np.ones(2), 1.0, math.inf), "mu_y"),
            (lambda: sk.lemma1_check(sk.gen_bilinear(3, 3, 4.0, seed=0), math.nan, 10), "l_y"),
            (lambda: sk.lemma1_check(sk.gen_bilinear(3, 3, 4.0, seed=0), math.inf, 10), "l_y"),
        ],
        ids=[
            "bilinear-cond-nan", "bilinear-cond-inf", "quadratic-cond-nan", "quadratic-mu-nan",
            "game-kappa-nan", "game-kappa-inf", "instance-mu-nan", "instance-mu-inf",
            "lemma1-l_y-nan", "lemma1-l_y-inf",
        ],
    )
    def test_non_finite_inputs_are_rejected_by_name(self, call, name):
        # `cond < 1` is False for NaN: without a check the linear algebra fails unnamed
        with pytest.raises(sk.InvalidSpecError, match=name):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: sk.gen_bilinear(0, 3, 4.0, seed=0), "n"),
            (lambda: sk.gen_bilinear(3, 0, 4.0, seed=0), "m"),
            (lambda: sk.gen_quadratic_saddle(0, 3, 4.0, seed=0), "n"),
            (lambda: sk.gen_quadratic_saddle(3, 0, 4.0, seed=0), "m"),
            (lambda: sk.gen_smoothed_game(0, 1e3, seed=0), "n"),
        ],
        ids=["bilinear-n0", "bilinear-m0", "quadratic-n0", "quadratic-m0", "game-n0"],
    )
    def test_empty_dimensions_are_rejected_by_name(self, call, name):
        # a 0-dimensional instance would otherwise fail only inside the solve
        with pytest.raises(sk.InvalidSpecError, match=f"^{name} must be"):
            call()

    @pytest.mark.parametrize(
        "fields, name",
        [
            (dict(a=np.ones(2)), "a"),
            (dict(b=np.ones((2, 1))), "b"),
            (dict(b=np.ones(2)), "b"),
            (dict(p_diag=np.zeros(2)), "p_diag"),
            (dict(q_diag=np.zeros(3)), "q_diag"),
        ],
        ids=["a-1d", "b-column", "b-length", "p_diag-length", "q_diag-length"],
    )
    def test_misshapen_data_is_rejected_by_name(self, fields, name):
        # A is 2 x 3, so b and p_diag have length 3 and q_diag length 2
        data = dict(a=np.ones((2, 3)), b=np.ones(3), p_diag=np.zeros(3), q_diag=np.zeros(2))
        data.update(fields)
        with pytest.raises(sk.InvalidSpecError, match=f"^{name} must"):
            sk.SaddleInstance(data["a"], data["b"], 1.0, 1.0, data["p_diag"], data["q_diag"])

    def test_closed_form_zeroes_operator(self):
        for seed in range(6):
            inst = sk.gen_bilinear(5, 7, 40.0, seed=seed, mu_x=0.7, mu_y=1.4)
            op = sk.assemble_saddle_operator(inst.problem())
            z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
            assert np.linalg.norm(op.evaluate(z_star)) <= 1e-8
        for seed in range(6):
            inst = sk.gen_quadratic_saddle(4, 6, 25.0, seed=seed)
            op = sk.assemble_saddle_operator(inst.problem())
            z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
            assert np.linalg.norm(op.evaluate(z_star)) <= 1e-8

    def test_declared_constants_bound_difference_quotients(self):
        rng = np.random.default_rng(5)
        inst = sk.gen_quadratic_saddle(5, 4, 30.0, seed=8)
        p = inst.problem()
        s = p.spec
        for _ in range(200):
            x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
            y1, y2 = rng.standard_normal(4), rng.standard_normal(4)
            dx, dy = np.linalg.norm(x1 - x2), np.linalg.norm(y1 - y2)
            if dx > 1e-9:
                assert np.linalg.norm(p.grad_x_F(x1, y1) - p.grad_x_F(x2, y1)) <= s.l_xx * dx * (1 + 1e-9)
                assert np.linalg.norm(p.grad_y_F(x1, y1) - p.grad_y_F(x2, y1)) <= s.l_xy * dx * (1 + 1e-9)
                assert np.linalg.norm(p.grad_r(x1) - p.grad_r(x2)) <= s.l_x * dx * (1 + 1e-9)
            if dy > 1e-9:
                assert np.linalg.norm(p.grad_x_F(x1, y1) - p.grad_x_F(x1, y2)) <= s.l_xy * dy * (1 + 1e-9)
                assert np.linalg.norm(p.grad_y_F(x1, y1) - p.grad_y_F(x1, y2)) <= s.l_yy * dy * (1 + 1e-9)
                assert np.linalg.norm(p.grad_h(y1) - p.grad_h(y2)) <= s.l_y * dy * (1 + 1e-9)

    def test_quadratic_family_inner_argmax(self):
        inst = sk.gen_quadratic_saddle(3, 4, 9.0, seed=1)
        p = inst.problem()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        y_star = inst.y_star_of(x)
        # stationarity of F(x, .) - h(.)
        assert np.allclose(p.grad_y_F(x, y_star) - p.grad_h(y_star), 0.0, atol=1e-10)

    def test_prox_oracles_solve_their_subproblems(self):
        inst = sk.gen_bilinear(4, 3, 12.0, seed=2, mu_x=0.9, mu_y=1.7)
        p = inst.problem()
        rng = np.random.default_rng(3)
        for _ in range(20):
            c1, c2 = rng.standard_normal(4), rng.uniform(0.0, 2.0)
            v = p.prox_r(c1, c2)
            assert np.allclose(c1 + p.grad_r(v) + 2 * c2 * v, 0.0, atol=1e-10)
            c1y = rng.standard_normal(3)
            w = p.prox_h(c1y, c2)
            assert np.allclose(c1y + p.grad_h(w) + 2 * c2 * w, 0.0, atol=1e-10)

    def test_smoothed_game_scaling(self):
        inst = sk.gen_smoothed_game(10, 100.0, seed=0)
        assert inst.mu_x == pytest.approx(0.05 / 100.0)
        assert inst.spectral.lambda_max == pytest.approx(1.0, rel=1e-6)
        assert inst.spectral.lambda_min_plus == pytest.approx(0.01, rel=1e-6)


@pytest.mark.parametrize(
    "make, curved",
    [
        (
            lambda: sk.bilinear_instance(np.arange(6.0).reshape(2, 3), [1.0, -1.0, 2.0], 0.5, 2.0),
            False,
        ),
        (lambda: sk.gen_bilinear(5, 4, 20.0, seed=3, mu_x=0.7, mu_y=1.4), False),
        (lambda: sk.gen_smoothed_game(8, 50.0, seed=2), False),
        (lambda: sk.gen_smoothed_game(1, 50.0, seed=2), False),
        (lambda: sk.gen_quadratic_saddle(5, 4, 20.0, seed=3, mu_x=0.7, mu_y=1.4), True),
    ],
    ids=[
        "bilinear_instance", "gen_bilinear", "gen_smoothed_game", "gen_smoothed_game-n1",
        "gen_quadratic_saddle",
    ],
)
def test_one_family(make, curved):
    # every generator builds the one instance type: its closed forms solve the
    # saddle equations with its own P and Q, the declared self-curvature
    # constants are their largest entries, and the bilinear ones have P = Q = 0
    inst = make()
    assert type(inst) is sk.SaddleInstance
    a, x, y = inst.a, inst.closed_form_x, inst.closed_form_y
    p, q = inst.p_diag, inst.q_diag
    assert np.allclose((inst.mu_x + p) * x + a.T @ y, inst.b, rtol=0, atol=1e-10)
    assert np.allclose(a @ x, (inst.mu_y + q) * y, rtol=0, atol=1e-10)
    spec = inst.problem().spec
    assert spec.l_xx == p.max() and spec.l_yy == q.max()
    assert p.shape == (inst.dims[0],) and q.shape == (inst.dims[1],)
    assert inst.bilinear is not curved and bool(p.any() and q.any()) is curved


class TestOneFactorization:
    """A^T A is formed and eigendecomposed once per instance, with no byte moved."""

    @pytest.mark.parametrize("n", [8, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_game_matches_an_instance_factored_from_scratch(self, n, seed):
        inst = sk.gen_smoothed_game(n, 1e3, seed=seed)
        fresh = sk.bilinear_instance(inst.a, inst.b, inst.mu_x, inst.mu_y)
        for name in ("a", "b", "closed_form_x", "closed_form_y"):
            assert getattr(inst, name).tobytes() == getattr(fresh, name).tobytes(), name
        got, want = inst.spectral, fresh.spectral
        assert got.lambda_max == want.lambda_max
        assert got.lambda_min_plus == want.lambda_min_plus
        assert got.kernel_basis.shape == want.kernel_basis.shape
        assert got.kernel_basis.tobytes() == want.kernel_basis.tobytes()
        assert inst.operator_l == fresh.operator_l

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sk.gen_smoothed_game(20, 1e3, seed=1),
            lambda: sk.gen_bilinear(6, 5, 30.0, seed=1),
            lambda: sk.gen_quadratic_saddle(6, 5, 30.0, seed=1),
        ],
        ids=["gen_smoothed_game", "gen_bilinear", "gen_quadratic_saddle"],
    )
    def test_each_generated_instance_makes_one_eigh_call(self, make, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        make()
        assert len(calls) == 1


class TestLemma1Check:
    def test_diagonal_instance(self, b1):
        rep = sk.lemma1_check(b1, l_y=1.0, samples=500, seed=0)
        assert rep.lipschitz_predicted == pytest.approx(4.0)
        assert rep.lipschitz_empirical <= 4.0 + 1e-6
        assert rep.modulus_predicted == pytest.approx(1.0)
        assert rep.modulus_empirical >= 1.0 - 1e-6
        assert rep.ok

    def test_rank_deficient(self):
        inst = sk.bilinear_instance(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]))
        rep = sk.lemma1_check(inst, l_y=1.0, samples=500, seed=1)
        assert rep.modulus_empirical >= 1.0 - 1e-6
        assert rep.grad_kernel_overlap <= 1e-9
        assert rep.ok

    def test_zero_matrix(self):
        inst = sk.bilinear_instance(np.zeros((2, 2)), np.zeros(2))
        rep = sk.lemma1_check(inst, l_y=1.0, samples=100, seed=2)
        assert rep.lipschitz_empirical == 0.0
        assert rep.grad_kernel_overlap <= 1e-12

    def test_curved_instance_is_refused(self):
        # g is modelled for the bilinear coupling only; on P or Q != 0 the
        # report would describe another function
        inst = sk.gen_quadratic_saddle(4, 3, 10.0, seed=0)
        with pytest.raises(sk.InvalidSpecError, match="p_diag.*q_diag"):
            sk.lemma1_check(inst, l_y=2.0, samples=10)

    def test_spread_dual_curvature(self):
        inst = sk.gen_bilinear(5, 6, 50.0, seed=9, mu_y=0.5)
        rep = sk.lemma1_check(inst, l_y=2.0, samples=400, seed=3)
        assert rep.ok
