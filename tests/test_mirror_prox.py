import dataclasses
import itertools
import math

import numpy as np
import pytest

import saddlekit as sk
from saddlekit import mirror_prox
from saddlekit.core import EuclideanBall, Metered, OracleKind, OracleTally
from saddlekit.mirror_prox import ProductSet


def _residual_bound(op, w, resid_sq):
    """(||G(w)|| + dim eps_mach L ||w||)^2 / mu^2, within 1e-6 of ||G(w)||^2 / mu^2 here."""
    e = w.size * np.finfo(float).eps * op.l * float(np.linalg.norm(w))
    bound = (math.sqrt(resid_sq) + e) ** 2 / op.mu**2
    assert bound == pytest.approx(resid_sq / op.mu**2, rel=1e-6)
    return bound


def identity_operator(mu=1.0):
    return sk.ViOperator(bind=lambda z, out: lambda: z, l=1.0, mu=mu)


class TestAssembly:
    def test_b1_values(self, b1, b1_problem):
        op = sk.assemble_saddle_operator(b1_problem)
        out = op.evaluate(np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0, -1.0, -2.0])
        z_star = np.concatenate([b1.closed_form_x, b1.closed_form_y])
        assert np.allclose(op.evaluate(z_star), 0.0, atol=1e-12)
        assert op.mu == 1.0

    def test_decoupled_identity(self):
        inst = sk.bilinear_instance(np.zeros((2, 2)), np.zeros(2), 1.0, 1.0)
        op = sk.assemble_saddle_operator(inst.problem())
        z = np.array([0.3, -1.0, 2.0, 0.5])
        assert np.allclose(op.evaluate(z), z)
        assert op.mu == 1.0

    def test_fresh_output_and_counts_per_evaluation(self):
        inst = sk.gen_bilinear(3, 4, 10.0, seed=0)
        tally = OracleTally()
        op = sk.assemble_saddle_operator(Metered(inst.problem(), tally))
        z = np.linspace(-1.0, 1.0, 7)
        a = op.evaluate(z)
        b = op.evaluate(z)
        assert a is not b and not np.shares_memory(a, b)
        assert a.tobytes() == b.tobytes()
        per_call = {"grad_r": 1, "gradx_F": 1, "grad_h": 1, "grady_F": 1, "matvec": 2}
        assert tally.snapshot() == {k: 2 * v for k, v in per_call.items()}

    def test_gradient_oracle_required(self, b1):
        p = b1.problem()
        p.grad_r = None
        with pytest.raises(sk.UnsupportedProblemError):
            sk.assemble_saddle_operator(p)

    def test_strong_monotonicity_sampled(self):
        rng = np.random.default_rng(2)
        for seed in range(4):
            inst = sk.gen_bilinear(4, 5, 25.0, seed=seed, mu_x=0.8, mu_y=1.3)
            op = sk.assemble_saddle_operator(inst.problem())
            for _ in range(50):
                z1, z2 = rng.standard_normal(9), rng.standard_normal(9)
                lhs = float((op.evaluate(z1) - op.evaluate(z2)) @ (z1 - z2))
                assert lhs >= op.mu * float((z1 - z2) @ (z1 - z2)) - 1e-9


class TestRunMirrorProx:
    def test_identity_first_step_exact(self):
        op = identity_operator()
        rep = sk.run_mirror_prox(op, np.array([5.0, -1.0]), 1)
        assert np.allclose(rep.x_final, 0.0)

    def test_identity_average_shrinks(self):
        op = identity_operator()
        rep = sk.run_mirror_prox(op, np.array([5.0, -1.0]), 50)
        assert np.linalg.norm(rep.x_final) <= 1e-10

    def test_averaged_residual_bound_every_iteration(self, b1):
        p = b1.problem()
        op = sk.assemble_saddle_operator(p)
        z_star = np.concatenate([b1.closed_form_x, b1.closed_form_y])
        rep = sk.run_mirror_prox(op, np.zeros(4), 100, z_star=z_star, record_every=1)
        r0_sq = float(z_star @ z_star)
        for row in rep.history:
            assert row.gap <= op.l * r0_sq / (2 * row.iteration) + 1e-9

    def test_averaged_distance_bound(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            inst = sk.gen_bilinear(3, 4, 16.0, seed=seed)
            op = sk.assemble_saddle_operator(inst.problem())
            z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
            z0 = rng.standard_normal(7)
            for n in (5, 40, 160):
                rep = sk.run_mirror_prox(op, z0, n)
                lhs = float(np.linalg.norm(rep.x_final - z_star) ** 2)
                rhs = op.l * float((z0 - z_star) @ (z0 - z_star)) / (2 * op.mu * n)
                assert lhs <= rhs + 1e-9

    def test_residual_stop_returns_the_checked_leading_point(self):
        # on a criterion-8 game the residual of w^k meets the threshold inside
        # the block; the run stops there and returns that leading point
        inst = sk.gen_smoothed_game(50, 1e2, seed=808)
        tally = OracleTally()
        op = sk.assemble_saddle_operator(Metered(inst.problem(), tally))
        n = math.ceil(op.l / op.mu)
        rep = sk.run_mirror_prox(op, np.zeros(100), n, record_every=0, residual_sq=1e-6 * op.mu)
        k = rep.extras["iterations"]
        assert k < n and k % mirror_prox.RESIDUAL_CHECK_EVERY == 0
        assert tally.count(OracleKind.GRAD_X_F) == 2 * k  # billed what it made
        g = op.evaluate(rep.x_final)
        assert rep.extras["residual_stop"] == float(g @ g) <= 1e-6 * op.mu
        # w^k is the extrapolation step from z^(k-1), the last point of k - 1 steps
        ref_op = sk.assemble_saddle_operator(inst.problem())
        z = sk.run_mirror_prox(ref_op, np.zeros(100), k - 1, record_every=0).extras["last_point"]
        w = z - (1.0 / ref_op.l) * ref_op.evaluate(z)
        assert rep.x_final.tobytes() == w.tobytes()
        # the restarted driver returns the same point from its first block
        restarted = sk.run_restarted_mp(ref_op, np.zeros(100), 1e-6, r0=8.0)
        assert restarted.extras["restarts"] == 1
        assert restarted.x_final.tobytes() == w.tobytes()
        assert restarted.extras["dist_sq_bound"] == _residual_bound(op, w, rep.extras["residual_stop"])

    def test_a_block_without_a_stop_continues_from_its_last_iterate(self, monkeypatch):
        # block 1 ends above the threshold; its last iterate's bound is far
        # below the average's a-priori one, so block 2 starts there and the
        # restarts trace one extragradient trajectory, whose leading point at
        # the stop is returned
        inst = sk.gen_smoothed_game(50, 1e2, seed=808)
        tally = OracleTally()
        op = sk.assemble_saddle_operator(Metered(inst.problem(), tally))
        blocks = []
        run_mirror_prox = mirror_prox.run_mirror_prox

        def recording(op, z0, n, **kwargs):
            rep = run_mirror_prox(op, z0, n, **kwargs)
            blocks.append((z0.copy(), rep))
            return rep

        monkeypatch.setattr(mirror_prox, "run_mirror_prox", recording)
        rep = sk.run_restarted_mp(op, np.zeros(100), 1e-9, r0=8.0)
        n = rep.extras["block_size"]
        (_, first), (z1, second) = blocks
        assert first.extras["iterations"] == n and first.extras["residual_stop"] is None
        assert z1.tobytes() == first.extras["last_point"].tobytes()
        assert rep.extras["restarts"] == 2
        k = n + second.extras["iterations"]
        assert tally.count(OracleKind.GRAD_X_F) == 2 * k + 1  # one more at block 1's end
        ref_op = sk.assemble_saddle_operator(inst.problem())
        z = run_mirror_prox(ref_op, np.zeros(100), k - 1, record_every=0).extras["last_point"]
        w = z - (1.0 / ref_op.l) * ref_op.evaluate(z)
        assert rep.x_final.tobytes() == w.tobytes()

    def test_a_block_keeps_its_average_when_the_last_iterate_bound_is_worse(self, monkeypatch):
        # balls that cut the unconstrained saddle off: ||G|| stays large at
        # the constrained solution, so every block restarts from its average
        # with the a-priori bound, halved or better
        inst = sk.gen_smoothed_game(20, 50.0, seed=4)
        balls = ProductSet(EuclideanBall(np.zeros(20), 0.3), EuclideanBall(np.full(20, 0.1), 0.2), 20)
        op = dataclasses.replace(sk.assemble_saddle_operator(inst.problem()), domain=balls)
        blocks = []
        run_mirror_prox = mirror_prox.run_mirror_prox

        def recording(op, z0, n, **kwargs):
            rep = run_mirror_prox(op, z0, n, **kwargs)
            blocks.append((z0.copy(), rep))
            return rep

        monkeypatch.setattr(mirror_prox, "run_mirror_prox", recording)
        r0 = math.hypot(0.6, 0.4)  # the diameter of the product
        rep = sk.run_restarted_mp(op, np.zeros(40), 1e-4, r0=r0)
        assert rep.extras["restarts"] == rep.extras["scheduled_restarts"] == len(blocks) > 1
        for (_, before), (start, _) in zip(blocks, blocks[1:]):
            assert start.tobytes() == before.x_final.tobytes()
        assert rep.x_final.tobytes() == blocks[-1][1].x_final.tobytes()
        bounds = [row.gap for row in rep.history]
        assert all(b <= a / 2.0 for a, b in zip([r0 * r0] + bounds, bounds))

    def test_no_threshold_no_stop(self):
        op = identity_operator()
        rep = sk.run_mirror_prox(op, np.array([5.0, -1.0]), 40)
        assert "residual_stop" not in rep.extras and rep.extras["iterations"] == 40
        rep = sk.run_mirror_prox(op, np.array([5.0, -1.0]), 40, residual_sq=-1.0)
        assert rep.extras["residual_stop"] is None and rep.extras["iterations"] == 40

    def test_degenerate_budget(self):
        # one rule for step counts: a run needs n >= 1, checked before any evaluation
        tally = OracleTally()
        op = _metered_op(tally)
        for n in (0, -3):
            with pytest.raises(sk.InvalidSpecError, match=f"n must be finite and >= 1, got {n}"):
                sk.run_mirror_prox(op, np.zeros(7), n)
        assert tally.snapshot() == {}


class TestRestartedMp:
    def test_identity_quick(self):
        op = identity_operator()
        rep = sk.run_restarted_mp(op, np.array([2.0, 2.0]), 1e-10, r0=4.0)
        assert rep.extras["restarts"] <= 2
        assert np.linalg.norm(rep.x_final) ** 2 <= 1e-10

    def test_b1_distance(self, b1, b1_problem):
        op = sk.assemble_saddle_operator(b1_problem)
        z_star = np.concatenate([b1.closed_form_x, b1.closed_form_y])
        rep = sk.run_restarted_mp(op, np.zeros(4), 1e-8, r0=2.0)
        assert np.linalg.norm(rep.x_final - z_star) <= 1e-4

    def test_requires_strong_monotonicity(self):
        op = identity_operator(mu=0.0)
        with pytest.raises(sk.InvalidSpecError):
            sk.run_restarted_mp(op, np.zeros(2), 1e-6, r0=1.0)

    @pytest.mark.parametrize(
        "inst",
        [
            sk.gen_quadratic_saddle(6, 5, 10.0, seed=2),
            sk.gen_bilinear(6, 5, 10.0, seed=2, mu_x=1.0, mu_y=2.0),
        ],
        ids=["quadratic", "bilinear"],
    )
    def test_default_operator_l_bounds_the_jacobian(self, inst):
        # without a declared operator_l the operator falls back to the bound
        # from the blockwise constants; it must cover the true Jacobian norm
        problem = inst.problem()
        problem.operator_l = None
        op = sk.assemble_saddle_operator(problem)
        assert op.l == mirror_prox._default_operator_l(problem.spec)
        a = inst.a
        jac = np.block(
            [[np.diag(inst.mu_x + inst.p_diag), a.T], [-a, np.diag(inst.mu_y + inst.q_diag)]]
        )
        assert op.l >= float(np.linalg.norm(jac, 2))
        z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
        rep = sk.run_restarted_mp(op, np.zeros(11), 1e-8, r0=float(np.linalg.norm(z_star)))
        dist_sq = float(np.sum((rep.x_final - z_star) ** 2))
        assert dist_sq <= rep.extras["dist_sq_bound"] < 1e-4 * float(z_star @ z_star)

    @staticmethod
    def _distance_run(cond, seed, mu, eps):
        inst = sk.gen_bilinear(5, 4, cond, seed=seed, mu_x=mu, mu_y=mu)
        z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
        op = sk.assemble_saddle_operator(inst.problem())
        r0 = 1.5 * float(np.linalg.norm(z_star)) + 1.0
        rep = sk.run_restarted_mp(op, np.zeros(9), eps, r0=r0)
        return rep, float(np.sum((rep.x_final - z_star) ** 2)), op

    @staticmethod
    def _assert_leading_point_bound(op, rep, dist_sq, eps):
        # the returned point w has ||G(w)||^2 <= eps mu, and the bound is its
        # own ||G(w)||^2 / mu^2 with the rounding allowance, which covers its
        # distance
        g = op.evaluate(rep.x_final)
        assert float(g @ g) <= eps * op.mu
        assert rep.extras["dist_sq_bound"] == _residual_bound(op, rep.x_final, float(g @ g))
        assert dist_sq <= rep.extras["dist_sq_bound"]

    def test_distance_bound_covers_the_returned_average(self):
        # the reported bound is that of the point returned: on this grid
        # every run ends at a point whose residual met eps mu
        grid = itertools.product((2.0, 10.0, 50.0), range(5), (0.5, 2.0, 5.0), (1e-2, 1e-4, 1e-6))
        for cond, seed, mu, eps in grid:
            rep, dist_sq, op = self._distance_run(cond, seed, mu, eps)
            self._assert_leading_point_bound(op, rep, dist_sq, eps)
            assert rep.certified_gap == math.inf and not rep.converged

    @pytest.mark.parametrize("seed", range(4))
    def test_distance_bound_on_a_product_of_balls(self, seed):
        # balls that hold the saddle, so it still solves the variational
        # inequality, started from the far side where the steps project
        inst = sk.gen_smoothed_game(12, 50.0, seed=seed)
        x_star, y_star = inst.closed_form_x, inst.closed_form_y
        balls = ProductSet(
            EuclideanBall(np.zeros(12), 1.2 * float(np.linalg.norm(x_star))),
            EuclideanBall(np.zeros(12), 1.2 * float(np.linalg.norm(y_star))),
            12,
        )
        op = dataclasses.replace(sk.assemble_saddle_operator(inst.problem()), domain=balls)
        z_star = np.concatenate([x_star, y_star])
        z0 = balls.project(-10.0 * z_star)
        rep = sk.run_restarted_mp(op, z0, 1e-8, r0=float(np.linalg.norm(z0 - z_star)))
        self._assert_leading_point_bound(op, rep, float(np.sum((rep.x_final - z_star) ** 2)), 1e-8)

    def test_pinned_early_exit(self):
        # the exit returns the point whose residual met eps mu, with that
        # point's own bound, about ||G(w)||^2 / mu^2 = 2.88e-05
        rep, dist_sq, _ = self._distance_run(10.0, 0, 2.0, 1e-4)
        assert rep.extras["restarts"] < rep.extras["scheduled_restarts"]  # the early exit fired
        assert dist_sq == pytest.approx(2.801e-05, rel=1e-3)
        assert rep.extras["dist_sq_bound"] == pytest.approx(2.880e-05, rel=1e-3)
        assert rep.extras["dist_sq_bound"] >= dist_sq
        assert not rep.converged

    def test_operator_call_scaling(self):
        # evaluations grow roughly linearly in l/mu on scaled instances
        ratios = [1e2, 1e3, 1e4]
        evals = []
        for ratio in ratios:
            inst = sk.gen_bilinear(6, 6, ratio**2, seed=1)  # operator l ~ sqrt(cond)
            p = inst.problem()
            tally = OracleTally()
            op = sk.assemble_saddle_operator(Metered(p, tally))
            rep = sk.run_restarted_mp(op, np.zeros(12), 1e-8, r0=4.0)
            evals.append(tally.count(sk.OracleKind.GRAD_X_F))
        slope = np.polyfit(np.log10(ratios), np.log10(evals), 1)[0]
        assert 0.8 <= slope <= 1.2


# one evaluation of a testbed operator (coupling_matvecs 1): one call of each
# gradient and a matvec for each of the two coupling gradients
ONE_EVALUATION = {"grad_r": 1, "grad_h": 1, "gradx_F": 1, "grady_F": 1, "matvec": 2}


def _metered_op(tally, seed=0):
    inst = sk.gen_bilinear(3, 4, 10.0, seed=seed)
    return sk.assemble_saddle_operator(Metered(inst.problem(), tally))


def _reference_run(op, z0, n):
    """The extragradient loop written plainly from the billed ``op.evaluate``."""
    inv_l = 1.0 / op.l
    z = np.array(z0, dtype=float)
    lead_sum = np.zeros_like(z)
    for _ in range(n):
        w = op.domain.project(z - inv_l * op.evaluate(z))
        z = op.domain.project(z - inv_l * op.evaluate(w))
        lead_sum += w
    return lead_sum / float(n), z


class TestBlockBilling:
    def test_reports_carry_the_operator_tally(self):
        tally = OracleTally()
        op = _metered_op(tally)
        rep = sk.run_mirror_prox(op, np.linspace(-1.0, 1.0, 7), 5, record_every=1)
        assert rep.tally is tally
        assert tally.snapshot() == {
            "grad_r": 10, "grad_h": 10, "gradx_F": 10, "grady_F": 10, "matvec": 20
        }
        assert all(row.tally for row in rep.history)
        rep = sk.run_restarted_mp(op, np.zeros(7), 1e-6, r0=4.0)
        assert rep.tally is tally
        assert rep.history[-1].tally == tally.snapshot()

    def test_history_row_k_bills_2k_evaluations(self):
        tally = OracleTally()
        op = _metered_op(tally)
        op.charge(1)
        assert tally.snapshot() == ONE_EVALUATION
        tally = OracleTally()
        op = _metered_op(tally)
        rep = sk.run_mirror_prox(op, np.ones(7), 9, record_every=1)
        assert [row.iteration for row in rep.history] == list(range(1, 10))
        for row in rep.history:
            assert row.tally == {key: 2 * row.iteration * n for key, n in ONE_EVALUATION.items()}

    @pytest.mark.parametrize("j", [1, 2, 5, 8])
    def test_raising_evaluation_bills_what_was_made(self, j):
        # the j-th evaluation raises inside grad_y_F: j evaluations are billed,
        # as when every evaluation bumped the tally before computing
        p = sk.gen_bilinear(3, 4, 10.0, seed=0).problem()
        grad_y_f, calls = p.grad_y_F, [0]

        def failing(x, y):
            calls[0] += 1
            if calls[0] == j:
                raise FloatingPointError("oracle failure")
            return grad_y_f(x, y)

        p.grad_y_F = failing
        tally = OracleTally()
        op = sk.assemble_saddle_operator(Metered(p, tally))
        with pytest.raises(FloatingPointError):
            sk.run_mirror_prox(op, np.ones(7), 10, record_every=3)
        assert tally.snapshot() == {key: j * n for key, n in ONE_EVALUATION.items()}

    @pytest.mark.parametrize("bounded", [False, True])
    def test_matches_the_reference_loop_bytewise(self, bounded):
        runs = []
        for _ in range(2):
            tally = OracleTally()
            op = _metered_op(tally, seed=3)
            if bounded:
                balls = ProductSet(
                    EuclideanBall(np.zeros(3), 0.3), EuclideanBall(np.full(4, 0.1), 0.2), 3
                )
                op = dataclasses.replace(op, domain=balls)
            runs.append((op, tally))
        (op, tally), (ref_op, ref_tally) = runs
        z0 = np.linspace(-1.0, 1.0, 7)
        rep = sk.run_mirror_prox(op, z0, 23, record_every=4)
        avg, last = _reference_run(ref_op, z0, 23)
        assert rep.x_final.tobytes() == avg.tobytes()
        assert rep.extras["last_point"].tobytes() == last.tobytes()
        assert tally == ref_tally

    def test_evaluate_only_operator_runs(self):
        # an operator bound straight to an evaluate function that counts its
        # own calls, returns a fresh array and ignores ``out``; its charge bills nothing
        tally = OracleTally()

        def evaluate(z):
            tally.bump(OracleKind.MATVEC)
            return 2.0 * z

        op = sk.ViOperator(bind=lambda z, out: lambda: evaluate(z), l=2.0, mu=2.0)
        out = np.empty(2)
        assert op.bind(np.ones(2), out)() is not out
        z0 = np.array([3.0, -1.0])
        rep = sk.run_mirror_prox(op, z0, 4)
        avg, _ = _reference_run(op, z0, 4)
        assert rep.x_final.tobytes() == avg.tobytes()
        assert tally.count(OracleKind.MATVEC) == 1 + 8 + 8
        assert op.tally is None and rep.tally.snapshot() == {}


class TestBind:
    def test_evaluate_only_operator_binds_to_evaluate(self):
        # ``evaluate`` is one binding used once, billed as one evaluation
        tally = OracleTally()
        op = sk.ViOperator(
            bind=lambda z, out: lambda: 3.0 * z - 1.0,
            l=3.0, mu=3.0, tally=tally, charge=lambda k: tally.bump(OracleKind.MATVEC, 2 * k),
        )
        z = np.linspace(-1.0, 2.0, 5)
        assert op.bind(z, np.empty(5))().tobytes() == op.evaluate(z).tobytes()
        z[:] = 0.5  # the evaluator reads z when it is called
        assert op.bind(z, np.empty(5))().tobytes() == op.evaluate(z).tobytes()
        assert tally.snapshot() == {"matvec": 2 * 2}

    def test_saddle_evaluator_fills_out_and_sees_updates_in_place(self):
        tally = OracleTally()
        op = _metered_op(tally, seed=4)
        z, out = np.linspace(-1.0, 1.0, 7), np.empty(7)
        at_z = op.bind(z, out)
        for shift in (0.0, 0.25):
            z += shift
            got = at_z()
            assert got is out
            assert got.tobytes() == op.evaluate(z).tobytes()
        assert op.bind(z, np.empty(7))().tobytes() == out.tobytes()
        # only the two evaluate calls were billed
        assert tally.snapshot() == {key: 2 * n for key, n in ONE_EVALUATION.items()}
