import math
from dataclasses import replace

import numpy as np
import pytest

import saddlekit as sk
from saddlekit import inner_max, mirror_prox, saddle
from saddlekit.core import Metered, OracleKind, SpectralInfo


class TestSolveSaddle:
    def test_b1_case1(self, b1, b1_problem):
        rep = sk.solve_saddle(b1_problem, 1e-6, engine="case1", r_x=3.0, r_y=3.0)
        assert rep.converged
        assert rep.certified_gap <= 1e-6
        assert np.linalg.norm(rep.x_final - b1.closed_form_x) <= 1e-3
        assert np.linalg.norm(rep.y_final - b1.closed_form_y) <= 1e-3

    def test_auto_matches_flags(self, b1_problem):
        rep = sk.solve_saddle(b1_problem, 1e-5, engine="auto", r_x=3.0, r_y=3.0)
        assert rep.extras["engine"] == "case1"

    def test_mirror_prox_same_saddle_more_calls(self):
        # operator conditioning L/mu = 1e2 or beyond: the extragradient
        # baseline pays for the tiny moduli while the structured pipeline
        # rides the curvature of the partial max
        inst = sk.gen_smoothed_game(12, 100.0, seed=4)
        rx = 2 * (np.linalg.norm(inst.closed_form_x) + 1)
        ry = 2 * (np.linalg.norm(inst.closed_form_y) + 1)
        reps = {}
        for engine in ("case1", "mirror_prox"):
            reps[engine] = sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=rx, r_y=ry)
            assert np.linalg.norm(reps[engine].x_final - inst.closed_form_x) <= 1e-3

        def grad_total(rep):
            t = rep.tally
            return sum(
                t.count(k)
                for k in (OracleKind.GRAD_R, OracleKind.GRAD_H, OracleKind.GRAD_X_F, OracleKind.GRAD_Y_F)
            )

        assert grad_total(reps["mirror_prox"]) > grad_total(reps["case1"])

    def test_decoupled_problem(self):
        # zero coupling: x solves min r, y solves max -h
        inst = sk.bilinear_instance(np.zeros((2, 2)), np.array([1.0, -2.0]))
        rep = sk.solve_saddle(inst.problem(), 1e-8, engine="case1", r_x=6.0, r_y=2.0)
        assert rep.converged
        assert np.allclose(rep.x_final, [1.0, -2.0], atol=1e-3)
        assert np.allclose(rep.y_final, 0.0, atol=1e-6)

    def test_sliding_route(self):
        inst = sk.gen_bilinear(5, 4, 30.0, seed=7)
        rep = sk.solve_saddle(inst.problem(), 1e-6, engine="case2", r_x=6.0, r_y=6.0)
        assert rep.converged
        assert np.linalg.norm(rep.x_final - inst.closed_form_x) <= 1e-3

    def test_smooth_dual_route(self):
        # h declared non-prox-friendly: inner solves use grad_h instead of
        # its prox, and the outer loop still uses r's prox
        inst = sk.gen_quadratic_saddle(4, 5, 10.0, seed=11)
        p = inst.problem()
        p.prox_friendly_h = False
        p.prox_h = None
        rep = sk.solve_saddle(p, 1e-6, engine="auto", r_x=6.0, r_y=6.0)
        assert rep.extras["engine"] == "case3"  # r is still prox-friendly
        assert rep.converged
        assert np.linalg.norm(rep.x_final - inst.closed_form_x) <= 1e-3
        assert rep.tally.count(OracleKind.PROX_H) == 0
        assert rep.tally.count(OracleKind.GRAD_H) > 0

    def test_engine_consistency(self):
        inst = sk.gen_bilinear(6, 6, 50.0, seed=9)
        rx = 2 * (np.linalg.norm(inst.closed_form_x) + 1)
        ry = 2 * (np.linalg.norm(inst.closed_form_y) + 1)
        eps = 1e-6
        xa = sk.solve_saddle(inst.problem(), eps, engine="case1", r_x=rx, r_y=ry).x_final
        xb = sk.solve_saddle(inst.problem(), eps, engine="mirror_prox", r_x=rx, r_y=ry).x_final
        mu_min = min(inst.mu_x, inst.mu_y)
        assert np.linalg.norm(xa - xb) <= 10 * math.sqrt(eps / mu_min)

    def test_regularizer_fold_invariance(self, b1):
        # the same saddle whether the quadratic moduli live in the composites
        # or inside the coupling term
        base = b1.problem()
        mu_x, mu_y, a, b = b1.mu_x, b1.mu_y, b1.a, b1.b
        folded = sk.SaddleProblem(
            spec=base.spec,
            value_r=lambda x: 0.5 * mu_x * float(x @ x),
            value_h=lambda y: 0.5 * mu_y * float(y @ y),
            value_F=lambda x, y: float(y @ (a @ x)) - float(b @ x),
            grad_r=lambda x: mu_x * x,
            grad_h=lambda y: mu_y * y,
            grad_x_F=lambda x, y: a.T @ y - b,
            grad_y_F=lambda x, y: a @ x,
            prox_r=lambda c1, c2: -c1 / (mu_x + 2 * c2),
            prox_h=lambda c1, c2: -c1 / (mu_y + 2 * c2),
            prox_friendly_r=True,
            prox_friendly_h=True,
        )
        rep1 = sk.solve_saddle(base, 1e-8, engine="case1", r_x=3.0, r_y=3.0)
        rep2 = sk.solve_saddle(folded, 1e-8, engine="case1", r_x=3.0, r_y=3.0)
        assert np.allclose(rep1.x_final, rep2.x_final, atol=1e-4)

    def test_history_strictly_increasing_across_attempts(self):
        inst = sk.gen_smoothed_game(12, 100.0, seed=4)
        rx = 2 * (np.linalg.norm(inst.closed_form_x) + 1)
        ry = 2 * (np.linalg.norm(inst.closed_form_y) + 1)
        rep = sk.solve_saddle(inst.problem(), 1e-6, engine="mirror_prox", r_x=rx, r_y=ry)
        iters = [row.iteration for row in rep.history]
        assert all(b > a for a, b in zip(iters, iters[1:]))

    def test_invalid_inputs(self, b1_problem):
        with pytest.raises(sk.InvalidSpecError):
            sk.solve_saddle(b1_problem, -1.0, r_x=1.0, r_y=1.0)
        with pytest.raises(sk.InvalidSpecError):
            sk.solve_saddle(b1_problem, 1e-6)  # unbounded sets need radii


# Full tallies of five certified solves at epsilon 1e-6 with the criterion-11
# radii, one per engine case; `flags`, when given, override the generated
# problem's (prox_friendly_r, prox_friendly_h).
# A change that moves any count moves one of these.
PINNED_TALLIES = [
    (
        "bilinear", (10, 8, 10.0), None, "case1",
        {"grad_h": 1, "grad_r": 1, "gradx_F": 17, "grady_F": 17, "matvec": 34,
         "prox_h": 16, "prox_r": 16},
    ),
    (
        "quadratic", (10, 8, 10.0), None, "case1",
        {"grad_h": 1, "grad_r": 1, "gradx_F": 17, "grady_F": 23, "matvec": 40,
         "prox_h": 22, "prox_r": 16},
    ),
    (
        "quadratic", (12, 12, 20.0), (False, True), "case2",
        {"grad_h": 1, "grad_r": 17, "gradx_F": 17, "grady_F": 17, "matvec": 34,
         "prox_h": 16},
    ),
    (
        "quadratic", (12, 12, 20.0), (False, False), "case4",
        {"grad_h": 88, "grad_r": 34, "gradx_F": 34, "grady_F": 88, "matvec": 122},
    ),
    (
        "quadratic", (12, 12, 20.0), (True, False), "case3",
        {"grad_h": 88, "grad_r": 8, "gradx_F": 40, "grady_F": 88, "matvec": 128,
         "prox_r": 32},
    ),
]


@pytest.mark.parametrize("family, shape, flags, engine, tally", PINNED_TALLIES)
def test_pinned_oracle_counts(family, shape, flags, engine, tally):
    gen = sk.gen_bilinear if family == "bilinear" else sk.gen_quadratic_saddle
    inst = gen(*shape, seed=5, mu_x=4.0, mu_y=4.0)
    problem = inst.problem()
    if flags is not None:
        problem.prox_friendly_r, problem.prox_friendly_h = flags
    r_x = 2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0)
    r_y = 2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0)
    rep = sk.solve_saddle(problem, 1e-6, engine="auto", r_x=r_x, r_y=r_y)
    assert rep.converged
    assert rep.extras["engine"] == engine
    assert rep.tally.snapshot() == tally


def _criterion11_radii(inst) -> tuple[float, float]:
    return (
        2.0 * (float(np.linalg.norm(inst.closed_form_x)) + 1.0),
        2.0 * (float(np.linalg.norm(inst.closed_form_y)) + 1.0),
    )


# Full tallies, attempt counts and history lengths of solves at epsilon 1e-6
# with mu_x = mu_y = 1 and the criterion-11 radii; every engine logs one
# history row per certificate.  The extragradient rows certify on their
# first attempt: the restarts return the point whose residual met eps mu;
# test_extragradient_resumption_divides_eps_vi_by_16 pins what a resumption
# asks for.  The case2 row's first certificate fails, settled from the two
# sides' starts, so it pins the accelerated loop's run past its first check.
PINNED_ATTEMPT_TALLIES = [
    (
        "bilinear", 1, None, "mirror_prox", "mirror_prox", 1, 1,
        {"grad_h": 51, "grad_r": 51, "gradx_F": 51, "grady_F": 51, "matvec": 102},
    ),
    (
        "quadratic", 0, None, "mirror_prox", "mirror_prox", 1, 1,
        {"grad_h": 54, "grad_r": 54, "gradx_F": 54, "grady_F": 54, "matvec": 108},
    ),
    (
        "bilinear", 4, False, "auto", "case2", 2, 2,
        {"grad_h": 2, "grad_r": 34, "gradx_F": 34, "grady_F": 34, "matvec": 68,
         "prox_h": 32},
    ),
]


@pytest.mark.parametrize(
    "family, seed, prox_friendly_r, engine, ran, attempts, rows, tally", PINNED_ATTEMPT_TALLIES
)
def test_pinned_attempt_counts(family, seed, prox_friendly_r, engine, ran, attempts, rows, tally):
    gen = sk.gen_bilinear if family == "bilinear" else sk.gen_quadratic_saddle
    inst = gen(6, 6, 10.0, seed=seed)
    problem = inst.problem()
    if prox_friendly_r is not None:
        problem.prox_friendly_r = prox_friendly_r
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(problem, 1e-6, engine=engine, r_x=r_x, r_y=r_y)
    assert rep.converged and rep.certified_gap <= 1e-6
    assert (rep.extras["engine"], rep.extras["attempts"]) == (ran, attempts)
    assert rep.tally.snapshot() == tally
    # one row per certificate, numbered from one
    assert [row.iteration for row in rep.history] == list(range(1, rows + 1))


def test_extragradient_resumption_divides_eps_vi_by_16(monkeypatch):
    # resuming the extragradient route runs the restarts again from the
    # returned point, at eps_vi / 16 and with the returned distance bound
    calls = []
    run_restarted_mp = mirror_prox.run_restarted_mp

    def recording(op, z0, epsilon, r0):
        rep = run_restarted_mp(op, z0, epsilon, r0=r0)
        calls.append((z0.copy(), epsilon, r0, rep))
        return rep

    monkeypatch.setattr(mirror_prox, "run_restarted_mp", recording)
    inst = sk.gen_bilinear(6, 6, 10.0, seed=1)
    r_x, r_y = _criterion11_radii(inst)
    route = saddle._extragradient_attempts(
        Metered(inst.problem()), 1e-6, np.zeros(6), np.zeros(6), math.hypot(r_x, r_y)
    )
    next(route)
    x, y = next(route)
    assert [epsilon for _, epsilon, _, _ in calls] == [1e-6, 1e-6 / 16.0]
    first = calls[0][3]
    z0, _, r0, second = calls[1]
    assert z0.tobytes() == first.x_final.tobytes()
    assert r0 == math.sqrt(first.extras["dist_sq_bound"])
    assert np.concatenate([x, y]).tobytes() == second.x_final.tobytes()


@pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4])
def test_extragradient_certifies_criterion8_games_on_the_first_attempt(kappa):
    # on all of space gap(w) <= ||G(w)||^2 / (2 mu) <= eps / 2 at the returned
    # point, and the certificate's inner solves add at most 2 eps / 8
    inst = sk.gen_smoothed_game(50, kappa, seed=808)
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(inst.problem(), 1e-6, engine="mirror_prox", r_x=r_x, r_y=r_y)
    assert rep.converged and rep.extras["attempts"] == 1
    assert rep.certified_gap <= 0.75e-6


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("gen", [sk.gen_bilinear, sk.gen_quadratic_saddle])
def test_smooth_r_costs_the_order_of_prox_r(gen, seed):
    # the paper's headline claim: a smooth r costs the same order of oracle
    # calls as a prox-friendly one on the same instance
    inst = gen(12, 12, 20.0, seed=seed, mu_x=4.0, mu_y=4.0)
    r_x, r_y = _criterion11_radii(inst)
    matvecs = {}
    for prox_friendly_r in (True, False):
        problem = inst.problem()
        problem.prox_friendly_r = prox_friendly_r
        rep = sk.solve_saddle(problem, 1e-6, r_x=r_x, r_y=r_y)
        assert rep.converged
        matvecs[prox_friendly_r] = rep.tally.count(OracleKind.MATVEC)
    assert matvecs[False] <= 2 * matvecs[True], matvecs


@pytest.fixture
def asked_deltas(monkeypatch):
    """Every envelope accuracy given to an inner maximization's ``grad_and_witness``, in order."""
    asked = []
    grad_and_witness = inner_max.EnvelopeGradOracle.grad_and_witness

    def recording(self, x, delta_env, y0=None):
        asked.append(delta_env)
        return grad_and_witness(self, x, delta_env, y0)

    monkeypatch.setattr(inner_max.EnvelopeGradOracle, "grad_and_witness", recording)
    return asked


def test_accelerated_loop_tightens_the_inner_accuracy_at_its_rate(asked_deltas):
    # step k asks the inner maximization for envelope accuracy
    # max(eps / 8, rho L r0^2 (1 - rho)^k / 8), rho = sqrt(mu_f / L): coarse
    # far from the saddle, tightening with the rate, never below eps / 8,
    # with one call per step
    asked = asked_deltas
    inst = sk.gen_quadratic_saddle(12, 12, 20.0, seed=5, mu_x=4.0, mu_y=4.0)
    problem = inst.problem()
    problem.prox_friendly_h = False
    r_x, r_y = _criterion11_radii(inst)
    eps = 1e-8
    rep = sk.solve_saddle(problem, eps, engine="case3", r_x=r_x, r_y=r_y)
    assert rep.converged and rep.extras["attempts"] == 2
    mu_f = rep.extras["outer_modulus"]
    l_f = max(inner_max.EnvelopeGradOracle(problem).l_env, mu_f)
    rho, floor = math.sqrt(mu_f / l_f), eps / 8.0
    assert len(asked) == rep.extras["steps"]
    delta = rho * l_f * r_x * r_x / 8.0
    assert delta > floor
    for cur in asked:
        assert cur == max(delta, floor)
        delta *= 1.0 - rho
    assert asked[-1] == floor and min(asked) >= floor


def test_exact_prox_inner_max_ignores_the_inner_accuracy(asked_deltas, monkeypatch):
    # a bilinear coupling with a prox-friendly h is maximized by one prox, so
    # the accuracy the loop asks for changes nothing: asked for the floor at
    # every step instead, the solve gives the same bytes, over three checks
    inst = sk.gen_bilinear(12, 12, 20.0, seed=5)
    r_x, r_y = _criterion11_radii(inst)
    solve = lambda: sk.solve_saddle(inst.problem(), 1e-8, engine="case1", r_x=r_x, r_y=r_y)
    rep = solve()
    assert rep.converged and rep.extras["steps"] > 16
    assert len(asked_deltas) == rep.extras["steps"] and asked_deltas[0] > 1e-8 / 8.0
    recording = inner_max.EnvelopeGradOracle.grad_and_witness
    monkeypatch.setattr(
        inner_max.EnvelopeGradOracle,
        "grad_and_witness",
        lambda self, x, delta_env, y0=None: recording(self, x, 1e-8 / 8.0, y0),
    )
    floored = solve()
    assert set(asked_deltas[rep.extras["steps"]:]) == {1e-8 / 8.0}
    assert floored.x_final.tobytes() == rep.x_final.tobytes()
    assert floored.y_final.tobytes() == rep.y_final.tobytes()
    assert floored.tally == rep.tally and floored.certified_gap == rep.certified_gap


def test_exact_prox_constant_holds_on_a_curved_partial_max():
    # P > 0 with Q = 0 keeps the inner max one exact prox while g gains
    # curvature: its Hessian P + A'A / mu_y stays within l_xx + l_xy^2 / mu_y,
    # the constant both routes step with, and both certify near the saddle
    base = sk.gen_quadratic_saddle(20, 20, 30.0, seed=3)
    inst = sk.SaddleInstance(base.a, base.b, 1.0, 1.0, 50.0 * base.p_diag, np.zeros(20))
    spec = inst.problem().spec
    assert inner_max.EnvelopeGradOracle(inst.problem()).exact_prox and spec.l_xx > 0.0
    l_g = spec.l_xx + spec.l_xy**2 / spec.mu_y
    a = inst.a
    assert np.linalg.eigvalsh(np.diag(inst.p_diag) + a.T @ a / inst.mu_y)[-1] <= l_g
    rng = np.random.default_rng(606)
    for _ in range(40):
        u, v = rng.standard_normal((2, 20))
        secant = np.linalg.norm(inst.g_grad(u) - inst.g_grad(v)) / np.linalg.norm(u - v)
        assert secant <= l_g
    r_x, r_y = _criterion11_radii(inst)
    for engine, l_f in (("case1", l_g), ("case2", l_g + spec.l_x)):
        rep = sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=r_x, r_y=r_y)
        assert rep.converged and rep.certified_gap <= 1e-6
        rho = math.sqrt(rep.extras["outer_modulus"] / l_f)
        assert rep.extras["check_every"] == max(16, math.ceil(2.0 / rho))
        dist = math.hypot(
            float(np.linalg.norm(rep.x_final - inst.closed_form_x)),
            float(np.linalg.norm(rep.y_final - inst.closed_form_y)),
        )
        assert dist <= 1e-3


# Matvecs and certificates of the criterion-8 games on case1.  Criterion 8
# checks only their slope; a change to the check interval, or to what a
# failing certificate costs, moves these.
CRITERION8_CASE1 = [(1e2, 270, 6), (1e3, 916, 7), (1e4, 3222, 8)]


@pytest.mark.parametrize("kappa, matvecs, attempts", CRITERION8_CASE1)
def test_criterion8_games_check_every_two_e_folds(kappa, matvecs, attempts, monkeypatch):
    # the loop hands (x, y_bar) to duality_gap every ceil(2 / sqrt(q)) steps,
    # at least 16, q = mu_f / L with L = l_xx + l_xy^2 / mu_y on this
    # exact-prox route, and logs each certificate's gap as one history row;
    # only the last certificate passes
    certs = []
    duality_gap = saddle.duality_gap

    def recording(*args, **kwargs):
        certs.append(duality_gap(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(saddle, "duality_gap", recording)
    inst = sk.gen_smoothed_game(50, kappa, seed=808)
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(inst.problem(), 1e-6, engine="case1", r_x=r_x, r_y=r_y)
    mu, spec = rep.extras["outer_modulus"], inst.problem().spec
    l_f = max(spec.l_xx + spec.l_xy**2 / spec.mu_y, mu)
    check_every = max(16, math.ceil(2.0 / math.sqrt(mu / l_f)))
    assert rep.converged
    assert (rep.tally.count(OracleKind.MATVEC), rep.extras["attempts"]) == (matvecs, attempts)
    assert rep.extras["check_every"] == check_every
    assert rep.extras["steps"] == attempts * check_every
    assert [row.gap for row in rep.history] == [cert.gap for cert in certs]
    assert all(cert.gap > 1e-6 for cert in certs[:-1])
    assert certs[-1] is rep.extras["certificate"]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_case4_certifies_at_unit_moduli(seed):
    # smooth r and smooth h with mu_x = mu_y = 1: every outer gradient is a
    # grad_h inner max at the loop's scheduled accuracy, and the averaged witness
    # certifies within a few hundred matvecs
    inst = sk.gen_quadratic_saddle(6, 5, 10.0, seed=seed)
    problem = inst.problem()
    problem.prox_friendly_h = False
    rep = sk.solve_saddle(problem, 1e-6, engine="case4", r_x=10.0, r_y=10.0)
    assert rep.extras["engine"] == "case4"
    assert rep.converged and rep.certified_gap <= 1e-6
    assert rep.tally.count(OracleKind.MATVEC) <= 500
    dist = math.hypot(
        float(np.linalg.norm(rep.x_final - inst.closed_form_x)),
        float(np.linalg.norm(rep.y_final - inst.closed_form_y)),
    )
    assert dist <= 1e-3


@pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4])
def test_understated_envelope_constant_fails_closed(kappa):
    # the exact-prox route steps with L = l_xx + l_xy^2 / mu_y; a coupling
    # constant understated by sqrt(8) understates L by 8 and the steps
    # diverge; the solve must end unconverged with the reason named, not
    # certify the blown-up pair
    inst = sk.gen_smoothed_game(50, kappa, seed=808)
    problem = inst.problem()
    problem.spec = replace(problem.spec, l_xy=problem.spec.l_xy / math.sqrt(8.0))
    r_x, r_y = _criterion11_radii(inst)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = sk.solve_saddle(problem, 1e-6, engine="case1", r_x=r_x, r_y=r_y)
    assert not rep.converged
    assert rep.certified_gap == math.inf
    assert "not finite" in rep.extras["error"]


@pytest.mark.parametrize("mu", [4.0, 1.0])
@pytest.mark.parametrize("engine, flags", [
    ("case1", (True, True)), ("case2", (False, True)),
    ("case3", (True, False)), ("case4", (False, False)),
])
def test_understated_inexact_route_constant_never_certifies_a_wrong_point(
    engine, flags, mu, monkeypatch
):
    # off the exact-prox route the loop steps with the bundle's envelope
    # constant oracle.l_env; an eighth of it is unsound, so whatever the steps
    # do, the certificate must stand between them and the answer: each solve
    # ends unconverged, or certified and near the closed-form saddle.  At
    # mu = 4 the steps still contract and every solve certifies; at mu = 1
    # they diverge, and only the certificate keeps the solves from passing
    built = []
    init = inner_max.EnvelopeGradOracle.__init__

    def understated(self, problem):
        init(self, problem)
        self.l_env /= 8.0
        built.append(self)

    monkeypatch.setattr(inner_max.EnvelopeGradOracle, "__init__", understated)
    for seed in range(4):
        inst = sk.gen_quadratic_saddle(20, 20, 30.0, seed=seed, mu_x=mu, mu_y=mu)
        problem = inst.problem()
        problem.prox_friendly_r, problem.prox_friendly_h = flags
        r_x, r_y = _criterion11_radii(inst)
        built.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            rep = sk.solve_saddle(problem, 1e-6, engine=engine, r_x=r_x, r_y=r_y)
        assert built and not built[0].exact_prox
        assert built[0].l_env == 2.0 * sk.effective_smoothness(problem.spec) / 8.0
        if rep.converged:
            assert rep.certified_gap <= 1e-6
            dist = math.hypot(
                float(np.linalg.norm(rep.x_final - inst.closed_form_x)),
                float(np.linalg.norm(rep.y_final - inst.closed_form_y)),
            )
            assert dist <= 1e-3


def test_first_non_finite_iterate_stops_the_loop():
    # a prox_r that turns NaN at its fifth call: the loop stops on that
    # step, before its first check, and certifies nothing
    problem = sk.gen_bilinear(6, 5, 10.0, seed=1).problem()
    prox_r, calls = problem.prox_r, [0]

    def failing_prox_r(c1, c2):
        calls[0] += 1
        v = prox_r(c1, c2)
        return v if calls[0] < 5 else np.full_like(v, np.nan)

    problem.prox_r = failing_prox_r
    rep = sk.solve_saddle(problem, 1e-6, engine="case1", r_x=10.0, r_y=10.0)
    assert not rep.converged and rep.certified_gap == math.inf
    assert rep.extras["error"] == "iterate not finite after 5 steps"
    assert rep.extras["steps"] == 5 and rep.extras["attempts"] == 0
    assert rep.tally.count(OracleKind.PROX_R) == 5
    assert rep.extras["certificate"] is None
    assert rep.history == []  # the route raised before any certificate


def test_exhausted_step_budget_fails_closed(monkeypatch):
    # the case2 row of PINNED_ATTEMPT_TALLIES passes on its second check; a
    # budget below one check interval allows only the first, which fails
    monkeypatch.setattr(saddle, "STEP_BUDGET", 1e-3)
    inst = sk.gen_bilinear(6, 6, 10.0, seed=4)
    problem = inst.problem()
    problem.prox_friendly_r = False
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(problem, 1e-6, r_x=r_x, r_y=r_y)
    assert not rep.converged
    assert rep.extras["attempts"] == 1
    assert rep.extras["steps"] == rep.extras["check_every"]
    assert rep.certified_gap == rep.extras["certificate"].gap > 1e-6
    assert "error" not in rep.extras


@pytest.mark.parametrize("seed", range(6))
def test_splitting_route_passes_the_benchmark_gate(seed):
    # seeded quadratic saddles on case2 (even seeds) and case4 (odd seeds):
    # certified to 1e-6 and within 1e-3 of the closed-form saddle
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(10, 31))
    inst = sk.gen_quadratic_saddle(
        n, n, float(rng.uniform(10.0, 50.0)), seed=100 + seed, mu_x=4.0, mu_y=4.0
    )
    problem = inst.problem()
    problem.prox_friendly_r, problem.prox_friendly_h = False, seed % 2 == 0
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(problem, 1e-6, r_x=r_x, r_y=r_y)
    assert rep.extras["engine"] == ("case2" if seed % 2 == 0 else "case4")
    assert rep.converged and rep.certified_gap <= 1e-6
    dist = math.hypot(
        float(np.linalg.norm(rep.x_final - inst.closed_form_x)),
        float(np.linalg.norm(rep.y_final - inst.closed_form_y)),
    )
    assert dist <= 1e-3


# (prox_friendly_r, prox_friendly_h) of each case, set on the problem as the
# benchmark's split workload sets them
CASE_FLAGS = {"case1": (True, True), "case2": (False, True), "case3": (True, False),
              "case4": (False, False)}


@pytest.mark.parametrize("seed", range(4))  # none of these instances tuned the schedule
@pytest.mark.parametrize("case", list(CASE_FLAGS))
def test_coarse_early_inner_solves_still_certify(case, seed):
    # the first steps' inner maxima are solved far coarser than eps / 8; the
    # returned pair must still be certified and near the closed-form saddle
    rng = np.random.default_rng([seed, 24])
    n, m = (int(v) for v in rng.integers(4, 31, size=2))
    mu = float(rng.choice([1.0, 4.0]))
    inst = sk.gen_quadratic_saddle(
        n, m, float(rng.uniform(5.0, 50.0)), seed=200 + seed, mu_x=mu, mu_y=mu
    )
    problem = inst.problem()
    problem.prox_friendly_r, problem.prox_friendly_h = CASE_FLAGS[case]
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(problem, 1e-6, r_x=r_x, r_y=r_y)
    assert rep.extras["engine"] == case
    assert rep.converged and rep.certified_gap <= 1e-6
    dist = math.hypot(
        float(np.linalg.norm(rep.x_final - inst.closed_form_x)),
        float(np.linalg.norm(rep.y_final - inst.closed_form_y)),
    )
    assert dist <= 1e-3


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("label", ["r_x", "r_y"])
def test_bad_radius_is_rejected_by_name(label, radius):
    tally = sk.OracleTally()
    p = sk.gen_bilinear(4, 4, 5.0, seed=1, mu_x=4, mu_y=4).problem()
    radii = {"r_x": 10.0, "r_y": 10.0, label: radius}
    with pytest.raises(sk.InvalidSpecError, match=label):
        sk.solve_saddle(Metered(p, tally), 1e-6, **radii)
    assert tally.snapshot() == {}


# route -> (instance, engine, flags set on the problem); auto runs case1 here
MISSING_ORACLE_ROUTES = {
    "auto": (lambda: sk.gen_bilinear(6, 5, 10.0, seed=1), "auto", {}),
    "case2": (lambda: sk.gen_quadratic_saddle(6, 5, 10.0, seed=1), "case2", {"prox_friendly_r": False}),
    "case3": (lambda: sk.gen_quadratic_saddle(6, 5, 10.0, seed=1), "case3", {"prox_friendly_h": False}),
    "mirror_prox": (lambda: sk.gen_bilinear(6, 5, 10.0, seed=1), "mirror_prox", {}),
}


@pytest.mark.parametrize("oracle", ["grad_r", "grad_h", "grad_x_F", "grad_y_F"])
@pytest.mark.parametrize("route", list(MISSING_ORACLE_ROUTES))
def test_missing_oracle_is_refused_before_any_call(route, oracle):
    # the certificate needs all four gradients on every route: the solve must
    # say so up front, not after the route has spent its budget
    gen, engine, flags = MISSING_ORACLE_ROUTES[route]
    p = gen().problem()
    for name, value in flags.items():
        setattr(p, name, value)
    setattr(p, oracle, None)
    tally = sk.OracleTally()
    with pytest.raises(sk.UnsupportedProblemError, match=f"needs the {oracle} oracle"):
        sk.solve_saddle(Metered(p, tally), 1e-6, engine=engine, r_x=10.0, r_y=10.0)
    assert tally.snapshot() == {}


def test_prox_r_route_without_prox_r_is_refused_before_any_call():
    # validate() accepts it (r is not declared prox-friendly), the route does not
    p = sk.gen_bilinear(6, 5, 10.0, seed=1).problem()
    p.prox_friendly_r, p.prox_r = False, None
    tally = sk.OracleTally()
    with pytest.raises(sk.UnsupportedProblemError, match="needs the prox_r oracle"):
        sk.solve_saddle(Metered(p, tally), 1e-6, engine="case1", r_x=10.0, r_y=10.0)
    assert tally.snapshot() == {}


@pytest.mark.parametrize("engine", ["case1", "case2", "case3", "case4"])
def test_one_inner_max_per_solve(engine, monkeypatch):
    # the witness solve reuses the outer oracle and its inner problem
    built = []
    init = inner_max.EnvelopeGradOracle.__init__

    def counting_init(self, mp):
        built.append(mp)
        init(self, mp)

    monkeypatch.setattr(inner_max.EnvelopeGradOracle, "__init__", counting_init)
    inst = sk.gen_quadratic_saddle(6, 6, 10.0, seed=3, mu_x=4.0, mu_y=4.0)
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(inst.problem(), 1e-8, engine=engine, r_x=r_x, r_y=r_y)
    assert rep.converged
    assert len(built) == 1


@pytest.mark.parametrize("engine", ["case1", "case2", "case3", "case4"])
def test_accelerated_loop_builds_no_bundle(engine, monkeypatch):
    # the loop reads (gradient, witness) pairs: no InexactGrad, no value closure
    built = []
    bundle = inner_max.InexactGrad

    def counting(*args, **kwargs):
        built.append(1)
        return bundle(*args, **kwargs)

    monkeypatch.setattr(inner_max, "InexactGrad", counting)
    inst = sk.gen_quadratic_saddle(6, 6, 10.0, seed=3, mu_x=4.0, mu_y=4.0)
    problem = inst.problem()
    problem.prox_friendly_h = engine in ("case1", "case2")
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(problem, 1e-8, engine=engine, r_x=r_x, r_y=r_y)
    assert rep.converged and rep.extras["engine"] == engine and rep.extras["steps"] > 0
    assert built == []
    sk.inexact_grad_g(problem, np.ones(6), 1e-6)  # the public bundle still goes through the counted class
    assert len(built) == 1


@pytest.mark.parametrize("requested, ran", [("case3", "case1"), ("case4", "case2")])
def test_engine_names_the_case_that_ran(requested, ran):
    # h is treated as prox_friendly_h says whatever case was asked for, so a
    # "smooth h" request on a prox-friendly h runs, and reports, its prox case
    inst = sk.gen_quadratic_saddle(8, 8, 10.0, seed=0, mu_x=4, mu_y=4)
    r_x, r_y = _criterion11_radii(inst)
    reps = {
        engine: sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=r_x, r_y=r_y)
        for engine in (requested, ran)
    }
    assert reps[requested].extras["engine"] == ran
    assert reps[requested].tally.count(OracleKind.PROX_H) > 0
    assert reps[requested].tally == reps[ran].tally


@pytest.mark.parametrize("engine", ["auto", "case4", "mirror_prox"])
def test_exhausted_inner_budget_fails_closed(engine):
    # a coupling gradient that turns NaN midway makes an inner or certificate
    # solve give up; the solve must come back unconverged, not raise
    p = sk.gen_quadratic_saddle(4, 4, 5.0, seed=1, mu_x=4, mu_y=4).problem()
    grad_y_F, calls = p.grad_y_F, [0]

    def failing_grad_y_F(x, y):
        calls[0] += 1
        return grad_y_F(x, y) if calls[0] <= 10 else np.full(len(y), np.nan)

    p.grad_y_F = failing_grad_y_F
    rep = sk.solve_saddle(p, 1e-6, engine=engine, r_x=10.0, r_y=10.0)
    assert not rep.converged
    assert rep.certified_gap == math.inf
    assert rep.extras["certificate"] is None
    assert "not finite" in rep.extras["error"]
    assert rep.x_final.shape == (4,) and rep.y_final.shape == (4,)


@pytest.mark.parametrize("engine", ["auto", "mirror_prox"])
def test_understated_radius_fails_closed(engine):
    # radii a tenth of the saddle's distance from the centers put the saddle
    # outside the restriction balls; the certificate then goes negative, which
    # no valid radius allows, and must not pass as converged
    base = sk.gen_bilinear(6, 5, 10.0, seed=3)
    inst = sk.bilinear_instance(base.a, 50.0 * base.b)
    r = 0.1 * math.hypot(np.linalg.norm(inst.closed_form_x), np.linalg.norm(inst.closed_form_y))
    rep = sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=r, r_y=r)
    assert not rep.converged
    assert rep.certified_gap == math.inf
    assert rep.extras["certificate"].gap < 0.0
    assert "r_x or r_y" in rep.extras["error"]


def _on_balls(inst):
    """The instance's problem on balls of half its saddle's norms, both sides by gradients."""
    problem = inst.problem()
    problem.prox_friendly_r = problem.prox_friendly_h = False
    for name, closed_form in (("set_x", inst.closed_form_x), ("set_y", inst.closed_form_y)):
        radius = 0.5 * float(np.linalg.norm(closed_form))
        setattr(problem.spec, name, sk.EuclideanBall(np.zeros(len(closed_form)), radius))
    return problem


def _soundness_grid():
    """(problem, radii) of seeded solves whose loops hand out failing pairs."""
    for gen in (sk.gen_bilinear, sk.gen_quadratic_saddle):
        for seed, (prox_r, prox_h) in enumerate(CASE_FLAGS.values()):
            inst = gen(6 + seed, 6, 10.0, seed=seed)
            problem = inst.problem()
            problem.prox_friendly_r, problem.prox_friendly_h = prox_r, prox_h
            yield problem, _criterion11_radii(inst)
    yield _on_balls(sk.gen_quadratic_saddle(8, 8, 10.0, seed=3)), (None, None)


def _recorded_checks(monkeypatch):
    """Every (problem, x, y, r_x, r_y, inner_eps, target, certificate) the certify loop computes."""
    checks = []
    duality_gap = saddle.duality_gap

    def recording(mp, x, y, r_x, r_y, inner_eps, *, target=None):
        cert = duality_gap(mp, x, y, r_x, r_y, inner_eps, target=target)
        checks.append((mp.problem, x.copy(), y.copy(), r_x, r_y, inner_eps, target, cert))
        return cert

    monkeypatch.setattr(saddle, "duality_gap", recording)
    return checks


def test_early_failing_certificates_are_sound(monkeypatch):
    # a pair settled from the two sides' starts would also fail the full
    # solves, and its gap bounds theirs from above up to 2 inner_eps; every
    # other pair gets the full solves' certificate, field for field
    checks = _recorded_checks(monkeypatch)
    for problem, (r_x, r_y) in _soundness_grid():
        rep = sk.solve_saddle(problem, 1e-6, r_x=r_x, r_y=r_y)
        assert rep.converged
    early = 0
    for problem, x, y, r_x, r_y, inner_eps, target, cert in checks:
        full = sk.duality_gap(problem, x, y, r_x, r_y, inner_eps)
        if cert.inner_accuracy == inner_eps:
            assert cert == full
        else:
            early += 1
            assert full.gap > target
            assert cert.gap >= full.gap - 2.0 * inner_eps
            assert cert.gap >= cert.primal_value - cert.dual_value > target
    assert 0 < early < len(checks)


@pytest.mark.parametrize("seed, case", list(enumerate(CASE_FLAGS)))
def test_early_failing_certificates_change_no_result(seed, case, monkeypatch):
    # settling a failing pair early only skips work: with the early decision
    # off (no target reaches duality_gap) the solve returns the same pair,
    # certificate, checks and steps, for more matvecs
    inst = sk.gen_quadratic_saddle(6 + seed, 6, 10.0, seed=seed)
    r_x, r_y = _criterion11_radii(inst)

    def solve():
        problem = inst.problem()
        problem.prox_friendly_r, problem.prox_friendly_h = CASE_FLAGS[case]
        return sk.solve_saddle(problem, 1e-6, r_x=r_x, r_y=r_y)

    settled = solve()
    duality_gap = saddle.duality_gap
    monkeypatch.setattr(saddle, "duality_gap", lambda *args, target=None: duality_gap(*args))
    full = solve()
    assert settled.converged and settled.extras["engine"] == case
    assert settled.x_final.tobytes() == full.x_final.tobytes()
    assert settled.y_final.tobytes() == full.y_final.tobytes()
    assert settled.certified_gap == full.certified_gap
    for key in ("attempts", "steps", "certificate"):
        assert settled.extras[key] == full.extras[key]
    assert settled.tally.count(OracleKind.MATVEC) < full.tally.count(OracleKind.MATVEC)


def test_nan_value_falls_through_to_the_full_certificate():
    # a NaN coupling value makes the starts' lower bound NaN: the pair is not
    # settled early, and the full certificate fails closed as it always did
    problem = sk.gen_bilinear(6, 5, 10.0, seed=1).problem()
    problem.value_F = lambda x, y: math.nan
    rep = sk.solve_saddle(problem, 1e-6, engine="case1", r_x=10.0, r_y=10.0)
    assert not rep.converged and rep.certified_gap == math.inf
    assert rep.extras["error"] == "certificate nan is not finite"
    assert rep.extras["attempts"] == 1
    assert rep.extras["certificate"].inner_accuracy == 1e-6 / 8.0


@pytest.mark.parametrize("engine", ["case1", "mirror_prox"])
def test_a_certificate_over_budget_logs_an_inf_row(engine, monkeypatch):
    # the certificate raises: its attempt is counted and logged, at inf
    def exhausted(*args, target=None):
        raise sk.BudgetExceededError("certificate out of budget")

    monkeypatch.setattr(saddle, "duality_gap", exhausted)
    problem = sk.gen_bilinear(4, 4, 5.0, seed=1, mu_x=4, mu_y=4).problem()
    rep = sk.solve_saddle(problem, 1e-6, engine=engine, r_x=10.0, r_y=10.0)
    assert not rep.converged and rep.extras["error"] == "certificate out of budget"
    assert len(rep.history) == rep.extras["attempts"] == 1
    assert rep.history[-1].gap == rep.certified_gap == math.inf


class TestDualityGap:
    def test_at_saddle(self, b1, b1_problem):
        cert = sk.duality_gap(b1_problem, b1.closed_form_x, b1.closed_form_y, 10.0, 10.0, 1e-5)
        assert 0.0 <= cert.gap <= 2e-5 + 1e-12

    def test_at_origin(self, b1_problem):
        cert = sk.duality_gap(b1_problem, np.zeros(2), np.zeros(2), 10.0, 10.0, 1e-6)
        # primal max of -||y||^2/2 is 0; dual min of ||x||^2/2 - <(1,1),x> is -1
        assert cert.primal_value == pytest.approx(0.0, abs=1e-6)
        assert cert.dual_value == pytest.approx(-1.0, abs=1e-6)
        assert cert.gap == pytest.approx(1.0, abs=3e-6)

    def test_positive_off_saddle(self, b1_problem):
        cert = sk.duality_gap(
            b1_problem, np.array([2.0, -1.0]), np.array([-1.0, 2.0]), 10.0, 10.0, 1e-6
        )
        assert cert.gap > 0.1

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["r_x", "r_y", "inner_eps"])
    def test_non_finite_input_rejected_by_name(self, b1, b1_problem, name, value):
        # an infinite radius would certify a gap over an unbounded "restricted" set
        tally = sk.OracleTally()
        args = {"r_x": 1.0, "r_y": 1.0, "inner_eps": 1e-8, name: value}
        with pytest.raises(sk.InvalidSpecError, match=name):
            sk.duality_gap(Metered(b1_problem, tally), b1.closed_form_x, b1.closed_form_y, **args)
        assert tally.snapshot() == {}

    @pytest.mark.parametrize("name", ["mu_x", "mu_y"])
    def test_zero_modulus_rejected_by_name(self, b1, b1_problem, name):
        # checked with the radii: a zero mu_x would otherwise bill grad_h, grad_y_F and a matvec first
        setattr(b1_problem.spec, name, 0.0)
        tally = sk.OracleTally()
        with pytest.raises(sk.InvalidSpecError, match=f"{name} must be finite and positive, got 0.0"):
            sk.duality_gap(Metered(b1_problem, tally), b1.closed_form_x, b1.closed_form_y, 1.0, 1.0, 1e-8)
        assert tally.snapshot() == {}

    @pytest.mark.parametrize("oracle", ["grad_r", "grad_h", "grad_x_F", "grad_y_F"])
    def test_missing_gradient_raises_before_either_side(self, b1, b1_problem, oracle):
        # the primal side would otherwise bill grad_h before it reaches grad_y_F
        setattr(b1_problem, oracle, None)
        tally = sk.OracleTally()
        with pytest.raises(sk.UnsupportedProblemError, match=f"needs the {oracle} oracle"):
            sk.duality_gap(Metered(b1_problem, tally), b1.closed_form_x, b1.closed_form_y, 1.0, 1.0, 1e-8)
        assert tally.snapshot() == {}


class TestPredict:
    def test_est_base(self):
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0)
        pred = sk.predict_complexity(spec, True, True)
        assert pred.formulas["grad_x_coupling"] == pytest.approx(2.0)

    def test_missing_constants_rejected(self):
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0)
        with pytest.raises(sk.InvalidSpecError):
            sk.predict_complexity(spec, False, True)  # smooth r needs l_x

    def test_case1_formulas(self):
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0)
        pred = sk.predict_complexity(spec, True, True)
        assert pred.formulas["bilinear_pf"] == pytest.approx(2.0)
        assert pred.formulas["general_pf"] == pytest.approx(2.0)
        # bilinear structure routes the prox/coupling counts to the bilinear formula
        assert pred.counts[OracleKind.PROX_R] == (pytest.approx(2.0), "bilinear_pf")

    def test_kernel_restricted_product(self):
        spec = sk.SaddleSpec(
            dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0, l_x=1.0, l_y=1.0
        )
        spectral = SpectralInfo(4.0, 1.0, np.zeros((2, 0)))
        pred = sk.predict_complexity(spec, True, True, spectral=spectral)
        assert pred.formulas["kernel_restricted"] == pytest.approx(2.0)

    def test_substitution_only_when_larger(self):
        spec = sk.SaddleSpec(
            dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0, l_x=1.0, l_y=1.0
        )
        small = sk.predict_complexity(spec, True, True, spectral=SpectralInfo(4.0, 0.5, np.zeros((2, 0))))
        assert not small.mu_x_substituted
        big = sk.predict_complexity(spec, True, True, spectral=SpectralInfo(4.0, 9.0, np.zeros((2, 0))))
        assert big.mu_x_substituted
        assert big.formulas["grad_x_coupling"] == pytest.approx(math.sqrt(4.0 / 9.0))

    def test_substitution_needs_the_solve_conditions(self):
        # a nontrivial kernel or a constrained dual set leaves mu_x alone
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0, l_x=1.0, l_y=1.0)
        big = SpectralInfo(4.0, 9.0, np.zeros((2, 0)))
        assert sk.predict_complexity(spec, True, True, spectral=big).mu_x_substituted
        kernel = SpectralInfo(4.0, 9.0, np.ones((2, 1)))
        assert not sk.predict_complexity(spec, True, True, spectral=kernel).mu_x_substituted
        spec.set_y = sk.EuclideanBall(np.zeros(2), 1.0)
        assert not sk.predict_complexity(spec, True, True, spectral=big).mu_x_substituted

    def test_prox_r_with_smooth_h(self):
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0, l_y=4.0)
        pred = sk.predict_complexity(spec, True, False)
        est1 = pred.formulas["grad_x_coupling"]
        assert pred.counts[OracleKind.PROX_R] == (est1, "grad_x_coupling")
        assert pred.counts[OracleKind.GRAD_H] == (pytest.approx(2.0 * est1), "grad_h_smooth")
        assert OracleKind.PROX_H not in pred.counts and OracleKind.GRAD_R not in pred.counts

    def test_smooth_h_needs_l_y(self):
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=1.0, mu_y=1.0, l_xy=2.0)
        with pytest.raises(sk.InvalidSpecError, match="h needs l_y"):
            sk.predict_complexity(spec, True, False)

    def test_general_vs_bilinear_selection(self):
        spec = sk.SaddleSpec(dim_x=2, dim_y=2, mu_x=0.5, mu_y=1.0, l_xx=3.0, l_xy=2.0, l_yy=1.0)
        pred = sk.predict_complexity(spec, True, True)
        assert pred.counts[OracleKind.PROX_R][1] == "general_pf"
        assert pred.formulas["general_pf"] == pytest.approx(3.0 / 0.5)


class TestDualView:
    def test_involution_on_oracles(self, b1_problem):
        dv2 = sk.dual_view(sk.dual_view(b1_problem))
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert dv2.value_F(x, y) == pytest.approx(b1_problem.value_F(x, y))
            assert np.allclose(dv2.grad_x_F(x, y), b1_problem.grad_x_F(x, y))
            assert np.allclose(dv2.grad_y_F(x, y), b1_problem.grad_y_F(x, y))
            assert dv2.value_r(x) == pytest.approx(b1_problem.value_r(x))

    def test_solves_to_swapped_saddle(self, b1, b1_problem):
        dv = sk.dual_view(b1_problem)
        rep = sk.solve_saddle(dv, 1e-6, engine="case1", r_x=3.0, r_y=3.0)
        assert np.linalg.norm(rep.x_final - b1.closed_form_y) <= 1e-3
        assert np.linalg.norm(rep.y_final - b1.closed_form_x) <= 1e-3

    def test_spec_bookkeeping_swap(self):
        spec = sk.SaddleSpec(dim_x=3, dim_y=2, mu_x=1.0, mu_y=2.0, l_xx=0.0, l_yy=5.0, l_xy=1.0)
        inst_problem = sk.SaddleProblem(
            spec=spec,
            value_r=lambda x: 0.0,
            value_h=lambda y: 0.0,
            value_F=lambda x, y: 0.0,
        )
        dv = sk.dual_view(inst_problem)
        assert dv.spec.l_xx == 5.0 and dv.spec.l_yy == 0.0
        assert dv.spec.mu_x == 2.0 and dv.spec.mu_y == 1.0
        assert dv.spec.dim_x == 2 and dv.spec.dim_y == 3
        pred_orig = sk.predict_complexity(spec, True, True)
        pred_dual = sk.predict_complexity(dv.spec, True, True)
        # the self-curvature constants trade places in the predictions
        assert pred_dual.formulas["grad_y_coupling"] != pred_orig.formulas["grad_y_coupling"]


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
def test_non_finite_accuracy_raises_before_any_call(epsilon):
    # an infinite accuracy must never come back converged, and NaN must not
    # surface as a bare ValueError from the restart schedule
    tally = sk.OracleTally()
    p = sk.gen_bilinear(4, 4, 5.0, seed=1, mu_x=4.0, mu_y=4.0).problem()
    with pytest.raises(sk.InvalidSpecError, match="epsilon"):
        sk.solve_saddle(Metered(p, tally), epsilon, r_x=10.0, r_y=10.0)
    assert tally.snapshot() == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_structured_modulus_is_a_lower_bound(seed):
    # with curvature Q the dual part is (l_y + l_yy)-smooth, so the partial max
    # is lambda_min+ / (l_y + l_yy) strongly convex, not lambda_min+ / l_y
    inst = sk.gen_quadratic_saddle(6, 8, 10.0, seed=seed, mu_x=0.01, mu_y=0.1)
    a = inst.a
    hessian = np.diag(inst.mu_x + inst.p_diag) + a.T @ (a.T / (inst.q_diag + inst.mu_y)).T
    true_modulus = float(np.linalg.eigvalsh(hessian)[0])
    r_x, r_y = _criterion11_radii(inst)
    rep = sk.solve_saddle(inst.problem(), 1e-6, engine="case1", r_x=r_x, r_y=r_y)
    assert rep.converged
    mu = rep.extras["outer_modulus"]
    assert inst.mu_x < mu <= true_modulus
    # the prediction substitutes the same modulus
    spec = inst.problem().spec
    pred = sk.predict_complexity(spec, True, True, spectral=inst.spectral)
    assert pred.mu_x_substituted
    est1 = pred.formulas["grad_x_coupling"]
    assert (spec.l_xx + spec.l_xy**2 / spec.mu_y) / est1**2 == pytest.approx(mu, rel=1e-12)
