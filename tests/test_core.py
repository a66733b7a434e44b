import inspect
import math
import types

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.core import (
    EuclideanBall,
    Metered,
    OracleKind,
    OracleTally,
    counted,
    restrict_to_ball,
    set_center,
)


def spec_with(l_xx=0.0, l_xy=0.0, l_yy=0.0, mu_x=1.0, mu_y=1.0, dim_x=2, dim_y=2, **kw):
    return sk.SaddleSpec(dim_x=dim_x, dim_y=dim_y, mu_x=mu_x, mu_y=mu_y,
                         l_xx=l_xx, l_xy=l_xy, l_yy=l_yy, **kw)


class TestEffectiveSmoothness:
    @pytest.mark.parametrize(
        "l_xx,l_xy,mu_y,expected",
        [(0.0, 2.0, 1.0, 4.0), (5.0, 0.0, 3.0, 5.0), (1.0, 3.0, 2.0, 5.5)],
    )
    def test_values(self, l_xx, l_xy, mu_y, expected):
        assert sk.effective_smoothness(spec_with(l_xx=l_xx, l_xy=l_xy, mu_y=mu_y)) == expected

    def test_nonpositive_mu_y_rejected(self):
        bad = spec_with()
        bad.mu_y = 0.0
        with pytest.raises(sk.InvalidSpecError):
            sk.effective_smoothness(bad)

    def test_monotonicity(self):
        # nondecreasing in l_xx and l_xy, nonincreasing in mu_y
        rng = np.random.default_rng(0)
        for _ in range(200):
            l_xx, l_xy, mu_y = rng.uniform(0.0, 10.0, 2).tolist() + [rng.uniform(0.1, 10.0)]
            base = sk.effective_smoothness(spec_with(l_xx=l_xx, l_xy=l_xy, mu_y=mu_y))
            bump = rng.uniform(0.0, 5.0)
            assert sk.effective_smoothness(spec_with(l_xx=l_xx + bump, l_xy=l_xy, mu_y=mu_y)) >= base
            assert sk.effective_smoothness(spec_with(l_xx=l_xx, l_xy=l_xy + bump, mu_y=mu_y)) >= base
            assert sk.effective_smoothness(spec_with(l_xx=l_xx, l_xy=l_xy, mu_y=mu_y + bump)) <= base


class TestTally:
    def test_snapshot_keys_in_value_order(self):
        t = OracleTally()
        for kind in reversed(list(OracleKind)):
            t.bump(kind, 2)
        keys = list(t.snapshot())
        assert keys == sorted(k.value for k in OracleKind)
        t = OracleTally()
        t.bump(OracleKind.PROX_H)
        t.bump(OracleKind.GRAD_H)
        assert list(t.snapshot()) == ["grad_h", "prox_h"]

    def test_eq_agrees_across_insertion_orders(self):
        kinds = list(OracleKind)
        a, b = OracleTally(), OracleTally()
        for i, kind in enumerate(kinds):
            a.bump(kind, i + 1)
        for i, kind in reversed(list(enumerate(kinds))):
            b.bump(kind, i + 1)
        assert a == b and b == a
        b.bump(kinds[0])  # one more call on one side breaks equality
        assert a != b
        a.bump(kinds[0])
        assert a == b
        assert b.snapshot() == {k.value: i + 1 + (i == 0) for i, k in enumerate(kinds)}
        assert {OracleKind(k.value) for k in kinds} == set(kinds)

    def test_counters_never_decrease(self):
        t = OracleTally()
        with pytest.raises(ValueError):
            t.bump(OracleKind.GRAD_R, -1)

    def test_counted_wrapper(self):
        t = OracleTally()
        calls = [0]

        def fn(x):
            calls[0] += 1
            return x

        wrapped = counted(fn, t, OracleKind.GRAD_H)
        for _ in range(5):
            wrapped(1.0)
        assert calls[0] == 5
        assert t.snapshot() == {"grad_h": 5}


METERED_ORACLES = {
    OracleKind.GRAD_R: "grad_r",
    OracleKind.GRAD_H: "grad_h",
    OracleKind.GRAD_X_F: "grad_x_F",
    OracleKind.GRAD_Y_F: "grad_y_F",
    OracleKind.PROX_R: "prox_r",
    OracleKind.PROX_H: "prox_h",
}
def _oracle_gradient(view, x):
    return sk.EnvelopeGradOracle(view).grad_and_witness(x, 1e-6)[0]


# the entry points that take a problem or a view, each driven once on a view
ENTRY_POINTS = {
    "assemble_saddle_operator": lambda view, x, y: sk.assemble_saddle_operator(view).evaluate(
        np.concatenate([x, y])
    ),
    "duality_gap": lambda view, x, y: sk.duality_gap(view, x, y, 1.0, 1.0, 1e-8),
    "inexact_grad_g": lambda view, x, y: sk.inexact_grad_g(view, x, 1e-6),
    "inexact_grad_from_witness": lambda view, x, y: sk.inexact_grad_from_witness(view, x, y, 1e-6),
    "EnvelopeGradOracle": lambda view, x, y: _oracle_gradient(view, x),
    "solve_saddle": lambda view, x, y: sk.solve_saddle(view, 1e-6, r_x=3.0, r_y=3.0),
}


class TestMetering:
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_tally_matches_independent_counter(self, b1, entry):
        """Each entry point bills the raw closure calls to the tally of the view it is given."""
        problem = b1.problem()
        raw_counts = dict.fromkeys(METERED_ORACLES, 0)

        def raw(kind, fn):
            def call(*args):
                raw_counts[kind] += 1
                return fn(*args)

            return call

        for kind, attr in METERED_ORACLES.items():
            setattr(problem, attr, raw(kind, getattr(problem, attr)))
        tally = OracleTally()
        ENTRY_POINTS[entry](Metered(problem, tally), np.array([1.0, 1.0]), np.array([0.5, -0.5]))
        assert sum(raw_counts.values()) > 0
        assert {k: tally.count(k) for k in METERED_ORACLES} == raw_counts
        coupling = raw_counts[OracleKind.GRAD_X_F] + raw_counts[OracleKind.GRAD_Y_F]
        assert tally.count(OracleKind.MATVEC) == coupling

    def test_missing_oracle_raises(self, b1):
        problem = b1.problem()
        problem.grad_h = None
        with pytest.raises(sk.UnsupportedProblemError):
            Metered(problem).grad_h(np.zeros(2))

    def test_missing_oracle_counts_nothing(self):
        problem = sk.gen_bilinear(3, 3, 2.0, seed=1).problem()
        problem.grad_h = None
        tally = OracleTally()
        with pytest.raises(sk.UnsupportedProblemError):
            Metered(problem, tally).grad_h(np.zeros(3))
        assert tally.snapshot() == {}


class TestDeterminism:
    def test_repeat_runs_bitwise_identical(self, b1):
        reports = []
        for _ in range(2):
            rep = sk.solve_saddle(b1.problem(), 1e-6, engine="case1", r_x=3.0, r_y=3.0)
            reports.append(rep)
        a, b = reports
        assert a.x_final.tobytes() == b.x_final.tobytes()
        assert a.y_final.tobytes() == b.y_final.tobytes()
        rows = [[(row.iteration, row.gap, row.tally) for row in rep.history] for rep in reports]
        assert rows[0] == rows[1] and len(rows[0]) > 0
        assert a.tally == b.tally


def test_exports_resolve_without_duplicates():
    assert len(sk.__all__) == len(set(sk.__all__))
    missing = [name for name in sk.__all__ if not hasattr(sk, name)]
    assert missing == []
    # every public name the package imports is exported, and nothing else
    public = {
        name for name, value in vars(sk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sk.__all__) == public


def test_only_a_view_pairs_a_problem_with_a_tally():
    # every other entry point bills the view it is given, so none may take both
    both = []
    for name in sk.__all__:
        value = getattr(sk, name)
        if not callable(value) or name == "Metered":
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):  # no introspectable signature
            continue
        if {"problem", "tally"} <= set(params):
            both.append(name)
    assert both == []


class TestSets:
    def test_ball_projection(self):
        ball = EuclideanBall(np.zeros(2), 1.0)
        assert np.allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8])
        inside = np.array([0.1, -0.2])
        assert ball.project(inside) is inside

    def test_restrict_to_ball(self):
        # the ball is concentric with the set, so the smaller of the two is the intersection
        ball = restrict_to_ball(sk.AllSpace(), 2.0, 2)
        assert isinstance(ball, EuclideanBall) and ball.radius == 2.0
        assert np.array_equal(ball.center, np.zeros(2))
        inner = EuclideanBall(np.array([3.0, 0.0]), 1.0)
        assert restrict_to_ball(inner, 5.0, 2) is inner
        cut = restrict_to_ball(EuclideanBall(np.array([3.0, 0.0]), 2.0), 1.0, 2)
        assert cut.radius == 1.0 and np.array_equal(cut.center, [3.0, 0.0])

    def test_set_center(self):
        assert np.allclose(set_center(EuclideanBall(np.array([1.0, 2.0]), 1.0), 2), [1.0, 2.0])
        assert np.allclose(set_center(sk.AllSpace(), 3), np.zeros(3))

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_ball_needs_a_positive_radius(self, radius):
        with pytest.raises(sk.InvalidSpecError, match="radius"):
            EuclideanBall(np.zeros(2), radius)


@pytest.mark.parametrize(
    "name, value, match",
    [
        ("dim_x", 0, "dim_x"),
        ("dim_y", -1, "dim_y"),
        ("l_xx", -1.0, "l_xx"),
        ("l_xy", math.nan, "l_xy"),
        ("l_yy", math.inf, "l_yy"),
        ("l_x", -1.0, "l_x"),
        ("l_y", math.nan, "l_y"),
        ("mu_x", 0.0, "mu_x"),
        ("mu_x", math.inf, "mu_x"),
        ("mu_y", -1.0, "mu_y"),
        ("mu_y", math.nan, "mu_y"),
    ],
)
def test_spec_validate_names_the_bad_constant(b1, name, value, match):
    # the spec check runs first in solve_saddle, before any oracle call
    problem = b1.problem()
    problem.spec.validate()
    setattr(problem.spec, name, value)
    with pytest.raises(sk.InvalidSpecError, match=match):
        problem.spec.validate()
    tally = OracleTally()
    with pytest.raises(sk.InvalidSpecError, match=match):
        sk.solve_saddle(Metered(problem, tally), 1e-6, r_x=3.0, r_y=3.0)
    assert tally.snapshot() == {}


@pytest.mark.parametrize("side", ["r", "h"])
def test_problem_validate_needs_the_declared_prox(b1, side):
    problem = b1.problem()
    problem.validate()
    setattr(problem, f"prox_{side}", None)
    with pytest.raises(sk.InvalidSpecError, match=f"prox_friendly_{side} set but prox_{side}"):
        problem.validate()
    tally = OracleTally()
    with pytest.raises(sk.InvalidSpecError, match=f"prox_{side} oracle missing"):
        sk.solve_saddle(Metered(problem, tally), 1e-6, r_x=3.0, r_y=3.0)
    assert tally.snapshot() == {}


class TestMeteredOf:
    def test_passes_a_view_through_and_wraps_a_problem(self, b1, b1_problem):
        tally = OracleTally()
        view = Metered(b1_problem, tally)
        assert Metered.of(view) is view
        wrapped = Metered.of(b1_problem)
        assert wrapped.problem is b1_problem and wrapped.tally is not tally
        assert wrapped.tally.snapshot() == {}
        # a raw problem's calls are billed to a view of it, built by the caller
        raw_tally = OracleTally()
        x, y = b1.closed_form_x, b1.closed_form_y
        sk.duality_gap(Metered(b1_problem, raw_tally), x, y, 1.0, 1.0, 1e-8)
        assert raw_tally.count(OracleKind.GRAD_Y_F) > 0


# ---------------------------------------------------------------------------
# the report contract: converged is derived from the certified gap and target
# ---------------------------------------------------------------------------


def _quadratic_objective():
    d, b = np.array([1.0, 4.0, 20.0]), np.array([1.0, -2.0, 0.5])
    return sk.CompositeObjective(
        smooth_grad=lambda x: d * x - b,
        l_smooth=20.0,
        mu=1.0,
        full_value=lambda x: 0.5 * float(x @ (d * x)) - float(b @ x),
        f_star=-0.5 * float(b @ (b / d)),
    )


def _two_term(g_true):
    """P = 1/2 x'Rx + 1/2 x'Gx - <b,x> with l_r = 1 and a declared l_g = 30."""
    r, g, b = np.array([1.0, 0.7]), np.array([0.5, g_true]), np.array([1.0, -2.0])
    obj = sk.TwoTermObjective(
        value_r=lambda x: 0.5 * float(x @ (r * x)),
        grad_r=lambda x: r * x,
        value_g=lambda x: 0.5 * float(x @ (g * x)) - float(b @ x),
        grad_g=lambda x: g * x - b,
    )
    return obj, sk.SlidingSpec(l_r=1.0, l_g=30.0, mu_r=0.7, mu_g=0.5)


def _mirror_prox(n, with_z_star=False):
    inst = sk.gen_bilinear(5, 4, 10.0, seed=0, mu_x=2.0, mu_y=2.0)
    op = sk.assemble_saddle_operator(inst.problem())
    if n is None:
        return sk.run_restarted_mp(op, np.zeros(9), 1e-4, r0=4.0)
    z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
    return sk.run_mirror_prox(op, np.zeros(9), n, z_star=z_star if with_z_star else None)


def _sliding(solve, epsilon, g_true=30.0):
    obj, spec = _two_term(g_true)
    with np.errstate(all="ignore"):  # an understated l_g overflows the APG loop
        if solve == "catalyst_solve":
            return sk.catalyst_solve(obj, np.zeros(2), epsilon, spec=spec)
        if solve == "apg_inexact_solve":
            return sk.apg_inexact_solve(spec, obj, np.zeros(2), epsilon)
        return sk.sliding_solve(spec, obj, np.zeros(2), epsilon, engine=solve)


def _saddle(engine):
    inst = sk.gen_bilinear(4, 4, 5.0, seed=1, mu_x=4.0, mu_y=4.0)
    return sk.solve_saddle(inst.problem(), 1e-6, engine=engine, r_x=10.0, r_y=10.0)


def _composite(n):
    return sk.composite_gm_solve(_quadratic_objective(), np.zeros(3), n)


# driver -> (its report, the target it must pass: None when it bounds no gap)
REPORTS = {
    "run_fgm": (lambda: sk.run_fgm(_quadratic_objective(), np.zeros(3), 20), None),
    "run_restarted_fgm": (
        lambda: sk.run_restarted_fgm(_quadratic_objective(), np.zeros(3), 1e-8, r0=5.0), 1e-8
    ),
    "solve_to_gap": (lambda: sk.solve_to_gap(_quadratic_objective(), np.zeros(3), 1e-9), 1e-9),
    "apg_inexact_solve": (lambda: _sliding("apg_inexact_solve", 1e-4), None),
    # l_g declared 30, true 1e6: the iterate blows up, and nothing was bounded either way
    "apg_inexact_solve-blown-up": (lambda: _sliding("apg_inexact_solve", 1e-6, 1e6), None),
    "composite_gm_solve": (lambda: _composite(30), None),
    "catalyst_solve": (lambda: _sliding("catalyst_solve", 1e-8), 1e-8),
    "sliding_solve-apg": (lambda: _sliding("apg", 1e-4), None),
    "sliding_solve-catalyst": (lambda: _sliding("catalyst", 1e-8), 1e-8),
    "run_mirror_prox": (lambda: _mirror_prox(50), None),
    "run_mirror_prox-z_star": (lambda: _mirror_prox(50, with_z_star=True), None),
    "run_restarted_mp": (lambda: _mirror_prox(None), None),
    "solve_saddle-auto": (lambda: _saddle("auto"), 1e-6),
    "solve_saddle-case2": (lambda: _saddle("case2"), 1e-6),
    "solve_saddle-mirror_prox": (lambda: _saddle("mirror_prox"), 1e-6),
}


@pytest.mark.parametrize("driver", list(REPORTS))
def test_converged_is_derived_from_a_bounded_gap(driver):
    make, target = REPORTS[driver]
    rep = make()
    assert rep.target == target
    assert rep.converged == (rep.target is not None and rep.certified_gap <= rep.target)
    # no report claims convergence on a gap it did not bound
    assert not (rep.converged and not math.isfinite(rep.certified_gap))
    # a driver without a target bounds nothing
    assert rep.target is not None or rep.certified_gap == math.inf


# drivers whose history rows are their certificates: the last row is the reported gap
CERTIFICATE_ROWS = {
    "run_restarted_fgm": REPORTS["run_restarted_fgm"][0],  # an objective with full_value
    "catalyst_solve": REPORTS["catalyst_solve"][0],
    **{f"solve_saddle-{e.value}": (lambda e=e: _saddle(e.value)) for e in sk.Engine},
}


@pytest.mark.parametrize("driver", list(CERTIFICATE_ROWS))
def test_last_history_row_is_the_certified_gap(driver):
    rep = CERTIFICATE_ROWS[driver]()
    assert rep.history and rep.history[-1].gap.hex() == rep.certified_gap.hex()


def _quadratic_two_term():
    def half_sq(x):
        return 0.5 * float(x @ x)

    return sk.TwoTermObjective(half_sq, lambda x: x, half_sq, lambda x: x)


def _small_game():
    return sk.gen_bilinear(4, 4, 5.0, seed=1, mu_x=4, mu_y=4).problem()


def _plain_objective(mu=1.0):
    return sk.CompositeObjective(smooth_grad=lambda x: x, l_smooth=1.0, mu=mu)


def _operator(mu=1.0):
    return sk.ViOperator(bind=lambda z, out: lambda: z, l=1.0, mu=mu)


# one row per guard: the call, the argument the message names, and the value it shows
INPUT_RULE = {
    "ball-radius": (lambda: EuclideanBall(np.zeros(2), math.inf), "radius", math.inf),
    "spec-mu_x": (lambda: spec_with(mu_x=0.0).validate(), "mu_x", 0.0),
    "spec-l_xy": (lambda: spec_with(l_xy=-1.0).validate(), "l_xy", -1.0),
    "spec-mu_x-None": (lambda: spec_with(mu_x=None).validate(), "mu_x", None),
    "spec-dim_x-None": (lambda: spec_with(dim_x=None).validate(), "dim_x", None),
    "spec-dim_y-nan": (lambda: spec_with(dim_y=math.nan).validate(), "dim_y", math.nan),
    "spec-dim_x-inf": (lambda: spec_with(dim_x=math.inf).validate(), "dim_x", math.inf),
    "effective-mu_y": (lambda: sk.effective_smoothness(spec_with(mu_y=math.nan)), "mu_y", math.nan),
    "objective-l_smooth": (
        lambda: sk.CompositeObjective(smooth_grad=lambda x: x, l_smooth=math.inf), "l_smooth", math.inf
    ),
    "next_alpha-l": (lambda: sk.next_alpha(0.0, -1.0), "l", -1.0),
    "restart_budget-ratio": (lambda: sk.restart_budget(1.0, 1e-320), "2 l / mu", math.inf),
    "restart_count-r0_sq": (lambda: sk.restart_count(1.0, math.inf, 1e-6), "r0_sq", math.inf),
    "run_restarted_fgm-r0": (
        lambda: sk.run_restarted_fgm(_plain_objective(), np.ones(2), 1e-6, math.nan), "r0", math.nan
    ),
    "certificate-mu": (lambda: sk.fgm.certificate(_plain_objective(mu=0.0), np.ones(2)), "mu", 0.0),
    "solve_to_gap-target": (lambda: sk.solve_to_gap(_plain_objective(), np.ones(2), 0.0), "target_gap", 0.0),
    "inner-delta": (
        lambda: sk.EnvelopeGradOracle(Metered(_small_game())).solve(np.ones(4), math.nan), "delta", math.nan
    ),
    "inner-delta_env": (
        lambda: sk.EnvelopeGradOracle(Metered(_small_game())).grad_and_witness(np.ones(4), -1.0),
        "delta_env",
        -1.0,
    ),
    "run_fgm-n": (lambda: sk.run_fgm(_plain_objective(), np.ones(2), -3), "n", -3),
    "composite_gm-n": (lambda: sk.composite_gm_solve(_plain_objective(), np.ones(2), -3), "n", -3),
    "run_mirror_prox-n": (lambda: sk.run_mirror_prox(_operator(), np.ones(2), 0), "n", 0),
    "operator-l": (lambda: sk.ViOperator(bind=None, l=math.nan, mu=0.0), "l", math.nan),
    "restarted_mp-r0": (lambda: sk.run_restarted_mp(_operator(), np.ones(2), 1e-6, r0=-1.0), "r0", -1.0),
    "restarted_mp-ratio": (
        lambda: sk.run_restarted_mp(_operator(mu=1e-320), np.ones(2), 1e-6, r0=1.0), "L / mu", math.inf
    ),
    "duality_gap-inner_eps": (
        lambda: sk.duality_gap(_small_game(), np.zeros(4), np.zeros(4), 1.0, 1.0, 0.0), "inner_eps", 0.0
    ),
    "solve_saddle-epsilon": (lambda: sk.solve_saddle(_small_game(), math.nan), "epsilon", math.nan),
    "solve_saddle-epsilon-None": (lambda: sk.solve_saddle(_small_game(), None), "epsilon", None),
    "solve_saddle-r_y-string": (
        lambda: sk.solve_saddle(_small_game(), 1e-6, r_x=1.0, r_y="wide"), "r_y", "wide"
    ),
    "solve_saddle-r_x": (
        lambda: sk.solve_saddle(_small_game(), 1e-6, r_x=math.inf, r_y=1.0), "r_x", math.inf
    ),
    "sliding-l_r": (lambda: sk.SlidingSpec(l_r=math.nan, l_g=1.0, mu_r=0.5).validate(), "l_r", math.nan),
    "alg5-gap0": (
        lambda: sk.alg5_params(sk.SlidingSpec(1.0, 10.0, 0.5), 1e-6, gap0=math.inf), "gap0", math.inf
    ),
    "catalyst-epsilon": (
        lambda: sk.catalyst_solve(
            _quadratic_two_term(), np.zeros(2), math.nan, sk.SlidingSpec(1.0, 1.0, 0.5)
        ),
        "epsilon",
        math.nan,
    ),
    "gen_bilinear-cond": (lambda: sk.gen_bilinear(3, 3, 0.5, seed=0), "cond", 0.5),
    "lemma1-l_y": (
        lambda: sk.lemma1_check(sk.gen_bilinear(3, 3, 4.0, seed=0), math.nan, 10), "l_y", math.nan
    ),
}


@pytest.mark.parametrize("case", list(INPUT_RULE))
def test_input_rule_message_names_the_argument_and_its_value(case):
    # every finite-and-positive guard is core.require: one message shape
    call, name, value = INPUT_RULE[case]
    with pytest.raises(sk.InvalidSpecError) as err:
        call()
    message = str(err.value)
    assert message.startswith(f"{name} must be finite and "), message
    assert f", got {value}" in message, message

