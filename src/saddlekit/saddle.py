"""Meta-solver for min_x max_y { r(x) + F(x,y) - h(y) } with metered oracles.

The saddle problem is driven as the strongly convex minimization of
f(x) = r(x) + g(x), g the partial max, whose inexact gradients come from
certified inner maximizations.  h only shapes those inner solves (its prox
when prox-friendly, its gradient otherwise), so the outer loop follows r:

* ``case1``-``case4``  -> one constant-momentum fast gradient loop, with r
  composite when prox-friendly and folded into the gradient step when
  smooth; its dual witness is the weighted average of the inner maximizers;
* ``mirror_prox``      -> restarted extragradient baseline.

Solves start at the set centers and are certified by a restricted
primal-dual gap over balls around them, computed by two independent
auxiliary solves; a pair whose two starts already bound that gap above
epsilon fails without them.  An inner or certificate solve that exhausts
its budget, a non-finite iterate or certificate, or a certificate below
zero, ends the solve unconverged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fgm, inner_max, mirror_prox
from .core import (
    GRADIENTS,
    AllSpace,
    BudgetExceededError,
    EuclideanBall,
    InvalidSpecError,
    Metered,
    OracleKind,
    RunLog,
    SaddleProblem,
    SaddleSpec,
    SolveReport,
    SpectralInfo,
    Vector,
    effective_smoothness,
    require,
    require_oracles,
    restrict_to_ball,
    set_center,
)


MAX_ATTEMPTS = 10  # resumptions of the extragradient route before it gives up


class Engine(enum.Enum):
    AUTO = "auto"
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"
    MIRROR_PROX = "mirror_prox"


@dataclass
class GapCertificate:
    """Restricted primal-dual gap certificate.

    ``primal_value`` approximates  max_{y in Q_y ∩ B(2 r_y)} S(x, y)  from
    below, ``dual_value``  min_{x in Q_x ∩ B(2 r_x)} S(x, y)  from above;
    both auxiliary solves are certified to ``inner_accuracy``, whose slack is
    folded into ``gap``.  A pair :func:`duality_gap` settles from the two
    starts instead holds their values, ``inner_accuracy`` the larger of
    their certificate bounds and ``gap`` primal - dual plus both bounds, an
    upper bound that still satisfies gap <= primal - dual + 2 inner_accuracy.
    """

    primal_value: float
    dual_value: float
    gap: float
    inner_accuracy: float


@dataclass
class ComplexityPrediction:
    """Closed-form oracle-count predictions (log factors stripped).

    ``counts`` maps each oracle kind to (base count, formula name); every
    evaluated formula also appears in ``formulas``.
    """

    counts: dict[OracleKind, tuple[float, str]]
    formulas: dict[str, float]
    mu_x_substituted: bool = False


def _resolve_engine(problem: SaddleProblem, engine: Engine | str) -> Engine:
    """The case that runs: the requested route (r's flag for ``auto``), h's own flag."""
    eng = Engine(engine) if not isinstance(engine, Engine) else engine
    if eng is Engine.MIRROR_PROX:
        return eng
    if eng is Engine.AUTO:
        prox_r = problem.prox_friendly_r
    else:
        prox_r = eng in (Engine.CASE1, Engine.CASE3)
    if prox_r:
        return Engine.CASE1 if problem.prox_friendly_h else Engine.CASE3
    return Engine.CASE2 if problem.prox_friendly_h else Engine.CASE4


def _structured_modulus(spec: SaddleSpec, spectral: Optional[SpectralInfo]) -> float:
    """Strong convexity of the partial max from a bilinear coupling, or 0 when not sound.

    When the coupling is <Ax, y> plus curvature terms, A has a trivial kernel,
    the dual set is all of space and the dual composite is smooth, g is
    lambda_min+ / (l_y + l_yy) strongly convex (the conjugate of the
    (l_y + l_yy)-smooth dual part, composed with A).  Returns that modulus
    when it exceeds mu_x, otherwise 0; the solve and the prediction both use
    it in place of mu_x; the ``lambda_min_plus`` it reads must be positive.
    """
    if (
        spectral is None
        or spec.l_y is None
        or spec.l_y + spec.l_yy <= 0
        or not spectral.kernel_trivial
        or not isinstance(spec.set_y, AllSpace)
    ):
        return 0.0
    modulus = require("lambda_min_plus", spectral.lambda_min_plus) / (spec.l_y + spec.l_yy)
    return modulus if modulus > spec.mu_x else 0.0


def duality_gap(
    problem: SaddleProblem | Metered,
    x: Vector,
    y: Vector,
    r_x: float,
    r_y: float,
    inner_eps: float,
    *,
    target: Optional[float] = None,
) -> GapCertificate:
    """Certify a candidate pair by two restricted auxiliary solves.

    The primal side maximizes S(x, .) over Q_y intersected with the ball of
    radius 2 r_y around Q_y's center; the dual side minimizes S(., y)
    symmetrically.  Both use the gradients of the composites (a prox-only
    composite would need its feasible set unchanged by the restriction) and
    of the coupling.  A missing one (:func:`~saddlekit.core.require_oracles`),
    or an ``r_x``, ``r_y``, ``inner_eps``, ``mu_x``, ``mu_y``, ``l_x`` or
    ``l_y`` that is not finite and positive, raises before either side spends
    a call.  Both sides bill the tally of the given view (a fresh view for a raw problem).

    ``r_x`` and ``r_y`` bound the saddle's distances from the set centers.
    Then the gap is at least S(x, y*) - S(x*, y) >= 0 (each side is solved to
    ``inner_eps``, and ``2 inner_eps`` is added back), so a negative gap
    proves ``r_x`` or ``r_y`` understated.

    Each side's start is certified first (:func:`~saddlekit.fgm.certificate`,
    primal side first), giving feasible witnesses w_p, w_d with bounds b_p,
    b_d; a side whose start certifies to ``inner_eps`` runs no block, and the
    others resume from their witness.  The restricted gap is at least
    low = [r(x) + S^(x, w_p)] - [r(w_d) + S^(w_d, y)], and so is every gap
    the full solves could return.  So when ``target`` is given and a finite
    low exceeds it, the pair fails without either solve: the certificate
    holds the witnesses' values, ``inner_accuracy`` = max(b_p, b_d) and the
    upper bound ``gap`` = low + b_p + b_d, at least the restricted gap and
    so at least the full gap minus 2 ``inner_eps``.  Otherwise, and always
    without ``target``, the certificate is that of the two full solves.
    """
    mp = Metered.of(problem)
    spec = mp.spec
    for name, v in (
        ("r_x", r_x), ("r_y", r_y), ("inner_eps", inner_eps),
        ("mu_x", spec.mu_x), ("mu_y", spec.mu_y), ("l_x", spec.l_x), ("l_y", spec.l_y),
    ):
        require(name, v)
    require_oracles(mp.problem, *GRADIENTS, use="duality_gap")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def restricted_side(smooth_grad, feasible, dim, radius, l_coupling, l_comp, mu, start):
        """One side over its set intersected with B(center, 2 radius), and its start's certificate."""
        dom = restrict_to_ball(feasible, 2.0 * radius, dim)
        side = fgm.CompositeObjective(
            smooth_grad=smooth_grad,
            l_smooth=max(l_coupling + l_comp, mu),
            mu=mu,
            domain=dom,
        )
        return (side, *fgm.certificate(side, dom.project(start)))

    # primal side: minimize h(v) - F(x, v) over the restricted dual set
    primal_side, b_p, w_p = restricted_side(
        lambda v: mp.grad_h(v) - mp.grad_y_F(x, v),
        spec.set_y, spec.dim_y, r_y, spec.l_yy, spec.l_y, spec.mu_y, y,
    )
    # dual side: minimize r(v) + F(v, y) over the restricted primal set
    dual_side, b_d, w_d = restricted_side(
        lambda v: mp.grad_r(v) + mp.grad_x_F(v, y),
        spec.set_x, spec.dim_x, r_x, spec.l_xx, spec.l_x, spec.mu_x, x,
    )
    r_of_x = mp.value_r(x)
    primal_at = lambda v: float(r_of_x + mp.value_S_hat(x, v))
    dual_at = lambda v: float(mp.value_r(v) + mp.value_S_hat(v, y))
    primal_value = dual_value = None
    if target is not None and math.isfinite(b_p) and math.isfinite(b_d):
        primal_value, dual_value = primal_at(w_p), dual_at(w_d)
        low = primal_value - dual_value
        if math.isfinite(low) and low > target:  # no full solve can pass
            return GapCertificate(primal_value, dual_value, low + b_p + b_d, max(b_p, b_d))

    def settle(side, bound, witness, value_at, start_value):
        """The side's value at its point certified to ``inner_eps``: its start's when that certifies."""
        if bound <= inner_eps and start_value is not None:
            return start_value
        return value_at(fgm._to_gap(side, witness, inner_eps, mp.tally, bound)[0])

    primal_value = settle(primal_side, b_p, w_p, primal_at, primal_value)
    dual_value = settle(dual_side, b_d, w_d, dual_at, dual_value)
    gap = primal_value - dual_value + 2.0 * inner_eps
    return GapCertificate(primal_value, dual_value, gap, float(inner_eps))


def _default_radius(feasible, label: str, r: Optional[float]) -> float:
    if r is not None:
        return float(require(label, r))
    if isinstance(feasible, EuclideanBall):
        return 2.0 * feasible.radius
    raise InvalidSpecError(
        f"{label} (starting-distance bound) is required on unbounded sets"
    )


def solve_saddle(
    problem: SaddleProblem | Metered,
    epsilon: float,
    engine: Engine | str = Engine.AUTO,
    r_x: Optional[float] = None,
    r_y: Optional[float] = None,
) -> SolveReport:
    """Solve to a certified restricted duality gap of at most ``epsilon``.

    Every call, certificates included, bills the tally of the given view; a
    raw problem is billed to a fresh view.  The solve starts at the centers
    of the feasible sets.  ``r_x`` / ``r_y`` bound the saddle's distances
    ``||x* - center||`` and ``||y* - center||`` (defaulting to twice the ball
    radius on bounded sets): they are the starting-distance bounds and fix
    the certificate's restriction balls.  The report carries the pair, the
    last :func:`duality_gap` certificate (its gap is ``certified_gap``,
    target ``epsilon``) and that tally.

    The route only proposes candidate pairs; this loop certifies each and
    stops at the first that passes.  On every engine the history holds one
    row per certificate, numbered from one, with the certificate's gap
    (asked for ``target`` = ``epsilon``, so a failing check that its two
    starts settle logs :func:`duality_gap`'s upper bound, and one that
    exhausts its budget logs inf), and ``extras["attempts"]`` counts the
    certificates.  The prox-r and splitting routes run one accelerated loop
    (:func:`_accelerated_candidates`) within a step budget and report
    ``extras["steps"]`` and ``extras["check_every"]``.  The extragradient
    route (:func:`_extragradient_attempts`) resumes at a tighter accuracy
    for at most :data:`MAX_ATTEMPTS` attempts.  A route
    that runs out of its budget ends the solve unconverged with its last
    certificate.  An inner or certificate solve that exhausts its budget, a
    non-finite iterate or certificate, or a certificate below zero (which
    proves ``r_x`` or ``r_y`` understated) ends the loop with an infinite gap and the message
    in ``extras["error"]``; a negative certificate stays in
    ``extras["certificate"]``.  An explicit ``case*`` engine picks the route
    (r's prox or r's gradient); ``extras["engine"]`` names the case that
    ran, whose h part follows ``prox_friendly_h``.  ``epsilon``, ``r_x`` and
    ``r_y`` are checked by :func:`~saddlekit.core.require` before any oracle
    call, and so are the ``l_x`` and ``l_y`` every certificate steps on; the
    oracles by :func:`~saddlekit.core.require_oracles`: ``grad_r``,
    ``grad_h``, ``grad_x_F`` and ``grad_y_F`` for the certificate, and
    ``prox_r`` on the prox-r route.
    """
    mp = Metered.of(problem)
    problem = mp.problem
    problem.validate()
    spec = problem.spec
    for name, v in (("epsilon", epsilon), ("l_x", spec.l_x), ("l_y", spec.l_y)):
        require(name, v)
    eng = _resolve_engine(problem, engine)
    require_oracles(problem, *GRADIENTS, use="the duality_gap certificate")
    if eng in (Engine.CASE1, Engine.CASE3):
        require_oracles(problem, "prox_r", use=f"the prox-r route ({eng.value})")
    log = RunLog(mp.tally)
    x_cur = set_center(spec.set_x, spec.dim_x)
    y_cur = set_center(spec.set_y, spec.dim_y)
    r_x = _default_radius(spec.set_x, "r_x", r_x)
    r_y = _default_radius(spec.set_y, "r_y", r_y)

    extras = {"engine": eng.value, "attempts": 0}
    if eng is Engine.MIRROR_PROX:
        route = _extragradient_attempts(mp, epsilon, x_cur, y_cur, math.hypot(r_x, r_y))
    else:
        mu_f = max(spec.mu_x, _structured_modulus(spec, problem.spectral))
        extras["outer_modulus"] = mu_f
        route = _accelerated_candidates(mp, eng, epsilon, x_cur, r_x, mu_f, extras)
    cert = None
    attempts = 0
    try:
        for attempts, (x_cur, y_cur) in enumerate(route, 1):
            cert = duality_gap(mp, x_cur, y_cur, r_x, r_y, epsilon / 8.0, target=epsilon)
            log.row(attempts, cert.gap)
            if not math.isfinite(cert.gap):  # an overflowing or NaN oracle value
                extras["error"] = f"certificate {cert.gap} is not finite"
                break
            if cert.gap < 0.0:  # the saddle lies outside the restriction balls
                extras["error"] = f"certified gap {cert.gap:.3e} < 0: r_x or r_y is understated"
                break
            if cert.gap <= epsilon:
                break
    except BudgetExceededError as err:
        cert = None
        extras["error"] = str(err)
        if len(log.history) < attempts:  # the certificate raised, not the route
            log.row(attempts, float("inf"))
    extras["attempts"] = attempts
    gap = float("inf") if "error" in extras else cert.gap
    return log.report(x_cur, gap, epsilon, y=y_cur, certificate=cert, **extras)


STEP_BUDGET = 4.0  # the accelerated loop's step budget, in multiples of its rate bound


def _accelerated_candidates(mp, eng, epsilon, x, r0, mu_f, extras):
    """The prox-r and splitting routes: one accelerated loop, a pair ``(x, y_bar)`` per check.

    Constant momentum (1 - sqrt(q)) / (1 + sqrt(q)), q = ``mu_f`` / L, on
    f = r + g with one ``oracle.grad_and_witness`` per step.  Step k asks for envelope
    accuracy max(epsilon / 8, sqrt(q) L r0^2 (1 - sqrt(q))^k / 8), which
    tightens at the loop's rate (the error it accumulates stays of the order
    of the rate term: Devolder, Glineur & Nesterov, *First-order methods of
    smooth convex optimization with inexact oracle*, 2014) down to the floor
    epsilon / 8; an exact-prox inner max never reads it.  Each inner max
    starts from the last witness.  An exact-prox inner max (prox-friendly h,
    l_yy = 0) gives g's own gradient, and there l_g is g's smoothness
    l_xx + l_xy^2 / mu_y (:func:`~saddlekit.core.effective_smoothness`,
    which also proves the rest); an inexact one gives a
    (2 delta_in, 2 (l_xx + l_xy^2 / mu_y)) oracle, and there l_g is that
    envelope constant, ``oracle.l_env``.  A
    prox-friendly r stays composite (L = max(l_g, mu_f)); a smooth r joins
    g in one projected gradient step (L += l_x).  The dual witness is y_bar,
    the average of the inner maximizers (the witnesses) with weights
    (1 - sqrt(q))^-k: the fast gradient method's estimate sequence is a
    weighted sum of linear models of g, each F(., w_k) - h(w_k) when F is
    linear in x, so y_bar's dual value tracks the primal one (Nesterov
    2005); ``duality_gap`` checks it either way.  A candidate
    is yielded every ceil(2 / sqrt(q)) steps (two e-folds of the rate, at
    least 16) until ``STEP_BUDGET`` / sqrt(q) max(1, ln(L r0^2 / epsilon))
    steps have run; ``extras`` gets ``check_every`` and ``steps``.  The
    first non-finite iterate raises :class:`~saddlekit.core.BudgetExceededError`.
    """
    spec = mp.spec
    oracle = inner_max.EnvelopeGradOracle(mp)
    # a decoupled problem (zero coupling) leaves the partial max flat; any
    # positive constant is then valid
    l_g = effective_smoothness(spec) if oracle.exact_prox else oracle.l_env
    l_f = max(l_g, mu_f)
    if eng in (Engine.CASE1, Engine.CASE3):  # prox-friendly r
        prox = fgm.prox_model_from_friendly(mp.prox_r)
        step = lambda y, g: prox(y, 1.0 / l_f, g)
    else:
        l_f += spec.l_x
        step = lambda y, g: spec.set_x.project(y - (mp.grad_r(y) + g) / l_f)
    rho = math.sqrt(mu_f / l_f)
    beta = (1.0 - rho) / (1.0 + rho)
    check_every = extras["check_every"] = max(16, math.ceil(2.0 / rho))
    budget = STEP_BUDGET / rho * max(math.log(l_f * r0 * r0 / epsilon), 1.0)
    floor = epsilon / 8.0
    delta = rho * l_f * r0 * r0 / 8.0
    x_prev, y_bar, w, s, steps = x, oracle.center, None, 0.0, 0
    while steps < budget:
        for _ in range(check_every):
            y = x + beta * (x - x_prev)
            g, w = oracle.grad_and_witness(y, max(delta, floor), w)
            delta *= 1.0 - rho
            x_prev, x = x, step(y, g)
            s = (1.0 - rho) * s + 1.0
            y_bar = y_bar + (w - y_bar) / s
            steps += 1
            if not np.isfinite(x).all():
                extras["steps"] = steps
                raise BudgetExceededError(f"iterate not finite after {steps} steps", best=x_prev)
        extras["steps"] = steps
        yield x, y_bar


def _extragradient_attempts(mp, epsilon, x, y, r0):
    """Attempts of the restarted extragradient route; resuming divides ``eps_vi`` by 16.

    An attempt whose residual check fires returns a point w (a leading point,
    or a block's last iterate) with ||G(w)||^2 <= ``eps_vi`` mu; on all of space gap(w) <= ``eps_vi`` / 2,
    so the first certificate passes there.  A resumption restarts from the
    returned point, with its ``dist_sq_bound`` as the next ``r0``.  Yields
    the pair ``(x, y)`` at most :data:`MAX_ATTEMPTS` times; the restarts' own
    rows stay in :func:`~saddlekit.mirror_prox.run_restarted_mp`'s reports.
    """
    op = mirror_prox.assemble_saddle_operator(mp)
    z = np.concatenate([x, y])
    nx = mp.spec.dim_x
    eps_vi = epsilon
    for _ in range(MAX_ATTEMPTS):
        rep = mirror_prox.run_restarted_mp(op, z, eps_vi, r0=r0)
        z = rep.x_final
        r0 = math.sqrt(rep.extras["dist_sq_bound"])
        yield z[:nx], z[nx:]
        eps_vi /= 16.0


# ---------------------------------------------------------------------------
# closed-form complexity predictions
# ---------------------------------------------------------------------------


def predict_complexity(
    spec: SaddleSpec,
    prox_friendly_r: bool,
    prox_friendly_h: bool,
    spectral: Optional[SpectralInfo] = None,
) -> ComplexityPrediction:
    """Evaluate the closed-form oracle-count estimates (no log factors).

    With spectral data of a bilinear coupling, mu_x is replaced by the
    structured modulus lambda_min+ / (l_y + l_yy) under the conditions the
    solve uses it (trivial kernel, unconstrained dual set) whenever that
    exceeds it, and the kernel-restricted product formula is also evaluated.
    A spec that fails :meth:`SaddleSpec.validate`, or spectral data whose
    eigenvalues are not finite and positive, raises before any formula.
    """
    spec.validate()
    if spectral is not None:
        for name in ("lambda_max", "lambda_min_plus"):
            require(name, getattr(spectral, name))
    mu_g = _structured_modulus(spec, spectral)
    mu_x, mu_y = max(spec.mu_x, mu_g), spec.mu_y

    formulas: dict[str, float] = {}
    formulas["bilinear_pf"] = spec.l_xy / math.sqrt(mu_x * mu_y)
    formulas["general_pf"] = max(spec.l_xx, spec.l_xy, spec.l_yy) / min(mu_x, mu_y)
    est1 = math.sqrt((spec.l_xx + spec.l_xy**2 / mu_y) / mu_x)
    formulas["grad_x_coupling"] = est1
    formulas["grad_y_coupling"] = est1 * math.sqrt(max(spec.l_yy / mu_y, 1.0))
    if spec.l_y is not None:
        formulas["grad_h_smooth"] = est1 * math.sqrt(spec.l_y / mu_y)
    if spec.l_x is not None:
        formulas["grad_r_smooth"] = math.sqrt(spec.l_x / mu_x)
    formulas["dual_outer"] = math.sqrt(spec.l_yy / mu_y + 2.0 * spec.l_xy**2 / (mu_x * mu_y))
    formulas["extragradient"] = formulas["general_pf"]
    if spectral is not None:
        if spec.l_x is not None and spec.l_y is not None:
            formulas["kernel_restricted"] = math.sqrt(
                spec.l_x
                * spec.l_y
                * spectral.lambda_max
                / (spec.mu_x * spec.mu_y * spectral.lambda_min_plus)
            )

    bilinear = spec.l_xx == 0.0 and spec.l_yy == 0.0
    counts: dict[OracleKind, tuple[float, str]] = {}
    if prox_friendly_r and prox_friendly_h:
        key = "bilinear_pf" if bilinear else "general_pf"
        for kind in (OracleKind.PROX_R, OracleKind.GRAD_X_F, OracleKind.PROX_H, OracleKind.GRAD_Y_F):
            counts[kind] = (formulas[key], key)
    else:
        counts[OracleKind.GRAD_X_F] = (est1, "grad_x_coupling")
        counts[OracleKind.GRAD_Y_F] = (formulas["grad_y_coupling"], "grad_y_coupling")
        if prox_friendly_r:
            counts[OracleKind.PROX_R] = (est1, "grad_x_coupling")
        else:
            if "grad_r_smooth" not in formulas:
                raise InvalidSpecError("non-prox-friendly r needs l_x for predictions")
            counts[OracleKind.GRAD_R] = (formulas["grad_r_smooth"], "grad_r_smooth")
        if prox_friendly_h:
            counts[OracleKind.PROX_H] = (formulas["grad_y_coupling"], "grad_y_coupling")
        else:
            if "grad_h_smooth" not in formulas:
                raise InvalidSpecError("non-prox-friendly h needs l_y for predictions")
            counts[OracleKind.GRAD_H] = (formulas["grad_h_smooth"], "grad_h_smooth")
    if bilinear and "kernel_restricted" in formulas:
        counts[OracleKind.MATVEC] = (formulas["kernel_restricted"], "kernel_restricted")

    for name, value in formulas.items():
        require(f"prediction {name}", value)
    return ComplexityPrediction(counts=counts, formulas=formulas, mu_x_substituted=mu_g > 0)


# ---------------------------------------------------------------------------
# the role-swapped view
# ---------------------------------------------------------------------------


def dual_view(problem: SaddleProblem) -> SaddleProblem:
    """Role-swapped problem: minimize over the old dual variable.

    The swapped coupling is F'(u, v) = -F(v, u); solving the view and
    negating the value recovers the same saddle pair with roles exchanged.
    The view keeps ``coupling_matvecs``, and applying the swap twice
    restores the original problem.
    """
    spec = problem.spec
    new_spec = replace(
        spec,
        dim_x=spec.dim_y,
        dim_y=spec.dim_x,
        mu_x=spec.mu_y,
        mu_y=spec.mu_x,
        l_xx=spec.l_yy,
        l_yy=spec.l_xx,
        l_x=spec.l_y,
        l_y=spec.l_x,
        set_x=spec.set_y,
        set_y=spec.set_x,
    )
    return SaddleProblem(
        spec=new_spec,
        value_r=problem.value_h,
        value_h=problem.value_r,
        value_F=lambda u, v: -problem.value_F(v, u),
        grad_r=problem.grad_h,
        grad_h=problem.grad_r,
        grad_x_F=(
            (lambda u, v: -problem.grad_y_F(v, u)) if problem.grad_y_F is not None else None
        ),
        grad_y_F=(
            (lambda u, v: -problem.grad_x_F(v, u)) if problem.grad_x_F is not None else None
        ),
        prox_r=problem.prox_h,
        prox_h=problem.prox_r,
        prox_friendly_r=problem.prox_friendly_h,
        prox_friendly_h=problem.prox_friendly_r,
        coupling_matvecs=problem.coupling_matvecs,
        operator_l=problem.operator_l,
        spectral=None,  # kernel data does not transfer without the matrix itself
    )
