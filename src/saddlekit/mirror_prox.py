"""Extragradient baseline for the monotone variational-inequality reformulation.

A saddle instance induces the operator

    G(x, y) = ( grad r(x) + grad_x F(x, y),  grad h(y) - grad_y F(x, y) )

on the product feasible set.  The fixed-step two-step extragradient method
with step 1/L satisfies the averaged bound

    (1/N) sum_k <G(w^k), w^k - z>  <=  L ||z - z^0||^2 / (2N)   for all z,

and under strong monotonicity (modulus min(mu_x, mu_y) for saddle-derived
operators) restarting from the averaged point converges linearly at the
O((L/mu) log(1/eps)) operator-evaluation cost this package benchmarks
against.  The restarts end at the first leading point w whose residual
||G(w)||^2 is at most eps mu, and return that point: strong monotonicity
bounds its distance to the solution by ||G(w)|| / mu.  A block that ends
above the threshold hands the next block its last iterate instead of its
average when that bound is the smaller one, so the restarts then follow one
extragradient trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fgm
from .core import (
    GRADIENTS,
    AllSpace,
    FeasibleSet,
    Metered,
    OracleKind,
    OracleTally,
    RunLog,
    SaddleProblem,
    SolveReport,
    Vector,
    require,
    require_oracles,
)

RESIDUAL_CHECK_EVERY = 32  # steps between run_mirror_prox's residual-stop checks
_EPS_MACH = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ProductSet:
    """Cartesian product of two feasible sets over a stacked vector."""

    first: FeasibleSet
    second: FeasibleSet
    dim_first: int

    def project(self, v: Vector) -> Vector:
        a = self.first.project(v[: self.dim_first])
        b = self.second.project(v[self.dim_first :])
        return np.concatenate([a, b])


@dataclass
class ViOperator:
    """Lipschitz (possibly strongly) monotone operator on a feasible set.

    ``bind(z, out)`` is the one hook: it returns a zero-argument evaluator
    that computes the values at whatever ``z`` holds when it is called,
    without billing, writing them into ``out`` when it can, and returns the
    result; the views of ``z`` and ``out`` it needs are made once, at
    binding, so a loop that updates ``z`` in place binds once and calls the
    evaluator every step.  Loops that know how many evaluations they made
    bill them in one go with ``charge(k)``, which bills nothing unless the
    operator's maker bills into ``tally``.  :meth:`evaluate` is one binding
    used once, billed as one evaluation.
    """

    bind: Callable[[Vector, Vector], Callable[[], Vector]]
    l: float
    mu: float
    domain: FeasibleSet = field(default_factory=AllSpace)
    tally: Optional[OracleTally] = None
    charge: Callable[[int], None] = lambda k: None

    def __post_init__(self):
        require("l", self.l)
        require("mu", self.mu, strict=False)

    def evaluate(self, z: Vector) -> Vector:
        """Bill one evaluation and return the values at ``z``, computed into a new array."""
        self.charge(1)
        return self.bind(z, np.empty_like(z, dtype=float))()


def _default_operator_l(spec) -> float:
    """Conservative Lipschitz bound from the declared blockwise constants, l_x and l_y included."""
    row_x = math.hypot(require("l_x", spec.l_x) + spec.l_xx, spec.l_xy)
    row_y = math.hypot(require("l_y", spec.l_y) + spec.l_yy, spec.l_xy)
    return math.hypot(row_x, row_y)


def assemble_saddle_operator(problem: SaddleProblem | Metered) -> ViOperator:
    """Stack the saddle instance's gradients into a monotone operator.

    Requires the gradient oracles of both composites and of the coupling (a
    prox-only composite cannot be driven by the extragradient baseline); a
    missing one raises :class:`~saddlekit.core.UnsupportedProblemError`
    naming it, through :func:`~saddlekit.core.require_oracles`, before any
    call; without ``operator_l``, so does an undeclared ``l_x`` or ``l_y``.
    ``charge(k)`` bills ``k`` calls of each of the four gradients through the
    given view's :meth:`~saddlekit.core.Metered.bill` (a fresh view's for a
    raw problem, read back as ``op.tally``).  Its domain is the
    :class:`ProductSet` of the two sets, or :class:`~saddlekit.core.AllSpace`
    when both are all of space.  The evaluators that ``bind`` returns call
    the raw oracles on the x and y views of ``z``, write the two blocks into
    the views of ``out``, and leave the billing to the caller's ``op.charge``.
    """
    mp = Metered.of(problem)
    p = mp.problem
    require_oracles(p, *GRADIENTS, use="the extragradient operator")
    spec = mp.spec
    nx = spec.dim_x
    kinds = (OracleKind.GRAD_R, OracleKind.GRAD_X_F, OracleKind.GRAD_H, OracleKind.GRAD_Y_F)
    grad_r, grad_h, grad_x_f, grad_y_f = p.grad_r, p.grad_h, p.grad_x_F, p.grad_y_F
    free = isinstance(spec.set_x, AllSpace) and isinstance(spec.set_y, AllSpace)

    def bind(z: Vector, out: Vector) -> Callable[[], Vector]:
        x, y = z[:nx], z[nx:]
        out_x, out_y = out[:nx], out[nx:]

        def evaluate_bound() -> Vector:
            np.add(grad_r(x), grad_x_f(x, y), out=out_x)
            np.subtract(grad_h(y), grad_y_f(x, y), out=out_y)
            return out

        return evaluate_bound

    def charge(k: int) -> None:
        for kind in kinds:
            mp.bill(kind, k)

    return ViOperator(
        bind=bind,
        l=p.operator_l if p.operator_l is not None else _default_operator_l(spec),
        mu=min(spec.mu_x, spec.mu_y),
        domain=AllSpace() if free else ProductSet(spec.set_x, spec.set_y, nx),
        tally=mp.tally,
        charge=charge,
    )


def run_mirror_prox(
    op: ViOperator,
    z0: Vector,
    n: int,
    z_star: Optional[Vector] = None,
    record_every: int = 1,
    residual_sq: Optional[float] = None,
) -> SolveReport:
    """Fixed-step extragradient with leading-point averaging.

    Each iteration takes an extrapolation step and a main step, both with
    step 1/L, at two operator evaluations.  Returns the average of the
    leading points.  Every ``record_every`` iterations and at the last one
    the history logs the running averaged residual
    (1/k) sum <G(w^j), w^j - z_star> when ``z_star`` is supplied, which the
    averaged bound above upper-bounds by L ||z_star - z0||^2 / (2k), and the
    operator norm at the leading point otherwise.  ``record_every=0`` logs
    nothing.  ``certified_gap`` is inf, with no target: nothing is certified.
    ``extras["last_point"]`` is the last iterate z.

    With a threshold ``residual_sq`` the loop tests ||G(w^k)||^2, from the
    evaluation it already made, every :data:`RESIDUAL_CHECK_EVERY` iterations
    and at the last one.  At the first pass it stops, logs a history row when
    it logs any, and returns a copy of that leading point w^k instead of the
    average, with ``iterations`` k and its squared residual in
    ``extras["residual_stop"]`` (None when no check passed).  Without a
    threshold that key is absent and the run is as above.

    The loop evaluates only through ``op.bind``, into buffers it owns: z and
    w are updated in place (a bounded domain projects into them), so it binds
    both evaluations once per call.  It bills the evaluations it made with
    ``op.charge`` before each history row and on the way out, also when an
    evaluation raises (that evaluation is billed too).  The report carries
    ``op.tally``, or a fresh tally when the operator has none.  An ``n``
    below 1 raises :class:`~saddlekit.core.InvalidSpecError` before any
    evaluation (:func:`~saddlekit.core.require`).
    """
    require("n", n, low=1, strict=False)  # from here on the loop runs at least once
    log = RunLog(op.tally)
    z = np.array(z0, dtype=float)
    inv_l = 1.0 / op.l
    domain = op.domain
    project = None if isinstance(domain, AllSpace) else domain.project
    w = np.empty_like(z)
    step = np.empty_like(z)
    at_z, at_w = op.bind(z, np.empty_like(z)), op.bind(w, np.empty_like(z))
    lead_sum = np.zeros_like(z)
    resid_sum = 0.0
    check_every = RESIDUAL_CHECK_EVERY if residual_sq is not None else 0
    stop = None  # the leading point whose residual passed, copied out of w
    unbilled = 0  # evaluations made but not yet charged
    try:
        for k in range(1, int(n) + 1):
            unbilled += 1
            np.subtract(z, np.multiply(inv_l, at_z(), out=step), out=w)
            if project is not None:
                w[...] = project(w)
            unbilled += 1
            gw = at_w()
            np.subtract(z, np.multiply(inv_l, gw, out=step), out=z)
            if project is not None:
                z[...] = project(z)
            lead_sum += w
            if z_star is not None:
                resid_sum += float(gw @ (w - z_star))
            if check_every and (k % check_every == 0 or k == n):
                w_resid_sq = float(gw @ gw)
                if w_resid_sq <= residual_sq:
                    stop = w.copy()
            if record_every and (k % record_every == 0 or k == n or stop is not None):
                op.charge(unbilled)
                unbilled = 0
                log.row(k, resid_sum / k if z_star is not None else float(np.linalg.norm(gw)))
            if stop is not None:
                break
    finally:
        op.charge(unbilled)
    extras = {}
    if residual_sq is not None:
        extras["residual_stop"] = w_resid_sq if stop is not None else None
    return log.report(
        lead_sum / float(k) if stop is None else stop, float("inf"), iterations=k, last_point=z,
        **extras,
    )


def _residual_dist_sq(op: ViOperator, w: Vector, resid_sq: float) -> float:
    """Squared distance bound (||G(w)|| + e)^2 / mu^2 of a point w of the domain.

    Strong monotonicity gives ||w - z*|| <= ||G(w)|| / mu.  ``resid_sq`` is
    the computed ||G(w)||^2; near the solution G(w) is a small difference of
    terms of size about L ||w||, so its rounding error is allowed for by
    e = dim eps_mach L ||w||, without which the bound can fall below the
    distance in the last digits when it is tight.
    """
    e = w.size * _EPS_MACH * op.l * float(np.linalg.norm(w))
    return (math.sqrt(resid_sq) + e) ** 2 / (op.mu * op.mu)


def run_restarted_mp(op: ViOperator, z0: Vector, epsilon: float, r0: float) -> SolveReport:
    """Restarted extragradient under strong monotonicity.

    ``r0`` bounds the starting distance ``||z0 - z*||``.  After
    N = ceil(L/mu) iterations the averaged point satisfies
    mu ||avg - z*||^2 <= L R^2 / (2N) <= mu R^2 / 2, halving the squared
    distance bound ``extras["dist_sq_bound"]``; p = ceil(log2(mu R0^2 / eps))
    restarts bring it to eps / mu.  Each block runs :func:`run_mirror_prox`
    with the residual threshold eps mu, and the first leading point w that
    meets it ends the restarts and is returned.  A block that ends without
    a stop pays one more evaluation, at its last iterate z; when z's own
    bound is below the average's, the next block starts from z, which
    continues the extragradient trajectory instead of resetting it, and
    when z meets the threshold it ends the restarts and is returned.  Since
    z* solves the variational inequality and w lies in the domain,
    mu ||w - z*||^2 <= <G(w), w - z*> <= ||G(w)|| ||w - z*||, so the bound
    of a residual-checked point is :func:`_residual_dist_sq`, about
    ||G(w)||^2 / mu^2; ``dist_sq_bound`` is the returned point's own bound
    alone (the a-priori bound belongs to the block's start, not to w).  No
    duality gap is computed, so ``certified_gap`` is inf, with no target.
    The history logs ``dist_sq_bound`` after every restart.  Each block
    bills ``op.tally`` as :func:`run_mirror_prox` does; the report carries
    that tally, or a fresh one when the operator has none.
    ``epsilon``, ``r0`` (which may be 0) and the block length L / mu are
    checked by :func:`~saddlekit.core.require` before any evaluation.
    """
    require("mu", op.mu)
    require("epsilon", epsilon)
    log = RunLog(op.tally)
    z = np.array(z0, dtype=float)
    require("r0", r0, strict=False)
    n_j = int(math.ceil(require("L / mu", op.l / op.mu)))
    d_sq = r0 * r0
    p = fgm.restart_count(op.mu, d_sq, epsilon) if d_sq > 0 else 1
    for restarts in range(1, p + 1):
        rep = run_mirror_prox(op, z, n_j, record_every=0, residual_sq=epsilon * op.mu)
        w_resid_sq = rep.extras["residual_stop"]
        if w_resid_sq is not None:  # the leading point that met the threshold
            z, d_sq = rep.x_final, _residual_dist_sq(op, rep.x_final, w_resid_sq)
            log.row(restarts, d_sq)
            break
        last = rep.extras["last_point"]
        g = op.evaluate(last)
        last_resid_sq = float(g @ g)
        last_sq = _residual_dist_sq(op, last, last_resid_sq)
        avg_sq = min(d_sq, op.l * d_sq / (2.0 * op.mu * n_j))
        met = last_resid_sq <= epsilon * op.mu
        z, d_sq = (last, last_sq) if met or last_sq < avg_sq else (rep.x_final, avg_sq)
        log.row(restarts, d_sq)
        if met:  # the last iterate met the threshold
            break
    return log.report(
        z, float("inf"),
        restarts=restarts, block_size=n_j, scheduled_restarts=p, dist_sq_bound=d_sq,
    )
