"""Fast gradient method for composite objectives under inexact first-order oracles.

The building block is the accelerated scheme that linearizes the smooth part
and keeps the composite part exact inside the model subproblem

    phi(v) = 1/2 ||v - u||^2 + alpha * ( <grad_smooth(y), v> + composite(v) ),

whose minimizer the caller supplies through ``prox_model``.  With an exact
oracle the trajectory obeys  f(x^N) - f* <= 8 L R^2 / (N+1)^2  with
R^2 = ||x^0 - x*||^2 / 2; a per-call oracle inexactness delta adds 2 N delta.

Three drivers are provided:

* :func:`run_fgm` - a fixed number of accelerated steps;
* :func:`run_restarted_fgm` - the linearly convergent restart wrapper for
  strongly convex objectives under an exact oracle, the reference schedule:
  a known distance bound sizes its block budget, and :func:`certificate`
  decides when it stops and what it reports;
* :func:`solve_to_gap` - restart blocks driven by the computable optimality
  :func:`certificate` instead of a known distance bound (used by inner solvers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    AllSpace,
    BudgetExceededError,
    FeasibleSet,
    OracleTally,
    RunLog,
    SolveReport,
    Vector,
    require,
)


@dataclass
class CompositeObjective:
    """Smooth-plus-composite objective handed to the accelerated drivers.

    ``smooth_grad`` is called once per iteration.  ``prox_model(u, alpha, lin)``
    must return the exact minimizer of the model subproblem above over the
    feasible set.  ``mu`` is the strong-convexity modulus of the *full*
    objective (smooth + composite).
    """

    smooth_grad: Callable[[Vector], Vector]
    l_smooth: float
    mu: float = 0.0
    prox_model: Optional[Callable[[Vector, float, Vector], Vector]] = None
    domain: FeasibleSet = field(default_factory=AllSpace)
    full_value: Optional[Callable[[Vector], float]] = None
    f_star: Optional[float] = None

    def __post_init__(self):
        require("l_smooth", self.l_smooth)
        # a copy (dataclasses.replace) steps on its own domain, not on its original's
        default = CompositeObjective._projected_step
        if self.prox_model is None or getattr(self.prox_model, "__func__", None) is default:
            self.prox_model = self._projected_step

    def _projected_step(self, u: Vector, alpha: float, lin: Vector) -> Vector:
        return self.domain.project(u - alpha * lin)  # the default model step

    @property
    def plain_smooth(self) -> bool:
        """No composite beyond the domain: ``prox_model`` is the default projected step."""
        return self.prox_model == self._projected_step

    def gap_at(self, x: Vector) -> float:
        if self.full_value is None or self.f_star is None:
            return float("nan")
        return self.full_value(x) - self.f_star


def next_alpha(big_a: float, l: float) -> float:
    """Larger root of  l * alpha^2 = big_a + alpha."""
    require("l", l)
    return (1.0 + math.sqrt(1.0 + 4.0 * l * big_a)) / (2.0 * l)


def run_fgm(
    obj: CompositeObjective,
    x0: Vector,
    n: int,
    tally: Optional[OracleTally] = None,
) -> SolveReport:
    """Run ``n`` accelerated steps from ``x0``; ``n = 0`` returns a copy of the start.

    ``certified_gap`` is inf, with no target.  When the objective has a
    value oracle (``obj.full_value``) the history logs one row per step with
    the objective gap (nan without ``obj.f_star``); without one it stays empty.
    An ``n`` below 0 raises :class:`~saddlekit.core.InvalidSpecError` before
    any oracle call (:func:`~saddlekit.core.require`).

    Each step forms ``big_a * x`` once and builds both convex combinations
    ``(alpha * u + big_a * x) / a_next`` from it in place, one new array
    each: the same floating-point operations in the same order as that
    formula, so the iterates are bit for bit the formula's.
    """
    require("n", n, strict=False)
    log = RunLog(tally)
    x = np.array(x0, dtype=float)
    u = x.copy()
    big_a = 0.0
    record = obj.full_value is not None
    for k in range(int(n)):
        alpha = next_alpha(big_a, obj.l_smooth)
        a_next = big_a + alpha
        bx = big_a * x
        y = alpha * u
        y += bx
        y /= a_next
        lin = obj.smooth_grad(y)
        u = obj.prox_model(u, alpha, lin)
        x = alpha * u
        x += bx
        x /= a_next
        big_a = a_next
        if record:
            log.row(k + 1, obj.gap_at(x))
    return log.report(x, float("inf"), big_a=big_a, iterations=int(n))


def restart_budget(l: float, mu: float) -> int:
    """Iterations per restart block, N = ceil(3 sqrt(2 L / mu))."""
    require("l", l)
    require("mu", mu)
    return int(math.ceil(3.0 * math.sqrt(require("2 l / mu", 2.0 * l / mu))))


def restart_count(mu: float, r0_sq: float, epsilon: float) -> int:
    """Scheduled restarts, p = ceil(log2(mu R^2 / eps)), at least one."""
    for name, v in (("mu", mu), ("epsilon", epsilon), ("r0_sq", r0_sq)):
        require(name, v)
    ratio = require("mu r0_sq / epsilon", mu * r0_sq / epsilon, strict=False)
    if ratio <= 1.0:
        return 1
    return max(1, int(math.ceil(math.log2(ratio))))


def run_restarted_fgm(
    obj: CompositeObjective,
    x0: Vector,
    epsilon: float,
    r0: float,
    tally: Optional[OracleTally] = None,
) -> SolveReport:
    """Restarted accelerated method for ``mu``-strongly convex objectives, exact oracle.

    ``r0`` upper-bounds the starting distance ``||x0 - x*||`` and sizes the
    block budget: each restart runs a block of :func:`restart_budget`
    iterations from the last block's point, for at most :func:`restart_count`
    blocks, p.  Under the declared L and mu that budget suffices (N^2 >=
    18 L / mu shrinks the squared distance bound by 4/9 per block), but the
    certificate decides: after every block :func:`certificate` is computed at
    the block's point, and the first bound at most ``epsilon`` stops the run,
    which returns its witness with that bound as ``certified_gap``.  When no
    bound passes (an understated constant, a NaN oracle) the run returns the
    p-th block's certificate, unconverged; a NaN bound reads inf.

    ``extras["smooth_calls"]`` counts the blocks' smooth-gradient calls and
    one per certificate, ``restarts * (block_size + 1)``.  The history logs
    one row per block, its certificate, so the last row is ``certified_gap``.
    ``mu``, ``l_smooth``, ``epsilon`` and ``r0`` are checked by
    :func:`~saddlekit.core.require` before any oracle call.
    """
    require("r0", r0)
    log = RunLog(tally)
    n_j = restart_budget(obj.l_smooth, obj.mu)
    p = restart_count(obj.mu, r0 * r0, epsilon)
    x = np.array(x0, dtype=float)
    for restarts in range(1, p + 1):
        x = run_fgm(obj, x, n_j, tally=log.tally).x_final
        bound, witness = certificate(obj, x)
        if math.isnan(bound):
            bound = float("inf")
        log.row(restarts, bound)
        if bound <= epsilon:
            break
    return log.report(
        witness, bound, epsilon,
        restarts=restarts, block_size=n_j, scheduled_restarts=p,
        smooth_calls=restarts * (n_j + 1),
    )


def certificate(obj: CompositeObjective, x: Vector) -> tuple[float, Vector]:
    """Computable optimality certificate for a strongly convex objective.

    For a plain smooth unconstrained objective this is the gradient bound
    ``||grad f(x)||^2 / (2 mu)`` with witness ``x`` itself.  Otherwise one
    proximal-gradient step ``x+`` is taken and the subgradient at ``x+`` is
    bounded through the step length, giving
    ``gap(x+) <= (l + l_c)^2 ||x+ - x||^2 / (2 mu)``.

    Costs one smooth-gradient call plus (in the composite case) one
    prox-model call; both go through the metered closures.
    """
    require("mu", obj.mu)
    g = obj.smooth_grad(x)
    if obj.plain_smooth and isinstance(obj.domain, AllSpace):
        return float(g @ g) / (2.0 * obj.mu), x
    l_c = max(obj.l_smooth, obj.mu)
    x_plus = obj.prox_model(x, 1.0 / l_c, g)
    step = x_plus - x
    step_sq = float(np.dot(step, step))
    bound = (obj.l_smooth + l_c) ** 2 * step_sq / (2.0 * obj.mu)
    return bound, x_plus


MAX_BLOCKS = 256  # restart blocks solve_to_gap runs before it gives up


def solve_to_gap(
    obj: CompositeObjective,
    x0: Vector,
    target_gap: float,
    tally: Optional[OracleTally] = None,
) -> SolveReport:
    """Drive the objective gap below ``target_gap`` with certified stops.

    Runs restart blocks of the accelerated method, checking the certificate
    after each block; the certificate's witness becomes the next start.  When
    :data:`MAX_BLOCKS` blocks have run first, or a certificate is not finite
    (a NaN or inf oracle value), raises :class:`BudgetExceededError` carrying
    the best iterate.  Its ``certified_gap`` is the certificate of the returned
    witness, with target ``target_gap``.  It keeps no per-block history: the
    number of blocks run is in ``extras["blocks"]`` and, when a block ran,
    their :func:`restart_budget` length in ``extras["block_size"]``.  An objective
    without strong convexity (``mu <= 0``) raises
    :class:`~saddlekit.core.InvalidSpecError` before any oracle call, and so
    does a ``target_gap`` that is not finite and positive.

    A start that already certifies costs one certificate and nothing else:
    no block and no block size.  The start is copied only when the
    certificate hands it back as its witness, so the returned iterate never
    aliases ``x0``.
    """
    require("target_gap", target_gap)
    log = RunLog(tally)
    witness, bound, blocks, n_b = _to_gap(obj, x0, target_gap, log.tally)
    sized = {} if n_b is None else {"block_size": n_b}
    return log.report(witness, bound, target_gap, blocks=blocks, **sized)


def _to_gap(obj: CompositeObjective, x0: Vector, target_gap: float, tally: OracleTally, bound=None):
    """:func:`solve_to_gap` without its report: ``(witness, bound, blocks, block size)``.

    A given ``bound`` is the start's :func:`certificate` bound with ``x0``
    its witness, so the start is not certified a second time.  The block
    size is ``None`` when the start certifies; raises as :func:`solve_to_gap` does.
    """
    witness = x0
    if bound is None:
        x = np.asarray(x0, dtype=float)
        bound, witness = certificate(obj, x)
        if witness is x0:
            witness = x.copy()
    if bound <= target_gap:
        return witness, bound, 0, None
    n_b = restart_budget(max(obj.l_smooth, obj.mu), obj.mu)
    blocks = 0
    while not bound <= target_gap:
        if not math.isfinite(bound):
            raise BudgetExceededError(
                f"certificate {bound} is not finite after {blocks} blocks",
                best=witness,
                tally=tally,
            )
        if blocks >= MAX_BLOCKS:
            raise BudgetExceededError(
                f"certificate still {bound:.3e} > {target_gap:.3e} after {blocks} blocks",
                best=witness,
                tally=tally,
            )
        x = run_fgm(obj, witness, n_b, tally=tally).x_final
        bound, witness = certificate(obj, x)
        blocks += 1
    return witness, bound, blocks, n_b


# ---------------------------------------------------------------------------
# common model subproblems in closed form
# ---------------------------------------------------------------------------


def quadratic_prox_model(
    weight: float,
    center: Optional[Vector] = None,
    lin_term: Optional[Vector] = None,
) -> Callable[[Vector, float, Vector], Vector]:
    """Model-subproblem solver for a quadratic composite over all of space.

    Composite ``c(v) = weight/2 ||v - center||^2 + <lin_term, v>``; the model

        min_v 1/2 ||v - u||^2 + alpha (<lin, v> + c(v))

    has the closed-form minimizer returned here.  The objective stays
    isotropic, so over a Euclidean ball the minimizer is this one projected.
    """

    def prox(u: Vector, alpha: float, lin: Vector) -> Vector:
        num = u - alpha * lin
        if lin_term is not None:
            num = num - alpha * lin_term
        if weight != 0.0:
            if center is not None:
                num = num + alpha * weight * center
            return num / (1.0 + alpha * weight)
        return num

    return prox


def prox_model_from_friendly(
    prox_oracle: Callable[[Vector, float], Vector]
) -> Callable[[Vector, float, Vector], Vector]:
    """Adapt a ``min <c1,v> + composite(v) + c2 ||v||^2`` oracle to the model form.

    Dividing the model objective by alpha gives c1 = lin - u/alpha and
    c2 = 1/(2 alpha).
    """

    def prox(u: Vector, alpha: float, lin: Vector) -> Vector:
        return prox_oracle(lin - u / alpha, 0.5 / alpha)

    return prox
