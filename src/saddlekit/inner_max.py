"""Certified inner maximization and the inexact-gradient bundle it induces.

For fixed x the dual subproblem  max_y { F(x,y) - h(y) }  is mu_y-strongly
concave; a delta-accurate maximizer ``w`` turns ``grad_x F(x, w)`` into an
inexact gradient of the partial-max function

    g(x) = max_y { F(x,y) - h(y) },

satisfying the two-sided model envelope with inexactness 2*delta and envelope
constant 2*L_g, L_g = l_xx + l_xy^2 / mu_y the smoothness of g, together with
the error bound ``||grad - grad g(x)|| <= l_xy sqrt(2 delta / mu_y)``.  Those
two factors 2 are the whole price of the inexact bundle (Devolder, Glineur &
Nesterov 2014), and neither can be lowered for a given delta: the proof and
the equality case are in :func:`~saddlekit.core.effective_smoothness`.  When
the inner max is one exact prox (``exact_prox``) the bundle is g's own
gradient, and the accelerated loop steps with L_g itself.

The accelerated loop reads the lean pair (gradient, witness) of
:meth:`EnvelopeGradOracle.grad_and_witness`.  The bundle of
:func:`inexact_grad_g` and :func:`inexact_grad_from_witness` serves the public
API and the envelope checks; its value F(x, w) - h(w) is evaluated unmetered
when it is built.

The inner objective does not depend on x, so :class:`EnvelopeGradOracle`
builds it once per metered view, with the set center and the envelope
constant, and reuses it for every outer gradient and for every other solve on
the same view.  It keeps no accuracy or warm start between solves: every call
takes both as arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fgm
from .core import (
    Metered,
    SaddleProblem,
    Vector,
    effective_smoothness,
    require,
    set_center,
)


@dataclass
class InexactGrad:
    """A one-point model of g: value, gradient, inexactness, envelope constant.

    ``delta`` is the envelope inexactness (= 2x the inner accuracy actually
    requested), ``l_env`` the envelope constant (= 2x the smoothness of g,
    2 (l_xx + l_xy^2 / mu_y)).
    ``witness_y`` is the approximate inner maximizer behind the bundle, and
    ``value`` is F(x, w) - h(w) at it.
    """

    grad: Vector
    delta: float
    l_env: float
    witness_y: Vector
    value: float


class EnvelopeGradOracle:
    """The inner maximization of one metered view, and the inexact gradients of g it yields.

    Holds the minimization form of the inner problem, phi(y) = h(y) - F(x, y),
    as one :class:`~saddlekit.fgm.CompositeObjective` whose smooth gradient
    reads the base point from ``self.x`` (set by :meth:`solve` before each
    inner solve), together with the x-independent pieces every solve and
    bundle need: the set center, the envelope constant ``l_env`` and the
    exact-prox flag.  It is built once per view and reused for every x.

    With a prox-friendly h the coupling part is the smooth term and h stays
    composite; otherwise h must be smooth (a declared ``l_y``, required) and the whole
    objective is handled as one smooth term over the feasible set.  Its
    gradient calls ``grad_h`` first, so without that oracle the first inner
    solve raises (:func:`~saddlekit.core.require_oracles`) before any call is billed.

    Each :meth:`grad_and_witness` runs one certified inner maximization at the
    given *envelope* inexactness (the inner solver is asked for half of it)
    from the given warm start, and returns the gradient and the witness,
    which the caller may pass as the next warm start.
    Every call bills the given view's tally, as :func:`inexact_grad_g` does
    (``mp.tally`` for a raw problem).
    """

    def __init__(self, problem: SaddleProblem | Metered):
        mp = Metered.of(problem)
        spec = mp.spec
        self.mp = mp
        self.x: Optional[Vector] = None
        self.center = set_center(spec.set_y, spec.dim_y)
        self.l_env = 2.0 * effective_smoothness(spec)
        # constant smooth gradient: the model subproblem IS the inner problem
        self.exact_prox = bool(mp.problem.prox_friendly_h and spec.l_yy == 0.0)
        if mp.problem.prox_friendly_h:
            self.objective = fgm.CompositeObjective(
                smooth_grad=lambda y: -mp.grad_y_F(self.x, y),
                l_smooth=max(spec.l_yy, spec.mu_y),
                mu=spec.mu_y,
                prox_model=fgm.prox_model_from_friendly(mp.prox_h),
                domain=spec.set_y,
            )
        else:
            self.objective = fgm.CompositeObjective(
                smooth_grad=lambda y: mp.grad_h(y) - mp.grad_y_F(self.x, y),
                l_smooth=max(spec.l_yy + require("l_y", spec.l_y), spec.mu_y),
                mu=spec.mu_y,
                domain=spec.set_y,
            )

    def solve(self, x: Vector, delta: float, y0: Optional[Vector] = None) -> Vector:
        """Return a certified delta-accurate maximizer of F(x, .) - h(.).

        The stopping rule never touches g(x) itself: for an unconstrained smooth
        inner problem the gap is bounded by ||grad||^2 / (2 mu_y); in the
        composite or constrained case by the proximal-gradient-mapping analogue.
        When the coupling gradient in y is constant (l_yy = 0) and h is
        prox-friendly, a single prox call solves the subproblem exactly.  Otherwise
        the start is certified first, and restart blocks run only if that fails.

        Raises :class:`~saddlekit.core.BudgetExceededError` (carrying the best
        iterate) if :data:`~saddlekit.fgm.MAX_BLOCKS` blocks run without
        certifying, and :class:`~saddlekit.core.InvalidSpecError` before any
        oracle call if ``delta`` is not finite and positive.
        """
        require("delta", delta)
        mp = self.mp
        x = np.asarray(x, dtype=float)
        if self.exact_prox:
            return mp.prox_h(-mp.grad_y_F(x, self.center), 0.0)
        self.x = x
        start = self.center if y0 is None else y0  # never aliased by the witness
        return fgm._to_gap(self.objective, start, delta, mp.tally)[0]

    def grad_and_witness(
        self, x: Vector, delta_env: float, y0: Optional[Vector] = None
    ) -> tuple[Vector, Vector]:
        """The gradient of g at x and its witness, without a bundle: what the solvers read.

        ``delta_env`` is the envelope inexactness, checked by
        :func:`~saddlekit.core.require` before any call; the inner solve from
        ``y0`` is asked for half of it.
        """
        w = self.solve(x, 0.5 * require("delta_env", delta_env), y0)
        return self.mp.grad_x_F(x, w), w


def inexact_grad_g(
    problem: SaddleProblem | Metered | EnvelopeGradOracle,
    x: Vector,
    delta: float,
    y0: Optional[Vector] = None,
) -> InexactGrad:
    """Inexact-gradient bundle of g at x from a certified inner solve.

    Bills the tally of the given view or oracle; a raw problem gets a fresh
    view.
    """
    oracle = problem if isinstance(problem, EnvelopeGradOracle) else EnvelopeGradOracle(problem)
    return inexact_grad_from_witness(oracle, x, oracle.solve(x, delta, y0), delta)


def inexact_grad_from_witness(
    problem: SaddleProblem | Metered | EnvelopeGradOracle,
    x: Vector,
    witness: Vector,
    delta: float,
) -> InexactGrad:
    """Package a given delta-accurate inner point as an inexact gradient of g.

    Costs one ``grad_x_F`` call, billed as :func:`inexact_grad_g` bills, and
    one unmetered evaluation of F(x, w) - h(w).  ``delta`` must be finite and
    positive (:func:`~saddlekit.core.require`), checked before any call.
    """
    require("delta", delta)
    oracle = problem if isinstance(problem, EnvelopeGradOracle) else EnvelopeGradOracle(problem)
    witness = np.asarray(witness, dtype=float)
    return InexactGrad(
        grad=np.asarray(oracle.mp.grad_x_F(x, witness), dtype=float),
        delta=2.0 * float(delta),
        l_env=oracle.l_env,
        witness_y=witness,
        value=float(oracle.mp.value_S_hat(x, witness)),
    )


def envelope_check(
    exact_g: Callable[[Vector], float],
    ig: InexactGrad,
    x: Vector,
    z: Vector,
    lower_slack: float = 0.0,
) -> bool:
    """Two-sided model-envelope test of an inexact gradient bundle at probe z.

    True iff  0 <= g(z) - [value + <grad, z - x>] <= l_env/2 ||z-x||^2 + delta
    up to a 1e-9 (1 + |g(z)|) slack on the upper side.  ``lower_slack`` loosens
    the lower side for floating-point comparisons against near-exact bundles.
    """
    gz = float(exact_g(np.asarray(z, dtype=float)))
    lhs = gz - (ig.value + float(ig.grad @ (np.asarray(z) - np.asarray(x))))
    d = np.asarray(z, dtype=float) - np.asarray(x, dtype=float)
    rhs = 0.5 * ig.l_env * float(d @ d) + ig.delta + 1e-9 * (1.0 + abs(gz))
    return (lhs >= -abs(lower_slack)) and (lhs <= rhs)
