"""Problem containers, constant bookkeeping and oracle metering.

Everything downstream (inner maximization, fast gradient methods, the
extragradient baseline, the meta-solver) consumes the types defined here:

* :class:`SaddleSpec` is the single home for all declared constants of a
  smooth strongly-convex-strongly-concave problem
  ``min_x max_y { r(x) + F(x,y) - h(y) }``.
* :class:`SaddleProblem` bundles the user-supplied oracles.
* :class:`OracleTally` / :class:`Metered` implement call counting; every
  solver in the package reports how many times each oracle was invoked.
* :class:`RunLog` records a solver run's history rows and builds its
  :class:`SolveReport`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Mapping, Optional

import numpy as np

Vector = np.ndarray


class InvalidSpecError(ValueError):
    """Declared constants are inconsistent or out of range."""


class UnsupportedProblemError(ValueError):
    """The problem lacks an oracle the requested method needs."""


class BudgetExceededError(RuntimeError):
    """An iteration cap was hit before the stopping rule certified success.

    Carries the best iterate seen so far (``best``) and the tally at the
    time of failure, so callers can degrade gracefully.
    """

    def __init__(self, message: str, best=None, tally=None):
        super().__init__(message)
        self.best = best
        self.tally = tally


def require(name: str, value: float, low: float = 0.0, strict: bool = True) -> float:
    """The one input rule: ``value`` must be finite and ``> low`` (``>= low`` unless strict).

    Returns ``value``; otherwise raises :class:`InvalidSpecError` naming
    ``name`` and the offending value.  NaN, infinities, ``None`` and other
    non-numbers always fail.
    """
    try:
        if (low < value < math.inf) if strict else (low <= value < math.inf):
            return value
    except TypeError:  # None or a non-number: not comparable with a float
        pass
    rule = f"{'>' if strict else '>='} {low}" if low else "positive" if strict else "nonnegative"
    raise InvalidSpecError(f"{name} must be finite and {rule}, got {value}")


# ---------------------------------------------------------------------------
# feasible sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AllSpace:
    """Unconstrained set; projection is the identity."""

    def project(self, v: Vector) -> Vector:
        return v


@dataclass(frozen=True, eq=False)
class EuclideanBall:
    """Euclidean ball {v : ||v - center|| <= radius}."""

    center: Vector
    radius: float

    def __post_init__(self):
        require("radius", self.radius)

    def project(self, v: Vector) -> Vector:
        d = v - self.center
        n = float(np.linalg.norm(d))
        if n <= self.radius:
            return v
        return self.center + d * (self.radius / n)


FeasibleSet = AllSpace | EuclideanBall


def set_center(s: FeasibleSet, dim: int) -> Vector:
    if isinstance(s, EuclideanBall):
        return np.array(s.center, dtype=float)
    return np.zeros(dim)


def restrict_to_ball(base: FeasibleSet, radius: float, dim: int) -> FeasibleSet:
    """Intersection of ``base`` with the ball of ``radius`` around ``base``'s own center.

    The two are concentric, so the intersection is the smaller one: ``base``
    itself when it is a ball no larger, else the ball (centered at the
    origin of the ``dim``-dimensional space when ``base`` is all of it).
    """
    if isinstance(base, EuclideanBall) and base.radius <= radius:
        return base
    return EuclideanBall(set_center(base, dim), float(radius))


# ---------------------------------------------------------------------------
# oracle metering
# ---------------------------------------------------------------------------


class OracleKind(enum.Enum):
    GRAD_R = "grad_r"
    GRAD_H = "grad_h"
    GRAD_X_F = "gradx_F"
    GRAD_Y_F = "grady_F"
    PROX_R = "prox_r"
    PROX_H = "prox_h"
    MATVEC = "matvec"

    # identity hash in C: Enum's default hashes the member name in Python on
    # every tally lookup.  Members are singletons, so equality is unchanged.
    __hash__ = object.__hash__


# (kind, key) pairs in the key order of OracleTally.snapshot
_SNAPSHOT_ORDER = tuple((k, k.value) for k in sorted(OracleKind, key=lambda k: k.value))


class OracleTally:
    """Monotone per-kind call counters.

    Counters only ever increase within a run.
    """

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[OracleKind, int] = {}

    def bump(self, kind: OracleKind, n: int = 1) -> None:
        if n > 0:
            counts = self._counts
            counts[kind] = counts.get(kind, 0) + n
        elif n:
            raise ValueError("counters never decrease")

    def count(self, kind: OracleKind) -> int:
        return self._counts.get(kind, 0)

    def snapshot(self) -> dict[str, int]:
        """Plain-dict snapshot keyed by the kind's string value, in key order."""
        counts = self._counts
        return {key: counts[k] for k, key in _SNAPSHOT_ORDER if k in counts}

    def __eq__(self, other) -> bool:
        if not isinstance(other, OracleTally):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"OracleTally({self.snapshot()})"


def counted(fn: Callable, tally: OracleTally, kind: OracleKind) -> Callable:
    """Wrap an oracle closure so each invocation bumps ``tally``."""

    def wrapped(*args):
        tally.bump(kind)
        return fn(*args)

    return wrapped


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------


@dataclass
class SaddleSpec:
    """Declared constants of a saddle instance.

    ``l_xx``, ``l_xy``, ``l_yy`` are the Lipschitz constants of the partial
    gradients of the coupling term; ``l_x`` / ``l_y`` those of the composites'
    gradients (``None`` when the composite is prox-only); ``mu_x`` / ``mu_y``
    the strong convexity/concavity moduli of the composites.  Constants are
    caller-declared, never estimated; the testbed spot-checks them.
    """

    dim_x: int
    dim_y: int
    mu_x: float
    mu_y: float
    l_xx: float = 0.0
    l_xy: float = 0.0
    l_yy: float = 0.0
    l_x: Optional[float] = None
    l_y: Optional[float] = None
    set_x: FeasibleSet = field(default_factory=AllSpace)
    set_y: FeasibleSet = field(default_factory=AllSpace)

    def validate(self) -> None:
        for name in ("dim_x", "dim_y"):
            require(name, getattr(self, name), low=1, strict=False)
        for name in ("l_xx", "l_xy", "l_yy"):
            require(name, getattr(self, name), strict=False)
        for name in ("l_x", "l_y"):
            if getattr(self, name) is not None:
                require(name, getattr(self, name), strict=False)
        for name in ("mu_x", "mu_y"):
            require(name, getattr(self, name))


def effective_smoothness(spec: SaddleSpec) -> float:
    """Smoothness constant L_g of the partial-max function g(x) = max_y {F(x,y)-h(y)}.

    Equals ``l_xx + l_xy^2 / mu_y``; finite whenever ``mu_y > 0``.  The
    maximizer y*(.) is (l_xy / mu_y)-Lipschitz (Nesterov, *Smooth minimization
    of non-smooth functions*, 2005, Thm 1), so grad g = grad_x F(., y*(.)) is
    L_g-Lipschitz.

    An inexact inner max costs exactly a factor 2 on top of L_g.  Let w have
    inner gap at most d (the inner objective is mu_y-strongly convex), take
    v = F(x,w) - h(w), G = grad_x F(x,w) and s = z - x.  Then
    v is in [g(x) - d, g(x)] and e = ||G - grad g(x)|| <= l_xy sqrt(2 d / mu_y),
    so e^2 <= 2 L_g d.  Lower side: g(z) >= F(z,w) - h(w) >= v + <G, s>, as
    F(., w) is convex.  Upper side: g(z) <= v + d + <G, s> + e ||s|| + L_g/2
    ||s||^2 <= v + <G, s> + (2 L_g)/2 ||s||^2 + 2 d, by e ||s|| <= e^2 / (2 L_g)
    + L_g/2 ||s||^2.  So (v, G) is a (2 d, 2 L_g) oracle (Devolder, Glineur &
    Nesterov 2014).  The constant is tight: on a bilinear F with h = mu_y/2
    ||y||^2, w = y* - sqrt(2 d / mu_y) A s / ||A s|| and s along A's top right
    singular vector with ||s|| = sqrt(2 d / L_g), the upper side is an equality.
    """
    return spec.l_xx + spec.l_xy**2 / require("mu_y", spec.mu_y)


@dataclass
class SpectralInfo:
    """Eigendata of the coupling matrix Gram A^T A for bilinear instances."""

    lambda_max: float
    lambda_min_plus: float
    kernel_basis: Vector  # shape (dim_x, k); k = 0 for trivial kernel

    @property
    def kernel_trivial(self) -> bool:
        return self.kernel_basis.shape[1] == 0


@dataclass
class SaddleProblem:
    """Oracle bundle for ``min_x max_y { r(x) + F(x,y) - h(y) }``.

    Value oracles: ``value_r(x)``, ``value_h(y)``, ``value_F(x, y)``.
    Gradient oracles: ``grad_r``, ``grad_h``, ``grad_x_F``, ``grad_y_F``
    (any may be ``None`` if unavailable).  Prox oracles solve the linear-plus-
    quadratic model ``min_{v in Q} <c1, v> + composite(v) + c2 ||v||^2`` and
    must accept any ``c2 >= 0`` (the composite itself is strongly convex).

    Oracles must be pure functions of their inputs; counting is layered on
    per run via :class:`Metered`, so independent runs may execute
    concurrently, each billing its own tally.
    """

    spec: SaddleSpec
    value_r: Callable[[Vector], float]
    value_h: Callable[[Vector], float]
    value_F: Callable[[Vector, Vector], float]
    grad_r: Optional[Callable[[Vector], Vector]] = None
    grad_h: Optional[Callable[[Vector], Vector]] = None
    grad_x_F: Optional[Callable[[Vector, Vector], Vector]] = None
    grad_y_F: Optional[Callable[[Vector, Vector], Vector]] = None
    prox_r: Optional[Callable[[Vector, float], Vector]] = None
    prox_h: Optional[Callable[[Vector, float], Vector]] = None
    prox_friendly_r: bool = False
    prox_friendly_h: bool = False
    # declared matvec cost per gradient/prox oracle call (bilinear instances)
    matvec_cost: Mapping[OracleKind, int] = field(default_factory=dict)
    operator_l: Optional[float] = None  # Lipschitz bound of the stacked VI operator
    spectral: Optional[SpectralInfo] = None

    def validate(self) -> None:
        self.spec.validate()
        if self.prox_friendly_r and self.prox_r is None:
            raise InvalidSpecError("prox_friendly_r set but prox_r oracle missing")
        if self.prox_friendly_h and self.prox_h is None:
            raise InvalidSpecError("prox_friendly_h set but prox_h oracle missing")


GRADIENTS = ("grad_r", "grad_h", "grad_x_F", "grad_y_F")  # what certificates and the VI operator need


def require_oracles(problem: SaddleProblem, *names: str, use: str) -> None:
    """The one oracle rule: ``problem`` must provide every oracle in ``names``;
    otherwise :class:`UnsupportedProblemError("<use> needs the <name> oracle")`."""
    for name in names:
        if getattr(problem, name) is None:
            raise UnsupportedProblemError(f"{use} needs the {name} oracle")


class Metered:
    """Counting view of a :class:`SaddleProblem` bound to one run's tally.

    Gradient and prox calls bump the corresponding counter (plus the declared
    matvec cost, read from the problem once, at construction); a call to an
    oracle the problem lacks raises (:func:`require_oracles`) and counts
    nothing.  Value oracles pass through unmetered: they feed certificates
    and the values of inexact-gradient bundles, not the complexity accounting.

    Every entry point that takes a problem or a view bills the view's tally,
    and a raw problem gets a fresh view (:meth:`of`); a caller who wants the
    count passes ``Metered(problem, tally)``.
    """

    def __init__(self, problem: SaddleProblem, tally: Optional[OracleTally] = None):
        self.problem = problem
        self.tally = tally if tally is not None else OracleTally()
        self._matvecs = {k: problem.matvec_cost.get(k, 0) for k in OracleKind}

    @classmethod
    def of(cls, problem) -> "Metered":
        """``problem`` itself when it is already a view, otherwise a fresh view of it.

        The result bills the view's own tally, so all calls made through it
        are counted in one place: the given view's tally, or the new one.
        """
        return problem if isinstance(problem, Metered) else cls(problem)

    @property
    def spec(self) -> SaddleSpec:
        return self.problem.spec

    def _metered(self, kind: OracleKind, fn, name: str):
        """Return oracle ``fn`` after counting one call; a missing oracle counts nothing."""
        if fn is None:
            require_oracles(self.problem, name, use="a metered call")
        tally = self.tally
        tally.bump(kind)
        mv = self._matvecs[kind]
        if mv:
            tally.bump(OracleKind.MATVEC, mv)
        return fn

    # -- values (unmetered) --
    def value_r(self, x):
        return self.problem.value_r(x)

    def value_h(self, y):
        return self.problem.value_h(y)

    def value_F(self, x, y):
        return self.problem.value_F(x, y)

    def value_S_hat(self, x, y) -> float:
        """F(x, y) - h(y)."""
        return self.problem.value_F(x, y) - self.problem.value_h(y)

    # -- gradients / proxes (metered) --
    def grad_r(self, x):
        return self._metered(OracleKind.GRAD_R, self.problem.grad_r, "grad_r")(x)

    def grad_h(self, y):
        return self._metered(OracleKind.GRAD_H, self.problem.grad_h, "grad_h")(y)

    def grad_x_F(self, x, y):
        return self._metered(OracleKind.GRAD_X_F, self.problem.grad_x_F, "grad_x_F")(x, y)

    def grad_y_F(self, x, y):
        return self._metered(OracleKind.GRAD_Y_F, self.problem.grad_y_F, "grad_y_F")(x, y)

    def prox_r(self, c1, c2):
        return self._metered(OracleKind.PROX_R, self.problem.prox_r, "prox_r")(c1, c2)

    def prox_h(self, c1, c2):
        return self._metered(OracleKind.PROX_H, self.problem.prox_h, "prox_h")(c1, c2)


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------


@dataclass
class HistoryRow:
    """One logged step.  ``gap`` is what the logging driver documents: a true gap,
    a bound, a certificate, a residual or a squared distance (nan for none).
    :func:`~saddlekit.saddle.solve_saddle` logs one row per certificate on every engine."""

    iteration: int
    gap: float
    tally: dict[str, int]
    wall_ms: float


@dataclass
class SolveReport:
    """A run's result: ``certified_gap`` bounds a gap of the returned point (the
    driver says which) or is ``inf``; ``target`` is the finite gap asked for, or None."""

    x_final: Optional[Vector]
    certified_gap: float
    tally: OracleTally
    target: Optional[float]
    history: list[HistoryRow] = field(default_factory=list)
    y_final: Optional[Vector] = None
    wall_ms: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """The one convergence rule: a target that the gap meets (a NaN or inf gap never does)."""
        return self.target is not None and self.certified_gap <= self.target


class RunLog:
    """One solver run's tally, history rows and wall time.

    Every driver logs its rows with :meth:`row` and builds its report with
    :meth:`report`, so the history format lives here alone: the iteration,
    the logged gap, a snapshot of the tally and the milliseconds elapsed
    since the log was created.
    """

    __slots__ = ("tally", "history", "_start")

    def __init__(self, tally: Optional[OracleTally] = None):
        self.tally = tally if tally is not None else OracleTally()
        self.history: list[HistoryRow] = []
        self._start = perf_counter()

    def row(self, iteration: int, gap: float) -> None:
        """Log ``gap`` with the tally as it stands now."""
        snapshot = self.tally.snapshot()
        wall_ms = (perf_counter() - self._start) * 1e3
        self.history.append(HistoryRow(iteration, gap, snapshot, wall_ms))

    def report(self, x, gap: float, target: Optional[float] = None, y=None, **extras) -> SolveReport:
        """The :class:`SolveReport` for certified ``gap`` and ``target``, with the run's rows."""
        wall_ms = (perf_counter() - self._start) * 1e3
        return SolveReport(x, gap, self.tally, target, self.history, y, wall_ms, extras)
