"""Seeded test instances with closed-form saddle points, plus spectral checks.

Two families:

* bilinear  S(x,y) = mu_x/2 ||x||^2 - <b,x> + <Ax,y> - mu_y/2 ||y||^2, whose
  saddle solves  (mu_x I + A^T A / mu_y) x = b,  y = A x / mu_y;
* quadratic  F(x,y) = <Ax,y> + 1/2 x^T P x - 1/2 y^T Q y (P, Q diagonal PSD),
  exercising nonzero self-curvature constants while keeping a block linear
  solve for the exact saddle.

Every instance carries its spectral data and enough oracles for all engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    AllSpace,
    EuclideanBall,
    FeasibleSet,
    InvalidSpecError,
    OracleKind,
    SaddleProblem,
    SaddleSpec,
    SpectralInfo,
    Vector,
)

KERNEL_TOL = 1e-10


def spectral(a: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(lambda_max, lambda_min_plus, kernel basis) of the Gram matrix A^T A.

    Direct symmetric eigendecomposition; meant for desk-scale matrices.  The
    kernel basis columns span {v : A v = 0}.  A zero matrix has no positive
    eigenvalue and raises.
    """
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    vals, vecs = np.linalg.eigh(gram)
    lam_max = float(vals[-1])
    if lam_max <= KERNEL_TOL:
        raise InvalidSpecError("zero matrix: smallest positive eigenvalue undefined")
    cut = max(KERNEL_TOL, 1e-12 * lam_max)
    positive = vals[vals > cut]
    lam_min_plus = float(positive[0])
    kernel = vecs[:, vals <= cut]
    return lam_max, lam_min_plus, kernel


def _check_moduli(mu_x: float, mu_y: float) -> None:
    for name, mu in (("mu_x", mu_x), ("mu_y", mu_y)):
        if not 0 < mu < math.inf:
            raise InvalidSpecError(f"modulus {name} must be finite and positive, got {mu}")


def _check_conditioning(name: str, value: float) -> None:
    if not 1.0 <= value < math.inf:
        raise InvalidSpecError(f"{name} must be finite and >= 1, got {value}")


def _quadratic_prox(mu: float, domain: FeasibleSet):
    """Oracle for  min_{v in Q} <c1, v> + mu/2 ||v||^2 + c2 ||v||^2.

    The quadratic is isotropic, so over a ball the minimizer is the
    projection of the unconstrained one.
    """

    def prox(c1, c2):
        v = -c1 / (mu + 2.0 * c2)
        return domain.project(v) if isinstance(domain, EuclideanBall) else v

    return prox


@dataclass
class BilinearInstance:
    """Bilinear family member with its closed-form saddle attached."""

    a: np.ndarray
    b: np.ndarray
    mu_x: float
    mu_y: float
    closed_form_x: np.ndarray
    closed_form_y: np.ndarray
    spectral: SpectralInfo
    operator_l: float
    set_x: FeasibleSet = field(default_factory=AllSpace)
    set_y: FeasibleSet = field(default_factory=AllSpace)

    @property
    def dims(self) -> tuple[int, int]:
        m, n = self.a.shape
        return n, m

    def f_value(self, x: Vector) -> float:
        """Primal objective f(x) = r(x) + g(x) in closed form."""
        ax = self.a @ x
        return 0.5 * self.mu_x * float(x @ x) - float(self.b @ x) + float(ax @ ax) / (
            2.0 * self.mu_y
        )

    def f_star(self) -> float:
        return self.f_value(self.closed_form_x)

    def g_value(self, x: Vector) -> float:
        ax = self.a @ x
        return float(ax @ ax) / (2.0 * self.mu_y)

    def g_grad(self, x: Vector) -> Vector:
        return self.a.T @ (self.a @ x) / self.mu_y

    def y_star_of(self, x: Vector) -> Vector:
        return self.a @ x / self.mu_y

    def problem(self) -> SaddleProblem:
        a, b = self.a, self.b
        mu_x, mu_y = self.mu_x, self.mu_y
        n, m = self.dims
        spec = SaddleSpec(
            dim_x=n,
            dim_y=m,
            mu_x=mu_x,
            mu_y=mu_y,
            l_xy=math.sqrt(self.spectral.lambda_max),
            l_x=mu_x,
            l_y=mu_y,
            set_x=self.set_x,
            set_y=self.set_y,
        )
        return SaddleProblem(
            spec=spec,
            value_r=lambda x: 0.5 * mu_x * float(x @ x) - float(b @ x),
            value_h=lambda y: 0.5 * mu_y * float(y @ y),
            value_F=lambda x, y: float(y @ (a @ x)),
            grad_r=lambda x: mu_x * x - b,
            grad_h=lambda y: mu_y * y,
            grad_x_F=lambda x, y: a.T @ y,
            grad_y_F=lambda x, y: a @ x,
            prox_r=_prox_bilinear_r(mu_x, b, self.set_x),
            prox_h=_quadratic_prox(mu_y, self.set_y),
            prox_friendly_r=True,
            prox_friendly_h=True,
            matvec_cost={OracleKind.GRAD_X_F: 1, OracleKind.GRAD_Y_F: 1},
            operator_l=self.operator_l,
            spectral=self.spectral,
        )


def _prox_bilinear_r(mu_x: float, b: np.ndarray, domain: FeasibleSet):
    # r(x) = mu_x/2 ||x||^2 - <b, x>
    def prox(c1, c2):
        v = (b - c1) / (mu_x + 2.0 * c2)
        return domain.project(v) if isinstance(domain, EuclideanBall) else v

    return prox


def bilinear_instance(
    a: np.ndarray,
    b: np.ndarray,
    mu_x: float = 1.0,
    mu_y: float = 1.0,
    set_x: Optional[FeasibleSet] = None,
    set_y: Optional[FeasibleSet] = None,
) -> BilinearInstance:
    """Wrap explicit data (A, b, moduli) with its closed-form saddle."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_moduli(mu_x, mu_y)
    m, n = a.shape
    if np.all(a == 0.0):
        # decoupled limit: the partial max is constant in x
        lam_max, lam_min_plus, kernel = 0.0, 0.0, np.eye(n)
    else:
        lam_max, lam_min_plus, kernel = spectral(a)
    x_star = np.linalg.solve(mu_x * np.eye(n) + a.T @ a / mu_y, b)
    y_star = a @ x_star / mu_y
    # Lipschitz constant of the stacked gradient field: the Jacobian is
    # [[mu_x I, A^T], [-A, mu_y I]] with squared singular values
    # mu^2 + sigma_i(A)^2 when mu_x = mu_y
    if abs(mu_x - mu_y) < 1e-15:
        op_l = math.sqrt(mu_x**2 + lam_max)
    else:
        jac = np.block(
            [
                [mu_x * np.eye(n), a.T],
                [-a, mu_y * np.eye(m)],
            ]
        )
        op_l = float(np.linalg.norm(jac, 2))
    return BilinearInstance(
        a=a,
        b=b,
        mu_x=float(mu_x),
        mu_y=float(mu_y),
        closed_form_x=x_star,
        closed_form_y=y_star,
        spectral=SpectralInfo(lam_max, lam_min_plus, kernel),
        operator_l=op_l,
        set_x=set_x if set_x is not None else AllSpace(),
        set_y=set_y if set_y is not None else AllSpace(),
    )


def _seeded_matrix(n: int, m: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """m x n matrix with singular values spanning [1, sqrt(cond)] geometrically."""
    k = min(n, m)
    if k == 1:
        sv = np.array([math.sqrt(cond)])
    else:
        sv = np.geomspace(1.0, math.sqrt(cond), k)
    qu, _ = np.linalg.qr(rng.standard_normal((m, k)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (qu * sv) @ qv.T


def gen_bilinear(
    n: int,
    m: int,
    cond: float,
    seed: int,
    mu_x: float = 1.0,
    mu_y: float = 1.0,
) -> BilinearInstance:
    """Seeded bilinear instance with conditioning lambda_max/lambda_min+ = cond."""
    _check_conditioning("cond", cond)
    rng = np.random.default_rng(seed)
    a = _seeded_matrix(n, m, cond, rng)
    b = rng.standard_normal(n)
    return bilinear_instance(a, b, mu_x, mu_y)


@dataclass
class QuadraticSaddleInstance:
    """Coupling with diagonal self-curvature: F = <Ax,y> + x'Px/2 - y'Qy/2."""

    a: np.ndarray
    p_diag: np.ndarray
    q_diag: np.ndarray
    b: np.ndarray
    mu_x: float
    mu_y: float
    closed_form_x: np.ndarray
    closed_form_y: np.ndarray
    spectral: SpectralInfo
    operator_l: float

    @property
    def dims(self) -> tuple[int, int]:
        m, n = self.a.shape
        return n, m

    def y_star_of(self, x: Vector) -> Vector:
        return (self.a @ x) / (self.q_diag + self.mu_y)

    def g_value(self, x: Vector) -> float:
        ax = self.a @ x
        return 0.5 * float(x @ (self.p_diag * x)) + 0.5 * float(
            ax @ (ax / (self.q_diag + self.mu_y))
        )

    def g_grad(self, x: Vector) -> Vector:
        return self.p_diag * x + self.a.T @ ((self.a @ x) / (self.q_diag + self.mu_y))

    def f_value(self, x: Vector) -> float:
        return 0.5 * self.mu_x * float(x @ x) - float(self.b @ x) + self.g_value(x)

    def f_star(self) -> float:
        return self.f_value(self.closed_form_x)

    def problem(self) -> SaddleProblem:
        a, b = self.a, self.b
        p_diag, q_diag = self.p_diag, self.q_diag
        mu_x, mu_y = self.mu_x, self.mu_y
        n, m = self.dims
        spec = SaddleSpec(
            dim_x=n,
            dim_y=m,
            mu_x=mu_x,
            mu_y=mu_y,
            l_xx=float(p_diag.max(initial=0.0)),
            l_yy=float(q_diag.max(initial=0.0)),
            l_xy=math.sqrt(self.spectral.lambda_max),
            l_x=mu_x,
            l_y=mu_y,
        )
        return SaddleProblem(
            spec=spec,
            value_r=lambda x: 0.5 * mu_x * float(x @ x) - float(b @ x),
            value_h=lambda y: 0.5 * mu_y * float(y @ y),
            value_F=lambda x, y: float(y @ (a @ x))
            + 0.5 * float(x @ (p_diag * x))
            - 0.5 * float(y @ (q_diag * y)),
            grad_r=lambda x: mu_x * x - b,
            grad_h=lambda y: mu_y * y,
            grad_x_F=lambda x, y: a.T @ y + p_diag * x,
            grad_y_F=lambda x, y: a @ x - q_diag * y,
            prox_r=_prox_bilinear_r(mu_x, b, AllSpace()),
            prox_h=_quadratic_prox(mu_y, AllSpace()),
            prox_friendly_r=True,
            prox_friendly_h=True,
            matvec_cost={OracleKind.GRAD_X_F: 1, OracleKind.GRAD_Y_F: 1},
            operator_l=self.operator_l,
            spectral=self.spectral,
        )


def gen_quadratic_saddle(
    n: int,
    m: int,
    cond: float,
    seed: int,
    mu_x: float = 1.0,
    mu_y: float = 1.0,
) -> QuadraticSaddleInstance:
    """Seeded quadratic-coupling instance; the diagonals of P and Q are uniform on [0, 1)."""
    _check_conditioning("cond", cond)
    _check_moduli(mu_x, mu_y)
    rng = np.random.default_rng(seed)
    a = _seeded_matrix(n, m, cond, rng)
    b = rng.standard_normal(n)
    p_diag = rng.uniform(0.0, 1.0, size=n)
    q_diag = rng.uniform(0.0, 1.0, size=m)
    lam_max, lam_min_plus, kernel = spectral(a)
    # saddle by block elimination: y = (Q + mu_y)^{-1} A x
    h_mat = np.diag(mu_x + p_diag) + a.T @ ((a.T / (q_diag + mu_y)).T)
    x_star = np.linalg.solve(h_mat, b)
    y_star = (a @ x_star) / (q_diag + mu_y)
    jac = np.block(
        [
            [np.diag(mu_x + p_diag), a.T],
            [-a, np.diag(mu_y + q_diag)],
        ]
    )
    return QuadraticSaddleInstance(
        a=a,
        p_diag=p_diag,
        q_diag=q_diag,
        b=b,
        mu_x=float(mu_x),
        mu_y=float(mu_y),
        closed_form_x=x_star,
        closed_form_y=y_star,
        spectral=SpectralInfo(lam_max, lam_min_plus, kernel),
        operator_l=float(np.linalg.norm(jac, 2)),
    )


def gen_smoothed_game(n: int, kappa: float, seed: int):
    """Square smoothed-game benchmark instance with conditioning ``kappa``.

    Singular values of A span [1/sqrt(kappa), 1].  Both regularization
    moduli are accuracy-driven and sit well below the smallest Gram
    eigenvalue (0.05 / kappa against 1/kappa), the regime where the partial
    max carries its own strong convexity lambda_min+/l_y and the structured
    pipeline decouples from the tiny moduli, while the stacked operator
    keeps its L/mu handicap.  The seeded payoff shift is loaded onto the
    small-singular-value subspace, where fixed-step extragradient
    iterations genuinely contract at their worst-case rate; elsewhere the
    saddle is trivially zero and would flatter the baseline.  The shift has
    unit norm.
    """
    _check_conditioning("kappa", kappa)
    rng = np.random.default_rng(seed)
    a = _seeded_matrix(n, n, kappa, rng) / math.sqrt(kappa)  # spectrum in [1/kappa, 1]
    mu = 0.05 / kappa
    _, vecs = np.linalg.eigh(a.T @ a)  # ascending eigenvalues
    k_slow = max(2, n // 10)
    b = vecs[:, :k_slow] @ rng.standard_normal(k_slow)
    b = b / max(np.linalg.norm(b), 1e-12)
    return bilinear_instance(a, b, mu_x=mu, mu_y=mu)


# ---------------------------------------------------------------------------
# sampled verification of the induced constants
# ---------------------------------------------------------------------------


@dataclass
class Lemma1Report:
    """Sampled curvature constants of g(x) = max_y {<Ax,y> - h(y)}."""

    lipschitz_empirical: float
    lipschitz_predicted: float
    modulus_empirical: float
    modulus_predicted: float
    grad_kernel_overlap: float  # max |<grad g, kernel direction>| over samples

    @property
    def ok(self) -> bool:
        return (
            self.lipschitz_empirical <= self.lipschitz_predicted * (1.0 + 1e-6)
            and self.modulus_empirical >= self.modulus_predicted * (1.0 - 1e-3)
            and self.grad_kernel_overlap <= 1e-9
        )


def lemma1_check(
    inst: BilinearInstance, l_y: float, samples: int, seed: int = 0
) -> Lemma1Report:
    """Estimate the Lipschitz/strong-convexity constants of the partial max.

    The dual composite is taken as a seeded diagonal quadratic with
    eigenvalues in [mu_y, l_y], so g(x) = (Ax)' H^{-1} (Ax) / 2 in closed
    form.  Over random pairs the gradient's difference quotient must stay
    below lambda_max / mu_y; over pairs projected onto the row space the
    curvature quotient must stay above lambda_min+ / l_y; and every gradient
    must be orthogonal to the kernel of A.
    """
    if l_y < inst.mu_y:
        raise InvalidSpecError("l_y must be at least mu_y")
    rng = np.random.default_rng(seed)
    a = inst.a
    m, n = a.shape
    h_diag = (
        np.full(m, inst.mu_y)
        if l_y == inst.mu_y
        else rng.uniform(inst.mu_y, l_y, size=m)
    )
    if m >= 2:
        h_diag[0], h_diag[-1] = inst.mu_y, l_y

    def grad_g(x):
        return a.T @ ((a @ x) / h_diag)

    kernel = inst.spectral.kernel_basis
    if kernel.shape[1] > 0:
        row_proj = np.eye(n) - kernel @ kernel.T
    else:
        row_proj = np.eye(n)

    lip = 0.0
    mod = float("inf")
    overlap = 0.0
    for _ in range(int(samples)):
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        d = x1 - x2
        dn = float(np.linalg.norm(d))
        if dn < 1e-12:
            continue
        dg = grad_g(x1) - grad_g(x2)
        lip = max(lip, float(np.linalg.norm(dg)) / dn)
        # curvature on the orthogonal complement of the kernel
        x1p, x2p = row_proj @ x1, row_proj @ x2
        dp = x1p - x2p
        dpn_sq = float(dp @ dp)
        if dpn_sq > 1e-16:
            quot = float((grad_g(x1p) - grad_g(x2p)) @ dp) / dpn_sq
            mod = min(mod, quot)
        if kernel.shape[1] > 0:
            overlap = max(overlap, float(np.abs(kernel.T @ grad_g(x1)).max()))
    if not math.isfinite(mod):
        mod = 0.0
    lam_max, lam_min_plus = inst.spectral.lambda_max, inst.spectral.lambda_min_plus
    return Lemma1Report(
        lipschitz_empirical=lip,
        lipschitz_predicted=lam_max / inst.mu_y,
        modulus_empirical=mod,
        modulus_predicted=lam_min_plus / l_y,
        grad_kernel_overlap=overlap,
    )
