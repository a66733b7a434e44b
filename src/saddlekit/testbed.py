"""Seeded test instances with closed-form saddle points, plus spectral checks.

One family, :class:`SaddleInstance`:

    S(x,y) = mu_x/2 ||x||^2 - <b,x> + <Ax,y> + 1/2 x'Px - 1/2 y'Qy - mu_y/2 ||y||^2

with P, Q diagonal PSD, whose saddle solves the block system
(mu_x I + P + A' (mu_y I + Q)^{-1} A) x = b, y = (mu_y I + Q)^{-1} A x.
The bilinear instances (:func:`bilinear_instance`, :func:`gen_bilinear`,
:func:`gen_smoothed_game`) are its P = Q = 0 member; :func:`gen_quadratic_saddle`
draws nonzero self-curvature.  Every instance carries its spectral data and
enough oracles for all engines.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .core import (
    InvalidSpecError,
    OracleKind,
    SaddleProblem,
    SaddleSpec,
    SpectralInfo,
    Vector,
    require,
)

KERNEL_TOL = 1e-10


def _gram_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A^T A, its eigenvalues ascending, their eigenvectors): the one factorization."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    vals, vecs = np.linalg.eigh(gram)
    return gram, vals, vecs


def _spectral_of(vals: np.ndarray, vecs: np.ndarray) -> tuple[float, float, np.ndarray]:
    """:func:`spectral` read off an eigendecomposition of A^T A."""
    lam_max = float(vals[-1])
    if lam_max <= KERNEL_TOL:
        raise InvalidSpecError("zero matrix: smallest positive eigenvalue undefined")
    cut = max(KERNEL_TOL, 1e-12 * lam_max)
    positive = vals[vals > cut]
    lam_min_plus = float(positive[0])
    kernel = vecs[:, vals <= cut]
    return lam_max, lam_min_plus, kernel


def spectral(a: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(lambda_max, lambda_min_plus, kernel basis) of the Gram matrix A^T A.

    Direct symmetric eigendecomposition; meant for desk-scale matrices.  The
    kernel basis columns span {v : A v = 0}.  A zero matrix has no positive
    eigenvalue and raises.
    """
    _, vals, vecs = _gram_eigh(a)
    return _spectral_of(vals, vecs)


def _prox(mu: float, b: Optional[np.ndarray] = None):
    """Oracle for  min_v <c1 - b, v> + mu/2 ||v||^2 + c2 ||v||^2  (b = 0 when None).

    Serves r (with b) and h (without).
    """
    return lambda c1, c2: (-c1 if b is None else b - c1) / (mu + 2.0 * c2)


@dataclass
class SaddleInstance:
    """Seeded instance with its closed-form saddle attached.

    S(x,y) = r(x) + <Ax,y> + x'Px/2 - y'Qy/2 - h(y) with r(x) = mu_x/2 ||x||^2
    - <b,x>, h(y) = mu_y/2 ||y||^2 and diagonal P, Q >= 0 (``p_diag``,
    ``q_diag``).  Construction attaches the spectral data, the closed-form
    saddle and ``operator_l``; the problem is posed on all of space, where
    the closed forms hold.  The bilinear family is the P = Q = 0 member;
    its oracles and closed forms leave the curvature terms out rather than
    adding zeros.

    The spectral data and the bilinear closed form share one Gram product
    A^T A and its one eigendecomposition.  A generator that has already
    factored A^T A hands over (gram, eigenvalues, eigenvectors), exactly as
    ``_gram_eigh`` returns them, through the private keyword ``_factor``;
    otherwise construction factors it.  The factorization is not kept.
    """

    a: np.ndarray
    b: np.ndarray
    mu_x: float
    mu_y: float
    p_diag: np.ndarray
    q_diag: np.ndarray
    closed_form_x: np.ndarray = field(init=False)
    closed_form_y: np.ndarray = field(init=False)
    spectral: SpectralInfo = field(init=False)
    operator_l: float = field(init=False)
    _factor: InitVar[Optional[tuple]] = field(default=None, kw_only=True)

    def __post_init__(self, _factor):
        mu_x, mu_y = float(require("mu_x", self.mu_x)), float(require("mu_y", self.mu_y))
        self.mu_x, self.mu_y = mu_x, mu_y
        a, p_diag, q_diag = self.a, self.p_diag, self.q_diag
        if np.ndim(a) != 2:
            raise InvalidSpecError(f"a must be a 2-D matrix, got shape {np.shape(a)}")
        m, n = a.shape
        for name, shape in (("b", (n,)), ("p_diag", (n,)), ("q_diag", (m,))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise InvalidSpecError(f"{name} must have shape {shape}, got {got}")
        gram, vals, vecs = _gram_eigh(a) if _factor is None else _factor
        if np.all(a == 0.0):
            # decoupled limit: the coupling has no spectrum
            self.spectral = SpectralInfo(0.0, 0.0, np.eye(n))
        else:
            self.spectral = SpectralInfo(*_spectral_of(vals, vecs))
        # saddle by block elimination: y = (Q + mu_y)^{-1} A x
        if self.bilinear:
            h_mat = mu_x * np.eye(n) + gram / mu_y
        else:
            h_mat = np.diag(mu_x + p_diag) + a.T @ ((a.T / (q_diag + mu_y)).T)
        self.closed_form_x = np.linalg.solve(h_mat, self.b)
        self.closed_form_y = self.y_star_of(self.closed_form_x)
        # Lipschitz constant of the stacked gradient field, the spectral norm of
        # the Jacobian [[mu_x I + P, A^T], [-A, mu_y I + Q]]; for P = Q = 0 and
        # mu_x = mu_y its squared singular values are mu^2 + sigma_i(A)^2
        if self.bilinear and abs(mu_x - mu_y) < 1e-15:
            self.operator_l = math.sqrt(mu_x**2 + self.spectral.lambda_max)
        else:
            jac = np.block([[np.diag(mu_x + p_diag), a.T], [-a, np.diag(mu_y + q_diag)]])
            self.operator_l = float(np.linalg.norm(jac, 2))

    @property
    def dims(self) -> tuple[int, int]:
        m, n = self.a.shape
        return n, m

    @property
    def bilinear(self) -> bool:
        """True for the P = Q = 0 member."""
        return not (self.p_diag.any() or self.q_diag.any())

    def y_star_of(self, x: Vector) -> Vector:
        return (self.a @ x) / (self.q_diag + self.mu_y)

    def g_value(self, x: Vector) -> float:
        ax = self.a @ x
        if self.bilinear:
            return float(ax @ ax) / (2.0 * self.mu_y)
        y = ax / (self.q_diag + self.mu_y)
        return 0.5 * float(x @ (self.p_diag * x)) + 0.5 * float(ax @ y)

    def g_grad(self, x: Vector) -> Vector:
        if self.bilinear:
            return self.a.T @ (self.a @ x) / self.mu_y
        return self.p_diag * x + self.a.T @ self.y_star_of(x)

    def problem(self) -> SaddleProblem:
        a, at, b = self.a, self.a.T, self.b  # one transposed view for both grad_x_F closures
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
        if self.bilinear:
            value_f, grad_x_f, grad_y_f = (
                lambda x, y: float(y @ (a @ x)),
                lambda x, y: at @ y,
                lambda x, y: a @ x,
            )
        else:
            value_f, grad_x_f, grad_y_f = (
                lambda x, y: float(y @ (a @ x))
                + 0.5 * float(x @ (p_diag * x))
                - 0.5 * float(y @ (q_diag * y)),
                lambda x, y: at @ y + p_diag * x,
                lambda x, y: a @ x - q_diag * y,
            )
        return SaddleProblem(
            spec=spec,
            value_r=lambda x: 0.5 * mu_x * float(x @ x) - float(b @ x),
            value_h=lambda y: 0.5 * mu_y * float(y @ y),
            value_F=value_f,
            grad_r=lambda x: mu_x * x - b,
            grad_h=lambda y: mu_y * y,
            grad_x_F=grad_x_f,
            grad_y_F=grad_y_f,
            prox_r=_prox(mu_x, b),
            prox_h=_prox(mu_y),
            prox_friendly_r=True,
            prox_friendly_h=True,
            matvec_cost={OracleKind.GRAD_X_F: 1, OracleKind.GRAD_Y_F: 1},
            operator_l=self.operator_l,
            spectral=self.spectral,
        )


def bilinear_instance(
    a: np.ndarray,
    b: np.ndarray,
    mu_x: float = 1.0,
    mu_y: float = 1.0,
) -> SaddleInstance:
    """Wrap explicit data (A, b, moduli) with its closed-form saddle (P = Q = 0)."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    b = np.asarray(b, dtype=float)
    return SaddleInstance(a, b, mu_x, mu_y, np.zeros(n), np.zeros(m))


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
) -> SaddleInstance:
    """Seeded bilinear instance with conditioning lambda_max/lambda_min+ = cond."""
    require("cond", cond, low=1.0, strict=False)
    require("n", n, low=1, strict=False)
    require("m", m, low=1, strict=False)
    rng = np.random.default_rng(seed)
    a = _seeded_matrix(n, m, cond, rng)
    b = rng.standard_normal(n)
    return bilinear_instance(a, b, mu_x, mu_y)


def gen_quadratic_saddle(
    n: int,
    m: int,
    cond: float,
    seed: int,
    mu_x: float = 1.0,
    mu_y: float = 1.0,
) -> SaddleInstance:
    """Seeded quadratic-coupling instance; the diagonals of P and Q are uniform on [0, 1)."""
    require("cond", cond, low=1.0, strict=False)
    require("n", n, low=1, strict=False)
    require("m", m, low=1, strict=False)
    rng = np.random.default_rng(seed)
    a = _seeded_matrix(n, m, cond, rng)
    b = rng.standard_normal(n)
    p_diag = rng.uniform(0.0, 1.0, size=n)
    q_diag = rng.uniform(0.0, 1.0, size=m)
    return SaddleInstance(a, b, mu_x, mu_y, p_diag, q_diag)


def gen_smoothed_game(n: int, kappa: float, seed: int) -> SaddleInstance:
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

    The eigendecomposition of A^T A that finds the slow subspace is the one
    the instance's spectral data and closed form are built from; it is
    handed to :class:`SaddleInstance` rather than computed a second time.
    """
    require("kappa", kappa, low=1.0, strict=False)
    require("n", n, low=1, strict=False)
    rng = np.random.default_rng(seed)
    a = _seeded_matrix(n, n, kappa, rng) / math.sqrt(kappa)  # spectrum in [1/kappa, 1]
    mu = 0.05 / kappa
    factor = _gram_eigh(a)
    vecs = factor[2]  # ascending eigenvalues
    k_slow = min(n, max(2, n // 10))
    b = vecs[:, :k_slow] @ rng.standard_normal(k_slow)
    b = b / max(np.linalg.norm(b), 1e-12)
    return SaddleInstance(a, b, mu, mu, np.zeros(n), np.zeros(n), _factor=factor)


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
    inst: SaddleInstance, l_y: float, samples: int, seed: int = 0
) -> Lemma1Report:
    """Estimate the Lipschitz/strong-convexity constants of the partial max.

    The dual composite is taken as a seeded diagonal quadratic with
    eigenvalues in [mu_y, l_y], so g(x) = (Ax)' H^{-1} (Ax) / 2 in closed
    form.  Over random pairs the gradient's difference quotient must stay
    below lambda_max / mu_y; over pairs projected onto the row space the
    curvature quotient must stay above lambda_min+ / l_y; and every gradient
    must be orthogonal to the kernel of A.  Only the bilinear member fits
    this model: an instance with nonzero ``p_diag`` or ``q_diag`` raises.
    """
    if not inst.bilinear:
        raise InvalidSpecError("lemma1_check needs p_diag = 0 and q_diag = 0 (bilinear coupling)")
    require("l_y", l_y, low=inst.mu_y, strict=False)
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
