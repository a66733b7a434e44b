"""Seeded property suites backing `verify` and the acceptance tests.

Each suite draws deterministic samples from the testbed families, checks one
of the package's quantitative claims against closed-form ground truth, and
reports the violation count with the worst observed margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import inner_max
from .core import Metered, OracleTally
from .mirror_prox import assemble_saddle_operator, run_mirror_prox
from .testbed import gen_bilinear, gen_quadratic_saddle, lemma1_check


@dataclass
class SuiteResult:
    name: str
    checked: int
    violations: int
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No violation, and at least one check: a suite that checked nothing shows nothing."""
        return self.checked > 0 and self.violations == 0

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return f"{self.name}: {status} ({self.checked} checks, {self.violations} violations)"


def _sample_instances(seed: int):
    """Small mixed pool: bilinear and quadratic-coupling members."""
    return [
        gen_bilinear(4, 3, 10.0, seed),
        gen_bilinear(6, 6, 100.0, seed + 1),
        gen_quadratic_saddle(5, 4, 10.0, seed + 2),
        gen_quadratic_saddle(3, 5, 30.0, seed + 3, mu_y=2.0),
    ]


def _witness_with_gap(inst, x, direction, gap):
    """Perturb the exact inner maximizer to a point with that exact gap.

    The inner objective is quadratic in y, so the gap of y* + e is
    1/2 e' H e with H the (diagonal plus modulus) dual curvature.
    """
    y_star = inst.y_star_of(x)
    h_diag = inst.q_diag + inst.mu_y
    quad = 0.5 * float(direction @ (h_diag * direction))
    if quad <= 0 or gap <= 0:
        return y_star, 0.0
    t = math.sqrt(gap / quad)
    return y_star + t * direction, gap


def envelope_suite(samples: int = 10000, seed: int = 0) -> SuiteResult:
    """Two-sided envelope and gradient-error bound of the inexact bundles.

    Half the samples use analytically perturbed witnesses with an exactly
    known inner gap; the rest run the certified inner solver.  Both envelope
    inequalities are checked with 1e-8 absolute slack, the gradient error
    against l_xy sqrt(2 delta / mu_y) + 1e-8.
    """
    rng = np.random.default_rng(seed)
    instances = _sample_instances(seed)
    violations = 0
    worst_env = -float("inf")
    worst_grad = -float("inf")
    checked = 0
    for i in range(int(samples)):
        inst = instances[i % len(instances)]
        problem = inst.problem()
        n, m = inst.dims
        x = rng.standard_normal(n)
        z = x + rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        delta = 10.0 ** rng.uniform(-8, -2)
        if i % 2 == 0:
            direction = rng.standard_normal(m)
            witness, actual_gap = _witness_with_gap(
                inst, x, direction, delta * rng.uniform(0.0, 1.0)
            )
            ig = inner_max.inexact_grad_from_witness(problem, x, witness, delta)
        else:
            ig = inner_max.inexact_grad_g(problem, x, delta)
        checked += 1
        # envelope at the probe point and at the base point
        for probe in (z, x):
            gz = inst.g_value(probe)
            lhs = gz - (ig.value + float(ig.grad @ (probe - x)))
            d = probe - x
            upper = 0.5 * ig.l_env * float(d @ d) + ig.delta
            margin = max(-lhs, lhs - upper)
            worst_env = max(worst_env, margin)
            if margin > 1e-8:
                violations += 1
        grad_err = float(np.linalg.norm(ig.grad - inst.g_grad(x)))
        bound = problem.spec.l_xy * math.sqrt(2.0 * delta / inst.mu_y)
        worst_grad = max(worst_grad, grad_err - bound)
        if grad_err > bound + 1e-8:
            violations += 1
    return SuiteResult(
        "envelope",
        checked,
        violations,
        {"worst_envelope_margin": worst_env, "worst_grad_margin": worst_grad},
    )


def argmax_lipschitz_suite(pairs: int = 1000, seed: int = 0) -> SuiteResult:
    """||y*(x1) - y*(x2)|| <= (2 l_xy / mu_y) ||x1 - x2|| over random pairs."""
    rng = np.random.default_rng(seed)
    instances = _sample_instances(seed)
    violations = checked = 0
    worst = -float("inf")
    for i in range(int(pairs)):
        inst = instances[i % len(instances)]
        spec = inst.problem().spec
        n, _ = inst.dims
        x1 = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        x2 = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        dx = float(np.linalg.norm(x1 - x2))
        if dx < 1e-12:
            continue
        checked += 1
        ratio = float(np.linalg.norm(inst.y_star_of(x1) - inst.y_star_of(x2))) / dx
        bound = 2.0 * spec.l_xy / spec.mu_y
        worst = max(worst, ratio - bound)
        if ratio > bound + 1e-7:
            violations += 1
    return SuiteResult("argmax_lipschitz", checked, violations, {"worst_margin": worst})


def curvature_suite(instances: int = 50, samples: int = 40, seed: int = 0) -> SuiteResult:
    """Sampled Lipschitz/modulus constants of the partial max on bilinear instances."""
    rng = np.random.default_rng(seed)
    violations = 0
    details = {"worst_lip": -float("inf"), "worst_mod": -float("inf"), "worst_kernel": 0.0}
    for j in range(int(instances)):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        cond = float(rng.uniform(1.0, 100.0))
        inst = gen_bilinear(n, m, cond, seed=seed + 100 + j, mu_y=float(rng.uniform(0.5, 2.0)))
        l_y = inst.mu_y * float(rng.uniform(1.0, 4.0))
        rep = lemma1_check(inst, l_y, samples, seed=seed + j)
        details["worst_lip"] = max(
            details["worst_lip"], rep.lipschitz_empirical - rep.lipschitz_predicted
        )
        details["worst_mod"] = max(
            details["worst_mod"], rep.modulus_predicted * (1 - 1e-3) - rep.modulus_empirical
        )
        details["worst_kernel"] = max(details["worst_kernel"], rep.grad_kernel_overlap)
        if not rep.ok:
            violations += 1
    return SuiteResult("curvature", int(instances), violations, details)


def averaged_residual_suite(runs: int = 8, iterations: int = 120, seed: int = 0) -> SuiteResult:
    """Averaged extragradient residual bound at every iteration prefix."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -float("inf")
    checked = 0
    for j in range(int(runs)):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 10))
        inst = gen_bilinear(n, m, float(rng.uniform(1, 50)), seed=seed + j)
        problem = inst.problem()
        tally = OracleTally()
        op = assemble_saddle_operator(Metered(problem, tally))
        z_star = np.concatenate([inst.closed_form_x, inst.closed_form_y])
        z0 = np.zeros(n + m)
        rep = run_mirror_prox(op, z0, iterations, z_star=z_star, record_every=1)
        r0_sq = float(z_star @ z_star)
        for row in rep.history:
            checked += 1
            bound = op.l * r0_sq / (2.0 * row.iteration)
            worst = max(worst, row.gap - bound)
            if row.gap > bound + 1e-9:
                violations += 1
    return SuiteResult("averaged_residual", checked, violations, {"worst_margin": worst})


SUITES = {
    "envelope": envelope_suite,
    "argmax_lipschitz": argmax_lipschitz_suite,
    "curvature": curvature_suite,
    "averaged_residual": averaged_residual_suite,
}
