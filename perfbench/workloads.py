"""Seeded workloads of certified solves and the per-solve correctness gate.

Each workload is a closed loop: one client solves its instances back to back,
each solve starting when the previous one returned.  One *pass* is one solve
of every instance in the workload's set; a run repeats passes until its time
is up.  The set is drawn from the benchmark's ``--seed``: sizes and condition
numbers are stratified (one draw per equal-width stratum, strata paired at
random), so that different seeds give different matrices but passes of about
the same cost, and instance seeds come from the same generator.

Every workload solves to a certified duality gap of ``EPSILON`` with the
criterion-11 radii ``2 (||closed form|| + 1)`` on each side.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from saddlekit import saddle, testbed
from saddlekit.core import OracleKind, SaddleProblem, SolveReport

EPSILON = 1e-6
MAX_DIST = 1e-3  # a certified solve must also land this close to the closed form


@dataclass
class Case:
    """One instance of a workload and how it is handed to ``solve_saddle``.

    ``prox_friendly_r`` / ``prox_friendly_h``, when set, override the
    generated problem's flags; that is how the splitting routes are reached
    on instances whose composites are in fact prox-friendly.
    """

    inst: object
    engine: str
    prox_friendly_r: Optional[bool] = None
    prox_friendly_h: Optional[bool] = None

    def problem(self) -> SaddleProblem:
        p = self.inst.problem()
        if self.prox_friendly_r is not None:
            p.prox_friendly_r = self.prox_friendly_r
        if self.prox_friendly_h is not None:
            p.prox_friendly_h = self.prox_friendly_h
        return p

    @property
    def radii(self) -> tuple[float, float]:
        return (
            2.0 * (float(np.linalg.norm(self.inst.closed_form_x)) + 1.0),
            2.0 * (float(np.linalg.norm(self.inst.closed_form_y)) + 1.0),
        )

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the coupling matrix: one matvec costs 2 * rows * columns flops."""
        return self.inst.a.shape


def solve(case: Case, problem: SaddleProblem) -> SolveReport:
    """One certified solve through the public API."""
    r_x, r_y = case.radii
    return saddle.solve_saddle(problem, EPSILON, engine=case.engine, r_x=r_x, r_y=r_y)


def check(case: Case, rep: SolveReport) -> Optional[str]:
    """Why a returned solve fails the gate, or None when it passes.

    A solve passes when it claims convergence, its certified gap is at most
    ``EPSILON`` (a NaN gap fails), and the pair lies within ``MAX_DIST`` of
    the closed-form saddle.
    """
    if not rep.converged:
        return "converged=False"
    if not rep.certified_gap <= EPSILON:
        return f"certified gap {rep.certified_gap!r} > {EPSILON:g}"
    if rep.x_final is None or rep.y_final is None:
        return "no final pair"
    dist = math.hypot(
        float(np.linalg.norm(rep.x_final - case.inst.closed_form_x)),
        float(np.linalg.norm(rep.y_final - case.inst.closed_form_y)),
    )
    if not dist <= MAX_DIST:
        return f"distance {dist!r} to the closed form > {MAX_DIST:g}"
    return None


def counted_oracle_calls(rep: SolveReport) -> int:
    """Counted oracle invocations of every kind; ``MATVEC`` is a cost unit, not a call."""
    return sum(rep.tally.count(k) for k in OracleKind if k is not OracleKind.MATVEC)


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """k floats in [lo, hi), one per equal-width stratum, in random order."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _stratified_ints(rng: np.random.Generator, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one per equal-width stratum, in random order."""
    return [min(hi, int(v)) for v in _stratified(rng, lo, hi + 1, k)]


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------


def _game_eg(rng: np.random.Generator) -> list[Case]:
    return [
        Case(testbed.gen_smoothed_game(50, 1e3, seed=s), "mirror_prox") for s in _seeds(rng, 3)
    ]


def _pool_auto(rng: np.random.Generator) -> list[Case]:
    k = 100  # per family; the two families alternate
    bil = zip(
        _stratified_ints(rng, 2, 50, k),
        _stratified_ints(rng, 2, 50, k),
        _stratified(rng, 1.0, 100.0, k),
        _seeds(rng, k),
    )
    quad = zip(
        _stratified_ints(rng, 2, 40, k),
        _stratified_ints(rng, 2, 40, k),
        _stratified(rng, 1.0, 50.0, k),
        _seeds(rng, k),
    )
    cases = []
    for (bn, bm, bc, bs), (qn, qm, qc, qs) in zip(bil, quad):
        cases.append(Case(testbed.gen_bilinear(bn, bm, float(bc), seed=bs, mu_x=4.0, mu_y=4.0), "auto"))
        cases.append(
            Case(testbed.gen_quadratic_saddle(qn, qm, float(qc), seed=qs, mu_x=4.0, mu_y=4.0), "auto")
        )
    return cases


def _split(rng: np.random.Generator) -> list[Case]:
    k = 12
    dims = _stratified_ints(rng, 10, 50, k)
    conds = _stratified(rng, 10.0, 50.0, k)
    return [
        Case(
            testbed.gen_quadratic_saddle(n, n, float(c), seed=s, mu_x=4.0, mu_y=4.0),
            "auto",
            prox_friendly_r=False,
            prox_friendly_h=bool(i % 2),
        )
        for i, (n, c, s) in enumerate(zip(dims, conds, _seeds(rng, k)))
    ]


def _game_wide(rng: np.random.Generator) -> list[Case]:
    return [Case(testbed.gen_smoothed_game(500, 1e3, seed=s), "case1") for s in _seeds(rng, 2)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator], list[Case]]

    def cases(self, seed: int) -> list[Case]:
        return self.build(np.random.default_rng([seed, zlib.crc32(self.name.encode())]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "game-eg",
            "3 smoothed games (n=50, kappa=1e3) on the extragradient baseline: the "
            "per-matvec overhead case, where only the extragradient loop and metering run",
            _game_eg,
        ),
        Workload(
            "pool-auto",
            "200 short bilinear/quadratic solves routed to case1: per-solve fixed costs "
            "(metering set-up, attempt loop, certificates, inner_max into fgm) dominate",
            _pool_auto,
        ),
        Workload(
            "split",
            "12 quadratic saddles with a non-prox r, routed through case4/case2 into the "
            "sliding APG engine: the only workload where every g-gradient is an inner max",
            _split,
        ),
        Workload(
            "game-wide",
            "2 smoothed games (n=500, kappa=1e3) on case1: bound by oracle arithmetic, "
            "and the only workload with material set-up time",
            _game_wide,
        ),
    )
}
