"""The benchmark's traced mode (``perfbench/tracer.py``) still resolves against the library.

The tracer wraps library functions and methods by attribute name for
``perfbench/run.py --trace 1``, so a refactor that renames or moves one of
them breaks the traced benchmark without failing any library test.  The
tracer module is loaded read-only: no bytecode is written next to it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import saddlekit as sk
from saddlekit import core, saddle
from saddlekit.core import Metered

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ENGINES = ("case1", "case2", "case3", "case4", "mirror_prox")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _targets(tracer) -> list[tuple[object, str]]:
    """Every (owner, attribute) pair that ``Tracer.installed`` replaces."""
    targets = [(owner, attr) for owner, attr, _ in tracer.SPAN_TARGETS]
    targets += [(core.OracleTally, "bump"), (core.OracleTally, "snapshot")]
    targets += [(core.Metered, method) for method in tracer.METERED_METHODS]
    return targets


def test_every_traced_attribute_exists(tracer):
    # the tracer reads each one from the owner's own namespace
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr in _targets(tracer)
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []


def _solve(engine: str, wrap=None):
    p = sk.gen_bilinear(4, 4, 5.0, seed=1, mu_x=4, mu_y=4).problem()
    if engine in ("case3", "case4"):  # h handled through its gradient
        p.prox_friendly_h = False
    if wrap is not None:
        wrap(p)
    # through the module attribute, as the benchmark's workloads call it
    return saddle.solve_saddle(Metered(p), 1e-6, engine=engine, r_x=10.0, r_y=10.0)


def test_traced_solves_run_every_route_and_restore_every_attribute(tracer):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _targets(tracer)]
    plain = {engine: _solve(engine) for engine in ENGINES}
    tr = tracer.Tracer()
    with tr.installed():
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        traced = {engine: _solve(engine, tr.wrap_problem) for engine in ENGINES}
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    for engine in ENGINES:
        assert traced[engine].converged, engine
        assert traced[engine].tally == plain[engine].tally, engine
        assert np.array_equal(traced[engine].x_final, plain[engine].x_final), engine
    assert tr.calls["saddle.solve_saddle"] == len(ENGINES)
    assert tr.calls["saddle.duality_gap"] >= len(ENGINES)
    assert tr.oracle_calls() > 0
