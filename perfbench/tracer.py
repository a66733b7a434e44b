"""Traced mode: spans around the calls into each saddlekit layer.

The tracer wraps public functions at their module (or class) attribute for
the duration of a ``with tracer.installed():`` block and restores every
attribute on exit; the library itself is not modified.  Calls made through a
module attribute or a module-global name (``fgm.run_fgm`` from ``sliding``,
``run_fgm`` inside ``fgm``) therefore go through the wrappers.  The generated
problem's oracle closures are wrapped per problem with :meth:`Tracer.wrap_problem`.

Two kinds of wrapped call:

* *spans* - solver entry points (``saddle.solve_saddle``, ``fgm.run_fgm`` ...).
  Each call is kept in memory as (span id, parent span id, solve id, name,
  start, end) and written out by :meth:`Tracer.write_spans` when the run ends.
* *hot calls* - ``OracleTally.bump``/``snapshot``, the ``Metered`` oracle
  methods and the problem's closures, made up to millions of times per pass.
  They are timed and counted, and their time is charged to the enclosing
  span, but they are not kept one record per call, so memory stays bounded.

A call's self time is its duration minus the time covered by the wrapped
calls made inside it.  Summed by layer (the saddlekit module the wrapped
function belongs to; ``testbed`` for the problem closures) the self times plus
the time outside every root span add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter
from typing import Callable

from saddlekit import core, fgm, inner_max, mirror_prox, saddle, sliding
from saddlekit.core import OracleKind, SaddleProblem

LAYERS = ("core", "testbed", "fgm", "inner_max", "mirror_prox", "sliding", "saddle")

# (owner, attribute, metric name) of every span-level wrapper
SPAN_TARGETS = (
    (saddle, "solve_saddle", "saddle.solve_saddle"),
    (saddle, "duality_gap", "saddle.duality_gap"),
    (fgm, "run_fgm", "fgm.run_fgm"),
    (fgm, "run_restarted_fgm", "fgm.run_restarted_fgm"),
    (fgm, "solve_to_gap", "fgm.solve_to_gap"),
    (inner_max, "inexact_grad_g", "inner_max.inexact_grad_g"),
    (mirror_prox, "run_mirror_prox", "mirror_prox.run_mirror_prox"),
    (mirror_prox, "run_restarted_mp", "mirror_prox.run_restarted_mp"),
    (sliding, "sliding_solve", "sliding.sliding_solve"),
)
# span names whose per-kind tally bumps are accumulated over their subtree
KIND_SCOPES = ("saddle.duality_gap", "inner_max.inexact_grad_g", "sliding.sliding_solve")

METERED_METHODS = (
    "value_r", "value_h", "value_F", "value_S_hat",
    "grad_r", "grad_h", "grad_x_F", "grad_y_F", "prox_r", "prox_h",
)  # fmt: skip
VALUE_ORACLES = ("value_r", "value_h", "value_F")
METERED_ORACLES = ("grad_r", "grad_h", "grad_x_F", "grad_y_F", "prox_r", "prox_h")

_KINDS = tuple(OracleKind)
_KIND_INDEX = {k: i for i, k in enumerate(_KINDS)}


class Tracer:
    """In-memory span and counter store for the traced passes of one run."""

    def __init__(self):
        self.solve_id = 0
        self.spans: list[tuple] = []  # (id, parent id, solve id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.bumped = [0] * len(_KINDS)  # tally bumps per kind, weighted by n
        self.scoped = {name: [0] * len(_KINDS) for name in KIND_SCOPES}
        self.returns: dict[str, list] = defaultdict(list)
        self.root_s = 0.0  # time covered by root spans
        self._stack: list[list] = []  # open frames: [span id, start, child time]
        self._next_id = 1

    # -- bookkeeping --------------------------------------------------------

    def _close(self, name: str, frame: list, end: float) -> None:
        dur = end - frame[1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur

    def _span(self, name: str, fn: Callable, keep_return: bool) -> Callable:
        self.layer_of[name] = name.split(".", 1)[0]
        scope = self.scoped.get(name)
        stack, bumped = self._stack, self.bumped

        def wrapped(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            before = list(bumped) if scope is not None else None
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, end)
                self.spans.append((span_id, parent, self.solve_id, name, frame[1], end))
                if scope is not None:
                    for i, (b, a) in enumerate(zip(before, bumped)):
                        scope[i] += a - b
            if keep_return:
                self.returns[name].append(out)
            return out

        return wrapped

    def _frame(self, name: str, fn: Callable) -> Callable:
        """Timed call that may contain wrapped calls, kept as counters only."""
        self.layer_of[name] = name.split(".", 1)[0]
        stack = self._stack

        def wrapped(*args, **kwargs):
            frame = [0, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(name, frame, end)

        return wrapped

    def _leaf(self, name: str, fn: Callable) -> Callable:
        """Timed call that contains no wrapped call, kept as counters only."""
        self.layer_of[name] = name.split(".", 1)[0]
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                calls[name] += 1
                self_s[name] += dur
                if stack:
                    stack[-1][2] += dur
                else:
                    self.root_s += dur

        return wrapped

    def _bump(self, fn: Callable) -> Callable:
        timed = self._leaf("core.OracleTally.bump", fn)
        bumped = self.bumped

        def bump(tally, kind, n=1):
            timed(tally, kind, n)
            bumped[_KIND_INDEX[kind]] += n

        return bump

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        targets = [
            (owner, attr, self._span(name, vars(owner)[attr], keep_return=name == "mirror_prox.run_restarted_mp"))
            for owner, attr, name in SPAN_TARGETS
        ]
        targets.append((core.OracleTally, "bump", self._bump(vars(core.OracleTally)["bump"])))
        targets.append(
            (core.OracleTally, "snapshot", self._leaf("core.OracleTally.snapshot", vars(core.OracleTally)["snapshot"]))
        )
        for method in METERED_METHODS:
            targets.append(
                (core.Metered, method, self._frame(f"core.Metered.{method}", vars(core.Metered)[method]))
            )
        try:
            for owner, attr, wrapper in targets:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for owner, attr, original in saved:
                if vars(owner)[attr] is not original:
                    raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def wrap_problem(self, problem: SaddleProblem) -> SaddleProblem:
        """Wrap the problem's oracle closures in place (testbed layer)."""
        for attr in VALUE_ORACLES + METERED_ORACLES:
            fn = getattr(problem, attr)
            if fn is not None:
                setattr(problem, attr, self._leaf(f"testbed.{attr}", fn))
        return problem

    # -- results ------------------------------------------------------------

    def bumps(self, kind: OracleKind, scope: str | None = None) -> int:
        counts = self.bumped if scope is None else self.scoped[scope]
        return counts[_KIND_INDEX[kind]]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[self.layer_of[name]] += s
        return out

    def oracle_calls(self, attrs=VALUE_ORACLES + METERED_ORACLES) -> int:
        return sum(self.calls.get(f"testbed.{a}", 0) for a in attrs)

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans opened directly inside a ``parent`` span."""
        names = {span[0]: span[3] for span in self.spans}
        return sum(1 for span in self.spans if span[3] == child and names.get(span[1]) == parent)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("span_id\tparent_id\tsolve_id\tname\tstart_s\tend_s\n")
            for span_id, parent, solve_id, name, start, end in self.spans:
                f.write(f"{span_id}\t{parent}\t{solve_id}\t{name}\t{start!r}\t{end!r}\n")
