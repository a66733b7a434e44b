"""Source rules over ``src/saddlekit/*.py``, checked with the standard-library ``ast``.

* Input rule: finite-and-positive guards go through :func:`saddlekit.core.require`;
  no ``raise InvalidSpecError`` sits under a hand-written ``isfinite`` or
  ``inf`` test anywhere else.
* Oracle rule: missing-oracle guards go through
  :func:`saddlekit.core.require_oracles`; no ``raise UnsupportedProblemError``
  sits under a hand-written ``<obj>.<oracle> is None`` test anywhere else.
* No top-level import is unused (``__init__`` re-exports count through ``__all__``).
* No named function has a parameter it never reads, so a setting that
  nothing reads cannot stay in a signature.
* Every dataclass field is read as ``.<field>`` somewhere in the package, its
  tests, demos or benchmark, so an output that nothing reads cannot stay in a
  result type.
* Every private (``_``-prefixed) function or class is referenced in the package
  outside its own body, so a folded helper cannot linger for tests alone.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "saddlekit").glob("*.py"))
ORACLES = {"grad_r", "grad_h", "grad_x_F", "grad_y_F", "prox_r", "prox_h"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _tests_finiteness(node: ast.expr) -> bool:
    """Whether an expression calls ``isfinite`` or reads ``inf``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name == "isfinite":
                return True
        if isinstance(sub, ast.Attribute) and sub.attr == "inf":
            return True
        if isinstance(sub, ast.Name) and sub.id == "inf":
            return True
    return False


def _tests_missing_oracle(node: ast.expr) -> bool:
    """Whether an expression contains an ``<obj>.<oracle> is None`` comparison."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Compare)
            and isinstance(sub.left, ast.Attribute)
            and sub.left.attr in ORACLES
            and any(isinstance(op, ast.Is) for op in sub.ops)
            and any(isinstance(c, ast.Constant) and c.value is None for c in sub.comparators)
        ):
            return True
    return False


def _raises(body: list[ast.stmt], error: str) -> bool:
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                if getattr(exc, "id", None) == error:
                    return True
    return False


def _hand_written_guards(path: Path, rule: str, tests, error: str) -> list[int]:
    """Lines of the ``if`` guards outside ``core.<rule>`` whose test matches and whose body raises."""
    tree = _tree(path)
    exempt: set[int] = set()
    if path.name == "core.py":
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == rule:
                exempt = {id(n) for n in ast.walk(fn)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and id(node) not in exempt
        and tests(node.test)
        and _raises(node.body, error)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_finiteness_guards_go_through_the_core_rule(path):
    guards = _hand_written_guards(path, "require", _tests_finiteness, "InvalidSpecError")
    assert guards == [], f"{path.name}: route these guards through core.require"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_missing_oracle_guards_go_through_the_oracle_rule(path):
    guards = _hand_written_guards(
        path, "require_oracles", _tests_missing_oracle, "UnsupportedProblemError"
    )
    assert guards == [], f"{path.name}: route these guards through core.require_oracles"


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # re-exports listed in __all__
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if "__all__" in targets:
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(path) == []


def _unread_parameters(path: Path) -> list[str]:
    """``<function>.<parameter>`` for each parameter its function body never reads.

    Lambdas have no name, and ``_``-prefixed parameters are declared unused, as
    is a method's ``self`` or ``cls`` that the method does not need; none of
    them is checked.  A read inside a nested function or lambda counts.
    """
    unread = []
    for fn in ast.walk(_tree(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{fn.name}.{p.arg}"
            for p in params
            if p is not None
            and not p.arg.startswith("_")
            and p.arg not in ("self", "cls")
            and p.arg not in read
        ]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == [], f"{path.name}: drop these parameters or read them"


def _dataclass_fields(path: Path) -> list[str]:
    """``<class>.<field>`` for each field of the ``@dataclass`` classes in ``path``.

    An ``InitVar`` or ``ClassVar`` annotation declares no field that is read back.
    """
    fields = []
    for cls in ast.walk(_tree(path)):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if not any(
                    getattr(n, "id", getattr(n, "attr", None)) in ("InitVar", "ClassVar")
                    for n in ast.walk(stmt.annotation)
                ):
                    fields.append(f"{cls.name}.{stmt.target.id}")
    return fields


def test_every_dataclass_field_is_read():
    readers = [
        path
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    read = {
        node.attr
        for path in readers
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f for path in SOURCES for f in _dataclass_fields(path) if f.split(".")[1] not in read]
    assert unread == [], f"drop these fields or read them: {unread}"



def _referred_name(node: ast.AST):
    """The name a ``Name`` or an ``Attribute`` node refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _unreferenced_private_names() -> list[str]:
    """``<file>:<name>`` for each private def or class no package code refers to.

    A reference is a name or an attribute anywhere in ``src/saddlekit``
    outside the definition's own body; dunder methods are exempt.
    """
    defs, refs = [], Counter()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            refs[_referred_name(node)] += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    own = sum(_referred_name(sub) == name for sub in ast.walk(node))
                    defs.append((path.name, name, own))
    return [f"{file}:{name}" for file, name, own in defs if refs[name] <= own]


def test_every_private_helper_is_referenced():
    unreferenced = _unreferenced_private_names()
    assert unreferenced == [], f"fold or delete these helpers: {unreferenced}"
