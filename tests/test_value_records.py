"""The records that `actions.value` makes are slotted dataclasses without
`frozen=True`, so nothing but convention keeps them immutable. This test
reads the source of every scforge module and fails on any store to an init
field of a `@value` class outside an `__init__`: `x.f = …` (augmented or
unpacked too), `del x.f`, `setattr(x, "f", …)` and `object.__setattr__(x,
"f", …)`. The caches that values and messages fill on first use, `_hash`,
`_key` and `Message._text`, are not init fields, so writes to them pass."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import scforge

SRC = Path(scforge.__file__).parent
CACHES = {"_hash", "_key", "_text"}
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _is_value(decorator) -> bool:
    return (isinstance(decorator, ast.Name) and decorator.id == "value"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "value")


def _is_init_field(stmt) -> bool:
    """An annotated class-body name, unless `field(init=False, …)` makes it."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return False
    return not (isinstance(stmt.value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in stmt.value.keywords))


def value_classes(trees: dict[str, ast.Module]) -> dict[tuple[str, str], tuple[str, ...]]:
    """The init fields of every `@value` class, by (module, class name)."""
    return {(module, node.name): tuple(s.target.id for s in node.body if _is_init_field(s))
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(_is_value, node.decorator_list))}


def _setter_name(call: ast.Call):
    """The attribute name a `setattr`-like call writes, or None if it is not
    one; `"?"` where the name is not a literal."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name not in SETTERS:
        return None
    args = call.args[1:] if name in ("setattr", "delattr") or (
        isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "object"
    ) else call.args
    if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
        return args[0].value
    return "?"


def field_stores(tree: ast.Module, names: set[str]) -> list[tuple[int, str]]:
    """(line, attribute) of each store to one of `names`, outside an
    `__init__`, in `tree`."""
    found = []

    def visit(node, in_init: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_init = node.name == "__init__"
        if not in_init:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written = node.attr
            elif isinstance(node, ast.Call):
                written = _setter_name(node)
            else:
                written = None
            if written == "?" or written in names:
                found.append((node.lineno, written))
        for child in ast.iter_child_nodes(node):
            visit(child, in_init)

    visit(tree, False)
    return found


def _trees() -> dict[str, ast.Module]:
    return {f"scforge.{path.stem}": ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_the_source_reading_finds_every_value_class_and_its_init_fields():
    classes = value_classes(_trees())
    assert ("scforge.ast", "Trans") in classes and ("scforge.vdb", "Or") in classes
    for (module, name), init_fields in classes.items():
        cls = getattr(importlib.import_module(module), name)
        assert "_hash" in cls.__dataclass_fields__ and cls.__dictoffset__ == 0  # slotted
        assert init_fields == cls.__match_args__


def test_no_value_field_is_assigned_after_construction():
    trees = _trees()
    names = {f for init_fields in value_classes(trees).values() for f in init_fields}
    assert names and not names & CACHES
    stores = {module: field_stores(tree, names) for module, tree in trees.items()}
    assert {module: found for module, found in stores.items() if found} == {}


def test_the_check_sees_each_kind_of_store():
    planted = ast.parse('''
def f(t, u):
    t.src = "A"
    t.trg += "B"
    t.pre, u.act = None, None
    del t.call
    setattr(t, "prio", 1)
    object.__setattr__(u, "src", "C")
    setattr(t, name, 2)
    t._hash = t._key = None
    u.other = 3

class Trans:
    def __init__(self, src):
        self.src = src
''')
    found = field_stores(planted, {"src", "trg", "pre", "act", "call", "prio"})
    assert found == [(3, "src"), (4, "trg"), (5, "pre"), (5, "act"), (6, "call"), (7, "prio"),
                     (8, "src"), (9, "?")]
