"""Every definition in the package is used by the package.

A top-level function or class, a method, or a field (annotated in the
class body, or named in its ``__slots__``) that no module of
``src/nervelim`` refers to outside
its own body is code that only tests reach; it is deleted, or moved into
``tests/oracles.py`` when a test still needs it.  ``__init__.py`` only
re-exports, so its references do not count.  The scan is by name: a
function, a class or a method counts as used when any module reads an
attribute or a variable of that name, and a field only when some module
reads an attribute of that name, so a local variable that shares a field's
name does not hide it.  Passing a field to a constructor is not a read,
and neither is assigning to a name or an attribute (``self.x = x``).
Dunder names are used by the language and are not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nervelim"

# definitions the package does not call itself, by "module.name", with the reason
ALLOWED = {
    "cli.main": "the console entry point",
    "homology.BoundaryMatrix.cols": "perfbench's boundary_columns count reads it",
    "report.dump_json": "write_json's string form; perfbench/inputs.py writes its inputs with it",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _definitions(modules: dict[str, ast.Module]) -> list[tuple[str, str, ast.AST]]:
    """(module, qualified name, node) of every top-level function and class
    and every method and field; a field named in ``__slots__`` has the
    ``__slots__`` assignment as its node."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            out.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        names = [item.target.id]
                    elif isinstance(item, kinds):
                        names = [item.name]
                    elif _is_slots(item):
                        names = [elt.value for elt in item.value.elts]
                    else:
                        continue
                    out += [
                        (mod, f"{node.name}.{name}", item)
                        for name in names
                        if not name.startswith("__")
                    ]
    return out


def _is_slots(item: ast.AST) -> bool:
    return (
        isinstance(item, ast.Assign)
        and [getattr(t, "id", None) for t in item.targets] == ["__slots__"]
        and isinstance(item.value, ast.Tuple)
    )


def _references(modules: dict[str, ast.Module]) -> dict[str, list[tuple[str, int, bool]]]:
    """Each name read as a variable or an attribute, with (module, line,
    whether it is read as an attribute)."""
    refs: dict[str, list[tuple[str, int, bool]]] = {}
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                name, attr = node.id, False
            elif isinstance(node, ast.Attribute):
                name, attr = node.attr, True
            else:
                continue
            refs.setdefault(name, []).append((mod, node.lineno, attr))
    return refs


def _unreferenced() -> list[str]:
    modules = _modules()
    refs = _references(modules)
    out = []
    for mod, qualname, node in _definitions(modules):
        own = range(node.lineno, node.end_lineno + 1)
        name = qualname.rsplit(".", 1)[-1]
        field = isinstance(node, (ast.AnnAssign, ast.Assign))
        if not any(
            (m != mod or line not in own) and (attr or not field)
            for m, line, attr in refs.get(name, ())
        ):
            out.append(f"{mod}.{qualname}")
    return out


def test_every_definition_is_referenced_by_the_package():
    unused = [name for name in _unreferenced() if name not in ALLOWED]
    assert unused == [], "referenced only by tests, or by nothing: " + ", ".join(unused)


def test_allowlist_names_live_definitions():
    defined = {f"{mod}.{qualname}" for mod, qualname, _ in _definitions(_modules())}
    assert set(ALLOWED) <= defined
