"""Package hygiene: exported names exist and no private helper is left unused."""

import ast
from pathlib import Path

import apd


def test_every_exported_name_resolves():
    assert [name for name in apd.__all__ if not hasattr(apd, name)] == []


def _private_definitions(tree):
    """Module-level ``_private`` functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _uses(tree):
    """Names read, attributes accessed and names imported; a definition is not a use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_module_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(apd.__file__).parent.glob("*.py"))}
    used = set().union(*(_uses(tree) for tree in trees.values()))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _private_definitions(tree) if name not in used)
    assert unused == []
