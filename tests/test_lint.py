"""Static checks on the package source, with the standard library's ``ast``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "refactorlab"
MODULES = sorted(SRC.rglob("*.py"))
# the one private name a module may import from another package: the CSR
# kernel that scipy's own sparse product calls, which the GCN's passes call
# to write that product into a buffer (pinned, with its floats, by test_gcn)
ALLOWED_PRIVATE_IMPORTS = {("gcn.py", "scipy.sparse._sparsetools.csr_matvecs")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus those ``__all__`` exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def test_there_are_modules_to_check():
    assert len(MODULES) > 20


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def _private_third_party_imports(tree: ast.Module) -> dict[str, int]:
    """Each dotted name imported from a package outside the standard library
    and this one, with a ``_``-prefixed part, and the line that imports it."""
    found: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        else:  # relative imports stay inside this package
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] in sys.stdlib_module_names or parts[0] in ("__future__", "refactorlab"):
                continue
            if any(part.startswith("_") for part in parts):
                found[name] = node.lineno
    return found


def _private_imports_by_module() -> dict[tuple[str, str], int]:
    return {
        (path.relative_to(SRC).as_posix(), name): line
        for path in MODULES
        for name, line in _private_third_party_imports(ast.parse(path.read_text(encoding="utf-8"))).items()
    }


def test_no_module_imports_a_private_name_of_another_package():
    # private names change without notice between releases of a package
    found = _private_imports_by_module()
    unexpected = {key: line for key, line in found.items() if key not in ALLOWED_PRIVATE_IMPORTS}
    assert unexpected == {}, f"private names of other packages imported: {unexpected}"
    assert ALLOWED_PRIVATE_IMPORTS <= set(found), "an allowed private import is gone: drop it from the list"
