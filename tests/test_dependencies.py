"""numpy stays the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ruleforge"


def imported_modules(tree: ast.Module):
    """Top-level module names of absolute imports; None for a relative one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.partition(".")[0]


# CPython's built-in SHA-256 module is _sha256 up to 3.11 and _sha2 from 3.12;
# sys.stdlib_module_names lists only the running version's name.
BUILTIN_SHA256 = {"_sha2", "_sha256"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = sys.stdlib_module_names | BUILTIN_SHA256 | {"numpy"}
    outside = {name for name in imported_modules(tree) if name is not None} - allowed
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_package_is_found():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "_numpy.py"}), ids=lambda p: p.name
)
def test_only_the_proxy_imports_numpy(path):
    """Every other module reads numpy through ruleforge._numpy, so it loads on first use."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "numpy" not in set(imported_modules(tree)), f"{path.name} imports numpy"
