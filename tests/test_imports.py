"""Every name a package module imports is used in that module, and every
module parses under the oldest Python that ``requires-python`` admits."""

import ast
from pathlib import Path

import nhomalg

PACKAGE = Path(nhomalg.__file__).parent

# Bindings the benchmark's tracer requires to exist
# (perfbench/test_perfbench.py::test_patch_reaches_every_binding_and_is_removed).
ALLOWED = {("algebra", "rref"), ("checks", "rref")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_checker_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\nimport sys\nimport os.path\n"
              "from json import dumps, loads as parse\n"
              "def f(x) -> dumps: return os.path.join(x)\n")
    assert unused_imports(source) == ["parse", "sys"]


def test_package_modules_have_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [(path.stem, name) for name in unused_imports(path.read_text())
                  if (path.stem, name) not in ALLOWED]
    assert found == []


OLDEST_PYTHON = (3, 10)


def test_package_modules_parse_as_the_oldest_supported_python():
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert f'requires-python = ">={OLDEST_PYTHON[0]}.{OLDEST_PYTHON[1]}"' in pyproject
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)
