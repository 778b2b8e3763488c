"""Every module-level import of the package is read somewhere in its module,
and importing the package and its CLI stays cheap.

Standard library only: each module but __init__ (whose imports are its
exports) is parsed with ast, and a name bound by an import must appear as a
name node somewhere in the module.  A line marked `# noqa: F401` is exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperarr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that it never reads,
    as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_the_checker_finds_an_unread_import_and_honours_noqa():
    source = "import os\nimport re  # noqa: F401\nfrom typing import Sequence, Iterable\nx: Sequence = 0\n"
    assert unused_imports(source) == ["1: os", "3: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_package_and_cli_loads_neither_dataclasses_nor_inspect():
    """Each CLI run and each benchmark sample starts a cold interpreter, so a
    module pulled in at import costs every one of them: dataclasses alone
    brings inspect, ast, dis and tokenize.  -S keeps site hooks out of it."""
    code = "import sys, hyperarr, hyperarr.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
