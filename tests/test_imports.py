"""Every import in the package and the test suite is used: an AST scan
that fails on a name imported but never referenced.  The CLI and the
census load none of the heavy standard modules."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "zipzeta").glob("*.py")
               if p.name != "__init__.py") + sorted(
                   (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []


# Records are namedtuples, so no module of the package needs these.
HEAVY = ("dataclasses", "typing", "inspect", "pathlib")


def test_cli_and_census_load_no_heavy_module():
    # -S skips site, whose .pth files may import typing or pathlib first.
    script = ("import sys\n"
              f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
              "import zipzeta.cli, zipzeta.fforacle\n"
              f"print(*(m for m in {HEAVY!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
