"""Every function in the package has a caller in the package: an AST scan
that fails on a non-dunder function or method whose name is referenced
nowhere in src/zipzeta.  Code that only the tests call belongs in
tests/helpers.py."""

import ast
from pathlib import Path

import zipzeta
from test_tracer_targets import load_targets

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zipzeta"

# Public accessors kept for library users, though the package itself
# never calls them.
ACCESSORS = {"entry", "reflect", "is_positive_ordinal", "simple_reflection",
             "is_zero", "evaluate"}


def uncalled(sources, exempt):
    """Names of the functions defined in sources (file name -> text)
    that no source references, dunders and exempt names aside."""
    defined = set()
    referenced = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(name for name in defined - referenced - exempt
                  if not (name.startswith("__") and name.endswith("__")))


def test_every_package_function_has_a_package_caller():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    traced = {path.split(".")[-1] for _, path, *_ in load_targets()}
    exempt = set(zipzeta.__all__) | traced | ACCESSORS
    assert uncalled(sources, exempt) == []


def test_scan_flags_an_uncalled_function():
    source = ("def f():\n    pass\n\n"
              "class C:\n    def __len__(self):\n        return 0\n\n"
              "    def g(self):\n        f()\n\n"
              "    def h(self):\n        self.g()\n")
    assert uncalled({"m.py": source}, set()) == ["h"]
    assert uncalled({"m.py": source}, {"h"}) == []
