"""Every function in the package has a caller in the package: an AST scan
that fails on a non-dunder function or method whose name is referenced
nowhere in src/zipzeta.  A local variable or parameter of the same name
is not a reference.  Code that only the tests call, such as the
census's whole-pair move (`generator_move`, `apply_move`), belongs in
tests/helpers.py."""

import ast
from pathlib import Path

import zipzeta
from test_tracer_targets import load_targets

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zipzeta"

# Public accessors kept for library users, though the package itself
# never calls them.
ACCESSORS = {"entry", "reflect", "is_positive_ordinal", "simple_reflection",
             "evaluate", "act", "neg", "sub"}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(fn):
    """Names bound in a function's own scope: its parameters and the
    names it assigns, deletes, imports or catches, less those it declares
    global or nonlocal.  Nested functions and classes are not entered."""
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def references(tree):
    """Every attribute name in tree, and every bare name except one read
    inside a function (or a function nested in it) that binds that name
    itself, since there it is a local variable and not a reference."""
    found = set()
    todo = [(tree, frozenset())]
    while todo:
        node, shadowed = todo.pop()
        if isinstance(node, FUNCTIONS):
            shadowed = shadowed | local_names(node)
        elif isinstance(node, ast.Name):
            if node.id not in shadowed:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return found


def uncalled(sources, exempt):
    """Names of the functions defined in sources (file name -> text)
    that no source references, dunders and exempt names aside."""
    defined = set()
    referenced = set()
    for source in sources.values():
        tree = ast.parse(source)
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
        referenced |= references(tree)
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
    # A local variable, parameter or loop target named like a function
    # is not a reference to it; a global declaration or a call is.
    shadowed = ("def zero():\n    return 0\n\n"
                "def f(n):\n    zero = n - n\n    return zero\n\n"
                "def g(zero):\n    return lambda: zero + 1\n\n"
                "def h(pairs):\n    for zero, one in pairs:\n"
                "        yield zero\n")
    assert uncalled({"m.py": shadowed}, {"f", "g", "h"}) == ["zero"]
    called = shadowed + "\ndef k():\n    return zero()\n"
    assert uncalled({"m.py": called}, {"f", "g", "h", "k"}) == []
    declared = ("def zero():\n    return 0\n\n"
                "def f():\n    global zero\n    return zero\n")
    assert uncalled({"m.py": declared}, {"f"}) == []
