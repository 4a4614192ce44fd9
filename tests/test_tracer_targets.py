"""The benchmark tracer wraps functions by name; every name it lists
must still resolve, or tracing would break without a failing test."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves_to_a_function():
    targets = load_targets()
    assert targets
    for module_name, path, *_ in targets:
        assert module_name.startswith("zipzeta.")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # The tracer replaces the attribute where it is defined, so it
        # must sit in the owner's own namespace.
        fn = vars(owner).get(attr)
        assert inspect.isfunction(fn), f"{module_name}.{path}"
        assert fn.__module__.startswith("zipzeta."), f"{module_name}.{path}"
