"""Run one `zipzeta` CLI job with its layers traced from outside.

    PYTHONPATH=src python perfbench/tracer.py TRACE_OUT CLI_ARG...

Wraps the public functions of each layer at every place a caller looks
them up (module globals and class attributes), calls
`zipzeta.cli.main(argv)`, puts every name back, and writes the trace to
TRACE_OUT as JSON.  The job's stdout and exit code are the untraced
ones: the wrappers only record.

Every wrapper keeps an aggregate per name: calls, total seconds and self
seconds (total minus the time of wrapped calls made inside it).  Names
marked as spans, the coarse boundaries called a few times per job, also
record one span per call: name, start, end and the index of the
enclosing span.  Hot functions such as `mat_mul` (about a million calls
in one census job) are aggregates only.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN, AGG = "span", "agg"


def _count(key):
    """Counter hook: add the length of the call's result to key."""
    def post(result, args, counters):
        counters[key] += len(result)
    return post


def _candidates_post(result, args, counters):
    field, h = args[0], args[1]
    counters["fforacle.candidates"] += len(result)
    counters["fforacle.scanned"] += field.q ** (h * h)


def _min_reps_post(result, args, counters):
    counters["extweyl.min_reps.size"] += len(result)
    counters["extweyl.min_reps.ambient"] += len(args[0])


# (module, attribute path, record name, kind, counter hook).  The record
# name's first component is the layer the time is charged to.
TARGETS = (
    ("zipzeta.cli", "main", "cli.main", SPAN, None),
    ("zipzeta.rootsystem", "build_root_system",
     "rootsystem.build_root_system", SPAN, None),
    ("zipzeta.weyl", "enumerate_group", "weyl.enumerate_group", SPAN,
     _count("weyl.group_order")),
    ("zipzeta.weyl", "CosetTables.word", "weyl.word", AGG, None),
    ("zipzeta.weyl", "CosetTables.decompose_left", "weyl.decompose_left",
     AGG, None),
    ("zipzeta.extweyl", "ExtWeylGroup.min_reps", "extweyl.min_reps", SPAN,
     _min_reps_post),
    ("zipzeta.extweyl", "ExtWeylGroup.canonical_decomposition",
     "extweyl.canonical_decomposition", AGG, None),
    ("zipzeta.extweyl", "ExtWeylGroup.extended_length",
     "extweyl.extended_length", AGG, None),
    ("zipzeta.extweyl", "DiagramAutomorphism.apply_ext", "extweyl.apply_ext",
     AGG, None),
    ("zipzeta.zipstrata", "ZipDatum.__init__", "zipstrata.ZipDatum", SPAN,
     None),
    ("zipzeta.zipstrata", "compute_twist", "zipstrata.compute_twist", SPAN,
     None),
    ("zipzeta.zipstrata", "classify", "zipstrata.classify", SPAN,
     _count("zipstrata.strata")),
    ("zipzeta.zipstrata", "point_count", "zipstrata.point_count", AGG, None),
    ("zipzeta.zetafn", "QLaurent.__mul__", "zetafn.QLaurent.mul", AGG, None),
    ("zipzeta.zetafn", "QLaurent.__rmul__", "zetafn.QLaurent.mul", AGG, None),
    ("zipzeta.zetafn", "ZetaProduct.series_product", "zetafn.series_product",
     SPAN, None),
    ("zipzeta.zetafn", "ZetaProduct.series_exp", "zetafn.series_exp", SPAN,
     None),
    ("zipzeta.btgl", "bt_strata", "btgl.bt_strata", SPAN, None),
    ("zipzeta.fforacle", "mat_mul", "fforacle.mat_mul", AGG, None),
    ("zipzeta.fforacle", "twisted_action", "fforacle.twisted_action", AGG,
     None),
    ("zipzeta.fforacle", "enumerate_census", "fforacle.enumerate_census",
     SPAN, None),
    ("zipzeta.fforacle", "enumerate_gl", "fforacle.enumerate_gl", SPAN, None),
    ("zipzeta.fforacle", "_candidates", "fforacle._candidates", SPAN,
     _candidates_post),
)

COUNTERS = ("weyl.group_order", "extweyl.min_reps.size",
            "extweyl.min_reps.ambient", "zipstrata.strata",
            "fforacle.candidates", "fforacle.scanned")


class Recorder:
    """Aggregates, counters and spans of one traced job."""

    def __init__(self):
        self.aggregates = {}      # name -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []           # [name, start, end, parent index]
        self._child_time = []     # wrapped time inside each open call
        self._open_spans = []

    def wrap(self, fn, name, kind, post):
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if kind == SPAN:
                span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
                open_spans.append(len(spans))
                spans.append(span)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(result, args, counters)
                return result
            finally:
                end = clock()
                elapsed = end - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - inner
                if kind == SPAN:
                    open_spans.pop()
                    span[1], span[2] = start, end

        wrapper.__wrapped__ = fn
        return wrapper


def _sites(module, path, modules):
    """Every (owner, attribute) through which callers reach the target:
    the class for a method, else every zipzeta module whose global of
    that name is the same function."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    if outer:
        return original, [(owner, attr)]
    return original, [(m, attr) for m in modules
                      if m.__dict__.get(attr) is original]


def install(recorder):
    """Wrap every target; return the (owner, attr, original) list that
    `restore` needs."""
    modules = [importlib.import_module(n) for n in (
        "zipzeta", "zipzeta.rootsystem", "zipzeta.weyl", "zipzeta.extweyl",
        "zipzeta.zipstrata", "zipzeta.zetafn", "zipzeta.btgl",
        "zipzeta.fforacle", "zipzeta.cli")]
    by_module = {m.__name__: m for m in modules}
    patched = []
    for module, path, name, kind, post in TARGETS:
        original, sites = _sites(by_module[module], path, modules)
        wrapper = recorder.wrap(original, name, kind, post)
        for owner, attr in sites:
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
    return patched


def restore(patched):
    """Put every original back; True when each site holds it again."""
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    return all(owner.__dict__[attr] is original
               for owner, attr, original in patched)


def main(argv):
    trace_out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    patched = install(recorder)
    cli = sys.modules["zipzeta.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        restored = restore(patched)
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump({"aggregates": recorder.aggregates,
                       "counters": recorder.counters,
                       "spans": recorder.spans,
                       "wrapped_sites": len(patched),
                       "restored": restored}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
