"""Self-test of the benchmark's gates: each must catch what it guards.

    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  Uses only the cheap jobs, so it
takes about ten seconds.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import run
import workloads

CHEAP = ("oracle-3221", "strata-a3a3-swap", "bt-637-s100", "zeta-d6-d5")


def _job(name):
    return next(j for jobs in workloads.WORKLOADS.values() for j in jobs
                if j.name == name)


def _runner(expected):
    root = Path.cwd()
    runner = run.Runner(root, expected, time.perf_counter() + 600,
                        work=root / ".perfbench" / "selftest")
    runner.work.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        workloads.write_configs(name, runner.config_dir)
    return runner


def input_sanity():
    """A Cartan matrix with one bond dropped must fail the size check."""
    for name in workloads.WORKLOADS:
        workloads.check_inputs(name)
    real = workloads.configs

    def miswritten():
        table = real()
        cm = table["e6-d5"][0]["cartan"]
        cm[1][3] = cm[3][1] = 0
        return table

    workloads.configs = miswritten
    try:
        workloads.check_inputs("coxeter")
    except AssertionError as exc:
        return f"caught: {exc}"
    finally:
        workloads.configs = real
    raise AssertionError("a miswritten E6 Cartan matrix passed")


def output_gate(expected):
    """One altered expected output must count as a failed job."""
    job = _job("oracle-3221")
    altered = json.loads(json.dumps(expected))
    altered[job.name]["sha256"] = "0" * 64
    good = _runner(expected).run(job)
    bad = _runner(altered).run(job)
    assert good.error is None, good.error
    assert bad.error and "differs" in bad.error, bad.error
    return f"caught: {bad.error}"


def hang_guard(expected):
    """A job past its timeout is killed, reaped and counted as failed."""
    outcome = _runner(expected).run(_job("oracle-3131"), timeout=0.5)
    assert outcome.exit_code is None and "hang guard" in outcome.error
    assert outcome.wall_s < 5, outcome.wall_s
    return f"killed after {outcome.wall_s:.2f} s"


def tracer(expected):
    """Traced stdout is byte-identical to untraced stdout, every wrapped
    name is the original again afterwards, and the counts of two traced
    passes in different orders agree."""
    runner = _runner(expected)
    jobs = [_job(n) for n in CHEAP]
    plain = {j.name: runner.run(j) for j in jobs}
    first = {j.name: runner.run(j, trace=True) for j in jobs}
    second = {j.name: runner.run(j, trace=True) for j in reversed(jobs)}
    for name in CHEAP:
        for o in (plain[name], first[name], second[name]):
            assert o.error is None, f"{name}: {o.error}"
        assert first[name].stdout_sha256 == plain[name].stdout_sha256, name
        assert first[name].trace["restored"], name
        assert run.job_counts(first[name]) == run.job_counts(second[name]), name
    return f"{len(CHEAP)} jobs, {first[CHEAP[0]].trace['wrapped_sites']} sites"


def determinism_gate(expected):
    """A count that differs from an earlier run fails the gate."""
    runner = _runner(expected)
    (runner.work / "counts.json").unlink(missing_ok=True)
    traced = [runner.run(_job("oracle-3221"), trace=True)]
    assert run.determinism_gate(runner, traced) == []
    assert run.determinism_gate(runner, traced) == []
    traced[0].trace["counters"]["fforacle.candidates"] += 1
    problems = run.determinism_gate(runner, traced)
    assert problems and "fforacle.candidates" in problems[0], problems
    return f"caught: {problems[0]}"


def main():
    run.check_checkout(Path.cwd())
    expected = run.load_expected([j.name for jobs in workloads.WORKLOADS.values()
                                  for j in jobs])
    checks = (("input sanity", input_sanity),
              ("output gate", lambda: output_gate(expected)),
              ("hang guard", lambda: hang_guard(expected)),
              ("tracer", lambda: tracer(expected)),
              ("determinism gate", lambda: determinism_gate(expected)))
    failures = 0
    for name, check in checks:
        try:
            print(f"PASS {name}: {check()}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0
