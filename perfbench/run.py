"""Closed-loop benchmark of the `zipzeta` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

Run from the root of a source checkout (the directory holding `src/`).
One client runs the workload's jobs one at a time, each as a fresh
`python -m zipzeta.cli ...` process, which is what a user runs.  The
seed shuffles the job order of every pass; after one full pass the loop
keeps starting jobs, pass after pass, while each is expected to finish
inside S seconds.  Every job's stdout and exit code must match the output the
program gave when `expected.json` was recorded, byte for byte.

With --trace 1 a second pass runs every job once more through
`tracer.py`, which wraps each layer's functions from outside the
package, and the per-layer metrics replace the end-to-end ones in the
result line.  Scratch files go to `.perfbench/` in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
JOB_TIMEOUT_S = 60.0     # one job; the slowest seed job takes about 13 s
RUN_LIMIT_S = 160.0      # no job starts, or runs on, past this point
SETUP_REPEATS = 11
LAYERS = ("cli", "rootsystem", "weyl", "extweyl", "zipstrata", "zetafn",
          "btgl", "fforacle")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_s.p50", "s"),
              ("job_s.max", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Outcome:
    job: str
    wall_s: float
    rss_mb: float
    exit_code: int | None     # None: killed by the hang guard
    stdout_bytes: int
    stdout_sha256: str
    error: str | None = None  # why the job counts as failed
    trace: dict | None = None


class Runner:
    """Starts job processes in one checkout and checks their output."""

    def __init__(self, root, expected, deadline, work=None):
        self.root = Path(root)
        self.work = Path(work) if work else self.root / ".perfbench"
        self.config_dir = self.work / "configs"
        self.out_path = self.work / "stdout"
        self.err_path = self.work / "stderr"
        self.trace_path = self.work / "trace.json"
        self.expected = expected
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def run(self, job, *, trace=False, timeout=JOB_TIMEOUT_S):
        """Run one job to completion or to its timeout, then check it."""
        outcome = self.execute(job, trace=trace, timeout=timeout)
        if outcome.error is None:
            outcome.error = self.check(job, outcome)
        if trace and outcome.error is None:
            outcome.trace = json.loads(self.trace_path.read_text())
            if not outcome.trace["restored"]:
                outcome.error = "tracer left a wrapped name in zipzeta"
        return outcome

    def execute(self, job, *, trace=False, timeout=JOB_TIMEOUT_S):
        """Run one job to completion or until timeout, when the hang
        guard kills it."""
        timeout = min(timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Outcome(job.name, 0.0, 0.0, None, 0, "",
                           "not started: run time limit reached")
        if trace:
            self.trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"),
                   str(self.trace_path)]
        else:
            cmd = [sys.executable, "-m", "zipzeta.cli"]
        cmd += job.argv(self.config_dir)
        wall, exit_code, rss_mb = self.spawn(cmd, timeout)
        # Only the size and digest of stdout are kept: a child's peak RSS
        # counts the parent's memory at fork time, so the parent stays small.
        stdout = self.out_path.read_bytes()
        return Outcome(job.name, wall, rss_mb, exit_code, len(stdout),
                       hashlib.sha256(stdout).hexdigest())

    def spawn(self, cmd, timeout):
        """Run cmd with stdout and stderr to files; return its wall time,
        exit code (None if killed at the timeout) and peak RSS in MB.

        The exit is seen through a pidfd, not `Popen.wait(timeout)`,
        whose polling sleeps would round times up to tens of ms."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env)
            exited = False
            try:
                exited = _wait_exit(proc.pid, timeout)
                wall = time.perf_counter() - start
            finally:
                if not exited:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode if exited else None, usage.ru_maxrss / 1024

    def check(self, job, outcome):
        """The output gate: None when the job did what it did at record
        time, else the reason it failed."""
        if outcome.exit_code is None:
            return f"killed after {outcome.wall_s:.1f} s (hang guard)"
        want = self.expected[job.name]
        if outcome.exit_code != want["exit"]:
            tail = self.err_path.read_text(errors="replace")[-400:]
            return f"exit code {outcome.exit_code}, expected {want['exit']}: {tail}"
        if outcome.stdout_sha256 != want["sha256"]:
            return (f"stdout differs from the recorded output "
                    f"({outcome.stdout_bytes} bytes, expected {want['bytes']})")
        if (job.args[0] == "oracle"
                and json.loads(self.out_path.read_bytes())["ok"] is not True):
            return "oracle did not report ok"
        return None


def _wait_exit(pid, timeout):
    """Wait until the child exits or timeout passes; True if it exited.

    The child is left unreaped, so its pid cannot be reused before the
    caller kills or reaps it."""
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            return bool(select.select([fd], [], [], timeout)[0])
        finally:
            os.close(fd)
    end = time.perf_counter() + timeout
    while time.perf_counter() < end:
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            return True
        time.sleep(0.001)
    return False


def load_expected(names):
    if not EXPECTED_FILE.is_file():
        raise SystemExit(f"missing {EXPECTED_FILE}")
    expected = json.loads(EXPECTED_FILE.read_text())
    missing = [n for n in names if n not in expected]
    if missing:
        raise SystemExit(f"no recorded output for jobs {missing}")
    return expected


def check_checkout(root):
    if not (root / "src" / "zipzeta" / "cli.py").is_file():
        raise SystemExit(f"{root} holds no zipzeta source tree (src/zipzeta)")


def setup(runner, workload):
    """Config generation plus a cold `import zipzeta`, timed; the
    median of SETUP_REPEATS tries."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workloads.write_configs(workload, runner.config_dir)
        _, code, _ = runner.spawn([sys.executable, "-c", "import zipzeta"],
                                  JOB_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit("`import zipzeta` failed")
    return statistics.median(times)


def closed_loop(runner, jobs, rng, seconds):
    """One full pass in shuffled order, then further shuffled passes
    that start a job only if its last time still fits in `seconds`."""
    start = time.perf_counter()
    outcomes = []
    last = {}
    first = True
    while True:
        order = list(jobs)
        rng.shuffle(order)
        ran = False
        for job in order:
            if not first and (time.perf_counter() - start + last[job.name]
                              > seconds):
                continue
            outcome = runner.run(job)
            outcomes.append(outcome)
            last[job.name] = outcome.wall_s
            ran = True
        first = False
        if not ran or time.perf_counter() - start >= seconds:
            return outcomes


def end_to_end(jobs, outcomes):
    """Per-job median latency; wall_s is their sum, the time to finish
    the job list once."""
    by_job = {j.name: [o.wall_s for o in outcomes if o.job == j.name]
              for j in jobs}
    medians = [statistics.median(v) for v in by_job.values()]
    return {
        "wall_s": sum(medians),
        "job_s.p50": statistics.median(medians),
        "job_s.max": max(medians),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


CALLS, TOTAL, SELF = 0, 1, 2
# Metrics read off one traced record: (metric, record, field).
FROM_RECORDS = (
    ("weyl.enumerate_group.self_s", "weyl.enumerate_group", SELF),
    ("weyl.word.self_s", "weyl.word", SELF),
    ("weyl.word.calls", "weyl.word", CALLS),
    ("weyl.decompose_left.self_s", "weyl.decompose_left", SELF),
    ("extweyl.canonical_decomposition.self_s",
     "extweyl.canonical_decomposition", SELF),
    ("extweyl.extended_length.self_s", "extweyl.extended_length", SELF),
    ("extweyl.apply_ext.calls", "extweyl.apply_ext", CALLS),
    ("zipstrata.classify.self_s", "zipstrata.classify", SELF),
    ("cli.main.self_s", "cli.main", SELF),
    ("zetafn.QLaurent.mul.calls", "zetafn.QLaurent.mul", CALLS),
    ("zetafn.QLaurent.mul.self_s", "zetafn.QLaurent.mul", SELF),
    ("zetafn.series_product.self_s", "zetafn.series_product", SELF),
    ("zetafn.series_exp.self_s", "zetafn.series_exp", SELF),
    ("zipstrata.point_count.self_s", "zipstrata.point_count", SELF),
    ("fforacle.mat_mul.calls", "fforacle.mat_mul", CALLS),
    ("fforacle.mat_mul.self_s", "fforacle.mat_mul", SELF),
    ("fforacle.twisted_action.calls", "fforacle.twisted_action", CALLS),
    ("fforacle.twisted_action.self_s", "fforacle.twisted_action", SELF),
    ("fforacle.enumerate_census.self_s", "fforacle.enumerate_census", SELF),
    ("fforacle.enumerate_gl.self_s", "fforacle.enumerate_gl", SELF),
    ("rootsystem.build_root_system.s", "rootsystem.build_root_system", TOTAL),
    ("zipstrata.ZipDatum.self_s", "zipstrata.ZipDatum", SELF),
    ("zipstrata.compute_twist.s", "zipstrata.compute_twist", TOTAL),
    ("btgl.bt_strata.s", "btgl.bt_strata", TOTAL),
)


def per_layer(traced, untraced_wall_s):
    """Sum the traced jobs' records into the per-layer metrics."""
    records = {}
    counters = {}
    for o in traced:
        for name, values in o.trace["aggregates"].items():
            acc = records.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, value in o.trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def read(record, field):
        return records.get(record, (0, 0.0, 0.0))[field]

    def ratio(num, den):
        return num / den if den else 0.0

    in_program = read("cli.main", TOTAL)
    traced_wall = sum(o.wall_s for o in traced)
    m = {metric: (read(record, field), "count" if field == CALLS else "s")
         for metric, record, field in FROM_RECORDS}
    m.update({
        "weyl.group_order": (counters["weyl.group_order"], "count"),
        "weyl.quotient_yield": (ratio(counters["extweyl.min_reps.size"],
                                      counters["extweyl.min_reps.ambient"]),
                                "ratio"),
        "extweyl.min_reps.size": (counters["extweyl.min_reps.size"], "count"),
        "zipstrata.strata": (counters["zipstrata.strata"], "count"),
        "cli.output_bytes": (sum(o.stdout_bytes for o in traced), "bytes"),
        "fforacle.candidates": (counters["fforacle.candidates"], "count"),
        "fforacle.scan_yield": (ratio(counters["fforacle.candidates"],
                                      counters["fforacle.scanned"]), "ratio"),
        "trace.in_program_s": (in_program, "s"),
        "trace.startup_s": (traced_wall - in_program, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall_s, "s"),
    })
    for layer in LAYERS:
        own = sum(v[SELF] for k, v in records.items()
                  if k.split(".")[0] == layer)
        m[f"layer.{layer}.self_s"] = (own, "s")
    return m


def layer_shares(layer_metrics):
    """Each layer's self time as a share of the traced in-program time."""
    in_program = layer_metrics["trace.in_program_s"][0]
    return {f"layer.{layer}.share":
            (layer_metrics[f"layer.{layer}.self_s"][0] / in_program
             if in_program else 0.0, "ratio")
            for layer in LAYERS}


def job_counts(outcome):
    """The counts of one traced job that must repeat exactly."""
    counts = {f"{name}.calls": calls
              for name, (calls, _, _) in outcome.trace["aggregates"].items()}
    counts.update(outcome.trace["counters"])
    counts["cli.output_bytes"] = outcome.stdout_bytes
    return counts


def source_digest(root):
    """Digest of the program and the tracer, which together fix the
    counts a traced job must produce."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "zipzeta").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    h.update((BENCH_DIR / "tracer.py").read_bytes())
    return h.hexdigest()


def determinism_gate(runner, traced):
    """Compare each traced job's counts with those an earlier run of the
    same source in this checkout recorded (any seed); record new ones.
    Returns the list of mismatches."""
    path = runner.work / "counts.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    known = store.setdefault(source_digest(runner.root), {})
    problems = []
    for o in traced:
        counts = job_counts(o)
        if o.job in known and known[o.job] != counts:
            diff = sorted(k for k in set(counts) | set(known[o.job])
                          if counts.get(k) != known[o.job].get(k))
            problems.append(f"{o.job}: counts differ from an earlier run: {diff}")
        known.setdefault(o.job, counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, path)
    return problems


def benchmark(args):
    run_start = time.perf_counter()
    root = Path.cwd()
    check_checkout(root)
    jobs = workloads.WORKLOADS[args.workload]
    expected = load_expected([j.name for j in jobs])
    workloads.check_inputs(args.workload)
    runner = Runner(root, expected, run_start + RUN_LIMIT_S)
    runner.work.mkdir(exist_ok=True)
    setup_s = setup(runner, args.workload)

    rng = random.Random(args.seed)
    outcomes = closed_loop(runner, jobs, rng, args.seconds)
    e2e = end_to_end(jobs, outcomes)
    (runner.work / f"samples-{args.workload}-{args.seed}.json").write_text(
        json.dumps([[o.job, o.wall_s, o.rss_mb] for o in outcomes]))
    traced = []
    problems = []
    if args.trace:
        order = list(jobs)
        rng.shuffle(order)
        traced = [runner.run(job, trace=True) for job in order]
    done = outcomes + traced
    failed = [o for o in done if o.error]
    for o in failed:
        print(f"FAILED {o.job}: {o.error}", file=sys.stderr)
    if args.trace:
        trace_file = runner.work / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            [{"job_id": i, "job": o.job, "wall_s": o.wall_s, **(o.trace or {})}
             for i, o in enumerate(traced)]))
    if args.trace and not failed:
        problems = determinism_gate(runner, traced)
        for p in problems:
            print(f"NONDETERMINISTIC {p}", file=sys.stderr)

    print(f"workload {args.workload}: {len(jobs)} jobs, seed {args.seed}, "
          f"{len(outcomes)} untraced runs in {args.seconds} s, one client, "
          "closed loop")
    e2e_metrics = {"setup_s": (setup_s, "s"),
                   **{name: (e2e[name], unit) for name, unit in END_TO_END[1:]}}
    lines = dict(e2e_metrics)
    lines["error_rate"] = (len(failed) / len(done), "ratio")
    metrics = e2e_metrics
    if args.trace:
        metrics = per_layer([o for o in traced if o.trace], e2e["wall_s"])
        lines.update(metrics)
        lines.update(layer_shares(metrics))
    for name, (value, unit) in lines.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record():
    """Write expected.json from the program as it is now."""
    root = Path.cwd()
    check_checkout(root)
    runner = Runner(root, None, float("inf"))
    runner.work.mkdir(exist_ok=True)
    expected = {}
    for name, jobs in workloads.WORKLOADS.items():
        workloads.write_configs(name, runner.config_dir)
        for job in jobs:
            o = runner.execute(job, timeout=600)
            expected[job.name] = {"exit": o.exit_code, "bytes": o.stdout_bytes,
                                  "sha256": o.stdout_sha256}
            print(f"{job.name}: exit {o.exit_code}, {o.stdout_bytes} bytes, "
                  f"{o.wall_s:.2f} s")
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the gates catch what they guard")
    parser.add_argument("--record", action="store_true",
                        help="write expected.json from the current program")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
