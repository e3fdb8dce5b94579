"""End-to-end benchmark of the hypernull CLI pipeline.

    python3 perfbench/run.py --workload metabolic --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the CLI is run from ./src, one
process per subcommand, exactly as a user runs it.  The workload's inputs are
generated deterministically (see workloads.py) and --seed seeds every
subcommand.  A run sets the inputs up repeatedly for about half a second
(setup_s is the median), runs one discarded warm-up process, then repeats whole rounds of
the workload's pipeline, each into a fresh directory, until --seconds have
passed (at least one round).  Every subcommand's output is checked by
checks.py.  The last line of stdout is one JSON object with the operations
attempted and failed and, with --trace 0, the end-to-end metrics (medians
over rounds); with --trace 1, one traced round plus the per-layer probes of
layers.py give the per-layer metrics, and every span is written to
.perfbench_runs/traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_MIN_S = 0.5  # set up again until this much time is spent (at least 3 times)

sys.path.insert(0, str(HERE))

from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written once at the end."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter() - self.origin, "end": None,
                  "parent": self.stack[-1]["name"] if self.stack else None}
        self.stack.append(record)
        try:
            yield record
        finally:
            self.stack.pop()
            record["end"] = time.perf_counter() - self.origin
            self.spans.append(record)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n", encoding="utf-8")


def cli_env(threads="1"):
    """Environment of every subcommand.  The worker pool is pinned to one
    worker (NUDHY_THREADS=1): the default thread pool gains nothing on this
    pure-Python work and loses much when its threads contend (README).
    threads=None leaves the default pool; BLAS keeps its default threads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("NUDHY_THREADS", None)
    if threads is not None:
        env["NUDHY_THREADS"] = threads
    return env


def run_cli(argv, cwd, env):
    """One `hypernull` process: (wall seconds, peak RSS in MB, exit code)."""
    with open(cwd / "stdout.log", "ab") as out, open(cwd / "stderr.log", "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hypernull.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def run_round(steps, workload, edges, directory, tracer=None):
    """One pass of the pipeline into a fresh directory; returns the
    per-stage times, the peak RSS, and (attempted, failed, wrong)."""
    directory.mkdir(parents=True)
    write_input(workload, edges, directory)
    env = cli_env()
    times = {"prep": 0.0, "sample": 0.0, "analysis": 0.0}
    rss, failed, wrong = 0.0, 0, 0
    for step in steps:
        if tracer is None:
            elapsed, peak, code = run_cli(step.argv, directory, env)
        else:
            with tracer.span(f"cli.{step.name}"):
                elapsed, peak, code = run_cli(step.argv, directory, env)
        times[step.stage] += elapsed
        rss = max(rss, peak)
        print(f"{directory.name}: {step.name}: {elapsed:.2f} s, {peak:.0f} MB", file=sys.stderr)
        if code != 0:
            failed += 1
            print(f"{step.name}: exit code {code}", file=sys.stderr)
            continue
        try:
            step.check(directory)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failed += 1
            wrong += 1
            print(f"{step.name}: check failed: {exc}", file=sys.stderr)
    return times, rss, (len(steps), failed, wrong)


def setup(workload, directory):
    """Generate the instance and write its input file, repeatedly."""
    directory.mkdir(parents=True)
    times = []
    while len(times) < 3 or sum(times) < SETUP_MIN_S:
        started = time.perf_counter()
        edges = workload.generate(workload.instance_seed)
        write_input(workload, edges, directory)
        times.append(time.perf_counter() - started)
    return edges, statistics.median(times)


def warm_up(directory):
    """One untimed `hypernull --help`: imports the whole package, which fills
    the page cache and the bytecode cache."""
    directory.mkdir(parents=True)
    run_cli(("--help",), directory, cli_env())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypernull" / "cli.py").is_file():
        print(f"error: no hypernull source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    try:
        edges, setup_s = setup(workload, run_dir / "input")
        warm_up(run_dir / "warmup")
        steps = workload.steps(args.seed, edges)
        if args.trace:
            import layers

            tracer = Tracer()
            attempted, failed, wrong, metrics = layers.traced_pass(
                tracer, workload, args.seed, edges, steps, run_dir, run_round, run_cli, cli_env)
            tracer.write(RUNS / "traces" / f"{workload.name}-seed{args.seed}.json")
        else:
            rounds, attempted, failed, wrong = [], 0, 0, 0
            started = time.perf_counter()
            while not rounds or time.perf_counter() - started < args.seconds:
                times, rss, counts = run_round(steps, workload, edges,
                                               run_dir / f"round{len(rounds)}")
                rounds.append({"pipeline_s": sum(times.values()), "sample_s": times["sample"],
                               "analysis_s": times["analysis"], "peak_rss_mb": rss})
                attempted, failed, wrong = (a + b for a, b in zip((attempted, failed, wrong), counts))
            metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                       for name, unit in (("pipeline_s", "s"), ("sample_s", "s"),
                                          ("analysis_s", "s"), ("peak_rss_mb", "MB"))}
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
