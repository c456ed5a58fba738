#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py --workload NAME --seed 7 --seconds 12 --trace 0
    python3 benchmarks/perf/run.py [--workload all] [--traced] [--repeat N] [--out F]
    python3 benchmarks/perf/run.py --quick
    python3 benchmarks/perf/run.py compare A.json B.json

Every workload runs in fresh subprocesses (``perf.child``): two that
only set up and one that sets up and measures; ``setup_s`` is the median
of the three.  The last stdout line of a single-workload run is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero when any output was wrong or any metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
# Import siblings as the package ``perf`` rather than from the script
# directory: a bare ``trace.py`` on sys.path would shadow the stdlib's.
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    sys.path.pop(0)
sys.path.insert(0, os.path.dirname(HERE))

from perf.spec import (  # noqa: E402
    NAME_RE,
    OUT,
    ROOT,
    SRC,
    UNIT_RE,
    load_spec,
    median,
    metric_table,
    quartile_spread,
    workload_names,
    worsening,
)

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 0.6


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.dirname(HERE), SRC]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Compile from source every time: set-up time must not depend on
    # whether an earlier run left bytecode behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              setup_only: bool = False) -> dict:
    """One ``perf.child`` process; its last stdout line is the result."""
    cmd = [
        sys.executable, "-m", "perf.child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # Its own session, so a timeout can take the server or shard workers
    # it started down with it.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"error: {workload} exceeded {CHILD_TIMEOUT_S}s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: {workload} child exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(spec, workload: str, seed: int, seconds: float,
                 trace: int, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Set up ``setup_samples`` times, measure once; validate the names."""
    section = "per_layer" if trace else "end_to_end"
    table = metric_table(spec, section)
    setups = []
    failed = 0
    if not trace:
        for _ in range(setup_samples - 1):
            sample = run_child(workload, seed, seconds, 0, setup_only=True)
            setups.append(sample["setup_s"])
            failed += sample["failed"]
    result = run_child(workload, seed, seconds, trace)
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(table))
    if unknown:
        raise SystemExit(f"error: {workload} emitted unknown {unknown}")
    if trace:
        # A layer the workload never runs did no work: it reports 0.
        metrics = {name: metrics.get(name, 0.0) for name in table}
    else:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = median(setups)
        missing = sorted(set(table) - set(metrics))
        if missing:
            raise SystemExit(f"error: {workload} did not emit {missing}")
    failed += result["failed"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": table[name]["unit"]}
            for name in table
        },
    }


def print_run(run: dict) -> None:
    print(f"== {run['workload']} (seed {run['seed']}, {run['seconds']} s, "
          f"trace {run['trace']}) ==")
    for name, m in run["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    share = run["failed"] / run["attempted"]
    print(f"  {'operations attempted / failed':<44} "
          f"{run['attempted']:>10} / {run['failed']} (share {share:.6f})")


def driver_line(run: dict) -> str:
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    })


def provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy

    return {
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.platform(),
        "server_flags": ["serve", "--checkpoint-dir", "<workdir>/ckpt",
                         "(all other flags at their defaults)"],
        "server_env": {"MALLOC_ARENA_MAX": "1"},
    }


def summarize(spec, runs: list) -> bool:
    """Median, quartiles and spread per metric, against its bound."""
    import statistics

    bounds = metric_table(spec, "end_to_end")
    steady = True
    for workload in workload_names(spec):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if len(mine) < 2:
            continue
        print(f"== {workload}: {len(mine)} runs ==")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in mine]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = quartile_spread(values)
            flag = ""
            if name != "setup_s" and spread > meta["bound"]:
                flag, steady = "  SPREAD > BOUND", False
            print(f"  {name:<28} median {mid:>12.5g} {meta['unit']:<9} "
                  f"q1 {q1:>12.5g} q3 {q3:>12.5g} "
                  f"spread {spread:7.4f} bound {meta['bound']:.2f}{flag}")
    return steady


def cmd_run(args) -> int:
    spec = load_spec()
    names = workload_names(spec)
    if args.workload != "all" and args.workload not in names:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {names} or 'all'")
    chosen = names if args.workload == "all" else [args.workload]
    runs = []
    for repeat in range(args.repeat):
        # Alternate the order, so no workload always follows the same one.
        for workload in (chosen if repeat % 2 == 0 else chosen[::-1]):
            run = run_workload(spec, workload, args.seed, args.seconds,
                               args.trace)
            print_run(run)
            runs.append(run)
    steady = summarize(spec, runs) if args.repeat > 1 else True
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": provenance(args), "runs": runs}, fh,
                      indent=1)
    correct = all(r["correct"] for r in runs)
    if len(runs) == 1:
        print(driver_line(runs[0]))
    else:
        print(json.dumps({"correct": correct, "steady": steady,
                          "runs": len(runs)}))
    return 0 if correct else 1


def cmd_quick(args) -> int:
    """Self-test: every workload, both modes, at about 1/20 scale."""
    spec = load_spec()
    problems = []
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                problems.append(f"bad name or unit: {m}")
    started = time.monotonic()
    jobs = [(w, t) for w in workload_names(spec) for t in (0, 1)]

    def job(workload, trace):
        return run_workload(spec, workload, args.seed, QUICK_SECONDS, trace,
                            setup_samples=1)

    # Two at a time: this checks names, units and answers, not speed.
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda j: job(*j), jobs))
    for (workload, trace), run in zip(jobs, runs):
        for name, m in run["metrics"].items():
            if not isinstance(m["value"], (int, float)) or not m["unit"]:
                problems.append(f"{workload}: {name} lacks value or unit")
            elif not trace and m["value"] <= 0:
                problems.append(f"{workload}: {name} is not positive")
        if not run["correct"]:
            problems.append(f"{workload} trace {trace}: "
                            f"{run['failed']} wrong answers")
        print(f"ok   {workload} trace {trace}: "
              f"{len(run['metrics'])} metrics, "
              f"{run['attempted']} operations")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"quick self-test: {time.monotonic() - started:.1f}s, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def cmd_compare(args) -> int:
    """Apply the bounds to the medians of two result files (A = base)."""
    spec = load_spec()
    bounds = metric_table(spec, "end_to_end")
    with open(args.base) as fh:
        base = json.load(fh)["runs"]
    with open(args.new) as fh:
        new = json.load(fh)["runs"]
    regressions = 0
    for workload in workload_names(spec):
        for name, meta in bounds.items():
            values = [
                [r["metrics"][name]["value"] for r in runs
                 if r["workload"] == workload and not r["trace"]]
                for runs in (base, new)
            ]
            if not all(values):
                continue
            a, b = median(values[0]), median(values[1])
            worse = worsening(meta["better"], a, b)
            verdict = "ok"
            if worse > meta["bound"]:
                verdict, regressions = "REGRESSION", regressions + 1
            print(f"{workload:<32} {name:<24} {a:>12.5g} -> {b:>12.5g} "
                  f"{meta['unit']:<9} worse by {worse:+.4f} "
                  f"(bound {meta['bound']:.2f}) {verdict}")
        for label, runs in (("base", base), ("new", new)):
            wrong = sum(r["failed"] for r in runs if r["workload"] == workload)
            if wrong:
                print(f"{workload:<32} {label}: {wrong} wrong answers")
                regressions += 1
    print(f"compare: {regressions} regressions")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return cmd_compare(parser.parse_args(argv[1:]))
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write a result file (for `compare`)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test every workload at small scale")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    return cmd_quick(args) if args.quick else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
