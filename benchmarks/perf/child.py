"""One workload in one fresh process (``python -m perf.child ...``).

``run.py`` starts this module once per set-up sample and once for the
measurement, so the placement-table pool (module-global in
``repro.sketch.bank``) is cold every time and peak RSS belongs to one
workload only.  The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager


class SetupClock:
    """Seconds since the orchestrator spawned this process, minus the
    paused stretches (input generation is the benchmark's own cost)."""

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.paused = 0.0

    @contextmanager
    def pause(self):
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.paused += time.monotonic() - t0

    def elapsed(self) -> float:
        return time.monotonic() - self.spawned_at - self.paused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the spawning process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    clock = SetupClock(
        args.spawned_at if args.spawned_at is not None else time.monotonic()
    )

    from . import library, service
    from .spec import OUT
    from .trace import Tracer

    registry = dict(library.WORKLOADS)
    registry.update(service.WORKLOADS)
    workload = registry[args.workload](args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    machine = workload.machine
    try:
        machine.tick()
        workload.setup(clock)
        machine.tick()
        # Set-up time at nominal machine speed, like every other time
        # (the stretch before the first probe is scaled by the probes
        # that followed it).
        setup_s = clock.elapsed() / machine.slowdown()
        if args.setup_only:
            result = {"setup_s": setup_s, "failed": workload.failed}
        elif args.trace:
            tracer = Tracer(machine)
            layers = workload.run_traced(tracer)
            layers["probe.slowdown"] = machine.slowdown()
            tracer.write(
                os.path.join(OUT, f"trace-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds},
            )
            layers["failed_ops_share"] = workload.failed / workload.attempted
            result = {
                "metrics": {k: float(v) for k, v in layers.items()},
                "attempted": workload.attempted,
                "failed": workload.failed,
            }
        else:
            result = workload.run()
            result["metrics"] = {
                k: float(v) for k, v in result["metrics"].items()
            }
            result["metrics"]["setup_s"] = setup_s
    finally:
        workload.teardown()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
