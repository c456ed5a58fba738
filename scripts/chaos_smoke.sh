#!/usr/bin/env bash
# Chaos smoke: run the fault-injection suite under several seeds.
#
# The `faults` marker selects tests that SIGKILL shm shard workers
# (detected as WorkerCrashError, recovered by checkpoint resume), hang
# them, and flip bits in live sampler banks; the seed sweep varies the
# streams and bit-flip targets so recovery and detection are exercised
# on different traces, not one hand-picked one. Per seed, two
# invocations: the full fault suite and the bit-flip injection mode
# (audit suite alone, proving detection -> localization -> exclusion ->
# correct answer).
#
# The sketch service's faults run in the deterministic simulator
# (`python -m repro sim`): the real servers, WALs and quorum code on a
# virtual clock, network and disk. Service mode sweeps 200 seeded
# schedules on a lone node from the given seed; replica mode sweeps
# 200 on a 3-replica fleet, then runs the real-socket failover and
# replication suites.
# Usage:
#
#   scripts/chaos_smoke.sh                    # default seeds 0 1 2
#   scripts/chaos_smoke.sh 7 11 13            # custom seeds
#   scripts/chaos_smoke.sh service           # service mode only: kills,
#                                            # stalls, full disks on one
#                                            # WAL-backed node; zero acked
#                                            # loss, serial-replay equality
#   scripts/chaos_smoke.sh replica           # replica mode only: the same
#                                            # checks on a quorum fleet,
#                                            # plus failover and anti-entropy
set -euo pipefail

cd "$(dirname "$0")/.."

# On any failure, print WHICH seed and stage broke and how to replay
# it — a seed sweep that dies with a bare pytest exit code is useless
# for triage.  The trap fires on the first non-zero exit (errexit).
current_seed="(none)"
current_stage="(startup)"
on_failure() {
    status=$?
    if [ "${status}" -ne 0 ]; then
        echo "" >&2
        echo "=== chaos smoke FAILED ===" >&2
        echo "    seed:  ${current_seed}" >&2
        echo "    stage: ${current_stage}" >&2
        echo "    replay: scripts/chaos_smoke.sh ${mode:-all} ${current_seed}" >&2
        echo "    (or: PYTHONPATH=src python -m pytest -m faults --chaos-seed=${current_seed}" >&2
        echo "     or: PYTHONPATH=src python -m repro sim [--replicas 1] --seed ${current_seed})" >&2
    fi
    exit "${status}"
}
trap on_failure EXIT

mode=all
if [ $# -gt 0 ] && { [ "$1" = "service" ] || [ "$1" = "replica" ]; }; then
    mode=$1
    shift
fi

seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(0 1 2)
fi

for seed in "${seeds[@]}"; do
    current_seed="${seed}"
    if [ "${mode}" = "all" ]; then
        current_stage="full fault suite"
        echo "=== chaos smoke: seed ${seed} ==="
        PYTHONPATH=src python -m pytest -q -m faults --chaos-seed="${seed}"
        current_stage="bit-flip mode"
        echo "=== chaos smoke (bit-flip mode): seed ${seed} ==="
        PYTHONPATH=src python -m pytest -q tests/audit -m faults --chaos-seed="${seed}"
    fi
    if [ "${mode}" = "all" ] || [ "${mode}" = "service" ]; then
        current_stage="service mode"
        echo "=== chaos smoke (service mode): seed ${seed} ==="
        PYTHONPATH=src python -m repro sim --replicas 1 --schedules 200 --seed "${seed}"
    fi
    if [ "${mode}" = "all" ] || [ "${mode}" = "replica" ]; then
        current_stage="replica mode"
        echo "=== chaos smoke (replica mode): seed ${seed} ==="
        PYTHONPATH=src python -m repro sim --schedules 200 --seed "${seed}"
        PYTHONPATH=src python -m pytest -q tests/service/test_failover.py \
            tests/service/test_replication.py
    fi
done
echo "=== chaos smoke (${mode}): all ${#seeds[@]} seeds passed ==="
