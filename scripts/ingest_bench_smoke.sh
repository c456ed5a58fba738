#!/usr/bin/env bash
# Ingest-bench regression smoke: fail if the E19 speedup bars regress.
#
# Runs the `ingestbench`-marked benchmarks, which assert
#   * batched ingest >= 5x the scalar per-event loop at n >= 256
#     (bench_e19_batched_speedup),
#   * batched ingest >= 30x scalar at n = 1024
#     (bench_e19_scale_headline), and
#   * bit-identical sketch state across scalar/batched/sharded paths
#     and every backend (serial, shm),
# so a kernel or pool change that silently slows the fused path below
# a bar — or worse, diverges from the scalar reference — fails CI here
# instead of surfacing in EXPERIMENTS.md later.  Each run also appends
# its throughput rows to BENCH_ingest.json.
#
# Usage:
#
#   scripts/ingest_bench_smoke.sh              # the E19 suite
#   scripts/ingest_bench_smoke.sh -k headline  # extra pytest args pass through
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== ingest bench regression (pytest -m ingestbench) =="
python -m pytest benchmarks/bench_ingest_engine.py -m ingestbench -q "$@"

echo "ingest bench smoke: speedup bars and bit-identity hold"
