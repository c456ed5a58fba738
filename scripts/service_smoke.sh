#!/usr/bin/env bash
# Service smoke: boot the sketch server, drive it, drain it, resume it.
#
# The round exercises the whole serving stack end to end:
#   1. `python -m repro serve` boots with a checkpoint directory;
#   2. a `ServiceClient` creates `load-0`, sends a few churny ingest
#      batches and asks one fresh query;
#   3. `repro ctl` checks stats, audits the live sketch, and queries it;
#   4. SIGTERM drains the server — it must exit 0 and leave a final
#      checkpoint;
#   5. a second `serve --resume` restores the sketch and must answer
#      the same query from the restored state.
#
# Throughput and latency are measured by `benchmarks/perf/run.py`, not
# here.
#
# Usage:
#
#   scripts/service_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "${server_pid}" ] && kill -0 "${server_pid}" 2>/dev/null; then
        kill -9 "${server_pid}" 2>/dev/null || true
    fi
    rm -rf "${workdir}"
}
trap cleanup EXIT

wait_for_port() {
    # Prints the port from the server's ready line, or fails.
    local log=$1
    for _ in $(seq 1 100); do
        if port=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' "${log}" | head -1) \
            && [ -n "${port}" ]; then
            echo "${port}"
            return 0
        fi
        sleep 0.1
    done
    echo "server never printed its ready line:" >&2
    cat "${log}" >&2
    return 1
}

echo "== service smoke: boot =="
python -m repro serve --checkpoint-dir "${workdir}/ckpt" \
    --checkpoint-interval 2.0 > "${workdir}/server.log" 2>&1 &
server_pid=$!
port=$(wait_for_port "${workdir}/server.log")
echo "server up on port ${port} (pid ${server_pid})"

echo "== service smoke: load burst =="
python - "${port}" <<'EOF'
import asyncio, sys
import numpy as np
from repro.service.client import ServiceClient

async def burst(port, n=128, batch=1024):
    # Each round inserts `batch` fresh edges of K_n, then deletes a
    # fifth of them again: churn, and never an invalid delete.
    us, vs = np.triu_indices(n, 1)
    order = np.random.default_rng(0).permutation(us.size)
    async with await ServiceClient.connect("127.0.0.1", port) as client:
        await client.create("load-0", kind="forest", n=n, seed=0)
        for r in range(6):
            pick = order[r * batch:(r + 1) * batch]
            gone = pick[: batch // 5]
            events = await client.ingest_pairs(
                "load-0", us[pick], vs[pick], np.ones(pick.size, np.int64))
            events = await client.ingest_pairs(
                "load-0", us[gone], vs[gone], -np.ones(gone.size, np.int64))
        answer = await client.query("load-0", op="components")
    print(f"burst: {events} events, "
          f"{len(answer['components'])} components")

asyncio.run(burst(int(sys.argv[1])))
EOF

echo "== service smoke: control plane =="
python -m repro ctl stats --port "${port}" > "${workdir}/stats.json"
grep -q '"requests_total"' "${workdir}/stats.json"
python -m repro ctl health --port "${port}" --timeout 5 \
    > "${workdir}/health.json"
grep -q '"status": "ok"' "${workdir}/health.json"
grep -q '"wal_enabled": true' "${workdir}/health.json"
python -m repro ctl audit --port "${port}" --name load-0 \
    > "${workdir}/audit.json"
grep -q '"ok": true' "${workdir}/audit.json"
python -m repro ctl query --port "${port}" --name load-0 \
    --op components > "${workdir}/before.json"

echo "== service smoke: drain =="
kill -TERM "${server_pid}"
wait "${server_pid}" || {
    echo "server exited nonzero after SIGTERM" >&2
    cat "${workdir}/server.log" >&2
    exit 1
}
server_pid=""
grep -q "drained:" "${workdir}/server.log"
ls "${workdir}"/ckpt/load-0/ckpt-*.rpck > /dev/null

echo "== service smoke: resume =="
python -m repro serve --checkpoint-dir "${workdir}/ckpt" --resume \
    > "${workdir}/server2.log" 2>&1 &
server_pid=$!
port=$(wait_for_port "${workdir}/server2.log")
grep -q "restored" "${workdir}/server2.log"
python -m repro ctl query --port "${port}" --name load-0 \
    --op components > "${workdir}/after.json"
python - "$workdir/before.json" "$workdir/after.json" <<'EOF'
import json, sys
before, after = (json.load(open(p)) for p in sys.argv[1:3])
assert before["components"] == after["components"], (
    "restored components diverge from the drained state")
EOF
kill -TERM "${server_pid}"
wait "${server_pid}"
server_pid=""

echo "service smoke: drain left a valid checkpoint; resume serves it"
