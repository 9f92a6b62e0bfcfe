#!/usr/bin/env bash
# Regenerate the repo-root BENCH_*.json trajectory snapshots: the throughput
# grid and the latency-histogram cells, captured through the shared --json
# flag (bench_common.hpp) into the schema-versioned metrics document
# (src/obs/metrics.hpp, docs/OBSERVABILITY.md).
#
#   scripts/bench_json.sh           # default 60 ms cells
#   EFRB_BENCH_MS=500 scripts/bench_json.sh   # longer cells, lower variance
#
# The snapshots are checked in so the numbers travel with the history; rerun
# this after perf-relevant changes and commit the diff. Absolute numbers are
# machine-dependent — compare shapes and ratios, not values, across hosts.
# The workload seed is pinned (EFRB_BENCH_SEED, see bench/bench_common.hpp)
# so successive regenerations draw the same key/op streams and the diff only
# reflects code and machine, not RNG luck.
#
# After the bench binaries write their documents, a top-level `meta` object
# is injected (hostname, CPU model, cores, governor, perf_event_paranoid,
# seed, bench_ms, timestamp) — the provenance tools/efrb_perfdiff uses to
# refuse cross-host comparisons. A timestamped copy of each document is
# archived under bench/history/ so perf trajectories accumulate alongside
# the code history.
set -euo pipefail
cd "$(dirname "$0")/.."

: "${EFRB_BENCH_MS:=60}"
: "${EFRB_BENCH_SEED:=3405691582}"
export EFRB_BENCH_MS EFRB_BENCH_SEED

cmake -B build > /dev/null
cmake --build build --target bench_throughput bench_latency > /dev/null

echo "=== bench_throughput --json BENCH_throughput.json (${EFRB_BENCH_MS} ms cells) ==="
./build/bench/bench_throughput --json BENCH_throughput.json > /dev/null

echo "=== bench_latency --json BENCH_latency.json ==="
./build/bench/bench_latency --benchmark_min_time=0.01 \
    --json BENCH_latency.json > /dev/null 2>&1

# Inject snapshot provenance. The bench binaries stay meta-free (a run is a
# run); the script is the actor that knows it is producing a comparable,
# archivable snapshot.
inject_meta() {
  python3 - "$1" <<'EOF'
import datetime
import json
import os
import platform
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

def read(p, default=''):
    try:
        with open(p) as f:
            return f.read().strip()
    except OSError:
        return default

cpu_model = ''
for line in read('/proc/cpuinfo').splitlines():
    if line.startswith('model name'):
        cpu_model = line.split(':', 1)[1].strip()
        break

meta = {
    'hostname': platform.node(),
    'cpu_model': cpu_model,
    'cores': os.cpu_count() or 0,
    'governor': read(
        '/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor', 'unknown'),
    'perf_event_paranoid': int(
        read('/proc/sys/kernel/perf_event_paranoid', '-100') or '-100'),
    'seed': int(os.environ['EFRB_BENCH_SEED']),
    'bench_ms': int(os.environ['EFRB_BENCH_MS']),
    'timestamp': datetime.datetime.now(datetime.timezone.utc)
        .strftime('%Y-%m-%dT%H:%M:%SZ'),
}

# Rebuild the document with meta right after the tool key so the provenance
# reads first; consumers ignore unknown keys (schema v2+ contract).
out = {}
for k, v in doc.items():
    out[k] = v
    if k == 'tool':
        out['meta'] = meta
out.setdefault('meta', meta)
with open(path, 'w') as f:
    json.dump(out, f, separators=(',', ':'))
EOF
}

inject_meta BENCH_throughput.json
inject_meta BENCH_latency.json

python3 -m json.tool BENCH_throughput.json > /dev/null
python3 -m json.tool BENCH_latency.json > /dev/null
echo "wrote BENCH_throughput.json ($(wc -c < BENCH_throughput.json) bytes)"
echo "wrote BENCH_latency.json ($(wc -c < BENCH_latency.json) bytes)"

# Archive this snapshot into the perf trajectory. History entries are plain
# copies — compare any two with tools/efrb_perfdiff (same host) or
# --allow-cross-host across machines.
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p bench/history
cp BENCH_throughput.json "bench/history/${stamp}_throughput.json"
cp BENCH_latency.json "bench/history/${stamp}_latency.json"
echo "archived bench/history/${stamp}_{throughput,latency}.json"
