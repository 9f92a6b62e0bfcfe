#!/usr/bin/env bash
# Full verification gate: plain build + tests, ASan/UBSan, TSan, quick bench
# smoke, examples, the soak/fuzz tools and the perfbench self-tests. Run from
# the repository root.
#
#   scripts/check.sh            # everything (slow: three full builds)
#   scripts/check.sh --fast     # plain build + tests + smoke only
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() { echo "+ $*"; "$@"; }

# Configure build tree $1 (remaining arguments go to cmake). A fresh tree
# gets Ninja; a tree configured before keeps the generator in its cache, so a
# build/ first made by the plain `cmake -B build -S .` (the platform default
# generator) is reused instead of stopping on a generator mismatch.
configure() {
  local dir=$1
  shift
  if [[ -f "$dir/CMakeCache.txt" ]]; then
    run cmake -B "$dir" "$@"
  else
    run cmake -B "$dir" -G Ninja "$@"
  fi
}

echo "=== one event seam, one tree facade, one allocator, one tree per map, one export, one perf gate, one profiler clock: no legacy hooks, Handles, knobs, pool, shards, Prometheus, snapshot diffing or perf_event counters ==="
# Protocol events reach Traits only through hooks::emit -> on_event(const
# Event&) (core/debug_hooks.hpp). Fail if a second seam grows back: an
# on_cas hook, a multi-argument at(HookPoint ...) hook, or the old emit_*
# shims, defined or called anywhere in src/, tools/ or tests/.
if grep -rnE '\bon_cas\(|\bat\(\s*(efrb::)?HookPoint[^)]*,|\bemit_(help|phase|cas|at)\b' \
    src tools tests; then
  echo "legacy hook seam found (use hooks::emit / Traits::on_event)"; exit 1
fi
# One tree facade: every tree's Handle is TreeMap::Handle (core/tree_map.hpp),
# and the retired lean/full read-path switch stays gone.
handles=$(grep -rnE '^\s*class Handle\b' src/core | wc -l)
if [[ "$handles" -gt 1 ]]; then
  grep -rnE '^\s*class Handle\b' src/core
  echo "src/core defines class Handle $handles times (derive from TreeMap)"; exit 1
fi
if grep -rnE '\bkLeanFind\b|\bFullSearchFindTraits\b' src tests bench tools; then
  echo "retired read-path knob found (reads always take find_path)"; exit 1
fi
# One allocator: every node and record is a plain new/delete. The object
# pool and its plumbing stay deleted.
if grep -rnE 'ObjectPool|BlockPool|PooledTraits|kPooledAlloc|PoolHook|set_pool_return|EFRB_TEST_POOLED|HeapAllocator' \
    src tests bench tools examples; then
  echo "object-pool name found (nodes and records use plain new/delete)"; exit 1
fi
# One tree per map: the sharded front end (routers, ShardedMap, shard balance
# telemetry) stays deleted. The per-handle StatShard/ShardPool counter blocks
# are unrelated and do not match.
if grep -rnE 'ShardedMap|ShardedSet|HashRouter|RangeRouter|ShardBalanceReport|score_shard_map|add_cell_sharded|efrb_shard_|shard/' \
    src tests bench tools examples; then
  echo "sharded front-end name found (each map is one tree)"; exit 1
fi
# One export: the efrb-metrics JSON document (obs/metrics.hpp) is the only
# machine-readable metrics format. The Prometheus exposition stays deleted.
if grep -rnE 'PromWriter|_prom\(|--prom|obs/prom\.hpp' \
    src tests bench tools examples; then
  echo "Prometheus exposition name found (export the metrics JSON instead)"; exit 1
fi
# One perf gate: perfbench (BENCHMARK.json) judges performance claims. The
# wall-clock snapshot pipeline (snapshot differ, snapshot script, repo-root
# snapshots) stays deleted; bench/history/ is a read-only archive.
if grep -rnE 'efrb_perfdiff|obs/perfdiff\.hpp|bench_json\.sh|EFRB_PERFDIFF_STRICT|BENCH_(throughput|latency)\.json' \
    src tests bench tools examples; then
  echo "snapshot-regression name found (perfbench is the perf gate)"; exit 1
fi
# One profiler clock: the phase profiler charges each thread for its CPU
# time (CLOCK_THREAD_CPUTIME_ID). The perf_event counter tiers stay deleted.
if grep -rnE 'perfctr|PerfCounterGroup|PerfCounts|EFRB_PERFCTR_DISABLE|hw_cycles_est' \
    src tests bench tools examples; then
  echo "perf_event counter name found (the profiler uses thread CPU time)"; exit 1
fi

echo "=== plain build + tests ==="
configure build
# The plain build must compile without a warning (-Wall -Wextra). Only the
# translation units this run recompiles print theirs, so a fresh tree checks
# every one of them.
run cmake --build build --parallel "$(nproc)" 2>&1 | tee build/build.log
if grep -n 'warning:' build/build.log; then
  echo "the plain build printed compiler warnings"; exit 1
fi
run ctest --test-dir build --output-on-failure

echo "=== header self-containment (each src/ header as a standalone TU) ==="
run cmake --build build --parallel "$(nproc)" --target header_selfcontained

echo "=== examples ==="
for ex in quickstart kv_cache order_book adversarial_find time_series; do
  run "./build/examples/${ex}" > /dev/null
done

echo "=== bench smoke (short cells) ==="
for b in build/bench/*; do
  [[ -x "$b" && ! -d "$b" ]] || continue
  if [[ "$b" == *bench_latency* ]]; then
    run "$b" --benchmark_min_time=0.01 > /dev/null
  else
    EFRB_BENCH_MS=20 run "$b" > /dev/null
  fi
done

echo "=== tools ==="
run ./build/tools/stress_tool --seconds 1 > /dev/null
run ./build/tools/fuzz_lincheck --seconds 2 > /dev/null

echo "=== observability: metrics + trace export round-trip ==="
# obs_probe runs a traced, latency-sampled workload and writes both machine-
# readable artifacts; both must parse as JSON and carry the schema the docs
# promise (docs/OBSERVABILITY.md).
run ./build/tools/obs_probe --metrics build/obs_metrics.json \
    --trace build/obs_trace.json --duration 60 --interval 10 > /dev/null
run python3 -m json.tool build/obs_metrics.json /dev/null
run python3 -m json.tool build/obs_trace.json /dev/null
python3 - <<'EOF'
import json
m = json.load(open('build/obs_metrics.json'))
for k in ('schema', 'schema_version', 'tool', 'cells'):
    assert k in m, f'metrics missing {k}'
assert m['schema'] == 'efrb-metrics' and m['schema_version'] == 5, m['schema']
assert m['cells'], 'metrics document has no cells'
cell = m['cells'][0]
for k in ('name', 'config', 'result', 'tree_stats', 'gauges', 'latency',
          'timeseries', 'heatmap', 'causality', 'watchdog'):
    assert k in cell, f'cell missing {k}'
for op in ('find', 'insert', 'erase', 'retried',
           'self_completed', 'helper_completed'):
    h = cell['latency'][op]
    for k in ('count', 'mean_ns', 'p50_ns', 'p99_ns', 'saturated', 'buckets'):
        assert k in h, f'latency[{op}] missing {k}'
assert cell['latency']['insert']['count'] > 0, 'no latency samples recorded'
# v3 causal split: every sampled op lands in exactly one of the two sides.
split = (cell['latency']['self_completed']['count']
         + cell['latency']['helper_completed']['count'])
sampled = sum(cell['latency'][op]['count'] for op in ('find', 'insert', 'erase'))
assert split == sampled, f'causal latency split {split} != sampled {sampled}'
cz = cell['causality']
for k in ('total_helps', 'dropped_unattributed', 'helped_by',
          'helps_received'):
    assert k in cz, f'causality missing {k}'
assert sum(sum(row.values()) for row in cz['helped_by'].values()) \
    == cz['total_helps'], 'causality matrix does not sum to total_helps'
wd = cell['watchdog']
for k in ('stalled_ops', 'stall_events_total'):
    assert k in wd, f'watchdog missing {k}'
assert wd['stalled_ops'] <= wd['stall_events_total'], \
    'watchdog reports more stalled ops than stall events'
ts = cell['timeseries']
assert ts['samples'], 'timeseries has no samples'
assert len(ts['windows']) == len(ts['samples']) - 1, 'windows != samples-1'
for k in ('t_ns', 'ops', 'cas_attempts', 'cas_failures', 'helps', 'retries',
          'retired', 'freed', 'backlog'):
    assert k in ts['samples'][0], f'timeseries sample missing {k}'
for k in ('t_ns', 'window_s', 'ops_per_s', 'cas_failure_rate', 'helps_per_s',
          'retries_per_s', 'retired_per_s', 'freed_per_s', 'backlog_slope'):
    assert k in ts['windows'][0], f'timeseries window missing {k}'
hm = cell['heatmap']
for k in ('key_range', 'buckets', 'dropped', 'strip', 'cells'):
    assert k in hm, f'heatmap missing {k}'
assert len(hm['cells']) == hm['buckets'], 'heatmap cell count != buckets'
assert sum(c[0] for c in hm['cells']) > 0, 'heatmap recorded no attempts'
t = json.load(open('build/obs_trace.json'))
assert t.get('traceEvents'), 'trace has no events'
phases = {e['ph'] for e in t['traceEvents']}
assert 'B' in phases and 'E' in phases, f'no spans in trace: {phases}'
print(f"observability OK: {len(t['traceEvents'])} trace events, "
      f"{len(m['cells'])} metrics cell(s), {len(ts['samples'])} poll samples")
EOF
# The shared --json flag must work in every bench binary; smoke the heaviest.
# EFRB_BENCH_SEED pins the op/key streams so the fixed-op cells in this
# document are reproducible.
EFRB_BENCH_MS=20 EFRB_BENCH_SEED=1234 run ./build/bench/bench_throughput \
    --json build/bench_throughput_smoke.json > /dev/null
run python3 -m json.tool build/bench_throughput_smoke.json /dev/null

echo "=== continuous telemetry: efrb_top headless ==="
# efrb_top --once renders a single plain frame (no escape codes) after the
# run — the headless CI path. The frame must carry the windowed-rate table,
# the heatmap strip, and the reclaim gauge line.
run ./build/tools/efrb_top --once --ms 80 --interval 10 --threads 2 \
    > build/efrb_top_once.txt
for needle in 'ops/s' 'cas fail %' 'backlog slope' 'heatmap' 'reclaim' \
    'causal' 'stalls' 'poller samples' 'latency' 'saturated=' 'profile' \
    'descent' 'cas_protocol'; do
  grep -q "$needle" build/efrb_top_once.txt \
    || { echo "efrb_top --once output missing '$needle'"; exit 1; }
done
# No live-mode escape codes may leak into the --once path.
if grep -q $'\x1b' build/efrb_top_once.txt; then
  echo "efrb_top --once emitted ANSI escapes"; exit 1
fi

echo "=== profile: phase attribution on thread CPU time ==="
# obs_probe --profile attaches the phase profiler, and each worker hands in
# its thread CPU time; the v5 `profile` cell must carry the attribution
# totals with the phase-sum invariant, and the on-CPU phases plus the
# preempted ticks must add up to the wall in-op ticks.
run ./build/tools/obs_probe --profile --metrics build/obs_profile.json \
    --duration 60 --interval 10 > /dev/null
python3 - <<'EOF'
import json
m = json.load(open('build/obs_profile.json'))
assert m['schema_version'] == 5, m['schema_version']
cell = m['cells'][0]
p = cell['profile']
for k in ('source', 'ops', 'cycles', 'wall_cycles', 'preempted_cycles',
          'span_cycles', 'cycles_per_op', 'phase_cycles_sum', 'cpu_ns',
          'wall_ns', 'events_outside_op', 'dropped', 'phases'):
    assert k in p, f'profile cell missing {k}'
for k in ('available', 'sw_available', 'unavailable_reason', 'paranoid',
          'hw', 'sw', 'derived'):
    assert k not in p, f'profile cell still carries {k}'
assert p['ops'] > 0, 'profile attributed no operations'
assert p['cycles'] > 0, 'profile measured no cycles'
assert p['cpu_ns'] > 0, 'no worker handed in its thread CPU time'
assert p['phase_cycles_sum'] <= p['cycles'], \
    f"phase attribution {p['phase_cycles_sum']} exceeds total {p['cycles']}"
# Each thread's phases truncate separately: at most one tick per phase and
# thread short of the wall total.
gap = p['wall_cycles'] - (p['phase_cycles_sum'] + p['preempted_cycles'])
assert 0 <= gap <= 6 * cell['config']['threads'], \
    f"phases + preempted miss wall_cycles by {gap}"
for name in ('descent', 'cas_protocol', 'helping', 'rebalance_cleanup',
             'reclamation', 'pool_alloc'):
    ph = p['phases'][name]
    for k in ('cycles', 'enters', 'share'):
        assert k in ph, f'phase {name} missing {k}'
assert p['phases']['descent']['cycles'] > 0, 'no descent time attributed'
print(f"profile OK: {p['ops']} ops, {p['cycles_per_op']:.0f} "
      f"{p['source']}/op on-CPU, preempted "
      f"{100 * p['preempted_cycles'] / p['wall_cycles']:.1f}%")
EOF

echo "=== postmortem: abort-injected flight dump must decode ==="
# obs_probe --abort raises SIGABRT after the run; the installed flight
# handler must leave a decodable black box behind (signal-safe write path),
# and efrb_postmortem must reconstruct gauges, the progress table, and the
# per-thread timelines from it.
rm -f build/obs_crash.bin
set +e
./build/tools/obs_probe --ms 60 --abort --flight build/obs_crash.bin \
    > /dev/null 2>&1
probe_rc=$?
set -e
[[ "$probe_rc" -ne 0 ]] \
  || { echo "obs_probe --abort exited 0 (expected a SIGABRT death)"; exit 1; }
[[ -s build/obs_crash.bin ]] \
  || { echo "flight handler wrote no dump"; exit 1; }
run ./build/tools/efrb_postmortem build/obs_crash.bin > build/postmortem.txt
for needle in 'flight dump v1' 'gauges' 'progress table' \
    'per-thread timeline' 'inferred help graph'; do
  grep -q "$needle" build/postmortem.txt \
    || { echo "efrb_postmortem output missing '$needle'"; exit 1; }
done
echo "postmortem OK: exit $probe_rc, $(wc -c < build/obs_crash.bin) byte dump"

if [[ "$FAST" == "0" ]]; then
  echo "=== ASan + UBSan ==="
  configure build-asan -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  run cmake --build build-asan --parallel "$(nproc)"
  run ctest --test-dir build-asan --output-on-failure --timeout 600

  echo "=== TSan ==="
  configure build-tsan -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DEFRB_SANITIZE_THREAD=ON
  run cmake --build build-tsan --parallel "$(nproc)"
  run ctest --test-dir build-tsan --output-on-failure --timeout 900

  echo "=== TSan + forced stats (kCountStats=true shards under the race detector) ==="
  # EFRB_TEST_FORCE_STATS switches the concurrent suites to StatsTraits so the
  # per-handle stat shards and the shared counter block race under TSan too.
  configure build-tsan-stats -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DEFRB_SANITIZE_THREAD=ON \
      -DCMAKE_CXX_FLAGS="-DEFRB_TEST_FORCE_STATS"
  run cmake --build build-tsan-stats --parallel "$(nproc)"
  run ctest --test-dir build-tsan-stats --output-on-failure --timeout 900 \
      -R 'Handle|Stats|Concurrent|Chaos'

  echo "=== balanced tree: advisory balance gate ==="
  # The chromatic suites (chromatic_test, chromatic_concurrent_test) run
  # under both sanitizers in the plain ASan/TSan ctest sweeps above.
  # A/B gate over the E1d balance ablation: the chromatic tree must crush the
  # EFRB tree on its pathological input (sorted insert: the vine vs O(log n)
  # rebalancing) while paying at most 10% rent on the uniform balanced mix.
  # Summed over thread counts to average scheduler noise. Wall-clock ratios
  # from short runs are still noisy on loaded or heterogeneous machines, so
  # the thresholds are ADVISORY by default (a miss prints a warning, the
  # pipeline continues); EFRB_BALANCE_GATE_STRICT=1 enforces them, with one
  # longer-run retry first so a scheduler hiccup alone cannot fail CI.
  # EFRB_BENCH_SEED pins the key/op streams; with the fixed-op cells below the
  # A/B pair then does IDENTICAL work and the ratio is a property of the trees,
  # not of where the duration timer happened to cut each run off.
  balance_bench() {
    EFRB_BENCH_MS="$1" EFRB_BENCH_SEED=1234 run ./build/bench/bench_throughput \
        --json build/balance_gate.json > /dev/null
  }
  balance_eval() {
    python3 - <<'EOF'
import json
cells = json.load(open('build/balance_gate.json'))['cells']
def total(name):
    t = sum(c['result']['mops'] for c in cells if c['name'] == name)
    assert t > 0, f'no {name} cells in balance ablation output'
    return t
sorted_ratio = (total('balance:sorted-insert chromatic')
                / total('balance:sorted-insert efrb'))
# The uniform-rent gate reads the FIXED-OP cells (balance:uniform-ops ...):
# both trees execute the same pinned-seed op stream to completion, so the
# ratio compares time-per-identical-work instead of whatever each tree got
# done before a wall clock expired. That basis is much tighter run-to-run
# (observed ~0.80-0.84 vs 0.90-0.97 spread for the duration cells) but sits
# lower, because equal work makes the chromatic tree pay for its rebalancing
# ops rather than silently doing fewer of them; hence >= 0.75, not >= 0.9.
uniform_ratio = (total('balance:uniform-ops chromatic')
                 / total('balance:uniform-ops efrb'))
total('balance:uniform chromatic')  # presence checks for the full grid
total('balance:zipf chromatic')
print(f'balance gate: sorted-insert {sorted_ratio:.1f}x, '
      f'uniform-ops {uniform_ratio:.2f}x (chromatic/efrb, summed over threads)')
assert sorted_ratio >= 5.0, (
    f'chromatic tree lost its reason to exist: only {sorted_ratio:.1f}x over '
    f'EFRB on sorted insert (gate: >= 5x)')
assert uniform_ratio >= 0.75, (
    f'chromatic rebalancing rent too high on the uniform fixed-op mix: '
    f'{uniform_ratio:.2f}x of EFRB (gate: >= 0.75x)')
print('balance gate OK')
EOF
  }
  balance_bench "${EFRB_BALANCE_GATE_MS:-120}"  # a bench crash stays fatal
  if balance_eval; then
    :
  elif [[ "${EFRB_BALANCE_GATE_STRICT:-0}" == "1" ]]; then
    echo "balance gate missed on the short run; retrying with a longer run"
    balance_bench "${EFRB_BALANCE_GATE_MS_RETRY:-600}"
    balance_eval
  else
    echo "WARNING: balance gate below thresholds (advisory on this machine;" \
         "set EFRB_BALANCE_GATE_STRICT=1 to enforce)"
  fi

  echo "=== debug-hooks instrumented build (live non-Noop on_event sink) ==="
  # EFRB_TEST_FORCE_HOOKS switches the concurrent suites to traits whose
  # on_event sink runs real code, proving every emission point in
  # protocol.hpp survives refactors (NoopTraits compiles them away).
  configure build-hooks -DEFRB_BUILD_BENCH=OFF -DEFRB_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-DEFRB_TEST_FORCE_HOOKS"
  run cmake --build build-hooks --parallel "$(nproc)"
  run ctest --test-dir build-hooks --output-on-failure --timeout 600 \
      -R 'Concurrent|Instrumented|StateMachine|Schedule'

  echo "=== fault injection (hooks-forced build, then TSan) ==="
  # The suite prints its chaos seed ([chaos] EFRB_FAULT_SEED=...); tee it
  # into a persistent log so a failing run can be replayed bit-for-bit with
  # EFRB_FAULT_SEED=<seed> scripts/... (set -o pipefail keeps failures fatal
  # through the tee).
  FAULT_LOG=build/fault_injection.log
  : > "$FAULT_LOG"
  run cmake --build build-hooks --parallel "$(nproc)" --target fault_injection_test
  ./build-hooks/tests/fault_injection_test --gtest_color=no 2>&1 | tee -a "$FAULT_LOG"
  run cmake --build build-tsan --parallel "$(nproc)" --target fault_injection_test
  ./build-tsan/tests/fault_injection_test --gtest_color=no 2>&1 | tee -a "$FAULT_LOG"
  echo "fault-injection output (incl. chaos seeds) saved to $FAULT_LOG"

  echo "=== perfbench: oracle + per-workload output checks (Release) ==="
  # The repository benchmark (perfbench/, a CMake package of its own) builds
  # against these headers, so a layout or protocol change alters the trees it
  # measures. Its ctest runs the oracle test and a short run of every
  # BENCHMARK.json workload through the output checks (smoke_test.py).
  configure build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
  run cmake --build build-perfbench --parallel "$(nproc)"
  run ctest --test-dir build-perfbench --output-on-failure
fi

echo "ALL CHECKS PASSED"
