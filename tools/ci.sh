#!/usr/bin/env bash
# Single-entry CI driver: configure + build + full ctest, then an
# address/undefined sanitizer smoke over the suites most likely to
# regress memory-safety — the resident-dataset cache, the shared
# session concurrency layer and the JIT disk cache. The full
# three-sanitizer matrix (including thread mode over the concurrency
# suite) remains tools/sanitize_matrix.sh; this script is the bounded
# per-commit gate.
#
# Usage: tools/ci.sh [build-dir]         (default: build-ci)
#
# Knobs (environment):
#   TREEBEARD_FUZZ_SEEDS   cross-backend fuzz iterations (default 6;
#                          raise for a deeper soak)
#   TREEBEARD_CI_SKIP_THREAD_SAFETY=1   skip the thread-safety stage
#   TREEBEARD_CI_SKIP_SANITIZE=1   skip the sanitizer smoke stage
#   TREEBEARD_CI_SKIP_BENCH_SMOKE=1   skip the bench smoke stage
#   TREEBEARD_CI_SKIP_SERVING_SMOKE=1   skip the serving smoke stage
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci}"

echo "=== ci: configure + build ($BUILD_DIR) ==="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j

echo "=== ci: full test suite ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

if [ "${TREEBEARD_CI_SKIP_THREAD_SAFETY:-0}" != "1" ]; then
    # Clang Thread Safety Analysis over the whole tree: the
    # GUARDED_BY/REQUIRES annotations in the concurrent core only mean
    # something under clang, so this stage is skipped (loudly) on
    # hosts without one — the runtime lock-order validator in
    # lock_order_test still gates the same discipline everywhere.
    if command -v clang++ > /dev/null 2>&1; then
        echo "=== ci: thread-safety analysis (build-tsa) ==="
        cmake -B build-tsa -S . \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DCMAKE_BUILD_TYPE=Release \
            -DTREEBEARD_THREAD_SAFETY=ON
        cmake --build build-tsa -j
    else
        echo "=== ci: thread-safety analysis skipped (no clang++) ==="
    fi
fi

if [ "${TREEBEARD_CI_SKIP_SANITIZE:-0}" != "1" ]; then
    # Smoke, not soak: one seed of the fuzz sweep is enough to drag
    # the whole compile-and-predict path under the sanitizers.
    SMOKE_FILTER='ResidentDataset|SharedSessionConcurrency'
    SMOKE_FILTER="$SMOKE_FILTER"'|ThreadPoolConcurrency|SystemJit'
    export TREEBEARD_FUZZ_SEEDS="${TREEBEARD_FUZZ_SEEDS:-1}"
    for sanitizer in address undefined; do
        echo "=== ci: ${sanitizer}-sanitizer smoke ==="
        TREEBEARD_SANITIZE_TESTS="$SMOKE_FILTER" \
            tools/sanitize_matrix.sh "$sanitizer"
    done
fi

if [ "${TREEBEARD_CI_SKIP_BENCH_SMOKE:-0}" != "1" ]; then
    # Bench smoke: every JSON-writing bench binary runs one tiny
    # configuration (TREEBEARD_BENCH_SCALE shrinks the models) and
    # must produce parseable JSON that reports a throughput figure.
    # This keeps the harness runnable without paying for a full
    # paper-scale sweep on every commit.
    echo "=== ci: bench smoke ==="
    SMOKE_DIR="$BUILD_DIR/bench-smoke"
    mkdir -p "$SMOKE_DIR"
    export TREEBEARD_BENCH_SCALE=0.02
    for bench in bench_layout_memory bench_quantized_packed \
                 bench_resident_rows bench_row_parallel; do
        out="$SMOKE_DIR/$bench.json"
        echo "--- $bench ---"
        "$BUILD_DIR/bench/$bench" "$out" > "$SMOKE_DIR/$bench.csv"
        python3 - "$out" "$bench" <<'EOF'
import json, sys
path, name = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
text = json.dumps(doc)
if "per_row" not in text and "rows_per_sec" not in text:
    raise SystemExit(f"{name}: no throughput key in {path}")
print(f"{name}: JSON ok ({len(text)} bytes)")
EOF
    done
    unset TREEBEARD_BENCH_SCALE
fi

if [ "${TREEBEARD_CI_SKIP_SERVING_SMOKE:-0}" != "1" ]; then
    # Serving smoke: one tiny closed-loop sweep through the full
    # serving stack (registry, batcher, server) must produce a
    # parseable BENCH_serving.json with finite latency percentiles.
    # Throughput *ordering* (batching vs unbatched) is only meaningful
    # at full scale, so the smoke asserts plumbing, not performance.
    echo "=== ci: serving smoke ==="
    SMOKE_DIR="$BUILD_DIR/bench-smoke"
    mkdir -p "$SMOKE_DIR"
    out="$SMOKE_DIR/bench_serving.json"
    TREEBEARD_BENCH_SCALE=0.02 "$BUILD_DIR/bench/bench_serving" \
        "$out" > "$SMOKE_DIR/bench_serving.csv"
    python3 - "$out" <<'EOF'
import json, math, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
points = doc["sweep"]
assert points, "serving sweep is empty"
for p in points:
    for key in ("rows_per_sec", "p50_us", "p99_us"):
        value = float(p[key])
        assert math.isfinite(value) and value > 0, \
            f"{key} not positive-finite in {p}"
modes = {(p["model"], p["mode"]) for p in points}
assert len({m for m, _ in modes}) >= 2, "expected >= 2 model shapes"
assert {"batched", "unbatched"} <= {m for _, m in modes}, \
    "expected both serving modes"
print(f"bench_serving: JSON ok ({len(points)} sweep points)")
EOF

    # Loopback-socket smoke: the same serving stack fronted by the TCP
    # wire transport. Start a listener on an ephemeral port, drive it
    # with the CLI's closed-loop socket driver, assert the driver's
    # JSON is sane, send SHUTDOWN and require the listener to exit 0
    # with a clean-shutdown line (exit 1 = lock-order violations).
    echo "=== ci: loopback socket smoke ==="
    CLI="$BUILD_DIR/src/tools/treebeard"
    WIRE_DIR="$SMOKE_DIR/wire"
    mkdir -p "$WIRE_DIR"
    "$CLI" synth abalone "$WIRE_DIR/model.json" 20 > /dev/null
    "$CLI" serve "$WIRE_DIR/model.json" --listen 127.0.0.1:0 \
        > "$WIRE_DIR/listener.log" 2>&1 &
    LISTENER_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
        PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
            "$WIRE_DIR/listener.log")
        [ -n "$PORT" ] && break
        kill -0 "$LISTENER_PID" 2> /dev/null || {
            echo "listener died before binding:" >&2
            cat "$WIRE_DIR/listener.log" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$PORT" ] || {
        echo "listener never reported its port" >&2
        kill "$LISTENER_PID" 2> /dev/null || true
        exit 1
    }
    "$CLI" serve "$WIRE_DIR/model.json" \
        --connect "127.0.0.1:$PORT" --clients 2 --requests 20 \
        --shutdown > "$WIRE_DIR/driver.json"
    python3 - "$WIRE_DIR/driver.json" <<'EOF'
import json, math, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["completed"] == 40, f"expected 40 completed: {doc}"
assert doc["rejected"] == 0, f"unexpected rejections: {doc}"
for key in ("p50_us", "p95_us", "p99_us", "rows_per_sec"):
    value = float(doc[key])
    assert math.isfinite(value) and value > 0, \
        f"{key} not positive-finite in {doc}"
assert doc["handle"].startswith("tb-"), doc["handle"]
print(f"wire driver: JSON ok (p50 {doc['p50_us']:.0f} us)")
EOF
    if ! wait "$LISTENER_PID"; then
        echo "listener exited non-zero (lock violations?):" >&2
        cat "$WIRE_DIR/listener.log" >&2
        exit 1
    fi
    grep -q '^shutdown: clean (0 lock violations)$' \
        "$WIRE_DIR/listener.log" || {
        echo "listener log missing clean-shutdown line:" >&2
        cat "$WIRE_DIR/listener.log" >&2
        exit 1
    }
    echo "wire listener: clean shutdown, 0 lock violations"
fi

echo "=== ci: OK ==="
