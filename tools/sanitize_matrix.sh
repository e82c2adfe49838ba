#!/usr/bin/env bash
# Sanitizer matrix: configure one build tree per requested sanitizer
# and drive the test selection most likely to catch the corresponding
# bug class — memory errors on the source-JIT/codegen path (temp dirs,
# dlopen lifetimes, the disk cache), the packed tile layout
# (hand-computed record offsets), the verifier mutation corpus (which
# deliberately corrupts buffers), and data races in the parallel
# walkers.
#
# Usage: tools/sanitize_matrix.sh [sanitizer...]
#   sanitizer: address | undefined | thread   (default: all three)
#
# Each sanitizer builds into build-<sanitizer>/. A test filter can be
# overridden via TREEBEARD_SANITIZE_TESTS.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
    SANITIZERS=(address undefined thread)
fi

DEFAULT_FILTER='SystemJit|CppEmitter|PackedLayout|BackendParity|UnifiedSession'
# Quantized packed records: hand-packed 32-byte records, the affine
# quantizer, and the int16 walkers (PackedQuantizedRecord,
# PackedQuantizedLayout; LirVerifierPackedQuantized rides on the
# LirVerifier pattern below).
DEFAULT_FILTER="$DEFAULT_FILTER"'|PackedQuantized'
# The verifier corpus mutates live buffers; run it under every
# sanitizer to prove the analysis itself never reads out of bounds.
DEFAULT_FILTER="$DEFAULT_FILTER"'|LirVerifier|HirVerifier|MirVerifier|ModelLoadVerifier|VerifyEach'
# The resident-dataset cache (bind-time quantized image, rebind
# invalidation) and the shared-session concurrency suite: thread mode
# proves the pool handoff and the dataset cache race-free, the memory
# modes watch the cached image's bounds.
DEFAULT_FILTER="$DEFAULT_FILTER"'|ResidentDataset|SharedSessionConcurrency|ThreadPoolConcurrency|CrossBackendFuzz'
# The serving layer: registry compile/evict races, the batcher's
# queue/flusher handoff and the multi-tenant exactness suite — thread
# mode proves the request path race-free, the memory modes watch the
# coalesced batch buffers.
DEFAULT_FILTER="$DEFAULT_FILTER"'|ModelRegistry|DynamicBatcher|Server|ServingExactness'
# The lock-order validator suite: the injected-cycle tests prove the
# detector fires, and the registry-evict-while-batcher-flush stress is
# written for thread mode — TSan watches the reap path while the
# runtime validator asserts no runtime.lock.* diagnostic fires.
DEFAULT_FILTER="$DEFAULT_FILTER"'|LockOrder'
# The TCP transport: the fault-injection matrix (torn frames,
# mid-predict disconnects, stop-under-load) exercises the acceptor /
# handler / stop teardown races — thread mode proves the connection
# registry and stop protocol race-free, the memory modes watch the
# frame-assembly buffers; the wire fuzzer rides along with random
# frames.
DEFAULT_FILTER="$DEFAULT_FILTER"'|WireCodec|WireTransport|WireExactness|WireFuzz'
# HIR tile storage: tiles live in flat per-tree arrays indexed by
# record offsets, and padding appends into pre-reserved space — the
# memory modes prove tiling, padding and the lowering goldens
# (HirStorageGolden) never index past a tile's spans.
DEFAULT_FILTER="$DEFAULT_FILTER"'|Tiling|HirStorage'
# The row-parallel lane-group walkers gather through the ForestView's
# raw pointers (the widened default-left copy included) on both
# backends; the memory modes watch those gathers.
DEFAULT_FILTER="$DEFAULT_FILTER"'|RowParallel'
FILTER="${TREEBEARD_SANITIZE_TESTS:-$DEFAULT_FILTER}"

TARGETS=(codegen_test packed_layout_test backend_parity_test
         row_parallel_test verifier_test resident_dataset_test
         concurrency_test serving_test lock_order_test
         property_sweep_test transport_test wire_fuzz_test
         tiling_test hir_storage_test)

for sanitizer in "${SANITIZERS[@]}"; do
    case "$sanitizer" in
    address | undefined | thread) ;;
    *)
        echo "unknown sanitizer: $sanitizer" >&2
        echo "expected address, undefined or thread" >&2
        exit 2
        ;;
    esac
done

for sanitizer in "${SANITIZERS[@]}"; do
    build_dir="build-${sanitizer}"
    echo "=== sanitize: $sanitizer ($build_dir) ==="

    cmake -B "$build_dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTREEBEARD_SANITIZE="$sanitizer"
    cmake --build "$build_dir" -j --target "${TARGETS[@]}"

    # detect_leaks needs ptrace; keep the run usable in containers.
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
    # abort on the first UB report instead of printing and continuing.
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}"

    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
        -R "$FILTER"

    echo "=== sanitize: $sanitizer OK ==="
done

echo "sanitize matrix: OK (${SANITIZERS[*]})"
