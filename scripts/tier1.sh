#!/bin/sh
# Tier-1 gate: the standard build + full test suite, then the trace/codec
# surface again under ASan+UBSan (the decoders chew untrusted bytes, so they
# get the sanitizer treatment on every run), then the codec bench, which
# asserts the v2-vs-v1 compression floor.
# Usage: scripts/tier1.sh   (from the repository root)
set -e

# 1. Standard build, all tests.
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# 2. ASan+UBSan on the trace stack and the session layer: codec
#    round-trips, differential sweeps (including shared-session-vs-
#    single-tool-session and replay-vs-live equivalence), the decoder
#    fuzzers and the v2.1 corruption/salvage suite (the tests most likely to
#    walk off a buffer), plus the fault-injection differential harness.
#    The golden reports drive the CLI end to end over every zoo workload
#    and every wfs library policy, on both engines, under the sanitizers.
#    The workload-zoo suites ride along so every registered memory shape
#    (hash-join scatter, phase-sharp buffers, ...) is exercised under the
#    sanitizers too, and the engine differential suite runs the compiled
#    (fused-op) engine against the reference interpreter — including the
#    trap-at-N prefix contract — with ASan watching the lowered arrays.
#    The QUAD and AddressSet suites run here because their page lookasides
#    cache raw page pointers in front of the page maps: a pointer left stale
#    by a move, clear, merge or shard fold is a use-after-free ASan reports.
#    The access-batch suite runs here because the engine and the attribution
#    write fixed 256-record buffers through raw indices.
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target \
    test_trace test_trace_v2_codec test_trace_offline_differential \
    test_fuzz_decoders test_trace_salvage test_fault_injection \
    test_session test_session_differential test_session_replay \
    test_session_pipeline \
    test_support_metrics test_workload_zoo test_engine_differential \
    test_quad_shadow test_quad_tool test_quad_buffers test_support_address_set \
    test_access_batch tquad_cli zoo_gen wfs_gen tqtr_doctor
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R '^(test_trace|test_trace_v2_codec|test_trace_offline_differential|test_fuzz_decoders|test_trace_salvage|test_fault_injection|test_session|test_session_differential|test_session_replay|test_session_pipeline|test_support_metrics|test_workload_zoo|test_engine_differential|test_quad_shadow|test_quad_tool|test_quad_buffers|test_support_address_set|test_access_batch|golden_reports)$'

# 2b. Forced-adaptive stress under ASan: replay the whole pipeline parity
#     suite with the batch controller pinned to its most allocation-churny
#     schedule (grow doubles every lane's buffers; the freelist and the
#     recycled-buffer clears get the sanitizer treatment).
TQ_PIPELINE_FORCE_ADAPTIVE=grow \
    ./build-asan/tests/test_session_pipeline > /dev/null

# 3. ThreadSanitizer on everything that spawns threads: the parallel
#    analysis pipeline (rings, doorbells, shard merge, drain barrier,
#    push-racing-close shutdown), the thread pool / SPSC ring primitives,
#    the metrics thread-sink fold, parallel trace replay, and the
#    fault-injection harness whose trap path exercises the pipeline's
#    abort/drain sequence. The engine differential suite rides along for
#    its compiled-engine-feeding-the-parallel-pipeline cases, and the
#    access-batch suite for the lanes' batch regrouping on worker threads.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
    test_support_thread_pool test_support_metrics test_session \
    test_session_differential test_session_replay test_session_pipeline \
    test_trace test_fault_injection test_support_crc32c \
    test_workload_zoo test_trace_offline_differential test_engine_differential \
    test_access_batch
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R '^(test_support_thread_pool|test_support_metrics|test_session|test_session_differential|test_session_replay|test_session_pipeline|test_trace|test_fault_injection|test_support_crc32c|test_workload_zoo|test_trace_offline_differential|test_engine_differential|test_access_batch)$'

# 3b. Forced-adaptive stress under TSan: the cycle schedule walks every lane
#     through grow and shrink transitions while workers drain concurrently —
#     the controller's resize decisions must stay data-race-free against the
#     worker-side recycle path.
TQ_PIPELINE_FORCE_ADAPTIVE=cycle \
    ./build-tsan/tests/test_session_pipeline > /dev/null

# 4. Farm smoke under ASan: the supervisor's fork/exec/waitpid plumbing and
#    the sidecar/manifest codecs run sanitized end to end — a two-worker
#    farm over zoo traces, one of them deliberately corrupted, must
#    quarantine the poison member (exit 3) and still merge the healthy ones.
cmake --build --preset asan-ubsan -j "$(nproc)" --target \
    tquad_farm tquad_cli zoo_gen test_farm_codec
ctest --test-dir build-asan --output-on-failure -R '^test_farm_codec$'
FARM_WORK=build-asan/farm_smoke_work
rm -rf "$FARM_WORK"
mkdir -p "$FARM_WORK"
./build-asan/tools/zoo_gen -workload phased -image "$FARM_WORK/phased.tqim" > /dev/null
./build-asan/tools/tquad_cli -image "$FARM_WORK/phased.tqim" -slice 2000 \
    -trace "$FARM_WORK/a.tqtr" > /dev/null
cp "$FARM_WORK/a.tqtr" "$FARM_WORK/b.tqtr"
printf 'XXXXXXXX' | dd of="$FARM_WORK/b.tqtr" bs=1 seek=0 conv=notrunc 2> /dev/null
farm_status=0
./build-asan/tools/tquad_farm -traces "$FARM_WORK/a.tqtr,$FARM_WORK/b.tqtr" \
    -state "$FARM_WORK/state" -slice 2000 -workers 2 -max-attempts 2 \
    -backoff-ms 10 -out "$FARM_WORK/fleet.out" > "$FARM_WORK/farm.stdout" \
    || farm_status=$?
[ "$farm_status" -eq 3 ] || {
  echo "tier1: farm smoke expected exit 3 (quarantine), got $farm_status" >&2
  exit 1
}
grep -q "1 quarantined" "$FARM_WORK/farm.stdout"
grep -q "fleet bandwidth" "$FARM_WORK/fleet.out"

# 5. Codec bench: fails if v2 is not >= 4x smaller than v1 on stream or if
#    v2.1 per-block CRC verification costs >= 5% on streaming decode.
./build/bench/bench_trace_codec

# 6. Workload-zoo signature bench: gates every registered workload's
#    measured memory signature against its declared shape and writes
#    BENCH_zoo.json; fails on any gate violation.
./build/bench/bench_workload_signatures

echo "tier1: OK"
