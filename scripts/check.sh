#!/usr/bin/env bash
# One-shot verification gate: Release build + full test suite (which includes
# the rp-lint tree scan and its fixture self-test) run three times — with the
# dispatched SIMD kernels (RP_SPARSE defaults to auto, so the sparse engine is
# live on every evaluate/predict), with RP_SIMD=off forcing the scalar conv
# kernels (the only code RP_SIMD switches: the four conv kernels; the
# elementwise ops have one implementation), and with RP_SPARSE=off forcing
# the dense execution path (plus
# the conv/sparse/serving/Linear/trainer slice with RP_SPARSE=csr forcing CSR, dispatched
# and under RP_SIMD=off) — then a
# fast smoke pass with RP_TRACE active (the trace file must come out as valid
# JSON), then a fault-injection pass (RP_FAULTS periodic transient write/read
# faults over the storage-heavy suite slice, plus the SIGKILL crash-matrix
# tests and the multi-worker
# distributed-scheduler matrix), then a serving smoke gate
# (the rp::serve suite serially: routing, lifecycle, bit-identity, and the
# corrupt-variant quarantine-and-drop path), then a bench-provenance gate
# (the micro-ops and serving bench binaries must self-report a true
# Release/NDEBUG build — a debug timing must never reach the committed perf
# record), then an end-to-end benchmark smoke gate (every bench/e2e
# workload path at toy scale, with its output checks), then the
# ASan+UBSan build and the same suite under it (also with SIMD dispatched, so
# the sanitizers cover the intrinsic kernels, and with the scratch pool
# poisoning its free-listed blocks). Exits non-zero on the first failure.
#
#   scripts/check.sh             # everything
#   RP_CHECK_SKIP_ASAN=1 scripts/check.sh   # skip the sanitizer pass (quick)
#
# The ThreadSanitizer config is kept out of the default gate (TSan and ASan
# cannot be combined, and the TSan pass roughly doubles runtime); run it the
# same way with -DRP_SANITIZE=thread when touching src/tensor/parallel.*.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== [1/8] Release build + tests (warnings are errors, SIMD dispatched, RP_SPARSE=auto) =="
cmake -B build -S . -DRP_WERROR=ON
cmake --build build -j "$JOBS"
RP_SPARSE=auto ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [1b] rp-lint tree pass: JSON archive + scan timing =="
# The suite above already gates on rp_lint_tree; this pass archives the
# machine-readable findings (CI/editor consumption) and surfaces the
# obs-style stderr timing line so lint-runtime regressions are visible.
RP_LINT_JSON="${RP_LINT_JSON:-build/rp_lint_findings.json}"
./build/tools/rp_lint/rp_lint --root . --json --show-suppressed --r12-burndown > "$RP_LINT_JSON"
python3 -c "import json,sys; n=len(json.load(open(sys.argv[1]))); print(f'lint archive OK: {n} record(s) ->', sys.argv[1])" \
  "$RP_LINT_JSON"

echo "== [2/8] Same suite with RP_SIMD=off (scalar conv kernels) and RP_SPARSE=off (dense path) =="
# RP_SIMD=off swaps only the four conv kernels (dense, CSR, dW, dx) for the
# scalar table; the full suite still runs under it, so every conv and Linear
# result is checked on both tables.
RP_SIMD=off ctest --test-dir build --output-on-failure -j "$JOBS"
RP_SPARSE=off ctest --test-dir build --output-on-failure -j "$JOBS"
# RP_SPARSE=csr compiles every layer to CSR, so the CSR conv kernel runs on
# every conv and Linear layer (a Linear runs on it as a 1×1 conv), not only
# on the ones auto finds sparse enough: once dispatched, once on the scalar
# kernel under RP_SIMD=off. Linear and Trainer are in the slice because
# evaluate, predict and profile_activations compile every layer through the
# trainer's SparseScope.
RP_SPARSE=csr ctest --test-dir build --output-on-failure -j "$JOBS" -R 'Conv|Sparse|Serve|Linear|Trainer'
RP_SIMD=off RP_SPARSE=csr ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'Conv|Sparse|Serve|Linear|Trainer'

echo "== [3/8] Observability smoke: tracing on, results unchanged, trace is JSON =="
# One serial pass over a results-bearing slice of the suite with RP_TRACE
# set. Each test process rewrites the shared path tmp-then-rename, so the
# final file is a whole trace from the last process — check it parses.
RP_TRACE_FILE="$(mktemp /tmp/rp_check_trace.XXXXXX.json)"
RP_TRACE="$RP_TRACE_FILE" ctest --test-dir build --output-on-failure \
  -R 'Serialize|CacheTest|BootstrapSlopeCi|ObsTest' -j 1
python3 -c "import json,sys; json.load(open(sys.argv[1])); print('trace OK:', sys.argv[1])" \
  "$RP_TRACE_FILE"
rm -f "$RP_TRACE_FILE"

echo "== [4/8] Fault injection: transient faults absorbed, crashes recovered =="
# Storage-heavy slice under a periodic transient-fault schedule: every third
# write and every fifth read raises an injected fault that durable_write /
# read_file must absorb by retrying. Serial, so the counter-indexed schedule
# stays deterministic per process.
RP_FAULTS='write:every=3,read:every=5' ctest --test-dir build --output-on-failure \
  -R 'FaultTest|CacheTest|Serialize|RunnerTest' -j 1
# Crash matrix runs without an ambient schedule: it arms RP_FAULTS itself in
# the SIGKILLed child processes it spawns.
ctest --test-dir build --output-on-failure -R 'FaultMatrix' -j 1
# Distributed-scheduler matrix: graph executor semantics, the lease
# primitives, a genuine two-process claim race, SIGKILLed-owner reclaim, and
# the 4-worker sharded sweep that must come out bit-identical to a serial
# run. Serial: the multi-process tests own their timing, and each child arms
# its own RP_FAULTS schedule.
ctest --test-dir build --output-on-failure -R 'SchedTest' -j 1

echo "== [5/8] Serving smoke: routing policy, queue lifecycle, corrupt-variant drop =="
# Full rp::serve suite serially: registry load order, potential-aware
# routing, admission/drain lifecycle, the bit-identity proof vs direct
# predict across RP_THREADS x RP_SPARSE, and the corrupt-variant
# degradation path (the test arms its own bitflip schedule through the
# RP_FAULTS machinery and asserts quarantine-and-drop, never crash).
ctest --test-dir build --output-on-failure -R 'Serve' -j 1

echo "== [6/8] Bench provenance: bench binaries must be true Release builds =="
# The committed BENCH_micro_ops.json is only meaningful from an NDEBUG build.
# Two context keys must BOTH read "release": rp_build_type (the app's own
# NDEBUG — catches an application-level -DNDEBUG drop, which has happened)
# and library_build_type (the timing library's NDEBUG — the in-repo
# bench/benchmark/ harness forces Release on itself, so anything else means
# the build is wired to some other benchmark library whose provenance we
# cannot vouch for, e.g. the Debug-compiled distro .so this gate exists to
# keep out of the record).
# The probe must hold at least one row, so a renamed or deleted bench cannot
# make the gate vacuous.
BENCH_PROBE="$(mktemp /tmp/rp_check_bench.XXXXXX.json)"
./build/bench/bench_micro_ops --benchmark_filter='BM_ObsSpanDisabled$' \
  --benchmark_repetitions=1 --benchmark_out="$BENCH_PROBE" \
  --benchmark_out_format=json >/dev/null
python3 - "$BENCH_PROBE" <<'EOF'
import json, sys
probe = json.load(open(sys.argv[1]))
if not probe.get("benchmarks"):
    sys.exit("bench gate: the probe filter matched no benchmark")
ctx = probe["context"]
for key in ("rp_build_type", "library_build_type"):
    bt = ctx.get(key)
    if bt != "release":
        sys.exit(f"bench gate: {key}={bt!r}, need 'release' "
                 "(rebuild with -DCMAKE_BUILD_TYPE=Release)")
print("bench provenance OK: rp_build_type=release library_build_type=release")
EOF
rm -f "$BENCH_PROBE"
# Same two-key check for the serving load generator (BENCH_serving.json's
# producer): one tiny combo, one repetition, provenance keys only.
SERVE_PROBE="$(mktemp /tmp/rp_check_serve.XXXXXX.json)"
./build/bench/bench_serving --benchmark_filter='BM_ServeLoad/0/64/1/' \
  --benchmark_repetitions=1 --benchmark_out="$SERVE_PROBE" \
  --benchmark_out_format=json >/dev/null
python3 - "$SERVE_PROBE" <<'XEOF'
import json, sys
ctx = json.load(open(sys.argv[1]))["context"]
for key in ("rp_build_type", "library_build_type"):
    bt = ctx.get(key)
    if bt != "release":
        sys.exit(f"serving bench gate: {key}={bt!r}, need 'release' "
                 "(rebuild with -DCMAKE_BUILD_TYPE=Release)")
print("serving bench provenance OK: rp_build_type=release library_build_type=release")
XEOF
rm -f "$SERVE_PROBE"

echo "== [7/8] End-to-end benchmark smoke: every workload path and its output checks =="
# bench/e2e/run.py --smoke builds bench_e2e into build-e2e/ and runs each
# workload (family_cold, shift_grid, serve_mixed) untraced and traced at toy
# scale, failing on any workload error or failed output check (~16 s after
# the build), so a change that breaks a benchmark workload fails here.
python3 bench/e2e/run.py --smoke

if [[ "${RP_CHECK_SKIP_ASAN:-0}" != "1" ]]; then
  echo "== [8/8] ASan+UBSan build + tests (scratch pool poisons released blocks) =="
  cmake -B build-asan -S . -DRP_SANITIZE=address,undefined -DRP_WERROR=ON
  cmake --build build-asan -j "$JOBS"
  # Full suite once: the lane pool ASan-poisons every block it free-lists,
  # so a read through a released scratch tensor is a sanitizer report, not a
  # silently reused value.
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

echo "check.sh: all gates passed"
