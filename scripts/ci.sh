#!/usr/bin/env bash
# Repository gate: formatting, lints, the full test suite, and the
# parallel-equivalence suite under varied thread environments.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo; echo "=== $* ==="; }

# Every temp dir a step makes is registered here; one EXIT trap sweeps
# them all. (A second `trap ... EXIT` would silently replace the first,
# leaking whichever dir the earlier step registered.)
TMP_DIRS=()
cleanup() { rm -rf "${TMP_DIRS[@]:-}"; }
trap cleanup EXIT
mktemp_tracked() {
  local d
  d="$(mktemp -d)"
  TMP_DIRS+=("$d")
  echo "$d"
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The training hot path, tensor backend (including the reduction-order
# kernels), parallel backend, geometry layer, road-network layer (the
# spatial join's data source), serving subsystem, ANN index, and
# telemetry layer must never panic on bad data: unwraps are banned in
# library code there (tests, via --lib's cfg(test) compilation, still
# may). Panics become typed TrainError / IoError / GridError /
# ServeError / AnnError values (telemetry additionally swallows export
# errors entirely — a metrics failure must never kill a training run).
step "cargo clippy -D clippy::unwrap_used (sarn-core, sarn-tensor, sarn-par, sarn-geo, sarn-roadnet, sarn-serve, sarn-ann, sarn-obs, sarn-pipeline lib code)"
cargo clippy -p sarn-core -p sarn-tensor -p sarn-par -p sarn-geo -p sarn-roadnet -p sarn-serve -p sarn-ann -p sarn-obs -p sarn-pipeline --lib -- -D warnings -D clippy::unwrap_used

step "cargo test"
cargo test -q --workspace

# The equivalence tests pin num_threads explicitly except for the
# auto-detection path (num_threads = 0), which resolves through
# RAYON_NUM_THREADS — exercise it at several settings.
for t in 1 2 4; do
  step "parallel equivalence (RAYON_NUM_THREADS=$t)"
  RAYON_NUM_THREADS=$t cargo test -q -p sarn-sys-tests --test parallel_equivalence
done

# Fast <-> Reference kernel equivalence: the property/golden suites and
# the end-to-end reduction-order determinism contract, in both modes
# (the suites flip the knob internally; the env var seeds the default).
for order in reference fast; do
  step "kernel equivalence (SARN_REDUCTION_ORDER=$order)"
  SARN_REDUCTION_ORDER=$order cargo test -q -p sarn-tensor \
    --test kernel_equivalence --test kernel_golden
  SARN_REDUCTION_ORDER=$order cargo test -q -p sarn-sys-tests \
    --test kernel_reduction_order
done

# Spatial-join equivalence: the grid join must reproduce the all-pairs
# oracle bit for bit on adversarial geometry (the suite flips the knob
# explicitly; the env var seeds the default path the rest of the tests
# take), and training must be bitwise join-invariant end to end.
for join in grid reference; do
  step "spatial join equivalence (SARN_SPATIAL_JOIN=$join)"
  SARN_SPATIAL_JOIN=$join cargo test -q -p sarn-core \
    --test spatial_join_equivalence
  SARN_SPATIAL_JOIN=$join cargo test -q -p sarn-sys-tests --test scale_smoke
done

# The scale-2.0 leg (~9k segments, one epoch per join mode, peak-RSS
# budget) is #[ignore]d in the tier-1 suite — debug-mode training at
# that size is minutes — and runs here in release instead.
step "scale smoke at SARN_NET_SCALE=2.0 (release, --ignored)"
cargo test -q --release -p sarn-sys-tests --test scale_smoke -- --ignored

# Kernel benchmark: A^s build time + peak RSS in both join modes, epoch
# time in both reduction modes, and serve-side exact/approx k-NN
# latency, written to the committed BENCH_7.json (SARN_REPORT_JSONL
# appends, so start from a clean file). A second join-only invocation at
# scale 2.0 records the O(n²) → near-linear crossover row.
step "kernel benchmark (BENCH_7.json)"
rm -f BENCH_7.json
SARN_NET_SCALE=0.22 SARN_EPOCHS=3 SARN_REPORT_JSONL=BENCH_7.json \
  cargo run -q --release -p sarn-bench --bin kernel_bench
SARN_NET_SCALE=2.0 SARN_KERNEL_BENCH_LEGS=join SARN_REPORT_JSONL=BENCH_7.json \
  cargo run -q --release -p sarn-bench --bin kernel_bench
test -s BENCH_7.json

# Checkpoint/resume smoke: train half a run with checkpointing on, resume
# it from the directory, and require bitwise equality with a straight run
# (the binary exits non-zero otherwise).
step "checkpoint resume smoke (SARN_RESUME path)"
CKPT_DIR="$(mktemp_tracked)"
SARN_NET_SCALE=0.22 SARN_EPOCHS=6 SARN_CKPT_DIR="$CKPT_DIR" SARN_CKPT_EVERY=1 \
  cargo run -q --release -p sarn-bench --bin resume_smoke
ls "$CKPT_DIR"/ckpt-*.sarnckpt > /dev/null  # retention left artifacts behind

# Watchdog smoke: inject a one-shot NaN into the gradient stream (must
# recover, deterministically) and a sticky one (must surface a typed
# divergence report after max_recoveries, never panic).
step "watchdog fault-injection smoke"
SARN_NET_SCALE=0.22 SARN_EPOCHS=4 SARN_TRAJ_COUNT=30 \
  cargo run -q --release -p sarn-bench --bin watchdog_smoke

# Serving smoke: corrupt artifact swaps and injected I/O faults must fall
# back to the last-known-good generation with typed errors; an overload
# burst must shed and degrade; exits non-zero on any breach or panic.
step "serve fault-injection smoke"
SARN_NET_SCALE=0.22 SARN_EPOCHS=2 \
  cargo run -q --release -p sarn-bench --bin serve_smoke

# Online-pipeline smoke: four edit batches with an injected fault in
# every stage (corrupt record, torn export, reload I/O, diverging
# retrain, mid-repair crash) must all land — generation monotone, serve
# front never torn or stale, incremental A^s bitwise equal to a full
# rebuild; exits non-zero on any breach. The same binary times the
# localized A^s repair against a from-scratch grid join into the
# committed BENCH_8.json (a second repair-only invocation at scale 2.0
# records the row where the two strategies actually separate).
step "online pipeline smoke (BENCH_8.json)"
rm -f BENCH_8.json
SARN_NET_SCALE=0.22 SARN_EPOCHS=2 SARN_REPORT_JSONL=BENCH_8.json \
  cargo run -q --release -p sarn-bench --bin pipeline_smoke
SARN_NET_SCALE=2.0 SARN_PIPELINE_SMOKE_LEGS=repair SARN_REPORT_JSONL=BENCH_8.json \
  cargo run -q --release -p sarn-bench --bin pipeline_smoke
test -s BENCH_8.json

# Online-pipeline system suite in release: the faulted concurrent-reader
# run, the kill/resume bitwise-convergence run, and the staleness-SLO
# probe are minutes in debug mode at their retrain counts.
step "online pipeline system tests (release)"
cargo test -q --release -p sarn-sys-tests --test pipeline_online

# Sharded-router chaos smoke: bitwise identity against the combined
# store at 1 and 4 reader threads, a kill-K-of-N-shards storm under
# per-shard generation churn with a recovery-to-full-coverage assert,
# and knn_batch equivalence, written to the committed BENCH_9.json (every
# row carries the process peak-RSS high-water mark); exits non-zero on
# any breach.
step "sharded router chaos smoke (BENCH_9.json)"
rm -f BENCH_9.json
SARN_NET_SCALE=0.22 SARN_REPORT_JSONL=BENCH_9.json \
  cargo run -q --release -p sarn-bench --bin router_chaos_smoke
test -s BENCH_9.json

# Sharded-router system suite in release: the identity runs at 1 and 4
# reader threads plus the chaos kill/recover run race real per-shard
# pointer swaps, so they get optimized atomics rather than debug mode.
# The suite also covers the ANN index: bitwise-deterministic HNSW builds
# under 1 and 4 racing reader threads, and the corrupt-sidecar chaos leg
# (fall back to exact scan, rebuild on the next reload).
step "sharded router system tests (release)"
cargo test -q --release -p sarn-sys-tests --test router_sharded

# ANN load-generator smoke: closed-loop k-NN against the sharded router
# at reduced scale, linear-scan vs HNSW per-shard legs, recall@10 against
# the exact scan, written to the committed BENCH_10.json (SARN_REPORT_JSONL
# appends, so start clean). CI gates are deliberately looser than the
# committed full-scale run (shared runners are noisy): recall >= 0.9 and
# per-shard p99 speedup >= 2x at the largest smoke scale; the binary
# exits non-zero on any breach. The committed BENCH_10.json is produced
# by a full default-scale run (>= 5x p99, recall >= 0.95).
step "ANN load-generator smoke (BENCH_10.json)"
rm -f BENCH_10.json
SARN_REPORT_JSONL=BENCH_10.json \
SARN_LOADGEN_SCALES=2000,12000,48000 SARN_LOADGEN_QUERIES=400 \
SARN_LOADGEN_RECALL_QUERIES=48 SARN_LOADGEN_CONCURRENCY=2 \
SARN_LOADGEN_DURATION_S=2 SARN_LOADGEN_MIN_RECALL=0.9 \
SARN_LOADGEN_MIN_SPEEDUP=2 \
  cargo run -q --release -p sarn-bench --bin load_gen
test -s BENCH_10.json

# Telemetry smoke: train twice (telemetry off/on — must be bitwise
# identical), serve 100 queries per path, then require the exported
# Prometheus/JSON/JSONL artifacts to parse with the key training and
# serving series non-empty; exits non-zero on any breach or panic.
step "telemetry export smoke (obs_smoke)"
OBS_DIR="$(mktemp_tracked)"
SARN_NET_SCALE=0.22 SARN_EPOCHS=2 SARN_TRAJ_COUNT=30 SARN_OBS_DIR="$OBS_DIR" \
  cargo run -q --release -p sarn-bench --bin obs_smoke
ls "$OBS_DIR"/metrics.prom "$OBS_DIR"/metrics.json "$OBS_DIR"/events.jsonl > /dev/null

# Telemetry equivalence: the instrumented run must be bitwise identical
# to the plain run at 1 and 4 worker threads (asserted inside the test).
step "telemetry bitwise equivalence (obs_equivalence)"
cargo test -q -p sarn-sys-tests --test obs_equivalence

echo
echo "ci: all checks passed"
