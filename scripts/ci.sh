#!/usr/bin/env bash
# Repository gate: formatting, lints, the full test suite, the
# parallel-equivalence suite under varied thread environments, and the
# system suites that only run in release.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo; echo "=== $* ==="; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The training hot path, tensor backend, parallel backend, geometry
# layer, road-network layer (the spatial join's data source), serving
# subsystem, ANN index, telemetry layer, online pipeline and the durable
# writer must never panic on bad data: unwraps are banned in library code there (tests, via --lib's
# cfg(test) compilation, still may). Panics become typed TrainError /
# IoError / GridError / ServeError / AnnError values (telemetry
# additionally swallows export errors entirely — a metrics failure must
# never kill a training run).
step "cargo clippy -D clippy::unwrap_used (sarn-core, sarn-tensor, sarn-par, sarn-geo, sarn-roadnet, sarn-serve, sarn-ann, sarn-obs, sarn-pipeline, sarn-durable lib code)"
cargo clippy -p sarn-core -p sarn-tensor -p sarn-par -p sarn-geo -p sarn-roadnet -p sarn-serve -p sarn-ann -p sarn-obs -p sarn-pipeline -p sarn-durable --lib -- -D warnings -D clippy::unwrap_used

step "cargo test"
cargo test -q --workspace

# The equivalence tests pin num_threads explicitly except for the
# auto-detection path (num_threads = 0), which resolves through
# RAYON_NUM_THREADS — exercise it at several settings.
for t in 1 2 4; do
  step "parallel equivalence (RAYON_NUM_THREADS=$t)"
  RAYON_NUM_THREADS=$t cargo test -q -p sarn-sys-tests --test parallel_equivalence
done

# The kernel property suites in release at 4096 cases each: the optimized
# build is the one that trains, and a rare ±0 or NaN slip in a register
# tile's tail or a four-edge interleave's remainder needs many draws to
# surface.
step "kernel property tests (release, PROPTEST_CASES=4096)"
PROPTEST_CASES=4096 cargo test -q --release -p sarn-tensor --test kernel_equivalence --test gat_scores

# The scale-2.0 leg (~9k segments, one epoch per join mode, peak-RSS
# budget, then 16 edit batches whose localized A^s repair must equal a
# from-scratch join) is #[ignore]d in the tier-1 suite — debug-mode
# training at that size is minutes — and runs here in release instead.
step "scale smoke at SARN_NET_SCALE=2.0 (release, --ignored)"
cargo test -q --release -p sarn-sys-tests --test scale_smoke -- --ignored

# Online-pipeline system suite in release: the faulted concurrent-reader
# run, the kill/resume bitwise-convergence run, and the staleness-SLO
# probe are minutes in debug mode at their retrain counts.
step "online pipeline system tests (release)"
cargo test -q --release -p sarn-sys-tests --test pipeline_online

# Sharded-router system suite in release: the identity runs at 1 and 4
# reader threads plus the chaos kill/recover run race real per-shard
# pointer swaps, so they get optimized atomics rather than debug mode.
# The suite also covers the ANN index: bitwise-deterministic HNSW builds
# under 1 and 4 racing reader threads, and the corrupt-sidecar chaos leg
# (fall back to exact scan, rebuild on the next reload).
step "sharded router system tests (release)"
cargo test -q --release -p sarn-sys-tests --test router_sharded

echo
echo "ci: all checks passed"
