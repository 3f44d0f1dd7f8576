#!/usr/bin/env bash
# Full local gate: everything CI runs, in the order that fails fastest.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> thrifty-lint (workspace invariant checker; double --json run must be byte-identical)"
lint_tmp="$(mktemp -d)"
trap 'rm -rf "$lint_tmp"' EXIT
./target/release/thrifty-lint
./target/release/thrifty-lint --json > "$lint_tmp/lint_a.json"
./target/release/thrifty-lint --json > "$lint_tmp/lint_b.json"
cmp "$lint_tmp/lint_a.json" "$lint_tmp/lint_b.json"

echo "==> thrifty-lint call-graph tiers (taint, dataflow, locks, hygiene; double --json run must be byte-identical)"
# --tier restricts the report only — the call-graph analysis always runs in
# full — so a tier-filtered double run gates the determinism of the new
# tiers' fixpoints (taint distances, dataflow joins, lock-order witnesses)
# specifically.
./target/release/thrifty-lint --json --tier taint --tier dataflow --tier locks --tier hygiene > "$lint_tmp/tiers_a.json"
./target/release/thrifty-lint --json --tier taint --tier dataflow --tier locks --tier hygiene > "$lint_tmp/tiers_b.json"
cmp "$lint_tmp/tiers_a.json" "$lint_tmp/tiers_b.json"

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> goldens and property tests in release (the vectorised kernels reproduce and perfbench run)"
# The dev profile builds at opt-level 1, where LLVM's loop vectoriser does
# not run, so the tests above never execute the gather loop of the
# intra-refresh blend or the 32-bit-lane squared-error sums; these do.
cargo test --release -q --test golden_figures --test property_tests

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench -p thrifty-bench -- --test (smoke + backend ratio gates)"
# Besides smoke-running every bench, this executes the backend_ratio_gate:
# fast must beat reference for every algorithm, fast 3DES must hold a 4x
# lead, and batched bitsliced AES-128 (64-segment trains) must at least
# match the fast T-table backend. The committed BENCH_cipher.json pins the
# full >=2x bitsliced headline via its own unit test.
cargo bench -p thrifty-bench -- --test

echo "==> reproduce determinism (metered double run must be byte-identical)"
# Since the sender went zero-copy (pooled buffers, batched keystream
# trains), this byte-compare also proves the pool/train path end to end:
# any buffer reuse bug or train/sequential keystream divergence would show
# up as a diff between the two runs or against the golden figures below.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp" "$lint_tmp"' EXIT
./target/release/reproduce table2 fig12 --no-bench-json \
  --metrics "$tmp/metrics_a.json" > "$tmp/out_a.txt"
./target/release/reproduce table2 fig12 --no-bench-json \
  --metrics "$tmp/metrics_b.json" > "$tmp/out_b.txt"
cmp "$tmp/out_a.txt" "$tmp/out_b.txt"
cmp "$tmp/metrics_a.json" "$tmp/metrics_b.json"
./target/release/reproduce table2 fig12 --no-bench-json > "$tmp/out_plain.txt"
cmp "$tmp/out_a.txt" "$tmp/out_plain.txt"

echo "==> fault-matrix smoke sweep (zero panics, bounded wall-clock)"
# The binary exits non-zero on any guarantee violation (panic,
# non-reproducible cell, faulty run beating its clean twin); the transports
# are single-threaded loops, so `timeout` bounds a hang in a retransmission
# or resync loop — it fails the gate as exit 124.
timeout 600 ./target/release/reproduce faults --no-bench-json > "$tmp/faults_a.txt"
timeout 600 ./target/release/reproduce faults --no-bench-json > "$tmp/faults_b.txt"
cmp "$tmp/faults_a.txt" "$tmp/faults_b.txt"

echo "==> fountain protocol-matrix smoke (self-verifying; double run must be byte-identical)"
# UDP vs TCP vs LT-fountain across three loss points and four policies.
# The binary exits non-zero on any self-check violation (a non-reproducible
# cell, ΔPSNR below the lossless twin, a reliable-transport frame loss, or
# the deep-fade goodput crossover failing to appear); `timeout` turns a
# hang in a peeling or retransmission loop into exit 124.
timeout 600 ./target/release/reproduce fountain --no-bench-json > "$tmp/fountain_a.txt"
timeout 600 ./target/release/reproduce fountain --no-bench-json > "$tmp/fountain_b.txt"
cmp "$tmp/fountain_a.txt" "$tmp/fountain_b.txt"

echo "==> chaos soak smoke (self-verifying; double run must be byte-identical)"
# Fault storms across all three transports with the recovery layer armed.
# The binary exits non-zero on any recover-gate violation (an unbounded
# recovery episode, a controller flap, adaptive-RTO goodput below the
# fixed-RTO baseline, a non-reproducible cell, or ΔPSNR regressing against
# the clean twin); `timeout` turns a hang in a resync or retransmission
# loop into exit 124.
timeout 600 ./target/release/reproduce chaos --quick --no-bench-json > "$tmp/chaos_a.txt"
timeout 600 ./target/release/reproduce chaos --quick --no-bench-json > "$tmp/chaos_b.txt"
cmp "$tmp/chaos_a.txt" "$tmp/chaos_b.txt"

echo "==> fleet --quick smoke gate (N=10^4 on the scale path; hang fails as exit 124)"
# One 10^4-flow cell on the scale path, self-verified (one packet step
# per packet, double-run bit-identity, physical delays). `timeout` turns
# a hang in a flow loop into exit 124.
timeout 300 ./target/release/reproduce fleet --quick --no-bench-json > /dev/null

echo "==> fleet scaling sweep (self-verifying; hang fails as exit 124)"
# The sweep asserts its own guarantees and exits non-zero on violation:
# N=1 byte-identity with the single-sender path, same-seed metered runs
# bit-reproducible, 2-state/n-state solver agreement, and a solve-cache hit
# rate > 90% on the 100-flow cells. It then drives the scale path to
# N=10^5; wall-clock numbers (events/sec, peak RSS) go only to
# BENCH_fleet.json (suppressed here), so the double-run stdout byte-compare
# below also gates the scale path's reproducibility at every N. `timeout`
# turns a hang in a flow loop into exit 124.
timeout 600 ./target/release/reproduce fleet --no-bench-json > "$tmp/fleet_a.txt"
timeout 600 ./target/release/reproduce fleet --no-bench-json > "$tmp/fleet_b.txt"
cmp "$tmp/fleet_a.txt" "$tmp/fleet_b.txt"

echo "==> golden-vector regression suite (tolerance 0)"
cargo test --release --test golden_figures

echo "All checks passed."
