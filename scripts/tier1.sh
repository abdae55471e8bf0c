#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo build --release --examples
# Sweep the process worker budget: DSZ_THREADS=1 exercises every inline
# fallback, DSZ_THREADS=4 exercises pooled dispatch + budget nesting.
DSZ_THREADS=1 cargo test -q
DSZ_THREADS=4 cargo test -q
# Robustness gate (docs/ROBUSTNESS.md): the seeded fault-injection
# campaign over every format generation must stay green — no panics
# anywhere, no silent success on checksummed DSZM v3/v4 containers.
# Already part of the workspace sweeps above; run it by name so a failure
# here is unmistakable in the log.
cargo test -q -p dsz_core --test fault_injection
# Random-access + spill gate: the seekable reader's lazy-verify agreement
# campaign, the golden containers decoded through every reader
# (decode_model, the streaming model, the seekable reader) so a reader
# disagreement fails by name, and the disk-spill bit-identity/poisoned-file
# suites, under both worker budgets (the spill path must be byte-stable
# regardless of DSZ_THREADS, and the thread_clamp suite's cross-host
# golden container FNV must hold under both, since chunk geometry ignores
# worker counts).
for t in 1 4; do
  DSZ_THREADS=$t cargo test -q -p dsz_core --test seekable
  DSZ_THREADS=$t cargo test -q -p dsz_core --test container_golden
  DSZ_THREADS=$t cargo test -q -p dsz_core --test spill_streaming
  DSZ_THREADS=$t cargo test -q -p dsz_core --test thread_clamp
done
# Streaming-encode gate (docs/STREAMING_ENCODE.md): the operator-pipeline
# encoder must stay bit-identical to the materializing encoder at every
# worker count and buffer budget, and the encode-bytes-budget high-water
# mark must hold. The sz-level chunk streaming suite rides along under
# the same sweep.
for t in 1 4; do
  DSZ_THREADS=$t cargo test -q -p dsz_core --test streaming_encode
  DSZ_THREADS=$t cargo test -q -p dsz_sz stream
done
# Serving gate (docs/SERVING.md): the shared decoded-layer cache must
# keep forwards bit-identical to the uncached serial path at every quota
# (including 0) and never let the ledger exceed the quota; the batched
# matmul must stay bit-identical to per-sample calls; the CSR kernel every
# served layer runs must reproduce the dense kernel's bits for finite
# inputs (run by name, with the CSR builder's parity suite, so a failure
# is unmistakable in the log); and the registry / micro-batch scheduler
# suites ride the same two worker budgets.
# Resilience gate (docs/ROBUSTNESS.md, "Serving resilience"): the seeded
# chaos campaign (injected decode faults, slow layers, mid-batch cancels
# under deadlines, retries, and bounded queues) and the degraded-load /
# quarantine / hot-swap-rollback suites must stay green under both
# worker budgets — no panics, exactly-once ticket resolution,
# bit-identical successes.
for t in 1 4; do
  DSZ_THREADS=$t cargo test -q -p dsz_core --test shared_cache
  DSZ_THREADS=$t cargo test -q -p dsz_tensor --test batch_equivalence
  DSZ_THREADS=$t cargo test -q -p dsz_tensor --test batch_equivalence csr
  DSZ_THREADS=$t cargo test -q -p dsz_sparse --test csr_builder
  DSZ_THREADS=$t cargo test -q -p dsz_serve --test serve
  DSZ_THREADS=$t cargo test -q -p dsz_serve --test batching
  DSZ_THREADS=$t cargo test -q -p dsz_serve --test chaos
  DSZ_THREADS=$t cargo test -q -p dsz_serve --test degraded
done
# The benchmark's own tests (quartiles, percentiles, Poisson schedules,
# span self times, the JSON reader, and the metric lists matching
# BENCHMARK.json). perfbench is a separate package with its own
# workspace, so the workspace sweeps above never run them.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
# Smoke-test the full user-facing pipeline (train → prune → assess →
# optimize → encode → decode) exactly as the README-level docs run it.
cargo run --release --example quickstart >/dev/null
# Smoke-run the multi-tenant serving demo (load → batch → hot-swap →
# cancel against two tenants sharing one cache).
cargo run --release --example serve_demo >/dev/null
# Smoke-run the perf-trajectory bench: refreshes BENCH_encode_decode.json
# (encode/decode scaling, pool reuse, and the incremental-vs-full
# assessment speedup, which also re-proves the two engines agree).
cargo run --release -p dsz_bench --bin bench_encode_decode >/dev/null
# Smoke-run the serving bench: refreshes BENCH_serve.json (requests/sec,
# tail latency, shared-cache hit rate, batched-vs-unbatched speedup in
# warm and cold cache regimes, plus the resilience regime: shed /
# deadline-miss / retry-success rates and degraded-vs-healthy p99).
cargo run --release -p dsz_bench --bin bench_serve >/dev/null
# This also enforces the panic-free-decode lints: the decode modules of
# sz/lossless/zfp/sparse/core (plus the whole dsz_serve crate and the
# shared layer cache) carry scoped in-source
# `deny(clippy::unwrap_used, clippy::expect_used)` attributes, so any new
# unwrap/expect there fails this line.
cargo clippy --workspace --all-targets -q -- -D warnings
cargo fmt --check
echo "tier1: OK"
