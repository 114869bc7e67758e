#!/usr/bin/env bash
# The full local gate, mirroring .github/workflows/ci.yml.
# All dependencies are vendored; the build never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1, includes fault-injection end-to-end)"
cargo test -q

echo "==> cargo test -p latte-serve -q (serving: batching identity, flush, crash supervision)"
cargo test -p latte-serve -q

echo "==> cargo test -p latte-oracle -q (compiler-correctness oracle, fast subset)"
cargo test -p latte-oracle -q

echo "==> golden-IR snapshots (regenerate with UPDATE_GOLDEN=1 cargo test --test golden_ir)"
cargo test --test golden_ir -q
git diff --exit-code -- tests/golden/ || {
  echo "tests/golden/ has uncommitted changes" >&2
  exit 1
}

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace -q with LATTE_THREADS=4 (persistent worker pool)"
LATTE_THREADS=4 cargo test --workspace -q

echo "==> distributed training over loopback TCP (4 real processes)"
cargo test --release --test distributed -q

echo "==> serving over loopback TCP (framed protocol, adversaries, SIGTERM drain; incl. chaos soak)"
LATTE_FAULT_SWEEP=1 cargo test --release -p latte-serve --test net_loopback -q

echo "==> autotuner smoke (cold tune -> warm replay with zero re-measurements, corrupt-cache rejection)"
cargo test --release -p latte-runtime --test tune_smoke -q
cargo test --release -p latte-oracle --test tuned -q

echo "==> throughput bench smoke + artifact schema validation (incl. checked-in artifact)"
cargo run --release --quiet -p latte-bench --bin throughput -- --smoke --out target/BENCH_smoke.json
cargo run --release --quiet -p latte-bench --bin throughput -- --validate target/BENCH_smoke.json
cargo run --release --quiet -p latte-bench --bin throughput -- --validate BENCH_throughput.json

echo "==> cluster bench smoke + artifact schema validation"
cargo run --release --quiet -p latte-bench --bin cluster -- --smoke --out target/BENCH_cluster_smoke.json
cargo run --release --quiet -p latte-bench --bin cluster -- --validate target/BENCH_cluster_smoke.json

echo "==> serving bench smoke + artifact schema validation (incl. checked-in artifact)"
cargo run --release --quiet -p latte-bench --bin serving -- --smoke --out target/BENCH_serving_smoke.json
cargo run --release --quiet -p latte-bench --bin serving -- --validate target/BENCH_serving_smoke.json
cargo run --release --quiet -p latte-bench --bin serving -- --validate BENCH_serving.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> examples smoke run (release)"
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "   -> $name"
  cargo run --release --quiet --example "$name" >/dev/null
done
echo "   -> fault_tolerance --seed 7 (random fault plan on the real ring)"
cargo run --release --quiet --example fault_tolerance -- --seed 7 >/dev/null

echo "All checks passed."
