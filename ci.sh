#!/usr/bin/env sh
# The tier-1 gate: build, test, lint. CI and pre-merge both run exactly this.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> Cargo.lock lists only workspace packages (no external crates)"
if grep -n '^source = ' Cargo.lock; then
  echo "Cargo.lock references an external crate source" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --release -q (every crate's unit, property and integration tests, incl. the teeth mutant table)"
cargo test --workspace --release -q

echo "==> large-n direct-voting DP differential (banded vs naive full-width DP, n = 16384)"
cargo test --release -q -p ld-testkit --test direct_dp_differential -- --ignored

echo "==> large-n Algorithm 1 differential (run vs act loop, resolve vs recursive oracle; K_n at 2^17, 8-regular at 2^16)"
cargo test --release -q -p ld-testkit --test algorithm1_large_n -- --ignored

echo "==> rustdoc clean (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> repro stress smoke (incremental == from-scratch, stream == batch)"
./target/release/repro stress --n 512 --updates 2000

echo "==> repro conformance --quick (differential + metamorphic gate)"
./target/release/repro conformance --quick

echo "==> CSR kernel differential gate (resolve-oracle + csr-tally-oracle vs naive oracles)"
./target/release/repro conformance --quick --only resolve-oracle
./target/release/repro conformance --quick --only csr-tally-oracle

echo "==> packed tally differential gate (packed fold vs scalar fold vs brute-force oracle)"
./target/release/repro conformance --quick --only packed-tally-oracle

echo "==> WAL crash-recovery gate (crash-at-any-offset oracle + store conformance)"
./target/release/repro conformance --quick --only wal-crash-oracle
./target/release/repro conformance --quick --only store-crash-recovery

echo "==> crash-recovery smoke (churn through the WAL, kill at a seeded offset, recover, bit-compare)"
rm -rf target/wal-smoke
./target/release/repro stress --n 512 --updates 20000 --wal target/wal-smoke --crash-at seeded
./target/release/repro recover --dir target/wal-smoke --verify-full-replay

echo "==> store-bench gate (snapshot+tail recovery must beat full replay >= 10x)"
./target/release/repro store-bench

echo "==> serve-bench gate (service throughput + single-engine oracle bit-identity)"
./target/release/repro serve-bench --quick

echo "==> serve-replay conformance gate (service == streamed == batched == from-scratch)"
./target/release/repro conformance --quick --only serve-replay

echo "==> serve kill-and-recover smoke (commit an epoch, die abruptly, restart bit-identically)"
rm -rf target/serve-smoke
./target/release/repro serve-bench --quick --n 1000 --updates 6000 \
    --dir target/serve-smoke --kill-at 4000
./target/release/repro serve-recover --dir target/serve-smoke

echo "==> serve selftest (wire-codec round trip through the loopback host)"
./target/release/repro serve --selftest

echo "==> dynamics differential gate (brute-force best-response oracle + round-boundary replay)"
./target/release/repro conformance --quick --only dynamics-oracle,dynamics-replay

echo "==> dynamics smoke (best-response loop over the quick topology grid, digest-pinned)"
./target/release/repro dynamics --quick

echo "==> ranked differential gate (brute-force ranked-resolution oracle + live replay)"
./target/release/repro conformance --quick --only ranked-resolve-oracle,ranked-live-replay

echo "==> ranked smoke (MinDepth/MinSum over the quick grid, digest-pinned, DNH-gated)"
./target/release/repro ranked --quick

echo "==> scheduler determinism (bit-identity across worker counts)"
cargo test -q -p ld-sim --test scheduler_determinism

echo "==> golden snapshot tests (rendering stability)"
cargo test -q -p ld-sim --test snapshot_report

echo "==> pins across builds (a -C target-cpu=native release build prints the baseline build's digest and verdict lines)"
# Each pinned command's output, less what varies from run to run: table
# rules (their width follows the widest cell) and serve-bench's
# throughput, latency and epoch-count columns. `verify --quick --seed 1`
# fails its dynamics claim (best-response dynamics need not reach a
# fixpoint at every seed), so an exit status is part of the compared
# output instead of stopping the script.
pinned_output() {
  for cmd in "verify --quick --seed 1" "dynamics --quick" "ranked --quick" \
      "serve --selftest" "serve-bench --quick --seed 3"; do
    echo "== repro $cmd"
    # shellcheck disable=SC2086 # $cmd splits into its arguments on purpose
    "$1" $cmd 2>&1 || echo "exit status $?"
  done | grep -v '^--' | awk '/upd\/s/ { print; getline; $4 = $5 = $6 = $7 = "-" } { print }'
}
RUSTFLAGS="-C target-cpu=native" cargo build --release --target-dir target/native
pinned_output ./target/release/repro > target/pins-baseline.txt
pinned_output ./target/native/release/repro > target/pins-native.txt
diff target/pins-baseline.txt target/pins-native.txt

echo "==> perfbench tests (its own workspace: builds against the crates' public API)"
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

echo "==> perf gate (perfbench A/B against the base commit on this host, BENCHMARK.json bounds)"
./target/release/repro perf-gate

echo "==> ci.sh: all green"
