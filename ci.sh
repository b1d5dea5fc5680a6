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

echo "==> cargo test --workspace --release -q (every crate's unit, property and integration tests)"
cargo test --workspace --release -q

echo "==> ld-store without mmap (the std::fs::read fallback) and ld-obs with recording on"
cargo test -q -p ld-store --no-default-features
cargo test -q -p ld-obs --features enabled

echo "==> large-n direct-voting DP differential (banded vs naive full-width DP, n = 16384)"
cargo test --release -q -p ld-testkit --test direct_dp_differential -- --ignored

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> repro stress smoke (incremental == from-scratch, stream == batch)"
./target/release/repro stress --n 512 --updates 2000

echo "==> repro conformance --quick (differential + metamorphic gate)"
./target/release/repro conformance --quick

echo "==> conformance mutation smoke (injected tie-flip MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --case complete/constant50/direct --mutate tie-flip >/dev/null 2>&1

echo "==> CSR kernel differential gate (resolve-oracle + csr-tally-oracle vs naive oracles)"
./target/release/repro conformance --quick --only resolve-oracle
./target/release/repro conformance --quick --only csr-tally-oracle

echo "==> CSR mutation smoke (injected csr-offset skew MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --mutate csr-offset >/dev/null 2>&1

echo "==> packed tally differential gate (packed fold vs scalar fold vs brute-force oracle)"
./target/release/repro conformance --quick --only packed-tally-oracle

echo "==> packed mutation smoke (injected packed-threshold skew MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --mutate packed-threshold >/dev/null 2>&1

echo "==> WAL crash-recovery gate (crash-at-any-offset oracle + store conformance)"
./target/release/repro conformance --quick --only wal-crash-oracle
./target/release/repro conformance --quick --only store-crash-recovery

echo "==> crash-recovery smoke (churn through the WAL, kill at a seeded offset, recover, bit-compare)"
rm -rf target/wal-smoke
./target/release/repro stress --n 512 --updates 20000 --wal target/wal-smoke --crash-at seeded
./target/release/repro recover --dir target/wal-smoke --verify-full-replay

echo "==> WAL mutation smoke (skipped record CRCs MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --mutate wal-crc >/dev/null 2>&1

echo "==> store-bench gate (snapshot+tail recovery must beat full replay >= 10x)"
./target/release/repro store-bench

echo "==> serve-bench gate (service throughput + single-engine oracle bit-identity)"
./target/release/repro serve-bench --quick

echo "==> serve-replay conformance gate (service == streamed == batched == from-scratch)"
./target/release/repro conformance --quick --only serve-replay

echo "==> serve mutation smoke (an injected dropped delegation MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --mutate serve-drop >/dev/null 2>&1

echo "==> serve kill-and-recover smoke (commit an epoch, die abruptly, restart bit-identically)"
rm -rf target/serve-smoke
./target/release/repro serve-bench --quick --n 1000 --updates 6000 \
    --dir target/serve-smoke --kill-at 4000
./target/release/repro serve-recover --dir target/serve-smoke

echo "==> serve selftest (wire-codec round trip through the loopback host)"
./target/release/repro serve --selftest

echo "==> dynamics differential gate (brute-force best-response oracle + round-boundary replay)"
./target/release/repro conformance --quick --only dynamics-oracle,dynamics-replay

echo "==> dynamics mutation smoke (injected br-tiebreak skew MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --mutate br-tiebreak >/dev/null 2>&1

echo "==> dynamics smoke (best-response loop over the quick topology grid, digest-pinned)"
./target/release/repro dynamics --quick

echo "==> ranked differential gate (brute-force ranked-resolution oracle + live replay)"
./target/release/repro conformance --quick --only ranked-resolve-oracle,ranked-live-replay

echo "==> ranked mutation smoke (injected rank-order reversal MUST be detected)"
./target/release/repro conformance --quick --no-corpus \
    --mutate rank-order >/dev/null 2>&1

echo "==> ranked smoke (MinDepth/MinSum over the quick grid, digest-pinned, DNH-gated)"
./target/release/repro ranked --quick

echo "==> scheduler determinism (bit-identity across worker counts)"
cargo test -q -p ld-sim --test scheduler_determinism

echo "==> golden snapshot tests (rendering stability)"
cargo test -q -p ld-sim --test snapshot_report

echo "==> cargo build --release --features obs (instrumented build + obs goldens/neutrality)"
# Its own target dir, so ./target/release/repro stays the plain build.
cargo build --release --features obs --target-dir target/obs
cargo test -q -p ld-sim --test snapshot_report --test obs_neutrality --features obs

echo "==> perfbench tests (its own workspace: builds against the crates' public API)"
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

echo "==> perf gate (perfbench A/B against the base commit on this host, BENCHMARK.json bounds)"
./target/release/repro perf-gate

echo "==> ci.sh: all green"
