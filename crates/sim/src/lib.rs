//! # `ld-sim` — the experiment engine and reproduction suite
//!
//! This crate turns the model in `ld-core` into the paper's evidence:
//!
//! * [`engine`] — a deterministic parallel Monte Carlo engine (`std`
//!   scoped threads, seed-split RNG streams: identical results for
//!   identical `(seed, trials, workers)`).
//! * [`table`] — typed result tables rendering to text, CSV and JSON.
//! * [`experiments`] — one module per paper artifact (Figures 1–2,
//!   Lemmas 2/3/5, Theorems 2–5, the Kahng et al. impossibility, and the
//!   three §6 extensions), each returning tables whose *shape* reproduces
//!   the corresponding claim. `EXPERIMENTS.md` records paper-predicted vs
//!   measured values.
//! * [`report`] — renders a full run into a markdown report and JSON
//!   artifacts.
//!
//! * [`harness`] — the fault-tolerant run harness: point-level panic
//!   isolation (one `catch_unwind`ed attempt per point, failures
//!   quarantined under the point's own seed), wall-clock and trial
//!   budgets, and honest `Complete`/`Truncated`/`Degraded` status tags on
//!   every estimate. A run is a pure function of `(seed, trials,
//!   workers)`.
//! * [`durable`] — churn runs teed through the `ld-store` WAL so they
//!   survive kill -9 (`repro stress --wal`, `repro recover`,
//!   `repro store-bench`).
//! * [`serve`] — drivers for the `ld-serve` election service:
//!   the oracle-checked throughput/latency gate (`repro serve-bench`),
//!   the crash-recovery check (`repro serve-recover`), and the socket
//!   host (`repro serve`).
//! * [`verify`] — the acceptance suite: every claim as a PASS/FAIL
//!   verdict (`repro verify`).
//! * [`perf_gate`] — the same-host perfbench A/B against the base commit
//!   that closes `ci.sh` (`repro perf-gate`).
//! * [`sweep`] — user-configurable topology × mechanism × distribution
//!   sweeps (`repro sweep --topology regular:16 --mechanism algorithm1:2
//!   --profile uniform:0.35,0.65 --sizes 64,128,256`).
//!
//! Run everything from the command line:
//!
//! ```text
//! cargo run -p ld-sim --release --bin repro -- --list
//! cargo run -p ld-sim --release --bin repro -- all
//! cargo run -p ld-sim --release --bin repro -- fig1 thm2 --quick
//! cargo run -p ld-sim --release --bin repro -- verify
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod bench;
pub mod conformance;
pub mod durable;
pub mod dynamics;
pub mod engine;
pub mod experiments;
pub mod harness;
pub mod obs_report;
pub mod perf_gate;
pub mod ranked;
pub mod report;
pub mod serve;
pub mod sweep;
pub mod table;
pub mod verify;

pub use error::{panic_message, Result, SimError};
