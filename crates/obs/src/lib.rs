//! **ld-obs** — always-on observability for the liquid-democracy
//! workspace.
//!
//! The API is three primitives plus a snapshot:
//!
//! * [`counter`] — a named monotonic atomic [`u64`] counter.
//! * [`span`] — an RAII guard that records its scope's wall-clock
//!   duration (nanoseconds) into the histogram of the same name. The
//!   guard records on `Drop`, so it survives `?` and panics.
//! * [`histogram`] — a named fixed-bucket (power-of-two) histogram of
//!   `u64` samples; summaries report count/sum/p50/p90/p99/max.
//! * [`snapshot`] — a deterministic (name-sorted) copy of every metric
//!   registered since the last [`reset`].
//!
//! [`TrialGuard`] composes counters into the bookkeeping pattern the
//! Monte Carlo engine needs: `<prefix>.started` is bumped eagerly,
//! and on `Drop` — which runs even while unwinding from a panic —
//! the guard flushes `<prefix>.finished` and `<prefix>.lost` so that
//! `started == finished + lost` holds unconditionally.
//!
//! Recording is always on. A name lookup takes the registry lock and
//! allocates, so hot loops look their handles up once, before the loop,
//! and then record through the returned [`Counter`]/[`Histogram`] with
//! relaxed atomics only. Recording never feeds back into a computation
//! (the `obs_neutrality` tests in `ld-sim` pin results recorded before
//! recording was always on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Summary of one histogram at snapshot time.
///
/// Quantiles are estimated from the fixed power-of-two buckets (the
/// midpoint of the bucket containing the quantile), so they are
/// approximations; `max` is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Metric name.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum sample.
    pub max: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
///
/// Deterministic modulo the *values* of timing-derived fields: the set
/// of names and every counter value depend only on the work performed,
/// while span histograms carry wall-clock nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistSummary>,
}

impl Snapshot {
    /// True when no metric was registered since the last [`reset`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

const BUCKETS: usize = 64;

#[derive(Debug)]
struct Hist {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Hist {
    fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // The max only grows, so a plain load spares most samples the
        // read-modify-write.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn summary(&self, name: &str) -> HistSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        HistSummary {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            p50: quantile(&counts, count, max, 0.50),
            p90: quantile(&counts, count, max, 0.90),
            p99: quantile(&counts, count, max, 0.99),
            max,
        }
    }
}

/// Bucket `i` holds values in `[2^(i-1), 2^i)`; bucket 0 holds 0.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Midpoint-of-bucket quantile estimate; the top occupied bucket is
/// capped at the exact max.
fn quantile(counts: &[u64], total: u64, max: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 - 1.0) * q).round() as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen > rank {
            if i == 0 {
                return 0;
            }
            let lo = 1u64 << (i - 1);
            let hi = (lo.saturating_mul(2)).saturating_sub(1).min(max);
            return lo + (hi.max(lo) - lo) / 2;
        }
    }
    max
}

#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    hists: Mutex<HashMap<String, Arc<Hist>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Handle to a named atomic counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed; counters are merged at snapshot time).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Handle to a histogram: a named one from [`histogram`], or with
/// `Default` a private one that no [`snapshot`] lists.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Hist>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Summarizes the samples recorded so far, labelled `name`.
    #[must_use]
    pub fn summary(&self, name: &str) -> HistSummary {
        self.0.summary(name)
    }
}

/// RAII scope timer; records elapsed nanoseconds on `Drop`.
#[must_use = "a span records on Drop; binding it to _ discards the measurement"]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// Looks up (registering on first use) the named counter.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().expect("obs counter registry");
    Counter(Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0))),
    ))
}

/// Looks up (registering on first use) the named histogram.
pub fn histogram(name: &str) -> Histogram {
    let mut map = registry().hists.lock().expect("obs histogram registry");
    Histogram(Arc::clone(map.entry(name.to_string()).or_default()))
}

/// Starts a scope timer recording into the histogram `name`.
pub fn span(name: &str) -> Span {
    Span {
        hist: histogram(name),
        start: Instant::now(),
    }
}

/// Copies every registered metric, sorted by name.
pub fn snapshot() -> Snapshot {
    let counters_map = registry().counters.lock().expect("obs counter registry");
    let mut counters: Vec<(String, u64)> = counters_map
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    drop(counters_map);
    counters.sort();
    let hists_map = registry().hists.lock().expect("obs histogram registry");
    let mut histograms: Vec<HistSummary> = hists_map.iter().map(|(k, v)| v.summary(k)).collect();
    drop(hists_map);
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot {
        counters,
        histograms,
    }
}

/// Clears every registered metric (names and values). Handles looked
/// up before the reset keep counting, but no later snapshot sees them.
pub fn reset() {
    registry()
        .counters
        .lock()
        .expect("obs counter registry")
        .clear();
    registry()
        .hists
        .lock()
        .expect("obs histogram registry")
        .clear();
}

/// Panic-safe trial accounting: `started` is flushed eagerly, and
/// `Drop` reconciles `finished`/`lost` even while unwinding. The guard
/// is `Sync`, so the workers of one run can share it.
pub struct TrialGuard {
    finished: Counter,
    lost: Counter,
    share: u64,
    done: AtomicU64,
}

impl TrialGuard {
    /// Registers `share` trials as started under `prefix`.
    pub fn new(prefix: &str, share: u64) -> Self {
        counter(&format!("{prefix}.started")).add(share);
        TrialGuard {
            finished: counter(&format!("{prefix}.finished")),
            lost: counter(&format!("{prefix}.lost")),
            share,
            done: AtomicU64::new(0),
        }
    }

    /// Marks one trial of the share as finished.
    pub fn note_done(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for TrialGuard {
    fn drop(&mut self) {
        let done = self.done.load(Ordering::Relaxed).min(self.share);
        self.finished.add(done);
        self.lost.add(self.share - done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; serialize tests that reset it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let _g = lock();
        reset();
        counter("b.two").add(2);
        counter("a.one").incr();
        counter("b.two").add(3);
        let snap = snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]
        );
    }

    #[test]
    fn histogram_summary_brackets_the_data() {
        let _g = lock();
        reset();
        let h = histogram("h");
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = snapshot();
        let s = &snap.histograms[0];
        assert_eq!(s, &h.summary("h"));
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1_001_106);
        assert_eq!(s.max, 1_000_000);
        assert!(s.p50 >= 2 && s.p50 <= 3, "p50={}", s.p50);
        assert!(s.p99 <= s.max && s.p99 >= s.p90);
    }

    #[test]
    fn default_histogram_is_private() {
        let _g = lock();
        reset();
        let h = Histogram::default();
        h.record(5);
        assert_eq!(h.summary("own").count, 1);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn span_records_into_histogram() {
        let _g = lock();
        reset();
        {
            let _s = span("scope");
        }
        let snap = snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn trial_guard_reconciles_on_panic() {
        let _g = lock();
        reset();
        let unwound = std::panic::catch_unwind(|| {
            let g = TrialGuard::new("t", 10);
            for _ in 0..4 {
                g.note_done();
            }
            panic!("boom");
        });
        assert!(unwound.is_err());
        let g = TrialGuard::new("t", 5);
        for _ in 0..5 {
            g.note_done();
        }
        drop(g);
        let snap = snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("t.started"), 15);
        assert_eq!(get("t.finished"), 9);
        assert_eq!(get("t.lost"), 6);
        assert_eq!(get("t.started"), get("t.finished") + get("t.lost"));
    }

    #[test]
    fn reset_clears_names() {
        let _g = lock();
        reset();
        counter("gone").incr();
        reset();
        assert!(snapshot().is_empty());
    }
}
