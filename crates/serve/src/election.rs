//! One hosted election: ingest applied in drained runs, batched WAL
//! writes, epoch publish.
//!
//! # Threading model
//!
//! ```text
//!  submit() ──mpsc──▶ sequencer thread ──drained run: one apply_batch──▶ LiveEngine
//!                     (window: one WAL write,                             │
//!                      publish cadence)                                   ▼ barrier
//!                          WAL fsync (scoped helper) ‖ tally (sequencer),
//!                          then compact, commit to epochs.log, swap
//!                                          Arc<EpochSnapshot> ◀── snapshot() (readers)
//! ```
//!
//! The sequencer is the election's only writer. Whenever it takes an
//! update off the queue it also drains every update already queued
//! behind it (up to `max_batch` per window) without reading the clock,
//! and applies that run to its [`LiveEngine`] as one
//! [`LiveEngine::apply_batch`]: the batch accepts exactly the updates
//! that applying them one at a time, in arrival order, would, and the
//! rejects are counted from its report. A lone update is a run of one,
//! so there is one apply path. Only when the queue is empty does the
//! sequencer read the clock and wait, up to the window's deadline, for
//! more.
//!
//! The ingest window batches only what must be batched: the accepted
//! updates wait in one reusable buffer, in arrival order, and go to the
//! WAL (when durable) as one `write(2)` when the window ends, and the
//! window count sets the publish cadence. A window ends at its
//! deadline, at `max_batch` updates, on a flush, or when ingest closes.
//! So a flush finds the window in flight already applied and goes
//! straight to the barrier.
//!
//! Every `publish_every` windows (and on every flush) the sequencer runs
//! the epoch barrier. A scoped helper thread fsyncs the WAL while the
//! sequencer builds the published tally from the engine in one pass;
//! once both are done the WAL may compact, the epoch commits to
//! `epochs.log` (when durable), and the new [`EpochSnapshot`] is swapped
//! in behind a briefly-held write lock. So every applied update is in
//! the synced WAL before the epoch that covers it commits. Readers clone
//! the `Arc` under the read lock and never touch the engine, so queries
//! cost O(1) regardless of ingest pressure, and a `flush` blocks only
//! its own caller: a reader waits for the swap at most, never for the
//! barrier.
//!
//! A durable-layer failure is sticky: the election keeps applying
//! ingest but never publishes again, so it stops taking latency stamps
//! it could never close.
//!
//! A kill drops the window in flight: its updates are in the engine but
//! were never logged, and no epoch covers them, so a restart resumes at
//! the last committed epoch as if they had never arrived.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ld_core::delegation::Action;
use ld_live::{LiveEngine, Update};
use ld_store::{Store, StoreOptions};

use crate::epochs::{EpochEntry, EpochLog, Meta, EPOCHS_FILE};
use crate::identity::{IdentityError, IdentityLog, IdentityMap, IDENTITY_FILE};
use crate::tally::PublishedTally;
use crate::{ServeError, MAX_VOTERS};

/// The store directory inside a durable election's root. The name is
/// the single shard of the earlier multi-shard layout, kept so existing
/// election directories open unchanged.
const STORE_DIR: &str = "shard-0";

/// How an [`Election`] is sized and tuned.
#[derive(Debug, Clone)]
pub struct ElectionConfig {
    /// Fixed electorate size (the engine is fixed-width; at most
    /// [`MAX_VOTERS`]).
    pub n: u32,
    /// Shard count. Only 1 is accepted: an election runs one engine.
    pub shards: u32,
    /// Initial competence for every voter.
    pub default_p: f64,
    /// Explicit per-voter initial competences (overrides `default_p`;
    /// must have length `n`).
    pub competences: Option<Vec<f64>>,
    /// Ingest window: how long after a window's first update the
    /// sequencer keeps collecting accepted updates for one WAL write.
    /// Updates are applied as soon as they are drained either way; a
    /// flush ends the window early.
    pub window: Duration,
    /// Hard cap on updates per window.
    pub max_batch: usize,
    /// Windows between automatic epoch publishes (`0` = publish only
    /// on flush and shutdown).
    pub publish_every: u32,
    /// Durable root directory; `None` keeps the election in memory.
    pub dir: Option<PathBuf>,
    /// Store tuning for the WAL (durable elections only).
    pub store: StoreOptions,
}

impl ElectionConfig {
    /// Defaults tuned for tests and moderate loads: 1 ms windows,
    /// publish every 8 windows, in-memory.
    #[must_use]
    pub fn new(n: u32) -> Self {
        ElectionConfig {
            n,
            shards: 1,
            default_p: 0.5,
            competences: None,
            window: Duration::from_millis(1),
            max_batch: 4096,
            publish_every: 8,
            dir: None,
            store: StoreOptions::default(),
        }
    }
}

/// One published, immutable view of the election at an epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Monotonic epoch counter (0 = initial state, pre-ingest).
    pub epoch: u64,
    /// Cumulative accepted updates — for a durable election also the
    /// WAL records this epoch covers (its replay cap in `epochs.log`).
    pub applied: u64,
    /// Cumulative rejected updates.
    pub rejected: u64,
    /// The exact tally.
    pub tally: PublishedTally,
}

/// Cumulative service counters, cheap to sample at any time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Updates accepted into the ingest queue.
    pub enqueued: u64,
    /// Updates accepted by the sequencer (as of the latest epoch).
    pub applied: u64,
    /// Updates rejected by the sequencer (as of the latest epoch).
    pub rejected: u64,
    /// Latest published epoch.
    pub epoch: u64,
}

/// What a durable restart reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRecovery {
    /// The epoch the service resumed at.
    pub epoch: u64,
    /// Digest of the recovered tally (verified against the epoch log
    /// when an epoch was committed).
    pub digest: u64,
    /// Cumulative accepted updates restored — also the WAL records
    /// replayed (the committed epoch's cap).
    pub applied: u64,
    /// Cumulative rejected updates restored.
    pub rejected: u64,
}

/// State shared between ingest handles, the sequencer, and readers.
struct Published {
    epoch: AtomicU64,
    snap: RwLock<Arc<EpochSnapshot>>,
    enqueued: AtomicU64,
    /// Ingest-to-publish latencies in nanoseconds: this election's own
    /// fixed-bucket histogram, not one of the registry's.
    latency_ns: ld_obs::Histogram,
}

type FlushReply = Sender<Result<Arc<EpochSnapshot>, String>>;

enum Msg {
    Update(Update, Instant),
    Flush(FlushReply),
    Kill,
}

/// How an ingest window ended.
enum WindowEnd {
    /// Its deadline passed, it reached `max_batch`, or ingest closed.
    Done,
    /// A flush arrived; it is answered once the window is logged.
    Flush(FlushReply),
    /// A kill arrived; the window is dropped unlogged.
    Kill,
}

/// A live, hosted election. Dropping it shuts down gracefully: pending
/// ingest drains, the WAL fsyncs, and a final epoch publishes.
pub struct Election {
    n: u32,
    ingest: Option<Sender<Msg>>,
    /// Returns the failure the sequencer ended with, if any.
    sequencer: Option<JoinHandle<Option<String>>>,
    published: Arc<Published>,
    identity: Mutex<IdentityBackend>,
    obs_enqueued: ld_obs::Counter,
}

enum IdentityBackend {
    Mem(IdentityMap),
    Durable(IdentityLog),
}

impl Election {
    /// Creates a fresh election per `cfg` — durable (store, meta, epoch
    /// and identity logs under `cfg.dir`) when a directory is
    /// configured, in-memory otherwise — and starts its sequencer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for unusable configurations (checked
    /// before anything is allocated), durable-layer errors when store
    /// files cannot be created, [`ServeError::Sequencer`] when the
    /// sequencer thread cannot be spawned.
    pub fn create(cfg: &ElectionConfig) -> Result<Election, ServeError> {
        if cfg.shards != 1 {
            return Err(ServeError::Config(format!(
                "{} shards requested; an election runs one engine (shards = 1)",
                cfg.shards
            )));
        }
        if cfg.n > MAX_VOTERS {
            return Err(ServeError::Config(format!(
                "{} voters exceeds the limit of {MAX_VOTERS}",
                cfg.n
            )));
        }
        let n = cfg.n as usize;
        let competences = match &cfg.competences {
            Some(ps) if ps.len() != n => {
                return Err(ServeError::Config(format!(
                    "{} competences for {n} voters",
                    ps.len()
                )));
            }
            Some(ps) => ps.clone(),
            None => vec![cfg.default_p; n],
        };
        let engine = LiveEngine::new(vec![Action::Vote; n], competences)
            .map_err(|e| ServeError::Config(e.to_string()))?;
        let (store, epoch_log, identity) = if let Some(dir) = &cfg.dir {
            std::fs::create_dir_all(dir).map_err(ServeError::io("create election dir", dir))?;
            Meta {
                n: cfg.n,
                default_p: cfg.default_p,
            }
            .write(dir)?;
            let store = Store::create(&dir.join(STORE_DIR), &engine, cfg.store)?;
            let epoch_log = EpochLog::open(&dir.join(EPOCHS_FILE))?;
            let identity =
                IdentityBackend::Durable(IdentityLog::open(&dir.join(IDENTITY_FILE), cfg.n)?);
            (Some(store), Some(epoch_log), identity)
        } else {
            (
                None,
                None,
                IdentityBackend::Mem(IdentityMap::with_capacity(cfg.n)),
            )
        };
        let initial = EpochSnapshot {
            epoch: 0,
            applied: 0,
            rejected: 0,
            tally: PublishedTally::of(&engine),
        };
        Self::start(cfg, engine, store, epoch_log, identity, initial)
    }

    /// Reopens the durable election under `dir` at its last committed
    /// epoch: WAL replay is *capped* at the epoch's recorded count, the
    /// tally is recomputed, and its digest must match the one logged at
    /// publish time — recovery is bit-identical or it is an error.
    ///
    /// Only the runtime tuning of `tuning` is used (`window`,
    /// `max_batch`, `publish_every`, `store`); the election's facts
    /// (`n`, competences) come from its own files.
    ///
    /// # Errors
    ///
    /// Durable-layer errors, [`ServeError::Meta`] for invalid service
    /// files, [`ServeError::DigestMismatch`] when the recovered state
    /// does not reproduce the committed epoch, and
    /// [`ServeError::Sequencer`] when the sequencer thread cannot be
    /// spawned.
    pub fn recover(
        dir: &Path,
        tuning: &ElectionConfig,
    ) -> Result<(Election, ServeRecovery), ServeError> {
        let meta = Meta::read(dir)?;
        let epoch_log = EpochLog::open(&dir.join(EPOCHS_FILE))?;
        let committed = epoch_log.last().cloned();
        let cap = committed.as_ref().map_or(0, |e| e.records);
        let (store, recovery) = Store::resume_capped(&dir.join(STORE_DIR), tuning.store, cap)?;
        let engine = recovery.engine;
        let tally = PublishedTally::of(&engine);
        if let Some(entry) = &committed {
            if tally.digest != entry.digest {
                return Err(ServeError::DigestMismatch {
                    epoch: entry.epoch,
                    expected: entry.digest,
                    actual: tally.digest,
                });
            }
        }
        let identity =
            IdentityBackend::Durable(IdentityLog::open(&dir.join(IDENTITY_FILE), meta.n)?);
        let (epoch, applied, rejected) = committed
            .as_ref()
            .map_or((0, 0, 0), |e| (e.epoch, e.applied, e.rejected));
        let report = ServeRecovery {
            epoch,
            digest: tally.digest,
            applied,
            rejected,
        };
        let initial = EpochSnapshot {
            epoch,
            applied,
            rejected,
            tally,
        };
        let cfg = ElectionConfig {
            n: meta.n,
            shards: 1,
            default_p: meta.default_p,
            competences: None,
            dir: Some(dir.to_path_buf()),
            ..tuning.clone()
        };
        let election = Self::start(
            &cfg,
            engine,
            Some(store),
            Some(epoch_log),
            identity,
            initial,
        )?;
        Ok((election, report))
    }

    /// Spawns the sequencer thread around prepared state.
    fn start(
        cfg: &ElectionConfig,
        engine: LiveEngine,
        store: Option<Store>,
        epoch_log: Option<EpochLog>,
        identity: IdentityBackend,
        initial: EpochSnapshot,
    ) -> Result<Election, ServeError> {
        let (ingest_tx, ingest_rx) = mpsc::channel();
        let sequencer = Sequencer::new(cfg, engine, store, epoch_log, ingest_rx, initial);
        let published = Arc::clone(&sequencer.published);
        let handle = std::thread::Builder::new()
            .name("ld-serve-sequencer".to_string())
            .spawn(move || sequencer.run())
            .map_err(|e| ServeError::Sequencer(format!("spawn sequencer thread: {e}")))?;
        Ok(Election {
            n: cfg.n,
            ingest: Some(ingest_tx),
            sequencer: Some(handle),
            published,
            identity: Mutex::new(identity),
            obs_enqueued: ld_obs::counter("serve.enqueued"),
        })
    }

    /// Electorate size.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Registers an identity key, minting the next dense voter id
    /// (durably logged for durable elections).
    ///
    /// # Errors
    ///
    /// Typed [`IdentityError`]s (duplicate, full, bad key, log I/O).
    pub fn register(&self, key: &[u8]) -> Result<u32, IdentityError> {
        match &mut *self.identity.lock().expect("identity lock") {
            IdentityBackend::Mem(map) => map.register(key),
            IdentityBackend::Durable(log) => log.register(key),
        }
    }

    /// The id a key maps to, if registered.
    #[must_use]
    pub fn lookup(&self, key: &[u8]) -> Option<u32> {
        match &*self.identity.lock().expect("identity lock") {
            IdentityBackend::Mem(map) => map.lookup(key),
            IdentityBackend::Durable(log) => log.map().lookup(key),
        }
    }

    /// Fire-and-forget ingest: enqueues the update for the sequencer.
    /// Acceptance is decided (and counted) at sequencing time; the
    /// effect is visible in the next published epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] once the service has shut down.
    pub fn submit(&self, update: Update) -> Result<(), ServeError> {
        let tx = self.ingest.as_ref().ok_or(ServeError::Closed)?;
        tx.send(Msg::Update(update, Instant::now()))
            .map_err(|_| ServeError::Closed)?;
        self.published.enqueued.fetch_add(1, Ordering::Relaxed);
        self.obs_enqueued.incr();
        Ok(())
    }

    /// The latest published epoch snapshot — an `Arc` clone under a
    /// briefly-held read lock; never blocks on ingest or tallying.
    #[must_use]
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.snap.read().expect("snapshot lock"))
    }

    /// The latest published epoch number.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.published.epoch.load(Ordering::Acquire)
    }

    /// Drains everything enqueued so far through the engine, runs the
    /// epoch barrier, and returns the freshly published snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] after shutdown, [`ServeError::Sequencer`]
    /// if the sequencer reported a durable-layer failure.
    pub fn flush(&self) -> Result<Arc<EpochSnapshot>, ServeError> {
        let tx = self.ingest.as_ref().ok_or(ServeError::Closed)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(Msg::Flush(reply_tx))
            .map_err(|_| ServeError::Closed)?;
        match reply_rx.recv() {
            Ok(Ok(snap)) => Ok(snap),
            Ok(Err(message)) => Err(ServeError::Sequencer(message)),
            Err(_) => Err(ServeError::Closed),
        }
    }

    /// Cumulative counters (epoch-granular for sequencer counts).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let snap = self.snapshot();
        ServeStats {
            enqueued: self.published.enqueued.load(Ordering::Relaxed),
            applied: snap.applied,
            rejected: snap.rejected,
            epoch: snap.epoch,
        }
    }

    /// Summary of the ingest-to-publish latencies recorded so far, in
    /// nanoseconds (one sample per enqueued update, stamped at `submit`
    /// and closed at the publish that covered it).
    #[must_use]
    pub fn latency_ns(&self) -> ld_obs::HistSummary {
        self.published.latency_ns.summary("ingest_to_publish_ns")
    }

    /// Graceful shutdown: drains pending ingest, fsyncs the WAL,
    /// publishes (and commits) a final epoch, joins the sequencer, and
    /// returns the final snapshot. Also runs on drop; calling it
    /// explicitly surfaces errors instead of swallowing them.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sequencer`] if the sequencer failed at any point.
    pub fn shutdown(mut self) -> Result<Arc<EpochSnapshot>, ServeError> {
        match self.shutdown_inner() {
            Some(message) => Err(ServeError::Sequencer(message)),
            None => Ok(self.snapshot()),
        }
    }

    /// Abrupt stop: pending ingest and the window in flight are dropped
    /// unlogged, no final barrier runs, no epoch commits — the crash
    /// path, for recovery testing. The
    /// durable state is whatever the last committed epoch covers.
    pub fn kill(mut self) {
        if let Some(tx) = self.ingest.take() {
            let _ = tx.send(Msg::Kill);
        }
        if let Some(h) = self.sequencer.take() {
            let _ = h.join();
        }
    }

    /// Closes ingest and joins the sequencer, returning the failure it
    /// ended with, if any.
    fn shutdown_inner(&mut self) -> Option<String> {
        // Dropping the sender is the shutdown signal: the sequencer
        // drains what is already queued and publishes a final epoch.
        drop(self.ingest.take());
        let handle = self.sequencer.take()?;
        handle
            .join()
            .unwrap_or_else(|_| Some("sequencer thread panicked".to_string()))
    }
}

impl Drop for Election {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

impl std::fmt::Debug for Election {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Election")
            .field("n", &self.n)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// Everything the sequencer thread owns.
struct Sequencer {
    window: Duration,
    max_batch: usize,
    publish_every: u32,
    engine: LiveEngine,
    store: Option<Store>,
    epoch_log: Option<EpochLog>,
    rx: Receiver<Msg>,
    published: Arc<Published>,
    applied: u64,
    rejected: u64,
    /// Ingest times of the updates received since the last publish;
    /// empty once the election has failed.
    stamps: Vec<Instant>,
    /// Updates received but not yet applied: the run in flight.
    run: Vec<Update>,
    /// The open window's accepted updates in arrival order: already in
    /// the engine, not yet in the WAL.
    pending: Vec<Update>,
    /// The weight buffer of the last replaced snapshot no reader held;
    /// the next tally writes into it instead of allocating.
    spare: Vec<u64>,
    windows: u32,
    /// The first durable-layer failure; once set, no epoch publishes.
    failure: Option<String>,
    obs: SequencerObs,
}

/// The sequencer's ld-obs handles, looked up once before its loop.
struct SequencerObs {
    window_updates: ld_obs::Histogram,
    rejected: ld_obs::Counter,
    publish_ns: ld_obs::Histogram,
    tally_ns: ld_obs::Histogram,
    epoch_log_ns: ld_obs::Histogram,
    ingest_to_publish_ns: ld_obs::Histogram,
    epochs: ld_obs::Counter,
    applied: ld_obs::Counter,
}

impl SequencerObs {
    fn resolve() -> Self {
        SequencerObs {
            window_updates: ld_obs::histogram("serve.window_updates"),
            rejected: ld_obs::counter("serve.rejected"),
            publish_ns: ld_obs::histogram("serve.publish_ns"),
            tally_ns: ld_obs::histogram("serve.tally_ns"),
            epoch_log_ns: ld_obs::histogram("serve.epoch_log_ns"),
            ingest_to_publish_ns: ld_obs::histogram("serve.ingest_to_publish_ns"),
            epochs: ld_obs::counter("serve.epochs"),
            applied: ld_obs::counter("serve.applied"),
        }
    }
}

impl Sequencer {
    /// A sequencer tuned by `cfg` that publishes `initial` as its first
    /// snapshot and then serves `rx`.
    fn new(
        cfg: &ElectionConfig,
        engine: LiveEngine,
        store: Option<Store>,
        epoch_log: Option<EpochLog>,
        rx: Receiver<Msg>,
        initial: EpochSnapshot,
    ) -> Sequencer {
        let (applied, rejected) = (initial.applied, initial.rejected);
        Sequencer {
            window: cfg.window,
            max_batch: cfg.max_batch.max(1),
            publish_every: cfg.publish_every,
            engine,
            store,
            epoch_log,
            rx,
            published: Arc::new(Published {
                epoch: AtomicU64::new(initial.epoch),
                snap: RwLock::new(Arc::new(initial)),
                enqueued: AtomicU64::new(0),
                latency_ns: ld_obs::Histogram::default(),
            }),
            applied,
            rejected,
            stamps: Vec::new(),
            run: Vec::new(),
            pending: Vec::new(),
            spare: Vec::new(),
            windows: 0,
            failure: None,
            obs: SequencerObs::resolve(),
        }
    }

    /// Runs until ingest closes or a kill arrives; returns the sticky
    /// failure, if any.
    fn run(mut self) -> Option<String> {
        loop {
            match self.rx.recv() {
                Ok(Msg::Update(update, at)) => {
                    let (len, end) = self.collect_window(update, at);
                    // Crash semantics: the window in flight is lost,
                    // applied but never logged.
                    if matches!(end, WindowEnd::Kill) {
                        return self.failure;
                    }
                    self.log_window(len);
                    if let WindowEnd::Flush(reply) = end {
                        let _ = reply.send(self.barrier_and_publish());
                    } else if self.publish_every > 0 && self.windows >= self.publish_every {
                        let _ = self.barrier_and_publish();
                    }
                }
                Ok(Msg::Flush(reply)) => {
                    let _ = reply.send(self.barrier_and_publish());
                }
                Ok(Msg::Kill) => return self.failure,
                Err(_) => {
                    // All senders gone: graceful shutdown. Everything
                    // enqueued was already drained (recv returns queued
                    // messages before reporting disconnection), so one
                    // final barrier makes it durable and visible.
                    let _ = self.barrier_and_publish();
                    return self.failure;
                }
            }
        }
    }

    /// Collects and applies the window that `first` opens. Whatever is
    /// already queued is drained without reading the clock and applied
    /// as one run; only then does the sequencer wait, up to the window's
    /// deadline, for more. Returns the window's update count and how it
    /// ended.
    fn collect_window(&mut self, first: Update, at: Instant) -> (usize, WindowEnd) {
        let deadline = Instant::now() + self.window;
        self.receive(first, at);
        let mut len = 1;
        loop {
            let end = loop {
                if len >= self.max_batch {
                    break Some(WindowEnd::Done);
                }
                match self.rx.try_recv() {
                    Ok(Msg::Update(u, t)) => {
                        self.receive(u, t);
                        len += 1;
                    }
                    Ok(Msg::Flush(reply)) => break Some(WindowEnd::Flush(reply)),
                    Ok(Msg::Kill) => return (len, WindowEnd::Kill),
                    Err(TryRecvError::Empty) => break None,
                    Err(TryRecvError::Disconnected) => break Some(WindowEnd::Done),
                }
            };
            self.apply_run();
            if let Some(end) = end {
                return (len, end);
            }
            let now = Instant::now();
            if now >= deadline {
                return (len, WindowEnd::Done);
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(Msg::Update(u, t)) => {
                    self.receive(u, t);
                    len += 1;
                }
                Ok(Msg::Flush(reply)) => return (len, WindowEnd::Flush(reply)),
                Ok(Msg::Kill) => return (len, WindowEnd::Kill),
                // A disconnect is seen again by `run`'s next `recv`.
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    return (len, WindowEnd::Done)
                }
            }
        }
    }

    /// Queues one received update for the next run, taking its latency
    /// stamp.
    fn receive(&mut self, update: Update, at: Instant) {
        // A failed election never publishes again, so nothing would
        // close a latency stamp taken now.
        if self.failure.is_none() {
            self.stamps.push(at);
        }
        self.run.push(update);
    }

    /// Applies the queued run as one [`LiveEngine::apply_batch`], which
    /// accepts exactly what applying the updates one at a time would.
    /// The accepted ones wait in `pending`, in arrival order, for the
    /// window's WAL write; the rejected ones are counted.
    fn apply_run(&mut self) {
        let report = self.engine.apply_batch(&self.run);
        let mut rejected = report.rejected.iter().map(|&(k, _)| k).peekable();
        for (k, &update) in self.run.iter().enumerate() {
            if rejected.next_if_eq(&k).is_none() {
                self.pending.push(update);
            }
        }
        let rejects = report.rejected.len() as u64;
        self.rejected += rejects;
        self.obs.rejected.add(rejects);
        self.run.clear();
    }

    /// Ends a window of `len` received updates: its accepted ones go to
    /// the WAL as one `append_batch`, in arrival order.
    fn log_window(&mut self, len: usize) {
        self.obs.window_updates.record(len as u64);
        self.applied += self.pending.len() as u64;
        self.windows += 1;
        if let (Some(store), None) = (self.store.as_mut(), &self.failure) {
            if let Err(e) = store.append_batch(&self.pending) {
                self.failure = Some(format!("wal append: {e}"));
            }
        }
        self.pending.clear();
    }

    /// The epoch barrier: sync and compact the WAL, tally, commit, swap.
    /// A failure is sticky: no later epoch publishes, and `shutdown`
    /// surfaces it.
    fn barrier_and_publish(&mut self) -> Result<Arc<EpochSnapshot>, String> {
        let start = Instant::now();
        let published = self.publish();
        self.obs
            .publish_ns
            .record(start.elapsed().as_nanos() as u64);
        published
    }

    /// The barrier itself; [`Sequencer::barrier_and_publish`] times it.
    fn publish(&mut self) -> Result<Arc<EpochSnapshot>, String> {
        self.windows = 0;
        let committed = match self.failure.clone() {
            Some(message) => Err(message),
            None => self.commit(),
        };
        let (epoch, tally) = match committed {
            Ok(c) => c,
            Err(message) => {
                self.failure = Some(message.clone());
                self.stamps.clear();
                return Err(message);
            }
        };
        let snap = Arc::new(EpochSnapshot {
            epoch,
            applied: self.applied,
            rejected: self.rejected,
            tally,
        });
        let previous = std::mem::replace(
            &mut *self.published.snap.write().expect("snapshot lock"),
            Arc::clone(&snap),
        );
        self.published.epoch.store(epoch, Ordering::Release);
        let now = Instant::now();
        for at in self.stamps.drain(..) {
            let ns = now.saturating_duration_since(at).as_nanos() as u64;
            self.published.latency_ns.record(ns);
            self.obs.ingest_to_publish_ns.record(ns);
        }
        self.obs.epochs.incr();
        // `applied` is cumulative; the counter takes this epoch's share.
        self.obs.applied.add(snap.applied - previous.applied);
        // A reader may still hold the replaced snapshot; then its buffer
        // stays untouched and the next tally allocates.
        if let Ok(previous) = Arc::try_unwrap(previous) {
            self.spare = previous.tally.weights;
        }
        Ok(snap)
    }

    /// Makes the engine's state durable and commits it as the next
    /// epoch, returning the epoch number and its tally.
    fn commit(&mut self) -> Result<(u64, PublishedTally), String> {
        let mut tally = || {
            timed(&self.obs.tally_ns, || {
                PublishedTally::into_buffer(&self.engine, std::mem::take(&mut self.spare))
            })
        };
        let tally = match self.store.as_mut() {
            Some(store) => {
                let tally = sync_beside_tally(store, tally)?;
                store
                    .maybe_compact(&self.engine)
                    .map_err(|e| format!("compact: {e}"))?;
                tally
            }
            None => tally(),
        };
        let epoch = self.published.epoch.load(Ordering::Acquire) + 1;
        if let Some(log) = self.epoch_log.as_mut() {
            timed(&self.obs.epoch_log_ns, || {
                log.append(&EpochEntry {
                    epoch,
                    records: self.applied,
                    digest: tally.digest,
                    applied: self.applied,
                    rejected: self.rejected,
                })
            })
            .map_err(|e| format!("epoch commit: {e}"))?;
        }
        Ok((epoch, tally))
    }
}

/// Runs `f`, recording its wall time in nanoseconds in `hist`.
fn timed<T>(hist: &ld_obs::Histogram, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    hist.record(start.elapsed().as_nanos() as u64);
    out
}

/// Fsyncs the WAL on a scoped helper thread while this thread builds
/// the tally, so the barrier waits for the longer of the two instead of
/// their sum. Should no helper thread be available, it syncs first and
/// then tallies.
fn sync_beside_tally(
    store: &mut Store,
    mut tally: impl FnMut() -> PublishedTally,
) -> Result<PublishedTally, String> {
    let overlapped = std::thread::scope(|scope| {
        let helper = std::thread::Builder::new()
            .name("ld-serve-wal-sync".to_string())
            .spawn_scoped(scope, || store.sync())
            .ok()?;
        let tally = tally();
        let synced = helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Some((synced, tally))
    });
    let (synced, tally) = overlapped.unwrap_or_else(|| (store.sync(), tally()));
    synced.map_err(|e| format!("wal sync: {e}"))?;
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_store::FaultPlan;

    fn engine(n: usize) -> LiveEngine {
        LiveEngine::new(vec![Action::Vote; n], vec![0.5; n]).expect("engine")
    }

    /// Receives `len` always-accepted competence updates and applies
    /// them as one run, without ending the window.
    fn apply_updates(seq: &mut Sequencer, n: usize, len: usize) {
        for k in 0..len {
            let update = Update::Competence {
                voter: k % n,
                p: 0.75,
            };
            seq.receive(update, Instant::now());
        }
        seq.apply_run();
    }

    /// Applies and logs one window of `len` such updates.
    fn window(seq: &mut Sequencer, n: usize, len: usize) {
        apply_updates(seq, n, len);
        seq.log_window(len);
    }

    /// A sequencer over a fresh durable store at `dir`. Counting the
    /// store's operations after creation from 0, operation `fault_after`
    /// fails (`None`: none does).
    fn durable(dir: &Path, n: usize, fault_after: Option<u64>) -> Sequencer {
        let _ = std::fs::remove_dir_all(dir);
        let create_ops = Store::create(&dir.join("probe"), &engine(n), StoreOptions::default())
            .expect("probe store")
            .clock()
            .ops();
        let opts = StoreOptions {
            fault: fault_after.map_or(FaultPlan::none(), |k| FaultPlan::fail_at(create_ops + k)),
            ..StoreOptions::default()
        };
        let store = Store::create(&dir.join(STORE_DIR), &engine(n), opts).expect("store");
        let initial = EpochSnapshot {
            epoch: 0,
            applied: 0,
            rejected: 0,
            tally: PublishedTally::of(&engine(n)),
        };
        let (_tx, rx) = mpsc::channel();
        let cfg = ElectionConfig::new(n as u32);
        Sequencer::new(&cfg, engine(n), Some(store), None, rx, initial)
    }

    #[test]
    fn a_failed_sequencer_keeps_no_latency_stamps() {
        let n = 16;
        let dir =
            std::env::temp_dir().join(format!("ld-serve-failed-stamps-{}", std::process::id()));
        // After creation, op 0 is the first window's WAL append and op 1
        // the barrier's fsync.
        let mut seq = durable(&dir, n, Some(1));
        window(&mut seq, n, 8);
        assert_eq!(seq.stamps.len(), 8);
        let failed = seq.barrier_and_publish();
        assert!(
            failed.as_ref().is_err_and(|e| e.contains("wal sync")),
            "{failed:?}"
        );
        assert!(seq.stamps.is_empty(), "a failed barrier drops its stamps");
        for _ in 0..4 {
            window(&mut seq, n, 8);
            assert!(seq.stamps.is_empty(), "a failed election stamps nothing");
        }
        assert!(seq.barrier_and_publish().is_err(), "the failure is sticky");
        assert_eq!(seq.applied, 40, "ingest is still applied");
        assert_eq!(seq.published.latency_ns.summary("ns").count, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn updates_apply_on_arrival_and_a_window_is_one_wal_write() {
        let n = 16;
        let dir = std::env::temp_dir().join(format!("ld-serve-one-write-{}", std::process::id()));
        let mut seq = durable(&dir, n, None);
        let clock = Arc::clone(seq.store.as_ref().expect("durable").clock());
        for round in 1..=3 {
            let ops = clock.ops();
            apply_updates(&mut seq, n, 8);
            assert_eq!(clock.ops(), ops, "applying touches no file");
            assert!(
                seq.run.is_empty(),
                "the run went to the engine as one batch"
            );
            assert_eq!(seq.pending.len(), 8, "applied, waiting for the WAL");
            seq.log_window(8);
            assert_eq!(clock.ops(), ops + 1, "one window, one WAL write");
            assert!(seq.pending.is_empty());
            assert_eq!((seq.applied, seq.windows), (8 * round, round as u32));
        }
        let store = seq.store.as_ref().expect("durable");
        assert_eq!(store.records(), 24, "one record per accepted update");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
