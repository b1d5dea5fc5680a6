//! A deterministic parallel Monte Carlo engine.
//!
//! Trials are split into fixed-size chunks claimed from a shared atomic
//! counter (work stealing: a fast worker keeps claiming until the counter
//! runs out, so uneven per-trial costs never leave cores idle the way the
//! old fixed per-worker split did). Determinism is *scheduling-free* by
//! construction:
//!
//! * trial `t` always draws from `stream_rng(seed, t)` — its randomness
//!   depends only on the master seed and its own index, never on which
//!   worker ran it;
//! * each chunk accumulates into a private [`GainEstimate`], and the
//!   partials are merged in canonical chunk order after all workers have
//!   joined (Welford merging is order-sensitive, so the merge order is
//!   pinned rather than first-come-first-served).
//!
//! The same `(seed, trials)` pair therefore produces bit-identical
//! estimates for **every** worker count and every steal interleaving —
//! including the sequential path, which runs the identical chunk loop.
//! Workers are scoped `std` threads: the calling thread is worker 0 and
//! spawns one helper per further worker.
//! Per-trial resolution goes through the flat CSR kernels
//! ([`ld_core::csr::CsrForest`]) with one thread-local arena per worker,
//! so the hot loop does not allocate after warm-up.
//!
//! Two tally kernels share that scheduler: the default exact weighted
//! Poisson-binomial per draw, and an opt-in 64-wide bit-packed sampler
//! ([`Engine::with_packed_tally`]) that estimates the
//! conditional correctness probability by folding packed Bernoulli coin
//! words (`ld_prob::coins`) against the resolution's weight bit-planes.
//! The packed path keeps the same per-trial stream discipline — every
//! coin word for trial `t` comes from `stream_rng(seed, t)` after the
//! mechanism's own draws — so it is equally scheduling-free; packed
//! words never cross chunk boundaries because each chunk's trials own
//! their streams outright. A [`PackedCompetence`] is built once per run
//! and shared read-only; each worker folds into its own scratch arena.

use crate::error::Result;
use ld_core::csr::CsrForest;
use ld_core::gain::{accumulate_draw, empty_estimate, DrawTally, GainEstimate, PackedTallyScratch};
use ld_core::mechanisms::Mechanism;
use ld_core::tally::TieBreak;
use ld_core::ProblemInstance;
use ld_prob::coins::PackedCompetence;
use ld_prob::rng::stream_rng;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Trials per scheduler chunk: small enough to balance uneven per-trial
/// costs across workers, large enough that a claim (one atomic RMW) is
/// noise against the per-trial tally work.
const TRIAL_CHUNK: u64 = 16;

/// Which per-draw tally the engine runs inside the chunk loop.
#[derive(Debug, Clone, Copy)]
enum TallyKernel {
    /// Exact conditional correctness per draw (weighted
    /// Poisson-binomial) — the default; the only Monte Carlo noise is
    /// over the mechanism's randomness.
    Exact,
    /// Sampled conditional correctness: `samples` bit-packed 64-wide
    /// coin draws folded against weight bit-planes per mechanism draw.
    /// Much faster per trial at large `n`; adds `O(1/√samples)` noise to
    /// `p_mechanism`. Still bit-deterministic for fixed
    /// `(seed, trials, samples)` across worker counts.
    Packed {
        /// Packed coin vectors per mechanism draw (clamped to ≥ 1).
        samples: u32,
    },
}

/// The parallel trial engine.
///
/// # Examples
///
/// ```
/// use ld_sim::engine::Engine;
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_core::mechanisms::ApprovalThreshold;
/// use ld_graph::generators;
///
/// let inst = ProblemInstance::new(
///     generators::complete(32),
///     CompetencyProfile::linear(32, 0.35, 0.62)?,
///     0.05,
/// )?;
/// let engine = Engine::new(42).with_workers(2);
/// let est = engine.estimate_gain(&inst, &ApprovalThreshold::new(2), 64)?;
/// assert_eq!(est.trials(), 64);
/// // The worker count never changes the bits of the estimate:
/// let seq = Engine::new(42).with_workers(1).estimate_gain(&inst, &ApprovalThreshold::new(2), 64)?;
/// assert_eq!(est.p_mechanism().to_bits(), seq.p_mechanism().to_bits());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    seed: u64,
    workers: usize,
    kernel: TallyKernel,
}

impl Engine {
    /// Creates an engine with the given master seed and as many workers as
    /// the machine has available cores.
    pub fn new(seed: u64) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Engine {
            seed,
            workers,
            kernel: TallyKernel::Exact,
        }
    }

    /// Overrides the worker count (1 = sequential). The result of
    /// [`Engine::estimate_gain`] does not depend on this — only the
    /// wall-clock time does.
    ///
    /// A worker count of 0 is meaningless; rather than panicking (which
    /// would abort a long sweep over a config typo) it is clamped to 1 and
    /// a warning is logged to stderr.
    pub fn with_workers(mut self, workers: usize) -> Self {
        if workers == 0 {
            eprintln!("ld-sim: engine: worker count 0 clamped to 1 (sequential)");
        }
        self.workers = workers.max(1);
        self
    }

    /// Switches to the 64-wide bit-packed sampled tally with `samples`
    /// packed coin vectors per mechanism draw (clamped to ≥ 1). The
    /// default exact kernel is untouched by this opt-in: estimates from
    /// the two kernels agree within the sampler's `O(1/√samples)` noise
    /// but are not bit-identical to each other — the packed estimate is
    /// bit-identical only to *itself* across worker counts.
    pub fn with_packed_tally(mut self, samples: u32) -> Self {
        if samples == 0 {
            eprintln!("ld-sim: engine: packed sample count 0 clamped to 1");
        }
        self.kernel = TallyKernel::Packed {
            samples: samples.max(1),
        };
        self
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Derives a new engine with a different master seed (for sweeps where
    /// each parameter point should use an unrelated stream).
    pub fn reseeded(&self, salt: u64) -> Engine {
        Engine {
            seed: ld_prob::rng::split_seed(self.seed, salt),
            ..*self
        }
    }

    /// Estimates `gain(M, G)` with `trials` mechanism draws scheduled in
    /// chunks of `TRIAL_CHUNK` trials over the workers. Deterministic for a
    /// fixed `(seed, trials)` pair — bit-identical across worker counts
    /// and chunk interleavings (see the module docs for why). A tie
    /// counts as an incorrect decision (the paper's strict majority).
    ///
    /// # Errors
    ///
    /// Propagates tallying errors from any worker. A panic inside a worker
    /// (e.g. from a buggy [`Mechanism`]) is captured and surfaced as
    /// [`crate::SimError::WorkerPanic`] instead of aborting the process.
    pub fn estimate_gain(
        &self,
        instance: &ProblemInstance,
        mechanism: &(dyn Mechanism + Sync),
        trials: u64,
    ) -> Result<GainEstimate> {
        let _span = ld_obs::span("engine.estimate_gain_ns");
        let base = empty_estimate(instance, TieBreak::Incorrect)?;
        if trials == 0 {
            return Ok(base);
        }
        // Built once per run for the packed kernel, shared read-only by
        // every worker; `None` on the exact path.
        let competence = match self.kernel {
            TallyKernel::Exact => None,
            TallyKernel::Packed { samples } => Some((
                PackedCompetence::new(instance.profile().as_slice())
                    .map_err(ld_core::CoreError::from)?,
                samples,
            )),
        };
        let packed = competence.as_ref().map(|(c, s)| (c, *s));
        let chunks = trials.div_ceil(TRIAL_CHUNK);
        // More threads than chunks is pure coordination waste, but the
        // requested worker count is otherwise honoured even beyond the
        // core count: the result is scheduling-free, so oversubscription
        // cannot change it, and the determinism suite deliberately runs
        // 8–16 workers on small hosts to prove exactly that.
        let threads = self.workers.min(chunks as usize).max(1);
        let obs = RunObs::resolve(trials);

        let next_chunk = AtomicU64::new(0);
        let failure: Mutex<Option<ld_core::CoreError>> = Mutex::new(None);
        let collected: Mutex<Vec<(u64, GainEstimate)>> =
            Mutex::new(Vec::with_capacity(chunks as usize));
        let worker = |w: usize| {
            let mut forest = CsrForest::new();
            let mut scratch = PackedTallyScratch::new();
            loop {
                if lock(&failure).is_some() {
                    return;
                }
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    return;
                }
                obs.claimed.incr();
                // A "steal": the chunk lands on a different worker than a
                // fixed round-robin split would have sent it to, i.e.
                // someone finished early and took over.
                if c as usize % threads != w {
                    obs.steals.incr();
                }
                match run_chunk(
                    c,
                    trials,
                    instance,
                    mechanism,
                    self.seed,
                    &base,
                    &mut forest,
                    packed,
                    &mut scratch,
                    &obs,
                ) {
                    Ok(partial) => lock(&collected).push((c, partial)),
                    Err(e) => {
                        *lock(&failure) = Some(e);
                        return;
                    }
                }
            }
        };
        if self.workers == 1 {
            // A lone worker runs on the calling thread, and its panics
            // propagate to the caller unchanged.
            worker(0);
        } else {
            // The calling thread is worker 0 beside `threads - 1` helpers.
            // A panic in any worker poisons at most its own pushes (`lock`
            // and the `into_inner` calls below read through the poison);
            // the first payload, in worker order, becomes a typed error.
            // This holds even when the clamp leaves no helpers, so the
            // error surface does not depend on the machine's core count.
            // Batch spans belong to this path only: the one-worker obs
            // summary, pinned by a golden, has none.
            let batch = |w: usize| {
                let _batch_span = ld_obs::span("engine.worker_batch_ns");
                worker(w)
            };
            let first_panic = std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..threads)
                    .map(|w| scope.spawn(move || batch(w)))
                    .collect();
                let own = panic::catch_unwind(AssertUnwindSafe(|| batch(0)));
                helpers
                    .into_iter()
                    .map(|h| h.join())
                    .fold(own.err(), |first, joined| first.or(joined.err()))
            });
            if let Some(payload) = first_panic {
                return Err(crate::SimError::WorkerPanic {
                    message: crate::error::panic_message(&*payload),
                });
            }
        }
        if let Some(err) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(err.into());
        }
        // Welford merging is order-sensitive: merge in chunk order, not
        // in the order workers finished.
        let mut partials = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        partials.sort_unstable_by_key(|&(c, _)| c);
        let mut est = base;
        for (_, partial) in &partials {
            est.merge(partial);
        }
        Ok(est)
    }
}

/// The ld-obs handles of one [`Engine::estimate_gain`] call, looked up
/// before its workers start so the trial loop records with relaxed
/// atomics only.
struct RunObs {
    claimed: ld_obs::Counter,
    steals: ld_obs::Counter,
    scratch_reuse: ld_obs::Counter,
    /// Counts all the call's trials as started; its `Drop` flushes
    /// `finished`/`lost` even when a worker panics, so
    /// `engine.trials.started == finished + lost` always reconciles.
    trials: ld_obs::TrialGuard,
}

impl RunObs {
    fn resolve(trials: u64) -> Self {
        RunObs {
            claimed: ld_obs::counter("engine.chunks.claimed"),
            steals: ld_obs::counter("engine.steals"),
            scratch_reuse: ld_obs::counter("engine.scratch.reuse"),
            trials: ld_obs::TrialGuard::new("engine.trials", trials),
        }
    }
}

/// Runs one chunk of trials into a fresh partial estimate seeded from
/// `base` (the partial starts with zero draws; `p_direct` rides along via
/// the copy). Trial `t` draws from `stream_rng(seed, t)` regardless of
/// which worker runs the chunk.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    chunk: u64,
    trials: u64,
    instance: &ProblemInstance,
    mechanism: &(dyn Mechanism + Sync),
    seed: u64,
    base: &GainEstimate,
    forest: &mut CsrForest,
    packed: Option<(&PackedCompetence, u32)>,
    scratch: &mut PackedTallyScratch,
    obs: &RunObs,
) -> ld_core::Result<GainEstimate> {
    let start = chunk * TRIAL_CHUNK;
    let end = (start + TRIAL_CHUNK).min(trials);
    let mut local = *base;
    let mut tally = match packed {
        None => DrawTally::Exact,
        Some((competence, samples)) => DrawTally::Packed {
            competence,
            samples,
            scratch,
        },
    };
    let tie = TieBreak::Incorrect;
    for t in start..end {
        let mut rng = stream_rng(seed, t);
        let dg = mechanism.run(instance, &mut rng);
        let warm = forest.fits(instance.n());
        if accumulate_draw(instance, &dg, tie, &mut rng, &mut local, forest, &mut tally)? && warm {
            obs.scratch_reuse.incr();
        }
        obs.trials.note_done();
    }
    Ok(local)
}

/// Locks a worker-shared accumulator, reading through poison: a worker
/// that panicked mid-run is reported through its panic payload, not here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::mechanisms::{ApprovalThreshold, DirectVoting};
    use ld_core::CompetencyProfile;
    use ld_graph::generators;

    fn instance(n: usize) -> ProblemInstance {
        ProblemInstance::new(
            generators::complete(n),
            CompetencyProfile::linear(n, 0.3, 0.7).unwrap(),
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn sequential_and_trial_counts() {
        let inst = instance(16);
        let engine = Engine::new(1).with_workers(1);
        let est = engine.estimate_gain(&inst, &DirectVoting, 10).unwrap();
        assert_eq!(est.trials(), 10);
        assert!(est.gain().abs() < 1e-12);
    }

    #[test]
    fn parallel_trial_count_is_exact() {
        let inst = instance(16);
        let engine = Engine::new(1).with_workers(4);
        let est = engine
            .estimate_gain(&inst, &ApprovalThreshold::new(1), 10)
            .unwrap();
        assert_eq!(est.trials(), 10);
    }

    #[test]
    fn deterministic_for_fixed_configuration() {
        let inst = instance(24);
        let engine = Engine::new(7).with_workers(3);
        let a = engine
            .estimate_gain(&inst, &ApprovalThreshold::new(1), 30)
            .unwrap();
        let b = engine
            .estimate_gain(&inst, &ApprovalThreshold::new(1), 30)
            .unwrap();
        assert_eq!(a.p_mechanism(), b.p_mechanism());
        assert_eq!(a.mean_max_weight(), b.mean_max_weight());
    }

    #[test]
    fn different_seeds_differ() {
        let inst = instance(24);
        let a = Engine::new(1)
            .with_workers(2)
            .estimate_gain(&inst, &ApprovalThreshold::new(1), 16)
            .unwrap();
        let b = Engine::new(2)
            .with_workers(2)
            .estimate_gain(&inst, &ApprovalThreshold::new(1), 16)
            .unwrap();
        assert_ne!(a.p_mechanism(), b.p_mechanism());
    }

    #[test]
    fn parallel_matches_sequential_statistically() {
        let inst = instance(32);
        let mech = ApprovalThreshold::new(2);
        let seq = Engine::new(5)
            .with_workers(1)
            .estimate_gain(&inst, &mech, 200)
            .unwrap();
        let par = Engine::new(5)
            .with_workers(4)
            .estimate_gain(&inst, &mech, 200)
            .unwrap();
        assert!(
            (seq.p_mechanism() - par.p_mechanism()).abs() < 0.05,
            "seq {} vs par {}",
            seq.p_mechanism(),
            par.p_mechanism()
        );
    }

    #[test]
    fn worker_count_does_not_change_a_single_bit() {
        let inst = instance(24);
        let mech = ApprovalThreshold::new(1);
        let reference = Engine::new(7)
            .with_workers(1)
            .estimate_gain(&inst, &mech, 50)
            .unwrap();
        for workers in [2usize, 4, 8] {
            let est = Engine::new(7)
                .with_workers(workers)
                .estimate_gain(&inst, &mech, 50)
                .unwrap();
            assert_eq!(
                est.p_mechanism().to_bits(),
                reference.p_mechanism().to_bits(),
                "workers={workers}"
            );
            assert_eq!(
                est.mean_weight_gini().to_bits(),
                reference.mean_weight_gini().to_bits(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn packed_tally_is_bit_identical_across_worker_counts() {
        let inst = instance(48);
        let mech = ApprovalThreshold::new(1);
        let reference = Engine::new(7)
            .with_workers(1)
            .with_packed_tally(32)
            .estimate_gain(&inst, &mech, 50)
            .unwrap();
        for workers in [2usize, 4, 8, 16] {
            let est = Engine::new(7)
                .with_workers(workers)
                .with_packed_tally(32)
                .estimate_gain(&inst, &mech, 50)
                .unwrap();
            assert_eq!(
                est.p_mechanism().to_bits(),
                reference.p_mechanism().to_bits(),
                "workers={workers}"
            );
            assert_eq!(
                est.mean_weight_gini().to_bits(),
                reference.mean_weight_gini().to_bits(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn packed_tally_agrees_with_exact_within_sampling_noise() {
        let inst = instance(48);
        let mech = ApprovalThreshold::new(2);
        let exact = Engine::new(5)
            .with_workers(2)
            .estimate_gain(&inst, &mech, 64)
            .unwrap();
        let sampled = Engine::new(5)
            .with_workers(2)
            .with_packed_tally(256)
            .estimate_gain(&inst, &mech, 64)
            .unwrap();
        assert!(
            (exact.p_mechanism() - sampled.p_mechanism()).abs() < 0.05,
            "exact {} vs packed {}",
            exact.p_mechanism(),
            sampled.p_mechanism()
        );
        // The structural statistics never go through the sampler: both
        // kernels see the same mechanism draws per trial stream.
        assert_eq!(
            exact.mean_max_weight().to_bits(),
            sampled.mean_max_weight().to_bits()
        );
        assert_eq!(
            exact.mean_delegators().to_bits(),
            sampled.mean_delegators().to_bits()
        );
    }

    #[test]
    fn packed_zero_samples_clamped_to_one() {
        let inst = instance(8);
        let mech = ApprovalThreshold::new(1);
        let run = |samples| {
            Engine::new(1)
                .with_packed_tally(samples)
                .estimate_gain(&inst, &mech, 4)
                .unwrap()
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero.trials(), 4);
        assert_eq!(zero.p_mechanism().to_bits(), one.p_mechanism().to_bits());
    }

    #[test]
    fn default_kernel_is_exact() {
        // Under direct voting every draw's exact probability is P^D, so
        // only the exact kernel reads a zero gain; one packed sample per
        // draw scores each of the 4 draws as 0 or 1.
        let inst = instance(8);
        let exact = Engine::new(1)
            .estimate_gain(&inst, &DirectVoting, 4)
            .unwrap();
        assert!(exact.gain().abs() < 1e-12, "gain {}", exact.gain());
        let sampled = Engine::new(1)
            .with_packed_tally(1)
            .estimate_gain(&inst, &DirectVoting, 4)
            .unwrap();
        let quarters = sampled.p_mechanism() * 4.0;
        assert!((quarters - quarters.round()).abs() < 1e-9, "{quarters}");
    }

    #[test]
    fn reseeded_engines_are_independent() {
        let e = Engine::new(9);
        assert_ne!(e.reseeded(1).seed(), e.reseeded(2).seed());
        assert_ne!(e.reseeded(1).seed(), e.seed());
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let engine = Engine::new(1).with_workers(0);
        assert_eq!(engine.workers(), 1);
        let inst = instance(8);
        let est = engine.estimate_gain(&inst, &DirectVoting, 4).unwrap();
        assert_eq!(est.trials(), 4);
    }

    struct Bomb;
    impl ld_core::mechanisms::Mechanism for Bomb {
        fn act(
            &self,
            _instance: &ProblemInstance,
            _voter: usize,
            _rng: &mut dyn ld_prob::rng::RngCore,
        ) -> ld_core::delegation::Action {
            panic!("bomb went off")
        }
        fn name(&self) -> String {
            "bomb".to_string()
        }
    }

    #[test]
    fn panicking_mechanism_surfaces_as_error_in_parallel_path() {
        let inst = instance(8);
        // 8 trials fill one chunk, so the clamp leaves no helper threads;
        // 64 trials run on the caller and a real helper. Both report the
        // panic as a typed error.
        for trials in [8, 64] {
            let err = Engine::new(1)
                .with_workers(4)
                .estimate_gain(&inst, &Bomb, trials)
                .unwrap_err();
            assert!(
                matches!(err, crate::SimError::WorkerPanic { ref message } if message.contains("bomb")),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bomb went off")]
    fn a_single_worker_panic_reaches_the_caller() {
        let _ = Engine::new(1)
            .with_workers(1)
            .estimate_gain(&instance(8), &Bomb, 64);
    }

    /// Votes directly, but the first `act` on each OS thread waits (up to
    /// a timeout) until `parties` distinct threads have called it — so
    /// the run fails fast rather than hanging if workers never overlap.
    struct Rendezvous {
        parties: usize,
        seen: Mutex<Vec<std::thread::ThreadId>>,
        arrived: std::sync::Condvar,
    }

    impl ld_core::mechanisms::Mechanism for Rendezvous {
        fn act(
            &self,
            _instance: &ProblemInstance,
            _voter: usize,
            _rng: &mut dyn ld_prob::rng::RngCore,
        ) -> ld_core::delegation::Action {
            let me = std::thread::current().id();
            let mut seen = lock(&self.seen);
            if !seen.contains(&me) {
                seen.push(me);
                self.arrived.notify_all();
                let timeout = std::time::Duration::from_secs(20);
                let _ = self
                    .arrived
                    .wait_timeout_while(seen, timeout, |s| s.len() < self.parties);
            }
            ld_core::delegation::Action::Vote
        }
        fn name(&self) -> String {
            "rendezvous".to_string()
        }
    }

    #[test]
    fn parallel_workers_run_on_distinct_os_threads() {
        let mechanism = Rendezvous {
            parties: 2,
            seen: Mutex::new(Vec::new()),
            arrived: std::sync::Condvar::new(),
        };
        let inst = instance(8);
        let est = Engine::new(5)
            .with_workers(2)
            .estimate_gain(&inst, &mechanism, 64)
            .unwrap();
        assert_eq!(est.trials(), 64);
        let threads = lock(&mechanism.seen).len();
        assert!(threads >= 2, "2 workers ran on {threads} OS thread(s)");
    }

    #[test]
    fn cyclic_mechanism_errors_are_propagated_not_panicked() {
        // Failure injection: a (non-approval) mechanism that wires voters
        // into a ring. The engine must surface CyclicDelegation as an
        // error from both the sequential and parallel paths.
        struct Ring;
        impl ld_core::mechanisms::Mechanism for Ring {
            fn act(
                &self,
                instance: &ProblemInstance,
                voter: usize,
                _rng: &mut dyn ld_prob::rng::RngCore,
            ) -> ld_core::delegation::Action {
                ld_core::delegation::Action::Delegate((voter + 1) % instance.n())
            }
            fn name(&self) -> String {
                "ring".to_string()
            }
        }
        let inst = instance(8);
        for workers in [1usize, 4] {
            let engine = Engine::new(1).with_workers(workers);
            let err = engine.estimate_gain(&inst, &Ring, 4).unwrap_err();
            assert!(
                err.to_string().contains("cycle"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn zero_trials_yields_empty_estimate() {
        let inst = instance(8);
        let est = Engine::new(1)
            .with_workers(2)
            .estimate_gain(&inst, &DirectVoting, 0)
            .unwrap();
        assert_eq!(est.trials(), 0);
        assert!(est.p_direct() > 0.0);
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let inst = instance(8);
        let est = Engine::new(3)
            .with_workers(16)
            .estimate_gain(&inst, &DirectVoting, 2)
            .unwrap();
        assert_eq!(est.trials(), 2);
    }

    #[test]
    fn trials_spanning_many_chunks_are_all_run_exactly_once() {
        // 50 trials = chunks of 16, 16, 16, 2: the count and the mean must
        // both come out exact (a double-claimed or dropped chunk would show
        // up in either).
        let inst = instance(16);
        let est = Engine::new(11)
            .with_workers(3)
            .estimate_gain(&inst, &DirectVoting, 50)
            .unwrap();
        assert_eq!(est.trials(), 50);
        assert!(est.gain().abs() < 1e-12);
    }
}
