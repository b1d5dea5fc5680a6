//! Strategic re-delegation dynamics over the topology grid — the
//! `repro dynamics` workload.
//!
//! [`ld_live::dynamics`] owns the deterministic round loop; this module
//! supplies everything around it: the seeded grid of (topology × size)
//! cells, the one-shot mechanism that produces each cell's initial
//! delegation state, a **parallel** per-round proposal evaluator that is
//! bit-identical to the serial reference for every worker count, the
//! exact decision probability of each honest trajectory's final state,
//! an optional `ld-store` WAL tee recording the full round stream
//! (`--wal DIR`), and the adversarial coalition sweep where `k` seeded
//! manipulators re-delegate toward low-variance sinks each round.
//!
//! Every number here is a pure function of `(config seed, cell id)`:
//! cell seeds are FNV-split exactly like the conformance grid's, and the
//! round loop consumes no randomness at all. The suite-level
//! [`DynamicsReport::grid_digest`] folds every trajectory digest and is
//! pinned by `tests/proptest_dynamics.rs` across worker counts.

use crate::error::{Result, SimError};
use crate::table::Table;
use ld_core::delegation::Action;
use ld_core::mechanisms::{ApprovalThreshold, Mechanism};
use ld_core::tally::TieBreak;
use ld_core::{CompetencyProfile, ProblemInstance};
use ld_graph::{generators, Graph};
use ld_live::dynamics::{
    run_dynamics_with, DynamicsSpec, DynamicsView, Fnv, MoveRule, RoundSnapshot, Termination,
    TieBreakRule, Trajectory,
};
use ld_live::{LiveEngine, Update};
use ld_prob::rng::{split_seed, stream_rng};
use ld_store::{recover, FaultPlan, Store, StoreOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The approval margin used throughout the dynamics grid (matches the
/// conformance grid's).
pub const ALPHA: f64 = 0.05;

/// Voters per parallel proposal chunk: proposals are `O(deg)` each, so
/// chunks are larger than the trial engine's.
const VOTER_CHUNK: usize = 64;

/// One proposal chunk's moves, keyed by chunk index.
type ChunkMoves = (usize, Vec<(usize, Action)>);

fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv::new();
    for b in s.bytes() {
        h.byte(b);
    }
    h.finish()
}

/// A topology family in the dynamics grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynTopology {
    /// Complete graph.
    Complete,
    /// Random `d`-regular graph.
    Regular(usize),
    /// Barabási–Albert preferential attachment, `m` edges per arrival.
    Barabasi(usize),
    /// Watts–Strogatz ring, `k` nearest neighbours rewired with
    /// probability `beta`.
    WattsStrogatz(usize, f64),
}

impl DynTopology {
    /// Stable identifier (part of the cell id, so part of the seed).
    pub fn id(self) -> String {
        match self {
            DynTopology::Complete => "complete".to_string(),
            DynTopology::Regular(d) => format!("regular{d}"),
            DynTopology::Barabasi(m) => format!("ba{m}"),
            DynTopology::WattsStrogatz(k, _) => format!("ws{k}"),
        }
    }

    /// Builds the graph for `n` voters from the given stream.
    fn build(self, n: usize, rng: &mut ld_prob::rng::StdRng) -> std::result::Result<Graph, String> {
        match self {
            DynTopology::Complete => Ok(generators::complete(n)),
            DynTopology::Regular(d) => {
                generators::random_regular(n, d, rng).map_err(|e| e.to_string())
            }
            DynTopology::Barabasi(m) => {
                generators::barabasi_albert(n, m, rng).map_err(|e| e.to_string())
            }
            DynTopology::WattsStrogatz(k, beta) => {
                generators::watts_strogatz(n, k, beta, rng).map_err(|e| e.to_string())
            }
        }
    }
}

/// One grid cell: a topology at a size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynCell {
    /// The topology family.
    pub topology: DynTopology,
    /// Number of voters.
    pub n: usize,
}

impl DynCell {
    /// Stable cell id, e.g. `ws6/n64`.
    pub fn id(&self) -> String {
        format!("{}/n{}", self.topology.id(), self.n)
    }
}

/// Configuration of one dynamics run.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Master seed; each cell derives its own stream via an FNV split
    /// of its id, so the grid's composition never shifts cell results.
    pub seed: u64,
    /// Parallel proposal workers (1 = the serial reference; the result
    /// is bit-identical either way).
    pub workers: usize,
    /// Reduced grid for CI.
    pub quick: bool,
    /// Round cap per trajectory.
    pub max_rounds: usize,
    /// Coalition sizes to sweep (`0` rows reuse the honest run).
    pub coalitions: Vec<usize>,
    /// Tee every round's accepted updates through an `ld-store` WAL
    /// under this directory (one store per trajectory) and verify
    /// recovery at the end.
    pub wal: Option<PathBuf>,
}

impl DynamicsConfig {
    /// The default full-grid configuration.
    pub fn new(seed: u64) -> Self {
        DynamicsConfig {
            seed,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            quick: false,
            max_rounds: 32,
            coalitions: vec![0, 1, 2, 4, 8],
            wal: None,
        }
    }

    /// The CI smoke configuration: small grid, 2 workers.
    pub fn quick(seed: u64) -> Self {
        DynamicsConfig {
            quick: true,
            workers: 2,
            coalitions: vec![0, 2, 4],
            ..Self::new(seed)
        }
    }
}

/// The seeded grid: every topology family at each size.
pub fn grid(quick: bool) -> Vec<DynCell> {
    let sizes: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 128] };
    let topologies = [
        DynTopology::Complete,
        DynTopology::Regular(6),
        DynTopology::Barabasi(4),
        DynTopology::WattsStrogatz(6, 0.1),
    ];
    let mut cells = Vec::new();
    for &topology in &topologies {
        for &n in sizes {
            cells.push(DynCell { topology, n });
        }
    }
    cells
}

/// A generated cell, ready to iterate.
pub struct PreparedCell {
    /// Cell id.
    pub id: String,
    /// The cell's seed (an FNV split of the master by the id).
    pub seed: u64,
    /// The underlying instance (graph + profile + α).
    pub instance: ProblemInstance,
    /// The dynamics view of the same instance.
    pub view: DynamicsView,
    /// Initial action state: one draw of the one-shot
    /// `ApprovalThreshold(1)` mechanism.
    pub initial: Vec<Action>,
}

/// Builds a cell under the master seed: graph from stream 0, the
/// one-shot mechanism draw from stream 1.
///
/// # Errors
///
/// [`SimError::Config`] for ungeneratable cells (e.g. a regular degree
/// at an odd product).
pub fn prepare_cell(cell: &DynCell, master: u64) -> Result<PreparedCell> {
    let id = cell.id();
    let seed = split_seed(master, fnv1a(&id));
    let mut graph_rng = stream_rng(seed, 0);
    let graph = cell
        .topology
        .build(cell.n, &mut graph_rng)
        .map_err(|reason| SimError::Config {
            reason: format!("cell {id}: {reason}"),
        })?;
    let profile = CompetencyProfile::linear(cell.n, 0.35, 0.7).map_err(|e| SimError::Config {
        reason: format!("cell {id}: {e}"),
    })?;
    let neighbors = (0..cell.n).map(|i| graph.neighbors(i).collect()).collect();
    let instance = ProblemInstance::new(graph, profile, ALPHA).map_err(|e| SimError::Config {
        reason: format!("cell {id}: {e}"),
    })?;
    let view = DynamicsView::new(instance.profile().as_slice().to_vec(), neighbors, ALPHA)
        .map_err(|reason| SimError::Config {
            reason: format!("cell {id}: {reason}"),
        })?;
    let mut mech_rng = stream_rng(seed, 1);
    let initial = ApprovalThreshold::new(1)
        .run(&instance, &mut mech_rng)
        .actions()
        .to_vec();
    Ok(PreparedCell {
        id,
        seed,
        instance,
        view,
        initial,
    })
}

/// Evaluates one round's proposals in parallel: voters are split into
/// chunks of `VOTER_CHUNK` voters claimed from an atomic counter, each
/// chunk runs the same pure [`ld_live::dynamics::best_move`] the serial
/// reference runs, and the per-chunk results are concatenated in
/// canonical chunk order — so the output is bit-identical to
/// [`ld_live::dynamics::propose_moves`] for every worker count and
/// interleaving.
pub fn propose_parallel(
    view: &DynamicsView,
    snap: &RoundSnapshot,
    rules: &[MoveRule],
    tiebreak: TieBreakRule,
    workers: usize,
) -> Vec<(usize, Action)> {
    let n = view.n();
    let chunks = n.div_ceil(VOTER_CHUNK);
    let threads = workers.min(chunks).max(1);
    if threads == 1 {
        return ld_live::dynamics::propose_moves(view, snap, rules, tiebreak);
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<ChunkMoves>> = Mutex::new(Vec::with_capacity(chunks));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    return;
                }
                let lo = c * VOTER_CHUNK;
                let hi = (lo + VOTER_CHUNK).min(n);
                let moves: Vec<(usize, Action)> = (lo..hi)
                    .filter_map(|i| {
                        ld_live::dynamics::best_move(view, snap, i, rules[i], tiebreak)
                            .map(|a| (i, a))
                    })
                    .collect();
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((c, moves));
            });
        }
    });
    let mut parts = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    parts.sort_by_key(|&(c, _)| c);
    parts.into_iter().flat_map(|(_, m)| m).collect()
}

/// How one trajectory ended, as a table-friendly label.
pub fn termination_label(t: Termination) -> String {
    match t {
        Termination::Fixpoint { round } => format!("fixpoint@{round}"),
        Termination::Cycle { first_seen, period } => format!("cycle({first_seen},{period})"),
        Termination::Capped => "capped".to_string(),
    }
}

/// Outcome of one honest (all best-response) trajectory.
#[derive(Debug)]
pub struct CellOutcome {
    /// Cell id.
    pub cell: String,
    /// Executed rounds.
    pub rounds: usize,
    /// Why the loop stopped.
    pub termination: Termination,
    /// Exact direct-voting probability of the instance.
    pub p_direct: f64,
    /// Decision probability (normal) of the one-shot initial state.
    pub p_oneshot: f64,
    /// Decision probability (normal) at the end of the trajectory.
    pub p_final: f64,
    /// Exact decision probability (weighted Poisson-binomial, ties
    /// incorrect) of the final state; the initial state's if no round
    /// executed.
    pub kernel_p_final: f64,
    /// Trajectory digest (see [`ld_live::dynamics::Trajectory::digest`]).
    pub digest: u64,
    /// WAL records written, when the tee is on.
    pub wal_records: Option<u64>,
}

/// Outcome of one coalition trajectory.
#[derive(Debug)]
pub struct CoalitionOutcome {
    /// Cell id.
    pub cell: String,
    /// Manipulator count.
    pub k: usize,
    /// Executed rounds.
    pub rounds: usize,
    /// Why the loop stopped.
    pub termination: Termination,
    /// Final tally variance `σ² = Σ wₛ² pₛ(1−pₛ)`.
    pub sigma2_final: f64,
    /// Final decision probability (normal).
    pub p_final: f64,
    /// Trajectory digest.
    pub digest: u64,
}

/// The whole suite's result.
#[derive(Debug)]
pub struct DynamicsReport {
    /// One honest outcome per grid cell, in grid order.
    pub outcomes: Vec<CellOutcome>,
    /// The coalition sweep, in (grid, k) order.
    pub coalition: Vec<CoalitionOutcome>,
    /// Cells that reached a fixpoint.
    pub converged: usize,
    /// Cells that entered a limit cycle.
    pub cycled: usize,
    /// Cells that hit the round cap.
    pub capped: usize,
    /// FNV fold of every trajectory digest (honest and coalition), in
    /// canonical order — the determinism fingerprint of the whole run.
    pub grid_digest: u64,
    /// Rendered tables.
    pub tables: Vec<Table>,
}

/// The WAL tee: one store per trajectory, every accepted move appended
/// as an [`Update`] in canonical order, recovery verified at the end.
struct WalTee {
    store: Store,
    dir: PathBuf,
    records: u64,
}

impl WalTee {
    fn create(dir: &Path, genesis: &LiveEngine) -> std::result::Result<Self, String> {
        let opts = StoreOptions {
            sync_every: 64,
            snapshot_every: 256,
            fault: FaultPlan::none(),
        };
        let store = Store::create(dir, genesis, opts).map_err(|e| format!("wal create: {e}"))?;
        Ok(WalTee {
            store,
            dir: dir.to_path_buf(),
            records: 0,
        })
    }

    fn append_round(
        &mut self,
        engine: &LiveEngine,
        moves: &[(usize, Action, bool)],
    ) -> std::result::Result<(), String> {
        for &(voter, ref action, accepted) in moves {
            if !accepted {
                continue;
            }
            let u = match *action {
                Action::Vote => Update::Vote { voter },
                Action::Delegate(target) => Update::Delegate { voter, target },
                _ => continue,
            };
            self.store
                .append(&u)
                .map_err(|e| format!("wal append: {e}"))?;
            self.records += 1;
        }
        self.store
            .maybe_compact(engine)
            .map(|_| ())
            .map_err(|e| format!("wal compact: {e}"))
    }

    /// Final fsync + recovery proof: the rehydrated engine must land on
    /// the trajectory's final resolution bit-for-bit.
    fn finish(mut self, expected: &LiveEngine) -> std::result::Result<u64, String> {
        self.store.sync().map_err(|e| format!("wal sync: {e}"))?;
        let rec = recover(&self.dir).map_err(|e| format!("wal recover: {e}"))?;
        if rec.engine.actions() != expected.actions()
            || rec.engine.resolution() != expected.resolution()
        {
            return Err(format!(
                "WAL recovery diverged from the live trajectory in {}",
                self.dir.display()
            ));
        }
        Ok(self.records)
    }
}

/// Runs one trajectory: parallel proposals and the optional WAL tee,
/// whose store for this run lives under `wal_tag`'s subdirectory.
fn run_trajectory(
    cfg: &DynamicsConfig,
    cell: &PreparedCell,
    rules: &[MoveRule],
    wal_tag: &str,
) -> Result<(Trajectory, Option<u64>)> {
    let spec = DynamicsSpec {
        max_rounds: cfg.max_rounds,
        tiebreak: TieBreakRule::Canonical,
    };
    let mut wal = match &cfg.wal {
        None => None,
        Some(base) => {
            let genesis = LiveEngine::new(
                cell.initial.clone(),
                cell.instance.profile().as_slice().to_vec(),
            )
            .map_err(|e| SimError::Config {
                reason: format!("cell {}: genesis engine: {e}", cell.id),
            })?;
            let dir = base.join(format!("{}-{wal_tag}", cell.id.replace('/', "_")));
            std::fs::remove_dir_all(&dir).ok();
            Some(
                WalTee::create(&dir, &genesis).map_err(|reason| SimError::Config {
                    reason: format!("cell {}: {reason}", cell.id),
                })?,
            )
        }
    };

    let workers = cfg.workers;
    let mut wal_err: Option<String> = None;
    let traj = run_dynamics_with(
        &cell.view,
        &cell.initial,
        rules,
        &spec,
        |view, snap, rules, tiebreak| propose_parallel(view, snap, rules, tiebreak, workers),
        |engine, _, moves| {
            if let Some(tee) = wal.as_mut() {
                // Record but keep iterating on a WAL failure: the
                // trajectory itself is not durable-dependent.
                if let Err(e) = tee.append_round(engine, moves) {
                    wal_err.get_or_insert(e);
                }
            }
            Ok(())
        },
    )
    .map_err(|reason| SimError::Config {
        reason: format!("cell {}: {reason}", cell.id),
    })?;
    if let Some(reason) = wal_err {
        return Err(SimError::Config {
            reason: format!("cell {}: {reason}", cell.id),
        });
    }
    let wal_records = match wal {
        None => None,
        Some(tee) => Some(
            tee.finish(&traj.engine)
                .map_err(|reason| SimError::Config {
                    reason: format!("cell {}: {reason}", cell.id),
                })?,
        ),
    };
    Ok((traj, wal_records))
}

/// Picks `k` distinct manipulators from the cell's voter set, seeded by
/// the cell (stream 3): a partial Fisher–Yates over the identity
/// permutation.
pub fn coalition_members(n: usize, k: usize, cell_seed: u64) -> Vec<usize> {
    use ld_prob::rng::Rng;
    let mut rng = stream_rng(cell_seed, 3);
    let mut ids: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    let mut chosen = ids[..k].to_vec();
    chosen.sort_unstable();
    chosen
}

/// Runs the full dynamics suite under `cfg`.
///
/// # Errors
///
/// [`SimError::Config`] on ungeneratable cells, a failed exact tally,
/// or a WAL tee that fails to recover bit-identically.
pub fn run_dynamics(cfg: &DynamicsConfig) -> Result<DynamicsReport> {
    let _span = ld_obs::span("dynamics.run_ns");
    let cells = grid(cfg.quick);
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut coalition = Vec::new();
    let mut digest = Fnv::new();

    for cell in &cells {
        let prepared = prepare_cell(cell, cfg.seed)?;
        let n = prepared.view.n();
        let honest_rules = vec![MoveRule::BestResponse; n];
        let (traj, wal_records) = run_trajectory(cfg, &prepared, &honest_rules, "honest")?;
        let kernel_p = traj
            .engine
            .decision_probability_exact(TieBreak::Incorrect)
            .map_err(|e| SimError::Config {
                reason: format!("cell {}: exact tally: {e}", prepared.id),
            })?;
        let p_oneshot =
            RoundSnapshot::from_parts(&prepared.initial, prepared.instance.profile().as_slice())
                .map_err(|reason| SimError::Config {
                    reason: format!("cell {}: {reason}", prepared.id),
                })?
                .decision_probability();
        let final_snap = RoundSnapshot::from_engine(&traj.engine);
        let p_direct =
            prepared
                .instance
                .direct_voting_probability()
                .map_err(|e| SimError::Config {
                    reason: format!("cell {}: {e}", prepared.id),
                })?;
        for b in prepared.id.bytes() {
            digest.byte(b);
        }
        digest.u64(traj.digest);
        ld_obs::counter("dynamics.cells").incr();
        ld_obs::histogram("dynamics.rounds").record(traj.rounds.len() as u64);
        let honest_sigma2 = final_snap.var;
        let honest_p = final_snap.decision_probability();
        outcomes.push(CellOutcome {
            cell: prepared.id.clone(),
            rounds: traj.rounds.len(),
            termination: traj.termination,
            p_direct,
            p_oneshot,
            p_final: honest_p,
            kernel_p_final: kernel_p,
            digest: traj.digest,
            wal_records,
        });

        for &k in &cfg.coalitions {
            if k == 0 {
                coalition.push(CoalitionOutcome {
                    cell: prepared.id.clone(),
                    k: 0,
                    rounds: traj.rounds.len(),
                    termination: traj.termination,
                    sigma2_final: honest_sigma2,
                    p_final: honest_p,
                    digest: traj.digest,
                });
                continue;
            }
            let members = coalition_members(n, k, prepared.seed);
            let mut rules = vec![MoveRule::BestResponse; n];
            for &m in &members {
                rules[m] = MoveRule::VarianceSeeking;
            }
            let (ctraj, _) = run_trajectory(cfg, &prepared, &rules, &format!("k{k}"))?;
            let csnap = RoundSnapshot::from_engine(&ctraj.engine);
            digest.u64(k as u64);
            digest.u64(ctraj.digest);
            coalition.push(CoalitionOutcome {
                cell: prepared.id.clone(),
                k,
                rounds: ctraj.rounds.len(),
                termination: ctraj.termination,
                sigma2_final: csnap.var,
                p_final: csnap.decision_probability(),
                digest: ctraj.digest,
            });
        }
    }

    let converged = outcomes
        .iter()
        .filter(|o| matches!(o.termination, Termination::Fixpoint { .. }))
        .count();
    let cycled = outcomes
        .iter()
        .filter(|o| matches!(o.termination, Termination::Cycle { .. }))
        .count();
    let capped = outcomes.len() - converged - cycled;

    let mut convergence = Table::new(
        "best-response dynamics: convergence over the topology grid",
        &[
            "cell",
            "rounds",
            "termination",
            "P_direct",
            "P_oneshot",
            "P_final",
            "kernel_P",
            "digest",
        ],
    );
    for o in &outcomes {
        convergence.push([
            o.cell.as_str().into(),
            o.rounds.into(),
            termination_label(o.termination).into(),
            o.p_direct.into(),
            o.p_oneshot.into(),
            o.p_final.into(),
            o.kernel_p_final.into(),
            format!("{:016x}", o.digest).into(),
        ]);
    }
    convergence.set_note(format!(
        "{converged} fixpoints, {cycled} cycles, {capped} capped over {} cells; \
         gain-at-fixpoint = P_final − P_oneshot",
        outcomes.len()
    ));

    let mut shift = Table::new(
        "coalition manipulation: variance and decision shift vs k",
        &[
            "cell",
            "k",
            "rounds",
            "termination",
            "sigma2",
            "dSigma2",
            "P_final",
            "dP",
        ],
    );
    for c in &coalition {
        let base = coalition
            .iter()
            .find(|b| b.cell == c.cell && b.k == 0)
            .expect("k=0 row exists for every cell");
        shift.push([
            c.cell.as_str().into(),
            c.k.into(),
            c.rounds.into(),
            termination_label(c.termination).into(),
            c.sigma2_final.into(),
            (c.sigma2_final - base.sigma2_final).into(),
            c.p_final.into(),
            (c.p_final - base.p_final).into(),
        ]);
    }
    shift.set_note(
        "k seeded manipulators re-delegate toward low-variance sinks each round \
         (MoveRule::VarianceSeeking); deltas are vs the honest (k=0) fixpoint"
            .to_string(),
    );

    Ok(DynamicsReport {
        outcomes,
        coalition,
        converged,
        cycled,
        capped,
        grid_digest: digest.finish(),
        tables: vec![convergence, shift],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(workers: usize) -> DynamicsConfig {
        DynamicsConfig {
            workers,
            ..DynamicsConfig::quick(0x1DDE_C0DE)
        }
    }

    #[test]
    fn quick_grid_runs_and_summarises() {
        let rep = run_dynamics(&quick_cfg(2)).unwrap();
        assert_eq!(rep.outcomes.len(), grid(true).len());
        assert_eq!(rep.converged + rep.cycled + rep.capped, rep.outcomes.len());
        assert!(
            rep.converged > 0,
            "the seeded quick grid must converge somewhere"
        );
        assert_eq!(rep.tables.len(), 2);
        // Every cell has a k=0 coalition baseline.
        for o in &rep.outcomes {
            assert!(rep.coalition.iter().any(|c| c.cell == o.cell && c.k == 0));
        }
    }

    #[test]
    fn digest_is_worker_and_kernel_independent() {
        let base = run_dynamics(&quick_cfg(1)).unwrap().grid_digest;
        let wide = run_dynamics(&quick_cfg(8)).unwrap().grid_digest;
        assert_eq!(base, wide);
    }

    #[test]
    fn parallel_proposals_match_serial_reference() {
        let cell = grid(true)
            .into_iter()
            .find(|c| c.n == 32)
            .expect("quick grid has n=32 cells");
        let prepared = prepare_cell(&cell, 0xFEED).unwrap();
        let snap =
            RoundSnapshot::from_parts(&prepared.initial, prepared.instance.profile().as_slice())
                .unwrap();
        let rules = vec![MoveRule::BestResponse; prepared.view.n()];
        let serial = ld_live::dynamics::propose_moves(
            &prepared.view,
            &snap,
            &rules,
            TieBreakRule::Canonical,
        );
        for workers in [1, 2, 3, 7] {
            let par = propose_parallel(
                &prepared.view,
                &snap,
                &rules,
                TieBreakRule::Canonical,
                workers,
            );
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn coalition_members_are_seeded_and_distinct() {
        let a = coalition_members(32, 8, 42);
        let b = coalition_members(32, 8, 42);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        assert!(coalition_members(4, 9, 1).len() == 4, "k clamps to n");
    }

    #[test]
    fn wal_tee_records_and_recovers() {
        let base = std::env::temp_dir().join(format!("ld-sim-dynwal-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let cfg = DynamicsConfig {
            wal: Some(base.clone()),
            coalitions: vec![0],
            ..quick_cfg(1)
        };
        let rep = run_dynamics(&cfg).unwrap();
        // At least one cell moved, so at least one WAL has records; and
        // run_trajectory verified every recovery bit-for-bit.
        let total: u64 = rep.outcomes.iter().filter_map(|o| o.wal_records).sum();
        assert!(total > 0, "no rounds recorded anywhere");
        std::fs::remove_dir_all(&base).ok();
    }
}
