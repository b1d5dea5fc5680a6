//! `ld-testkit` — the conformance authority for the liquid-democracy
//! workspace.
//!
//! The optimised implementations across `ld-core`, `ld-prob` and
//! `ld-live` are validated here against deliberately naive reference
//! oracles and metamorphic properties:
//!
//! * [`oracle`] — a recursive `O(n²)` resolver, brute-force exact
//!   tallies over all outcome vectors, and a direct-simulation
//!   estimator; slow, obvious, and trusted.
//! * [`gen`] — a seeded structured generator sweeping the grid of
//!   topology × competency profile × mechanism × size, with per-cell
//!   seeds that are independent of the grid's composition.
//! * [`checks`] — the differential and metamorphic checks themselves
//!   (resolver vs oracle, tally vs brute force, live replay vs
//!   from-scratch, normal approximation within the Berry–Esseen
//!   envelope, relabeling equivariance, conservation, monotonicity,
//!   mechanism locality).
//! * [`shrink`] — greedy structural shrinking so every mismatch is
//!   reported as a minimal failing instance.
//! * [`corpus`] — a checked-in regression-seed corpus replayed on every
//!   run.
//! * [`json`] — the workspace's JSON reader and writer (the corpus is
//!   read with it; reports and result tables are written with it).
//!
//! The `repro conformance` subcommand in `ld-sim` drives
//! [`run_conformance`] and turns the resulting
//! [`report::ConformanceReport`] into a CI gate. Each [`Mutation`] is a
//! deliberate bug that names the checks that must catch it
//! ([`Mutation::caught_by`]); the `teeth` integration test injects every
//! mutant and fails unless each of its checks reports a mismatch, and
//! `--mutate <id>` replays a mutant from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod corpus;
pub mod gen;
pub mod json;
pub mod oracle;
pub mod report;
pub mod shrink;

use checks::{CheckId, CheckOutcome};
use gen::{default_grid, CellSpec};
use report::{ConformanceReport, Mismatch, ShrunkInstance};

/// A deliberate bug injected into the implementation under test. Each
/// mutant names the checks that must catch it ([`Mutation::caught_by`]);
/// the `teeth` integration test runs every mutant against exactly those
/// checks and fails unless each one reports a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Invert the tie-break credit in the exact tally: exact ties are
    /// credited `1 − credit` instead of `credit`.
    TieFlip,
    /// Misplace votes in the CSR forest's weight array: every sink but
    /// the last voter hands one vote to the next voter
    /// (`CsrForest::skew_weights_for_tests`).
    CsrOffset,
    /// Skip the frame CRC32 comparison when scanning the write-ahead
    /// log, so corrupted records decode "successfully" (a testkit-local
    /// scanner that trusts frame lengths).
    WalCrc,
    /// Withhold one delegating voter's last delegation from the
    /// `ld-serve` election, as if ingest lost it.
    ServeDrop,
    /// Start the packed coin kernel's bit-plane threshold comparison one
    /// plane late, skipping the most significant quantized-probability
    /// bit (`PackedCompetence::skew_threshold_for_tests`).
    PackedThreshold,
    /// Scan best-response candidate targets in descending index order,
    /// so exact score ties resolve to the highest-index target instead
    /// of the canonical lowest (`TieBreakRule::SkewedForTests`).
    BrTiebreak,
    /// Reverse every ranked preference list before the delegation rules
    /// consult it, so selections ignore the submitted rank order
    /// (`RankedProfile::reverse_ranks_for_tests`).
    RankOrder,
}

impl Mutation {
    /// Every known mutation.
    pub fn all() -> [Mutation; 7] {
        [
            Mutation::TieFlip,
            Mutation::CsrOffset,
            Mutation::WalCrc,
            Mutation::ServeDrop,
            Mutation::PackedThreshold,
            Mutation::BrTiebreak,
            Mutation::RankOrder,
        ]
    }

    /// The checks that must each report a mismatch when this mutant is
    /// injected. No wildcard arm: a new mutant does not compile until it
    /// names its checks.
    pub fn caught_by(self) -> &'static [CheckId] {
        match self {
            Mutation::TieFlip => &[CheckId::TallyOracle, CheckId::TallySimulation],
            Mutation::CsrOffset => &[
                CheckId::ResolveOracle,
                CheckId::CsrTallyOracle,
                CheckId::PackedTallyOracle,
            ],
            Mutation::WalCrc => &[CheckId::WalCrashOracle],
            Mutation::ServeDrop => &[CheckId::ServeReplay],
            Mutation::PackedThreshold => &[CheckId::PackedTallyOracle],
            Mutation::BrTiebreak => &[CheckId::DynamicsOracle],
            Mutation::RankOrder => &[CheckId::RankedResolveOracle],
        }
    }

    /// Stable identifier, as accepted by `--mutate`.
    pub fn id(self) -> &'static str {
        match self {
            Mutation::TieFlip => "tie-flip",
            Mutation::CsrOffset => "csr-offset",
            Mutation::WalCrc => "wal-crc",
            Mutation::ServeDrop => "serve-drop",
            Mutation::PackedThreshold => "packed-threshold",
            Mutation::BrTiebreak => "br-tiebreak",
            Mutation::RankOrder => "rank-order",
        }
    }

    /// Parses a mutation identifier.
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::all().into_iter().find(|m| m.id() == s)
    }
}

/// Configuration for one conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Use the reduced quick grid (the CI gate).
    pub quick: bool,
    /// Run only the checks in this comma-separated id list.
    pub only: Option<String>,
    /// Run only cells whose id contains this substring.
    pub case_filter: Option<String>,
    /// Injected mutation, if any.
    pub mutation: Option<Mutation>,
    /// Replay the checked-in regression corpus.
    pub include_corpus: bool,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            seed: 0x7E57_0C0D,
            quick: false,
            only: None,
            case_filter: None,
            mutation: None,
            include_corpus: true,
        }
    }
}

impl ConformanceConfig {
    /// The check filter, parsed from a comma-separated id list; `Err`
    /// carries the first unknown id.
    fn only_check(&self) -> Result<Option<Vec<CheckId>>, String> {
        match &self.only {
            None => Ok(None),
            Some(s) => {
                let list = s
                    .split(',')
                    .map(str::trim)
                    .filter(|part| !part.is_empty())
                    .map(|part| {
                        CheckId::parse(part).ok_or_else(|| format!("unknown check id {part:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() {
                    return Err(format!("empty check id list {s:?}"));
                }
                Ok(Some(list))
            }
        }
    }

    /// The reproduction command for a mismatch of `check` (a check id)
    /// on `cell` under this config.
    pub fn repro_command(&self, cell: &str, check: &str, seed: u64) -> String {
        let mut cmd = format!("repro conformance --seed {seed} --case {cell} --only {check}");
        if let Some(m) = self.mutation {
            cmd.push_str(&format!(" --mutate {}", m.id()));
        }
        cmd
    }
}

/// Runs the conformance suite: the default grid under the master seed,
/// plus every regression-corpus entry, shrinking each mismatch to a
/// minimal failing instance.
pub fn run_conformance(cfg: &ConformanceConfig) -> ConformanceReport {
    let mut rep = ConformanceReport {
        master_seed: cfg.seed,
        quick: cfg.quick,
        mutation: cfg.mutation.map(|m| m.id().to_string()),
        cells: 0,
        checks_run: 0,
        checks_skipped: 0,
        corpus_entries: 0,
        mismatches: Vec::new(),
    };
    let only = match cfg.only_check() {
        Ok(o) => o,
        Err(e) => {
            rep.mismatches.push(Mismatch {
                check: "config".to_string(),
                cell: String::new(),
                seed: cfg.seed,
                detail: e,
                shrunk: None,
                repro: "repro conformance --help".to_string(),
            });
            return rep;
        }
    };
    let grid = default_grid(cfg.quick);
    for spec in &grid {
        run_cell(spec, cfg.seed, cfg, only.as_deref(), &mut rep);
    }
    if cfg.include_corpus {
        match corpus::entries() {
            Ok(entries) => {
                for entry in entries {
                    let mut replayed = 0usize;
                    for spec in grid.iter().filter(|s| s.id().contains(&entry.cell)) {
                        run_cell(spec, entry.seed, cfg, only.as_deref(), &mut rep);
                        replayed += 1;
                    }
                    rep.corpus_entries += 1;
                    if replayed == 0 {
                        rep.mismatches.push(Mismatch {
                            check: "corpus".to_string(),
                            cell: entry.cell.clone(),
                            seed: entry.seed,
                            detail: format!(
                                "corpus entry matches no grid cell ({}); fix the cell id",
                                entry.note
                            ),
                            shrunk: None,
                            repro: "repro conformance".to_string(),
                        });
                    }
                }
            }
            Err(e) => rep.mismatches.push(Mismatch {
                check: "corpus".to_string(),
                cell: String::new(),
                seed: cfg.seed,
                detail: e,
                shrunk: None,
                repro: "repro conformance".to_string(),
            }),
        }
    }
    rep
}

/// Runs every applicable check on one grid cell under `master`.
fn run_cell(
    spec: &CellSpec,
    master: u64,
    cfg: &ConformanceConfig,
    only: Option<&[CheckId]>,
    rep: &mut ConformanceReport,
) {
    let cell_id = spec.id();
    if let Some(filter) = &cfg.case_filter {
        if !cell_id.contains(filter.as_str()) {
            return;
        }
    }
    let case = match spec.build(master) {
        Ok(c) => c,
        Err(e) => {
            rep.mismatches.push(Mismatch {
                check: "generation".to_string(),
                cell: cell_id,
                seed: master,
                detail: format!("cell failed to generate: {e}"),
                shrunk: None,
                repro: format!("repro conformance --seed {master} --case {}", spec.id()),
            });
            return;
        }
    };
    rep.cells += 1;
    ld_obs::counter("testkit.instances").incr();
    for check in CheckId::all() {
        if let Some(list) = only {
            if !list.contains(&check) {
                continue;
            }
        }
        let _check_span = ld_obs::span(&format!("testkit.check.{}_ns", check.id()));
        match checks::run_check(check, &case, cfg.mutation) {
            CheckOutcome::Pass => rep.checks_run += 1,
            CheckOutcome::Skip(_) => rep.checks_skipped += 1,
            CheckOutcome::Fail(detail) => {
                rep.checks_run += 1;
                let shrunk = shrink::shrink_failure(
                    check,
                    case.dg.actions(),
                    case.instance.profile().as_slice(),
                    case.seed,
                    cfg.mutation,
                )
                .map(|s| ShrunkInstance::from_parts(&s.actions, &s.ps, s.detail));
                rep.mismatches.push(Mismatch {
                    check: check.id().to_string(),
                    cell: cell_id.clone(),
                    seed: master,
                    detail,
                    shrunk,
                    repro: cfg.repro_command(&cell_id, check.id(), master),
                });
            }
        }
    }
}
