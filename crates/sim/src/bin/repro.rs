//! `repro` — regenerate the paper's figures, lemmas and theorems.
//!
//! ```text
//! repro --list                 # show all experiment ids
//! repro all                    # run everything at full scale
//! repro fig1 thm2              # run a subset
//! repro all --quick            # smaller sizes / fewer trials
//! repro all --seed 7 --json results.json
//! repro all --max-wall 3600    # budget: degrade gracefully after 1 h
//! repro stress --n 100000 --updates 1000000   # live-engine churn driver
//! repro stress --n 100000 --updates 1000000 --wal results/wal  # durable: tee through the WAL
//! repro stress ... --wal DIR --crash-at seeded # simulate kill -9 at a seeded I/O op
//! repro recover --dir results/wal --verify-full-replay  # rehydrate + bit-compare tally
//! repro store-bench            # snapshot+tail vs full-log replay (>=10x gate)
//! repro conformance --quick    # differential/metamorphic conformance gate
//! repro dynamics --quick       # best-response re-delegation to fixpoint/cycle
//! repro dynamics --kernel packed --wal results/dynwal  # stress kernels + WAL tee
//! repro serve-bench --quick    # election service: throughput + p50/p99 + oracle check
//! repro serve-bench --dir D --kill-at K  # commit an epoch, then die abruptly
//! repro serve-recover --dir D  # restart the killed service, verify the digest
//! repro serve --selftest       # host an election over the loopback wire codec
//! repro serve --socket PATH    # ... or over a Unix domain socket (SIGTERM drains)
//! repro perf-gate              # perfbench A/B against the base commit, same host
//! repro all --obs-summary      # append the ld-obs metrics table
//! ```
//!
//! Runs are fault tolerant and a pure function of `(seed, trials,
//! workers)`: each experiment runs once under panic isolation, and a
//! failure is quarantined with a repro line rather than aborting the run.
//! A run with a degraded experiment exits 1; one truncated only by
//! `--max-wall` exits 0.

use ld_sim::experiments::{self, ExperimentConfig};
use ld_sim::harness::{Harness, PointStatus, QuarantineEntry, RunBudget};
use ld_sim::report::{self, ExperimentResult};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    ids: Vec<String>,
    list: bool,
    quick: bool,
    seed: Option<u64>,
    workers: Option<usize>,
    json: Option<PathBuf>,
    csv_dir: Option<PathBuf>,
    max_wall: Option<f64>,
    fail_fast: bool,
    obs_summary: bool,
    obs_jsonl: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        list: false,
        quick: false,
        seed: None,
        workers: None,
        json: None,
        csv_dir: None,
        max_wall: None,
        fail_fast: false,
        obs_summary: false,
        obs_jsonl: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" | "-l" => args.list = true,
            "--quick" | "-q" => args.quick = true,
            "--seed" | "-s" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--workers" | "-w" => {
                let v = iter.next().ok_or("--workers needs a value")?;
                args.workers = Some(v.parse().map_err(|_| format!("bad worker count {v:?}"))?);
            }
            "--json" | "-j" => {
                let v = iter.next().ok_or("--json needs a path")?;
                args.json = Some(PathBuf::from(v));
            }
            "--csv-dir" => {
                let v = iter.next().ok_or("--csv-dir needs a directory")?;
                args.csv_dir = Some(PathBuf::from(v));
            }
            "--max-wall" => {
                let v = iter.next().ok_or("--max-wall needs seconds")?;
                args.max_wall = Some(v.parse().map_err(|_| format!("bad wall budget {v:?}"))?);
            }
            "--fail-fast" => args.fail_fast = true,
            "--obs-summary" => args.obs_summary = true,
            "--obs-jsonl" => {
                let v = iter.next().ok_or("--obs-jsonl needs a path")?;
                args.obs_jsonl = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--list] [--quick] [--seed N] [--workers N] [--json PATH] \
                     [--csv-dir DIR] [--max-wall SECS] [--fail-fast] \
                     [--obs-summary] [--obs-jsonl PATH] \
                     <id>... | all | verify | sweep ... | stress ... | recover ... \
                     | store-bench ... | conformance ... | dynamics ... \
                     | serve-bench ... | serve-recover ... | serve ... \
                     | perf-gate"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other => args.ids.push(other.to_string()),
        }
    }
    Ok(args)
}

const SWEEP_USAGE: &str = "usage: repro sweep --topology <complete|star|cycle|regular:d|bounded:k|\
     mindegree:k|ba:m|ws:k,beta|er:p> --mechanism <direct|algorithm1:j|\
     algorithm2:d,j|quarter|greedy|probabilistic:q|abstain:q|weighted:k|capped:w> \
     --profile <uniform:lo,hi|aroundhalf:a,spread|twopoint:lo,hi,frac|normal:m,sd> \
     --sizes n1,n2,... [--alpha A] [--trials N] [--max-wall SECS] \
     [--max-trials-per-point N] [--min-trials N] [--inject-panic N] \
     [--seed N] [--workers N] [--quick]";

/// A parsed `repro sweep` command line.
#[derive(Debug)]
struct SweepArgs {
    spec: ld_sim::sweep::SweepSpec,
    budget: RunBudget,
    inject_panic: Option<usize>,
    cfg: ExperimentConfig,
    /// The `repro` arguments that re-run this sweep, seed included: the
    /// quarantine entries' repro line.
    run_id: String,
}

/// Parses the arguments after `repro sweep`. Unknown flags, missing
/// values and values that do not parse are errors; beside the sweep's
/// own flags only the global `--seed`, `--workers` and `--quick` are
/// accepted.
fn parse_sweep_args(argv: &[String]) -> Result<SweepArgs, String> {
    use ld_sim::sweep::{MechanismSpec, SweepSpec, TopologySpec};
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    }
    let mut topology = None;
    let mut mechanism = None;
    let mut profile = None;
    let mut sizes = None;
    let mut alpha = 0.05f64;
    let mut trials = 48u64;
    let mut budget = RunBudget::default();
    let mut inject_panic = None;
    let mut cfg = ExperimentConfig::default();
    let mut run_id = String::from("sweep");
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        if flag == "--quick" {
            cfg.quick = true;
            continue;
        }
        let v = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--topology" => topology = Some(TopologySpec::parse(v).map_err(|e| e.to_string())?),
            "--mechanism" => {
                mechanism = Some(MechanismSpec::parse(v).map_err(|e| e.to_string())?);
            }
            "--profile" => profile = Some(SweepSpec::parse_profile(v).map_err(|e| e.to_string())?),
            "--sizes" => sizes = Some(SweepSpec::parse_sizes(v).map_err(|e| e.to_string())?),
            "--alpha" => alpha = num(flag, v)?,
            "--trials" => trials = num(flag, v)?,
            "--max-wall" => budget.max_wall_secs = Some(num(flag, v)?),
            "--max-trials-per-point" => budget.max_trials_per_point = Some(num(flag, v)?),
            "--min-trials" => budget.min_trials_for_report = num(flag, v)?,
            "--inject-panic" => inject_panic = Some(num(flag, v)?),
            "--seed" => {
                cfg.seed = num(flag, v)?;
                continue;
            }
            "--workers" => {
                cfg.workers = num(flag, v)?;
                continue;
            }
            other => return Err(format!("unknown sweep flag {other:?}")),
        }
        run_id.push_str(&format!(" {flag} {v}"));
    }
    let (Some(topology), Some(mechanism), Some(profile), Some(sizes)) =
        (topology, mechanism, profile, sizes)
    else {
        return Err("--topology, --mechanism, --profile and --sizes are required".to_string());
    };
    run_id.push_str(&format!(" --seed {} --workers {}", cfg.seed, cfg.workers));
    Ok(SweepArgs {
        spec: SweepSpec {
            topology,
            mechanism,
            profile,
            alpha,
            sizes,
            trials,
        },
        budget,
        inject_panic,
        cfg,
        run_id,
    })
}

/// Handles `repro sweep ...` (see [`SWEEP_USAGE`]): runs the sweep under
/// the fault-tolerant harness and prints its table and quarantine log.
/// Bad input exits 2 with the usage string.
fn run_sweep_command() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(2).collect();
    let usage_error = |e: &dyn std::fmt::Display| {
        eprintln!("error: {e}\n{SWEEP_USAGE}");
        ExitCode::from(2)
    };
    let args = match parse_sweep_args(&argv) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let mechanism = match args.spec.mechanism.build() {
        Ok(m) => m,
        Err(e) => return usage_error(&e),
    };
    let mechanism: Box<dyn ld_core::mechanisms::Mechanism + Sync> = match args.inject_panic {
        Some(panic_at) => Box::new(PanicInjection {
            inner: mechanism,
            panic_at,
        }),
        None => mechanism,
    };
    let mut harness = Harness::new().with_budget(args.budget);
    let outcome = ld_sim::sweep::run_sweep_harnessed(
        &args.spec,
        mechanism.as_ref(),
        &args.cfg.engine(777),
        &mut harness,
        &args.run_id,
    );
    print!("{}", outcome.to_table().to_text());
    report_quarantine(&outcome.quarantine);
    if !outcome.fully_complete() {
        let degraded = outcome
            .points
            .iter()
            .filter(|p| !p.outcome.status.is_complete())
            .count();
        eprintln!(
            "warning: {degraded}/{} point(s) truncated or degraded (see status column)",
            outcome.points.len()
        );
    }
    ExitCode::SUCCESS
}

/// Handles `repro stress --n N --updates U [--batch K] [--seed S]
/// [--zipf S] [--mix d,v,a] [--wal DIR] [--sync-every R]
/// [--snapshot-every R] [--crash-at K:kind|seeded]`: drives a seeded
/// synthetic churn trace through the `ld-live` engine twice — streamed
/// one update at a time and batched K at a time — reports throughput and
/// latency percentiles, and cross-checks that the incremental state is
/// bit-identical to a from-scratch `resolve()` of the final action
/// vector (and that the two replicas agree). Any divergence is a
/// non-zero exit.
///
/// With `--wal DIR` a third replica tees every accepted update through
/// an `ld-store` WAL (periodic binary snapshots via `--snapshot-every`),
/// so the run survives kill -9: `repro recover --dir DIR` rehydrates it.
/// `--crash-at` arms the deterministic fault injector and simulates the
/// kill — the run stops at the planned I/O operation and reports where.
///
/// With `--serve` the identical trace also rides through the `ld-serve`
/// front-end (batched ingest, sequenced apply, epoch publish) and the
/// published service tally must match the single-engine oracle bit for
/// bit.
fn run_stress_command() -> ExitCode {
    use ld_live::workload::TraceConfig;
    use ld_sim::experiments::stress::{run_churn, ChurnSpec};
    use ld_sim::table::Table;

    let mut n: Option<usize> = None;
    let mut updates: Option<usize> = None;
    let mut batch = 64usize;
    let mut seed = ExperimentConfig::default().seed;
    let mut zipf: Option<f64> = None;
    let mut mix: Option<String> = None;
    let mut wal: Option<PathBuf> = None;
    let mut sync_every = 1024u64;
    let mut snapshot_every: Option<u64> = None;
    let mut crash_at: Option<String> = None;
    let mut serve = false;
    let mut obs_summary = false;
    let mut obs_jsonl: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 0;
    while i < argv.len() {
        let next = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--n" => n = next(i).and_then(|v| v.parse().ok()),
            "--updates" => updates = next(i).and_then(|v| v.parse().ok()),
            "--batch" => batch = next(i).and_then(|v| v.parse().ok()).unwrap_or(batch),
            "--seed" => seed = next(i).and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--zipf" => zipf = next(i).and_then(|v| v.parse().ok()),
            "--mix" => mix = next(i).cloned(),
            "--wal" => wal = next(i).map(PathBuf::from),
            "--sync-every" => {
                sync_every = next(i).and_then(|v| v.parse().ok()).unwrap_or(sync_every);
            }
            "--snapshot-every" => snapshot_every = next(i).and_then(|v| v.parse().ok()),
            "--crash-at" => crash_at = next(i).cloned(),
            "--serve" => {
                serve = true;
                i += 1;
                continue;
            }
            "--obs-summary" => {
                obs_summary = true;
                i += 1;
                continue;
            }
            "--obs-jsonl" => obs_jsonl = next(i).map(PathBuf::from),
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    let usage = "usage: repro stress --n <voters> --updates <count> [--batch K] [--seed S] \
                 [--zipf S] [--mix delegate,vote,abstain] [--wal DIR] [--sync-every R] \
                 [--snapshot-every R] [--crash-at K:fail|short-write|corrupt | seeded] \
                 [--serve] [--obs-summary] [--obs-jsonl PATH]";
    let (Some(n), Some(updates)) = (n, updates) else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    if crash_at.is_some() && wal.is_none() {
        eprintln!("--crash-at needs --wal DIR (the fault injector lives in the store)\n{usage}");
        return ExitCode::FAILURE;
    }
    let mut trace = TraceConfig::balanced(n);
    if let Some(s) = zipf {
        trace.zipf_s = s;
    }
    if let Some(mix) = mix {
        let parts: Vec<f64> = mix
            .split(',')
            .filter_map(|p| p.trim().parse().ok())
            .collect();
        if parts.len() != 3 {
            eprintln!("bad --mix {mix:?} (want three fractions, e.g. 0.55,0.2,0.05)");
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
        trace.delegate_frac = parts[0];
        trace.vote_frac = parts[1];
        trace.abstain_frac = parts[2];
    }

    // The durable replica: tee every accepted update through the WAL
    // before moving on, so the run is recoverable after kill -9.
    let durable = match &wal {
        None => None,
        Some(dir) => {
            let fault = match crash_at.as_deref() {
                None => ld_store::FaultPlan::none(),
                Some("seeded") => {
                    // Records undercount I/O ops (fsyncs, snapshots), so
                    // drawing from the update count keeps the planned op
                    // inside the run.
                    ld_store::FaultPlan::seeded(seed, 0xC2A5, updates as u64)
                }
                Some(raw) => {
                    let parsed = raw.split_once(':').and_then(|(k, kind)| {
                        Some(ld_store::FaultPlan {
                            at: k.parse().ok()?,
                            kind: ld_store::FaultKind::parse(kind)?,
                        })
                    });
                    match parsed {
                        Some(p) => p,
                        None => {
                            eprintln!(
                                "bad --crash-at {raw:?} (want K:fail|short-write|corrupt, \
                                 or seeded)\n{usage}"
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            let opts = ld_store::StoreOptions {
                sync_every,
                snapshot_every: snapshot_every.unwrap_or(((updates / 8) as u64).max(1)),
                fault,
            };
            let spec = ld_sim::durable::DurableSpec {
                trace: trace.clone(),
                updates,
                seed,
                opts,
            };
            match ld_sim::durable::run_durable(dir, &spec) {
                Ok(run) => Some(run),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if let Some(run) = &durable {
        if let Some(crash) = &run.crashed {
            let dir = wal.as_ref().expect("durable implies --wal");
            println!(
                "stress: simulated crash after {} accepted update(s): {crash}",
                run.applied
            );
            println!(
                "  wal: {} record(s), last snapshot at {}; recover with: \
                 repro recover --dir {} --verify-full-replay",
                run.records,
                run.last_snapshot,
                dir.display()
            );
            emit_obs(obs_summary, obs_jsonl.as_deref());
            return ExitCode::SUCCESS;
        }
    }

    let spec = ChurnSpec {
        trace,
        updates,
        batch: 1,
        seed,
    };
    let outcome = (|| -> ld_sim::Result<(Table, bool, Option<bool>)> {
        let streamed = run_churn(&spec)?;
        let batched = run_churn(&ChurnSpec {
            batch: batch.max(1),
            ..spec.clone()
        })?;
        let mut table = Table::new(
            &format!("stress: n={n}, {updates} updates, seed {seed}"),
            &[
                "mode",
                "applied",
                "rejected",
                "upd/s",
                "p50 us",
                "p95 us",
                "p99 us",
                "touched/upd",
                "chain",
                "sinks",
                "P[correct]",
            ],
        );
        for (mode, r) in [
            ("stream".to_string(), &streamed),
            (format!("batch{}", batch.max(1)), &batched),
        ] {
            table.push([
                mode.into(),
                r.applied.into(),
                r.rejected.into(),
                (r.updates as f64 / r.elapsed).into(),
                r.p50_us.into(),
                r.p95_us.into(),
                r.p99_us.into(),
                (r.touched as f64 / r.applied.max(1) as f64).into(),
                r.longest_chain.into(),
                r.sinks.into(),
                r.decision_probability.into(),
            ]);
        }
        let durable_agrees = durable
            .as_ref()
            .map(|d| d.engine.resolution() == streamed.resolution);
        Ok((
            table,
            streamed.resolution == batched.resolution,
            durable_agrees,
        ))
    })();
    match outcome {
        Ok((table, replicas_agree, durable_agrees)) => {
            print!("{}", table.to_text());
            if let (Some(run), Some(dir)) = (&durable, &wal) {
                println!(
                    "wal: {} record(s), last snapshot at {}, {:.1}s durable run ({})",
                    run.records,
                    run.last_snapshot,
                    run.elapsed,
                    dir.display()
                );
            }
            emit_obs(obs_summary, obs_jsonl.as_deref());
            // run_churn has already verified incremental == from-scratch
            // for each replica; here we add the stream-vs-batch check.
            println!("cross-check: incremental == from-scratch resolve: ok (both replicas)");
            if let Some(agrees) = durable_agrees {
                if agrees {
                    println!("cross-check: durable (WAL-teed) == streamed final state: ok");
                } else {
                    eprintln!("cross-check FAILED: durable replica diverged from streamed");
                    return ExitCode::FAILURE;
                }
            }
            // The service replica: same trace through the service
            // front-end; run_serve_bench fails on any divergence from
            // its own single-engine oracle.
            if serve {
                let sspec = ld_sim::serve::ServeBenchSpec {
                    trace: spec.trace.clone(),
                    updates,
                    ..ld_sim::serve::ServeBenchSpec::full(seed)
                };
                match ld_sim::serve::run_serve_bench(&sspec) {
                    Ok(out) => {
                        println!(
                            "serve: {:.0} upd/s, ingest->publish p50 {:.1} us, \
                             p99 {:.1} us, epoch {}",
                            out.ops_per_sec, out.p50_us, out.p99_us, out.epoch
                        );
                        println!("cross-check: service == single-engine oracle: ok");
                    }
                    Err(e) => {
                        eprintln!("cross-check FAILED: service diverged: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if replicas_agree {
                println!("cross-check: streamed == batched final state: ok");
                ExitCode::SUCCESS
            } else {
                eprintln!("cross-check FAILED: streamed and batched replicas diverged");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles `repro conformance [--quick] [--seed N] [--json PATH]
/// [--only CHECK[,CHECK...]] [--case SUBSTR]
/// [--mutate tie-flip|csr-offset|wal-crc|serve-drop|packed-threshold|br-tiebreak|rank-order]`:
/// runs the `ld-testkit` differential/metamorphic grid plus the
/// simulation-layer checks, prints every mismatch with its shrunk minimal
/// instance and a one-line reproduction command, and exits non-zero on
/// any mismatch.
fn run_conformance_command() -> ExitCode {
    use ld_testkit::{ConformanceConfig, Mutation};

    let usage = "usage: repro conformance [--quick] [--seed N] [--json PATH] \
                 [--only CHECK[,CHECK...]] [--case SUBSTR] \
                 [--mutate tie-flip|csr-offset|wal-crc|serve-drop|packed-threshold|br-tiebreak|rank-order] \
                 [--no-corpus]";
    let mut cfg = ConformanceConfig::default();
    let mut json: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        let next = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--quick" | "-q" => {
                cfg.quick = true;
                i += 1;
                continue;
            }
            "--no-corpus" => {
                cfg.include_corpus = false;
                i += 1;
                continue;
            }
            "--seed" | "-s" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => {
                    eprintln!("bad or missing --seed value\n{usage}");
                    return ExitCode::from(2);
                }
            },
            "--json" | "-j" => match next(i) {
                Some(v) => json = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--json needs a path\n{usage}");
                    return ExitCode::from(2);
                }
            },
            "--only" => match next(i) {
                Some(v) => cfg.only = Some(v.clone()),
                None => {
                    eprintln!("--only needs a check id\n{usage}");
                    return ExitCode::from(2);
                }
            },
            "--case" => match next(i) {
                Some(v) => cfg.case_filter = Some(v.clone()),
                None => {
                    eprintln!("--case needs a cell-id substring\n{usage}");
                    return ExitCode::from(2);
                }
            },
            "--mutate" => match next(i).and_then(|v| Mutation::parse(v)) {
                Some(m) => cfg.mutation = Some(m),
                None => {
                    eprintln!(
                        "bad or missing --mutate value (known: tie-flip, csr-offset, \
                         wal-crc, serve-drop, packed-threshold, br-tiebreak, rank-order)\n{usage}"
                    );
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown conformance argument {other:?}\n{usage}");
                return ExitCode::from(2);
            }
        }
        i += 2;
    }

    eprintln!(
        "conformance: {} grid, seed {}{}{} ...",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.mutation
            .map(|m| format!(", injected mutation {}", m.id()))
            .unwrap_or_default(),
        cfg.case_filter
            .as_deref()
            .map(|f| format!(", case filter {f:?}"))
            .unwrap_or_default(),
    );
    let report = ld_sim::conformance::run_full_conformance(&cfg);
    // An unknown `--only` id comes back as a "config" mismatch; it is a
    // usage error, never a detected mutant.
    let config_errors: Vec<_> = report
        .mismatches
        .iter()
        .filter(|m| m.check == "config")
        .collect();
    if !config_errors.is_empty() {
        for m in config_errors {
            eprintln!("error: {}", m.detail);
        }
        eprintln!("{usage}");
        return ExitCode::from(2);
    }
    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {}", path.display());
    }
    println!(
        "conformance: {} cell(s), {} check(s) run, {} skipped, {} corpus entr{} replayed",
        report.cells,
        report.checks_run,
        report.checks_skipped,
        report.corpus_entries,
        if report.corpus_entries == 1 {
            "y"
        } else {
            "ies"
        },
    );
    if report.ok() {
        if report.mutation.is_some() {
            // A clean run under an injected mutation means the suite has
            // no teeth: the smoke test fails.
            eprintln!(
                "WARNING: injected mutation was NOT detected; the suite failed its smoke test"
            );
            return ExitCode::FAILURE;
        }
        println!("conformance: PASS (no mismatches)");
        return ExitCode::SUCCESS;
    }
    eprintln!("conformance: {} MISMATCH(ES)", report.mismatches.len());
    for m in &report.mismatches {
        eprintln!("\n[{}] cell {} (seed {})", m.check, m.cell, m.seed);
        eprintln!("  {}", m.detail);
        if let Some(s) = &m.shrunk {
            eprintln!(
                "  shrunk to n = {}: actions {:?}, competencies {:?}",
                s.n, s.actions, s.competencies
            );
            eprintln!("  shrunk failure: {}", s.detail);
        }
        eprintln!("  repro: {}", m.repro);
    }
    if report.mutation.is_some() {
        // The mismatches are the injected mutant being caught: the smoke
        // test passes.
        println!("conformance: injected mutation detected (smoke test PASS)");
        return ExitCode::SUCCESS;
    }
    ExitCode::FAILURE
}

/// Handles `repro dynamics [--quick] [--seed N] [--workers N]
/// [--kernel exact|packed[:samples]] [--rounds N] [--coalitions K1,K2,..]
/// [--wal DIR] [--obs-summary] [--obs-jsonl PATH]`: runs best-response
/// re-delegation rounds over the seeded topology grid to a fixpoint, a
/// detected limit cycle, or the round cap, then sweeps a seeded
/// variance-seeking coalition of each requested size. Every trajectory
/// is deterministic given `(seed, round)` — the printed grid digest is
/// bit-identical across worker counts and Exact/Packed kernels. With
/// `--wal DIR` every round's accepted moves are teed through an
/// `ld-store` WAL and recovery is verified bit-for-bit; a divergence
/// (or a grid with no converging cell) is a non-zero exit.
fn run_dynamics_command() -> ExitCode {
    use ld_sim::dynamics::{run_dynamics, DynamicsConfig};
    use ld_sim::engine::TallyKernel;

    let usage = "usage: repro dynamics [--quick] [--seed N] [--workers N] \
                 [--kernel exact|packed[:samples]] [--rounds N] [--coalitions K1,K2,...] \
                 [--wal DIR] [--obs-summary] [--obs-jsonl PATH]";
    let mut quick = false;
    let mut seed = ExperimentConfig::default().seed;
    let mut workers: Option<usize> = None;
    let mut kernel = TallyKernel::Exact;
    let mut rounds: Option<usize> = None;
    let mut coalitions: Option<Vec<usize>> = None;
    let mut wal: Option<PathBuf> = None;
    let mut obs_summary = false;
    let mut obs_jsonl: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        let next = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--quick" | "-q" => {
                quick = true;
                i += 1;
                continue;
            }
            "--obs-summary" => {
                obs_summary = true;
                i += 1;
                continue;
            }
            "--seed" | "-s" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("bad or missing --seed value\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" | "-w" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) => workers = Some(v),
                None => {
                    eprintln!("bad or missing --workers value\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--kernel" => {
                let parsed = next(i).and_then(|v| match v.split_once(':') {
                    None if v == "exact" => Some(TallyKernel::Exact),
                    None if v == "packed" => Some(TallyKernel::Packed { samples: 64 }),
                    Some(("packed", s)) => Some(TallyKernel::Packed {
                        samples: s.parse().ok()?,
                    }),
                    _ => None,
                });
                match parsed {
                    Some(k) => kernel = k,
                    None => {
                        eprintln!("bad or missing --kernel (exact | packed[:samples])\n{usage}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--rounds" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) => rounds = Some(v),
                None => {
                    eprintln!("bad or missing --rounds value\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--coalitions" => {
                let parsed: Option<Vec<usize>> =
                    next(i).map(|v| v.split(',').filter_map(|p| p.trim().parse().ok()).collect());
                match parsed {
                    Some(ks) if !ks.is_empty() => coalitions = Some(ks),
                    _ => {
                        eprintln!("bad or missing --coalitions list\n{usage}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--wal" => wal = next(i).map(PathBuf::from),
            "--obs-jsonl" => obs_jsonl = next(i).map(PathBuf::from),
            other => {
                eprintln!("unknown dynamics argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    let mut cfg = if quick {
        DynamicsConfig::quick(seed)
    } else {
        DynamicsConfig::new(seed)
    };
    cfg.kernel = kernel;
    if let Some(w) = workers {
        cfg.workers = w.max(1);
    }
    if let Some(r) = rounds {
        cfg.max_rounds = r.max(1);
    }
    if let Some(ks) = coalitions {
        let mut ks = ks;
        if !ks.contains(&0) {
            // The k=0 baseline anchors every delta column.
            ks.insert(0, 0);
        }
        cfg.coalitions = ks;
    }
    cfg.wal = wal;
    eprintln!(
        "dynamics: {} grid, seed {seed}, {} worker(s), {:?} kernel, cap {} round(s){} ...",
        if cfg.quick { "quick" } else { "full" },
        cfg.workers,
        cfg.kernel,
        cfg.max_rounds,
        if cfg.wal.is_some() { ", WAL tee" } else { "" }
    );
    match run_dynamics(&cfg) {
        Ok(report) => {
            for table in &report.tables {
                print!("{}", table.to_text());
            }
            println!("grid digest: {:#018x}", report.grid_digest);
            if cfg.wal.is_some() {
                println!("cross-check: WAL recovery == live trajectory (every cell): ok");
            }
            emit_obs(obs_summary, obs_jsonl.as_deref());
            if report.converged == 0 {
                eprintln!(
                    "dynamics: FAIL — no cell reached a fixpoint ({} cycled, {} capped)",
                    report.cycled, report.capped
                );
                return ExitCode::FAILURE;
            }
            println!(
                "dynamics: PASS ({} fixpoint(s), {} cycle(s), {} capped over {} cell(s))",
                report.converged,
                report.cycled,
                report.capped,
                report.outcomes.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles `repro ranked [--quick] [--seed N] [--ranks R] [--trials T]`:
/// runs the ranked-delegation suite — MinDepth and MinSum selection over
/// per-voter preference lists on the seeded topology grid, compared
/// against the paper's local mechanisms, plus empirical DNH / PG / SPG
/// verdicts for both rules on the complete-graph family. The printed
/// grid digest folds both rules' selected forests and is bit-identical
/// for a given `(seed, ranks, trials)`.
fn run_ranked_command() -> ExitCode {
    use ld_sim::ranked::{run_ranked, RankedConfig};

    let usage = "usage: repro ranked [--quick] [--seed N] [--ranks R] [--trials T]";
    let mut quick = false;
    let mut seed = ExperimentConfig::default().seed;
    let mut ranks: Option<usize> = None;
    let mut trials: Option<u64> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        let next = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--quick" | "-q" => {
                quick = true;
                i += 1;
                continue;
            }
            "--seed" | "-s" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("bad or missing --seed value\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--ranks" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => ranks = Some(v),
                _ => {
                    eprintln!("bad or missing --ranks value (>= 1)\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--trials" => match next(i).and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => trials = Some(v),
                _ => {
                    eprintln!("bad or missing --trials value (>= 1)\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown ranked argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    let mut cfg = if quick {
        RankedConfig::quick(seed)
    } else {
        RankedConfig::new(seed)
    };
    if let Some(r) = ranks {
        cfg.ranks = r;
    }
    if let Some(t) = trials {
        cfg.trials = t;
    }
    eprintln!(
        "ranked: {} grid, seed {seed}, lists up to {} entr{}, {} trial(s)/cell ...",
        if cfg.quick { "quick" } else { "full" },
        cfg.ranks,
        if cfg.ranks == 1 { "y" } else { "ies" },
        cfg.trials,
    );
    match run_ranked(&cfg) {
        Ok(report) => {
            for table in &report.tables {
                print!("{}", table.to_text());
            }
            println!("grid digest: {:#018x}", report.grid_digest);
            let failed: Vec<&str> = report
                .verdicts
                .iter()
                .filter(|v| !v.dnh)
                .map(|v| v.mechanism.as_str())
                .collect();
            if !failed.is_empty() {
                eprintln!(
                    "ranked: FAIL — do-no-harm violated by {}",
                    failed.join(", ")
                );
                return ExitCode::FAILURE;
            }
            println!(
                "ranked: PASS ({} outcome row(s), {} rule verdict(s), DNH holds for every rule)",
                report.outcomes.len(),
                report.verdicts.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles `repro recover --dir DIR [--verify-full-replay]`: rehydrates
/// the engine from the newest valid binary snapshot plus the WAL tail,
/// proves the recovered state against a from-scratch resolve of its own
/// action vector (and, with `--verify-full-replay`, against a genesis +
/// full-log replay, bit for bit), and prints the recovery summary and
/// tally digest. Any divergence is a non-zero exit.
fn run_recover_command() -> ExitCode {
    use ld_sim::table::Table;

    let usage = "usage: repro recover --dir DIR [--verify-full-replay]";
    let mut dir: Option<PathBuf> = None;
    let mut full_replay = false;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => match argv.get(i + 1) {
                Some(v) => {
                    dir = Some(PathBuf::from(v));
                    i += 2;
                }
                None => {
                    eprintln!("--dir needs a path\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
            "--verify-full-replay" => {
                full_replay = true;
                i += 1;
            }
            other => {
                eprintln!("unknown recover argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    match ld_sim::durable::verify_recovery(&dir, full_replay) {
        Ok(v) => {
            let mut table = Table::new(
                &format!("recover: {}", dir.display()),
                &[
                    "records",
                    "snapshot@",
                    "replayed",
                    "torn tail",
                    "snaps skipped",
                    "chain",
                    "sinks",
                    "P[correct]",
                ],
            );
            table.push([
                (v.records as i64).into(),
                (v.snapshot_applied as i64).into(),
                (v.replayed as i64).into(),
                if v.torn { "truncated" } else { "clean" }.into(),
                v.snapshots_skipped.into(),
                v.engine.longest_chain().into(),
                v.engine.sink_count().into(),
                v.decision_probability.into(),
            ]);
            print!("{}", table.to_text());
            println!("cross-check: recovered state == from-scratch resolve: ok");
            if v.full_replay_checked {
                println!("cross-check: snapshot+tail == genesis+full-replay (bit-identical): ok");
            } else if full_replay {
                println!(
                    "cross-check: full-replay baseline inapplicable — the log lost bytes \
                     inside the snapshot-covered prefix; the snapshot CRC vouches for \
                     those records"
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles `repro store-bench [--n N] [--updates U] [--seed S]
/// [--dir DIR] [--iters K] [--min-speedup X]`: builds a store under
/// churn with periodic compaction, then times snapshot+tail recovery
/// against genesis + full-log replay (bit-identity verified each
/// iteration). Exits non-zero if the speedup falls below `--min-speedup`
/// (default 10x) — the gate the snapshot format exists to win.
fn run_store_bench_command() -> ExitCode {
    use ld_sim::table::Table;

    let usage = "usage: repro store-bench [--n N] [--updates U] [--seed S] [--dir DIR] \
                 [--iters K] [--min-speedup X]";
    let mut n = 10_000usize;
    let mut updates = 200_000usize;
    let mut seed: u64 = ExperimentConfig::default().seed;
    let mut dir: Option<PathBuf> = None;
    let mut iters = 3u32;
    let mut min_speedup = 10.0f64;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        let value = argv.get(i + 1);
        match argv[i].as_str() {
            "--n" => n = value.and_then(|v| v.parse().ok()).unwrap_or(n),
            "--updates" => updates = value.and_then(|v| v.parse().ok()).unwrap_or(updates),
            "--seed" | "-s" => seed = value.and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--dir" => dir = value.map(PathBuf::from),
            "--iters" => iters = value.and_then(|v| v.parse().ok()).unwrap_or(iters),
            "--min-speedup" => {
                min_speedup = value.and_then(|v| v.parse().ok()).unwrap_or(min_speedup);
            }
            other => {
                eprintln!("unknown store-bench argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    let scratch = dir.is_none();
    let dir = dir.unwrap_or_else(|| ld_sim::durable::scratch_dir("store-bench"));
    eprintln!("store-bench: n={n}, {updates} updates, seed {seed}, best of {iters} ...");
    let outcome = ld_sim::durable::store_bench(&dir, n, updates, seed, iters);
    if scratch {
        std::fs::remove_dir_all(&dir).ok();
    }
    match outcome {
        Ok(r) => {
            let mut table = Table::new(
                "store-bench: snapshot+tail recovery vs genesis+full-replay",
                &[
                    "n",
                    "records",
                    "snapshot@",
                    "snapshot+tail ms",
                    "full replay ms",
                    "speedup",
                ],
            );
            table.push([
                r.n.into(),
                (r.records as i64).into(),
                (r.snapshot_applied as i64).into(),
                (r.latest_secs * 1e3).into(),
                (r.full_replay_secs * 1e3).into(),
                r.speedup.into(),
            ]);
            print!("{}", table.to_text());
            if r.speedup >= min_speedup {
                println!(
                    "store-bench: PASS (snapshot path {:.1}x faster; gate {min_speedup:.0}x)",
                    r.speedup
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "store-bench: FAIL — snapshot path only {:.1}x faster than full replay \
                     (gate {min_speedup:.0}x)",
                    r.speedup
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles `repro serve-bench [--quick] [--n N]
/// [--updates U] [--seed S] [--window-us W] [--publish-every E]
/// [--dir DIR] [--kill-at K] [--obs-summary] [--obs-jsonl PATH]`:
/// streams a seeded churn trace through an `ld-serve` election
/// (batched ingest, epoch-published tallies), reports throughput and
/// ingest→publish latency percentiles, and fails unless the published
/// tally is bit-identical to a single-engine oracle streaming the same
/// updates. With `--dir` the election runs on an `ld-store` WAL; with `--kill-at K` the run commits an epoch after K updates,
/// streams the rest uncommitted, and dies abruptly — `repro
/// serve-recover --dir DIR` must then restore the committed epoch.
fn run_serve_bench_command() -> ExitCode {
    use ld_sim::serve::{run_serve_bench, ServeBenchSpec};
    use ld_sim::table::Table;
    use std::time::Duration;

    let usage = "usage: repro serve-bench [--quick] [--n N] [--updates U] \
                 [--seed S] [--window-us W] [--publish-every E] [--dir DIR] [--kill-at K] \
                 [--obs-summary] [--obs-jsonl PATH]";
    let mut quick = false;
    let mut n: Option<usize> = None;
    let mut updates: Option<usize> = None;
    let mut seed: u64 = ExperimentConfig::default().seed;
    let mut window_us: Option<u64> = None;
    let mut publish_every: Option<u32> = None;
    let mut dir: Option<PathBuf> = None;
    let mut kill_at: Option<usize> = None;
    let mut obs_summary = false;
    let mut obs_jsonl: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        let next = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--quick" | "-q" => {
                quick = true;
                i += 1;
                continue;
            }
            "--obs-summary" => {
                obs_summary = true;
                i += 1;
                continue;
            }
            "--n" => n = next(i).and_then(|v| v.parse().ok()),
            "--updates" => updates = next(i).and_then(|v| v.parse().ok()),
            "--seed" | "-s" => seed = next(i).and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--window-us" => window_us = next(i).and_then(|v| v.parse().ok()),
            "--publish-every" => publish_every = next(i).and_then(|v| v.parse().ok()),
            "--dir" => dir = next(i).map(PathBuf::from),
            "--kill-at" => kill_at = next(i).and_then(|v| v.parse().ok()),
            "--obs-jsonl" => obs_jsonl = next(i).map(PathBuf::from),
            other => {
                eprintln!("unknown serve-bench argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    let mut spec = if quick {
        ServeBenchSpec::quick(seed)
    } else {
        ServeBenchSpec::full(seed)
    };
    if let Some(n) = n {
        spec.trace = ld_live::workload::TraceConfig::balanced(n);
    }
    if let Some(u) = updates {
        spec.updates = u;
    }
    if let Some(w) = window_us {
        spec.window = Duration::from_micros(w);
    }
    if let Some(e) = publish_every {
        spec.publish_every = e;
    }
    spec.dir = dir;
    spec.kill_at = kill_at;
    eprintln!(
        "serve-bench: n={}, {} update(s), seed {seed}{} ...",
        spec.trace.n,
        spec.updates,
        if spec.dir.is_some() { ", durable" } else { "" }
    );
    let out = match run_serve_bench(&spec) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table = Table::new(
        "serve-bench: ingest -> epoch publish",
        &[
            "n",
            "applied",
            "rejected",
            "upd/s",
            "p50 us",
            "p99 us",
            "epoch",
            "sinks",
            "P[correct]",
        ],
    );
    table.push([
        out.n.into(),
        (out.applied as i64).into(),
        (out.rejected as i64).into(),
        out.ops_per_sec.into(),
        out.p50_us.into(),
        out.p99_us.into(),
        (out.epoch as i64).into(),
        (out.sinks as i64).into(),
        out.p_correct.into(),
    ]);
    print!("{}", table.to_text());
    println!("tally digest: {:#018x}", out.digest);
    emit_obs(obs_summary, obs_jsonl.as_deref());
    if out.killed {
        let dir = spec.dir.as_ref().expect("kill_at requires dir");
        println!(
            "serve-bench: killed abruptly after committing epoch {} \
             ({} update(s) streamed uncommitted); recover with: \
             repro serve-recover --dir {}",
            out.committed_epoch.unwrap_or(0),
            spec.updates.saturating_sub(spec.kill_at.unwrap_or(0)),
            dir.display()
        );
        return ExitCode::SUCCESS;
    }
    println!("cross-check: published tally == single-engine oracle (bit-identical): ok");
    println!("serve-bench: PASS");
    ExitCode::SUCCESS
}

/// Handles `repro serve-recover --dir DIR [--expect-digest HEX]`:
/// restarts a durable election from its meta + identity log +
/// snapshot/WAL files, replays the WAL to the last committed epoch, and
/// verifies the tally digest against the epoch log (a mismatch is a
/// typed error and a non-zero exit).
fn run_serve_recover_command() -> ExitCode {
    use ld_sim::table::Table;

    let usage = "usage: repro serve-recover --dir DIR [--expect-digest HEX]";
    let mut dir: Option<PathBuf> = None;
    let mut expect_digest: Option<u64> = None;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => dir = argv.get(i + 1).map(PathBuf::from),
            "--expect-digest" => {
                expect_digest = argv.get(i + 1).and_then(|v| {
                    let v = v.trim_start_matches("0x");
                    u64::from_str_radix(v, 16).ok()
                });
                if expect_digest.is_none() {
                    eprintln!("bad or missing --expect-digest value\n{usage}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown serve-recover argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    let Some(dir) = dir else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    match ld_sim::serve::run_serve_recover(&dir) {
        Ok((report, snap)) => {
            let mut table = Table::new(
                &format!("serve-recover: {}", dir.display()),
                &["epoch", "applied", "rejected", "sinks"],
            );
            table.push([
                (report.epoch as i64).into(),
                (report.applied as i64).into(),
                (report.rejected as i64).into(),
                (snap.tally.sink_count as i64).into(),
            ]);
            print!("{}", table.to_text());
            println!("tally digest: {:#018x}", report.digest);
            println!("cross-check: replayed digest == committed epoch-log digest: ok");
            if let Some(want) = expect_digest {
                if report.digest != want {
                    eprintln!(
                        "serve-recover: FAIL — digest {:#018x} != expected {want:#018x}",
                        report.digest
                    );
                    return ExitCode::FAILURE;
                }
                println!("cross-check: digest matches --expect-digest: ok");
            }
            println!("serve-recover: PASS");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles `repro serve (--selftest | --socket PATH) [--n N]
/// [--default-p P]`: hosts one election behind the binary
/// wire protocol. `--selftest` drives a register/submit/flush/query
/// session through the in-process loopback (which still round-trips
/// every frame through the codec) and exits. `--socket PATH` serves a
/// Unix domain socket until SIGTERM or a client `Shutdown` request,
/// then drains ingest, fsyncs, and publishes a final epoch.
fn run_serve_command() -> ExitCode {
    use ld_serve::{Host, LoopbackClient, Request, Response};

    let usage = "usage: repro serve (--selftest | --socket PATH) [--n N] [--default-p P]";
    let mut selftest = false;
    let mut socket: Option<PathBuf> = None;
    let mut n = 1_000u32;
    let mut default_p = 0.55f64;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 2;
    while i < argv.len() {
        let next = |i: usize| -> Option<&String> { argv.get(i + 1) };
        match argv[i].as_str() {
            "--selftest" => {
                selftest = true;
                i += 1;
                continue;
            }
            "--socket" => socket = next(i).map(PathBuf::from),
            "--n" => n = next(i).and_then(|v| v.parse().ok()).unwrap_or(n),
            "--default-p" => {
                default_p = next(i).and_then(|v| v.parse().ok()).unwrap_or(default_p);
            }
            other => {
                eprintln!("unknown serve argument {other:?}\n{usage}");
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    if selftest == socket.is_some() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }

    let host = Host::new();
    let created = host.handle(&Request::Create {
        election: 1,
        n,
        default_p,
    });
    if created != (Response::Created { election: 1 }) {
        eprintln!("error: could not create election: {created:?}");
        return ExitCode::FAILURE;
    }

    if selftest {
        let client = LoopbackClient::new(&host);
        let script: Vec<Request> = vec![
            Request::Register {
                election: 1,
                key: b"selftest-alice".to_vec(),
            },
            Request::Register {
                election: 1,
                key: b"selftest-bob".to_vec(),
            },
            Request::Lookup {
                election: 1,
                key: b"selftest-bob".to_vec(),
            },
            Request::Submit {
                election: 1,
                update: ld_live::Update::Delegate {
                    voter: 1,
                    target: 0,
                },
            },
            Request::Submit {
                election: 1,
                update: ld_live::Update::Abstain { voter: 2 },
            },
            Request::Flush { election: 1 },
            Request::Query { election: 1 },
        ];
        let mut last_tally = None;
        for request in &script {
            match client.call(request) {
                Ok(Response::Error { code, message }) => {
                    eprintln!("serve selftest: FAIL — error {code} on {request:?}: {message}");
                    return ExitCode::FAILURE;
                }
                Ok(Response::Tally(t)) => last_tally = Some(t),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("serve selftest: FAIL — wire error on {request:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let Some(t) = last_tally else {
            eprintln!("serve selftest: FAIL — no tally came back");
            return ExitCode::FAILURE;
        };
        println!(
            "serve selftest: epoch {}, n {}, tallied {}, discarded {}, sinks {}, \
             max weight {}, P[correct] {:.6}, digest {:#018x}",
            t.epoch, t.n, t.tallied, t.discarded, t.sink_count, t.max_weight, t.p_correct, t.digest
        );
        if let Err(e) = host.shutdown_all() {
            eprintln!("serve selftest: FAIL — shutdown: {e}");
            return ExitCode::FAILURE;
        }
        println!("serve selftest: PASS (register/submit/flush/query round-tripped the codec)");
        return ExitCode::SUCCESS;
    }

    #[cfg(unix)]
    {
        let path = socket.expect("socket mode");
        let stop = ld_serve::install_sigterm_flag();
        eprintln!(
            "serve: election 1 (n {n}) on {} — SIGTERM or a \
             Shutdown request drains and exits",
            path.display()
        );
        if let Err(e) = ld_serve::serve_unix(&host, &path, stop) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        match host.shutdown_all() {
            Ok(()) => {
                eprintln!("serve: drained, fsynced, final epoch published");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error during shutdown: {e}");
                ExitCode::FAILURE
            }
        }
    }
    #[cfg(not(unix))]
    {
        eprintln!("repro serve --socket needs a Unix target (use --selftest here)");
        ExitCode::FAILURE
    }
}

/// A maintenance aid (`repro sweep --inject-panic N`): wraps the real
/// mechanism and panics at instance size `N`, for demonstrating and
/// testing the harness's quarantine path end to end.
struct PanicInjection {
    inner: Box<dyn ld_core::mechanisms::Mechanism + Sync>,
    panic_at: usize,
}

impl ld_core::mechanisms::Mechanism for PanicInjection {
    fn act(
        &self,
        instance: &ld_core::ProblemInstance,
        voter: usize,
        rng: &mut dyn ld_prob::rng::RngCore,
    ) -> ld_core::delegation::Action {
        assert_ne!(
            instance.n(),
            self.panic_at,
            "injected panic at n = {}",
            self.panic_at
        );
        self.inner.act(instance, voter, rng)
    }

    fn run(
        &self,
        instance: &ld_core::ProblemInstance,
        rng: &mut dyn ld_prob::rng::RngCore,
    ) -> ld_core::delegation::DelegationGraph {
        assert_ne!(
            instance.n(),
            self.panic_at,
            "injected panic at n = {}",
            self.panic_at
        );
        self.inner.run(instance, rng)
    }

    fn name(&self) -> String {
        format!("inject-panic-{}({})", self.panic_at, self.inner.name())
    }
}

/// Emits the ld-obs sinks requested on the command line: the human
/// summary table on stdout and/or the JSONL event stream to a file.
/// With default features both sinks render empty (the summary carries a
/// note saying how to enable collection).
fn emit_obs(obs_summary: bool, obs_jsonl: Option<&std::path::Path>) {
    if !obs_summary && obs_jsonl.is_none() {
        return;
    }
    let snap = ld_obs::snapshot();
    if obs_summary {
        print!(
            "{}",
            ld_sim::obs_report::summary_table(&snap, false).to_text()
        );
    }
    if let Some(path) = obs_jsonl {
        match ld_sim::obs_report::write_jsonl(&snap, path) {
            Ok(()) => eprintln!("obs events written to {}", path.display()),
            Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
        }
    }
}

/// Handles `repro perf-gate`, which takes no arguments: the same-host
/// perfbench A/B of [`ld_sim::perf_gate`]. Exits 1 on a regression or a
/// correctness failure, 2 when the gate cannot run.
fn run_perf_gate_command() -> ExitCode {
    if let Some(extra) = std::env::args().nth(2) {
        eprintln!("repro perf-gate takes no arguments (got {extra:?})");
        return ExitCode::from(2);
    }
    match ld_sim::perf_gate::run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf-gate: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn report_quarantine(entries: &[QuarantineEntry]) {
    if entries.is_empty() {
        return;
    }
    eprintln!("quarantine log ({} failure(s)):", entries.len());
    for q in entries {
        eprintln!("  {q}");
    }
}

fn main() -> ExitCode {
    // The sweep subcommand has its own flag set; dispatch before the
    // strict global parser.
    if std::env::args().nth(1).is_some_and(|a| a == "sweep") {
        return run_sweep_command();
    }

    // Likewise the stress subcommand (churn workload for the live engine).
    if std::env::args().nth(1).is_some_and(|a| a == "stress") {
        return run_stress_command();
    }

    // Recovery of a durable (WAL + snapshot) run, and its benchmark.
    if std::env::args().nth(1).is_some_and(|a| a == "recover") {
        return run_recover_command();
    }
    if std::env::args().nth(1).is_some_and(|a| a == "store-bench") {
        return run_store_bench_command();
    }

    // And the conformance gate (differential/metamorphic test suite).
    if std::env::args().nth(1).is_some_and(|a| a == "conformance") {
        return run_conformance_command();
    }

    // Strategic re-delegation dynamics (flags beyond the generic
    // experiment runner: kernel, round cap, coalition sweep, WAL tee).
    if std::env::args().nth(1).is_some_and(|a| a == "dynamics") {
        return run_dynamics_command();
    }

    // Ranked delegations (flags beyond the generic experiment runner:
    // list length and per-cell trial count).
    if std::env::args().nth(1).is_some_and(|a| a == "ranked") {
        return run_ranked_command();
    }

    // The election service: bench gate, restart check, host.
    if std::env::args().nth(1).is_some_and(|a| a == "serve-bench") {
        return run_serve_bench_command();
    }
    if std::env::args()
        .nth(1)
        .is_some_and(|a| a == "serve-recover")
    {
        return run_serve_recover_command();
    }
    if std::env::args().nth(1).is_some_and(|a| a == "serve") {
        return run_serve_command();
    }

    // The same-host perfbench A/B against the base commit.
    if std::env::args().nth(1).is_some_and(|a| a == "perf-gate") {
        return run_perf_gate_command();
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list || args.ids.is_empty() {
        println!("available experiments:");
        for info in experiments::all() {
            println!(
                "  {:<14} {:<36} {}",
                info.id, info.paper_ref, info.description
            );
        }
        if args.ids.is_empty() && !args.list {
            println!("\nrun with: repro all  (or a list of ids)");
        }
        return ExitCode::SUCCESS;
    }

    let mut cfg = ExperimentConfig {
        quick: args.quick,
        ..Default::default()
    };
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if let Some(w) = args.workers {
        cfg.workers = w;
    }
    let planned_ids: Vec<String> = if args.ids.iter().any(|id| id == "all") {
        experiments::ids().into_iter().map(str::to_string).collect()
    } else {
        args.ids.clone()
    };

    if planned_ids.iter().any(|id| id == "verify") {
        eprintln!(
            "verifying every paper claim ({} mode) ...",
            if cfg.quick { "quick" } else { "full" }
        );
        match ld_sim::verify::verify_all(&cfg) {
            Ok(verdicts) => {
                print!("{}", ld_sim::verify::to_table(&verdicts).to_text());
                emit_obs(args.obs_summary, args.obs_jsonl.as_deref());
                let failed = verdicts.iter().filter(|v| !v.pass).count();
                if failed > 0 {
                    eprintln!("{failed} claim(s) FAILED");
                    return ExitCode::FAILURE;
                }
                eprintln!("all {} claims PASS", verdicts.len());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error during verification: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let infos = {
        let mut selected = Vec::new();
        for id in &planned_ids {
            match experiments::find(id) {
                Ok(info) => selected.push(info),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        selected
    };

    let start = Instant::now();
    let wall_expired = |start: &Instant| {
        args.max_wall
            .is_some_and(|max| start.elapsed().as_secs_f64() >= max)
    };

    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut quarantine: Vec<QuarantineEntry> = Vec::new();
    for info in &infos {
        if wall_expired(&start) {
            eprintln!(
                "wall budget expired; truncating {} ({})",
                info.id, info.paper_ref
            );
            results.push(ExperimentResult {
                id: info.id.to_string(),
                paper_ref: info.paper_ref.to_string(),
                tables: Vec::new(),
                runtime_ms: 0,
                status: PointStatus::Truncated { trials_done: 0 },
            });
            continue;
        }
        eprintln!("running {} ({}) ...", info.id, info.paper_ref);
        let (result, entry) = report::run_experiment_isolated(info, &cfg);
        quarantine.extend(entry);
        if !result.status.is_complete() {
            eprintln!(
                "warning: {} did not complete: {}",
                info.id,
                result.status.tag()
            );
            if args.fail_fast {
                report_quarantine(&quarantine);
                return ExitCode::FAILURE;
            }
        }
        print!("{}", report::to_markdown(std::slice::from_ref(&result)));
        results.push(result);
    }

    if let Some(dir) = &args.csv_dir {
        if let Err(e) = report::write_csv_dir(&results, dir) {
            eprintln!("error writing CSVs to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote CSVs to {}", dir.display());
    }

    if let Some(path) = &args.json {
        if let Err(e) = report::write_json(&results, path) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }

    report_quarantine(&quarantine);
    emit_obs(args.obs_summary, args.obs_jsonl.as_deref());
    let incomplete = results.iter().filter(|r| !r.status.is_complete()).count();
    if incomplete > 0 {
        eprintln!(
            "warning: {incomplete}/{} experiment(s) degraded or truncated; \
             the report above tags them honestly",
            results.len()
        );
    }
    if any_degraded(&results) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// True if an experiment panicked or errored. `repro` then exits 1; a run
/// only truncated by the user's own `--max-wall` still exits 0.
fn any_degraded(results: &[ExperimentResult]) -> bool {
    results
        .iter()
        .any(|r| matches!(r.status, PointStatus::Degraded { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    const VALID: &str =
        "--topology complete --mechanism algorithm1:1 --profile uniform:0.35,0.6 --sizes 16,24";

    #[test]
    fn sweep_args_parse_a_valid_line() {
        let args = parse_sweep_args(&argv(&format!(
            "{VALID} --trials 8 --inject-panic 24 --seed 7 --workers 2 --quick"
        )))
        .unwrap();
        assert_eq!(args.spec.sizes, vec![16, 24]);
        assert_eq!(args.spec.trials, 8);
        assert_eq!(args.inject_panic, Some(24));
        assert_eq!((args.cfg.seed, args.cfg.workers), (7, 2));
        assert_eq!(
            args.run_id,
            format!("sweep {VALID} --trials 8 --inject-panic 24 --seed 7 --workers 2")
        );
    }

    #[test]
    fn sweep_args_reject_bad_input() {
        let err = parse_sweep_args(&argv(&format!("{VALID} --trials abc"))).unwrap_err();
        assert!(err.contains("--trials"), "{err}");
        let err = parse_sweep_args(&argv(&format!("{VALID} --resume x"))).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        let err = parse_sweep_args(&argv(&format!("{VALID} --trials"))).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        assert!(parse_sweep_args(&argv(&format!("{VALID} --seed x"))).is_err());
        assert!(parse_sweep_args(&argv(&format!("{VALID} --workers -1"))).is_err());
        assert!(parse_sweep_args(&argv("--topology complete --sizes 16")).is_err());
    }

    #[test]
    fn only_a_degraded_experiment_fails_the_run() {
        let result = |status| ExperimentResult {
            id: "x".to_string(),
            paper_ref: "x".to_string(),
            tables: Vec::new(),
            runtime_ms: 0,
            status,
        };
        assert!(!any_degraded(&[result(PointStatus::Complete)]));
        assert!(!any_degraded(&[
            result(PointStatus::Complete),
            result(PointStatus::Truncated { trials_done: 0 }),
        ]));
        assert!(any_degraded(&[
            result(PointStatus::Complete),
            result(PointStatus::Degraded {
                reason: "boom".to_string()
            }),
        ]));
    }
}
