//! `repro` — regenerate the paper's figures, lemmas and theorems.
//!
//! ```text
//! repro --list                 # show all experiment ids
//! repro all                    # run everything at full scale
//! repro fig1 thm2              # run a subset
//! repro all --quick            # smaller sizes / fewer trials
//! repro all --seed 7 --json results.json
//! repro all --max-wall 3600    # budget: degrade gracefully after 1 h
//! repro verify --quick         # every paper claim, one PASS/FAIL row each
//! repro sweep --topology complete --mechanism greedy \
//!     --profile uniform:0.4,0.6 --sizes 64,128     # one sweep, harnessed
//! repro stress --n 100000 --updates 1000000   # live-engine churn driver
//! repro stress --n 100000 --updates 1000000 --wal results/wal  # durable: tee through the WAL
//! repro stress ... --wal DIR --crash-at seeded # simulate kill -9 at a seeded I/O op
//! repro recover --dir results/wal --verify-full-replay  # rehydrate + bit-compare tally
//! repro store-bench            # snapshot+tail vs full-log replay (>=10x gate)
//! repro conformance --quick    # differential/metamorphic conformance gate
//! repro dynamics --quick       # best-response re-delegation to fixpoint/cycle
//! repro dynamics --quick --wal results/dynwal  # tee each round through a WAL, check recovery
//! repro ranked --quick         # MinDepth/MinSum ranked delegations, DNH-gated
//! repro serve-bench --quick    # election service: throughput + p50/p99 + oracle check
//! repro serve-bench --dir D --kill-at K  # commit an epoch, then die abruptly
//! repro serve-recover --dir D  # restart the killed service, verify the digest
//! repro serve --selftest       # host an election over the loopback wire codec
//! repro serve --socket PATH    # ... or over a Unix domain socket (SIGTERM drains)
//! repro perf-gate              # perfbench A/B against the base commit, same host
//! repro perf-gate --only serve-epochs --pairs 10 --seconds 10  # one claim, more runs
//! repro all --obs-summary      # append the ld-obs metrics table
//! ```
//!
//! Every subcommand declares its flags in `COMMANDS` and goes through
//! one parser, `Args::parse`. An unknown flag, a missing value or a
//! value that does not parse (an element of a comma list included)
//! prints the subcommand's usage and exits 2 before anything runs;
//! `--help` or `-h` prints it and exits 0.
//!
//! Runs are fault tolerant and a pure function of `(seed, trials,
//! workers)`: each experiment runs once under panic isolation, and a
//! failure is quarantined with a repro line rather than aborting the run.
//! A run with a degraded experiment exits 1; one truncated only by
//! `--max-wall` exits 0.

use ld_sim::experiments::{self, ExperimentConfig};
use ld_sim::harness::{Harness, PointStatus, QuarantineEntry, RunBudget};
use ld_sim::report::{self, ExperimentResult};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// A checked command line, ready to run.
type Run = Box<dyn FnOnce() -> ExitCode>;

/// A `repro` subcommand: its usage line, the flags it accepts, and a
/// step that types every value and returns the run, so a command line
/// is checked in full before anything runs. The flags are listed in
/// two space-separated strings, each flag as its spellings joined by
/// `|`, the long one first.
struct Command {
    name: &'static str,
    usage: &'static str,
    switches: &'static str,
    valued: &'static str,
    check: fn(&Args) -> Result<Run, String>,
}

/// The subcommands, dispatched on `argv[1]`; any other command line goes
/// to [`RUNNER`].
static COMMANDS: &[Command] = &[
    Command {
        name: "sweep",
        usage: SWEEP_USAGE,
        switches: "--quick",
        valued: "--topology --mechanism --profile --sizes --alpha --trials --max-wall \
                 --max-trials-per-point --min-trials --inject-panic --seed --workers",
        check: sweep_command,
    },
    Command {
        name: "stress",
        usage: "usage: repro stress --n <voters> --updates <count> [--batch K] [--seed S] \
                [--zipf S] [--mix delegate,vote,abstain] [--wal DIR] [--sync-every R] \
                [--snapshot-every R] [--crash-at K:fail|short-write|corrupt | seeded] \
                [--serve] [--obs-summary] [--obs-jsonl PATH]",
        switches: "--serve --obs-summary",
        valued: "--n --updates --batch --seed --zipf --mix --wal --sync-every \
                 --snapshot-every --crash-at --obs-jsonl",
        check: stress_command,
    },
    Command {
        name: "recover",
        usage: "usage: repro recover --dir DIR [--verify-full-replay]",
        switches: "--verify-full-replay",
        valued: "--dir",
        check: recover_command,
    },
    Command {
        name: "store-bench",
        usage: "usage: repro store-bench [--n N] [--updates U] [--seed S] [--dir DIR] \
                [--iters K] [--min-speedup X]",
        switches: "",
        valued: "--n --updates --seed|-s --dir --iters --min-speedup",
        check: store_bench_command,
    },
    Command {
        name: "conformance",
        usage: "usage: repro conformance [--quick] [--seed N] [--json PATH] \
                [--only CHECK[,CHECK...]] [--case SUBSTR] [--mutate MUTANT] [--no-corpus]",
        switches: "--quick|-q --no-corpus",
        valued: "--seed|-s --json|-j --only --case --mutate",
        check: conformance_command,
    },
    Command {
        name: "dynamics",
        usage: "usage: repro dynamics [--quick] [--seed N] [--workers N] [--rounds N] \
                [--coalitions K1,K2,...] [--wal DIR] [--obs-summary] [--obs-jsonl PATH]",
        switches: "--quick|-q --obs-summary",
        valued: "--seed|-s --workers|-w --rounds --coalitions --wal --obs-jsonl",
        check: dynamics_command,
    },
    Command {
        name: "ranked",
        usage: "usage: repro ranked [--quick] [--seed N] [--ranks R] [--trials T]",
        switches: "--quick|-q",
        valued: "--seed|-s --ranks --trials",
        check: ranked_command,
    },
    Command {
        name: "serve-bench",
        usage: "usage: repro serve-bench [--quick] [--n N] [--updates U] \
                [--seed S] [--window-us W] [--publish-every E] [--dir DIR] [--kill-at K] \
                [--obs-summary] [--obs-jsonl PATH]",
        switches: "--quick|-q --obs-summary",
        valued: "--n --updates --seed|-s --window-us --publish-every --dir --kill-at --obs-jsonl",
        check: serve_bench_command,
    },
    Command {
        name: "serve-recover",
        usage: "usage: repro serve-recover --dir DIR [--expect-digest HEX]",
        switches: "",
        valued: "--dir --expect-digest",
        check: serve_recover_command,
    },
    Command {
        name: "serve",
        usage: "usage: repro serve (--selftest | --socket PATH) [--n N] [--default-p P]",
        switches: "--selftest",
        valued: "--socket --n --default-p",
        check: serve_command,
    },
    Command {
        name: "perf-gate",
        usage: "usage: repro perf-gate [--only WORKLOAD[,WORKLOAD...]] [--pairs N] [--seconds S]",
        switches: "",
        valued: "--only --pairs --seconds",
        check: perf_gate_command,
    },
];

/// The experiment runner: `repro [flags] <id>... | all | verify`, the
/// only command that takes positional arguments. Its usage line lists
/// [`COMMANDS`] too (see [`usage`]).
static RUNNER: Command = Command {
    name: "",
    usage: "usage: repro [--list] [--quick] [--seed N] [--workers N] [--json PATH] \
            [--csv-dir DIR] [--max-wall SECS] [--fail-fast] \
            [--obs-summary] [--obs-jsonl PATH] \
            <id>... | all | verify",
    switches: "--list|-l --quick|-q --fail-fast --obs-summary",
    valued: "--seed|-s --workers|-w --json|-j --csv-dir --max-wall --obs-jsonl",
    check: runner_command,
};

/// The subcommand called `name`.
fn command(name: &str) -> &'static Command {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .expect("a subcommand")
}

/// The command `argv[0]` names and the arguments after its name.
fn dispatch(argv: &[String]) -> (&'static Command, &[String]) {
    match argv
        .first()
        .and_then(|a| COMMANDS.iter().find(|c| c.name == a))
    {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&RUNNER, argv),
    }
}

/// `cmd`'s usage line; the runner's also lists every subcommand.
fn usage(cmd: &Command) -> String {
    let mut line = cmd.usage.to_string();
    if cmd.name.is_empty() {
        for c in COMMANDS {
            let bare = c.switches.is_empty() && c.valued.is_empty();
            let more = if bare { "" } else { " ..." };
            line.push_str(&format!(" | {}{more}", c.name));
        }
    }
    line
}

/// The switch every command takes: print its usage and exit 0.
const HELP: &str = "--help|-h";

/// A command line checked against one command's flags (and [`HELP`]):
/// every flag is known and every valued flag has its value. Values are
/// typed on lookup.
struct Args {
    /// `(long name, value)` per flag given, in command-line order.
    flags: Vec<(&'static str, Option<String>)>,
    /// Positional arguments (only the experiment runner takes any).
    ids: Vec<String>,
}

impl Args {
    fn parse(cmd: &Command, argv: &[String]) -> Result<Args, String> {
        // The long name of the flag in `specs` that `arg` spells.
        let find = |specs: &'static str, arg: &str| {
            let mut flags = specs.split_whitespace();
            let spec = flags.find(|s| s.split('|').any(|name| name == arg))?;
            spec.split('|').next()
        };
        let mut args = Args {
            flags: Vec::new(),
            ids: Vec::new(),
        };
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            if let Some(flag) = find(cmd.switches, arg).or_else(|| find(HELP, arg)) {
                args.flags.push((flag, None));
            } else if let Some(flag) = find(cmd.valued, arg) {
                let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                args.flags.push((flag, Some(value.clone())));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            } else if cmd.name.is_empty() {
                args.ids.push(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`, typed by `parse`. Every value
    /// given is checked, and an error names the flag.
    fn get_with<T, E: Display>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for (_, v) in self.flags.iter().filter(|(f, _)| *f == flag) {
            let v = v.as_deref().unwrap_or_default();
            last = Some(parse(v).map_err(|e| format!("bad {flag} value {v:?}: {e}"))?);
        }
        Ok(last)
    }

    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get_with(flag, str::parse)
    }

    /// A comma-separated list; one bad element rejects the whole value.
    fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: Display,
    {
        self.get_with(flag, |v| {
            v.split(',')
                .map(|p| p.trim().parse().map_err(|e| format!("element {p:?}: {e}")))
                .collect::<Result<Vec<T>, String>>()
        })
    }
}

/// An integer that must be at least 1.
fn at_least_one<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, &'static str> {
    v.parse()
        .ok()
        .filter(|x| *x >= T::from(1))
        .ok_or("want an integer >= 1")
}

/// The ld-obs sinks a command line asks for: the human summary table on
/// stdout (`--obs-summary`) and/or the JSONL event stream to a file
/// (`--obs-jsonl PATH`).
struct ObsSinks {
    summary: bool,
    jsonl: Option<PathBuf>,
}

impl ObsSinks {
    fn of(a: &Args) -> Result<ObsSinks, String> {
        Ok(ObsSinks {
            summary: a.has("--obs-summary"),
            jsonl: a.get("--obs-jsonl")?,
        })
    }

    fn emit(&self) {
        if !self.summary && self.jsonl.is_none() {
            return;
        }
        let snap = ld_obs::snapshot();
        if self.summary {
            print!(
                "{}",
                ld_sim::obs_report::summary_table(&snap, false).to_text()
            );
        }
        if let Some(path) = &self.jsonl {
            match ld_sim::obs_report::write_jsonl(&snap, path) {
                Ok(()) => eprintln!("obs events written to {}", path.display()),
                Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
            }
        }
    }
}

const SWEEP_USAGE: &str = "usage: repro sweep --topology <complete|star|cycle|regular:d|bounded:k|\
     mindegree:k|ba:m|ws:k,beta|er:p> --mechanism <direct|algorithm1:j|\
     algorithm2:d,j|quarter|greedy|probabilistic:q|abstain:q|weighted:k|capped:w> \
     --profile <uniform:lo,hi|aroundhalf:a,spread|twopoint:lo,hi,frac|normal:m,sd> \
     --sizes n1,n2,... [--alpha A] [--trials N] [--max-wall SECS] \
     [--max-trials-per-point N] [--min-trials N] [--inject-panic N] \
     [--seed N] [--workers N] [--quick]";

/// A typed `repro sweep` command line.
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

fn sweep_args(a: &Args) -> Result<SweepArgs, String> {
    use ld_sim::sweep::{MechanismSpec, SweepSpec, TopologySpec};
    let (Some(topology), Some(mechanism), Some(profile), Some(sizes)) = (
        a.get_with("--topology", TopologySpec::parse)?,
        a.get_with("--mechanism", MechanismSpec::parse)?,
        a.get_with("--profile", SweepSpec::parse_profile)?,
        a.get_with("--sizes", SweepSpec::parse_sizes)?,
    ) else {
        return Err("--topology, --mechanism, --profile and --sizes are required".to_string());
    };
    let mut cfg = ExperimentConfig {
        quick: a.has("--quick"),
        ..Default::default()
    };
    cfg.seed = a.get("--seed")?.unwrap_or(cfg.seed);
    cfg.workers = a
        .get_with("--workers", at_least_one)?
        .unwrap_or(cfg.workers);
    let budget = RunBudget {
        max_wall_secs: a.get("--max-wall")?,
        max_trials_per_point: a.get("--max-trials-per-point")?,
        min_trials_for_report: a
            .get("--min-trials")?
            .unwrap_or(RunBudget::default().min_trials_for_report),
    };
    let mut run_id = String::from("sweep");
    for (flag, v) in a
        .flags
        .iter()
        .filter(|(f, _)| !matches!(*f, "--seed" | "--workers"))
    {
        if let Some(v) = v {
            run_id.push_str(&format!(" {flag} {v}"));
        }
    }
    run_id.push_str(&format!(" --seed {} --workers {}", cfg.seed, cfg.workers));
    Ok(SweepArgs {
        spec: SweepSpec {
            topology,
            mechanism,
            profile,
            alpha: a.get("--alpha")?.unwrap_or(0.05),
            sizes,
            trials: a.get("--trials")?.unwrap_or(48),
        },
        budget,
        inject_panic: a.get("--inject-panic")?,
        cfg,
        run_id,
    })
}

/// Handles `repro sweep ...` (see [`SWEEP_USAGE`]): runs the sweep under
/// the fault-tolerant harness and prints its table and quarantine log.
fn sweep_command(a: &Args) -> Result<Run, String> {
    let args = sweep_args(a)?;
    let mechanism = args
        .spec
        .mechanism
        .build()
        .map_err(|e| format!("--mechanism: {e}"))?;
    let mechanism: Box<dyn ld_core::mechanisms::Mechanism + Sync> = match args.inject_panic {
        Some(panic_at) => Box::new(PanicInjection {
            inner: mechanism,
            panic_at,
        }),
        None => mechanism,
    };
    Ok(Box::new(move || {
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
    }))
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
fn stress_command(a: &Args) -> Result<Run, String> {
    use ld_live::workload::TraceConfig;
    use ld_sim::experiments::stress::{run_churn, ChurnSpec};
    use ld_sim::table::Table;

    let (Some(n), Some(updates)) = (a.get("--n")?, a.get::<usize>("--updates")?) else {
        return Err("--n and --updates are required".to_string());
    };
    let batch = a.get_with("--batch", at_least_one)?.unwrap_or(64usize);
    let seed = a.get("--seed")?.unwrap_or(ExperimentConfig::default().seed);
    let mut trace = TraceConfig::balanced(n);
    if let Some(s) = a.get("--zipf")? {
        trace.zipf_s = s;
    }
    if let Some(mix) = a.list::<f64>("--mix")? {
        let [delegate, vote, abstain] = mix[..] else {
            return Err("bad --mix (want three fractions, e.g. 0.55,0.2,0.05)".to_string());
        };
        (trace.delegate_frac, trace.vote_frac, trace.abstain_frac) = (delegate, vote, abstain);
    }
    let wal: Option<PathBuf> = a.get("--wal")?;
    let fault = a.get_with("--crash-at", |v| match v.split_once(':') {
        // Records undercount I/O ops (fsyncs, snapshots), so drawing
        // from the update count keeps the planned op inside the run.
        None if v == "seeded" => Ok(ld_store::FaultPlan::seeded(seed, 0xC2A5, updates as u64)),
        split => split
            .and_then(|(k, kind)| {
                Some(ld_store::FaultPlan {
                    at: k.parse().ok()?,
                    kind: ld_store::FaultKind::parse(kind)?,
                })
            })
            .ok_or("want K:fail|short-write|corrupt, or seeded"),
    })?;
    if fault.is_some() && wal.is_none() {
        return Err("--crash-at needs --wal DIR (the fault injector lives in the store)".into());
    }
    let opts = ld_store::StoreOptions {
        sync_every: a.get("--sync-every")?.unwrap_or(1024),
        snapshot_every: a
            .get("--snapshot-every")?
            .unwrap_or(((updates / 8) as u64).max(1)),
        fault: fault.unwrap_or_else(ld_store::FaultPlan::none),
    };
    let serve = a.has("--serve");
    let obs = ObsSinks::of(a)?;
    Ok(Box::new(move || {
        // The durable replica: tee every accepted update through the WAL
        // before moving on, so the run is recoverable after kill -9.
        let durable = match &wal {
            None => None,
            Some(dir) => {
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
        if let (Some(run), Some(dir)) = (&durable, &wal) {
            if let Some(crash) = &run.crashed {
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
                obs.emit();
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
                batch,
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
                (format!("batch{batch}"), &batched),
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
        let (table, replicas_agree, durable_agrees) = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
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
        obs.emit();
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
    }))
}

/// Handles `repro conformance [--quick] [--seed N] [--json PATH]
/// [--only CHECK[,CHECK...]] [--case SUBSTR] [--mutate MUTANT] [--no-corpus]`:
/// runs the `ld-testkit` differential/metamorphic grid plus the
/// simulation-layer checks, prints every mismatch with its shrunk minimal
/// instance and a one-line reproduction command, and exits 0 when clean,
/// 1 on any mismatch and 2 on a usage error (including filters that
/// select no check). `--mutate` injects one `ld_testkit::Mutation`; the
/// `repro` line of a mutant's mismatch replays it.
fn conformance_command(a: &Args) -> Result<Run, String> {
    use ld_testkit::{ConformanceConfig, Mutation};

    let defaults = ConformanceConfig::default();
    let cfg = ConformanceConfig {
        seed: a.get("--seed")?.unwrap_or(defaults.seed),
        quick: a.has("--quick"),
        only: a.get("--only")?,
        case_filter: a.get("--case")?,
        mutation: a.get_with("--mutate", |v| {
            Mutation::parse(v).ok_or_else(|| {
                let known: Vec<&str> = Mutation::all().into_iter().map(Mutation::id).collect();
                format!("known: {}", known.join(", "))
            })
        })?,
        include_corpus: !a.has("--no-corpus"),
    };
    let json: Option<PathBuf> = a.get("--json")?;
    Ok(Box::new(move || {
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
        // An unknown `--only` id, or filters that select no check, come
        // back as a "config" mismatch: a usage error.
        let config_errors: Vec<_> = report
            .mismatches
            .iter()
            .filter(|m| m.check == "config")
            .collect();
        if !config_errors.is_empty() {
            for m in config_errors {
                eprintln!("error: {}", m.detail);
            }
            eprintln!("{}", usage(command("conformance")));
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
        ExitCode::FAILURE
    }))
}

/// Handles `repro dynamics [--quick] [--seed N] [--workers N]
/// [--rounds N] [--coalitions K1,K2,..] [--wal DIR] [--obs-summary]
/// [--obs-jsonl PATH]`: runs best-response
/// re-delegation rounds over the seeded topology grid to a fixpoint, a
/// detected limit cycle, or the round cap, then sweeps a seeded
/// variance-seeking coalition of each requested size. Every trajectory
/// is deterministic given `(seed, round)` — the printed grid digest is
/// bit-identical across worker counts. With
/// `--wal DIR` every round's accepted moves are teed through an
/// `ld-store` WAL and recovery is verified bit-for-bit; a divergence
/// (or a grid with no converging cell) is a non-zero exit.
fn dynamics_command(a: &Args) -> Result<Run, String> {
    use ld_sim::dynamics::{run_dynamics, DynamicsConfig};

    let seed = a.get("--seed")?.unwrap_or(ExperimentConfig::default().seed);
    let mut cfg = if a.has("--quick") {
        DynamicsConfig::quick(seed)
    } else {
        DynamicsConfig::new(seed)
    };
    if let Some(w) = a.get_with("--workers", at_least_one)? {
        cfg.workers = w;
    }
    if let Some(r) = a.get_with("--rounds", at_least_one)? {
        cfg.max_rounds = r;
    }
    if let Some(mut ks) = a.list("--coalitions")? {
        if !ks.contains(&0) {
            // The k=0 baseline anchors every delta column.
            ks.insert(0, 0);
        }
        cfg.coalitions = ks;
    }
    cfg.wal = a.get("--wal")?;
    let obs = ObsSinks::of(a)?;
    Ok(Box::new(move || {
        eprintln!(
            "dynamics: {} grid, seed {seed}, {} worker(s), cap {} round(s){} ...",
            if cfg.quick { "quick" } else { "full" },
            cfg.workers,
            cfg.max_rounds,
            if cfg.wal.is_some() { ", WAL tee" } else { "" }
        );
        let report = match run_dynamics(&cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        for table in &report.tables {
            print!("{}", table.to_text());
        }
        println!("grid digest: {:#018x}", report.grid_digest);
        if cfg.wal.is_some() {
            println!("cross-check: WAL recovery == live trajectory (every cell): ok");
        }
        obs.emit();
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
    }))
}

/// Handles `repro ranked [--quick] [--seed N] [--ranks R] [--trials T]`:
/// runs the ranked-delegation suite — MinDepth and MinSum selection over
/// per-voter preference lists on the seeded topology grid, compared
/// against the paper's local mechanisms, plus empirical DNH / PG / SPG
/// verdicts for both rules on the complete-graph family. The printed
/// grid digest folds both rules' selected forests and is bit-identical
/// for a given `(seed, ranks, trials)`.
fn ranked_command(a: &Args) -> Result<Run, String> {
    use ld_sim::ranked::{run_ranked, RankedConfig};

    let seed = a.get("--seed")?.unwrap_or(ExperimentConfig::default().seed);
    let mut cfg = if a.has("--quick") {
        RankedConfig::quick(seed)
    } else {
        RankedConfig::new(seed)
    };
    if let Some(r) = a.get_with("--ranks", at_least_one)? {
        cfg.ranks = r;
    }
    if let Some(t) = a.get_with("--trials", at_least_one)? {
        cfg.trials = t;
    }
    Ok(Box::new(move || {
        eprintln!(
            "ranked: {} grid, seed {seed}, lists up to {} entr{}, {} trial(s)/cell ...",
            if cfg.quick { "quick" } else { "full" },
            cfg.ranks,
            if cfg.ranks == 1 { "y" } else { "ies" },
            cfg.trials,
        );
        let report = match run_ranked(&cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
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
    }))
}

/// Handles `repro recover --dir DIR [--verify-full-replay]`: rehydrates
/// the engine from the newest valid binary snapshot plus the WAL tail,
/// proves the recovered state against a from-scratch resolve of its own
/// action vector (and, with `--verify-full-replay`, against a genesis +
/// full-log replay, bit for bit), and prints the recovery summary and
/// tally digest. Any divergence is a non-zero exit.
fn recover_command(a: &Args) -> Result<Run, String> {
    use ld_sim::table::Table;

    let Some(dir) = a.get::<PathBuf>("--dir")? else {
        return Err("--dir is required".to_string());
    };
    let full_replay = a.has("--verify-full-replay");
    Ok(Box::new(move || {
        let v = match ld_sim::durable::verify_recovery(&dir, full_replay) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
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
    }))
}

/// Handles `repro store-bench [--n N] [--updates U] [--seed S]
/// [--dir DIR] [--iters K] [--min-speedup X]`: builds a store under
/// churn with periodic compaction, then times snapshot+tail recovery
/// against genesis + full-log replay (bit-identity verified each
/// iteration). Exits non-zero if the speedup falls below `--min-speedup`
/// (default 10x) — the gate the snapshot format exists to win.
fn store_bench_command(a: &Args) -> Result<Run, String> {
    use ld_sim::table::Table;

    let n = a.get("--n")?.unwrap_or(10_000usize);
    let updates = a.get("--updates")?.unwrap_or(200_000usize);
    let seed = a.get("--seed")?.unwrap_or(ExperimentConfig::default().seed);
    let dir: Option<PathBuf> = a.get("--dir")?;
    let iters = a.get("--iters")?.unwrap_or(3u32);
    let min_speedup = a.get("--min-speedup")?.unwrap_or(10.0f64);
    Ok(Box::new(move || {
        let scratch = dir.is_none();
        let dir = dir.unwrap_or_else(|| ld_sim::durable::scratch_dir("store-bench"));
        eprintln!("store-bench: n={n}, {updates} updates, seed {seed}, best of {iters} ...");
        let outcome = ld_sim::durable::store_bench(&dir, n, updates, seed, iters);
        if scratch {
            std::fs::remove_dir_all(&dir).ok();
        }
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
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
    }))
}

/// Handles `repro serve-bench [--quick] [--n N]
/// [--updates U] [--seed S] [--window-us W] [--publish-every E]
/// [--dir DIR] [--kill-at K] [--obs-summary] [--obs-jsonl PATH]`:
/// streams a seeded churn trace through an `ld-serve` election
/// (batched ingest, epoch-published tallies), reports throughput and
/// ingest→publish latency percentiles, and fails unless the published
/// tally is bit-identical to a single-engine oracle streaming the same
/// updates. With `--dir` the election runs on an `ld-store` WAL; with
/// `--kill-at K` the run commits an epoch after K updates,
/// streams the rest uncommitted, and dies abruptly — `repro
/// serve-recover --dir DIR` must then restore the committed epoch.
fn serve_bench_command(a: &Args) -> Result<Run, String> {
    use ld_sim::serve::{run_serve_bench, ServeBenchSpec};
    use ld_sim::table::Table;
    use std::time::Duration;

    let seed = a.get("--seed")?.unwrap_or(ExperimentConfig::default().seed);
    let mut spec = if a.has("--quick") {
        ServeBenchSpec::quick(seed)
    } else {
        ServeBenchSpec::full(seed)
    };
    if let Some(n) = a.get("--n")? {
        spec.trace = ld_live::workload::TraceConfig::balanced(n);
    }
    if let Some(u) = a.get("--updates")? {
        spec.updates = u;
    }
    if let Some(w) = a.get("--window-us")? {
        spec.window = Duration::from_micros(w);
    }
    if let Some(e) = a.get("--publish-every")? {
        spec.publish_every = e;
    }
    spec.dir = a.get("--dir")?;
    spec.kill_at = a.get("--kill-at")?;
    let obs = ObsSinks::of(a)?;
    Ok(Box::new(move || {
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
        obs.emit();
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
    }))
}

/// Handles `repro serve-recover --dir DIR [--expect-digest HEX]`:
/// restarts a durable election from its meta + identity log +
/// snapshot/WAL files, replays the WAL to the last committed epoch, and
/// verifies the tally digest against the epoch log (a mismatch is a
/// typed error and a non-zero exit).
fn serve_recover_command(a: &Args) -> Result<Run, String> {
    use ld_sim::table::Table;

    let Some(dir) = a.get::<PathBuf>("--dir")? else {
        return Err("--dir is required".to_string());
    };
    let expect_digest = a.get_with("--expect-digest", |v| {
        u64::from_str_radix(v.trim_start_matches("0x"), 16)
    })?;
    Ok(Box::new(move || {
        let (report, snap) = match ld_sim::serve::run_serve_recover(&dir) {
            Ok(recovered) => recovered,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
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
    }))
}

/// Handles `repro serve (--selftest | --socket PATH) [--n N]
/// [--default-p P]`: hosts one election behind the binary
/// wire protocol. `--selftest` drives a register/submit/flush/query
/// session through the in-process loopback (which still round-trips
/// every frame through the codec) and exits. `--socket PATH` serves a
/// Unix domain socket until SIGTERM or a client `Shutdown` request,
/// then drains ingest, fsyncs, and publishes a final epoch.
fn serve_command(a: &Args) -> Result<Run, String> {
    let socket: Option<PathBuf> = a.get("--socket")?;
    let n = a.get("--n")?.unwrap_or(1_000u32);
    let default_p = a.get("--default-p")?.unwrap_or(0.55f64);
    if a.has("--selftest") == socket.is_some() {
        return Err("give exactly one of --selftest and --socket PATH".to_string());
    }
    Ok(Box::new(move || serve(socket, n, default_p)))
}

/// Runs `repro serve`: the loopback selftest when `socket` is `None`.
fn serve(socket: Option<PathBuf>, n: u32, default_p: f64) -> ExitCode {
    use ld_serve::{Host, LoopbackClient, Request, Response};

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

    let Some(path) = socket else {
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
    };

    #[cfg(unix)]
    {
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
        let _ = path;
        eprintln!("repro serve --socket needs a Unix target (use --selftest here)");
        ExitCode::FAILURE
    }
}

/// Handles `repro perf-gate`: the same-host perfbench A/B of
/// [`ld_sim::perf_gate`], on every workload with the gate's default
/// pairs and run length unless `--only`, `--pairs` or `--seconds` say
/// otherwise. Exits 1 on a regression or a correctness failure, 2 when
/// the gate cannot run (an unknown workload included).
fn perf_gate_command(a: &Args) -> Result<Run, String> {
    use ld_sim::perf_gate::Plan;
    let default = Plan::default();
    let plan = Plan {
        only: a.list("--only")?,
        pairs: a
            .get_with("--pairs", at_least_one)?
            .unwrap_or(default.pairs),
        seconds: a
            .get_with("--seconds", at_least_one)?
            .unwrap_or(default.seconds),
    };
    Ok(Box::new(move || match ld_sim::perf_gate::run(&plan) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf-gate: error: {e}");
            ExitCode::from(2)
        }
    }))
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

fn report_quarantine(entries: &[QuarantineEntry]) {
    if entries.is_empty() {
        return;
    }
    eprintln!("quarantine log ({} failure(s)):", entries.len());
    for q in entries {
        eprintln!("  {q}");
    }
}

/// Handles the experiment runner (see [`RUNNER`]): lists the registry,
/// runs `verify`, or runs the named experiments (`all` for every one).
fn runner_command(a: &Args) -> Result<Run, String> {
    let mut cfg = ExperimentConfig {
        quick: a.has("--quick"),
        ..Default::default()
    };
    cfg.seed = a.get("--seed")?.unwrap_or(cfg.seed);
    cfg.workers = a
        .get_with("--workers", at_least_one)?
        .unwrap_or(cfg.workers);
    let json: Option<PathBuf> = a.get("--json")?;
    let csv_dir: Option<PathBuf> = a.get("--csv-dir")?;
    let max_wall: Option<f64> = a.get("--max-wall")?;
    let fail_fast = a.has("--fail-fast");
    let obs = ObsSinks::of(a)?;

    let list = a.has("--list");
    if list || a.ids.is_empty() {
        let hint = !list;
        return Ok(Box::new(move || {
            println!("available experiments:");
            for info in experiments::all() {
                println!(
                    "  {:<14} {:<36} {}",
                    info.id, info.paper_ref, info.description
                );
            }
            if hint {
                println!("\nrun with: repro all  (or a list of ids)");
            }
            ExitCode::SUCCESS
        }));
    }

    let all = a.ids.iter().any(|id| id == "all");
    if !all && a.ids.iter().any(|id| id == "verify") {
        return Ok(Box::new(move || {
            eprintln!(
                "verifying every paper claim ({} mode) ...",
                if cfg.quick { "quick" } else { "full" }
            );
            match ld_sim::verify::verify_all(&cfg) {
                Ok(verdicts) => {
                    print!("{}", ld_sim::verify::to_table(&verdicts).to_text());
                    obs.emit();
                    let failed = verdicts.iter().filter(|v| !v.pass).count();
                    if failed > 0 {
                        eprintln!("{failed} claim(s) FAILED");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("all {} claims PASS", verdicts.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error during verification: {e}");
                    ExitCode::FAILURE
                }
            }
        }));
    }

    let infos = if all {
        experiments::all()
    } else {
        a.ids
            .iter()
            .map(|id| experiments::find(id))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    };
    Ok(Box::new(move || {
        let start = Instant::now();
        let mut results: Vec<ExperimentResult> = Vec::new();
        let mut quarantine: Vec<QuarantineEntry> = Vec::new();
        for info in &infos {
            if max_wall.is_some_and(|max| start.elapsed().as_secs_f64() >= max) {
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
                if fail_fast {
                    report_quarantine(&quarantine);
                    return ExitCode::FAILURE;
                }
            }
            print!("{}", report::to_markdown(std::slice::from_ref(&result)));
            results.push(result);
        }

        if let Some(dir) = &csv_dir {
            if let Err(e) = report::write_csv_dir(&results, dir) {
                eprintln!("error writing CSVs to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote CSVs to {}", dir.display());
        }

        if let Some(path) = &json {
            if let Err(e) = report::write_json(&results, path) {
                eprintln!("error writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }

        report_quarantine(&quarantine);
        obs.emit();
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
    }))
}

/// True if an experiment panicked or errored. `repro` then exits 1; a run
/// only truncated by the user's own `--max-wall` still exits 0.
fn any_degraded(results: &[ExperimentResult]) -> bool {
    results
        .iter()
        .any(|r| matches!(r.status, PointStatus::Degraded { .. }))
}

/// Parses `argv` (without the program name) against the command it
/// names; a usage error is an error message for that command. With
/// [`HELP`] the run prints the command's usage instead.
fn parse_line(argv: &[String]) -> (&'static Command, Result<Run, String>) {
    let (cmd, rest) = dispatch(argv);
    let run = Args::parse(cmd, rest).and_then(|a| -> Result<Run, String> {
        if a.has("--help") {
            Ok(Box::new(|| {
                println!("{}", usage(cmd));
                ExitCode::SUCCESS
            }))
        } else {
            (cmd.check)(&a)
        }
    });
    (cmd, run)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_line(&argv) {
        (_, Ok(run)) => run(),
        (cmd, Err(e)) => {
            eprintln!("error: {e}\n{}", usage(cmd));
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// Checks a command line (without `repro`) and never runs it.
    fn checked(line: &str) -> Result<(), String> {
        parse_line(&argv(line)).1.map(drop)
    }

    const VALID: &str =
        "--topology complete --mechanism algorithm1:1 --profile uniform:0.35,0.6 --sizes 16,24";

    /// Valid lines beside ci.sh's; with them, every spelling of every
    /// flag of every command is used at least once.
    const VALID_LINES: &[&str] = &[
        "--list",
        "-l -q -s 3 -w 2 -j r.json --csv-dir d --max-wall 9.5 --fail-fast fig1 thm2",
        "all --quick --seed 1 --workers 1 --json r.json --obs-summary --obs-jsonl e.jsonl",
        "verify --quick",
        "--help",
        "-h",
        "sweep --topology complete --mechanism algorithm1:1 --profile uniform:0.35,0.6 \
         --sizes 16,24 --trials 8 --inject-panic 24 --seed 7 --workers 2 --quick",
        "sweep --topology ws:4,0.1 --mechanism greedy --profile normal:0.5,0.1 --sizes 64 \
         --alpha 0.1 --max-wall 5 --max-trials-per-point 9 --min-trials 2",
        "stress --n 512 --updates 2000 --batch 8 --seed 3 --zipf 1.1 --mix 0.5,0.3,0.2 \
         --wal w --sync-every 16 --snapshot-every 64 --crash-at 7:short-write --serve \
         --obs-summary --obs-jsonl e.jsonl",
        "recover --dir d",
        "store-bench --n 64 --updates 100 -s 2 --dir d --iters 1 --min-speedup 1.5",
        "store-bench --seed 1",
        "conformance -q -s 2 -j c.json --only tally-oracle --case n8 --no-corpus",
        "conformance --seed 9 --json c.json --mutate tie-flip",
        "dynamics -q -s 2 -w 2 --rounds 4 --coalitions 1,2 --wal d --obs-summary \
         --obs-jsonl e.jsonl",
        "dynamics --quick --seed 1 --workers 1",
        "ranked -q -s 2 --ranks 3 --trials 4",
        "ranked --quick --seed 1",
        "serve-bench -q -s 2 --n 64 --updates 100 --window-us 50 --publish-every 4 \
         --dir d --kill-at 50 --obs-summary --obs-jsonl e.jsonl",
        "serve-bench --quick --seed 1",
        "serve-recover --dir d --expect-digest 0x90e65a9dfdabbbd0",
        "serve --selftest --n 100 --default-p 0.6",
        "serve --socket s",
        "perf-gate",
        "perf-gate --only serve-epochs,gain-dense-exact --pairs 10 --seconds 10",
    ];

    /// `(line, text the error must contain)`: for each command an
    /// unknown flag, a missing value and a bad value, each named.
    const BAD_LINES: &[(&str, &str)] = &[
        ("--bogus", "--bogus"),
        ("all --seed", "--seed"),
        ("all --seed x", "--seed"),
        ("all -w -1", "--workers"),
        ("all --workers 0", "--workers"),
        ("bogus-experiment", "bogus-experiment"),
        ("sweep VALID --resume x", "--resume"),
        ("sweep VALID --trials", "--trials needs a value"),
        ("sweep VALID --trials abc", "--trials"),
        ("sweep VALID --seed x", "--seed"),
        ("sweep VALID --workers -1", "--workers"),
        ("sweep VALID --workers 0", "--workers"),
        ("sweep VALID --topology ring", "--topology"),
        ("sweep --topology complete --sizes 16", "required"),
        ("stress --n 512 --updates 2000 --bacth 8", "--bacth"),
        ("stress --n 512 --updates 2000 --batch", "--batch"),
        ("stress --n 512 --updates 2000 --batch eight", "--batch"),
        ("stress --n 512 --updates 2000 --batch 0", "--batch"),
        ("stress --n 512 --updates 2000 --mix 0.5,x,0.2,0.1", "--mix"),
        ("stress --n 512 --updates 2000 --mix 0.5,0.2", "--mix"),
        (
            "stress --n 512 --updates 2000 --crash-at 5:boom --wal d",
            "--crash-at",
        ),
        (
            "stress --n 512 --updates 2000 --crash-at seeded",
            "--crash-at",
        ),
        ("stress --n 512", "--updates"),
        ("recover --dir d --full", "--full"),
        ("recover --dir", "--dir"),
        ("recover", "--dir"),
        ("store-bench --itres 2", "--itres"),
        ("store-bench --iters", "--iters"),
        ("store-bench --iters two", "--iters"),
        ("conformance --quik", "--quik"),
        ("conformance --only", "--only"),
        ("conformance --mutate nope", "--mutate"),
        ("dynamics --quick --coalition 1", "--coalition"),
        ("dynamics --quick --coalitions", "--coalitions"),
        ("dynamics --quick --coalitions 1,x", "--coalitions"),
        ("dynamics --quick --coalitions 1,2,", "--coalitions"),
        (
            "dynamics -q -s 2 -w 2 --kernel packed:32 --rounds 4 --coalitions 1,2 --wal d \
             --obs-summary --obs-jsonl e.jsonl",
            "--kernel",
        ),
        (
            "dynamics --quick --seed 1 --workers 1 --kernel exact",
            "--kernel",
        ),
        ("dynamics --kernel packed", "--kernel"),
        ("dynamics --kernel packed:lots", "--kernel"),
        ("dynamics --quick --workers 0", "--workers"),
        ("dynamics --quick --rounds 0", "--rounds"),
        ("ranked --rank 2", "--rank"),
        ("ranked --ranks", "--ranks"),
        ("ranked --ranks 0", "--ranks"),
        ("ranked --trials many", "--trials"),
        ("serve-bench --quick --kill-now", "--kill-now"),
        ("serve-bench --quick --kill-at", "--kill-at"),
        ("serve-bench --quick --kill-at soon", "--kill-at"),
        ("serve-recover --dir d --digest 1", "--digest"),
        ("serve-recover --dir d --expect-digest", "--expect-digest"),
        (
            "serve-recover --dir d --expect-digest 0xzz",
            "--expect-digest",
        ),
        ("serve --selftest --port 1", "--port"),
        ("serve --selftest --n", "--n"),
        ("serve --selftest --n lots", "--n"),
        ("serve --selftest --socket s", "--selftest"),
        ("perf-gate --quick", "--quick"),
        ("perf-gate base", "base"),
        ("perf-gate --only", "--only needs a value"),
        ("perf-gate --pairs 0", "--pairs"),
        ("perf-gate --pairs ten", "--pairs"),
        ("perf-gate --pairs", "--pairs needs a value"),
        ("perf-gate --seconds 0", "--seconds"),
        ("perf-gate --seconds -3", "--seconds"),
        ("conformance extra", "extra"),
    ];

    #[test]
    fn every_ci_and_sample_line_parses_without_running() {
        let ci = include_str!("../../../../ci.sh").replace("\\\n", " ");
        let ci_lines: Vec<&str> = ci
            .lines()
            .filter_map(|l| l.trim().strip_prefix("./target/release/repro "))
            .collect();
        assert!(ci_lines.len() >= 20, "{ci_lines:?}");
        for line in ci_lines.iter().chain(VALID_LINES) {
            if let Err(e) = checked(line) {
                panic!("{line:?} was rejected: {e}");
            }
        }
        let lines: Vec<Vec<String>> = ci_lines
            .iter()
            .chain(VALID_LINES)
            .map(|l| argv(l))
            .collect();
        for cmd in COMMANDS.iter().chain([&RUNNER]) {
            let spellings = format!("{} {}", cmd.switches, cmd.valued);
            for name in spellings.split([' ', '|']).filter(|n| !n.is_empty()) {
                let used = lines
                    .iter()
                    .any(|l| std::ptr::eq(dispatch(l).0, cmd) && l.iter().any(|a| a == name));
                assert!(used, "no sample line gives `{} {name}`", cmd.name);
            }
        }
    }

    #[test]
    fn bad_lines_are_rejected_naming_the_flag() {
        for (line, named) in BAD_LINES {
            let line = line.replace("VALID", VALID);
            match checked(&line) {
                Ok(()) => panic!("{line:?} was accepted"),
                Err(e) => assert!(e.contains(named), "{line:?}: {e:?} does not name {named}"),
            }
        }
        for cmd in COMMANDS {
            let rejected = checked(&format!("{} --no-such-flag", cmd.name));
            assert!(rejected.is_err_and(|e| e.contains("--no-such-flag")));
        }
    }

    #[test]
    fn sweep_args_parse_a_valid_line() {
        let line = format!("{VALID} --trials 8 --inject-panic 24 --seed 7 --workers 2 --quick");
        let args = sweep_args(&Args::parse(command("sweep"), &argv(&line)).unwrap()).unwrap();
        assert_eq!(args.spec.sizes, vec![16, 24]);
        assert_eq!(args.spec.trials, 8);
        assert_eq!(args.inject_panic, Some(24));
        assert_eq!((args.cfg.seed, args.cfg.workers), (7, 2));
        assert!(args.cfg.quick);
        assert_eq!(
            args.run_id,
            format!("sweep {VALID} --trials 8 --inject-panic 24 --seed 7 --workers 2")
        );
    }

    #[test]
    fn help_and_module_doc_name_every_command() {
        let help = usage(&RUNNER);
        let doc = include_str!("repro.rs");
        for cmd in COMMANDS.iter().chain([&RUNNER]) {
            for spelling in HELP.split('|') {
                let line = format!("{} {spelling}", cmd.name);
                let (named, run) = parse_line(&argv(&line));
                assert!(std::ptr::eq(named, cmd), "{line:?}");
                match run {
                    Ok(run) => assert_eq!(run(), ExitCode::SUCCESS, "{line:?}"),
                    Err(e) => panic!("{line:?} was rejected: {e}"),
                }
            }
        }
        for cmd in COMMANDS {
            assert!(help.contains(&format!("| {}", cmd.name)), "{help}");
            assert!(
                doc.contains(&format!("//! repro {} ", cmd.name)),
                "{}",
                cmd.name
            );
            assert!(cmd.usage.starts_with(&format!("usage: repro {}", cmd.name)));
        }
        assert!(doc.contains("//! repro verify "));
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
