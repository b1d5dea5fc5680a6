//! `repro perf-gate`: a same-host A/B of `perfbench/` against a base
//! commit, judged by the bounds in `BENCHMARK.json`.
//!
//! The candidate is the working tree. The base is `HEAD` when a tracked
//! file has uncommitted changes, else `HEAD~1`. `git archive` exports it
//! to `target/perf-gate/base`, so a killed run leaves nothing registered in
//! `.git`. Both trees run `bash perfbench/run.sh … --trace 0` on every
//! workload in `PAIRS` pairs; the runs of a pair share a seed, and pairs
//! alternate which tree goes first, so a slow phase of the host falls on
//! both sides alike. Each metric is judged by the median per-pair ratio
//! candidate ÷ base and its seeded-bootstrap 95% CI: wholly beyond the
//! bound fails, straddling it is "unresolved" and passes. A candidate run
//! reporting `correct: false`, or more `failed` operations than the base,
//! fails too.

use ld_prob::rng::{Rng, StdRng};
use ld_testkit::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Run pairs per workload.
const PAIRS: u64 = 5;
/// Length of each perfbench run, in seconds.
const RUN_SECONDS: u32 = 3;
/// Bootstrap resamples behind each CI.
const RESAMPLES: usize = 2000;
/// The bootstrap's seed: a verdict is a pure function of the samples.
const BOOTSTRAP_SEED: u64 = 0x0005_EED0_BAC5;

/// An end-to-end metric of `BENCHMARK.json`: whether a higher value is
/// better, and how far it may worsen, as a fraction of the base.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    higher: bool,
    bound: f64,
}

/// What the gate reads from `BENCHMARK.json`.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            let entries = doc.get(key).and_then(Value::as_array);
            entries.ok_or_else(|| format!("no {key:?} list"))
        };
        let name = |entry: &Value| {
            let name = entry.get("name").and_then(Value::as_str);
            name.map(str::to_string).ok_or("an entry has no name")
        };
        let workloads = list("workloads")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?;
        let metrics = list("end_to_end")?
            .iter()
            .map(|entry| {
                let name = name(entry)?;
                let higher = match entry.get("better").and_then(Value::as_str) {
                    Some(better @ ("higher" | "lower")) => better == "higher",
                    other => return Err(format!("{name}: better is {other:?}")),
                };
                let bound = entry.get("bound").and_then(Value::as_f64);
                let bound = bound.filter(|b| b.is_finite() && *b >= 0.0);
                let bound = bound.ok_or_else(|| format!("{name}: no valid bound"))?;
                Ok(Metric {
                    name,
                    higher,
                    bound,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec { workloads, metrics })
    }
}

/// The JSON result line of one perfbench run; `metrics` maps each name
/// to `{"value": …, "unit": …}`.
#[derive(Debug, Clone)]
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: Value,
}

impl RunResult {
    fn parse(line: &str) -> Result<RunResult, String> {
        let doc = json::parse(line)?;
        let failed = doc.get("failed").and_then(Value::as_u64);
        match (doc.get("correct"), failed, doc.get("metrics")) {
            (Some(&Value::Bool(correct)), Some(failed), Some(metrics)) => Ok(RunResult {
                correct,
                failed,
                metrics: metrics.clone(),
            }),
            _ => Err("not a perfbench result line".to_string()),
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value")?.as_f64()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// The CI lies wholly within the bound.
    Within,
    /// The CI straddles the bound; the gate passes.
    Unresolved,
    /// The CI lies wholly beyond the bound; the gate fails.
    Regressed,
}

/// One metric's paired comparison: the medians of each side, the median
/// per-pair ratio candidate ÷ base and its bootstrap 95% CI.
#[derive(Debug)]
struct Judgement {
    base: f64,
    candidate: f64,
    ratio: f64,
    ci: (f64, f64),
    verdict: Verdict,
}

/// Judges one metric from paired samples: `base[i]` and `candidate[i]`
/// ran with the same seed.
fn judge(metric: &Metric, base: &[f64], candidate: &[f64]) -> Judgement {
    assert!(
        !base.is_empty() && base.len() == candidate.len(),
        "samples must pair up"
    );
    let ratios: Vec<f64> = base
        .iter()
        .zip(candidate)
        .map(|(&b, &c)| if b == c { 1.0 } else { c / b })
        .collect();
    let mut rng = StdRng::seed_from_u64(BOOTSTRAP_SEED);
    let mut resample = vec![0.0; ratios.len()];
    let mut medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            for r in resample.iter_mut() {
                *r = ratios[rng.gen_range(0..ratios.len())];
            }
            median(&resample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let rank = |q: f64| medians[((RESAMPLES - 1) as f64 * q).round() as usize];
    let ci = (rank(0.025), rank(0.975));
    let worse = |ratio: f64| match metric.higher {
        true => ratio < 1.0 - metric.bound,
        false => ratio > 1.0 + metric.bound,
    };
    let verdict = match (worse(ci.0), worse(ci.1)) {
        (true, true) => Verdict::Regressed,
        (false, false) => Verdict::Within,
        _ => Verdict::Unresolved,
    };
    Judgement {
        base: median(base),
        candidate: median(candidate),
        ratio: median(&ratios),
        ci,
        verdict,
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Judges one workload's paired runs: one judgement per metric, and why
/// the workload fails (empty when it passes). An error when a run lacks
/// one of the metrics.
fn judge_workload(
    metrics: &[Metric],
    base: &[RunResult],
    candidate: &[RunResult],
) -> Result<(Vec<Judgement>, Vec<String>), String> {
    let values = |runs: &[RunResult], name: &str| {
        let values = runs
            .iter()
            .map(|run| run.value(name))
            .collect::<Option<Vec<_>>>();
        values.ok_or(format!("a run did not report {name}"))
    };
    let mut judgements = Vec::new();
    let mut failures = Vec::new();
    for m in metrics {
        let j = judge(m, &values(base, &m.name)?, &values(candidate, &m.name)?);
        if j.verdict == Verdict::Regressed {
            failures.push(format!("{} regressed", m.name));
        }
        judgements.push(j);
    }
    let wrong = candidate.iter().filter(|run| !run.correct).count();
    if wrong > 0 {
        failures.push(format!("{wrong} candidate run(s) reported correct: false"));
    }
    let failed = |runs: &[RunResult]| runs.iter().map(|r| r.failed).sum::<u64>();
    if failed(candidate) > failed(base) {
        failures.push(format!(
            "candidate failed {} operation(s), base {}",
            failed(candidate),
            failed(base)
        ));
    }
    Ok((judgements, failures))
}

/// The base commit, given the tree's `git status --porcelain` output:
/// `HEAD` when a tracked file has uncommitted changes (the working tree is
/// the change under test), else `HEAD~1` (the last commit is). Untracked
/// (`??`) and ignored (`!!`) entries do not count.
fn base_rev(status: &str) -> &'static str {
    let tracked = |l: &&str| !l.is_empty() && !l.starts_with("??") && !l.starts_with("!!");
    if status.lines().any(|l| tracked(&l)) {
        "HEAD"
    } else {
        "HEAD~1"
    }
}

/// Runs the gate for the repository that holds the current directory,
/// printing one table per workload and a verdict line. `Ok(true)` when
/// every workload passes; `Err` when the gate could not run.
pub fn run() -> Result<bool, String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?.trim());
    let spec_path = root.join("BENCHMARK.json");
    let spec = fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Spec::parse(&text))
        .map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let rev = base_rev(&git(&root, &["status", "--porcelain"])?);
    let commit = git(&root, &["rev-parse", "--short", rev])?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perf-gate: candidate = working tree, base = {rev} ({}); {PAIRS} pairs of \
         {RUN_SECONDS} s runs per workload on {cores} core(s)",
        commit.trim()
    );
    let base = root.join("target/perf-gate/base");
    export(&root, rev, &base)?;
    let outcome = compare(&spec, &base, &root);
    let _ = fs::remove_dir_all(&base);
    outcome
}

fn compare(spec: &Spec, base_tree: &Path, candidate_tree: &Path) -> Result<bool, String> {
    let mut failures = Vec::new();
    let mut unresolved = 0;
    for workload in &spec.workloads {
        let (mut base, mut candidate) = (Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            let seed = pair + 1;
            eprintln!("perf-gate: {workload} pair {seed}/{PAIRS}");
            let base_first = pair % 2 == 0;
            for is_base in [base_first, !base_first] {
                if is_base {
                    base.push(perfbench(base_tree, workload, seed)?);
                } else {
                    candidate.push(perfbench(candidate_tree, workload, seed)?);
                }
            }
        }
        let (judgements, workload_failures) = judge_workload(&spec.metrics, &base, &candidate)?;
        println!("## perf-gate: {workload}, candidate / base over {PAIRS} pairs");
        println!(
            "{:<12} {:>14} {:>14} {:>7} {:>16} {:>8}  verdict",
            "metric", "base median", "cand. median", "ratio", "95% CI", "bound"
        );
        for (m, j) in spec.metrics.iter().zip(&judgements) {
            let bound = match m.higher {
                true => format!(">= {:.2}", 1.0 - m.bound),
                false => format!("<= {:.2}", 1.0 + m.bound),
            };
            let ci = format!("[{:.3}, {:.3}]", j.ci.0, j.ci.1);
            println!(
                "{:<12} {:>14.4} {:>14.4} {:>7.3} {ci:>16} {bound:>8}  {:?}",
                m.name, j.base, j.candidate, j.ratio, j.verdict
            );
        }
        unresolved += judgements
            .iter()
            .filter(|j| j.verdict == Verdict::Unresolved)
            .count();
        failures.extend(workload_failures.iter().map(|f| format!("{workload}: {f}")));
    }
    if failures.is_empty() {
        println!("perf-gate: PASS ({unresolved} metric(s) unresolved)");
    } else {
        println!("perf-gate: FAIL: {}", failures.join("; "));
    }
    Ok(failures.is_empty())
}

/// One untraced perfbench run in `tree`; its last stdout line is the
/// result. Each tree builds into its own default `.bench_build`.
fn perfbench(tree: &Path, workload: &str, seed: u64) -> Result<RunResult, String> {
    let (seed, seconds) = (seed.to_string(), RUN_SECONDS.to_string());
    let out = Command::new("bash")
        .arg("perfbench/run.sh")
        .args(["--workload", workload, "--seed", &seed])
        .args(["--seconds", &seconds, "--trace", "0"])
        .current_dir(tree)
        .env_remove("CARGO_TARGET_DIR")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run perfbench in {}: {e}", tree.display()))?;
    if !out.status.success() {
        return Err(format!(
            "perfbench {workload} seed {seed} in {} exited with {}",
            tree.display(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    RunResult::parse(line).map_err(|e| format!("perfbench result {line:?}: {e}"))
}

/// Writes the tree of commit `rev` into an empty `dest`.
fn export(root: &Path, rev: &str, dest: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(dest);
    let script = r#"mkdir -p "$2" && git archive --format=tar "$1" | tar -x -f - -C "$2""#;
    let status = Command::new("bash")
        .args(["-o", "pipefail", "-c", script, "export", rev])
        .arg(dest)
        .current_dir(root)
        .status();
    match status {
        Ok(status) if status.success() => Ok(()),
        _ => Err(format!("exporting {rev} to {} failed", dest.display())),
    }
}

/// `git args…` in `dir`; its stdout.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").args(args).current_dir(dir).output();
    let out = out.map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), stderr.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ops_per_s` (higher is better) and `latency_ms`, both bounded at 25%.
    fn metrics() -> Vec<Metric> {
        let spec = r#"{"workloads": [], "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "latency_ms", "better": "lower", "bound": 0.25}]}"#;
        Spec::parse(spec).unwrap().metrics
    }

    /// Paired runs reporting `ops_per_s` and `latency_ms`, each read back
    /// from a perfbench result line.
    fn runs(ops_per_s: &[f64], latency_ms: &[f64], failed: u64) -> Vec<RunResult> {
        let line = |ops: &f64, lat: &f64| {
            format!(
                "{{\"correct\": {}, \"attempted\": 100, \"failed\": {failed}, \"metrics\": \
                 {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \
                 \"latency_ms\": {{\"value\": {lat}, \"unit\": \"ms\"}}}}}}",
                failed == 0
            )
        };
        let lines = ops_per_s.iter().zip(latency_ms).map(|(o, l)| line(o, l));
        lines.map(|l| RunResult::parse(&l).unwrap()).collect()
    }

    const BASE: [f64; 5] = [100.0, 104.0, 97.0, 101.0, 99.0];
    const JITTER: [f64; 5] = [1.00, 0.97, 1.04, 1.01, 0.98];

    #[test]
    fn identical_samples_pass() {
        for m in metrics() {
            let j = judge(&m, &BASE, &BASE);
            assert_eq!(
                (j.ratio, j.ci, j.verdict),
                (1.0, (1.0, 1.0), Verdict::Within)
            );
        }
        let same = runs(&BASE, &BASE, 0);
        let (_, failures) = judge_workload(&metrics(), &same, &same).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_2x_slowdown_fails_in_either_direction() {
        let halved: Vec<f64> = BASE.iter().zip(JITTER).map(|(b, j)| b / 2.0 * j).collect();
        let doubled: Vec<f64> = BASE.iter().zip(JITTER).map(|(b, j)| b * 2.0 * j).collect();
        let [ops, latency] = &metrics()[..] else {
            unreachable!()
        };
        let slow = judge(ops, &BASE, &halved);
        assert!(
            slow.verdict == Verdict::Regressed && slow.ci.1 < 0.75,
            "{slow:?}"
        );
        let slow = judge(latency, &BASE, &doubled);
        assert!(
            slow.verdict == Verdict::Regressed && slow.ci.0 > 1.25,
            "{slow:?}"
        );
        // The same factors the other way round are speed-ups.
        assert_eq!(judge(ops, &BASE, &doubled).verdict, Verdict::Within);
        assert_eq!(judge(latency, &BASE, &halved).verdict, Verdict::Within);

        let (base, candidate) = (runs(&BASE, &BASE, 0), runs(&halved, &doubled, 0));
        let (_, failures) = judge_workload(&metrics(), &base, &candidate).unwrap();
        assert_eq!(failures, ["ops_per_s regressed", "latency_ms regressed"]);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_and_passes() {
        // Ratios 0.50, 1.06, 1.09, 0.74, 0.95: two pairs beyond the 0.75
        // floor, three within, and the two sides' samples overlap.
        let base = [100.0, 90.0, 110.0, 95.0, 105.0];
        let candidate = [50.0, 95.0, 120.0, 70.0, 100.0];
        let j = judge(&metrics()[0], &base, &candidate);
        assert_eq!(j.verdict, Verdict::Unresolved, "{j:?}");
        assert!(j.ci.0 < 0.75 && j.ci.1 > 0.75, "{j:?}");
        let (base, candidate) = (runs(&base, &BASE, 0), runs(&candidate, &BASE, 0));
        let (_, failures) = judge_workload(&metrics(), &base, &candidate).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_rise_in_failed_operations_fails() {
        let base = runs(&BASE, &BASE, 0);
        let mut candidate = base.clone();
        candidate[3].failed = 2;
        let (_, failures) = judge_workload(&metrics(), &base, &candidate).unwrap();
        assert_eq!(failures, ["candidate failed 2 operation(s), base 0"]);

        // As many failures as the base is no rise, but `correct: false`
        // from the candidate fails on its own.
        let (base, candidate) = (runs(&BASE, &BASE, 1), runs(&BASE, &BASE, 1));
        let (_, failures) = judge_workload(&metrics(), &base, &candidate).unwrap();
        assert_eq!(failures, ["5 candidate run(s) reported correct: false"]);
    }

    #[test]
    fn a_run_missing_a_metric_cannot_be_judged() {
        let base = runs(&BASE, &BASE, 0);
        let mut candidate = base.clone();
        candidate[2].metrics = Value::Object(Vec::new());
        assert!(judge_workload(&metrics(), &base, &candidate).is_err());
    }

    #[test]
    fn benchmark_json_names_every_workload_and_end_to_end_metric() {
        let spec = Spec::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let workloads = ["gain-dense-exact", "gain-sparse-packed", "serve-epochs"];
        assert_eq!(spec.workloads, workloads);
        let metrics = spec.metrics.iter();
        assert_eq!(
            metrics
                .map(|m| (m.name.as_str(), m.higher, m.bound))
                .collect::<Vec<_>>(),
            [
                ("ops_per_s", true, 0.25),
                ("latency_ms", false, 0.25),
                ("setup_s", false, 0.25),
                ("peak_rss_mb", false, 0.15)
            ]
        );
    }

    #[test]
    fn the_base_is_head_only_when_a_tracked_file_changed() {
        assert_eq!(base_rev(""), "HEAD~1");
        assert_eq!(base_rev("?? notes.txt\n!! target/\n"), "HEAD~1");
        assert_eq!(base_rev(" M ci.sh\n"), "HEAD");
        assert_eq!(
            base_rev("?? notes.txt\nA  crates/sim/src/perf_gate.rs\n"),
            "HEAD"
        );
        assert_eq!(base_rev("D  BENCHMARK.json\n"), "HEAD");
    }
}
