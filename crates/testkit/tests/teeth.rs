//! End-to-end tests of the conformance runner: a clean quick run passes,
//! every injected mutant is caught by each check it declares in
//! [`Mutation::caught_by`], and a caught mutant comes with a shrunk
//! minimal instance and a usable reproduction command.

use ld_testkit::{run_conformance, ConformanceConfig, Mutation};

fn quick_config() -> ConformanceConfig {
    ConformanceConfig {
        quick: true,
        // The corpus replays full-grid cells too; keep the smoke tests on
        // the quick grid and exercise the corpus separately.
        include_corpus: false,
        ..ConformanceConfig::default()
    }
}

#[test]
fn quick_grid_is_clean() {
    let report = run_conformance(&quick_config());
    assert!(
        report.ok(),
        "conformance mismatches on a clean build: {}",
        report.to_json()
    );
    assert!(report.cells > 0);
    assert!(report.checks_run > 0);
}

/// The mutant table: each mutant runs on the quick grid's
/// `complete/linear` cells against exactly the checks it declares, and
/// every one of those checks must report a mismatch that replays the
/// mutant.
#[test]
fn every_mutant_is_caught_by_each_declared_check() {
    let mut missed = Vec::new();
    for mutation in Mutation::all() {
        let id = mutation.id();
        assert_eq!(Mutation::parse(id), Some(mutation));
        let declared = mutation.caught_by();
        assert!(!declared.is_empty(), "mutant {id} declares no checks");
        let only: Vec<&str> = declared.iter().map(|c| c.id()).collect();
        let cfg = ConformanceConfig {
            mutation: Some(mutation),
            only: Some(only.join(",")),
            case_filter: Some("complete/linear".to_string()),
            ..quick_config()
        };
        let report = run_conformance(&cfg);
        assert!(
            report.mismatches.iter().all(|m| m.check != "config"),
            "mutant {id}: {}",
            report.to_json()
        );
        for check in only {
            if !report.mismatches.iter().any(|m| m.check == check) {
                missed.push(format!("mutant {id} was not caught by {check}"));
            }
        }
        let flag = format!("--mutate {id}");
        for m in &report.mismatches {
            assert!(
                m.repro.contains(&flag),
                "mutant {id}: repro does not replay it: {:?}",
                m.repro
            );
        }
    }
    assert_eq!(Mutation::parse("nonsense"), None);
    assert!(missed.is_empty(), "{}", missed.join("\n"));
}

#[test]
fn tie_flip_mutation_is_detected_and_shrunk() {
    let cfg = ConformanceConfig {
        mutation: Some(Mutation::TieFlip),
        // The flipped credit only shows on even tallies; direct voting on
        // a complete graph guarantees one.
        case_filter: Some("complete/constant50/direct/n16".to_string()),
        ..quick_config()
    };
    let report = run_conformance(&cfg);
    assert!(
        !report.ok(),
        "tie-flip mutation was NOT detected — the suite has no teeth"
    );
    let tally_mismatch = report
        .mismatches
        .iter()
        .find(|m| m.check == "tally-oracle" || m.check == "tally-simulation")
        .expect("mutation should surface in a tally check");
    assert!(
        tally_mismatch.repro.contains("repro conformance"),
        "mismatch lacks a reproduction command: {:?}",
        tally_mismatch.repro
    );
    assert!(
        tally_mismatch.repro.contains("--mutate tie-flip"),
        "repro must replay the mutation: {:?}",
        tally_mismatch.repro
    );
    let shrunk = tally_mismatch
        .shrunk
        .as_ref()
        .expect("tally mismatches must carry a shrunk instance");
    assert!(
        shrunk.n <= 4,
        "shrunk instance should be tiny, got n = {}: {:?}",
        shrunk.n,
        shrunk.actions
    );
}

#[test]
fn corpus_replays_cleanly() {
    let cfg = ConformanceConfig {
        quick: false,
        case_filter: Some("this-matches-no-grid-cell".to_string()),
        include_corpus: true,
        ..ConformanceConfig::default()
    };
    // The case filter suppresses the main grid; corpus entries still run
    // through the same filter, so this checks the corpus ids parse and
    // the runner counts them.
    let report = run_conformance(&cfg);
    assert_eq!(report.corpus_entries, 10);
}

#[test]
fn only_filter_restricts_checks() {
    let cfg = ConformanceConfig {
        only: Some("weight-conservation".to_string()),
        case_filter: Some("complete/linear".to_string()),
        ..quick_config()
    };
    let report = run_conformance(&cfg);
    assert!(report.ok(), "{}", report.to_json());
    assert!(report.checks_run > 0);
    let bad = ConformanceConfig {
        only: Some("no-such-check".to_string()),
        ..quick_config()
    };
    let report = run_conformance(&bad);
    assert!(!report.ok());
    assert_eq!(report.mismatches[0].check, "config");
}

#[test]
fn only_filter_accepts_a_comma_list() {
    let cfg = ConformanceConfig {
        only: Some("dynamics-oracle,dynamics-replay".to_string()),
        case_filter: Some("complete/linear".to_string()),
        ..quick_config()
    };
    let report = run_conformance(&cfg);
    assert!(report.ok(), "{}", report.to_json());
    assert!(report.checks_run > 0);
    let bad = ConformanceConfig {
        only: Some("dynamics-oracle,no-such-check".to_string()),
        ..quick_config()
    };
    let report = run_conformance(&bad);
    assert!(!report.ok());
    assert_eq!(report.mismatches[0].check, "config");
}
