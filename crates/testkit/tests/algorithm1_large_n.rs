//! Algorithm 1's draw and the CSR resolve at sizes the unit tests do not
//! reach: `ApprovalThreshold::run` (one loop over the cached approval
//! cuts) against the per-voter `act` loop, and `CsrForest::resolve`
//! (which chases voters latest first) against the recursive reference
//! resolver, on the draws Algorithm 1 makes.

use ld_core::csr::CsrForest;
use ld_core::delegation::DelegationGraph;
use ld_core::mechanisms::{ApprovalThreshold, Mechanism};
use ld_core::{CompetencyProfile, ProblemInstance};
use ld_graph::generators;
use ld_prob::rng::{stream_rng, RngCore, StdRng};
use ld_testkit::oracle::{resolve_recursive, OracleOutcome};

/// Draws with `run` and with the `act` loop from one seed, checks they
/// agree (the generator's next word included), then resolves the draw
/// and checks it against the recursive oracle.
fn check(label: &str, inst: &ProblemInstance, thresholds: &[usize], seed: u64) {
    let mut forest = CsrForest::new();
    for &j in thresholds {
        let mech = ApprovalThreshold::new(j);
        let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let via_run = mech.run(inst, &mut r1);
        let via_act: DelegationGraph = (0..inst.n()).map(|v| mech.act(inst, v, &mut r2)).collect();
        assert!(
            via_run == via_act,
            "{label} j={j}: run differs from the act loop"
        );
        assert_eq!(r1.next_u64(), r2.next_u64(), "{label} j={j}: rng state");
        assert!(
            via_run.delegator_count() > 0,
            "{label} j={j}: nobody delegates"
        );

        let reference = resolve_recursive(via_run.actions());
        assert!(matches!(reference, OracleOutcome::Resolved(_)));
        let csr = forest.resolve(&via_run).map(|()| forest.to_resolution());
        assert_eq!(reference.mismatch(&csr), None, "{label} j={j}");
    }
}

/// Seconds in release; far longer unoptimised. Run with
/// `cargo test --release -p ld-testkit --test algorithm1_large_n -- --ignored`.
#[test]
#[ignore = "large n: run in release"]
fn draw_and_resolve_match_their_references_at_large_n() {
    let n = 1 << 17;
    let inst = ProblemInstance::new(
        generators::complete(n),
        CompetencyProfile::linear(n, 0.40, 0.60).unwrap(),
        0.05,
    )
    .unwrap();
    check("K_n, n = 2^17", &inst, &[1, 1 << 15], 1);

    let n = 1 << 16;
    let graph = generators::random_regular(n, 8, &mut stream_rng(2, 0)).unwrap();
    let inst = ProblemInstance::new(
        graph,
        CompetencyProfile::linear(n, 0.40, 0.54).unwrap(),
        0.05,
    )
    .unwrap();
    check("8-regular, n = 2^16", &inst, &[1, 2], 3);
}
