//! End-to-end integration tests: full pipelines across all four crates
//! through the facade.

use ld_prob::rng::StdRng;
use liquid_democracy::core::delegation::Action;
use liquid_democracy::core::distributions::CompetencyDistribution;
use liquid_democracy::core::gain::estimate_gain;
use liquid_democracy::core::mechanisms::{
    Abstaining, ApprovalThreshold, DirectVoting, GreedyMax, Mechanism, SampledThreshold,
    WeightCapped, WeightedMajorityDelegation,
};
use liquid_democracy::core::tally::{sample_decision, TieBreak};
use liquid_democracy::core::{CompetencyProfile, ProblemInstance, Restriction};
use liquid_democracy::graph::{generators, properties};
use liquid_democracy::prob::rng::stream_rng;
use liquid_democracy::sim::engine::Engine;

type TestResult = Result<(), Box<dyn std::error::Error>>;

#[test]
fn facade_reexports_compose() -> TestResult {
    // Build a graph with ld-graph, competencies with ld-core, estimate
    // with ld-sim, all through the facade names.
    let mut rng = StdRng::seed_from_u64(1);
    let graph = generators::random_regular(60, 6, &mut rng)?;
    let profile = CompetencyDistribution::Uniform { lo: 0.35, hi: 0.65 }.sample(60, &mut rng)?;
    let inst = ProblemInstance::new(graph, profile, 0.05)?;
    let engine = Engine::new(9).with_workers(2);
    let est = engine.estimate_gain(&inst, &ApprovalThreshold::new(1), 32)?;
    assert!(est.p_mechanism() >= 0.0 && est.p_mechanism() <= 1.0);
    Ok(())
}

#[test]
fn complete_graph_pipeline_reproduces_theorem2_shape() -> TestResult {
    // Gain should grow with n on the K_n / PC family.
    let mut gains = Vec::new();
    for (i, n) in [32usize, 64, 128].into_iter().enumerate() {
        let mut rng = stream_rng(77, i as u64);
        let profile = CompetencyDistribution::AroundHalf {
            a: 0.05,
            spread: 0.15,
        }
        .sample(n, &mut rng)?;
        let inst = ProblemInstance::new(generators::complete(n), profile, 0.1)?;
        let est = estimate_gain(&inst, &ApprovalThreshold::new(2), 48, &mut rng)?;
        gains.push(est.gain());
    }
    assert!(
        gains.iter().all(|&g| g > 0.0),
        "gains {gains:?} should all be positive"
    );
    assert!(
        gains[2] > gains[0] - 0.05,
        "gain should not collapse with n: {gains:?}"
    );
    Ok(())
}

#[test]
fn algorithm1_draws_on_k_n_without_an_edge_list() -> TestResult {
    // K_n keeps no edge list: at n = 2^17 one would take over 100 GB.
    let n = 1usize << 17;
    let graph = generators::complete(n);
    assert_eq!(graph.m(), n * (n - 1) / 2);
    // p_i = i/n and α = 1/16 are exact binary fractions, so voter i
    // approves j exactly when j ≥ i + n/16, and J(i) is nonempty exactly
    // for the 15n/16 voters i ≤ n − 1 − n/16.
    let profile = CompetencyProfile::new((0..n).map(|i| i as f64 / n as f64).collect())?;
    let inst = ProblemInstance::new(graph, profile, 1.0 / 16.0)?;
    let dg = ApprovalThreshold::new(1).run(&inst, &mut StdRng::seed_from_u64(1));
    assert_eq!(dg.delegator_count(), n - n / 16);
    for (i, action) in dg.actions().iter().enumerate() {
        match *action {
            Action::Delegate(j) => assert!(j >= i + n / 16 && j < n, "{i} -> {j}"),
            Action::Vote => assert!(i > n - 1 - n / 16, "voter {i} should delegate"),
            ref other => panic!("voter {i}: unexpected {other:?}"),
        }
    }
    Ok(())
}

#[test]
fn star_pipeline_reproduces_figure1_shape() -> TestResult {
    let n = 301;
    let inst = ProblemInstance::new(
        generators::star(n),
        CompetencyProfile::two_point(n - 1, 0.6, 1, 2.0 / 3.0)?,
        0.01,
    )?;
    let mut rng = StdRng::seed_from_u64(5);
    let est = estimate_gain(&inst, &GreedyMax, 4, &mut rng)?;
    assert!(
        est.gain() < -0.3,
        "star loss {} should approach -1/3",
        est.gain()
    );
    // And the non-local cap rescues it.
    let capped = WeightCapped::new(GreedyMax, 17);
    let est2 = estimate_gain(&inst, &capped, 4, &mut rng)?;
    assert!(
        est2.gain() > -0.01,
        "capped star gain {} should be harmless",
        est2.gain()
    );
    Ok(())
}

#[test]
fn every_mechanism_runs_on_every_topology() -> TestResult {
    let n = 48;
    let mut rng = StdRng::seed_from_u64(11);
    let graphs = vec![
        generators::complete(n),
        generators::star(n),
        generators::cycle(n),
        generators::grid(6, 8),
        generators::random_regular(n, 4, &mut rng)?,
        generators::random_bounded_degree(n, 5, 60, &mut rng)?,
        generators::random_min_degree(n, 3, &mut rng)?,
        generators::barabasi_albert(n, 2, &mut rng)?,
        generators::watts_strogatz(n, 4, 0.2, &mut rng)?,
        generators::erdos_renyi_gnp(n, 0.2, &mut rng)?,
    ];
    let mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(DirectVoting),
        Box::new(ApprovalThreshold::new(1)),
        Box::new(GreedyMax),
        Box::new(SampledThreshold::fresh(6, 2)),
        Box::new(Abstaining::new(ApprovalThreshold::new(1), 0.4)),
        Box::new(WeightedMajorityDelegation::new(3, 1)),
        Box::new(WeightCapped::new(GreedyMax, 5)),
    ];
    let profile = CompetencyProfile::linear(n, 0.25, 0.75)?;
    for graph in graphs {
        let inst = ProblemInstance::new(graph, profile.clone(), 0.05)?;
        for mech in &mechanisms {
            let dg = mech.run(&inst, &mut rng);
            assert!(dg.is_acyclic(), "{} cycled", mech.name());
            // Every graph admits a sampled decision.
            let _ = sample_decision(&inst, &dg, TieBreak::Incorrect, &mut rng)?;
        }
    }
    Ok(())
}

#[test]
fn restrictions_classify_generated_families() -> TestResult {
    let mut rng = StdRng::seed_from_u64(21);
    let n = 64;
    let reg = generators::random_regular(n, 8, &mut rng)?;
    let profile = CompetencyProfile::constant(n, 0.45)?;
    let inst = ProblemInstance::new(reg, profile, 0.05)?;
    assert!(Restriction::check_all(
        &[
            Restriction::Regular { d: 8 },
            Restriction::MaxDegree { k: 8 },
            Restriction::MinDegree { k: 8 },
            Restriction::PlausibleChangeability { a: 0.06 },
            Restriction::BoundedCompetency { beta: 0.4 },
        ],
        &inst
    ));
    assert!(!Restriction::Complete.check(&inst));
    Ok(())
}

#[test]
fn engine_is_deterministic_across_runs() -> TestResult {
    let mut rng = StdRng::seed_from_u64(31);
    let graph = generators::erdos_renyi_gnp(40, 0.3, &mut rng)?;
    let inst = ProblemInstance::new(graph, CompetencyProfile::linear(40, 0.3, 0.7)?, 0.05)?;
    let engine = Engine::new(123).with_workers(3);
    let a = engine.estimate_gain(&inst, &ApprovalThreshold::new(1), 60)?;
    let b = engine.estimate_gain(&inst, &ApprovalThreshold::new(1), 60)?;
    assert_eq!(a.p_mechanism(), b.p_mechanism());
    assert_eq!(a.mean_sinks(), b.mean_sinks());
    Ok(())
}

#[test]
fn structural_asymmetry_predicts_harm_direction() -> TestResult {
    // The paper's §6 thesis, end to end: across topologies with the SAME
    // profile and the same uniform-choice local mechanism, only the
    // high-asymmetry topology harms — on K_n the uniform choice spreads
    // power over many sinks, on the star every leaf has a single approved
    // neighbour (the hub) and a dictatorship is forced.
    let n = 200;
    let profile = CompetencyProfile::linear(n, 0.52, 0.68)?; // direct voting strong
    let mut rng = StdRng::seed_from_u64(41);
    let mut results = Vec::new();
    for graph in [generators::complete(n), generators::star(n)] {
        let asym = properties::structural_asymmetry(&graph);
        let inst = ProblemInstance::new(graph, profile.clone(), 0.02)?;
        let est = estimate_gain(&inst, &ApprovalThreshold::new(1), 16, &mut rng)?;
        results.push((asym, est.gain()));
    }
    let (complete_asym, complete_gain) = results[0];
    let (star_asym, star_gain) = results[1];
    assert!(complete_asym <= 1.0 + 1e-9);
    assert!(star_asym > 50.0);
    assert!(
        star_gain < complete_gain,
        "asymmetry should hurt: {results:?}"
    );
    assert!(star_gain < -0.05, "the star must harm, got {star_gain}");
    Ok(())
}
