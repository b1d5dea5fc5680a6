//! Bit-level pins of the weighted-majority (multi-target) branch of the
//! trial pipeline: every statistic `estimate_gain_with` reports for
//! `DelegateMany` draws, on a dense and a sparse graph, under both the
//! strict tie rule and the coin-flip rule (which draws the final tie coin).

use ld_core::gain::{estimate_gain_with, GainEstimate};
use ld_core::mechanisms::WeightedMajorityDelegation;
use ld_core::tally::TieBreak;
use ld_core::{CompetencyProfile, ProblemInstance};
use ld_graph::{generators, Graph};
use ld_prob::rng::StdRng;

const N: usize = 64;
const TRIALS: u64 = 48;

fn instance(graph: Graph) -> ProblemInstance {
    let profile = CompetencyProfile::linear(N, 0.35, 0.65).unwrap();
    ProblemInstance::new(graph, profile, 0.05).unwrap()
}

fn bits(est: &GainEstimate) -> [u64; 5] {
    [
        est.p_mechanism().to_bits(),
        est.mean_delegators().to_bits(),
        est.mean_sinks().to_bits(),
        est.mean_longest_chain().to_bits(),
        est.mean_abstained().to_bits(),
    ]
}

/// Every pinned configuration, in table order: graph × k × seed × tie.
fn estimates() -> Vec<(String, [u64; 5])> {
    let mut graph_rng = StdRng::seed_from_u64(64);
    let graphs = [
        ("complete", generators::complete(N)),
        (
            "regular8",
            generators::random_regular(N, 8, &mut graph_rng).unwrap(),
        ),
    ];
    let mut out = Vec::new();
    for (graph_name, graph) in graphs {
        let inst = instance(graph);
        for k in [3, 5] {
            let mech = WeightedMajorityDelegation::new(k, 1);
            for seed in [1u64, 12] {
                for tie in [TieBreak::Incorrect, TieBreak::CoinFlip] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let est = estimate_gain_with(&inst, &mech, TRIALS, tie, &mut rng).unwrap();
                    out.push((
                        format!("{graph_name} k={k} seed={seed} {tie:?}"),
                        bits(&est),
                    ));
                }
            }
        }
    }
    out
}

/// `to_bits()` of `[p_mechanism, mean_delegators, mean_sinks,
/// mean_longest_chain, mean_abstained]` per configuration.
#[rustfmt::skip]
const PINS: [(&str, [u64; 5]); 16] = [
    ("complete k=3 seed=1 Incorrect", [0x3fe7555555555555, 0x404a800000000000, 0x4026000000000000, 0x4010d55555555555, 0x0000000000000000]),
    ("complete k=3 seed=1 CoinFlip", [0x3fea000000000001, 0x404a800000000000, 0x4026000000000000, 0x4010c00000000000, 0x0000000000000000]),
    ("complete k=3 seed=12 Incorrect", [0x3fe7ffffffffffff, 0x404a800000000000, 0x4026000000000000, 0x400fd55555555554, 0x0000000000000000]),
    ("complete k=3 seed=12 CoinFlip", [0x3fe7ffffffffffff, 0x404a800000000000, 0x4026000000000000, 0x400fd55555555554, 0x0000000000000000]),
    ("complete k=5 seed=1 Incorrect", [0x3fec000000000000, 0x404a800000000000, 0x4026000000000000, 0x4011955555555554, 0x0000000000000000]),
    ("complete k=5 seed=1 CoinFlip", [0x3fec000000000000, 0x404a800000000000, 0x4026000000000000, 0x4011aaaaaaaaaaa9, 0x0000000000000000]),
    ("complete k=5 seed=12 Incorrect", [0x3fe6000000000001, 0x404a800000000000, 0x4026000000000000, 0x40112aaaaaaaaaaa, 0x0000000000000000]),
    ("complete k=5 seed=12 CoinFlip", [0x3fe6aaaaaaaaaaa9, 0x404a800000000000, 0x4026000000000000, 0x40113fffffffffff, 0x0000000000000000]),
    ("regular8 k=3 seed=1 Incorrect", [0x3fe8000000000000, 0x4048000000000000, 0x4030000000000000, 0x4009d55555555556, 0x0000000000000000]),
    ("regular8 k=3 seed=1 CoinFlip", [0x3fe8000000000000, 0x4048000000000000, 0x4030000000000000, 0x400a000000000001, 0x0000000000000000]),
    ("regular8 k=3 seed=12 Incorrect", [0x3fea000000000000, 0x4048000000000000, 0x4030000000000000, 0x400a2aaaaaaaaaad, 0x0000000000000000]),
    ("regular8 k=3 seed=12 CoinFlip", [0x3fea000000000000, 0x4048000000000000, 0x4030000000000000, 0x400a2aaaaaaaaaad, 0x0000000000000000]),
    ("regular8 k=5 seed=1 Incorrect", [0x3feaaaaaaaaaaaaa, 0x4048000000000000, 0x4030000000000000, 0x400e555555555554, 0x0000000000000000]),
    ("regular8 k=5 seed=1 CoinFlip", [0x3feaaaaaaaaaaaaa, 0x4048000000000000, 0x4030000000000000, 0x400e555555555554, 0x0000000000000000]),
    ("regular8 k=5 seed=12 Incorrect", [0x3fecaaaaaaaaaaab, 0x4048000000000000, 0x4030000000000000, 0x400e800000000001, 0x0000000000000000]),
    ("regular8 k=5 seed=12 CoinFlip", [0x3fecaaaaaaaaaaab, 0x4048000000000000, 0x4030000000000000, 0x400e555555555555, 0x0000000000000000]),
];

#[test]
fn weighted_majority_estimates_keep_their_bits() {
    let got = estimates();
    assert_eq!(got.len(), PINS.len());
    for ((label, bits), (want_label, want)) in got.iter().zip(PINS) {
        assert_eq!(label, want_label);
        assert_eq!(bits, &want, "{label}: estimate bits moved");
    }
}
