//! The weighted DP with a majority floor
//! (`WeightedBernoulliSum::majority_with_ties_of`) against the full DP
//! (`WeightedBernoulliSum::new(..).majority_with_ties(..)`) at n ≥ 10⁴
//! votes, on sums whose pmf tails hold thousands of subnormal entries:
//! the answers must agree bit for bit.
//!
//! About a minute in a debug build, seconds in release:
//! `cargo test --release -p ld-prob --test weighted_floor_differential -- --ignored`.

use ld_prob::poisson_binomial::WeightedBernoulliSum;
use ld_prob::rng::{Rng, StdRng};

/// Weight terms for `n` votes, by family: named so a failure says which
/// one broke.
fn families(n: usize, seed: u64) -> Vec<(&'static str, Vec<(usize, f64)>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
    let mut split = |max_w: usize, p: &mut dyn FnMut(&mut StdRng) -> f64| {
        let (mut left, mut terms) = (n, Vec::new());
        while left > 0 {
            let w = rng.gen_range(1..=left.min(max_w));
            terms.push((w, p(&mut rng)));
            left -= w;
        }
        terms
    };
    vec![
        // One vote each around ½: the tails fall through the subnormal
        // range on both sides of the majority.
        (
            "unit weights, p in [0.2, 0.8]",
            split(1, &mut |r| r.gen_range(0.2..0.8)),
        ),
        (
            "weights 1..=3, p in [0.4, 0.6]",
            split(3, &mut |r| r.gen_range(0.4..0.6)),
        ),
        // Delegation-shaped: a few heavy sinks among light ones.
        (
            "weights up to 64, p uniform",
            split(64, &mut |r| r.gen::<f64>()),
        ),
        // Mass stuck far from the majority, so the floor passes it and
        // the DP stops early.
        (
            "weights 1..=2, p near 0",
            split(2, &mut |r| r.gen_range(0.0..1e-3)),
        ),
        (
            "weights 1..=2, p near 1",
            split(2, &mut |r| 1.0 - r.gen_range(0.0..1e-3)),
        ),
        (
            "weights 1..=4, p in {0, 1, tiny, ½}",
            split(4, &mut |r| match r.gen_range(0u32..4) {
                0 => 0.0,
                1 => 1.0,
                2 => 10f64.powi(-r.gen_range(1i32..=320)),
                _ => 0.5,
            }),
        ),
    ]
}

#[test]
#[ignore = "large-n differential, ~2 s in release; run by ci.sh"]
fn floor_dp_matches_the_full_dp_at_large_n() {
    let mut subnormal_entries = 0usize;
    for n in [10_000usize, 16_385] {
        for (family, terms) in families(n, 0xF1_00D) {
            let full = WeightedBernoulliSum::new(&terms).unwrap();
            let total = full.total_weight();
            assert_eq!(total, n);
            subnormal_entries += (0..=total).filter(|&t| full.pmf(t).is_subnormal()).count();
            for votes in [total, total - 1, total - 2, total / 2, 3 * total / 4] {
                for credit in [0.0, 0.5, 1.0] {
                    let want = full.majority_with_ties(votes, credit);
                    let got =
                        WeightedBernoulliSum::majority_with_ties_of(&terms, votes, credit).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{family} at n = {n}: {votes} votes, tie credit {credit}: \
                         floor {got:e} vs full {want:e}"
                    );
                }
            }
        }
    }
    // Every final subnormal entry was subnormal, or on its way there,
    // at each step before: the tails cross the range on every term.
    assert!(
        subnormal_entries > 500,
        "only {subnormal_entries} subnormal entries in the final pmfs: the integer path \
         went untested"
    );
}
