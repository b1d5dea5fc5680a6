//! The published tally of one election's engine.
//!
//! An epoch barrier reads the sequencer's [`LiveEngine`] once and
//! freezes it into a [`PublishedTally`]. The mean and variance are
//! recomputed from the integer weights and the competences rather than
//! taken from the engine's incrementally maintained sums, so the
//! published `P[correct]` — like the digest — is a pure function of the
//! state and reproduces bit for bit after a restart.
//!
//! The freeze is one fused pass over the engine's weights that also
//! folds the digest. The digest is byte-wise FNV-1a, but most weights
//! are below 256, and for those the eight byte steps collapse into one
//! multiply by `P⁸` (`fnv1a_u64` shows why the bits agree).

use ld_core::tally::TieBreak;
use ld_live::{normal_decision_probability, LiveEngine};

/// One published tally.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedTally {
    /// Electorate size.
    pub n: u32,
    /// Per-voter vote weight (index = voter; 0 for non-sinks).
    pub weights: Vec<u64>,
    /// Votes discarded through abstention.
    pub discarded: u64,
    /// Votes reaching a ballot (`n − discarded`).
    pub tallied: u64,
    /// Number of distinct sinks.
    pub sink_count: u64,
    /// Heaviest single sink.
    pub max_weight: u64,
    /// Mean correct-vote weight `Σ w·p`.
    pub mean: f64,
    /// Correct-vote weight variance `Σ w²·p(1-p)`.
    pub variance: f64,
    /// Normal-approximation probability that the correct option wins a
    /// strict weighted majority (coin-flip tie credit), as
    /// [`LiveEngine::decision_probability_normal`] computes it.
    pub p_correct: f64,
    /// FNV-1a digest of the integer outcome (weights, discarded,
    /// tallied) — the bit-identity token for restart conformance.
    pub digest: u64,
}

impl PublishedTally {
    /// Freezes `engine`'s current state in one pass over its weights:
    /// the `u64` weights, sink count, max weight, `Σ w·p`, `Σ w²·p·q`
    /// and the digest are all built in the same loop.
    #[must_use]
    pub fn of(engine: &LiveEngine) -> PublishedTally {
        let source = engine.weights();
        let mut weights = Vec::with_capacity(source.len());
        let (mut sink_count, mut max_weight) = (0u64, 0u64);
        let (mut mean, mut variance) = (0.0f64, 0.0f64);
        let mut h = fnv1a_u64(FNV_OFFSET, source.len() as u64);
        for (&w, &p) in source.iter().zip(engine.competences()) {
            let w = w as u64;
            weights.push(w);
            h = fnv1a_u64(h, w);
            // Branch-free: a non-sink adds an exact ±0.0 (competences are
            // finite, in [0, 1]) to sums that start at +0.0 and so are
            // never −0.0, which leaves them bit for bit unchanged. The
            // sinks' terms are added in voter order.
            sink_count += u64::from(w != 0);
            max_weight = max_weight.max(w);
            mean += w as f64 * p;
            variance += (w * w) as f64 * p * (1.0 - p);
        }
        let (discarded, tallied) = (engine.discarded() as u64, engine.tallied() as u64);
        PublishedTally {
            n: engine.n() as u32,
            digest: fnv1a_u64(fnv1a_u64(h, discarded), tallied),
            weights,
            discarded,
            tallied,
            sink_count,
            max_weight,
            mean,
            variance,
            p_correct: normal_decision_probability(
                engine.tallied(),
                mean,
                variance,
                TieBreak::CoinFlip,
            ),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Eight FNV-1a multiplications folded into one.
const FNV_PRIME_8: u64 = FNV_PRIME.wrapping_pow(8);

/// Folds `v`'s eight little-endian bytes into the FNV-1a state `h`.
///
/// Below 256 only the low byte is nonzero. Xor with a zero byte changes
/// nothing and wrapping multiplication is associative, so the eight
/// byte steps collapse to `(h ^ v)·P⁸` — the same bits, one multiply.
#[inline]
fn fnv1a_u64(h: u64, v: u64) -> u64 {
    if v < 256 {
        (h ^ v).wrapping_mul(FNV_PRIME_8)
    } else {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }
}

/// FNV-1a over the integer tally outcome: the little-endian bytes of
/// `weights.len()`, each weight, `discarded` and `tallied`. Floats are
/// deliberately excluded: the digest certifies the *exact*
/// combinatorial result and must not depend on accumulated
/// floating-point drift.
#[must_use]
pub fn tally_digest(weights: &[u64], discarded: u64, tallied: u64) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, weights.len() as u64);
    for &w in weights {
        h = fnv1a_u64(h, w);
    }
    fnv1a_u64(fnv1a_u64(h, discarded), tallied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_VOTERS;
    use ld_core::delegation::Action;
    use ld_live::Update;
    use ld_prob::rng::{for_each_case, Rng, StdRng};

    /// FNV-1a as the digest defines it: every byte of every value, one
    /// xor and one multiply each.
    fn bytewise_digest(weights: &[u64], discarded: u64, tallied: u64) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(weights.len() as u64);
        for &w in weights {
            eat(w);
        }
        eat(discarded);
        eat(tallied);
        h
    }

    /// [`PublishedTally::of`] as three passes: copy the weights, sum
    /// over the sinks only, then digest byte by byte.
    fn three_pass_of(engine: &LiveEngine) -> PublishedTally {
        let weights: Vec<u64> = engine.weights().iter().map(|&w| w as u64).collect();
        let (mut sink_count, mut max_weight) = (0u64, 0u64);
        let (mut mean, mut variance) = (0.0f64, 0.0f64);
        for (&w, &p) in weights.iter().zip(engine.competences()) {
            if w == 0 {
                continue;
            }
            sink_count += 1;
            max_weight = max_weight.max(w);
            mean += w as f64 * p;
            variance += (w * w) as f64 * p * (1.0 - p);
        }
        let (discarded, tallied) = (engine.discarded() as u64, engine.tallied() as u64);
        PublishedTally {
            n: engine.n() as u32,
            digest: bytewise_digest(&weights, discarded, tallied),
            weights,
            discarded,
            tallied,
            sink_count,
            max_weight,
            mean,
            variance,
            p_correct: normal_decision_probability(
                engine.tallied(),
                mean,
                variance,
                TieBreak::CoinFlip,
            ),
        }
    }

    fn assert_same_bits(got: &PublishedTally, want: &PublishedTally) {
        assert_eq!(got.n, want.n, "n");
        assert_eq!(got.weights, want.weights, "weights");
        assert_eq!(
            (got.discarded, got.tallied, got.sink_count, got.max_weight),
            (
                want.discarded,
                want.tallied,
                want.sink_count,
                want.max_weight
            ),
            "discarded, tallied, sink_count, max_weight"
        );
        for (what, g, w) in [
            ("mean", got.mean, want.mean),
            ("variance", got.variance, want.variance),
            ("p_correct", got.p_correct, want.p_correct),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
        }
        assert_eq!(got.digest, want.digest, "digest");
    }

    /// Byte-width edges of the `v < 256` shortcut, the electorate bound
    /// and the top of the range.
    const EDGES: [u64; 8] = [0, 1, 255, 256, 65_535, 65_536, MAX_VOTERS as u64, u64::MAX];

    #[test]
    fn digest_matches_bytewise_fnv_on_edge_values() {
        for d in EDGES {
            for t in EDGES {
                assert_eq!(tally_digest(&[], d, t), bytewise_digest(&[], d, t));
                assert_eq!(tally_digest(&EDGES, d, t), bytewise_digest(&EDGES, d, t));
                for w in EDGES {
                    assert_eq!(
                        tally_digest(&[w], d, t),
                        bytewise_digest(&[w], d, t),
                        "[{w}], {d}, {t}"
                    );
                }
            }
        }
    }

    /// Mostly zeros and small weights, some heavy ones, a few anywhere
    /// in `u64` — the mix a live tally has, plus what it never has.
    fn mixed_weight(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0u32..100) {
            0..=59 => 0,
            60..=94 => rng.gen_range(1u64..256),
            95..=98 => rng.gen_range(256u64..=u64::from(MAX_VOTERS)),
            _ => rng.gen(),
        }
    }

    #[test]
    fn digest_matches_bytewise_fnv_on_random_vectors() {
        for_each_case(
            "digest_matches_bytewise_fnv_on_random_vectors",
            256,
            |rng| {
                let len = rng.gen_range(0usize..2000);
                let weights: Vec<u64> = (0..len).map(|_| mixed_weight(rng)).collect();
                let (discarded, tallied) = (mixed_weight(rng), mixed_weight(rng));
                assert_eq!(
                    tally_digest(&weights, discarded, tallied),
                    bytewise_digest(&weights, discarded, tallied),
                    "len {len}, discarded {discarded}, tallied {tallied}"
                );
            },
        );
    }

    /// A fixed 60 % zero / 30 % small / 10 % heavy vector, independent
    /// of any RNG stream.
    fn pinned_weights(len: usize) -> Vec<u64> {
        (0..len as u64)
            .map(|i| {
                let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                match r % 10 {
                    0..=5 => 0,
                    6..=8 => 1 + r % 200,
                    _ => r % (1 << 24),
                }
            })
            .collect()
    }

    #[test]
    fn digest_keeps_its_pinned_values() {
        // Computed by the byte-at-a-time implementation; the durable
        // epoch logs already written hold digests of this definition.
        assert_eq!(tally_digest(&[], 0, 0), 0x81d2_3fd7_003c_2305);
        assert_eq!(
            tally_digest(
                &[0, 1, 255, 256, 65_535, 65_536, 1 << 24, 7, 0, 0],
                3,
                1 << 24
            ),
            0x15f3_9122_742f_2779
        );
        assert_eq!(
            tally_digest(&pinned_weights(10_000), u64::MAX, u64::MAX),
            0xb508_3f1f_a53f_d903
        );
    }

    /// Competences that stress the branch-free sums: exact 0 and 1,
    /// negative zero, and the open interval.
    fn competence(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => 1.0,
            2 => -0.0,
            _ => rng.gen(),
        }
    }

    #[test]
    fn published_tally_is_bit_identical_to_three_passes() {
        let mut heavy = 0;
        for_each_case(
            "published_tally_is_bit_identical_to_three_passes",
            64,
            |rng| {
                let n = rng.gen_range(1usize..600);
                let competences = (0..n).map(|_| competence(rng)).collect();
                let mut engine =
                    LiveEngine::new(vec![Action::Vote; n], competences).expect("engine");
                assert_same_bits(&PublishedTally::of(&engine), &three_pass_of(&engine));
                // A few hubs gather heavy sinks (≥ 256 once n is large).
                let hubs = rng.gen_range(1usize..=4).min(n);
                for _ in 0..rng.gen_range(0usize..3 * n) {
                    let voter = rng.gen_range(0..n);
                    let update = match rng.gen_range(0u32..10) {
                        0..=3 => Update::Delegate {
                            voter,
                            target: rng.gen_range(0..hubs),
                        },
                        4..=5 => Update::Delegate {
                            voter,
                            target: rng.gen_range(0..n),
                        },
                        6 => Update::Vote { voter },
                        7 => Update::Abstain { voter },
                        _ => Update::Competence {
                            voter,
                            p: competence(rng),
                        },
                    };
                    let _ = engine.apply(update);
                }
                let tally = PublishedTally::of(&engine);
                assert_same_bits(&tally, &three_pass_of(&engine));
                heavy += usize::from(tally.max_weight >= 256);
            },
        );
        assert!(heavy > 0, "some case has a sink of weight >= 256");
    }

    #[test]
    fn published_tally_matches_the_engine() {
        let n = 16;
        let mut engine = LiveEngine::new(vec![Action::Vote; n], vec![0.6; n]).expect("engine");
        for u in [
            Update::Delegate {
                voter: 1,
                target: 0,
            },
            Update::Delegate {
                voter: 2,
                target: 1,
            },
            Update::Abstain { voter: 9 },
            Update::Delegate {
                voter: 10,
                target: 9,
            },
            Update::Competence { voter: 0, p: 0.93 },
        ] {
            engine.apply(u).expect("apply");
        }
        let t = PublishedTally::of(&engine);
        let want: Vec<u64> = engine.weights().iter().map(|&w| w as u64).collect();
        assert_eq!(t.weights, want);
        assert_eq!(t.max_weight, 3);
        assert_eq!(
            (t.discarded, t.tallied, t.sink_count),
            (2, 14, engine.sink_count() as u64)
        );
        assert!(
            (t.p_correct - engine.decision_probability_normal(TieBreak::CoinFlip)).abs() < 1e-9
        );
    }

    #[test]
    fn digest_is_order_sensitive_and_pinned_to_content() {
        let a = tally_digest(&[1, 2, 3], 0, 3);
        let b = tally_digest(&[3, 2, 1], 0, 3);
        let c = tally_digest(&[1, 2, 3], 1, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, tally_digest(&[1, 2, 3], 0, 3));
    }
}
