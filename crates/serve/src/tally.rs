//! The published tally of one election's engine.
//!
//! An epoch barrier reads the sequencer's [`LiveEngine`] once and
//! freezes it into a [`PublishedTally`]. The mean and variance are
//! recomputed from the integer weights and the competences rather than
//! taken from the engine's incrementally maintained sums, so the
//! published `P[correct]` — like the digest — is a pure function of the
//! state and reproduces bit for bit after a restart.
//!
//! The freeze is one pass over the engine's weights in words of 64
//! voters. Each word is copied into the published `u64` weights and
//! turned into a mask of its sinks, and only the set bits are visited.
//! The sink count, max weight, `Σ w·p` and `Σ w²·p·q` take the sinks'
//! terms in voter order; a non-sink's term would be an exact ±0.0
//! (competences are finite, in [0, 1]) added to sums that start at
//! +0.0 and so are never −0.0, so skipping it changes no bit.
//!
//! The digest is byte-wise FNV-1a, but most weights are below 256, and
//! for those the eight byte steps collapse into one multiply by `P⁸`
//! (`fnv1a_u64` shows why the bits agree). A zero weight's step is
//! `h·P⁸`, so a run of `k` non-sinks is one multiply by `P⁸ᵏ` from a
//! table (`fold_zeros`): the digest, too, costs work per sink rather
//! than per voter.
//!
//! The epoch barrier hands in the weight buffer of the snapshot it last
//! replaced, when no reader still holds it, so a steady election writes
//! two buffers in turn instead of allocating one per epoch.

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
    /// Freezes `engine`'s current state in one pass over its weights
    /// that copies them as `u64` and visits only the sinks: the sink
    /// count, max weight, `Σ w·p`, `Σ w²·p·q` and the digest are built
    /// in the same loop.
    #[must_use]
    pub fn of(engine: &LiveEngine) -> PublishedTally {
        Self::into_buffer(engine, Vec::new())
    }

    /// [`PublishedTally::of`], writing the weights into `weights` (its
    /// contents are discarded), so an epoch barrier can reuse the buffer
    /// of a snapshot no reader holds any more.
    pub(crate) fn into_buffer(engine: &LiveEngine, mut weights: Vec<u64>) -> PublishedTally {
        let (source, competences) = (engine.weights(), engine.competences());
        weights.clear();
        weights.reserve(source.len());
        let (mut sink_count, mut max_weight) = (0u64, 0u64);
        let (mut mean, mut variance) = (0.0f64, 0.0f64);
        let mut h = fnv1a_u64(FNV_OFFSET, source.len() as u64);
        // Non-sinks passed but not yet folded into `h`.
        let mut zeros = 0;
        for (word, chunk) in source.chunks(64).enumerate() {
            weights.extend(chunk.iter().map(|&w| w as u64));
            let mut sinks = sink_mask(chunk);
            sink_count += u64::from(sinks.count_ones());
            // The first voter of this chunk not yet folded into `h`.
            let mut next = 0;
            while sinks != 0 {
                let bit = sinks.trailing_zeros() as usize;
                sinks &= sinks - 1;
                h = fold_zeros(h, zeros + bit - next);
                zeros = 0;
                next = bit + 1;
                let (w, p) = (chunk[bit] as u64, competences[64 * word + bit]);
                h = fnv1a_u64(h, w);
                max_weight = max_weight.max(w);
                mean += w as f64 * p;
                variance += (w * w) as f64 * p * (1.0 - p);
            }
            zeros += chunk.len() - next;
        }
        let h = fold_zeros(h, zeros);
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

/// `P⁸ᵏ` for `k` in `0..=64`: `k` zero weights folded into one multiply.
const ZERO_RUN: [u64; 65] = {
    let mut table = [1u64; 65];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1].wrapping_mul(FNV_PRIME_8);
        k += 1;
    }
    table
};

/// Bit `i` is set when `chunk[i]` (at most 64 weights) is a sink. Built
/// a byte at a time, whose shifts are constants once unrolled.
#[inline]
fn sink_mask(chunk: &[usize]) -> u64 {
    chunk.chunks(8).enumerate().fold(0, |mask, (byte, group)| {
        let bits = group
            .iter()
            .enumerate()
            .fold(0u64, |bits, (bit, &w)| bits | u64::from(w != 0) << bit);
        mask | bits << (8 * byte)
    })
}

/// Folds `k` zero weights into the FNV-1a state `h`. A zero's step is
/// `(h ^ 0)·P⁸ = h·P⁸`, and wrapping multiplication is associative, so
/// a run of `k` is one multiply by `P⁸ᵏ`, in pieces of at most 64.
#[inline]
fn fold_zeros(mut h: u64, mut k: usize) -> u64 {
    while k > 64 {
        h = h.wrapping_mul(ZERO_RUN[64]);
        k -= 64;
    }
    h.wrapping_mul(ZERO_RUN[k])
}

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
    use ld_live::workload::{Trace, TraceConfig};
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

    /// An engine whose weights are `weights`: each sink of weight `w`
    /// takes `w − 1` of the non-sinks as direct delegators, and the
    /// non-sinks left over abstain.
    fn engine_with_weights(weights: &[u64], rng: &mut StdRng) -> LiveEngine {
        let mut actions = vec![Action::Abstain; weights.len()];
        let mut free = (0..weights.len()).filter(|&v| weights[v] == 0);
        for (sink, &w) in weights.iter().enumerate().filter(|&(_, &w)| w != 0) {
            actions[sink] = Action::Vote;
            for _ in 1..w {
                let delegator = free.next().expect("enough non-sinks to carry the weights");
                actions[delegator] = Action::Delegate(sink);
            }
        }
        let competences = (0..weights.len()).map(|_| competence(rng)).collect();
        let engine = LiveEngine::new(actions, competences).expect("engine");
        let built: Vec<u64> = engine.weights().iter().map(|&w| w as u64).collect();
        assert_eq!(built, weights, "the engine carries the hand-built weights");
        engine
    }

    /// `of`, and the barrier's reuse of a stale buffer (too short, and
    /// longer than the electorate), against the three-pass oracle.
    fn assert_matches_three_passes(engine: &LiveEngine, what: &str) {
        let want = three_pass_of(engine);
        let n = engine.n();
        for (buffer, how) in [
            (Vec::new(), "fresh"),
            (vec![u64::MAX; 7], "short stale buffer"),
            (vec![5; n + 100], "long stale buffer"),
        ] {
            let got = PublishedTally::into_buffer(engine, buffer);
            let outcome = std::panic::catch_unwind(|| assert_same_bits(&got, &want));
            assert!(outcome.is_ok(), "{what} ({how})");
        }
    }

    /// Sinks (weight 1 here) separated by zero runs of `runs`' lengths,
    /// after `offset` leading sinks so the runs cross word boundaries
    /// at different places, with a trailing run of `runs[0]` zeros.
    fn zero_runs(offset: usize, runs: &[usize]) -> Vec<u64> {
        let mut weights = vec![1; offset];
        for &run in runs {
            weights.push(1);
            weights.extend(std::iter::repeat_n(0, run));
        }
        weights.extend(std::iter::repeat_n(0, runs[0]));
        weights
    }

    #[test]
    #[ignore = "large-n differential; run in release with --ignored"]
    fn sink_only_pass_matches_three_passes_at_large_n_and_on_edge_vectors() {
        const RUNS: [usize; 6] = [0, 1, 63, 64, 65, 200];
        let mut rng = StdRng::seed_from_u64(29);
        // Zero runs of every edge length, each ahead of every other.
        for offset in [0, 1, 31, 63, 64, 65] {
            for first in 0..RUNS.len() {
                let mut runs = RUNS;
                runs.rotate_left(first);
                let weights = zero_runs(offset, &runs);
                let engine = engine_with_weights(&weights, &mut rng);
                assert_matches_three_passes(&engine, &format!("runs {runs:?} after {offset}"));
            }
        }
        // A single sink, and every voter a sink, around word sizes.
        for n in [1, 2, 63, 64, 65, 127, 128, 129, 1000] {
            for sink in [0, n / 2, n - 1] {
                for w in [1, n as u64] {
                    let mut weights = vec![0; n];
                    weights[sink] = w;
                    let engine = engine_with_weights(&weights, &mut rng);
                    assert_matches_three_passes(&engine, &format!("one sink {w} at {sink} of {n}"));
                }
            }
            let engine = engine_with_weights(&vec![1; n], &mut rng);
            assert_matches_three_passes(&engine, &format!("all {n} voters sinks"));
        }
        // Weights of 256 and more (the byte-wise digest branch) next to
        // zero runs, sinks and each other; the spare non-sinks abstain.
        let mut weights = Vec::new();
        for (run, heavy) in [
            (0, 256),
            (1, 300),
            (63, 257),
            (64, 65_536),
            (65, 1000),
            (200, 511),
        ] {
            weights.extend(std::iter::repeat_n(0, run));
            weights.push(heavy);
            weights.push(1);
            weights.push(heavy);
        }
        weights.extend(std::iter::repeat_n(0, 2 * 68_000));
        let engine = engine_with_weights(&weights, &mut rng);
        assert_matches_three_passes(&engine, "heavy sinks beside zero runs");
        // Seeded balanced churn, as a live election sees it, at an
        // electorate a multiple of 64 voters and at a ragged one.
        for n in [100_000, 100_003] {
            let config = TraceConfig::balanced(n);
            let mut engine =
                LiveEngine::new(vec![Action::Vote; n], config.initial_competences(n as u64))
                    .expect("engine");
            let mut trace = Trace::new(config, 29).expect("trace");
            assert_matches_three_passes(&engine, &format!("n {n}, no churn"));
            for checkpoint in 1..=6 {
                for update in trace.by_ref().take(n / 2) {
                    let _ = engine.apply(update);
                }
                assert_matches_three_passes(&engine, &format!("n {n}, checkpoint {checkpoint}"));
            }
        }
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
