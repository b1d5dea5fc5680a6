//! Problem instances: a voter graph plus a competency profile plus the
//! approval margin `α`.

use crate::competency::CompetencyProfile;
use crate::error::{CoreError, Result};
use ld_graph::Graph;
use ld_prob::poisson_binomial::PoissonBinomial;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// A liquid-democracy problem instance `G = (V, E, p)` with approval
/// parameter `α > 0` (§2.1 of the paper).
///
/// Voters are vertices `0..n`, ordered by competency (`p_i ≤ p_j` for
/// `i < j`). The *approval set* `J(i)` of voter `i` is the set of
/// neighbours `j` with `p_i + α ≤ p_j`: voters noticeably more competent
/// than `i`. Voters do not know competencies — only which neighbours are
/// approved — which is exactly the information this type exposes to
/// mechanisms.
///
/// # Examples
///
/// ```
/// use ld_core::{CompetencyProfile, ProblemInstance};
/// use ld_graph::generators;
///
/// let graph = generators::complete(4);
/// let profile = CompetencyProfile::new(vec![0.2, 0.4, 0.6, 0.8])?;
/// let inst = ProblemInstance::new(graph, profile, 0.1)?;
/// assert_eq!(inst.approval_set(0), vec![1, 2, 3]);
/// assert_eq!(inst.approval_set(3), Vec::<usize>::new());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct ProblemInstance {
    graph: Graph,
    profile: CompetencyProfile,
    alpha: f64,
    /// Voter `i`'s approval cut: the row position where `J(i)` starts
    /// (see [`ProblemInstance::approval_rows`]). A function of the three
    /// fields above, filled on first use; `==` and `Debug` ignore it.
    cuts: OnceLock<Box<[u32]>>,
    /// The direct-voting distribution (see
    /// [`ProblemInstance::direct_distribution`]): a function of the
    /// profile, filled on first use; `==` and `Debug` ignore it.
    direct: OnceLock<PoissonBinomial>,
}

impl PartialEq for ProblemInstance {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph && self.profile == other.profile && self.alpha == other.alpha
    }
}

impl fmt::Debug for ProblemInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProblemInstance")
            .field("graph", &self.graph)
            .field("profile", &self.profile)
            .field("alpha", &self.alpha)
            .finish()
    }
}

impl ProblemInstance {
    /// Builds an instance, validating that the graph and profile agree on
    /// the number of voters and that `α` is positive and finite.
    ///
    /// The paper requires `α > 0` — it is what makes every approval-based
    /// delegation graph acyclic (a voter can never approve someone who
    /// approves them back).
    ///
    /// # Errors
    ///
    /// * [`CoreError::SizeMismatch`] if `graph.n() != profile.n()`.
    /// * [`CoreError::InvalidParameter`] if `α` is not strictly positive
    ///   and finite.
    pub fn new(graph: Graph, profile: CompetencyProfile, alpha: f64) -> Result<Self> {
        if graph.n() != profile.n() {
            return Err(CoreError::SizeMismatch {
                graph_n: graph.n(),
                profile_n: profile.n(),
            });
        }
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(CoreError::InvalidParameter {
                reason: format!("approval margin alpha = {alpha} must be positive and finite"),
            });
        }
        Ok(ProblemInstance {
            graph,
            profile,
            alpha,
            cuts: OnceLock::new(),
            direct: OnceLock::new(),
        })
    }

    /// Number of voters.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The social graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The competency profile.
    pub fn profile(&self) -> &CompetencyProfile {
        &self.profile
    }

    /// The approval margin `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Competency of voter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn competency(&self, i: usize) -> f64 {
        self.profile.get(i)
    }

    /// Whether voter `i` approves of voter `j`: they are adjacent and
    /// `p_i + α ≤ p_j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn approves(&self, i: usize, j: usize) -> bool {
        self.graph.has_edge(i, j) && self.profile.get(i) + self.alpha <= self.profile.get(j)
    }

    /// The approval set `J(i)` as a half-open range of positions in voter
    /// `i`'s sorted neighbour row: the approved voters are
    /// `graph().nth_neighbor(i, k)` for `k` in the range, in increasing
    /// index order.
    ///
    /// Voters are indexed by nondecreasing competency (a
    /// [`CompetencyProfile`] invariant) and neighbour rows are sorted (a
    /// [`Graph`] invariant), so `p_j` is nondecreasing along the row and
    /// the approved neighbours — those with `p_i + α ≤ p_j` — are exactly
    /// a suffix of it. The cut where that suffix starts is a fixed
    /// function of the instance, so it is found once per voter, by binary
    /// search, and kept: the first call fills [`Self::approval_cuts`]
    /// (`O(n log deg)`), and every call reads it in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn approval_rows(&self, i: usize) -> Range<usize> {
        self.approval_cuts()[i] as usize..self.graph.degree(i)
    }

    /// Every voter's approval cut, in voter order: `J(i)` is row
    /// positions `approval_cuts()[i]..graph().degree(i)` of voter `i`
    /// (see [`Self::approval_rows`]). Computed on the first call, 4 bytes
    /// per voter; building an instance does no `O(n)` work. On `K_n`
    /// finding a cut touches no adjacency memory: the row is `0..n`
    /// without `i`.
    ///
    /// # Panics
    ///
    /// Panics if some voter has `2^32` or more neighbours.
    pub fn approval_cuts(&self) -> &[u32] {
        self.cuts.get_or_init(|| {
            let ps = self.profile.as_slice();
            (0..self.n())
                .map(|i| {
                    let threshold = ps[i] + self.alpha;
                    let cut = self.graph.partition_neighbors(i, |j| ps[j] < threshold);
                    u32::try_from(cut).expect("approval cuts are u32 row positions")
                })
                .collect()
        })
    }

    /// The approval set `J(i)`: the approved neighbours of voter `i`, in
    /// increasing index order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn approval_set(&self, i: usize) -> Vec<usize> {
        self.approval_rows(i)
            .map(|k| self.graph.nth_neighbor(i, k))
            .collect()
    }

    /// Size of the approval set `|J(i)|` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    pub fn approval_count(&self, i: usize) -> usize {
        self.approval_rows(i).len()
    }

    /// The exact distribution of correct votes under **direct voting**:
    /// the Poisson-binomial of the profile's competences. It depends on
    /// the profile alone, so it is computed on the first call (the
    /// banded `O(n · band)` DP) and kept; every later call, and every
    /// [`crate::tally::direct_probability`] under any tie rule, reads the
    /// same value. An instance reused across gain estimates, mechanisms
    /// or tie rules pays for the DP once.
    pub fn direct_distribution(&self) -> &PoissonBinomial {
        self.direct.get_or_init(|| {
            PoissonBinomial::new(self.profile.as_slice())
                .expect("a validated profile holds probabilities")
        })
    }

    /// The exact probability that **direct voting** decides correctly on
    /// this instance: `P[Σ Bernoulli(p_i) > n/2]` (strict majority), i.e.
    /// [`crate::tally::direct_probability`] with ties counted incorrect.
    ///
    /// # Errors
    ///
    /// Propagates numeric validation errors from the probability layer
    /// (cannot occur for a validated profile).
    pub fn direct_voting_probability(&self) -> Result<f64> {
        crate::tally::direct_probability(self, crate::tally::TieBreak::Incorrect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_graph::generators;

    fn small_instance() -> ProblemInstance {
        // Path 0 - 1 - 2 with competencies 0.2, 0.5, 0.8.
        let graph = generators::path(3);
        let profile = CompetencyProfile::new(vec![0.2, 0.5, 0.8]).unwrap();
        ProblemInstance::new(graph, profile, 0.1).unwrap()
    }

    #[test]
    fn construction_validates_sizes_and_alpha() {
        let graph = generators::complete(3);
        let profile = CompetencyProfile::new(vec![0.5, 0.5]).unwrap();
        assert!(matches!(
            ProblemInstance::new(graph.clone(), profile, 0.1),
            Err(CoreError::SizeMismatch { .. })
        ));
        let profile3 = CompetencyProfile::constant(3, 0.5).unwrap();
        assert!(ProblemInstance::new(graph.clone(), profile3.clone(), 0.0).is_err());
        assert!(ProblemInstance::new(graph.clone(), profile3.clone(), -1.0).is_err());
        assert!(ProblemInstance::new(graph, profile3, f64::INFINITY).is_err());
    }

    #[test]
    fn approval_respects_both_adjacency_and_margin() {
        let inst = small_instance();
        // 0 approves 1 (adjacent, 0.2 + 0.1 ≤ 0.5) but not 2 (not adjacent).
        assert!(inst.approves(0, 1));
        assert!(!inst.approves(0, 2));
        assert_eq!(inst.approval_set(0), vec![1]);
        // 1 approves 2.
        assert_eq!(inst.approval_set(1), vec![2]);
        // 2 approves nobody (most competent).
        assert_eq!(inst.approval_set(2), Vec::<usize>::new());
    }

    #[test]
    fn approval_margin_is_inclusive() {
        // p_i + alpha == p_j counts as approved (p_i + α ≤ p_j).
        let graph = generators::complete(2);
        let profile = CompetencyProfile::new(vec![0.4, 0.5]).unwrap();
        let inst = ProblemInstance::new(graph, profile, 0.1).unwrap();
        assert!(inst.approves(0, 1));
        assert!(!inst.approves(1, 0));
    }

    #[test]
    fn approval_suffix_matches_filter_scan_on_random_instances() {
        // The binary-searched row suffix must equal the naive adjacency scan
        // element for element — same contents, same order — on every
        // voter of a mix of topologies, including ties at the margin, on
        // implicit (K_n) and listed rows, full (the star's hub) or not.
        use ld_prob::rng::Rng;
        let mut rng = ld_prob::rng::StdRng::seed_from_u64(0xA11CE);
        for trial in 0..52 {
            let n = 2 + (trial % 13);
            let graph = match trial % 4 {
                0 => generators::complete(n),
                1 => generators::cycle(n),
                2 => generators::star(n),
                _ => generators::erdos_renyi_gnp(n, 0.4, &mut rng).unwrap(),
            };
            let mut ps: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..0.9)).collect();
            // Inject exact-margin ties: p_j == p_i + alpha for some pairs.
            let alpha = 0.05;
            if n > 2 {
                ps[n - 1] = ps[0] + alpha;
            }
            ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let profile = CompetencyProfile::new(ps).unwrap();
            let inst = ProblemInstance::new(graph, profile, alpha).unwrap();
            for i in 0..n {
                let pi = inst.competency(i);
                let naive: Vec<usize> = inst
                    .graph()
                    .neighbors(i)
                    .filter(|&j| pi + alpha <= inst.competency(j))
                    .collect();
                assert_eq!(inst.approval_set(i), naive, "voter {i}");
                let rows = inst.approval_rows(i);
                assert_eq!(rows.end, inst.graph().degree(i));
                assert_eq!(inst.approval_count(i), naive.len());
                // The cached cut equals a fresh search.
                let fresh = inst
                    .graph()
                    .partition_neighbors(i, |j| inst.competency(j) < pi + alpha);
                assert_eq!(inst.approval_cuts()[i] as usize, fresh, "voter {i}");
            }
        }
    }

    #[test]
    fn equality_debug_and_clone_ignore_the_cut_table() {
        let build = || {
            ProblemInstance::new(
                generators::complete(7),
                CompetencyProfile::linear(7, 0.2, 0.8).unwrap(),
                0.15,
            )
            .unwrap()
        };
        let (filled, empty) = (build(), build());
        let unfilled_debug = format!("{filled:?}");
        filled.approval_cuts();
        filled.direct_distribution();
        assert_eq!(filled, empty);
        assert_eq!(empty, filled);
        assert_eq!(format!("{filled:?}"), unfilled_debug);
        assert_eq!(format!("{filled:?}"), format!("{empty:?}"));
        assert!(!unfilled_debug.contains("cuts"));
        assert!(!unfilled_debug.contains("direct"));
        assert_eq!(filled.clone(), empty.clone());
        assert_eq!(filled.clone().approval_cuts(), empty.approval_cuts());
        assert_eq!(
            filled.clone().direct_distribution(),
            empty.clone().direct_distribution()
        );
        // Each field still counts.
        let other = ProblemInstance::new(
            generators::complete(7),
            CompetencyProfile::linear(7, 0.2, 0.8).unwrap(),
            0.1,
        )
        .unwrap();
        assert_ne!(filled, other);
    }

    #[test]
    fn cached_direct_distribution_is_bit_equal_to_a_fresh_one() {
        use crate::tally::{direct_probability, TieBreak};
        use ld_prob::poisson_binomial::PoissonBinomial;
        let profiles = [
            CompetencyProfile::linear(1024, 0.40, 0.60).unwrap(),
            CompetencyProfile::linear(101, 0.05, 0.35).unwrap(),
            CompetencyProfile::constant(64, 0.5).unwrap(),
            CompetencyProfile::new(vec![0.0, 0.0, 1.0, 1.0]).unwrap(),
            CompetencyProfile::new(vec![]).unwrap(),
        ];
        let ties = [TieBreak::Incorrect, TieBreak::CoinFlip, TieBreak::Correct];
        for profile in profiles {
            let fresh = PoissonBinomial::new(profile.as_slice()).unwrap();
            let n = profile.n();
            let inst = ProblemInstance::new(generators::complete(n), profile, 0.05).unwrap();
            // Every tie rule, twice: the first call fills the cache, the
            // rest read it.
            for tie in ties.into_iter().chain(ties) {
                let want = fresh.majority_with_ties(tie.credit());
                let got = direct_probability(&inst, tie).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, {tie:?}");
            }
            assert_eq!(inst.direct_distribution(), &fresh);
            assert!(std::ptr::eq(
                inst.direct_distribution(),
                inst.direct_distribution()
            ));
        }
    }

    #[test]
    fn approval_count_matches_set_length() {
        let graph = generators::complete(6);
        let profile = CompetencyProfile::linear(6, 0.1, 0.9).unwrap();
        let inst = ProblemInstance::new(graph, profile, 0.15).unwrap();
        for i in 0..6 {
            assert_eq!(
                inst.approval_count(i),
                inst.approval_set(i).len(),
                "voter {i}"
            );
        }
    }

    #[test]
    fn approval_is_antisymmetric_for_positive_alpha() {
        let graph = generators::complete(5);
        let profile = CompetencyProfile::linear(5, 0.2, 0.8).unwrap();
        let inst = ProblemInstance::new(graph, profile, 0.05).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!(
                    !(inst.approves(i, j) && inst.approves(j, i)),
                    "mutual approval between {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn direct_voting_probability_simple_cases() {
        // Single voter: probability = competency.
        let inst = ProblemInstance::new(
            generators::complete(1),
            CompetencyProfile::constant(1, 0.7).unwrap(),
            0.1,
        )
        .unwrap();
        assert!((inst.direct_voting_probability().unwrap() - 0.7).abs() < 1e-12);

        // Three voters at 0.5: P[X ≥ 2] = 0.5.
        let inst = ProblemInstance::new(
            generators::complete(3),
            CompetencyProfile::constant(3, 0.5).unwrap(),
            0.1,
        )
        .unwrap();
        assert!((inst.direct_voting_probability().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let inst = small_instance();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.alpha(), 0.1);
        assert_eq!(inst.competency(1), 0.5);
        assert_eq!(inst.graph().m(), 2);
        assert_eq!(inst.profile().n(), 3);
    }
}
