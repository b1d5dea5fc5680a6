//! Greedy structural shrinking of failing instances.
//!
//! When a structural check fails, the shrinker searches for a smaller
//! `(actions, competencies)` pair that still fails the same check:
//! removing voters one at a time (remapping delegation targets) and
//! simplifying individual actions to direct votes, iterated to a fixed
//! point. The result is the minimal instance attached to the mismatch
//! report — usually a handful of voters instead of a full grid cell.

use crate::checks::{recheck_structural, CheckId, CheckOutcome};
use crate::Mutation;
use ld_core::delegation::Action;

/// A shrunk failing instance together with the failure detail observed
/// on it.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Minimal failing actions.
    pub actions: Vec<Action>,
    /// Matching competency vector.
    pub ps: Vec<f64>,
    /// The check's diagnostic on the minimal instance.
    pub detail: String,
}

/// Removes voter `v`, remapping every target `t > v` to `t - 1`.
/// Delegations *to* `v` become direct votes; multi-delegations drop `v`
/// from their target list (and become votes when the list empties).
fn remove_voter(actions: &[Action], ps: &[f64], v: usize) -> (Vec<Action>, Vec<f64>) {
    let remap = |t: usize| if t > v { t - 1 } else { t };
    let mut out = Vec::with_capacity(actions.len() - 1);
    for (i, a) in actions.iter().enumerate() {
        if i == v {
            continue;
        }
        out.push(match a {
            Action::Vote => Action::Vote,
            Action::Abstain => Action::Abstain,
            Action::Delegate(t) if *t == v => Action::Vote,
            Action::Delegate(t) => Action::Delegate(remap(*t)),
            Action::DelegateMany(ts) => {
                let kept: Vec<usize> = ts.iter().filter(|&&t| t != v).map(|&t| remap(t)).collect();
                if kept.is_empty() {
                    Action::Vote
                } else {
                    Action::DelegateMany(kept)
                }
            }
            // Future variants are kept as-is; shrinking may then stall
            // early, which only costs minimality, not soundness.
            other => other.clone(),
        });
    }
    let mut ps_out = ps.to_vec();
    if v < ps_out.len() {
        ps_out.remove(v);
    }
    (out, ps_out)
}

/// Upper bound on shrink fixed-point iterations, a safety valve against
/// oscillating checks (which would themselves be determinism bugs).
const MAX_PASSES: usize = 24;

/// Greedily shrinks a failing `(actions, ps)` pair for `check`,
/// returning the smallest still-failing instance found. Returns `None`
/// if the check is not shrinkable or the original input no longer fails
/// (a flaky check — worth surfacing unshrunk).
pub fn shrink_failure(
    check: CheckId,
    actions: &[Action],
    ps: &[f64],
    seed: u64,
    mutation: Option<Mutation>,
) -> Option<Shrunk> {
    if !check.shrinkable() {
        return None;
    }
    let CheckOutcome::Fail(mut detail) = recheck_structural(check, actions, ps, seed, mutation)
    else {
        return None;
    };
    let mut cur_actions = actions.to_vec();
    let mut cur_ps = ps.to_vec();
    let mut changed = true;
    let mut passes = 0;
    while changed && passes < MAX_PASSES {
        changed = false;
        passes += 1;
        // Try removing voters, highest index first so earlier candidate
        // indices stay valid after a successful removal.
        let mut v = cur_actions.len();
        while v > 0 {
            v -= 1;
            if cur_actions.len() <= 1 {
                break;
            }
            let (next_actions, next_ps) = remove_voter(&cur_actions, &cur_ps, v);
            if let CheckOutcome::Fail(d) =
                recheck_structural(check, &next_actions, &next_ps, seed, mutation)
            {
                cur_actions = next_actions;
                cur_ps = next_ps;
                detail = d;
                changed = true;
            }
        }
        // Try removing adjacent pairs: parity-sensitive failures (e.g. a
        // wrong tie-break credit, visible only for even tallies) survive
        // no single removal but shrink two voters at a time.
        let mut v = cur_actions.len();
        while v > 1 {
            v -= 1;
            if cur_actions.len() <= 2 || v >= cur_actions.len() {
                continue;
            }
            let (mid_actions, mid_ps) = remove_voter(&cur_actions, &cur_ps, v);
            let (next_actions, next_ps) = remove_voter(&mid_actions, &mid_ps, v - 1);
            if let CheckOutcome::Fail(d) =
                recheck_structural(check, &next_actions, &next_ps, seed, mutation)
            {
                cur_actions = next_actions;
                cur_ps = next_ps;
                detail = d;
                changed = true;
            }
        }
        // Try simplifying each remaining action to a direct vote.
        for i in 0..cur_actions.len() {
            if matches!(cur_actions[i], Action::Vote) {
                continue;
            }
            let mut next_actions = cur_actions.clone();
            next_actions[i] = Action::Vote;
            if let CheckOutcome::Fail(d) =
                recheck_structural(check, &next_actions, &cur_ps, seed, mutation)
            {
                cur_actions = next_actions;
                detail = d;
                changed = true;
            }
        }
    }
    Some(Shrunk {
        actions: cur_actions,
        ps: cur_ps,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_voter_remaps_targets() {
        let actions = vec![
            Action::Delegate(2),
            Action::Vote,
            Action::Vote,
            Action::DelegateMany(vec![1, 2]),
        ];
        let ps = vec![0.1, 0.2, 0.3, 0.4];
        let (out, ps_out) = remove_voter(&actions, &ps, 1);
        assert_eq!(
            out,
            vec![
                Action::Delegate(1),
                Action::Vote,
                Action::DelegateMany(vec![1]),
            ]
        );
        assert_eq!(ps_out, vec![0.1, 0.3, 0.4]);
        // Delegations to the removed voter become direct votes.
        let (out2, _) = remove_voter(&[Action::Delegate(1), Action::Vote], &[0.5, 0.5], 1);
        assert_eq!(out2, vec![Action::Vote]);
    }

    #[test]
    fn shrinking_a_mutated_tally_failure_reaches_a_tiny_instance() {
        // A 10-voter even electorate at p = 0.5 fails tally-oracle under
        // the tie-flip mutant; the shrinker should cut it down to two
        // voters (the smallest even electorate with tie mass).
        let actions = vec![Action::Vote; 10];
        let ps = vec![0.5; 10];
        let shrunk = shrink_failure(
            CheckId::TallyOracle,
            &actions,
            &ps,
            1,
            Some(Mutation::TieFlip),
        )
        .expect("failure should shrink");
        assert_eq!(shrunk.actions.len(), 2, "shrunk to {:?}", shrunk.actions);
        assert!(shrunk.actions.iter().all(|a| *a == Action::Vote));
    }

    #[test]
    fn passing_input_does_not_shrink() {
        assert!(shrink_failure(CheckId::TallyOracle, &[Action::Vote], &[0.5], 1, None).is_none());
    }
}
