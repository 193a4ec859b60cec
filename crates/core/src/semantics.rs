//! Pure protocol semantics shared by the simulated and threaded runtimes.
//!
//! Everything numerical about the protocols — which updates a `Recv`
//! consumes, how a `Reduce` weighs them, when a straggler jumps — lives
//! here as pure functions so both runtimes (discrete-event and real
//! threads) provably run the same algorithm, and the functions can be
//! unit-tested in isolation.

use crate::config::SkipConfig;
use hop_tensor::ops::{self, SgdStep};

/// Number of updates a `Recv` must collect with backup workers (Fig. 8):
/// `|Nin(i)| - N_buw(i)`.
///
/// # Panics
///
/// Panics if `n_backup >= in_degree` (validated earlier by
/// [`crate::config::HopConfig::validate`]).
pub fn backup_quota(in_degree: usize, n_backup: usize) -> usize {
    assert!(n_backup < in_degree, "N_buw must be < |Nin|");
    in_degree - n_backup
}

/// The quota of a §5 jump renew's `Recv(target - 1)`: the Fig. 8 quota
/// counted over the `external_in` external in-neighbors alone (the jumping
/// worker never sent itself an update for that iteration), and at least 1.
pub(crate) fn renew_quota(external_in: usize, n_backup: usize) -> usize {
    backup_quota(external_in + 1, n_backup)
        .saturating_sub(1)
        .max(1)
}

/// Uniform Reduce (Fig. 4 line 15): elementwise mean of the received
/// parameter vectors. The parallel-order Apply (Fig. 2b / Fig. 4 line 17)
/// rides the same sweep: `apply` is `Sgd::step_onto` — the gradient, the
/// pre-reduce parameters it was taken at and the velocity — which
/// advances the velocity and makes `out` `mean + (-lr) * v`, bit for bit
/// the separate velocity pass and `axpy` pass over the mean. Given the
/// `reference` of the worker's outgoing int8 stream, the sweep also
/// returns the next step's scale input, `max|out - reference|`
/// ([`ops::scaled_sum`]).
///
/// # Panics
///
/// Panics if `updates` is empty or lengths mismatch.
pub fn reduce_mean(
    updates: &[&[f32]],
    apply: Option<SgdStep<'_>>,
    reference: Option<&[f32]>,
    out: &mut [f32],
) -> Option<f32> {
    assert!(!updates.is_empty(), "reduce of zero updates");
    ops::scaled_sum(
        updates,
        None,
        1.0 / updates.len() as f32,
        apply,
        reference,
        out,
    )
}

/// Whether an update of iteration `update_iter` is *satisfactory* for a
/// worker in iteration `k` under staleness bound `s` (§4.4): it must be at
/// most `s` iterations old, i.e. `update_iter >= k - s`.
pub fn staleness_satisfied(update_iter: u64, k: u64, s: u64) -> bool {
    update_iter + s >= k
}

/// How stale updates are weighted in the bounded-staleness Reduce.
///
/// The paper settles on the linear rule of Eq. (2) but notes it "may very
/// well be non-optimal" and leaves alternatives to future work (§4.4);
/// the extra schemes here support that ablation (the §4.4 weighting row
/// of `tests/paper_claims.rs`, where linear does not beat uniform).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StalenessWeighting {
    /// Eq. (2): weight `Iter(u) - (k - s) + 1`, linear in freshness.
    #[default]
    Linear,
    /// Plain averaging: every satisfactory update weighs 1.
    Uniform,
    /// Exponential decay: weight `decay^(k - Iter(u))` with
    /// `decay` in `(0, 1]`; sharper-than-linear preference for fresh
    /// updates.
    Exponential {
        /// Per-iteration decay factor.
        decay: f32,
    },
}

/// The Eq. (2) weight of an update of iteration `update_iter` for a worker
/// in iteration `k` with staleness bound `s`:
/// `Iter(u) - (k - s) + 1`, clamped to at least 1 so that a worker's own
/// older-than-bound parameters (possible right after a jump, §5) still
/// carry minimal weight instead of a non-positive one.
pub fn staleness_weight(update_iter: u64, k: u64, s: u64) -> f32 {
    let w = update_iter as i64 - (k as i64 - s as i64) + 1;
    w.max(1) as f32
}

/// The weight of an update under the chosen [`StalenessWeighting`].
pub fn staleness_weight_with(scheme: StalenessWeighting, update_iter: u64, k: u64, s: u64) -> f32 {
    match scheme {
        StalenessWeighting::Linear => staleness_weight(update_iter, k, s),
        StalenessWeighting::Uniform => 1.0,
        StalenessWeighting::Exponential { decay } => {
            assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
            let age = k.saturating_sub(update_iter) as i32;
            decay.powi(age).max(f32::MIN_POSITIVE)
        }
    }
}

/// Bounded-staleness Reduce (Fig. 9 lines 18–27, Eq. 2): the average of
/// the newest satisfactory updates, weighted by `scheme` (Eq. 2's
/// iteration weights under [`StalenessWeighting::Linear`]), with the
/// parallel-order Apply and the measured maximum as in [`reduce_mean`].
///
/// # Panics
///
/// Panics if `updates` is empty or lengths mismatch.
pub fn reduce_staleness_with(
    scheme: StalenessWeighting,
    updates: &[(u64, &[f32])],
    k: u64,
    s: u64,
    apply: Option<SgdStep<'_>>,
    reference: Option<&[f32]>,
    out: &mut [f32],
) -> Option<f32> {
    assert!(!updates.is_empty(), "reduce of zero updates");
    let weights = updates
        .iter()
        .map(|&(iter, _)| staleness_weight_with(scheme, iter, k, s));
    with_inline(weights, 0.0, |weights| {
        with_inline(updates.iter().map(|&(_, x)| x), &[][..], |slices| {
            let wsum: f32 = weights.iter().sum();
            assert!(wsum > 0.0, "weight sum must be positive, got {wsum}");
            ops::scaled_sum(slices, Some(weights), 1.0 / wsum, apply, reference, out)
        })
    })
}

/// Calls `f` with `items` collected: into an array on the stack (the
/// unused slots hold `fill`) when there are at most 16, into a `Vec`
/// otherwise. A Reduce over an in-degree of 16 or less thus allocates
/// nothing for its input lists.
pub(crate) fn with_inline<T: Copy, R>(
    items: impl IntoIterator<Item = T>,
    fill: T,
    f: impl FnOnce(&[T]) -> R,
) -> R {
    const INLINE: usize = 16;
    let mut inline = [fill; INLINE];
    let mut items = items.into_iter();
    let mut n = 0;
    // `zip` asks the array first, so a 17th item stays in `items`.
    for (slot, item) in inline.iter_mut().zip(items.by_ref()) {
        *slot = item;
        n += 1;
    }
    match items.next() {
        None => f(&inline[..n]),
        Some(next) => f(&inline
            .into_iter()
            .chain([next])
            .chain(items)
            .collect::<Vec<_>>()),
    }
}

/// The skip decision of §5, made while acquiring tokens at the end of an
/// iteration. `token_counts` holds the number of tokens currently visible
/// in `TokenQ(o -> me)` for each out-going neighbor `o`; each count equals
/// `Iter(o) - Iter(me) + max_ig`, so `min(counts) - max_ig` is exactly how
/// far this worker trails its slowest out-going neighbor.
///
/// Returns the *total* number of iterations to advance (`>= 2`) when a
/// jump should happen, or `None` for a normal single-step advance. The
/// jump is capped by `max_jump` (user setting) and by
/// `min(counts) - max_ig` (the "intuitive upper-bound" that keeps the
/// straggler from overtaking its neighbors).
pub fn jump_decision(token_counts: &[u64], max_ig: u64, skip: &SkipConfig) -> Option<u64> {
    let min_tokens = token_counts.iter().copied().min()?;
    let behind = min_tokens.saturating_sub(max_ig);
    if behind < skip.trigger_behind {
        return None;
    }
    let jump = behind.min(skip.max_jump);
    (jump >= 2).then_some(jump)
}

/// The jump a runtime takes from iteration `k`: [`jump_decision`] capped
/// so it never passes `max_iters`, and no jump if the cap leaves less
/// than 2. Finished neighbors flood their token queues, which would
/// otherwise inflate the distance beyond any iteration they sent updates
/// for.
pub(crate) fn jump_before_end(
    token_counts: &[u64],
    max_ig: u64,
    skip: &SkipConfig,
    k: u64,
    max_iters: u64,
) -> Option<u64> {
    jump_decision(token_counts, max_ig, skip)
        .map(|j| j.min(max_iters - k))
        .filter(|&j| j >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_subtracts_backups() {
        assert_eq!(backup_quota(5, 0), 5);
        assert_eq!(backup_quota(5, 2), 3);
        // A renew counts externals only, and waits for at least one.
        assert_eq!(renew_quota(4, 0), 4);
        assert_eq!(renew_quota(4, 2), 2);
        assert_eq!(renew_quota(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "N_buw")]
    fn quota_validates() {
        backup_quota(3, 3);
    }

    #[test]
    fn mean_reduce() {
        let a = [2.0, 0.0];
        let b = [0.0, 4.0];
        let mut out = [9.0, 9.0];
        reduce_mean(&[&a, &b], None, None, &mut out);
        assert_eq!(out, [1.0, 2.0]);
        // v = 0.5 * 3 + g + 0.25 * 2, then out = mean - 0.5 * v.
        let mut velocity = [3.0, 3.0];
        let step = SgdStep {
            lr: 0.5,
            momentum: 0.5,
            weight_decay: 0.25,
            grad: &[-0.5, -2.5],
            params: &[2.0, 2.0],
            velocity: &mut velocity,
        };
        // The outgoing stream's receivers hold [0, 3]: |0.25|, |-0.75|.
        let max = reduce_mean(&[&a, &b], Some(step), Some(&[0.0, 3.0]), &mut out);
        assert_eq!(velocity, [1.5, -0.5]);
        assert_eq!(out, [0.25, 2.25]);
        assert_eq!(max, Some(0.75));
    }

    #[test]
    fn satisfaction_boundary() {
        // k = 10, s = 3: updates of iterations 7..=10 are satisfactory.
        assert!(staleness_satisfied(7, 10, 3));
        assert!(!staleness_satisfied(6, 10, 3));
        assert!(staleness_satisfied(10, 10, 3));
        // Early iterations: k <= s means everything satisfies.
        assert!(staleness_satisfied(0, 3, 3));
    }

    #[test]
    fn eq2_weights() {
        // k = 10, s = 3: weight(7) = 1, weight(10) = 4.
        assert_eq!(staleness_weight(7, 10, 3), 1.0);
        assert_eq!(staleness_weight(10, 10, 3), 4.0);
        // Clamp below 1 (an over-stale own update after a jump).
        assert_eq!(staleness_weight(2, 10, 3), 1.0);
    }

    #[test]
    fn weighting_schemes_order_freshness_sensitivity() {
        // k = 10, s = 4; updates of iters 10 (fresh) and 6 (stale).
        let fresh_bias = |scheme| {
            staleness_weight_with(scheme, 10, 10, 4) / staleness_weight_with(scheme, 6, 10, 4)
        };
        assert_eq!(fresh_bias(StalenessWeighting::Uniform), 1.0);
        assert_eq!(fresh_bias(StalenessWeighting::Linear), 5.0);
        let exp = fresh_bias(StalenessWeighting::Exponential { decay: 0.5 });
        assert!((exp - 16.0).abs() < 1e-4, "exp ratio {exp}");
    }

    #[test]
    fn reduce_with_uniform_matches_mean() {
        let a = [2.0f32, 0.0];
        let b = [0.0f32, 4.0];
        let mut weighted = [0.0f32; 2];
        reduce_staleness_with(
            StalenessWeighting::Uniform,
            &[(9, &a), (5, &b)],
            9,
            4,
            None,
            None,
            &mut weighted,
        );
        assert_eq!(weighted, [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn exponential_validates_decay() {
        staleness_weight_with(StalenessWeighting::Exponential { decay: 1.5 }, 0, 0, 0);
    }

    #[test]
    fn staleness_reduce_matches_eq2_by_hand() {
        // k = 5, s = 2; updates of iters 5 and 3 → weights 3 and 1.
        let newest = [4.0f32, 0.0];
        let older = [0.0f32, 4.0];
        let mut out = [0.0f32; 2];
        reduce_staleness_with(
            StalenessWeighting::Linear,
            &[(5, &newest), (3, &older)],
            5,
            2,
            None,
            None,
            &mut out,
        );
        assert_eq!(out, [3.0, 1.0]);
    }

    #[test]
    fn jump_needs_trigger() {
        let skip = SkipConfig {
            max_jump: 10,
            trigger_behind: 3,
        };
        // min tokens 7, max_ig 5 → behind 2 < trigger 3: no jump.
        assert_eq!(jump_decision(&[7, 9], 5, &skip), None);
        // behind 4 ≥ 3 → jump 4.
        assert_eq!(jump_decision(&[9, 11], 5, &skip), Some(4));
    }

    #[test]
    fn jump_caps_at_max_jump() {
        let skip = SkipConfig {
            max_jump: 2,
            trigger_behind: 2,
        };
        assert_eq!(jump_decision(&[15, 12], 5, &skip), Some(2));
        // The end of training caps it too, and a cap under 2 is no jump.
        let skip = SkipConfig::with_max_jump(10);
        assert_eq!(jump_before_end(&[15, 12], 5, &skip, 4, 10), Some(6));
        assert_eq!(jump_before_end(&[15, 12], 5, &skip, 4, 7), Some(3));
        assert_eq!(jump_before_end(&[15, 12], 5, &skip, 4, 5), None);
    }

    #[test]
    fn jump_of_one_is_normal_advance() {
        let skip = SkipConfig {
            max_jump: 10,
            trigger_behind: 1,
        };
        // behind = 1 → a jump of 1 is pointless; decline.
        assert_eq!(jump_decision(&[6], 5, &skip), None);
    }

    #[test]
    fn fig10_examples() {
        // Fig. 10(a): max_ig 5, tokens(B->A) = tokens(C->A) = 9 → A jumps 4
        // (iteration 5 → 9).
        let skip = SkipConfig {
            max_jump: 10,
            trigger_behind: 2,
        };
        assert_eq!(jump_decision(&[9, 9], 5, &skip), Some(4));
        // Fig. 10(b): tokens = 10 → A jumps 5 (iteration 5 → 10).
        assert_eq!(jump_decision(&[10, 10], 5, &skip), Some(5));
    }

    #[test]
    fn empty_token_list_never_jumps() {
        // A worker with no external out-neighbors observes no token
        // queues; the decision must decline rather than panic on min().
        let skip = SkipConfig::with_max_jump(5);
        assert_eq!(jump_decision(&[], 5, &skip), None);
        let eager = SkipConfig {
            max_jump: 10,
            trigger_behind: 0,
        };
        assert_eq!(jump_decision(&[], 5, &eager), None);
    }

    #[test]
    fn zero_trigger_still_requires_a_real_jump() {
        // trigger_behind = 0: the trigger never blocks the jump, but a
        // computed jump of 0 or 1 is still a normal advance.
        let skip = SkipConfig {
            max_jump: 10,
            trigger_behind: 0,
        };
        assert_eq!(jump_decision(&[5], 5, &skip), None, "behind 0");
        assert_eq!(jump_decision(&[6], 5, &skip), None, "behind 1");
        assert_eq!(jump_decision(&[7], 5, &skip), Some(2), "behind 2");
    }

    #[test]
    fn max_jump_below_two_never_jumps() {
        // max_jump < 2 caps every jump below the minimum useful distance;
        // the decision degenerates to "never jump" no matter how far
        // behind. (Config validation rejects such configs up front; the
        // pure rule must still be total.)
        let skip = SkipConfig {
            max_jump: 1,
            trigger_behind: 1,
        };
        assert_eq!(jump_decision(&[50], 5, &skip), None);
        let skip = SkipConfig {
            max_jump: 0,
            trigger_behind: 0,
        };
        assert_eq!(jump_decision(&[50], 5, &skip), None);
    }

    #[test]
    fn tokens_below_max_ig_never_jump() {
        // Saturating subtraction: fewer tokens than max_ig means the
        // worker is *ahead*, not behind.
        let skip = SkipConfig {
            max_jump: 10,
            trigger_behind: 0,
        };
        assert_eq!(jump_decision(&[2, 9], 5, &skip), None);
    }

    #[test]
    fn weighting_schemes_edge_cases() {
        // Fresh update (age 0): every scheme gives weight >= 1... exactly
        // s + 1 for linear, 1 for uniform and exponential.
        assert_eq!(
            staleness_weight_with(StalenessWeighting::Linear, 10, 10, 3),
            4.0
        );
        assert_eq!(
            staleness_weight_with(StalenessWeighting::Uniform, 10, 10, 3),
            1.0
        );
        assert_eq!(
            staleness_weight_with(StalenessWeighting::Exponential { decay: 0.5 }, 10, 10, 3),
            1.0
        );
        // decay = 1.0 is legal and degenerates to uniform.
        assert_eq!(
            staleness_weight_with(StalenessWeighting::Exponential { decay: 1.0 }, 2, 10, 3),
            1.0
        );
        // An update from the "future" (possible right after a jump, when
        // neighbors run ahead): age saturates at 0 instead of underflowing.
        assert_eq!(
            staleness_weight_with(StalenessWeighting::Exponential { decay: 0.5 }, 12, 10, 3),
            1.0
        );
        assert_eq!(
            staleness_weight_with(StalenessWeighting::Linear, 12, 10, 3),
            6.0
        );
        // Extreme staleness: the exponential weight floors at
        // MIN_POSITIVE instead of flushing to zero (a zero total weight
        // would divide by zero in the reduce).
        let w = staleness_weight_with(StalenessWeighting::Exponential { decay: 0.1 }, 0, 200, 3);
        assert!(w > 0.0, "weight must stay positive, got {w}");
    }
}
