//! Loss functions and their derivatives.

/// Numerically stable `ln(1 + exp(x))`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        0.0
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary log loss for a ±1 label: `ln(1 + exp(-y * margin))`, and its
/// derivative w.r.t. the margin.
///
/// The paper's SVM uses log loss instead of hinge loss (§7.2).
#[inline]
pub fn log_loss(margin: f32, y: f32) -> (f32, f32) {
    let z = y * margin;
    (softplus(-z), -y * sigmoid(-z))
}

/// Softmax cross-entropy over one logit row.
///
/// Returns the loss and writes `softmax(logits) - one_hot(label)` (the
/// gradient w.r.t. the logits) into `dlogits`.
///
/// # Panics
///
/// Panics if shapes mismatch or `label` is out of range.
pub fn softmax_cross_entropy(logits: &[f32], label: usize, dlogits: &mut [f32]) -> f32 {
    assert_eq!(logits.len(), dlogits.len(), "logits/dlogits mismatch");
    assert!(label < logits.len(), "label out of range");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (d, &l) in dlogits.iter_mut().zip(logits) {
        *d = (l - max).exp();
        sum += *d;
    }
    let log_sum = sum.ln() + max;
    let loss = log_sum - logits[label];
    for d in dlogits.iter_mut() {
        *d /= sum;
    }
    dlogits[label] -= 1.0;
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_limits() {
        assert_eq!(softplus(50.0), 50.0);
        assert_eq!(softplus(-50.0), 0.0);
        assert!((softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn log_loss_gradient_matches_finite_difference() {
        for &(m, y) in &[(0.3f32, 1.0f32), (-1.2, -1.0), (2.0, -1.0), (0.0, 1.0)] {
            let (_, g) = log_loss(m, y);
            let eps = 1e-3;
            let (up, _) = log_loss(m + eps, y);
            let (down, _) = log_loss(m - eps, y);
            let numeric = (up - down) / (2.0 * eps);
            assert!((numeric - g).abs() < 1e-3, "m={m} y={y}: {numeric} vs {g}");
        }
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero() {
        let logits = [1.0, 2.0, 0.5];
        let mut d = [0.0; 3];
        let loss = softmax_cross_entropy(&logits, 1, &mut d);
        assert!(loss > 0.0);
        let sum: f32 = d.iter().sum();
        assert!(sum.abs() < 1e-6);
        // True-class gradient is negative, others positive.
        assert!(d[1] < 0.0 && d[0] > 0.0 && d[2] > 0.0);
    }

    #[test]
    fn softmax_ce_perfect_prediction_low_loss() {
        let logits = [10.0, -10.0];
        let mut d = [0.0; 2];
        let loss = softmax_cross_entropy(&logits, 0, &mut d);
        assert!(loss < 1e-6);
    }

    #[test]
    fn softmax_ce_is_stable_for_huge_logits() {
        let logits = [1e4, 1e4 + 1.0];
        let mut d = [0.0; 2];
        let loss = softmax_cross_entropy(&logits, 1, &mut d);
        assert!(loss.is_finite());
    }
}
