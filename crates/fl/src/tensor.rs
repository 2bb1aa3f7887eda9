//! Dense vector math shared by models, optimizers, and aggregation.

/// `y += alpha * x` (AXPY).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
#[must_use]
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Scales `v` in place.
pub fn scale(v: &mut [f32], s: f32) {
    for x in v.iter_mut() {
        *x *= s;
    }
}

/// Clips `v` in place to L2 norm at most `bound`; returns the original
/// norm.
pub fn clip_l2(v: &mut [f32], bound: f32) -> f32 {
    let n = l2_norm(v);
    if n > bound && n > 0.0 {
        scale(v, bound / n);
    }
    n
}

/// Elementwise difference `a - b`.
#[must_use]
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Numerically stable softmax (in place).
pub fn softmax_inplace(logits: &mut [f32]) {
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in logits.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in logits.iter_mut() {
        *x /= sum;
    }
}

/// Index of the maximum element.
#[must_use]
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn l2_norm_basic() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut v = vec![3.0, 4.0];
        let orig = clip_l2(&mut v, 1.0);
        assert!((orig - 5.0).abs() < 1e-6);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        // Already-small vectors are untouched.
        let mut w = vec![0.3, 0.4];
        clip_l2(&mut w, 1.0);
        assert_eq!(w, vec![0.3, 0.4]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut v = vec![1000.0, 1001.0, 999.0];
        softmax_inplace(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(v[1] > v[0] && v[0] > v[2]);
    }

    #[test]
    fn argmax_first_max() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[2.0, 1.0]), 0);
    }

    #[test]
    fn sub_elementwise() {
        assert_eq!(sub(&[5.0, 7.0], &[2.0, 3.0]), vec![3.0, 4.0]);
    }
}
