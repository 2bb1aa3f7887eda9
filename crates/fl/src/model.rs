//! Classification models with manual backpropagation.
//!
//! Two trainable architectures cover the paper's utility experiments in
//! synthetic form: a softmax-regression [`Linear`] model and a one-hidden-
//! layer ReLU [`Mlp`]. Both expose a flat parameter vector so federated
//! aggregation, DP encoding, and secure aggregation can treat models as
//! opaque `Vec<f32>`s — exactly how Dordis treats PyTorch state dicts.
//!
//! Each model also keeps the transpose of its weight matrices beside the
//! flat parameters, rebuilt whenever they are set, so a forward pass
//! (`affine`) runs its inner loop across output units, where the
//! compiler vectorises it, instead of along one serial dot product per
//! unit. Each output still receives the row-major dot product's
//! additions in the same order (and Rust never contracts `a * b + c` to a
//! fused multiply-add), so the results are bit-equal to the row-major
//! form; `tests::row_major_*` keep that form as the oracle.

use crate::tensor::{argmax, softmax_inplace};

/// A model trainable by the federated loop.
pub trait Model: Send {
    /// Number of scalar parameters.
    fn num_params(&self) -> usize;
    /// Copies the flattened parameters out.
    fn params(&self) -> Vec<f32>;
    /// Overwrites parameters from a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    fn set_params(&mut self, params: &[f32]);
    /// Accumulates the gradient of the mean cross-entropy loss over a
    /// batch into `grad` (which must be zeroed by the caller) and returns
    /// the mean loss.
    fn grad_batch(&self, xs: &[&[f32]], ys: &[usize], grad: &mut [f32]) -> f32;
    /// Predicts the class of one example.
    fn predict(&self, x: &[f32]) -> usize;
    /// Cross-entropy loss of one example.
    fn loss(&self, x: &[f32], y: usize) -> f32;
    /// Calls `visit(i, logits)` with the logits of each example `xs[i]`,
    /// in order, all computed into one set of buffers. `visit` may
    /// overwrite `logits`; the next example's pass rewrites them.
    fn for_each_logits(&self, xs: &[Vec<f32>], visit: &mut dyn FnMut(usize, &mut [f32]));
    /// Boxed clone (object-safe).
    fn clone_box(&self) -> Box<dyn Model>;
}

/// `out[o] = bias[o] + Σ_i x[i] · W[o][i]`, summed in `i` order, from
/// `wt`, the `x.len() × out.len()` transpose of the row-major `W`.
///
/// Every output gets the additions of the row-major dot product in the
/// same order, so the result is bit-equal to it; the inner loop runs
/// across outputs, one broadcast multiply-add per input.
fn affine(x: &[f32], wt: &[f32], bias: &[f32], out: &mut [f32]) {
    debug_assert_eq!(wt.len(), x.len() * out.len());
    out.copy_from_slice(bias);
    if out.is_empty() {
        return;
    }
    for (xi, row) in x.iter().zip(wt.chunks_exact(out.len())) {
        for (o, w) in out.iter_mut().zip(row) {
            *o += xi * w;
        }
    }
}

/// Writes the transpose of the row-major `rows × cols` matrix `w` to
/// `wt` (`cols × rows`).
fn transpose(w: &[f32], rows: usize, cols: usize, wt: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(wt.len(), rows * cols);
    if w.is_empty() {
        return;
    }
    for (r, row) in w.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            wt[c * rows + r] = v;
        }
    }
}

/// Softmax regression: `logits = W x + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    input_dim: usize,
    classes: usize,
    /// Row-major `classes x input_dim` weights followed by `classes` biases.
    params: Vec<f32>,
    /// `Wᵀ` (`input_dim x classes`), kept in step with `params`.
    wt: Vec<f32>,
}

impl Linear {
    /// Creates a zero-initialized linear classifier.
    #[must_use]
    pub fn new(input_dim: usize, classes: usize) -> Self {
        Linear {
            input_dim,
            classes,
            params: vec![0.0; classes * input_dim + classes],
            wt: vec![0.0; classes * input_dim],
        }
    }

    fn logits(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.input_dim);
        let mut out = vec![0.0f32; self.classes];
        affine(x, &self.wt, &self.params[self.wt.len()..], &mut out);
        out
    }

    fn probs(&self, x: &[f32]) -> Vec<f32> {
        let mut l = self.logits(x);
        softmax_inplace(&mut l);
        l
    }
}

impl Model for Linear {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len());
        self.params.copy_from_slice(params);
        let w = &self.params[..self.wt.len()];
        transpose(w, self.classes, self.input_dim, &mut self.wt);
    }

    fn grad_batch(&self, xs: &[&[f32]], ys: &[usize], grad: &mut [f32]) -> f32 {
        assert_eq!(grad.len(), self.params.len());
        assert_eq!(xs.len(), ys.len());
        let n = xs.len() as f32;
        let mut total_loss = 0.0f32;
        let bias_off = self.classes * self.input_dim;
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let p = self.probs(x);
            total_loss += -(p[y].max(1e-12)).ln();
            for c in 0..self.classes {
                let err = (p[c] - if c == y { 1.0 } else { 0.0 }) / n;
                let row = &mut grad[c * self.input_dim..(c + 1) * self.input_dim];
                for (g, xi) in row.iter_mut().zip(x.iter()) {
                    *g += err * xi;
                }
                grad[bias_off + c] += err;
            }
        }
        total_loss / n
    }

    fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.logits(x))
    }

    fn loss(&self, x: &[f32], y: usize) -> f32 {
        -(self.probs(x)[y].max(1e-12)).ln()
    }

    fn for_each_logits(&self, xs: &[Vec<f32>], visit: &mut dyn FnMut(usize, &mut [f32])) {
        let mut logits = vec![0.0f32; self.classes];
        for (i, x) in xs.iter().enumerate() {
            debug_assert_eq!(x.len(), self.input_dim);
            affine(x, &self.wt, &self.params[self.wt.len()..], &mut logits);
            visit(i, &mut logits);
        }
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// One-hidden-layer ReLU MLP: `logits = W2 relu(W1 x + b1) + b2`.
#[derive(Clone, Debug)]
pub struct Mlp {
    input_dim: usize,
    hidden: usize,
    classes: usize,
    /// Layout: `W1 (hidden x input) || b1 (hidden) || W2 (classes x hidden)
    /// || b2 (classes)`.
    params: Vec<f32>,
    /// `W1ᵀ (input x hidden) || W2ᵀ (hidden x classes)`, kept in step
    /// with `params`.
    wt: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with small deterministic He-style initialization.
    #[must_use]
    pub fn new(input_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let count = hidden * input_dim + hidden + classes * hidden + classes;
        let mut params = vec![0.0f32; count];
        // Deterministic xorshift init so experiments are reproducible.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to roughly N(0,1) by averaging uniforms.
            let u1 = (state >> 11) as f32 / (1u64 << 53) as f32;
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u2 = (state >> 11) as f32 / (1u64 << 53) as f32;
            (u1 + u2 - 1.0) * 1.732
        };
        let w1_scale = (2.0 / input_dim as f32).sqrt();
        for p in params.iter_mut().take(hidden * input_dim) {
            *p = next() * w1_scale;
        }
        let w2_off = hidden * input_dim + hidden;
        let w2_scale = (2.0 / hidden as f32).sqrt();
        for p in params[w2_off..w2_off + classes * hidden].iter_mut() {
            *p = next() * w2_scale;
        }
        let mut mlp = Mlp {
            input_dim,
            hidden,
            classes,
            wt: vec![0.0; hidden * input_dim + classes * hidden],
            params,
        };
        mlp.transpose_weights();
        mlp
    }

    /// Rebuilds `wt` from `params`.
    fn transpose_weights(&mut self) {
        let (w1_len, w2_len) = (self.hidden * self.input_dim, self.classes * self.hidden);
        let w2_off = w1_len + self.hidden;
        let (w1t, w2t) = self.wt.split_at_mut(w1_len);
        transpose(&self.params[..w1_len], self.hidden, self.input_dim, w1t);
        let w2 = &self.params[w2_off..w2_off + w2_len];
        transpose(w2, self.classes, self.hidden, w2t);
    }

    /// `(relu(W1 x + b1), W2 h + b2)`.
    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut h = vec![0.0f32; self.hidden];
        let mut logits = vec![0.0f32; self.classes];
        self.forward_into(x, &mut h, &mut logits);
        (h, logits)
    }

    /// [`Mlp::forward`] into caller-held buffers of `hidden` and
    /// `classes` values.
    fn forward_into(&self, x: &[f32], h: &mut [f32], logits: &mut [f32]) {
        debug_assert_eq!(x.len(), self.input_dim);
        let b1_off = self.hidden * self.input_dim;
        let w2_off = b1_off + self.hidden;
        let b2_off = w2_off + self.classes * self.hidden;
        let (w1t, w2t) = self.wt.split_at(b1_off);
        affine(x, w1t, &self.params[b1_off..w2_off], h);
        for hj in h.iter_mut() {
            *hj = hj.max(0.0);
        }
        affine(h, w2t, &self.params[b2_off..], logits);
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len());
        self.params.copy_from_slice(params);
        self.transpose_weights();
    }

    fn grad_batch(&self, xs: &[&[f32]], ys: &[usize], grad: &mut [f32]) -> f32 {
        assert_eq!(grad.len(), self.params.len());
        let n = xs.len() as f32;
        let b1_off = self.hidden * self.input_dim;
        let w2_off = b1_off + self.hidden;
        let b2_off = w2_off + self.classes * self.hidden;
        let (hidden, input) = (self.hidden, self.input_dim);
        let mut total_loss = 0.0f32;
        // One set of buffers for the batch: `dlog` holds the logits,
        // then the probabilities, then dL/dlogits.
        let (mut h, mut dlog) = (vec![0.0f32; hidden], vec![0.0f32; self.classes]);
        let mut dh = vec![0.0f32; hidden];
        for (x, &y) in xs.iter().zip(ys.iter()) {
            self.forward_into(x, &mut h, &mut dlog);
            softmax_inplace(&mut dlog);
            total_loss += -(dlog[y].max(1e-12)).ln();
            // dL/dlogits.
            dlog[y] -= 1.0;
            for d in dlog.iter_mut() {
                *d /= n;
            }
            // W2, b2 grads and dL/dh.
            dh.fill(0.0);
            let (w2_grad, b2_grad) = grad[w2_off..].split_at_mut(b2_off - w2_off);
            let w2 = &self.params[w2_off..b2_off];
            for (c, (d, b)) in dlog.iter().zip(b2_grad).enumerate() {
                let g_row = &mut w2_grad[c * hidden..(c + 1) * hidden];
                let w_row = &w2[c * hidden..(c + 1) * hidden];
                for (((g, w), hj), dhj) in g_row.iter_mut().zip(w_row).zip(&h).zip(&mut dh) {
                    *g += d * hj;
                    *dhj += d * w;
                }
                *b += d;
            }
            // Through ReLU into W1, b1.
            let (w1_grad, b1_grad) = grad[..w2_off].split_at_mut(b1_off);
            for (j, ((&hj, &dhj), b)) in h.iter().zip(&dh).zip(b1_grad).enumerate() {
                if hj <= 0.0 {
                    continue;
                }
                for (g, xi) in w1_grad[j * input..(j + 1) * input].iter_mut().zip(x.iter()) {
                    *g += dhj * xi;
                }
                *b += dhj;
            }
        }
        total_loss / n
    }

    fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.forward(x).1)
    }

    fn loss(&self, x: &[f32], y: usize) -> f32 {
        let (_, mut logits) = self.forward(x);
        softmax_inplace(&mut logits);
        -(logits[y].max(1e-12)).ln()
    }

    fn for_each_logits(&self, xs: &[Vec<f32>], visit: &mut dyn FnMut(usize, &mut [f32])) {
        let (mut h, mut logits) = (vec![0.0f32; self.hidden], vec![0.0f32; self.classes]);
        for (i, x) in xs.iter().enumerate() {
            self.forward_into(x, &mut h, &mut logits);
            visit(i, &mut logits);
        }
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle of `Linear::logits`: one serial row-major dot product
    /// per class.
    fn row_major_logits(m: &Linear, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m.classes];
        for c in 0..m.classes {
            let row = &m.params[c * m.input_dim..(c + 1) * m.input_dim];
            let mut acc = m.params[m.classes * m.input_dim + c];
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            out[c] = acc;
        }
        out
    }

    /// The oracle of `Mlp::forward`: one serial row-major dot product per
    /// unit.
    fn row_major_forward(m: &Mlp, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let b1_off = m.hidden * m.input_dim;
        let w2_off = b1_off + m.hidden;
        let b2_off = w2_off + m.classes * m.hidden;
        let mut h = vec![0.0f32; m.hidden];
        for j in 0..m.hidden {
            let row = &m.params[j * m.input_dim..(j + 1) * m.input_dim];
            let mut acc = m.params[b1_off + j];
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            h[j] = acc.max(0.0);
        }
        let mut logits = vec![0.0f32; m.classes];
        for c in 0..m.classes {
            let row = &m.params[w2_off + c * m.hidden..w2_off + (c + 1) * m.hidden];
            let mut acc = m.params[b2_off + c];
            for (w, hj) in row.iter().zip(h.iter()) {
                acc += w * hj;
            }
            logits[c] = acc;
        }
        (h, logits)
    }

    /// The oracle of `Mlp::grad_batch`: [`row_major_forward`] and
    /// indexed backward loops, fresh buffers per example.
    fn row_major_grad_batch(m: &Mlp, xs: &[&[f32]], ys: &[usize], grad: &mut [f32]) -> f32 {
        let n = xs.len() as f32;
        let b1_off = m.hidden * m.input_dim;
        let w2_off = b1_off + m.hidden;
        let b2_off = w2_off + m.classes * m.hidden;
        let mut total_loss = 0.0f32;
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let (h, mut probs) = row_major_forward(m, x);
            softmax_inplace(&mut probs);
            total_loss += -(probs[y].max(1e-12)).ln();
            let mut dlog = probs;
            dlog[y] -= 1.0;
            for d in dlog.iter_mut() {
                *d /= n;
            }
            let mut dh = vec![0.0f32; m.hidden];
            for c in 0..m.classes {
                let row_off = w2_off + c * m.hidden;
                for j in 0..m.hidden {
                    grad[row_off + j] += dlog[c] * h[j];
                    dh[j] += dlog[c] * m.params[row_off + j];
                }
                grad[b2_off + c] += dlog[c];
            }
            for j in 0..m.hidden {
                if h[j] <= 0.0 {
                    continue;
                }
                let row_off = j * m.input_dim;
                for (g, xi) in grad[row_off..row_off + m.input_dim]
                    .iter_mut()
                    .zip(x.iter())
                {
                    *g += dh[j] * xi;
                }
                grad[b1_off + j] += dh[j];
            }
        }
        total_loss / n
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An MLP whose hidden unit `j` is ReLU-dead for every input in
    /// `[-3, 3)` where bit `j % 64` of `dead` is set.
    fn mlp_with_dead_units(
        input: usize,
        hidden: usize,
        classes: usize,
        seed: u64,
        dead: u64,
    ) -> Mlp {
        let mut m = Mlp::new(input, hidden, classes, seed);
        let mut p = m.params();
        for j in (0..hidden).filter(|j| dead >> (j % 64) & 1 == 1) {
            p[hidden * input + j] = -1e6;
        }
        m.set_params(&p);
        m
    }

    /// Checks every `Model` entry point of `m` against the row-major
    /// oracle on the examples `xs`, bit for bit.
    fn assert_mlp_matches_row_major(m: &Mlp, xs: &[&[f32]], ys: &[usize]) {
        for (x, &y) in xs.iter().zip(ys) {
            let (h, logits) = m.forward(x);
            let (want_h, want_logits) = row_major_forward(m, x);
            assert_eq!(bits(&h), bits(&want_h));
            assert_eq!(bits(&logits), bits(&want_logits));
            assert_eq!(m.predict(x), argmax(&want_logits));
            let mut probs = want_logits;
            softmax_inplace(&mut probs);
            let want_loss = -(probs[y].max(1e-12)).ln();
            assert_eq!(m.loss(x, y).to_bits(), want_loss.to_bits());
        }
        let mut grad = vec![0.0f32; m.num_params()];
        let loss = m.grad_batch(xs, ys, &mut grad);
        let mut want_grad = vec![0.0f32; m.num_params()];
        let want_loss = row_major_grad_batch(m, xs, ys, &mut want_grad);
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        assert_eq!(bits(&grad), bits(&want_grad));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn mlp_agrees_bit_for_bit_with_the_row_major_oracle(
            input in 1usize..45,
            hidden in 1usize..70,
            classes in 2usize..20,
            batch in 1usize..6,
            seed in any::<u64>(),
            dead in any::<u64>(),
            values in proptest::collection::vec(-3.0f32..3.0, 5 * 44),
            labels in proptest::collection::vec(0usize..1000, 5),
        ) {
            let m = mlp_with_dead_units(input, hidden, classes, seed, dead);
            let xs: Vec<&[f32]> = values.chunks_exact(input).take(batch).collect();
            let ys: Vec<usize> = labels[..batch].iter().map(|y| y % classes).collect();
            assert_mlp_matches_row_major(&m, &xs, &ys);
        }

        #[test]
        fn linear_logits_agree_bit_for_bit_with_the_row_major_oracle(
            input in 1usize..45,
            classes in 2usize..20,
            values in proptest::collection::vec(-3.0f32..3.0, 44 + 44 * 20 + 20),
        ) {
            let mut m = Linear::new(input, classes);
            m.set_params(&values[..m.num_params()]);
            let x = &values[values.len() - input..];
            let want = row_major_logits(&m, x);
            prop_assert_eq!(bits(&m.logits(x)), bits(&want));
            prop_assert_eq!(m.predict(x), argmax(&want));
            let mut probs = want;
            softmax_inplace(&mut probs);
            prop_assert_eq!(m.loss(x, 1).to_bits(), (-(probs[1].max(1e-12)).ln()).to_bits());
        }
    }

    #[test]
    fn reference_shape_agrees_bit_for_bit_with_the_row_major_oracle() {
        // The reference benchmark's model: 40 features, 64 hidden units,
        // 62 classes, batches of 20.
        let m = mlp_with_dead_units(40, 64, 62, 5, 0x0f0f_0000_00ff_0001);
        let values: Vec<f32> = (0..40 * 20)
            .map(|i| (i as f32 * 0.37).sin() * 2.0)
            .collect();
        let xs: Vec<&[f32]> = values.chunks_exact(40).collect();
        let ys: Vec<usize> = (0..20).map(|i| i * 7 % 62).collect();
        assert_mlp_matches_row_major(&m, &xs, &ys);
    }

    #[test]
    fn set_params_keeps_the_transpose_in_step() {
        let (a, b) = (Mlp::new(13, 21, 5, 1), Mlp::new(13, 21, 5, 2));
        let x: Vec<f32> = (0..13).map(|i| i as f32 * 0.25 - 1.5).collect();
        for mut m in [a.clone(), b.clone()] {
            for source in [&b, &a, &b] {
                m.set_params(&source.params());
                assert_eq!(bits(&m.wt), bits(&source.wt));
                assert_eq!(
                    bits(&m.forward(&x).1),
                    bits(&row_major_forward(source, &x).1)
                );
            }
        }
        let mut linear = Linear::new(13, 5);
        let p: Vec<f32> = (0..linear.num_params()).map(|i| (i as f32).cos()).collect();
        linear.set_params(&p);
        assert_eq!(
            bits(&linear.logits(&x)),
            bits(&row_major_logits(&linear, &x))
        );
        linear.set_params(&vec![0.0; p.len()]);
        assert!(linear.logits(&x).iter().all(|&l| l == 0.0));
    }

    #[test]
    fn zero_widths_match_the_row_major_oracle() {
        // A layer with no units, or no inputs, is its bias alone.
        for (input, hidden) in [(3, 0), (0, 4)] {
            let m = Mlp::new(input, hidden, 2, 1);
            let x = vec![0.5f32; input];
            assert_mlp_matches_row_major(&m, &[&x], &[1]);
        }
        let mut linear = Linear::new(0, 3);
        linear.set_params(&[0.25, -1.0, 2.0]);
        assert_eq!(linear.logits(&[]), [0.25, -1.0, 2.0]);
    }

    fn finite_diff_check(model: &dyn Model, x: &[f32], y: usize) {
        // Compare analytic gradient to central differences at a few
        // random coordinates.
        let mut grad = vec![0.0f32; model.num_params()];
        model.grad_batch(&[x], &[y], &mut grad);
        let params = model.params();
        let mut m = model.clone_box();
        let eps = 1e-3f32;
        for &i in &[0usize, 1, params.len() / 2, params.len() - 1] {
            let mut p = params.clone();
            p[i] += eps;
            m.set_params(&p);
            let lp = m.loss(x, y);
            p[i] -= 2.0 * eps;
            m.set_params(&p);
            let lm = m.loss(x, y);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 2e-2,
                "param {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn linear_gradient_matches_finite_differences() {
        let mut m = Linear::new(4, 3);
        let p: Vec<f32> = (0..m.num_params())
            .map(|i| (i as f32 * 0.13).sin() * 0.5)
            .collect();
        m.set_params(&p);
        finite_diff_check(&m, &[0.5, -1.0, 0.25, 2.0], 1);
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let m = Mlp::new(5, 8, 3, 42);
        finite_diff_check(&m, &[0.5, -1.0, 0.25, 2.0, -0.3], 2);
    }

    #[test]
    fn linear_learns_separable_data() {
        let mut m = Linear::new(2, 2);
        let data: Vec<(Vec<f32>, usize)> = (0..40)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                (
                    vec![s * 1.0 + (i as f32) * 0.001, s * 0.5],
                    usize::from(i % 2 == 1),
                )
            })
            .collect();
        for _ in 0..200 {
            let mut grad = vec![0.0f32; m.num_params()];
            let xs: Vec<&[f32]> = data.iter().map(|(x, _)| x.as_slice()).collect();
            let ys: Vec<usize> = data.iter().map(|(_, y)| *y).collect();
            m.grad_batch(&xs, &ys, &mut grad);
            let mut p = m.params();
            crate::tensor::axpy(-0.5, &grad, &mut p);
            m.set_params(&p);
        }
        let correct = data.iter().filter(|(x, y)| m.predict(x) == *y).count();
        assert_eq!(correct, data.len());
    }

    #[test]
    fn mlp_learns_xor() {
        let mut m = Mlp::new(2, 16, 2, 7);
        let data: [(&[f32], usize); 4] = [
            (&[0.0, 0.0], 0),
            (&[0.0, 1.0], 1),
            (&[1.0, 0.0], 1),
            (&[1.0, 1.0], 0),
        ];
        for _ in 0..2000 {
            let mut grad = vec![0.0f32; m.num_params()];
            let xs: Vec<&[f32]> = data.iter().map(|(x, _)| *x).collect();
            let ys: Vec<usize> = data.iter().map(|(_, y)| *y).collect();
            m.grad_batch(&xs, &ys, &mut grad);
            let mut p = m.params();
            crate::tensor::axpy(-0.5, &grad, &mut p);
            m.set_params(&p);
        }
        for (x, y) in &data {
            assert_eq!(m.predict(x), *y, "input {x:?}");
        }
    }

    #[test]
    fn params_roundtrip() {
        let mut m = Mlp::new(3, 4, 2, 1);
        let p: Vec<f32> = (0..m.num_params()).map(|i| i as f32).collect();
        m.set_params(&p);
        assert_eq!(m.params(), p);
    }

    #[test]
    fn param_counts() {
        assert_eq!(Linear::new(10, 4).num_params(), 44);
        assert_eq!(Mlp::new(10, 8, 4, 0).num_params(), 10 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn set_params_wrong_len_panics() {
        let mut m = Linear::new(2, 2);
        m.set_params(&[0.0]);
    }
}
