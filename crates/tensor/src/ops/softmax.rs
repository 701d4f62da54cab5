//! Softmax, log-softmax and the fused cross-entropy loss.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

struct SoftmaxOp {
    axis: usize,
}

impl Backward for SoftmaxOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        // dx = s ⊙ (g - Σ_axis(g ⊙ s))
        let s = ctx.output;
        let dot = g.mul(s).sum_axes(&[self.axis], true);
        vec![Some(s.mul(&g.sub(&dot)))]
    }

    fn name(&self) -> &'static str {
        "softmax"
    }
}

struct LogSoftmaxOp {
    axis: usize,
}

impl Backward for LogSoftmaxOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        // dx = g - softmax(x) ⊙ Σ_axis g, where softmax = exp(output)
        let gsum = g.sum_axes(&[self.axis], true);
        let soft = ctx.output.map(f32::exp);
        vec![Some(g.sub(&soft.mul(&gsum)))]
    }

    fn name(&self) -> &'static str {
        "log_softmax"
    }
}

struct CrossEntropyOp {
    targets: Vec<usize>,
}

impl Backward for CrossEntropyOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        // d loss / d logits = (softmax(logits) - onehot(target)) / N
        let logits = ctx.parents[0].data();
        let mut grad = softmax_array(&logits, 1);
        let k = grad.shape()[1];
        let n = self.targets.len();
        let scale = g.item() / n as f32;
        {
            let gd = grad.data_mut();
            for (row, &t) in self.targets.iter().enumerate() {
                gd[row * k + t] -= 1.0;
            }
            for v in gd.iter_mut() {
                *v *= scale;
            }
        }
        vec![Some(grad)]
    }

    fn name(&self) -> &'static str {
        "cross_entropy"
    }
}

/// Numerically stable softmax of an array along `axis` (no autograd).
pub fn softmax_array(x: &NdArray, axis: usize) -> NdArray {
    let max = x.max_axis_keepdim(axis);
    let e = x.sub(&max).map(f32::exp);
    let sum = e.sum_axes(&[axis], true);
    e.div(&sum)
}

/// Numerically stable log-softmax of an array along `axis` (no autograd).
pub fn log_softmax_array(x: &NdArray, axis: usize) -> NdArray {
    let max = x.max_axis_keepdim(axis);
    let shifted = x.sub(&max);
    let lse = shifted.map(f32::exp).sum_axes(&[axis], true).map(f32::ln);
    shifted.sub(&lse)
}

impl Tensor {
    /// Softmax along `axis` (stable: shifts by the per-slice maximum).
    pub fn softmax(&self, axis: usize) -> Tensor {
        let out = softmax_array(&self.data(), axis);
        Tensor::from_op(out, vec![self.clone()], Box::new(SoftmaxOp { axis }))
    }

    /// Log-softmax along `axis`.
    pub fn log_softmax(&self, axis: usize) -> Tensor {
        let out = log_softmax_array(&self.data(), axis);
        Tensor::from_op(out, vec![self.clone()], Box::new(LogSoftmaxOp { axis }))
    }

    /// Mean cross-entropy between logits `[N, K]` and integer class targets.
    ///
    /// Forward and backward are fused for numerical stability: the gradient
    /// is `(softmax(logits) - onehot) / N`.
    pub fn cross_entropy(&self, targets: &[usize]) -> Tensor {
        let logits = self.data();
        assert_eq!(logits.ndim(), 2, "cross_entropy expects [N, K] logits");
        let (n, k) = (logits.shape()[0], logits.shape()[1]);
        assert_eq!(n, targets.len(), "cross_entropy batch mismatch");
        let logp = log_softmax_array(&logits, 1);
        let mut loss = 0.0f32;
        for (row, &t) in targets.iter().enumerate() {
            assert!(t < k, "target {t} out of range for {k} classes");
            loss -= logp.data()[row * k + t];
        }
        drop(logits);
        let out = NdArray::scalar(loss / n as f32);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(CrossEntropyOp { targets: targets.to_vec() }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0], &[2, 3]));
        let s = x.softmax(1).array();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // uniform row stays uniform
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = a.add_scalar(1000.0);
        let sa = softmax_array(&a, 1);
        let sb = softmax_array(&b, 1);
        assert!(sa.allclose(&sb, 1e-5, 1e-6));
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = NdArray::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]);
        let ls = log_softmax_array(&x, 1);
        let s = softmax_array(&x, 1).map(f32::ln);
        assert!(ls.allclose(&s, 1e-5, 1e-6));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::param(NdArray::from_vec(vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0], &[2, 3]));
        let loss = logits.cross_entropy(&[0, 1]);
        assert!(loss.item() < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_ln_k() {
        let logits = Tensor::param(NdArray::zeros(&[4, 5]));
        let loss = logits.cross_entropy(&[0, 1, 2, 3]);
        assert!((loss.item() - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let logits = Tensor::param(NdArray::zeros(&[1, 4]));
        let loss = logits.cross_entropy(&[2]);
        loss.backward();
        let g = logits.grad().unwrap();
        assert!(g.allclose(
            &NdArray::from_vec(vec![0.25, 0.25, -0.75, 0.25], &[1, 4]),
            1e-5,
            1e-6
        ));
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // Softmax outputs sum to 1 ⇒ gradient w.r.t. any input sums to 0
        // when seeded with a one-hot output gradient.
        let x = Tensor::param(NdArray::from_vec(vec![0.3, -0.7, 1.2], &[1, 3]));
        let s = x.softmax(1);
        let pick = s.slice_axis(1, 1, 1).sum_all();
        pick.backward();
        let g = x.grad().unwrap();
        assert!(g.data().iter().sum::<f32>().abs() < 1e-6);
    }
}
