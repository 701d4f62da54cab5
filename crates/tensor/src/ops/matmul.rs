//! Batched matrix multiplication with broadcast-aware gradients.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

struct MatmulOp;

impl Backward for MatmulOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let a = ctx.parents[0].data();
        let b = ctx.parents[1].data();
        // dA = g @ Bᵀ, dB = Aᵀ @ g — then sum away broadcast batch dims.
        // The transposes are read where the operands lie (`ArrayView::t`).
        let ga = ctx.parents[0]
            .requires_grad()
            .then(|| g.view().matmul(b.view().t()).reduce_to_shape(a.shape()));
        let gb = ctx.parents[1]
            .requires_grad()
            .then(|| a.view().t().matmul(g.view()).reduce_to_shape(b.shape()));
        vec![ga, gb]
    }

    fn name(&self) -> &'static str {
        "matmul"
    }
}

impl Tensor {
    /// Batched matrix product `self @ other`. Leading (batch) dimensions
    /// broadcast; the last two dimensions contract as `[m, k] × [k, n]`.
    ///
    /// With gradients enabled the product takes [`NdArray::matmul`]'s
    /// automatic dispatch, whose density probe can route a mostly-zero
    /// left operand to the zero-skip row kernel. Under
    /// [`crate::no_grad`] it always takes the packed kernel
    /// ([`NdArray::matmul_packed`]): the probe reads the whole batch, so a
    /// served request's bits would otherwise depend on its batch
    /// neighbours (all-zero windows tip the whole operand to "mostly
    /// zero"), while the packed kernel computes every output row from its
    /// own row and `other` alone.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (a, b) = (self.data(), other.data());
        let out = if crate::is_grad_enabled() { a.matmul(&b) } else { a.matmul_packed(&b) };
        drop((a, b));
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(MatmulOp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_grads_match_hand_computation() {
        // y = sum(A @ B): dA = 1s @ Bᵀ, dB = Aᵀ @ 1s
        let a = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = Tensor::param(NdArray::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let y = a.matmul(&b).sum_all();
        y.backward();
        // dA[i][p] = Σ_j B[p][j]
        assert_eq!(a.grad().unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[p][j] = Σ_i A[i][p]
        assert_eq!(b.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn grad_free_products_are_batch_invariant_beside_zero_rows() {
        // [x; 0; 0] is mostly zeros, so the density probe picks the
        // zero-skip kernel for the batch but the packed one for x alone
        let k = 40;
        let x: Vec<f32> = (0..k).map(|i| (i as f32 * 0.37).sin()).collect();
        let w = Tensor::constant(NdArray::from_vec((0..k * 7).map(|i| (i as f32 * 0.11).cos()).collect(), &[k, 7]));
        let mut batch = x.clone();
        batch.resize(3 * k, 0.0);
        let alone = Tensor::constant(NdArray::from_vec(x, &[1, k]));
        let batch = Tensor::constant(NdArray::from_vec(batch, &[3, k]));
        let _g = crate::no_grad();
        let (solo, batched) = (alone.matmul(&w).array(), batch.matmul(&w).array());
        assert_eq!(solo.data(), &batched.data()[..7], "row 0 moved with its zero neighbours");
    }

    #[test]
    fn broadcast_weight_grad_sums_over_batch() {
        // w [2,2] applied to batch x [3,2,2] — dw accumulates over batch
        let w = Tensor::param(NdArray::eye(2));
        let x = Tensor::constant(NdArray::ones(&[3, 2, 2]));
        let y = w.matmul(&x).sum_all();
        y.backward();
        let g = w.grad().unwrap();
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.data(), &[6.0, 6.0, 6.0, 6.0]);
    }
}
