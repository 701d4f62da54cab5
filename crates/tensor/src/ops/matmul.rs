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
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let out = self.data().matmul(&other.data());
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
