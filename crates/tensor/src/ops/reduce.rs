//! Reductions: sums and means over axes or over everything.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

struct SumAxesOp {
    axes: Vec<usize>,
    keepdim: bool,
    /// Per-element scale (1 for sum, 1/count for mean).
    scale: f32,
}

impl Backward for SumAxesOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let in_shape = ctx.parents[0].data().shape().to_vec();
        // Re-insert reduced dims as 1 (if they were squeezed), then broadcast.
        let g_keep = if self.keepdim {
            g
        } else {
            let mut shape = in_shape.clone();
            for &a in &self.axes {
                shape[a] = 1;
            }
            g.into_shape(&shape)
        };
        vec![Some(g_keep.broadcast_to(&in_shape).mul_scalar(self.scale))]
    }

    fn name(&self) -> &'static str {
        "sum_axes"
    }
}

struct SumAllOp {
    scale: f32,
}

impl Backward for SumAllOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let shape = ctx.parents[0].data().shape().to_vec();
        vec![Some(NdArray::full(&shape, g.item() * self.scale))]
    }

    fn name(&self) -> &'static str {
        "sum_all"
    }
}

impl Tensor {
    /// Sum over the given axes; with `keepdim` the reduced axes remain as
    /// size-1 dimensions.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Tensor {
        let out = self.data().sum_axes(axes, keepdim);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(SumAxesOp { axes: axes.to_vec(), keepdim, scale: 1.0 }),
        )
    }

    /// Mean over the given axes.
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Tensor {
        let count: usize = {
            let d = self.data();
            axes.iter().map(|&a| d.shape()[a]).product()
        };
        let out = self.data().mean_axes(axes, keepdim);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(SumAxesOp { axes: axes.to_vec(), keepdim, scale: 1.0 / count as f32 }),
        )
    }

    /// Sum of all elements as a rank-0 tensor.
    pub fn sum_all(&self) -> Tensor {
        let out = NdArray::scalar(self.data().sum_all());
        Tensor::from_op(out, vec![self.clone()], Box::new(SumAllOp { scale: 1.0 }))
    }

    /// Mean of all elements as a rank-0 tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.data().len();
        let out = NdArray::scalar(self.data().mean_all());
        Tensor::from_op(out, vec![self.clone()], Box::new(SumAllOp { scale: 1.0 / n as f32 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_axes_grad_broadcasts_back() {
        let x = Tensor::param(NdArray::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]));
        let y = x.sum_axes(&[0], false); // shape [3]
        assert_eq!(y.shape(), vec![3]);
        let loss = y.mul(&y).sum_all();
        loss.backward();
        // d/dx (Σ_col)² = 2 * colsum, broadcast over rows
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[6.0, 10.0, 14.0, 6.0, 10.0, 14.0]);
    }

    #[test]
    fn mean_axes_scales_gradient() {
        let x = Tensor::param(NdArray::ones(&[4, 5]));
        let y = x.mean_axes(&[0, 1], true);
        assert_eq!(y.shape(), vec![1, 1]);
        y.sum_all().backward();
        assert!(x.grad().unwrap().allclose(&NdArray::full(&[4, 5], 1.0 / 20.0), 1e-6, 1e-7));
    }

    #[test]
    fn mean_all_grad() {
        let x = Tensor::param(NdArray::ones(&[10]));
        x.mean_all().backward();
        assert!(x.grad().unwrap().allclose(&NdArray::full(&[10], 0.1), 1e-6, 1e-7));
    }

    #[test]
    fn keepdim_grad_shapes() {
        let x = Tensor::param(NdArray::ones(&[2, 3, 4]));
        let y = x.sum_axes(&[1], true);
        assert_eq!(y.shape(), vec![2, 1, 4]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().shape(), &[2, 3, 4]);
    }
}
