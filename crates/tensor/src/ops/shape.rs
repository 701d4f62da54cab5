//! Shape manipulation: reshape, permute, concat, slice.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

struct ReshapeOp {
    in_shape: Vec<usize>,
}

impl Backward for ReshapeOp {
    fn backward(&self, g: NdArray, _ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        vec![Some(g.into_shape(&self.in_shape))]
    }

    fn name(&self) -> &'static str {
        "reshape"
    }
}

struct PermuteOp {
    inverse: Vec<usize>,
}

impl Backward for PermuteOp {
    fn backward(&self, g: NdArray, _ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        vec![Some(g.permute(&self.inverse))]
    }

    fn name(&self) -> &'static str {
        "permute"
    }
}

struct ConcatOp {
    axis: usize,
    sizes: Vec<usize>,
}

impl Backward for ConcatOp {
    fn backward(&self, g: NdArray, _ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let mut out = Vec::with_capacity(self.sizes.len());
        let mut start = 0;
        for &len in &self.sizes {
            out.push(Some(g.slice_axis(self.axis, start, len)));
            start += len;
        }
        out
    }

    fn name(&self) -> &'static str {
        "concat"
    }
}

struct SliceOp {
    axis: usize,
    start: usize,
    full_shape: Vec<usize>,
}

impl Backward for SliceOp {
    fn backward(&self, g: NdArray, _ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        vec![Some(NdArray::unslice_axis(&g, &self.full_shape, self.axis, self.start))]
    }

    fn name(&self) -> &'static str {
        "slice_axis"
    }
}

impl Tensor {
    /// Reinterpret the value with a new shape (one `usize::MAX` dimension may
    /// be inferred).
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let in_shape = self.shape();
        let out = self.data().reshape(shape);
        Tensor::from_op(out, vec![self.clone()], Box::new(ReshapeOp { in_shape }))
    }

    /// Permute the axes; the gradient applies the inverse permutation.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let out = self.data().permute(perm);
        Tensor::from_op(out, vec![self.clone()], Box::new(PermuteOp { inverse }))
    }

    /// Swap the last two axes.
    pub fn transpose_last2(&self) -> Tensor {
        let nd = self.data().ndim();
        let mut perm: Vec<usize> = (0..nd).collect();
        perm.swap(nd - 1, nd - 2);
        self.permute(&perm)
    }

    /// Concatenate tensors along `axis`.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let datas: Vec<NdArray> = parts.iter().map(|t| t.array()).collect();
        let refs: Vec<&NdArray> = datas.iter().collect();
        let out = NdArray::concat(&refs, axis);
        let sizes = datas.iter().map(|d| d.shape()[axis]).collect();
        let parents = parts.iter().map(|&t| t.clone()).collect();
        Tensor::from_op(out, parents, Box::new(ConcatOp { axis, sizes }))
    }

    /// Take `len` consecutive indices starting at `start` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let full_shape = self.shape();
        let out = self.data().slice_axis(axis, start, len);
        Tensor::from_op(out, vec![self.clone()], Box::new(SliceOp { axis, start, full_shape }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_grad_restores_shape() {
        let x = Tensor::param(NdArray::ones(&[2, 6]));
        let y = x.reshape(&[3, 4]).mul_scalar(2.0).sum_all();
        y.backward();
        let g = x.grad().unwrap();
        assert_eq!(g.shape(), &[2, 6]);
        assert_eq!(g.data(), &[2.0; 12]);
    }

    #[test]
    fn permute_grad_is_inverse_permutation() {
        let x = Tensor::param(NdArray::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]));
        // weight the permuted output by its own values so the gradient is
        // position-dependent and any permutation error is visible
        let p = x.permute(&[2, 0, 1]);
        let w = Tensor::constant(p.array());
        let y = p.mul(&w).sum_all();
        y.backward();
        let g = x.grad().unwrap();
        // dy/dx = x (since after inverse permutation, weight == x)
        assert_eq!(g, x.array());
    }

    #[test]
    fn concat_routes_gradients_to_sources() {
        let a = Tensor::param(NdArray::ones(&[2, 2]));
        let b = Tensor::param(NdArray::ones(&[2, 3]));
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), vec![2, 5]);
        c.mul_scalar(3.0).sum_all().backward();
        assert_eq!(a.grad().unwrap().data(), &[3.0; 4]);
        assert_eq!(b.grad().unwrap().data(), &[3.0; 6]);
    }

    #[test]
    fn slice_grad_is_zero_padded() {
        let x = Tensor::param(NdArray::ones(&[4, 2]));
        let s = x.slice_axis(0, 1, 2);
        s.sum_all().backward();
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn slice_concat_roundtrip_gradient() {
        let x = Tensor::param(NdArray::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]));
        let top = x.slice_axis(0, 0, 1);
        let rest = x.slice_axis(0, 1, 2);
        let y = Tensor::concat(&[&top, &rest], 0).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0; 12]);
    }
}
