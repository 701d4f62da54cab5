//! Nonlinear activations.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

enum ActKind {
    Relu,
    LeakyRelu(f32),
    Sigmoid,
    Tanh,
}

struct ActOp {
    kind: ActKind,
}

impl Backward for ActOp {
    fn backward(&self, mut g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        match self.kind {
            ActKind::Relu => {
                let x = ctx.parents[0].data();
                g.zip_map_inplace(&x, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
            }
            ActKind::LeakyRelu(slope) => {
                let x = ctx.parents[0].data();
                g.zip_map_inplace(&x, |gv, xv| if xv > 0.0 { gv } else { gv * slope });
            }
            // σ'(x) = σ(x)(1-σ(x)) — use the saved output.
            ActKind::Sigmoid => g.zip_map_inplace(ctx.output, |gv, ov| gv * ov * (1.0 - ov)),
            // tanh'(x) = 1 - tanh²(x)
            ActKind::Tanh => g.zip_map_inplace(ctx.output, |gv, ov| gv * (1.0 - ov * ov)),
        }
        vec![Some(g)]
    }

    fn name(&self) -> &'static str {
        match self.kind {
            ActKind::Relu => "relu",
            ActKind::LeakyRelu(_) => "leaky_relu",
            ActKind::Sigmoid => "sigmoid",
            ActKind::Tanh => "tanh",
        }
    }
}

impl Tensor {
    /// Rectified linear unit: `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        let out = self.data().map(|v| v.max(0.0));
        Tensor::from_op(out, vec![self.clone()], Box::new(ActOp { kind: ActKind::Relu }))
    }

    /// Leaky ReLU with the given negative-side slope.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        let out = self.data().map(|v| if v > 0.0 { v } else { v * slope });
        Tensor::from_op(out, vec![self.clone()], Box::new(ActOp { kind: ActKind::LeakyRelu(slope) }))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`, computed stably.
    pub fn sigmoid(&self) -> Tensor {
        let out = self.data().map(|v| {
            if v >= 0.0 {
                1.0 / (1.0 + (-v).exp())
            } else {
                let e = v.exp();
                e / (1.0 + e)
            }
        });
        Tensor::from_op(out, vec![self.clone()], Box::new(ActOp { kind: ActKind::Sigmoid }))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let out = self.data().map(f32::tanh);
        Tensor::from_op(out, vec![self.clone()], Box::new(ActOp { kind: ActKind::Tanh }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_masks_gradient() {
        let x = Tensor::param(NdArray::from_vec(vec![-1.0, 0.0, 2.0], &[3]));
        let y = x.relu().sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let x = Tensor::param(NdArray::from_vec(vec![-2.0, 3.0], &[2]));
        let y = x.leaky_relu(0.1).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.1, 1.0]);
        assert_eq!(x.leaky_relu(0.1).data().data(), &[-0.2, 3.0]);
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        let x = Tensor::constant(NdArray::from_vec(vec![-100.0, 0.0, 100.0], &[3]));
        let y = x.sigmoid();
        let d = y.array();
        assert!(d.data()[0] >= 0.0 && d.data()[0] < 1e-20);
        assert!((d.data()[1] - 0.5).abs() < 1e-6);
        assert!((d.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_grad_at_zero_is_one() {
        let x = Tensor::param(NdArray::zeros(&[1]));
        let y = x.tanh().sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }
}
