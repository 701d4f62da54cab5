//! Eval-time Conv2d(+BatchNorm2d) weight folding.
//!
//! At inference a BatchNorm is a fixed per-channel affine map
//! `y_c = scale_c · x_c + shift_c` over its running statistics (see
//! [`BatchNorm2d::eval_affine`]). Since a convolution is linear, the affine
//! map folds exactly into the convolution that feeds it:
//!
//! ```text
//! BN(conv(x; W, b)) = conv(x; scale∘W, scale∘b + shift)
//! ```
//!
//! where `scale∘W` scales every output-channel slice of the kernel. An
//! [`EvalConv`] holds the folded weights in the `[Cout, Cin·kh·kw]` layout
//! the im2col matmul consumes, plus the folded bias, and runs entirely on
//! [`NdArray`] kernels with scratch space from a [`Workspace`] — no
//! autograd graph and no per-call weight reshapes. Every convolution is one
//! packed-GEMM product per sample; a `1×1` convolution reads its input in
//! place as the GEMM's columns instead of building an im2col copy.
//!
//! Folding reorders floating-point arithmetic, so folded outputs match the
//! unfused eval path to within ~1e-6 relative error rather than bitwise;
//! the property tests in this module and the workspace-level inference
//! suite pin the 1e-5 contract.

use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use dhg_tensor::ops::Conv2dSpec;
use dhg_tensor::{NdArray, Workspace};

/// A convolution with eval-mode weights baked in: optional BatchNorm (or
/// any per-channel affine) folded into the kernel, weights pre-reshaped
/// for the im2col matmul, bias applied in the output pass.
pub struct EvalConv {
    /// Folded weights, `[Cout, Cin·kh·kw]`.
    w2d: NdArray,
    /// Folded bias, one per output channel.
    bias: Vec<f32>,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl EvalConv {
    /// Bake `conv`'s current weights with no normalisation folded in.
    pub fn from_conv(conv: &Conv2d) -> Self {
        let c = conv.out_channels();
        Self::fold_affine(conv, &vec![1.0; c], &vec![0.0; c])
    }

    /// Bake `conv` followed by eval-mode `bn` into one kernel.
    pub fn from_conv_bn(conv: &Conv2d, bn: &BatchNorm2d) -> Self {
        assert_eq!(
            conv.out_channels(),
            bn.channels(),
            "Conv+BN fold: conv outputs {} channels but BN normalises {}",
            conv.out_channels(),
            bn.channels()
        );
        let (scale, shift) = bn.eval_affine();
        Self::fold_affine(conv, &scale, &shift)
    }

    /// Bake `conv` followed by an arbitrary per-output-channel affine map
    /// `y_c = scale_c · x_c + shift_c`. This is how a BatchNorm applied
    /// *after a sum of branches* folds: every branch's Θ takes the scale,
    /// and exactly one branch's Θ takes the shift.
    pub fn fold_affine(conv: &Conv2d, scale: &[f32], shift: &[f32]) -> Self {
        let spec = conv.spec();
        let (cin, cout) = (conv.in_channels(), conv.out_channels());
        assert_eq!(scale.len(), cout, "fold_affine scale length mismatch");
        assert_eq!(shift.len(), cout, "fold_affine shift length mismatch");
        let ckk = cin * spec.kernel.0 * spec.kernel.1;
        let w = conv.weight().data();
        let mut w2d = Vec::with_capacity(cout * ckk);
        for (o, &s) in scale.iter().enumerate() {
            for &v in &w.data()[o * ckk..(o + 1) * ckk] {
                w2d.push(v * s);
            }
        }
        let bias: Vec<f32> = match conv.bias() {
            Some(b) => {
                let b = b.data();
                (0..cout).map(|o| b.data()[o] * scale[o] + shift[o]).collect()
            }
            None => shift.to_vec(),
        };
        EvalConv {
            w2d: NdArray::from_vec(w2d, &[cout, ckk]),
            bias,
            spec,
            in_channels: cin,
            out_channels: cout,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Run the folded convolution on `[N, Cin, H, W]`, drawing scratch
    /// space from `ws`.
    pub fn forward(&self, x: &NdArray, ws: &mut Workspace) -> NdArray {
        self.forward_act(x, ws, false)
    }

    /// [`EvalConv::forward`] with a ReLU fused into the output pass.
    pub fn forward_relu(&self, x: &NdArray, ws: &mut Workspace) -> NdArray {
        self.forward_act(x, ws, true)
    }

    fn forward_act(&self, x: &NdArray, ws: &mut Workspace, relu: bool) -> NdArray {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "EvalConv expects [N, Cin, H, W]");
        assert_eq!(shape[1], self.in_channels, "EvalConv channel mismatch");
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let s = self.spec;
        let (ho, wo) = s.out_size(h, w);
        let out = if s.columns_are_input() {
            let cols = [n, self.in_channels, h * w];
            self.w2d.view().matmul_ws(x.view_as(&cols), ws) // [N, Cout, L]
        } else {
            let cols = x.im2col_ws(
                s.kernel.0, s.kernel.1, s.stride.0, s.stride.1, s.padding.0, s.padding.1,
                s.dilation.0, s.dilation.1, ws,
            );
            let out = self.w2d.matmul_ws(&cols, ws); // [N, Cout, L]
            ws.recycle(cols);
            out
        };
        let mut out = out.into_shape(&[n, self.out_channels, ho, wo]);
        out.bias_relu_inplace(&self.bias, relu);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_uniform;
    use crate::module::Module;
    use dhg_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: &NdArray, b: &NdArray, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + y.abs()))
    }

    /// Run some batches through a training-mode BN so its running stats
    /// move away from the (0, 1) init — folding must use the real stats.
    fn warmed_bn(channels: usize, rng: &mut StdRng) -> BatchNorm2d {
        let mut bn = BatchNorm2d::new(channels);
        for _ in 0..4 {
            let x = Tensor::constant(random_uniform(&[3, channels, 5, 4], -2.0, 3.0, rng));
            bn.forward(&x);
        }
        bn.set_training(false);
        bn
    }

    #[test]
    fn folded_conv_bn_matches_unfused_eval() {
        // property sweep over seeds and both conv shapes used by the models
        let mut ws = Workspace::new();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = if seed % 2 == 0 {
                Conv2d::pointwise(4, 6, &mut rng)
            } else {
                Conv2d::temporal(4, 6, 3, 1 + (seed % 3 == 1) as usize, 1, &mut rng)
            };
            let bn = warmed_bn(6, &mut rng);
            let folded = EvalConv::from_conv_bn(&conv, &bn);
            let x = random_uniform(&[2, 4, 8, 5], -1.0, 1.0, &mut rng);
            let reference = {
                let _g = dhg_tensor::no_grad();
                bn.forward(&conv.forward(&Tensor::constant(x.clone()))).array()
            };
            let got = folded.forward(&x, &mut ws);
            assert!(close(&got, &reference, 1e-5), "seed {seed}: fold diverged");
        }
    }

    #[test]
    fn plain_fold_matches_conv_exactly_on_im2col_path() {
        // without BN the temporal (k=3) path reuses the same im2col+matmul
        // kernels in the same order, so outputs are bitwise identical
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::temporal(3, 5, 3, 1, 1, &mut rng);
        let folded = EvalConv::from_conv(&conv);
        let x = random_uniform(&[2, 3, 6, 4], -1.0, 1.0, &mut rng);
        let reference = {
            let _g = dhg_tensor::no_grad();
            conv.forward(&Tensor::constant(x.clone())).array()
        };
        let mut ws = Workspace::new();
        let got = folded.forward(&x, &mut ws);
        assert_eq!(got, reference);
    }

    #[test]
    fn pointwise_gemm_path_matches_unfused_conv_exactly() {
        // a 1×1 conv reads its input in place as the GEMM columns; the
        // unfused conv copies the same columns out with im2col and runs
        // the same GEMM, so without BN the outputs are bitwise identical
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::pointwise(8, 3, &mut rng);
        let folded = EvalConv::from_conv(&conv);
        let x = random_uniform(&[2, 8, 7, 5], -1.0, 1.0, &mut rng);
        let reference = {
            let _g = dhg_tensor::no_grad();
            conv.forward(&Tensor::constant(x.clone())).array()
        };
        let mut ws = Workspace::new();
        let got = folded.forward(&x, &mut ws);
        assert_eq!(got, reference);
        // a recycled (dirty) workspace must not change a bit
        ws.recycle(got);
        assert_eq!(folded.forward(&x, &mut ws), reference);
    }

    #[test]
    fn fused_relu_equals_separate_relu() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv = Conv2d::pointwise(4, 4, &mut rng);
        let folded = EvalConv::from_conv(&conv);
        let x = random_uniform(&[1, 4, 3, 3], -1.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let mut plain = folded.forward(&x, &mut ws);
        plain.relu_inplace();
        let fused = folded.forward_relu(&x, &mut ws);
        assert_eq!(plain, fused);
    }

    #[test]
    fn fold_affine_applies_scale_and_shift() {
        // conv with identity weight: fold(scale, shift) must be the affine
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::pointwise(1, 1, &mut rng);
        conv.weight().data_mut().data_mut()[0] = 1.0;
        let folded = EvalConv::fold_affine(&conv, &[2.0], &[-1.0]);
        let x = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let mut ws = Workspace::new();
        let y = folded.forward(&x, &mut ws);
        // bias starts at 0, so y = 2·x − 1
        assert_eq!(y.data(), &[1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "Conv+BN fold")]
    fn channel_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::pointwise(2, 3, &mut rng);
        let bn = BatchNorm2d::new(4);
        EvalConv::from_conv_bn(&conv, &bn);
    }
}
