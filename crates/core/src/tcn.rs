//! The temporal convolution unit shared by every block (§3.5: kernel
//! fixed at `3 × 1`, receptive field widened via dilation).

use dhg_nn::{BatchNorm2d, Buffer, Conv2d, Dropout, EvalConv, Module};
use dhg_tensor::{NdArray, Tensor, Workspace};
use rand::Rng;

/// `3×1` temporal convolution → BatchNorm → (optional) dropout. ReLU and
/// the residual connection are applied by the owning block.
pub struct TemporalConv {
    conv: Conv2d,
    bn: BatchNorm2d,
    dropout: Option<Dropout>,
    stride: usize,
    /// Conv+BN folded for serving; built by [`Module::prepare_inference`],
    /// dropped when training resumes.
    inference: Option<EvalConv>,
}

impl TemporalConv {
    /// A temporal unit with the paper's fixed kernel size 3.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        dilation: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let conv = Conv2d::temporal(in_channels, out_channels, 3, stride, dilation, rng);
        let bn = BatchNorm2d::new(out_channels);
        let dropout = if dropout > 0.0 { Some(Dropout::new(dropout, rng.gen())) } else { None };
        TemporalConv { conv, bn, dropout, stride, inference: None }
    }

    /// The temporal stride (2 halves the frame count).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Grad-free eval forward on raw arrays through the folded Conv+BN
    /// kernel (dropout is the identity in eval mode). Requires
    /// [`Module::prepare_inference`] to have run.
    pub fn forward_eval(&self, x: &NdArray, ws: &mut Workspace) -> NdArray {
        self.inference
            .as_ref()
            .expect("TemporalConv::forward_eval requires prepare_inference()")
            .forward(x, ws)
    }
}

impl Module for TemporalConv {
    fn forward(&self, x: &Tensor) -> Tensor {
        let y = self.bn.forward(&self.conv.forward(x));
        match &self.dropout {
            Some(d) => d.forward(&y),
            None => y,
        }
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.conv.parameters();
        ps.extend(self.bn.parameters());
        ps
    }

    fn buffers(&self) -> Vec<Buffer> {
        self.bn.buffers()
    }

    fn set_training(&mut self, training: bool) {
        self.bn.set_training(training);
        if let Some(d) = &mut self.dropout {
            d.set_training(training);
        }
        if training {
            // folded weights are stale once the parameters move again
            self.inference = None;
        }
    }

    fn prepare_inference(&mut self) {
        self.set_training(false);
        self.inference = Some(EvalConv::from_conv_bn(&self.conv, &self.bn));
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::Plan;
        let mut p = Plan::new(input);
        p.extend("conv", self.conv.plan(input));
        if p.has_errors() {
            return p;
        }
        let after_conv = p.output().clone();
        p.extend("bn", self.bn.plan(&after_conv));
        if let Some(d) = &self.dropout {
            let after_bn = p.output().clone();
            p.extend("dropout", d.plan(&after_bn));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_tensor::NdArray;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_frames_at_stride_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = TemporalConv::new(4, 8, 1, 1, 0.0, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[2, 4, 12, 25]));
        assert_eq!(t.forward(&x).shape(), vec![2, 8, 12, 25]);
    }

    #[test]
    fn stride_two_halves_frames() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = TemporalConv::new(4, 4, 2, 1, 0.0, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[1, 4, 12, 25]));
        assert_eq!(t.forward(&x).shape(), vec![1, 4, 6, 25]);
        assert_eq!(t.stride(), 2);
    }

    #[test]
    fn dilation_preserves_frames() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = TemporalConv::new(4, 4, 1, 2, 0.0, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[1, 4, 12, 25]));
        assert_eq!(t.forward(&x).shape(), vec![1, 4, 12, 25]);
    }

    #[test]
    fn folded_eval_matches_unfused_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = TemporalConv::new(3, 4, 1, 1, 0.0, &mut rng);
        // warm the BN stats, then compare the two eval paths
        for i in 0..3 {
            let x = Tensor::constant(NdArray::from_vec(
                (0..2 * 3 * 8 * 5).map(|j| ((i * 17 + j) as f32 * 0.11).sin()).collect(),
                &[2, 3, 8, 5],
            ));
            t.forward(&x);
        }
        t.prepare_inference();
        let x = NdArray::from_vec(
            (0..2 * 3 * 8 * 5).map(|j| (j as f32 * 0.07).cos()).collect(),
            &[2, 3, 8, 5],
        );
        let reference = {
            let _g = dhg_tensor::no_grad();
            t.forward(&Tensor::constant(x.clone())).array()
        };
        let mut ws = Workspace::new();
        let got = t.forward_eval(&x, &mut ws);
        assert!(reference.allclose(&got, 1e-5, 1e-6));
        // resuming training must drop the folded cache
        t.set_training(true);
        assert!(t.inference.is_none());
    }

    #[test]
    fn training_switch_reaches_children() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = TemporalConv::new(2, 2, 1, 1, 0.3, &mut rng);
        t.set_training(false);
        // eval forward must be deterministic (dropout off)
        let x = Tensor::constant(NdArray::ones(&[1, 2, 6, 5]));
        let a = t.forward(&x).array();
        let b = t.forward(&x).array();
        assert!(a.allclose(&b, 1e-6, 1e-7));
    }
}
