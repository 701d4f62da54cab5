//! The temporal convolution unit shared by every block (§3.5: kernel
//! fixed at `3 × 1`, receptive field widened via dilation), and the block
//! tail around it.

use dhg_nn::{BatchNorm2d, Buffer, Conv2d, DiagCode, Dropout, EvalConv, Module, Plan, SymShape};
use dhg_tensor::ops::Conv2dSpec;
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

    fn plan(&self, input: &SymShape) -> Plan {
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

/// The tail of every GCN-family block, ST-GCN's unit (§3.5): BatchNorm
/// and ReLU over the block's spatial output, the temporal convolution, a
/// residual connection around the whole block and a final ReLU. The owner
/// keeps only its spatial part.
pub(crate) struct BlockTail {
    pub(crate) bn: BatchNorm2d,
    pub(crate) tcn: TemporalConv,
    /// Projection for the residual path when channels or stride change.
    pub(crate) residual_proj: Option<Conv2d>,
    /// `residual_proj` baked for serving by [`BlockTail::prepare_inference`].
    residual: Option<EvalConv>,
}

impl BlockTail {
    /// Build the tail. The owner calls this after building its spatial
    /// part, so the RNG draws keep the order spatial, temporal, residual.
    pub(crate) fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        dilation: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let bn = BatchNorm2d::new(out_channels);
        let tcn = TemporalConv::new(out_channels, out_channels, stride, dilation, dropout, rng);
        let residual_proj = (in_channels != out_channels || stride != 1).then(|| {
            let spec = Conv2dSpec {
                kernel: (1, 1),
                stride: (stride, 1),
                padding: (0, 0),
                dilation: (1, 1),
            };
            Conv2d::new(in_channels, out_channels, spec, rng)
        });
        BlockTail { bn, tcn, residual_proj, residual: None }
    }

    /// `relu(tcn(relu(bn(spatial))) + residual(x))` for block input `x`.
    pub(crate) fn forward(&self, x: &Tensor, spatial: &Tensor) -> Tensor {
        let spatial = self.bn.forward(spatial).relu();
        let temporal = self.tcn.forward(&spatial);
        let residual = match &self.residual_proj {
            Some(proj) => proj.forward(x),
            None => x.clone(),
        };
        temporal.add(&residual).relu()
    }

    /// bn, tcn, then the residual projection: the checkpoint order.
    pub(crate) fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.bn.parameters();
        ps.extend(self.tcn.parameters());
        if let Some(p) = &self.residual_proj {
            ps.extend(p.parameters());
        }
        ps
    }

    /// The running statistics of both BatchNorms.
    pub(crate) fn buffers(&self) -> Vec<Buffer> {
        let mut bs = self.bn.buffers();
        bs.extend(self.tcn.buffers());
        bs
    }

    /// Whether the tail is in training mode.
    pub(crate) fn training(&self) -> bool {
        self.bn.training()
    }

    /// Train/eval switch; returning to training drops the serving caches,
    /// whose folded weights would go stale as the parameters move.
    pub(crate) fn set_training(&mut self, training: bool) {
        self.bn.set_training(training);
        self.tcn.set_training(training);
        if training {
            self.residual = None;
        }
    }

    /// Compile the tail for serving: fold the temporal Conv+BN and bake
    /// the residual projection. Returns the eval affine of the tail's
    /// BatchNorm for the owner to fold into its spatial Θ.
    pub(crate) fn prepare_inference(&mut self) -> (Vec<f32>, Vec<f32>) {
        self.set_training(false);
        self.tcn.prepare_inference();
        self.residual = self.residual_proj.as_ref().map(EvalConv::from_conv);
        self.bn.eval_affine()
    }

    /// Grad-free tail on raw arrays after [`BlockTail::prepare_inference`]:
    /// `spatial` already carries the folded BatchNorm and the ReLU.
    pub(crate) fn forward_eval(&self, x: &NdArray, spatial: NdArray, ws: &mut Workspace) -> NdArray {
        let mut out = self.tcn.forward_eval(&spatial, ws);
        ws.recycle(spatial);
        match &self.residual {
            Some(proj) => {
                let r = proj.forward(x, ws);
                out.add_relu_inplace(&r);
                ws.recycle(r);
            }
            None => out.add_relu_inplace(x),
        }
        out
    }

    /// Record the tail on `p`, whose output is the spatial part's, for
    /// block input `input`. Returns false if it stopped at an error in or
    /// before the temporal unit.
    pub(crate) fn plan(&self, p: &mut Plan, input: &SymShape) -> bool {
        p.extend("bn", self.bn.plan(&p.output().clone()));
        p.push_op("relu", "", p.output().clone());
        p.extend("tcn", self.tcn.plan(&p.output().clone()));
        if p.has_errors() {
            return false;
        }
        let main_out = p.output().clone();
        let residual_out = match &self.residual_proj {
            Some(proj) => p.adopt("residual_proj", &proj.plan(input)),
            None => input.clone(),
        };
        if residual_out != main_out {
            p.error(
                DiagCode::ShapeMismatch,
                format!("residual path produces {residual_out} but main path produces {main_out}"),
            );
        }
        p.push_op("residual_add_relu", "", main_out);
        true
    }
}

/// The plan of a block whose input is not `[N, C, T, V]`: one rank error.
/// `None` when the rank is right.
pub(crate) fn block_rank_error(input: &SymShape) -> Option<Plan> {
    if input.rank() == 4 {
        return None;
    }
    let mut p = Plan::new(input);
    p.error(
        DiagCode::RankMismatch,
        format!("features must be [N, C, T, V], got rank {} {input}", input.rank()),
    );
    Some(p)
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
