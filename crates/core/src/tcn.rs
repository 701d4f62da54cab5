//! The temporal convolution unit shared by every block (§3.5: kernel
//! fixed at `3 × 1`, receptive field widened via dilation), and the block
//! tail around it.

use dhg_nn::{BatchNorm2d, Buffer, Conv2d, DiagCode, Dropout, Module, Plan, SymShape};
use dhg_tensor::ops::Conv2dSpec;
use dhg_tensor::Tensor;
use rand::Rng;

/// `3×1` temporal convolution → BatchNorm → (optional) dropout. ReLU and
/// the residual connection are applied by the owning block.
pub struct TemporalConv {
    conv: Conv2d,
    bn: BatchNorm2d,
    dropout: Option<Dropout>,
    stride: usize,
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
        TemporalConv { conv, bn, dropout, stride }
    }

    /// The temporal stride (2 halves the frame count).
    pub fn stride(&self) -> usize {
        self.stride
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
        BlockTail { bn, tcn, residual_proj }
    }

    /// `relu(tcn(relu(bn(spatial))) + residual(x))` for block input `x`.
    /// Each intermediate is dropped as soon as the next one exists, so a
    /// grad-free forward holds no more than two block-sized arrays
    /// beside `x`.
    pub(crate) fn forward(&self, x: &Tensor, spatial: Tensor) -> Tensor {
        let normed = self.bn.forward(&spatial).relu();
        drop(spatial);
        let temporal = self.tcn.forward(&normed);
        drop(normed);
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

    /// Train/eval switch.
    pub(crate) fn set_training(&mut self, training: bool) {
        self.bn.set_training(training);
        self.tcn.set_training(training);
    }

    /// Record the tail on `p`, whose output is the spatial part's, for
    /// block input `input`.
    pub(crate) fn plan(&self, p: &mut Plan, input: &SymShape) {
        p.extend("bn", self.bn.plan(&p.output().clone()));
        p.push_op("relu", "", p.output().clone());
        p.extend("tcn", self.tcn.plan(&p.output().clone()));
        if p.has_errors() {
            return;
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
