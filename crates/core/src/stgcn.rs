//! ST-GCN \[37\]: the first graph-convolutional skeleton model (§3.1) and
//! the reference GCN baseline of Tabs. 6–7.

use crate::common::{ModelDims, StageSpec, StaticBranch};
use crate::tcn::{block_rank_error, BlockTail};
use dhg_nn::{global_avg_pool, Buffer, Linear, Module};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// One spatial-temporal block: fixed-operator graph convolution (Eq. 1)
/// with a pointwise Θ, then the shared block tail (temporal convolution
/// and residual connection).
pub struct StGcnBlock {
    spatial: StaticBranch,
    tail: BlockTail,
}

impl StGcnBlock {
    /// Build a block around a fixed `[V, V]` operator.
    pub fn new(
        op: NdArray,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let spatial = StaticBranch::new(op, in_channels, out_channels, rng);
        let tail = BlockTail::new(in_channels, out_channels, stride, 1, dropout, rng);
        StGcnBlock { spatial, tail }
    }
}

impl Module for StGcnBlock {
    fn forward(&self, x: &Tensor) -> Tensor {
        self.tail.forward(x, self.spatial.forward(x))
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.spatial.parameters();
        ps.extend(self.tail.parameters());
        ps
    }

    fn buffers(&self) -> Vec<Buffer> {
        self.tail.buffers()
    }

    fn set_training(&mut self, training: bool) {
        self.tail.set_training(training);
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        if let Some(p) = block_rank_error(input) {
            return p;
        }
        let mut p = self.spatial.plan(input);
        if p.has_errors() {
            return p;
        }
        self.tail.plan(&mut p, input);
        p
    }
}

/// The full ST-GCN classifier: input BatchNorm, a stack of blocks over the
/// normalised skeleton adjacency, global average pooling and a linear
/// classifier.
pub struct StGcn {
    input_bn: crate::common::DataBn,
    blocks: Vec<StGcnBlock>,
    fc: Linear,
    dims: ModelDims,
}

impl StGcn {
    /// Build ST-GCN over a fixed `[V, V]` operator (normally
    /// `graph.normalized_adjacency()`).
    pub fn new(
        dims: ModelDims,
        operator: NdArray,
        stages: &[StageSpec],
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        assert_eq!(operator.shape(), &[dims.n_joints, dims.n_joints], "operator/joint mismatch");
        let input_bn = crate::common::DataBn::new(dims.in_channels, dims.n_joints);
        let mut blocks = Vec::with_capacity(stages.len());
        let mut in_ch = dims.in_channels;
        for stage in stages {
            blocks.push(StGcnBlock::new(
                operator.clone(),
                in_ch,
                stage.channels,
                stage.stride,
                dropout,
                rng,
            ));
            in_ch = stage.channels;
        }
        let fc = Linear::new(in_ch, dims.n_classes, rng);
        StGcn { input_bn, blocks, fc, dims }
    }

    /// Number of blocks in the backbone.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The model geometry.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }
}

impl Module for StGcn {
    fn forward(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "input must be [N, C, T, V]");
        assert_eq!(shape[1], self.dims.in_channels, "channel mismatch");
        assert_eq!(shape[3], self.dims.n_joints, "joint mismatch");
        let mut h = self.input_bn.forward(x);
        for block in &self.blocks {
            h = block.forward(&h);
        }
        self.fc.forward(&global_avg_pool(&h))
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.input_bn.parameters();
        for b in &self.blocks {
            ps.extend(b.parameters());
        }
        ps.extend(self.fc.parameters());
        ps
    }

    fn buffers(&self) -> Vec<Buffer> {
        let mut bs = self.input_bn.buffers();
        for b in &self.blocks {
            bs.extend(b.buffers());
        }
        bs
    }

    fn set_training(&mut self, training: bool) {
        self.input_bn.set_training(training);
        for b in &mut self.blocks {
            b.set_training(training);
        }
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{Plan, SymShape};
        let mut p = Plan::new(input);
        if !p.expect_nctv(self.dims.in_channels, self.dims.n_joints) || p.has_errors() {
            return p;
        }
        p.extend("input_bn", self.input_bn.plan(input));
        for (i, b) in self.blocks.iter().enumerate() {
            p.extend(&format!("blocks[{i}]"), b.plan(&p.output().clone()));
            if p.has_errors() {
                return p;
            }
        }
        let channels = p.output().at(1);
        p.push_op("global_avg_pool", "mean over (T, V)", SymShape(vec![input.at(0), channels]));
        p.extend("fc", self.fc.plan(&p.output().clone()));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::small_stages;
    use dhg_skeleton::SkeletonTopology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> StGcn {
        let mut rng = StdRng::seed_from_u64(0);
        let topo = SkeletonTopology::ntu25();
        StGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 7 },
            topo.graph().normalized_adjacency(),
            &small_stages(),
            0.0,
            &mut rng,
        )
    }

    #[test]
    fn forward_produces_logits() {
        let m = model();
        let x = Tensor::constant(NdArray::ones(&[2, 3, 16, 25]));
        let y = m.forward(&x);
        assert_eq!(y.shape(), vec![2, 7]);
        assert!(y.array().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn has_trainable_parameters_everywhere() {
        let m = model();
        assert!(m.n_parameters() > 1000);
        let x = Tensor::constant(NdArray::ones(&[1, 3, 16, 25]));
        m.forward(&x).cross_entropy(&[3]).backward();
        let with_grad = m.parameters().iter().filter(|p| p.grad().is_some()).count();
        assert_eq!(with_grad, m.parameters().len(), "every parameter should get a gradient");
    }

    #[test]
    fn stride_stages_shrink_time() {
        let m = model(); // last stage has stride 2
        let x = Tensor::constant(NdArray::ones(&[1, 3, 16, 25]));
        // internal check via the blocks directly
        let h = m.input_bn.forward(&x);
        let h = m.blocks[0].forward(&h);
        assert_eq!(h.shape(), vec![1, 16, 16, 25]);
        let h = m.blocks[1].forward(&h);
        let h = m.blocks[2].forward(&h);
        assert_eq!(h.shape(), vec![1, 32, 8, 25]);
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut m = model();
        m.set_training(false);
        let x = Tensor::constant(NdArray::ones(&[1, 3, 16, 25]));
        let a = m.forward(&x).array();
        let b = m.forward(&x).array();
        assert!(a.allclose(&b, 1e-6, 1e-7));
    }
}
