//! ST-GCN \[37\]: the first graph-convolutional skeleton model (§3.1) and
//! the reference GCN baseline of Tabs. 6–7.

use crate::common::{linear_eval, ModelDims, StageSpec, StaticBranch, StaticBranchEval};
use crate::tcn::{block_rank_error, BlockTail};
use dhg_nn::{global_avg_pool, Buffer, Linear, Module};
use dhg_tensor::{NdArray, Tensor, Workspace};
use rand::Rng;

/// One spatial-temporal block: fixed-operator graph convolution (Eq. 1)
/// with a pointwise Θ, then the shared block tail (temporal convolution
/// and residual connection).
pub struct StGcnBlock {
    spatial: StaticBranch,
    tail: BlockTail,
    /// Serving cache: importance-weighted operator precomputed, the tail's
    /// BN folded into Θ.
    inference: Option<StaticBranchEval>,
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
        StGcnBlock { spatial, tail, inference: None }
    }

    /// Grad-free eval forward on raw arrays; requires
    /// [`Module::prepare_inference`].
    fn forward_eval(&self, x: &NdArray, ws: &mut Workspace) -> NdArray {
        let inf = self.inference.as_ref().expect("StGcnBlock eval requires prepare_inference()");
        let mut spatial = inf.forward(x, ws);
        spatial.relu_inplace();
        self.tail.forward_eval(x, spatial, ws)
    }
}

impl Module for StGcnBlock {
    fn forward(&self, x: &Tensor) -> Tensor {
        self.tail.forward(x, &self.spatial.forward(x))
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
        if training {
            self.inference = None;
        }
    }

    fn prepare_inference(&mut self) {
        let (scale, shift) = self.tail.prepare_inference();
        self.inference = Some(self.spatial.compile(&scale, &shift));
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        if let Some(p) = block_rank_error(input) {
            return p;
        }
        let mut p = self.spatial.plan(input);
        if p.has_errors() {
            return p;
        }
        if self.tail.plan(&mut p, input) && !self.tail.training() && self.inference.is_none() {
            p.warn(
                dhg_nn::DiagCode::NotPrepared,
                "eval-mode StGcnBlock without serving caches; call prepare_inference()",
            );
        }
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
    /// Cached input-BN eval affine; present iff compiled for serving.
    inference: Option<(Vec<f32>, Vec<f32>)>,
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
        StGcn { input_bn, blocks, fc, dims, inference: None }
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
        if training {
            self.inference = None;
        }
    }

    fn prepare_inference(&mut self) {
        self.set_training(false);
        for b in &mut self.blocks {
            b.prepare_inference();
        }
        self.inference = Some(self.input_bn.eval_affine());
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, Plan, SymShape};
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
        if !self.input_bn.training() && self.inference.is_none() {
            p.warn(
                DiagCode::NotPrepared,
                "eval-mode StGcn without a compiled serving path; call prepare_inference()",
            );
        }
        p
    }

    fn forward_inference(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let Some((bn_scale, bn_shift)) = &self.inference else {
            let _guard = dhg_tensor::no_grad();
            return self.forward(x);
        };
        let _guard = dhg_tensor::no_grad();
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "input must be [N, C, T, V]");
        assert_eq!(shape[1], self.dims.in_channels, "channel mismatch");
        assert_eq!(shape[3], self.dims.n_joints, "joint mismatch");
        let xnd = x.data();
        let mut h = self.input_bn.forward_affine(&xnd, bn_scale, bn_shift, ws);
        for block in &self.blocks {
            let next = block.forward_eval(&h, ws);
            ws.recycle(h);
            h = next;
        }
        let pooled = h.mean_axes(&[2, 3], false); // [N, C]
        ws.recycle(h);
        Tensor::constant(linear_eval(&self.fc, &pooled, ws))
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
    fn compiled_inference_matches_eval_within_tolerance() {
        let mut m = model();
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 3 * 16 * 25).map(|i| (i as f32 * 0.023).sin()).collect(),
            &[2, 3, 16, 25],
        ));
        m.forward(&x); // warm BN stats
        m.set_training(false);
        let reference = {
            let _g = dhg_tensor::no_grad();
            m.forward(&x).array()
        };
        m.prepare_inference();
        let mut ws = Workspace::new();
        let got = m.forward_inference(&x, &mut ws).array();
        assert!(reference.allclose(&got, 1e-4, 1e-5), "compiled logits diverged");
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
