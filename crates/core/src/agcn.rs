//! 2s-AGCN \[29\] and its hypergraph variant 2s-AHGCN (Tab. 1).
//!
//! The adaptive operator of each block is `base + B + C`:
//!
//! * `base` — a fixed structural operator: the normalised skeleton
//!   adjacency (Eq. 1) for **2s-AGCN**, or the static hypergraph operator
//!   (Eq. 5) for **2s-AHGCN** — this swap is exactly the Tab. 1 ablation.
//! * `B` — a freely learnable `[V, V]` matrix (initialised to zero).
//! * `C` — a per-sample attention operator from embedded feature
//!   similarity, `softmax(θ₁(x)ᵀ θ₂(x))`.

use crate::common::{apply_per_sample_vertex_op, ModelDims, StageSpec};
use crate::tcn::{block_rank_error, BlockTail};
use dhg_nn::{global_avg_pool, Buffer, Conv2d, Linear, Module};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// Which structural prior an [`Agcn`] uses as its fixed base operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgcnVariant {
    /// Normalised skeleton-graph adjacency — the published 2s-AGCN.
    Graph,
    /// Static skeleton-hypergraph operator — the paper's 2s-AHGCN.
    Hypergraph,
}

impl std::fmt::Display for AgcnVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgcnVariant::Graph => write!(f, "2s-AGCN"),
            AgcnVariant::Hypergraph => write!(f, "2s-AHGCN"),
        }
    }
}

/// Embedding width of the attention branch.
const EMBED_CHANNELS: usize = 4;

struct AgcnBlock {
    base: Tensor,
    b: Tensor,
    theta1: Conv2d,
    theta2: Conv2d,
    theta: Conv2d,
    tail: BlockTail,
}

impl AgcnBlock {
    fn new(
        base: NdArray,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let v = base.shape()[0];
        AgcnBlock {
            base: Tensor::constant(base),
            b: Tensor::param(NdArray::zeros(&[v, v])),
            theta1: Conv2d::pointwise(in_channels, EMBED_CHANNELS, rng),
            theta2: Conv2d::pointwise(in_channels, EMBED_CHANNELS, rng),
            theta: Conv2d::pointwise(in_channels, out_channels, rng),
            tail: BlockTail::new(in_channels, out_channels, stride, 1, dropout, rng),
        }
    }

    /// The data-dependent attention operator `C ∈ [N, V, V]`.
    fn attention(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        let (n, t, v) = (s[0], s[2], s[3]);
        let e1 = self.theta1.forward(x).reshape(&[n, EMBED_CHANNELS * t, v]);
        let e2 = self.theta2.forward(x).reshape(&[n, EMBED_CHANNELS * t, v]);
        let scale = 1.0 / (EMBED_CHANNELS * t) as f32;
        e1.transpose_last2().matmul(&e2).mul_scalar(scale).softmax(2)
    }
}

impl Module for AgcnBlock {
    fn forward(&self, x: &Tensor) -> Tensor {
        let v = x.shape()[3];
        let att = self.attention(x); // [N, V, V]
        // per-sample operator: (base + B) broadcast over the batch, plus C
        let structural = self.base.add(&self.b).reshape(&[1, v, v]);
        let op = att.add(&structural);
        let spatial = self.theta.forward(&apply_per_sample_vertex_op(x, &op));
        self.tail.forward(x, spatial)
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = vec![self.b.clone()];
        ps.extend(self.theta1.parameters());
        ps.extend(self.theta2.parameters());
        ps.extend(self.theta.parameters());
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
        use dhg_nn::{DiagCode, OpCost, Plan, SymShape};
        if let Some(p) = block_rank_error(input) {
            return p;
        }
        let mut p = Plan::new(input);
        let op_v = self.base.shape()[0];
        if let Some(v) = input.known(3) {
            if v != op_v {
                p.error(
                    DiagCode::JointMismatch,
                    format!("operator must be square in V: base has {op_v} joints, input has {v}"),
                );
                return p;
            }
        }
        // the attention operator C is a side branch: theta1/theta2 embed
        // the block input, and its [N, V, V] output joins the vertex mix
        // as an operator, not as the chain's features
        let mut att = Plan::new(input);
        att.extend("theta1", self.theta1.plan(input));
        if att.has_errors() {
            p.adopt("attention", &att);
            return p;
        }
        att.adopt("theta2", &self.theta2.plan(input));
        let (c, t, v) = (
            input.known(1).unwrap_or(1) as u64,
            input.known(2).unwrap_or(1) as u64,
            op_v as u64,
        );
        // e1ᵀ e2 over the E·T embedding rows, then scale + softmax over [V, V]
        let operator = SymShape::batched(&[op_v, op_v]);
        let cost = OpCost::matmul(v, EMBED_CHANNELS as u64 * t, v).plus(OpCost::elementwise(&operator));
        att.push_op_costed("softmax", format!("softmax(e1' e2), [N, {op_v}, {op_v}]"), operator, cost);
        p.adopt("attention", &att);
        p.push_op_costed(
            "adaptive_vertex_op",
            "base + B + C per sample",
            input.clone(),
            OpCost::vertex_op(c, t, v, 1),
        );
        p.extend("theta", self.theta.plan(&p.output().clone()));
        if p.has_errors() {
            return p;
        }
        self.tail.plan(&mut p, input);
        p
    }
}

/// The adaptive graph/hypergraph convolutional classifier (one stream of
/// the two-stream framework; see [`crate::two_stream`]).
pub struct Agcn {
    variant: AgcnVariant,
    input_bn: crate::common::DataBn,
    blocks: Vec<AgcnBlock>,
    fc: Linear,
    dims: ModelDims,
}

impl Agcn {
    /// Build a model. `base` is the fixed structural operator matching
    /// `variant` (callers usually produce it from
    /// `Graph::normalized_adjacency` or `Hypergraph::operator`).
    pub fn new(
        dims: ModelDims,
        variant: AgcnVariant,
        base: NdArray,
        stages: &[StageSpec],
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(base.shape(), &[dims.n_joints, dims.n_joints], "operator/joint mismatch");
        let input_bn = crate::common::DataBn::new(dims.in_channels, dims.n_joints);
        let mut blocks = Vec::with_capacity(stages.len());
        let mut in_ch = dims.in_channels;
        for stage in stages {
            blocks.push(AgcnBlock::new(base.clone(), in_ch, stage.channels, stage.stride, dropout, rng));
            in_ch = stage.channels;
        }
        let fc = Linear::new(in_ch, dims.n_classes, rng);
        Agcn { variant, input_bn, blocks, fc, dims }
    }

    /// Graph or hypergraph base.
    pub fn variant(&self) -> AgcnVariant {
        self.variant
    }

    /// The model geometry.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }
}

impl Module for Agcn {
    fn forward(&self, x: &Tensor) -> Tensor {
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
    use dhg_skeleton::{static_hypergraph, SkeletonTopology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dims() -> ModelDims {
        ModelDims { in_channels: 3, n_joints: 25, n_classes: 5 }
    }

    fn agcn(variant: AgcnVariant) -> Agcn {
        let mut rng = StdRng::seed_from_u64(0);
        let topo = SkeletonTopology::ntu25();
        let base = match variant {
            AgcnVariant::Graph => topo.graph().normalized_adjacency(),
            AgcnVariant::Hypergraph => static_hypergraph(&topo).operator(),
        };
        Agcn::new(dims(), variant, base, &small_stages(), 0.0, &mut rng)
    }

    #[test]
    fn both_variants_produce_logits() {
        for variant in [AgcnVariant::Graph, AgcnVariant::Hypergraph] {
            let m = agcn(variant);
            let x = Tensor::constant(NdArray::ones(&[2, 3, 8, 25]));
            let y = m.forward(&x);
            assert_eq!(y.shape(), vec![2, 5], "{variant}");
            assert!(y.array().data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn learnable_b_receives_gradient() {
        let m = agcn(AgcnVariant::Graph);
        let x = Tensor::constant(NdArray::ones(&[1, 3, 8, 25]));
        m.forward(&x).cross_entropy(&[2]).backward();
        // the B matrices are the first parameter of each block
        let b0 = &m.blocks[0].b;
        assert!(b0.grad().is_some(), "adaptive B must be trained");
    }

    #[test]
    fn attention_rows_are_distributions() {
        let m = agcn(AgcnVariant::Graph);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::constant(dhg_nn::init::random_uniform(&[2, 3, 8, 25], -1.0, 1.0, &mut rng));
        let att = m.blocks[0].attention(&x).array();
        assert_eq!(att.shape(), &[2, 25, 25]);
        for row in att.data().chunks(25) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "attention row sums to {s}");
        }
    }

    #[test]
    fn variants_differ_only_in_base_operator() {
        let a = agcn(AgcnVariant::Graph);
        let b = agcn(AgcnVariant::Hypergraph);
        assert_eq!(a.n_parameters(), b.n_parameters());
        assert!(!a.blocks[0].base.array().allclose(&b.blocks[0].base.array(), 1e-3, 1e-3));
    }

    #[test]
    fn block_plan_flops_are_a_hand_sum_of_every_op() {
        use dhg_nn::{analyze, Plan, SymShape};
        let m = agcn(AgcnVariant::Graph);
        let flops = |p: &Plan| analyze(p).cost_summary().flops;
        let (t, v) = (16u64, 25u64);
        let mut shape = SymShape::nctv(3, t as usize, v as usize);
        for b in &m.blocks {
            let c = shape.known(1).unwrap() as u64;
            let embeddings = flops(&b.theta1.plan(&shape)) + flops(&b.theta2.plan(&shape));
            let attention = 2 * v * (EMBED_CHANNELS as u64 * t) * v + v * v;
            let mix = 2 * c * t * v * v;
            let theta = b.theta.plan(&shape);
            let mut tail = Plan::new(theta.output());
            b.tail.plan(&mut tail, &shape);
            let want = embeddings + attention + mix + flops(&theta) + flops(&tail);
            let plan = b.plan(&shape);
            assert!(analyze(&plan).ok(), "{}", analyze(&plan));
            assert_eq!(flops(&plan), want, "block input {shape}");
            shape = plan.output().clone();
        }
    }

    #[test]
    fn block_plan_records_the_attention_branch_and_the_mix_at_their_shapes() {
        use dhg_nn::{analyze, SymShape};
        let m = agcn(AgcnVariant::Graph);
        let input = SymShape::nctv(3, 16, 25);
        let plan = m.blocks[0].plan(&input);
        assert!(analyze(&plan).ok(), "{}", analyze(&plan));
        let side = |name: &str| {
            let op = plan.side_ops().iter().find(|op| op.name == name);
            op.unwrap_or_else(|| panic!("no side op {name}"))
        };
        // θ₁ and θ₂ embed the block input; the softmax turns their
        // embeddings into the per-sample [N, V, V] operator
        let embedding = SymShape::nctv(EMBED_CHANNELS, 16, 25);
        for theta in ["attention.theta1.conv2d", "attention.theta2.conv2d"] {
            assert_eq!((&side(theta).input, &side(theta).output), (&input, &embedding), "{theta}");
        }
        let softmax = side("attention.softmax");
        assert_eq!(softmax.input, embedding);
        assert_eq!(softmax.output, SymShape::batched(&[25, 25]));
        // the chain starts at the mix, from the block input's [N, C, T, V]
        let mix = &plan.ops()[0];
        assert_eq!(mix.name, "adaptive_vertex_op");
        assert_eq!((&mix.input, &mix.output), (&input, &input));
        assert_eq!(plan.ops()[1].input, input, "theta consumes the mixed features");
    }

    #[test]
    fn display_names() {
        assert_eq!(AgcnVariant::Graph.to_string(), "2s-AGCN");
        assert_eq!(AgcnVariant::Hypergraph.to_string(), "2s-AHGCN");
    }
}
