//! PB-GCN \[32\] and the paper's PB-HGCN construction (Tab. 2).
//!
//! PB-GCN splits the skeleton into overlapping body parts, convolves each
//! part's subgraph separately and aggregates the per-part features. The
//! paper's ablation replaces the part subgraphs with part *hyperedges* —
//! one hypergraph whose hyperedges are the parts — "which eliminates the
//! need of aggregation functions" (§4.3).

use crate::common::{apply_vertex_op, plan_vertex_mix, MixOperator, ModelDims, StageSpec};
use crate::tcn::{block_rank_error, BlockTail};
use dhg_hypergraph::{Graph, Hypergraph};
use dhg_nn::{global_avg_pool, Buffer, Conv2d, Linear, Module};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// How parts are turned into convolution operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartConv {
    /// PB-GCN: one subgraph operator and Θ per part, summed (the
    /// aggregation function).
    Graph,
    /// PB-HGCN: parts become hyperedges of a single hypergraph; one
    /// operator, no aggregation.
    Hypergraph,
}

impl std::fmt::Display for PartConv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartConv::Graph => write!(f, "PB-GCN"),
            PartConv::Hypergraph => write!(f, "PB-HGCN"),
        }
    }
}

struct PbBlock {
    /// `(operator, Θ)` pairs — one per part for PB-GCN, exactly one for
    /// PB-HGCN.
    convs: Vec<(Tensor, Conv2d)>,
    tail: BlockTail,
}

impl PbBlock {
    fn new(
        operators: &[NdArray],
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let convs = operators
            .iter()
            .map(|op| {
                (Tensor::constant(op.clone()), Conv2d::pointwise(in_channels, out_channels, rng))
            })
            .collect();
        let tail = BlockTail::new(in_channels, out_channels, stride, 1, dropout, rng);
        PbBlock { convs, tail }
    }
}

impl Module for PbBlock {
    fn forward(&self, x: &Tensor) -> Tensor {
        // aggregate part convolutions by summation
        let mut acc: Option<Tensor> = None;
        for (op, theta) in &self.convs {
            let part = theta.forward(&apply_vertex_op(x, op));
            acc = Some(match acc {
                Some(a) => a.add(&part),
                None => part,
            });
        }
        self.tail.forward(x, acc.expect("at least one part"))
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = Vec::new();
        for (_, theta) in &self.convs {
            ps.extend(theta.parameters());
        }
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
        use dhg_nn::{DiagCode, OpCost, Plan};
        if let Some(p) = block_rank_error(input) {
            return p;
        }
        let mut p = Plan::new(input);
        // every part operator must be [V, V] over the input's joint axis
        if let Some(v) = input.known(3) {
            for (i, (op, _)) in self.convs.iter().enumerate() {
                if op.shape() != vec![v, v] {
                    p.error(
                        DiagCode::JointMismatch,
                        format!("operator must be [V, V]: part {i} has {:?}, input has {v} joints", op.shape()),
                    );
                    return p;
                }
            }
        }
        // every part mixes the block input with its own operator and Θ;
        // part 0 anchors the chain, the others run beside it and are
        // summed into it, so their output shapes must agree
        let n_parts = self.convs.len();
        let part = |i: usize| {
            let (op, theta) = &self.convs[i];
            let v = op.shape()[0];
            let mut pp = Plan::new(input);
            plan_vertex_mix(
                &mut pp,
                "vertex_op",
                format!("part {i} of {n_parts}: [{v}, {v}] operator"),
                MixOperator::Shared,
                OpCost::default(),
            );
            pp.extend("theta", theta.plan(input));
            pp
        };
        p.extend("part[0]", part(0));
        if p.has_errors() {
            return p;
        }
        let part_out = p.output().clone();
        for i in 1..n_parts {
            let other = part(i);
            if other.has_errors() {
                p.extend(&format!("part[{i}]"), other);
                return p;
            }
            if other.output() != &part_out {
                p.error(
                    DiagCode::ShapeMismatch,
                    format!("part {i} produces {} but part 0 produces {part_out}", other.output()),
                );
                return p;
            }
            p.adopt(&format!("part[{i}]"), &other);
            p.push_op_costed("part_sum", format!("+ part {i}"), part_out.clone(), OpCost::elementwise(&part_out));
        }
        self.tail.plan(&mut p, input);
        p
    }
}

/// The part-based classifier of Tab. 2, in PB-GCN or PB-HGCN form.
pub struct PartBasedModel {
    mode: PartConv,
    n_parts: usize,
    input_bn: crate::common::DataBn,
    blocks: Vec<PbBlock>,
    fc: Linear,
    dims: ModelDims,
}

impl PartBasedModel {
    /// Build from explicit part membership lists over the skeleton's bone
    /// graph (normally [`dhg_skeleton::part_subsets`]).
    pub fn new(
        dims: ModelDims,
        graph: &Graph,
        parts: &[Vec<usize>],
        mode: PartConv,
        stages: &[StageSpec],
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!parts.is_empty(), "need at least one part");
        assert_eq!(graph.n_vertices(), dims.n_joints, "graph/joint mismatch");
        let operators: Vec<NdArray> = match mode {
            PartConv::Graph => parts
                .iter()
                .map(|p| graph.subgraph(p).normalized_adjacency())
                .collect(),
            PartConv::Hypergraph => {
                vec![Hypergraph::new(dims.n_joints, parts.to_vec()).operator()]
            }
        };
        let input_bn = crate::common::DataBn::new(dims.in_channels, dims.n_joints);
        let mut blocks = Vec::with_capacity(stages.len());
        let mut in_ch = dims.in_channels;
        for stage in stages {
            blocks.push(PbBlock::new(&operators, in_ch, stage.channels, stage.stride, dropout, rng));
            in_ch = stage.channels;
        }
        let fc = Linear::new(in_ch, dims.n_classes, rng);
        PartBasedModel { mode, n_parts: parts.len(), input_bn, blocks, fc, dims }
    }

    /// Graph or hypergraph part handling.
    pub fn mode(&self) -> PartConv {
        self.mode
    }

    /// Number of body parts the model was built from.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// The model geometry.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }
}

impl Module for PartBasedModel {
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
    use dhg_skeleton::{part_subsets, SkeletonTopology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(mode: PartConv, n_parts: usize) -> PartBasedModel {
        let mut rng = StdRng::seed_from_u64(0);
        let topo = SkeletonTopology::ntu25();
        let parts = part_subsets(&topo, n_parts);
        PartBasedModel::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 },
            &topo.graph(),
            &parts,
            mode,
            &small_stages(),
            0.0,
            &mut rng,
        )
    }

    #[test]
    fn both_modes_produce_logits() {
        for mode in [PartConv::Graph, PartConv::Hypergraph] {
            for n in [2usize, 4, 6] {
                let m = build(mode, n);
                let x = Tensor::constant(NdArray::ones(&[2, 3, 8, 25]));
                assert_eq!(m.forward(&x).shape(), vec![2, 4], "{mode} {n}");
            }
        }
    }

    #[test]
    fn hypergraph_mode_eliminates_per_part_convs() {
        let g = build(PartConv::Graph, 4);
        let h = build(PartConv::Hypergraph, 4);
        // PB-GCN has one Θ per part; PB-HGCN exactly one
        assert_eq!(g.blocks[0].convs.len(), 4);
        assert_eq!(h.blocks[0].convs.len(), 1);
        assert!(h.n_parameters() < g.n_parameters());
    }

    #[test]
    fn plan_costs_every_part_mix_theta_and_sum() {
        use dhg_nn::{analyze, SymShape};
        let shape = SymShape::nctv(3, 8, 25);
        for parts in [2usize, 4, 6] {
            let plan = build(PartConv::Graph, parts).blocks[0].plan(&shape);
            assert!(analyze(&plan).ok(), "{}", analyze(&plan));
            let ops: Vec<&str> =
                plan.ops().iter().chain(plan.side_ops()).map(|op| op.name.as_str()).collect();
            let count = |suffix: &str| ops.iter().filter(|name| name.ends_with(suffix)).count();
            assert_eq!(count(".vertex_op"), parts, "{ops:?}");
            assert_eq!(count(".theta.conv2d"), parts, "{ops:?}");
            assert_eq!(count("part_sum"), parts - 1, "{ops:?}");
        }
        // one hypergraph operator and one Θ per block: ST-GCN's arithmetic
        let flops = |m: &dyn Module| analyze(&m.plan(&shape)).cost_summary().flops;
        let topo = SkeletonTopology::ntu25();
        let stgcn = crate::StGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 },
            topo.graph().normalized_adjacency(),
            &small_stages(),
            0.0,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(flops(&build(PartConv::Hypergraph, 4)), flops(&stgcn));
        assert!(flops(&build(PartConv::Graph, 4)) > flops(&stgcn));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let m = build(PartConv::Graph, 2);
        let x = Tensor::constant(NdArray::ones(&[1, 3, 8, 25]));
        m.forward(&x).cross_entropy(&[1]).backward();
        let n_with = m.parameters().iter().filter(|p| p.grad().is_some()).count();
        assert_eq!(n_with, m.parameters().len());
    }

    #[test]
    fn metadata_accessors() {
        let m = build(PartConv::Hypergraph, 6);
        assert_eq!(m.mode(), PartConv::Hypergraph);
        assert_eq!(m.n_parts(), 6);
        assert_eq!(m.mode().to_string(), "PB-HGCN");
    }
}
