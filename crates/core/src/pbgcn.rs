//! PB-GCN \[32\] and the paper's PB-HGCN construction (Tab. 2).
//!
//! PB-GCN splits the skeleton into overlapping body parts, convolves each
//! part's subgraph separately and aggregates the per-part features. The
//! paper's ablation replaces the part subgraphs with part *hyperedges* —
//! one hypergraph whose hyperedges are the parts — "which eliminates the
//! need of aggregation functions" (§4.3).

use crate::common::{apply_vertex_op, ModelDims, StageSpec};
use crate::tcn::TemporalConv;
use dhg_hypergraph::{Graph, Hypergraph};
use dhg_nn::{global_avg_pool, BatchNorm2d, Buffer, Conv2d, Linear, Module};
use dhg_tensor::ops::Conv2dSpec;
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
    bn: BatchNorm2d,
    tcn: TemporalConv,
    residual_proj: Option<Conv2d>,
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
        PbBlock {
            convs,
            bn: BatchNorm2d::new(out_channels),
            tcn: TemporalConv::new(out_channels, out_channels, stride, 1, dropout, rng),
            residual_proj: if in_channels != out_channels || stride != 1 {
                let spec = Conv2dSpec {
                    kernel: (1, 1),
                    stride: (stride, 1),
                    padding: (0, 0),
                    dilation: (1, 1),
                };
                Some(Conv2d::new(in_channels, out_channels, spec, rng))
            } else {
                None
            },
        }
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
        let spatial = self.bn.forward(&acc.expect("at least one part")).relu();
        let temporal = self.tcn.forward(&spatial);
        let residual = match &self.residual_proj {
            Some(proj) => proj.forward(x),
            None => x.clone(),
        };
        temporal.add(&residual).relu()
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = Vec::new();
        for (_, theta) in &self.convs {
            ps.extend(theta.parameters());
        }
        ps.extend(self.bn.parameters());
        ps.extend(self.tcn.parameters());
        if let Some(p) = &self.residual_proj {
            ps.extend(p.parameters());
        }
        ps
    }

    fn buffers(&self) -> Vec<Buffer> {
        let mut bs = self.bn.buffers();
        bs.extend(self.tcn.buffers());
        bs
    }

    fn set_training(&mut self, training: bool) {
        self.bn.set_training(training);
        self.tcn.set_training(training);
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, Plan};
        let mut p = Plan::new(input);
        if input.rank() != 4 {
            p.error(
                DiagCode::RankMismatch,
                format!("features must be [N, C, T, V], got rank {} {input}", input.rank()),
            );
            return p;
        }
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
        // the part convolutions all consume the input and are summed, so
        // their output shapes must agree; plan the first and compare
        let (_, theta0) = &self.convs[0];
        p.push_op("part_vertex_ops", format!("{} part operator(s), summed", self.convs.len()), input.clone());
        p.extend("theta[0]", theta0.plan(&p.output().clone()));
        if p.has_errors() {
            return p;
        }
        let part_out = p.output().clone();
        for (i, (_, theta)) in self.convs.iter().enumerate().skip(1) {
            let other = theta.plan(input);
            if other.has_errors() {
                p.extend(&format!("theta[{i}]"), other);
                return p;
            }
            if other.output() != &part_out {
                p.error(
                    DiagCode::ShapeMismatch,
                    format!("part {i} produces {} but part 0 produces {part_out}", other.output()),
                );
                return p;
            }
        }
        p.extend("bn", self.bn.plan(&part_out));
        p.push_op("relu", "", p.output().clone());
        p.extend("tcn", self.tcn.plan(&p.output().clone()));
        if p.has_errors() {
            return p;
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
