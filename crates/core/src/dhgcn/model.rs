//! The full DHGCN classifier (§3.5, Fig. 5).

use super::block::DhstBlock;
use crate::common::{paper_stages, plan_static_hypergraph, small_stages, ModelDims, StageSpec};
use dhg_hypergraph::{dynamic_operators, Hypergraph};
use dhg_nn::{global_avg_pool, Buffer, Linear, Module};
use dhg_skeleton::{static_hypergraph, SkeletonTopology};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// Which spatial branches are active — the Tab. 4 ablation axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchConfig {
    /// Branch 1: static hypergraph (Eq. 5).
    pub static_hypergraph: bool,
    /// Branch 2: dynamic joint weight (Eq. 6–9).
    pub dynamic_joint_weight: bool,
    /// Branch 3: dynamic topology (§3.4).
    pub dynamic_topology: bool,
}

impl BranchConfig {
    /// All three branches — the full DHGCN.
    pub fn full() -> Self {
        BranchConfig { static_hypergraph: true, dynamic_joint_weight: true, dynamic_topology: true }
    }

    /// Tab. 4 "no/static".
    pub fn no_static() -> Self {
        BranchConfig { static_hypergraph: false, ..Self::full() }
    }

    /// Tab. 4 "no/joint" (dynamic joint weight removed).
    pub fn no_joint_weight() -> Self {
        BranchConfig { dynamic_joint_weight: false, ..Self::full() }
    }

    /// Tab. 4 "no/topology".
    pub fn no_topology() -> Self {
        BranchConfig { dynamic_topology: false, ..Self::full() }
    }

    /// Tab. 4 "no/dynamic": both dynamic branches removed, static only.
    pub fn no_dynamic() -> Self {
        BranchConfig {
            static_hypergraph: true,
            dynamic_joint_weight: false,
            dynamic_topology: false,
        }
    }

    /// Number of active branches.
    pub fn n_active(&self) -> usize {
        usize::from(self.static_hypergraph)
            + usize::from(self.dynamic_joint_weight)
            + usize::from(self.dynamic_topology)
    }

    /// The row label used by the Tab. 4 harness.
    pub fn label(&self) -> &'static str {
        match (self.static_hypergraph, self.dynamic_joint_weight, self.dynamic_topology) {
            (true, true, true) => "DHGCN",
            (false, true, true) => "DHGCN(no/static)",
            (true, false, true) => "DHGCN(no/joint)",
            (true, true, false) => "DHGCN(no/topology)",
            (true, false, false) => "DHGCN(no/dynamic)",
            _ => "DHGCN(custom)",
        }
    }
}

/// Dynamic-topology rebuild granularity — owned by the hypergraph crate's
/// topology construction and re-exported here for the historical path
/// (`dhg_core::TopologyGranularity`).
pub use dhg_hypergraph::TopologyGranularity;

/// Hyper-parameters of [`Dhgcn`].
#[derive(Clone, Debug, PartialEq)]
pub struct DhgcnConfig {
    /// Input/output geometry.
    pub dims: ModelDims,
    /// Backbone stages (channels + temporal stride per block).
    pub stages: Vec<StageSpec>,
    /// `k_n`: joints per k-NN hyperedge (Tab. 3; best 3).
    pub kn: usize,
    /// `k_m`: number of k-means hyperedges (Tab. 3; best 4).
    pub km: usize,
    /// Active spatial branches (Tab. 4).
    pub branches: BranchConfig,
    /// Dynamic-topology rebuild granularity.
    pub granularity: TopologyGranularity,
    /// Width of the Eq. 10 FC embedding; 0 means "match the block's
    /// output width" (full feature bandwidth through the branch).
    pub embed_channels: usize,
    /// Dropout inside temporal units.
    pub dropout: f32,
    /// Per-block temporal dilation rates, cycled if shorter than the
    /// backbone ("a larger receptive field can be obtained by using
    /// different dilation rates", §3.5).
    pub dilations: Vec<usize>,
}

impl DhgcnConfig {
    /// The paper's configuration: 10 DHST blocks (Fig. 5), `k_n = 3`,
    /// `k_m = 4` (Tab. 3), per-frame dynamic topology.
    pub fn paper(dims: ModelDims) -> Self {
        DhgcnConfig {
            dims,
            stages: paper_stages(),
            kn: 3,
            km: 4,
            branches: BranchConfig::full(),
            granularity: TopologyGranularity::PerFrame,
            embed_channels: 0,
            dropout: 0.5,
            dilations: vec![1, 1, 2],
        }
    }

    /// The CPU-scale experiment configuration (see DESIGN.md): identical
    /// architecture, 3 blocks, narrow channels, per-sample topology.
    pub fn small(dims: ModelDims) -> Self {
        DhgcnConfig {
            dims,
            stages: small_stages(),
            kn: 3,
            km: 4,
            branches: BranchConfig::full(),
            granularity: TopologyGranularity::PerSample,
            embed_channels: 0,
            dropout: 0.05,
            dilations: vec![1, 2],
        }
    }
}

/// The Dynamic Hypergraph Convolutional Network.
///
/// The input is the raw coordinate batch `[N, 3, T, V]`; the model itself
/// derives the per-frame joint-weight operators (Eq. 6–9) from it before
/// feature extraction begins, then runs the DHST backbone, global average
/// pooling and the classifier head.
pub struct Dhgcn {
    config: DhgcnConfig,
    static_hg: Hypergraph,
    input_bn: crate::common::DataBn,
    blocks: Vec<DhstBlock>,
    fc: Linear,
}

impl Dhgcn {
    /// Build over an explicit static hypergraph.
    pub fn new(config: DhgcnConfig, static_hg: Hypergraph, rng: &mut impl Rng) -> Self {
        assert_eq!(
            static_hg.n_vertices(),
            config.dims.n_joints,
            "static hypergraph does not match the joint count"
        );
        assert!(!config.stages.is_empty(), "need at least one stage");
        assert!(config.kn <= config.dims.n_joints, "k_n exceeds joint count");
        assert!(config.km <= config.dims.n_joints, "k_m exceeds joint count");
        let static_op = static_hg.operator();
        let input_bn = crate::common::DataBn::new(config.dims.in_channels, config.dims.n_joints);
        let mut blocks = Vec::with_capacity(config.stages.len());
        let mut in_ch = config.dims.in_channels;
        for (i, stage) in config.stages.iter().enumerate() {
            let dilation = config.dilations[i % config.dilations.len()];
            let embed = if config.embed_channels == 0 { stage.channels } else { config.embed_channels };
            blocks.push(DhstBlock::new(
                &static_op,
                in_ch,
                stage.channels,
                stage.stride,
                dilation,
                config.branches,
                config.kn,
                config.km,
                embed,
                config.granularity,
                config.dropout,
                rng,
            ));
            in_ch = stage.channels;
        }
        let fc = Linear::new(in_ch, config.dims.n_classes, rng);
        Dhgcn { config, static_hg, input_bn, blocks, fc }
    }

    /// Build over a skeleton topology's standard static hypergraph
    /// (Fig. 3).
    pub fn for_topology(config: DhgcnConfig, topology: &SkeletonTopology, rng: &mut impl Rng) -> Self {
        let hg = static_hypergraph(topology);
        Self::new(config, hg, rng)
    }

    /// The model configuration.
    pub fn config(&self) -> &DhgcnConfig {
        &self.config
    }

    /// Number of DHST blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Compute the Eq. 9 operators `[N, T, V, V]` from a raw coordinate
    /// batch `[N, 3, T, V]`.
    fn dynamic_joint_weight_ops(&self, x: &NdArray) -> NdArray {
        let s = x.shape();
        let (n, t, v) = (s[0], s[2], s[3]);
        let positions = x.permute(&[0, 2, 3, 1]); // [N, T, V, 3]
        let mut per_sample = Vec::with_capacity(n);
        for ni in 0..n {
            let sample = positions.slice_axis(0, ni, 1).reshape(&[t, v, 3]);
            per_sample.push(dynamic_operators(&self.static_hg, &sample).reshape(&[1, t, v, v]));
        }
        let refs: Vec<&NdArray> = per_sample.iter().collect();
        NdArray::concat(&refs, 0)
    }

    /// Subsample per-frame operators to a coarser temporal resolution
    /// (after a strided block, frame `t` corresponds to input frame
    /// `t · stride`).
    fn subsample_ops(ops: &NdArray, t_out: usize, stride: usize) -> NdArray {
        let mut frames = Vec::with_capacity(t_out);
        for t in 0..t_out {
            let src = (t * stride).min(ops.shape()[1] - 1);
            frames.push(ops.slice_axis(1, src, 1));
        }
        let refs: Vec<&NdArray> = frames.iter().collect();
        NdArray::concat(&refs, 1)
    }
}

impl Module for Dhgcn {
    fn forward(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "input must be [N, C, T, V]");
        assert_eq!(shape[1], self.config.dims.in_channels, "channel mismatch");
        assert_eq!(shape[3], self.config.dims.n_joints, "joint mismatch");
        // Dynamic joint-weight operators come from the *raw coordinates*
        // (moving distance, Eq. 6) — computed once, shared by all blocks
        // at the same temporal resolution (no per-block copies), and
        // subsampled whenever a block strides over time.
        let needs_ops = self.blocks.iter().any(|b| b.needs_dynamic_ops());
        let mut ops: Option<Tensor> =
            needs_ops.then(|| Tensor::constant(self.dynamic_joint_weight_ops(&x.data())));

        let mut h = self.input_bn.forward(x);
        for block in &self.blocks {
            let ops_tensor =
                block.needs_dynamic_ops().then(|| ops.as_ref().expect("ops precomputed"));
            h = block.forward(&h, ops_tensor);
            if block.stride() > 1 {
                if let Some(o) = &ops {
                    let t_out = h.shape()[2];
                    let sub = Self::subsample_ops(&o.data(), t_out, block.stride());
                    ops = Some(Tensor::constant(sub));
                }
            }
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
        if !p.expect_nctv(self.config.dims.in_channels, self.config.dims.n_joints)
            || p.has_errors()
        {
            return p;
        }
        plan_static_hypergraph(&mut p, &self.static_hg);
        if p.has_errors() {
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dims() -> ModelDims {
        ModelDims { in_channels: 3, n_joints: 25, n_classes: 6 }
    }

    fn small_model(branches: BranchConfig) -> Dhgcn {
        let mut rng = StdRng::seed_from_u64(0);
        let mut config = DhgcnConfig::small(dims());
        config.branches = branches;
        Dhgcn::for_topology(config, &SkeletonTopology::ntu25(), &mut rng)
    }

    fn input(n: usize, t: usize) -> Tensor {
        let data: Vec<f32> = (0..n * 3 * t * 25).map(|i| (i as f32 * 0.017).sin()).collect();
        Tensor::constant(NdArray::from_vec(data, &[n, 3, t, 25]))
    }

    #[test]
    fn full_model_forward_backward() {
        let m = small_model(BranchConfig::full());
        let x = input(2, 8);
        let y = m.forward(&x);
        assert_eq!(y.shape(), vec![2, 6]);
        y.cross_entropy(&[1, 4]).backward();
        let missing = m.parameters().iter().filter(|p| p.grad().is_none()).count();
        assert_eq!(missing, 0, "all parameters must receive gradients");
    }

    #[test]
    fn every_ablation_variant_runs() {
        for branches in [
            BranchConfig::no_static(),
            BranchConfig::no_joint_weight(),
            BranchConfig::no_topology(),
            BranchConfig::no_dynamic(),
        ] {
            let m = small_model(branches);
            let y = m.forward(&input(1, 8));
            assert_eq!(y.shape(), vec![1, 6], "{}", branches.label());
        }
    }

    #[test]
    fn paper_config_builds_ten_blocks() {
        let c = DhgcnConfig::paper(dims());
        assert_eq!(c.stages.len(), 10, "Fig. 5: ten DHST blocks");
        assert_eq!((c.kn, c.km), (3, 4), "Tab. 3 best setting");
        // building the full paper model is heavy; verify cheaply that
        // construction succeeds with one paper-width stage
        let mut rng = StdRng::seed_from_u64(0);
        let mut small = c.clone();
        small.stages = vec![small.stages[0]];
        small.granularity = TopologyGranularity::PerSample;
        let m = Dhgcn::for_topology(small, &SkeletonTopology::ntu25(), &mut rng);
        assert_eq!(m.n_blocks(), 1);
    }

    #[test]
    fn dynamic_ops_shape_and_rows() {
        let m = small_model(BranchConfig::full());
        let x = input(2, 8).array();
        let ops = m.dynamic_joint_weight_ops(&x);
        assert_eq!(ops.shape(), &[2, 8, 25, 25]);
        assert!(ops.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn subsample_ops_picks_strided_frames() {
        let ops = NdArray::from_vec((0..2 * 4).map(|i| i as f32).collect(), &[2, 4, 1, 1]);
        let sub = Dhgcn::subsample_ops(&ops, 2, 2);
        assert_eq!(sub.shape(), &[2, 2, 1, 1]);
        assert_eq!(sub.data(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn grad_free_eval_forward_builds_no_graph() {
        let mut m = small_model(BranchConfig::full());
        let x = input(2, 8);
        m.forward(&x); // warm BN statistics
        m.set_training(false);
        let recorded = m.forward(&x).array();
        let _g = dhg_tensor::no_grad();
        let before = dhg_tensor::graph_nodes_created();
        let served = m.forward(&x).array();
        assert_eq!(dhg_tensor::graph_nodes_created(), before, "no_grad eval built graph nodes");
        assert!(served.allclose(&recorded, 1e-5, 1e-6));
    }

    #[test]
    fn experiment_scale_plan_flops_count_every_branch() {
        use dhg_nn::{analyze, per_sample_elems, Plan, SymShape};
        // the experiment-scale backbone (24-24-48, one stride-2 stage)
        let mut config = DhgcnConfig::small(dims());
        config.stages = vec![StageSpec::new(24, 1), StageSpec::new(24, 1), StageSpec::new(48, 2)];
        let m = Dhgcn::for_topology(config, &SkeletonTopology::ntu25(), &mut StdRng::seed_from_u64(0));
        let flops = |p: &Plan| analyze(p).cost_summary().flops;
        let input = SymShape::nctv(3, 32, 25);
        let mut want = flops(&m.input_bn.plan(&input));
        let mut shape = input.clone();
        for b in &m.blocks {
            let bp = b.plan(&shape);
            want += flops(&bp);
            shape = bp.output().clone();
        }
        let pooled = SymShape::batched(&[48]);
        want += per_sample_elems(&pooled) + flops(&m.fc.plan(&pooled));
        let plan = m.plan(&input);
        assert_eq!(flops(&plan), want);
        // side branches (joint-weight, topology, residual projection) are
        // more than half of the total: a chain-only count misses them
        let chain: u64 = plan.ops().iter().map(|op| op.cost.flops).sum();
        assert!(2 * chain < want, "chain {chain} of {want} FLOPs");
    }

    #[test]
    fn plan_reports_a_broken_static_hypergraph() {
        use dhg_nn::{analyze, DiagCode, SymShape};
        // joint 0 dropped from every hyperedge: `Hypergraph::new` builds
        // it, but every block would convolve with a garbage operator
        let hg = static_hypergraph(&SkeletonTopology::ntu25());
        let edges = hg
            .edges()
            .iter()
            .map(|e| e.iter().copied().filter(|&j| j != 0).collect())
            .collect();
        let broken = Hypergraph::new(hg.n_vertices(), edges);
        let m = Dhgcn::new(DhgcnConfig::small(dims()), broken, &mut StdRng::seed_from_u64(0));
        let r = analyze(&m.plan(&SymShape::nctv(3, 8, 25)));
        assert!(r.has_errors(), "{r}");
        assert!(!r.with_code(DiagCode::IncidenceUncoveredVertex).is_empty(), "{r}");
    }

    #[test]
    fn model_buffers_cover_every_batchnorm() {
        let m = small_model(BranchConfig::full());
        // DataBn (2) + per block BN (2) + TCN BN (2)
        assert_eq!(m.buffers().len(), 2 + m.n_blocks() * 4);
    }

    #[test]
    fn branch_labels_match_table4_rows() {
        assert_eq!(BranchConfig::full().label(), "DHGCN");
        assert_eq!(BranchConfig::no_static().label(), "DHGCN(no/static)");
        assert_eq!(BranchConfig::no_joint_weight().label(), "DHGCN(no/joint)");
        assert_eq!(BranchConfig::no_topology().label(), "DHGCN(no/topology)");
        assert_eq!(BranchConfig::no_dynamic().label(), "DHGCN(no/dynamic)");
        assert_eq!(BranchConfig::no_dynamic().n_active(), 1);
    }

    #[test]
    fn strided_model_keeps_ops_aligned() {
        // small_stages has a stride-2 third block; with the joint-weight
        // branch active the ops must track the halved frame count
        let m = small_model(BranchConfig::full());
        let y = m.forward(&input(1, 16));
        assert_eq!(y.shape(), vec![1, 6]);
    }
}
