//! The DHST block: Dynamic Hypergraph Spatial-Temporal convolution
//! (Fig. 5).

use super::branches::{
    JointWeightBranch, JointWeightBranchEval, StaticBranch, StaticBranchEval, TopologyBranch,
    TopologyBranchEval,
};
use super::model::{BranchConfig, TopologyGranularity};
use crate::tcn::TemporalConv;
use dhg_nn::{BatchNorm2d, Buffer, Conv2d, EvalConv, Module};
use dhg_tensor::ops::Conv2dSpec;
use dhg_tensor::{NdArray, Tensor, Workspace};
use rand::Rng;

/// One backbone block: the sum of the active spatial branches, batch
/// normalisation, then a dilated temporal convolution, with a residual
/// connection around the whole block.
pub struct DhstBlock {
    static_branch: Option<StaticBranch>,
    joint_weight_branch: Option<JointWeightBranch>,
    topology_branch: Option<TopologyBranch>,
    bn: BatchNorm2d,
    tcn: TemporalConv,
    residual_proj: Option<Conv2d>,
    stride: usize,
    inference: Option<BlockInference>,
}

/// Serving caches of a [`DhstBlock`]: the post-sum BN is folded into every
/// branch Θ (scale on all, shift on exactly one — exact for a linear sum),
/// the residual projection is baked, and the temporal unit holds its own
/// folded Conv+BN.
struct BlockInference {
    static_branch: Option<StaticBranchEval>,
    joint_weight: Option<JointWeightBranchEval>,
    topology: Option<TopologyBranchEval>,
    residual: Option<EvalConv>,
}

impl DhstBlock {
    /// Build a block.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        static_op: &NdArray,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        dilation: usize,
        branches: BranchConfig,
        kn: usize,
        km: usize,
        embed_channels: usize,
        granularity: TopologyGranularity,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(branches.n_active() > 0, "a DHST block needs at least one spatial branch");
        let static_branch = branches
            .static_hypergraph
            .then(|| StaticBranch::new(static_op.clone(), in_channels, out_channels, rng));
        let n_joints = static_op.shape()[0];
        let joint_weight_branch = branches
            .dynamic_joint_weight
            .then(|| JointWeightBranch::new(in_channels, out_channels, n_joints, rng));
        let topology_branch = branches.dynamic_topology.then(|| {
            // fixed seed: the k-means init must be a pure function of the
            // data, not of construction order, so checkpoints restore
            // behaviour exactly
            let seed = 0x6B6D_6561_6E73; // "kmeans"
            TopologyBranch::new(
                in_channels,
                out_channels,
                embed_channels,
                n_joints,
                kn,
                km,
                granularity,
                seed,
                rng,
            )
        });
        DhstBlock {
            static_branch,
            joint_weight_branch,
            topology_branch,
            bn: BatchNorm2d::new(out_channels),
            tcn: TemporalConv::new(out_channels, out_channels, stride, dilation, dropout, rng),
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
            stride,
            inference: None,
        }
    }

    /// Temporal stride of this block.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether the block needs per-frame joint-weight operators.
    pub fn needs_dynamic_ops(&self) -> bool {
        self.joint_weight_branch.is_some()
    }

    /// Forward. `dyn_ops` carries the Eq. 9 operators `[N, T, V, V]` at
    /// this block's temporal resolution; required iff the joint-weight
    /// branch is active.
    pub fn forward(&self, x: &Tensor, dyn_ops: Option<&Tensor>) -> Tensor {
        let mut acc: Option<Tensor> = None;
        let mut add = |t: Tensor| {
            acc = Some(match acc.take() {
                Some(a) => a.add(&t),
                None => t,
            });
        };
        if let Some(b) = &self.static_branch {
            add(b.forward(x));
        }
        if let Some(b) = &self.joint_weight_branch {
            let ops = dyn_ops.expect("joint-weight branch requires dynamic operators");
            add(b.forward(x, ops));
        }
        if let Some(b) = &self.topology_branch {
            add(b.forward(x));
        }
        let spatial = self.bn.forward(&acc.expect("at least one branch")).relu();
        let temporal = self.tcn.forward(&spatial);
        let residual = match &self.residual_proj {
            Some(proj) => proj.forward(x),
            None => x.clone(),
        };
        temporal.add(&residual).relu()
    }

    /// All trainable parameters of the block.
    pub fn parameters(&self) -> Vec<Tensor> {
        let mut ps = Vec::new();
        if let Some(b) = &self.static_branch {
            ps.extend(b.parameters());
        }
        if let Some(b) = &self.joint_weight_branch {
            ps.extend(b.parameters());
        }
        if let Some(b) = &self.topology_branch {
            ps.extend(b.parameters());
        }
        ps.extend(self.bn.parameters());
        ps.extend(self.tcn.parameters());
        if let Some(p) = &self.residual_proj {
            ps.extend(p.parameters());
        }
        ps
    }

    /// Train/eval switch for the block's normalisation and dropout.
    /// Returning to training drops the serving caches — the folded
    /// weights would silently go stale as the parameters move.
    pub fn set_training(&mut self, training: bool) {
        self.bn.set_training(training);
        self.tcn.set_training(training);
        if training {
            self.inference = None;
        }
    }

    /// Non-trainable state (BN running statistics) in a stable order.
    pub fn buffers(&self) -> Vec<Buffer> {
        let mut bs = self.bn.buffers();
        bs.extend(self.tcn.buffers());
        bs
    }

    /// Compile the block for serving: fold the post-sum BN into every
    /// branch Θ, bake the residual projection and the temporal Conv+BN.
    pub fn prepare_inference(&mut self) {
        self.set_training(false);
        self.tcn.prepare_inference();
        let (scale, shift) = self.bn.eval_affine();
        let zero = vec![0.0; scale.len()];
        // the BN shift enters the sum exactly once, via the first branch
        let mut shift_taken = false;
        let mut next_shift = || -> &[f32] {
            if shift_taken {
                &zero
            } else {
                shift_taken = true;
                &shift
            }
        };
        let static_branch =
            self.static_branch.as_ref().map(|b| b.compile(&scale, next_shift()));
        let joint_weight =
            self.joint_weight_branch.as_ref().map(|b| b.compile(&scale, next_shift()));
        let topology = self.topology_branch.as_ref().map(|b| b.compile(&scale, next_shift()));
        let residual = self.residual_proj.as_ref().map(EvalConv::from_conv);
        self.inference = Some(BlockInference { static_branch, joint_weight, topology, residual });
    }

    /// Static shape plan mirroring [`DhstBlock::forward`]: every active
    /// spatial branch consumes the same input and their outputs must agree
    /// before the sum.
    pub fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, Plan};
        let mut p = Plan::new(input);
        if input.rank() != 4 {
            p.error(
                DiagCode::RankMismatch,
                format!("features must be [N, C, T, V], got rank {} {input}", input.rank()),
            );
            return p;
        }
        // plan each active branch against the block input; the first one
        // anchors the chain, the others must produce the same shape
        let mut branch_plans: Vec<(&'static str, Plan)> = Vec::new();
        if let Some(b) = &self.static_branch {
            branch_plans.push(("static_branch", b.plan(input)));
        }
        if let Some(b) = &self.joint_weight_branch {
            branch_plans.push(("joint_weight_branch", b.plan(input)));
        }
        if let Some(b) = &self.topology_branch {
            branch_plans.push(("topology_branch", b.plan(input)));
        }
        let mut sum_out: Option<dhg_nn::SymShape> = None;
        for (i, (name, bp)) in branch_plans.into_iter().enumerate() {
            let errored = bp.has_errors();
            let out = bp.output().clone();
            if i == 0 {
                p.extend(name, bp);
            } else if let Some(anchor) = &sum_out {
                if errored {
                    p.extend(name, bp);
                } else if &out != anchor {
                    p.error(
                        DiagCode::ShapeMismatch,
                        format!("{name} produces {out} but the branch sum expects {anchor}"),
                    );
                } else {
                    p.adopt(name, &bp);
                }
            }
            if errored {
                return p;
            }
            if sum_out.is_none() {
                sum_out = Some(out);
            }
        }
        p.extend("bn", self.bn.plan(&p.output().clone()));
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
        if !self.bn.training() && self.inference.is_none() {
            p.warn(
                DiagCode::NotPrepared,
                "eval-mode DhstBlock without serving caches; call prepare_inference()",
            );
        }
        p
    }

    /// Grad-free eval forward on raw arrays using the caches built by
    /// [`DhstBlock::prepare_inference`]. `dyn_ops` mirrors
    /// [`DhstBlock::forward`].
    pub fn forward_eval(
        &self,
        x: &NdArray,
        dyn_ops: Option<&NdArray>,
        ws: &mut Workspace,
    ) -> NdArray {
        let inf = self
            .inference
            .as_ref()
            .expect("DhstBlock::forward_eval requires prepare_inference()");
        let mut acc: Option<NdArray> = None;
        let accumulate = |y: NdArray, acc: &mut Option<NdArray>, ws: &mut Workspace| {
            match acc {
                Some(a) => {
                    a.add_assign_scaled(&y, 1.0);
                    ws.recycle(y);
                }
                None => *acc = Some(y),
            }
        };
        if let Some(b) = &inf.static_branch {
            let y = b.forward(x, ws);
            accumulate(y, &mut acc, ws);
        }
        if let Some(b) = &inf.joint_weight {
            let ops = dyn_ops.expect("joint-weight branch requires dynamic operators");
            let y = b.forward(x, ops, ws);
            accumulate(y, &mut acc, ws);
        }
        if let Some(b) = &inf.topology {
            let y = b.forward(x, ws);
            accumulate(y, &mut acc, ws);
        }
        let mut spatial = acc.expect("at least one branch");
        spatial.relu_inplace();
        let mut out = self.tcn.forward_eval(&spatial, ws);
        ws.recycle(spatial);
        match &inf.residual {
            Some(proj) => {
                let r = proj.forward(x, ws);
                out.add_relu_inplace(&r);
                ws.recycle(r);
            }
            None => out.add_relu_inplace(x),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_skeleton::{static_hypergraph, SkeletonTopology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn op() -> NdArray {
        static_hypergraph(&SkeletonTopology::ntu25()).operator()
    }

    fn dyn_ops(n: usize, t: usize, v: usize) -> Tensor {
        // identity operators at every frame
        let id = NdArray::eye(v).reshape(&[1, 1, v, v]);
        let mut rows = Vec::new();
        for _ in 0..n * t {
            rows.push(id.clone());
        }
        let refs: Vec<&NdArray> = rows.iter().collect();
        Tensor::constant(NdArray::concat(&refs, 1).reshape(&[n, t, v, v]))
    }

    #[test]
    fn full_block_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = DhstBlock::new(
            &op(),
            3,
            8,
            1,
            1,
            BranchConfig::full(),
            3,
            4,
            4,
            TopologyGranularity::PerSample,
            0.0,
            &mut rng,
        );
        let x = Tensor::constant(NdArray::ones(&[2, 3, 4, 25]));
        let y = b.forward(&x, Some(&dyn_ops(2, 4, 25)));
        assert_eq!(y.shape(), vec![2, 8, 4, 25]);
        assert!(b.needs_dynamic_ops());
    }

    #[test]
    fn stride_two_block_halves_time() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = DhstBlock::new(
            &op(),
            8,
            16,
            2,
            1,
            BranchConfig { static_hypergraph: true, dynamic_joint_weight: false, dynamic_topology: false },
            3,
            4,
            4,
            TopologyGranularity::PerSample,
            0.0,
            &mut rng,
        );
        let x = Tensor::constant(NdArray::ones(&[1, 8, 8, 25]));
        let y = b.forward(&x, None);
        assert_eq!(y.shape(), vec![1, 16, 4, 25]);
        assert!(!b.needs_dynamic_ops());
    }

    #[test]
    #[should_panic(expected = "at least one spatial branch")]
    fn all_branches_off_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        DhstBlock::new(
            &op(),
            3,
            8,
            1,
            1,
            BranchConfig { static_hypergraph: false, dynamic_joint_weight: false, dynamic_topology: false },
            3,
            4,
            4,
            TopologyGranularity::PerSample,
            0.0,
            &mut rng,
        );
    }

    #[test]
    fn compiled_block_matches_unfused_eval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = DhstBlock::new(
            &op(),
            3,
            8,
            1,
            1,
            BranchConfig::full(),
            3,
            4,
            4,
            TopologyGranularity::PerSample,
            0.0,
            &mut rng,
        );
        let x = NdArray::from_vec(
            (0..2 * 3 * 4 * 25).map(|i| (i as f32 * 0.019).sin()).collect(),
            &[2, 3, 4, 25],
        );
        let ops = dyn_ops(2, 4, 25);
        // warm the BNs so folding sees non-trivial statistics
        b.forward(&Tensor::constant(x.clone()), Some(&ops));
        b.set_training(false);
        let reference = {
            let _g = dhg_tensor::no_grad();
            b.forward(&Tensor::constant(x.clone()), Some(&ops)).array()
        };
        b.prepare_inference();
        let mut ws = Workspace::new();
        let got = b.forward_eval(&x, Some(&ops.data()), &mut ws);
        assert!(reference.allclose(&got, 1e-4, 1e-5), "fold diverged");
        // and the caches drop when training resumes
        b.set_training(true);
        assert!(b.inference.is_none());
    }

    #[test]
    fn block_plan_flops_are_the_sum_of_its_branches() {
        use dhg_nn::{analyze, per_sample_elems, Plan, SymShape};
        // channel change + stride: all three branches and the residual
        // projection are live, and only the static branch anchors the chain
        let mut rng = StdRng::seed_from_u64(5);
        let b = DhstBlock::new(
            &op(), 24, 48, 2, 1, BranchConfig::full(), 3, 4, 48,
            TopologyGranularity::PerSample, 0.0, &mut rng,
        );
        let flops = |p: &Plan| analyze(p).cost_summary().flops;
        let input = SymShape::nctv(24, 32, 25);
        let spatial = SymShape::nctv(48, 32, 25);
        let out = SymShape::nctv(48, 16, 25);
        let branches = [
            flops(&b.static_branch.as_ref().unwrap().plan(&input)),
            flops(&b.joint_weight_branch.as_ref().unwrap().plan(&input)),
            flops(&b.topology_branch.as_ref().unwrap().plan(&input)),
        ];
        let residual = flops(&b.residual_proj.as_ref().unwrap().plan(&input));
        let tail = flops(&b.bn.plan(&spatial))
            + per_sample_elems(&spatial) // relu
            + flops(&b.tcn.plan(&spatial))
            + per_sample_elems(&out); // residual add + relu
        let plan = b.plan(&input);
        assert!(analyze(&plan).ok(), "{}", analyze(&plan));
        assert_eq!(flops(&plan), branches.iter().sum::<u64>() + residual + tail);
        // the adopted side branches carry most of the spatial arithmetic
        assert!(branches[1] + branches[2] + residual > branches[0]);
    }

    #[test]
    fn parameter_count_scales_with_active_branches() {
        let mut rng = StdRng::seed_from_u64(0);
        let full = DhstBlock::new(
            &op(), 3, 8, 1, 1, BranchConfig::full(), 3, 4, 4,
            TopologyGranularity::PerSample, 0.0, &mut rng,
        );
        let only_static = DhstBlock::new(
            &op(), 3, 8, 1, 1,
            BranchConfig { static_hypergraph: true, dynamic_joint_weight: false, dynamic_topology: false },
            3, 4, 4, TopologyGranularity::PerSample, 0.0, &mut rng,
        );
        let count = |b: &DhstBlock| b.parameters().iter().map(|p| p.data().len()).sum::<usize>();
        assert!(count(&full) > count(&only_static));
    }
}
