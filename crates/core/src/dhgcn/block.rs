//! The DHST block: Dynamic Hypergraph Spatial-Temporal convolution
//! (Fig. 5).

use super::branches::{JointWeightBranch, TopologyBranch};
use super::model::{BranchConfig, TopologyGranularity};
use crate::common::StaticBranch;
use crate::tcn::{block_rank_error, BlockTail};
use dhg_nn::Buffer;
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// One backbone block: the sum of the active spatial branches, then the
/// shared block tail (batch normalisation, a dilated temporal convolution
/// and a residual connection around the whole block).
pub struct DhstBlock {
    static_branch: Option<StaticBranch>,
    joint_weight_branch: Option<JointWeightBranch>,
    topology_branch: Option<TopologyBranch>,
    tail: BlockTail,
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
        let tail = BlockTail::new(in_channels, out_channels, stride, dilation, dropout, rng);
        DhstBlock { static_branch, joint_weight_branch, topology_branch, tail }
    }

    /// Temporal stride of this block.
    pub fn stride(&self) -> usize {
        self.tail.tcn.stride()
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
        self.tail.forward(x, acc.expect("at least one branch"))
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
        ps.extend(self.tail.parameters());
        ps
    }

    /// Train/eval switch for the block's normalisation and dropout.
    pub fn set_training(&mut self, training: bool) {
        self.tail.set_training(training);
    }

    /// Non-trainable state (BN running statistics) in a stable order.
    pub fn buffers(&self) -> Vec<Buffer> {
        self.tail.buffers()
    }

    /// Static shape plan mirroring [`DhstBlock::forward`]: every active
    /// spatial branch consumes the same input and their outputs must agree
    /// before the sum.
    pub fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, Plan};
        if let Some(p) = block_rank_error(input) {
            return p;
        }
        let mut p = Plan::new(input);
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
        self.tail.plan(&mut p, input);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_nn::Module;
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
        let residual = flops(&b.tail.residual_proj.as_ref().unwrap().plan(&input));
        let tail = flops(&b.tail.bn.plan(&spatial))
            + per_sample_elems(&spatial) // relu
            + flops(&b.tail.tcn.plan(&spatial))
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
