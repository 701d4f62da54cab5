//! The dynamic spatial branches of a DHST block; the static branch
//! ([`crate::common::StaticBranch`]) is ST-GCN's spatial part too.

use crate::common::{
    apply_dynamic_vertex_op, apply_per_sample_vertex_op, plan_vertex_mix, MixOperator,
};
use dhg_hypergraph::{stacked_operators, TopologyConfig};
use dhg_nn::{Conv2d, Module};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

use super::model::TopologyGranularity;

/// Branch 2 — dynamic joint weight (§3.3): per-frame `Imp·Impᵀ`
/// operators built by the model from joint moving distances (Eq. 6–9),
/// then a pointwise Θ.
///
/// The operators are data (not parameters): the discrete weight
/// construction of Eq. 7 is not differentiated, matching the paper, while
/// gradients flow through the feature path.
pub struct JointWeightBranch {
    importance: Tensor,
    theta: Conv2d,
}

impl JointWeightBranch {
    /// Build the branch for skeletons of `n_joints` vertices.
    pub fn new(in_channels: usize, out_channels: usize, n_joints: usize, rng: &mut impl Rng) -> Self {
        JointWeightBranch {
            importance: Tensor::param(NdArray::ones(&[n_joints, n_joints])),
            theta: Conv2d::pointwise(in_channels, out_channels, rng),
        }
    }

    /// Forward with the per-frame operators `ops ∈ [N, T, V, V]` (the
    /// edge-importance mask broadcasts over samples and frames).
    pub fn forward(&self, x: &Tensor, ops: &Tensor) -> Tensor {
        let weighted = ops.mul(&self.importance);
        self.theta.forward(&apply_dynamic_vertex_op(x, &weighted))
    }

    /// Trainable parameters (M and Θ).
    pub fn parameters(&self) -> Vec<Tensor> {
        let mut ps = vec![self.importance.clone()];
        ps.extend(self.theta.parameters());
        ps
    }

    /// Static shape plan mirroring [`JointWeightBranch::forward`].
    pub fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, OpCost, Plan, SymShape};
        let mut p = Plan::new(input);
        let op_v = self.importance.shape()[0];
        if let Some(v) = input.known(3) {
            if v != op_v {
                p.error(
                    DiagCode::JointMismatch,
                    format!("operator must be square in V: branch has {op_v} joints, input has {v}"),
                );
                return p;
            }
        }
        // the importance mask weights every frame's operator first
        let ops_shape = SymShape::batched(&[input.known(2).unwrap_or(1), op_v, op_v]);
        plan_vertex_mix(
            &mut p,
            "dynamic_vertex_op",
            "per-frame Eq. 9 operators",
            MixOperator::PerFrame,
            OpCost::elementwise(&ops_shape),
        );
        p.extend("theta", self.theta.plan(&p.output().clone()));
        p
    }
}

/// Branch 3 — dynamic topology (§3.4): embed features with an FC layer
/// (Eq. 10, realised as a pointwise convolution over joints), construct
/// `k_n`-NN and `k_m`-means hyperedges in the embedded space, and convolve
/// with the resulting per-sample (or per-frame) hypergraph operator.
///
/// Gradients reach the embedding `W_map` through the convolved features;
/// the discrete hyperedge selection itself is treated as constant, as any
/// k-NN/k-means construction must be.
pub struct TopologyBranch {
    embed: Conv2d,
    importance: Tensor,
    /// The end-to-end learned topology refinement (§3.4 trains the
    /// dynamic topology "in an end-to-end manner"): an additive `[V, V]`
    /// matrix complementing the discrete k-NN/k-means construction, in the
    /// spirit of 2s-AGCN's learned `B`. Initialised to zeros.
    learned: Tensor,
    theta: Conv2d,
    kn: usize,
    km: usize,
    granularity: TopologyGranularity,
    embed_channels: usize,
    seed: u64,
}

impl TopologyBranch {
    /// Build the branch. `kn`/`km` are the Tab. 3 hyper-parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        embed_channels: usize,
        n_joints: usize,
        kn: usize,
        km: usize,
        granularity: TopologyGranularity,
        seed: u64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kn >= 1 && km >= 1, "k_n and k_m must be positive");
        TopologyBranch {
            embed: Conv2d::pointwise(in_channels, embed_channels, rng),
            importance: Tensor::param(NdArray::ones(&[n_joints, n_joints])),
            learned: Tensor::param(NdArray::zeros(&[n_joints, n_joints])),
            theta: Conv2d::pointwise(embed_channels, out_channels, rng),
            kn,
            km,
            granularity,
            embed_channels,
            seed,
        }
    }

    /// The `(k_n, k_m)` pair.
    pub fn ks(&self) -> (usize, usize) {
        (self.kn, self.km)
    }

    /// Forward `[N, C, T, V] → [N, C_out, T, V]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        // Eq. 10: X_new = σ(W_map · f_in)
        let embedded = self.embed.forward(x).relu();
        debug_assert_eq!(embedded.shape()[1], self.embed_channels);
        // coordinates for topology construction: detached embedded features
        let stacked = {
            let feats = embedded.data().permute(&[0, 2, 3, 1]); // [N, T, V, E]
            let config = TopologyConfig::new(self.kn, self.km, self.seed);
            stacked_operators(&feats, self.granularity, &config)
        };
        let op = Tensor::constant(stacked).mul(&self.importance).add(&self.learned);
        let mixed = match self.granularity {
            TopologyGranularity::PerSample => apply_per_sample_vertex_op(&embedded, &op),
            TopologyGranularity::PerFrame => apply_dynamic_vertex_op(&embedded, &op),
        };
        drop((embedded, op));
        self.theta.forward(&mixed)
    }

    /// Trainable parameters (`W_map`, M, B and Θ).
    pub fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.embed.parameters();
        ps.push(self.importance.clone());
        ps.push(self.learned.clone());
        ps.extend(self.theta.parameters());
        ps
    }

    /// Static shape plan mirroring [`TopologyBranch::forward`].
    pub fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, OpCost, Plan};
        let mut p = Plan::new(input);
        let op_v = self.importance.shape()[0];
        if let Some(v) = input.known(3) {
            if v != op_v {
                p.error(
                    DiagCode::JointMismatch,
                    format!("operator must be square in V: branch has {op_v} joints, input has {v}"),
                );
                return p;
            }
        }
        p.extend("embed", self.embed.plan(input));
        if p.has_errors() {
            return p;
        }
        p.push_op("relu", "", p.output().clone());
        let (mode, operator) = match self.granularity {
            TopologyGranularity::PerSample => ("per-sample", MixOperator::PerSample),
            TopologyGranularity::PerFrame => ("per-frame", MixOperator::PerFrame),
        };
        plan_vertex_mix(
            &mut p,
            "topology_vertex_op",
            format!("{mode} k-NN(k={}) + k-means(k={}) hyperedges", self.kn, self.km),
            operator,
            OpCost::default(),
        );
        p.extend("theta", self.theta.plan(&p.output().clone()));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::StaticBranch;
    use dhg_skeleton::{static_hypergraph, SkeletonTopology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn static_branch_shapes_and_grads() {
        let mut r = rng();
        let op = static_hypergraph(&SkeletonTopology::ntu25()).operator();
        let b = StaticBranch::new(op, 3, 8, &mut r);
        let x = Tensor::param(NdArray::ones(&[2, 3, 4, 25]));
        let y = b.forward(&x);
        assert_eq!(y.shape(), vec![2, 8, 4, 25]);
        y.square().sum_all().backward();
        assert!(x.grad().is_some());
        assert!(b.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn joint_weight_branch_uses_per_frame_operators() {
        let mut r = rng();
        let b = JointWeightBranch::new(3, 4, 5, &mut r);
        let x = Tensor::constant(NdArray::ones(&[1, 3, 2, 5]));
        // frame 0: identity, frame 1: zero operator
        let id = NdArray::eye(5).reshape(&[1, 1, 5, 5]);
        let zero = NdArray::zeros(&[1, 1, 5, 5]);
        let ops = Tensor::constant(NdArray::concat(&[&id, &zero], 1));
        let y = b.forward(&x, &ops).array();
        // frame 1 saw a zero operator, so only the bias survives there;
        // frame 0 differs from frame 1 unless the conv is degenerate
        let f0 = y.slice_axis(2, 0, 1);
        let f1 = y.slice_axis(2, 1, 1);
        assert!(!f0.allclose(&f1, 1e-5, 1e-5));
    }

    #[test]
    fn topology_branch_per_sample_forward() {
        let mut r = rng();
        let b = TopologyBranch::new(3, 8, 4, 25, 3, 4, TopologyGranularity::PerSample, 7, &mut r);
        let x = Tensor::param(NdArray::from_vec(
            (0..2 * 3 * 4 * 25).map(|i| (i as f32 * 0.13).sin()).collect(),
            &[2, 3, 4, 25],
        ));
        let y = b.forward(&x);
        assert_eq!(y.shape(), vec![2, 8, 4, 25]);
        y.square().sum_all().backward();
        // the FC embedding W_map must receive gradients (end-to-end, §3.4)
        assert!(b.parameters().iter().all(|p| p.grad().is_some()));
        assert!(x.grad().is_some());
    }

    #[test]
    fn topology_branch_per_frame_forward() {
        let mut r = rng();
        let b = TopologyBranch::new(3, 6, 4, 10, 2, 3, TopologyGranularity::PerFrame, 7, &mut r);
        let x = Tensor::constant(NdArray::from_vec(
            (0..3 * 3 * 10).map(|i| (i as f32 * 0.31).cos()).collect(),
            &[1, 3, 3, 10],
        ));
        let y = b.forward(&x);
        assert_eq!(y.shape(), vec![1, 6, 3, 10]);
        assert!(y.array().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ks_accessor() {
        let mut r = rng();
        let b = TopologyBranch::new(3, 4, 4, 25, 3, 4, TopologyGranularity::PerSample, 0, &mut r);
        assert_eq!(b.ks(), (3, 4));
    }
}
