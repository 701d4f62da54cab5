//! Shared machinery of every spatial (hyper)graph convolution.

use dhg_nn::{Conv2d, Module};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// The geometry every model in the zoo is built for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelDims {
    /// Input channels (3 coordinates).
    pub in_channels: usize,
    /// Number of joints `V`.
    pub n_joints: usize,
    /// Number of action classes.
    pub n_classes: usize,
}

/// One backbone stage: output channel width and temporal stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Output channels of the stage.
    pub channels: usize,
    /// Temporal stride (2 halves the frame count).
    pub stride: usize,
}

impl StageSpec {
    /// Convenience constructor.
    pub fn new(channels: usize, stride: usize) -> Self {
        StageSpec { channels, stride }
    }
}

/// The paper's 10-block backbone widths (Fig. 5, following ST-GCN:
/// 64×4, 128×3 with a stride-2 entry, 256×3 with a stride-2 entry).
pub fn paper_stages() -> Vec<StageSpec> {
    vec![
        StageSpec::new(64, 1),
        StageSpec::new(64, 1),
        StageSpec::new(64, 1),
        StageSpec::new(64, 1),
        StageSpec::new(128, 2),
        StageSpec::new(128, 1),
        StageSpec::new(128, 1),
        StageSpec::new(256, 2),
        StageSpec::new(256, 1),
        StageSpec::new(256, 1),
    ]
}

/// A width/depth-scaled backbone for CPU experiments (see DESIGN.md's
/// scaling substitution). Identical topology, fewer blocks and channels.
pub fn small_stages() -> Vec<StageSpec> {
    vec![StageSpec::new(16, 1), StageSpec::new(16, 1), StageSpec::new(32, 2)]
}

/// Apply a static vertex operator to features:
/// `y[n,c,t,v] = Σ_u op[v,u] · x[n,c,t,u]`.
///
/// `x` is `[N, C, T, V]`, `op` is `[V, V]` (e.g. a normalised adjacency,
/// Eq. 1, or a hypergraph operator, Eq. 5). With gradients enabled this
/// is a broadcast batched matmul on the joint axis, so the gradient comes
/// from the tested matmul adjoints; under `no_grad` it is one grad-free
/// product: the features read in place as `[N, C·T, V]` rows times `opᵀ`.
pub fn apply_vertex_op(x: &Tensor, op: &Tensor) -> Tensor {
    let xs = x.shape();
    assert_eq!(xs.len(), 4, "features must be [N, C, T, V]");
    let v = xs[3];
    assert_eq!(op.shape(), vec![v, v], "operator must be [V, V]");
    if !dhg_tensor::is_grad_enabled() {
        return mix_in_place(x, op);
    }
    // y = x @ opᵀ over the trailing joint axis
    x.matmul(&op.transpose_last2())
}

/// Apply a per-sample, per-frame vertex operator:
/// `y[n,c,t,v] = Σ_u op[n,t,v,u] · x[n,c,t,u]`.
///
/// `x` is `[N, C, T, V]`, `op` is `[N, T, V, V]` (the dynamic operators of
/// Eq. 9 or the dynamic topology of §3.4). The feature tensor is permuted
/// so that the batched matmul batches over `(N, T)`; under `no_grad` each
/// frame's `[C, V]` rows take one packed product against its operator
/// read transposed where it lies.
pub fn apply_dynamic_vertex_op(x: &Tensor, op: &Tensor) -> Tensor {
    let xs = x.shape();
    let os = op.shape();
    assert_eq!(xs.len(), 4, "features must be [N, C, T, V]");
    assert_eq!(os.len(), 4, "operator must be [N, T, V, V]");
    assert_eq!(os[0], xs[0], "batch mismatch");
    assert_eq!(os[1], xs[2], "frame mismatch");
    assert_eq!(os[2], xs[3], "operator must be square in V");
    assert_eq!(os[3], xs[3], "operator must be square in V");
    if !dhg_tensor::is_grad_enabled() {
        // [N, C, T, V] → [N, T, C, V] · opᵀ → back
        let rows = x.data().permute(&[0, 2, 1, 3]);
        let y = rows.view().matmul_packed(op.data().view().t());
        drop(rows);
        return Tensor::constant(y.permute(&[0, 2, 1, 3]));
    }
    // [N, C, T, V] → [N, T, V, C]; op [N,T,V,V] @ x' → [N, T, V, C] → back
    let xp = x.permute(&[0, 2, 3, 1]);
    let yp = op.matmul(&xp);
    yp.permute(&[0, 3, 1, 2])
}

/// The grad-free shared or per-sample vertex mix: the features read in
/// place as `[N, C·T, V]` rows times `opᵀ`, with `op` (`[V, V]` or
/// `[N, V, V]`) read transposed where it lies — one product, no permute.
///
/// Like every grad-free product with activations on the left, it pins
/// the packed kernel: the automatic dispatch's density probe over a whole
/// micro-batch could otherwise switch kernels, and a request's bits, when
/// a ReLU-sparse or all-zero neighbour shares the batch.
fn mix_in_place(x: &Tensor, op: &Tensor) -> Tensor {
    let (xd, od) = (x.data(), op.data());
    let s = xd.shape();
    let rows = [s[0], s[1] * s[2], s[3]];
    let y = xd.view_as(&rows).matmul_packed(od.view().t());
    Tensor::constant(y.into_shape(s))
}

/// Operator granularity of a vertex mix, as its plan records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MixOperator {
    /// One `[V, V]` operator for the whole batch ([`apply_vertex_op`]).
    Shared,
    /// `[N, V, V]` ([`apply_per_sample_vertex_op`]).
    PerSample,
    /// `[N, T, V, V]` ([`apply_dynamic_vertex_op`]).
    PerFrame,
}

/// Record a vertex mix of the plan's current `[N, C, T, V]` output as op
/// `name`, costed as [`dhg_nn::OpCost::vertex_op`] over the `operator`'s
/// distinct `[V, V]` blocks per sample plus `extra` (work done on the
/// operators themselves); its scratch is the packed images of those
/// blocks.
pub(crate) fn plan_vertex_mix(
    p: &mut dhg_nn::Plan,
    name: &str,
    detail: impl Into<String>,
    operator: MixOperator,
    extra: dhg_nn::OpCost,
) {
    let shape = p.output().clone();
    let dim = |d: usize| shape.known(d).unwrap_or(1) as u64;
    let (c, t, v) = (dim(1), dim(2), dim(3));
    let blocks = match operator {
        MixOperator::PerFrame => t,
        MixOperator::Shared | MixOperator::PerSample => 1,
    };
    let cost = dhg_nn::OpCost::vertex_op(c, t, v, blocks)
        .plus(extra)
        .with_scratch(blocks * dhg_nn::packed_b_bytes(v, v));
    p.push_op_costed(name, detail, shape, cost);
}

/// Record an error on `p` for every incidence invariant the static
/// hypergraph `hg` breaks: a model convolving with it would compute
/// garbage operators in every block.
pub(crate) fn plan_static_hypergraph(p: &mut dhg_nn::Plan, hg: &dhg_hypergraph::Hypergraph) {
    use dhg_hypergraph::IncidenceIssue;
    use dhg_nn::DiagCode;
    for issue in dhg_hypergraph::validate_hypergraph(hg) {
        let code = match issue {
            IncidenceIssue::EmptyEdge { .. } => DiagCode::IncidenceEmptyEdge,
            IncidenceIssue::UncoveredVertex { .. } => DiagCode::IncidenceUncoveredVertex,
            IncidenceIssue::NotBinary { .. } => DiagCode::IncidenceNotBinary,
            IncidenceIssue::ImpNotNormalized { .. } | IncidenceIssue::ImpOutsideSupport { .. } => {
                DiagCode::ImpNotNormalized
            }
            IncidenceIssue::SingularVertexDegree { .. }
            | IncidenceIssue::SingularEdgeDegree { .. } => DiagCode::DegreeSingular,
        };
        p.error(code, format!("static hypergraph: {issue}"));
    }
}

/// A static spatial convolution: a fixed `[V, V]` operator modulated by
/// ST-GCN's learnable edge-importance mask `M` (applied elementwise,
/// initialised to ones), followed by a pointwise Θ. It is ST-GCN's spatial
/// part over the normalised adjacency (Eq. 1) and DHGCN's branch 1 over
/// the static hypergraph operator (Eq. 5). Deliberately *not* adaptive
/// beyond `M`: DHGCN's dynamic branches own all sample-dependent and
/// learned topology (§3.3–3.4), which is what the Tab. 4 ablation
/// isolates.
pub struct StaticBranch {
    op: Tensor,
    importance: Tensor,
    theta: Conv2d,
}

impl StaticBranch {
    /// Build from a precomputed static operator.
    pub fn new(op: NdArray, in_channels: usize, out_channels: usize, rng: &mut impl Rng) -> Self {
        let v = op.shape()[0];
        StaticBranch {
            op: Tensor::constant(op),
            importance: Tensor::param(NdArray::ones(&[v, v])),
            theta: Conv2d::pointwise(in_channels, out_channels, rng),
        }
    }

    /// Forward `[N, C, T, V] → [N, C_out, T, V]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let weighted = self.op.mul(&self.importance);
        self.theta.forward(&apply_vertex_op(x, &weighted))
    }

    /// Trainable parameters (M and Θ).
    pub fn parameters(&self) -> Vec<Tensor> {
        let mut ps = vec![self.importance.clone()];
        ps.extend(self.theta.parameters());
        ps
    }

    /// Static shape plan mirroring [`StaticBranch::forward`].
    pub fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, OpCost, Plan};
        let mut p = Plan::new(input);
        let op_v = self.op.shape()[0];
        if let Some(v) = input.known(3) {
            if v != op_v {
                p.error(
                    DiagCode::JointMismatch,
                    format!("operator must be [V, V]: operator has {op_v} joints, input has {v}"),
                );
                return p;
            }
        }
        plan_vertex_mix(
            &mut p,
            "vertex_op",
            format!("importance-weighted [{op_v}, {op_v}] operator"),
            MixOperator::Shared,
            OpCost::default(),
        );
        p.extend("theta", self.theta.plan(&p.output().clone()));
        p
    }
}

/// Input data normalisation as published for the ST-GCN family: batch
/// norm over `C·V` joint-channels, so every joint's coordinate
/// distribution is standardised separately. Normalising only over the 3
/// coordinate channels would leave each joint's large static offset in
/// place and drown the motion signal.
pub struct DataBn {
    bn: dhg_nn::BatchNorm2d,
    channels: usize,
    joints: usize,
}

impl DataBn {
    /// Build for `[N, channels, T, joints]` inputs.
    pub fn new(channels: usize, joints: usize) -> Self {
        DataBn { bn: dhg_nn::BatchNorm2d::new(channels * joints), channels, joints }
    }

    /// Whether the inner BatchNorm is in training mode.
    pub fn training(&self) -> bool {
        self.bn.training()
    }

    /// Whether the inner BatchNorm's running statistics are untouched
    /// (see [`dhg_nn::BatchNorm2d::stats_cold`]).
    pub fn stats_cold(&self) -> bool {
        self.bn.stats_cold()
    }
}

impl dhg_nn::Module for DataBn {
    fn forward(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "DataBn expects [N, C, T, V]");
        assert_eq!(s[1], self.channels, "DataBn channel mismatch");
        assert_eq!(s[3], self.joints, "DataBn joint mismatch");
        let (n, c, t, v) = (s[0], s[1], s[2], s[3]);
        if !self.bn.training() {
            // folded channel c·V + v normalises coordinate c of joint v,
            // so the eval affine applies to [N, C, T, V] as it lies
            let (rm, rv) = (self.bn.running_mean(), self.bn.running_var());
            return x.batch_norm_eval(self.bn.gamma(), self.bn.beta(), &rm, &rv, self.bn.eps());
        }
        // [N, C, T, V] → [N, C·V, T, 1] → BN → back
        let folded = x.permute(&[0, 1, 3, 2]).reshape(&[n, c * v, t, 1]);
        let normed = self.bn.forward(&folded);
        normed.reshape(&[n, c, v, t]).permute(&[0, 1, 3, 2])
    }

    fn parameters(&self) -> Vec<Tensor> {
        self.bn.parameters()
    }

    fn buffers(&self) -> Vec<dhg_nn::Buffer> {
        self.bn.buffers()
    }

    fn set_training(&mut self, training: bool) {
        self.bn.set_training(training);
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{DiagCode, Plan};
        let mut p = Plan::new(input);
        if input.rank() != 4 {
            p.error(
                DiagCode::RankMismatch,
                format!("DataBn expects [N, C, T, V], got rank {} {input}", input.rank()),
            );
            return p;
        }
        if let Some(c) = input.known(1) {
            if c != self.channels {
                p.error(
                    DiagCode::ChannelMismatch,
                    format!("DataBn channel mismatch: expected {}, got {c}", self.channels),
                );
                return p;
            }
        }
        if let Some(v) = input.known(3) {
            if v != self.joints {
                p.error(
                    DiagCode::JointMismatch,
                    format!("DataBn joint mismatch: expected {}, got {v}", self.joints),
                );
                return p;
            }
        }
        p.push_op(
            "databn",
            format!("BN over {}x{} joint-channels", self.channels, self.joints),
            input.clone(),
        );
        if !self.bn.training() && self.bn.stats_cold() {
            p.warn(
                DiagCode::BnStatsCold,
                "eval-mode DataBn with untouched running statistics (mean=0, var=1)",
            );
        }
        p
    }
}

/// Apply a per-sample vertex operator:
/// `y[n,c,t,v] = Σ_u op[n,v,u] · x[n,c,t,u]`.
///
/// `x` is `[N, C, T, V]`, `op` is `[N, V, V]` (e.g. 2s-AGCN's adaptive
/// `A + B + C` operator, which varies per sample but not per frame).
/// Under `no_grad` it is one grad-free product with no permute.
pub fn apply_per_sample_vertex_op(x: &Tensor, op: &Tensor) -> Tensor {
    let xs = x.shape();
    let os = op.shape();
    assert_eq!(xs.len(), 4, "features must be [N, C, T, V]");
    assert_eq!(os.len(), 3, "operator must be [N, V, V]");
    assert_eq!(os[0], xs[0], "batch mismatch");
    assert_eq!(os[1], xs[3], "operator must be square in V");
    assert_eq!(os[2], xs[3], "operator must be square in V");
    if !dhg_tensor::is_grad_enabled() {
        return mix_in_place(x, op);
    }
    let (n, v) = (xs[0], xs[3]);
    let xp = x.permute(&[0, 2, 3, 1]); // [N, T, V, C]
    let opb = op.reshape(&[n, 1, v, v]); // broadcast over T
    opb.matmul(&xp).permute(&[0, 3, 1, 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_tensor::NdArray;

    #[test]
    fn static_op_identity_is_noop() {
        let x = Tensor::constant(NdArray::from_vec((0..24).map(|i| i as f32).collect(), &[1, 2, 3, 4]));
        let op = Tensor::constant(NdArray::eye(4));
        let y = apply_vertex_op(&x, &op);
        assert_eq!(y.array(), x.array());
    }

    #[test]
    fn static_op_mixes_joints_not_time() {
        // operator that swaps joints 0 and 1 of a 2-joint skeleton
        let op = Tensor::constant(NdArray::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]));
        let x = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        let y = apply_vertex_op(&x, &op).array();
        // frames keep their place, joints swap within each frame
        assert_eq!(y.data(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn dynamic_op_matches_static_when_constant() {
        let v = 3;
        let opm = NdArray::from_vec(
            vec![0.5, 0.5, 0.0, 0.0, 1.0, 0.0, 0.2, 0.3, 0.5],
            &[v, v],
        );
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 2 * 2 * v).map(|i| (i as f32 * 0.3).sin()).collect(),
            &[2, 2, 2, v],
        ));
        // tile the static op over N=2, T=2
        let tiled = {
            let r = opm.reshape(&[1, 1, v, v]);
            let refs = [&r, &r];
            let row = NdArray::concat(&refs, 1);
            let rrefs = [&row, &row];
            NdArray::concat(&rrefs, 0)
        };
        let a = apply_vertex_op(&x, &Tensor::constant(opm)).array();
        let b = apply_dynamic_vertex_op(&x, &Tensor::constant(tiled)).array();
        assert!(a.allclose(&b, 1e-5, 1e-6));
    }

    #[test]
    fn dynamic_op_varies_per_frame() {
        // frame 0: identity; frame 1: all-mass-on-joint-0
        let id = NdArray::eye(2).reshape(&[1, 1, 2, 2]);
        let collapse = NdArray::from_vec(vec![1.0, 1.0, 0.0, 0.0], &[2, 2]).reshape(&[1, 1, 2, 2]);
        let op = NdArray::concat(&[&id, &collapse], 1);
        let x = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        let y = apply_dynamic_vertex_op(&x, &Tensor::constant(op)).array();
        // frame 0 unchanged, frame 1: joint 0 = 3+4, joint 1 = 0
        assert_eq!(y.data(), &[1.0, 2.0, 7.0, 0.0]);
    }

    #[test]
    fn grad_free_mixes_match_the_recorded_mixes() {
        let (n, c, t, v) = (2, 3, 4, 5);
        let x = NdArray::from_vec(
            (0..n * c * t * v).map(|i| (i as f32 * 0.17).sin()).collect(),
            &[n, c, t, v],
        );
        let op = NdArray::from_vec((0..v * v).map(|i| (i as f32 * 0.3).cos()).collect(), &[v, v]);
        let ops = NdArray::from_vec(
            (0..n * v * v).map(|i| (i as f32 * 0.11).sin()).collect(),
            &[n, v, v],
        );
        let dops = NdArray::from_vec(
            (0..n * t * v * v).map(|i| (i as f32 * 0.07).cos()).collect(),
            &[n, t, v, v],
        );
        for ((kind, mix), op) in MIXES.into_iter().zip([op, ops, dops]) {
            let (xt, ot) = (Tensor::param(x.clone()), Tensor::constant(op.clone()));
            let recorded = mix(&xt, &ot);
            assert!(recorded.requires_grad(), "{kind}: grad mode records the graph");
            let free = grad_free(mix, &x, &op);
            assert!(recorded.array().allclose(&free, 1e-5, 1e-6), "{kind} mix");
        }
    }

    /// Deterministic values in `[lo, hi)` (an LCG, so the suite needs no RNG).
    fn fill(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                lo + (hi - lo) * ((s >> 40) as f32 / (1u64 << 24) as f32)
            })
            .collect()
    }

    /// `blocks` row-stochastic `[V, V]` operators, like the normalised
    /// hypergraph operators the models mix with.
    fn stochastic_ops(seed: u64, blocks: usize, v: usize) -> Vec<f32> {
        let mut d = fill(seed, blocks * v * v, 0.0, 1.0);
        for row in d.chunks_mut(v) {
            let sum: f32 = row.iter().sum();
            row.iter_mut().for_each(|w| *w /= sum);
        }
        d
    }

    /// The three vertex mixes, named by operator granularity.
    type Mix = fn(&Tensor, &Tensor) -> Tensor;
    const MIXES: [(&str, Mix); 3] = [
        ("static", apply_vertex_op),
        ("per-sample", apply_per_sample_vertex_op),
        ("per-frame", apply_dynamic_vertex_op),
    ];

    /// `mix` under `no_grad`, on raw arrays.
    fn grad_free(mix: Mix, x: &NdArray, op: &NdArray) -> NdArray {
        let _g = dhg_tensor::no_grad();
        mix(&Tensor::constant(x.clone()), &Tensor::constant(op.clone())).array()
    }

    fn op_for(kind: &str, seed: u64, n: usize, t: usize, v: usize) -> NdArray {
        match kind {
            "static" => NdArray::from_vec(stochastic_ops(seed, 1, v), &[v, v]),
            "per-sample" => NdArray::from_vec(stochastic_ops(seed, n, v), &[n, v, v]),
            _ => NdArray::from_vec(stochastic_ops(seed, n * t, v), &[n, t, v, v]),
        }
    }

    /// `y[n,c,t,v] = Σ_u op[.., v, u] · x[n,c,t,u]` straight from the
    /// index formula, accumulated in f64.
    fn naive_mix(kind: &str, x: &NdArray, op: &NdArray) -> NdArray {
        let s = x.shape();
        let (n, c, t, v) = (s[0], s[1], s[2], s[3]);
        let block = |ni: usize, ti: usize| match kind {
            "static" => 0,
            "per-sample" => ni * v * v,
            _ => (ni * t + ti) * v * v,
        };
        let (xd, od) = (x.data(), op.data());
        let mut y = vec![0.0f32; x.len()];
        for ni in 0..n {
            for ci in 0..c {
                for ti in 0..t {
                    let row = ((ni * c + ci) * t + ti) * v;
                    for vi in 0..v {
                        let acc: f64 = (0..v)
                            .map(|u| od[block(ni, ti) + vi * v + u] as f64 * xd[row + u] as f64)
                            .sum();
                        y[row + vi] = acc as f32;
                    }
                }
            }
        }
        NdArray::from_vec(y, s)
    }

    fn bits(a: &NdArray) -> Vec<u32> {
        a.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn grad_free_mixes_match_the_index_formula() {
        let mut seed = 0;
        for v in [18, 25] {
            for c in [3, 24, 48] {
                for t in [1, 7, 32] {
                    for n in [1, 3] {
                        seed += 1;
                        let x = NdArray::from_vec(fill(seed, n * c * t * v, -1.0, 1.0), &[n, c, t, v]);
                        for (kind, mix) in MIXES {
                            let op = op_for(kind, seed + 1000, n, t, v);
                            let got = grad_free(mix, &x, &op);
                            let want = naive_mix(kind, &x, &op);
                            assert!(
                                got.allclose(&want, 1e-5, 1e-6),
                                "{kind} mix diverged at [N={n}, C={c}, T={t}, V={v}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grad_free_mix_rows_are_bitwise_batch_invariant_beside_sparse_neighbours() {
        // A sample's rows must carry the same bits alone and inside a batch
        // whose other samples are ReLU-sparse (7 of 8 values zero): a
        // density-probed dispatch over the whole batch would see a mostly
        // zero operand and switch kernels for the batch but not the solo run.
        let (c, t, v) = (24, 7, 25);
        let per = c * t * v;
        let dense = fill(11, per, -1.0, 1.0);
        let sparse = |seed| -> Vec<f32> {
            let mut d = fill(seed, per, 0.0, 1.0);
            d.iter_mut().enumerate().filter(|(i, _)| i % 8 != 0).for_each(|(_, w)| *w = 0.0);
            d
        };
        let batch: Vec<f32> = [sparse(12), dense.clone(), sparse(13)].concat();
        let alone = NdArray::from_vec(dense, &[1, c, t, v]);
        let batch = NdArray::from_vec(batch, &[3, c, t, v]);
        for (kind, mix) in MIXES {
            let op3 = op_for(kind, 21, 3, t, v);
            // sample 1's own operator, cut out of the batch operator
            let op1 = if kind == "static" { op3.clone() } else { op3.slice_axis(0, 1, 1) };
            let solo = grad_free(mix, &alone, &op1);
            let batched = grad_free(mix, &batch, &op3);
            assert_eq!(
                bits(&solo),
                bits(&batched.slice_axis(0, 1, 1)),
                "{kind} mix: a sample's bits changed with its batch neighbours"
            );
        }
    }

    #[test]
    fn grad_free_mixes_are_bitwise_identical_across_thread_counts() {
        let (n, c, t, v) = (3, 48, 32, 25);
        let x = NdArray::from_vec(fill(5, n * c * t * v, -1.0, 1.0), &[n, c, t, v]);
        for (kind, mix) in MIXES {
            let op = op_for(kind, 6, n, t, v);
            let run = |threads| {
                dhg_tensor::parallel::with_threads(threads, || bits(&grad_free(mix, &x, &op)))
            };
            let reference = run(1);
            for threads in [2, 8] {
                assert_eq!(run(threads), reference, "{kind} mix differs at {threads} threads");
            }
        }
    }

    #[test]
    fn databn_eval_matches_the_folded_layout_bitwise() {
        use dhg_nn::Module;
        let mut bn = DataBn::new(2, 3);
        // warm the running stats with a few training batches
        for i in 0..4 {
            let x = Tensor::constant(NdArray::from_vec(
                (0..4 * 2 * 5 * 3).map(|j| ((i * 31 + j) as f32 * 0.13).sin() * 2.0).collect(),
                &[4, 2, 5, 3],
            ));
            bn.forward(&x);
        }
        bn.set_training(false);
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 2 * 6 * 3).map(|j| (j as f32 * 0.19).cos()).collect(),
            &[2, 2, 6, 3],
        ));
        // the training layout: [N, C·V, T, 1] through the inner eval BN
        let folded = x.permute(&[0, 1, 3, 2]).reshape(&[2, 6, 6, 1]);
        let reference = bn.bn.forward(&folded).reshape(&[2, 2, 3, 6]).permute(&[0, 1, 3, 2]).array();
        let _g = dhg_tensor::no_grad();
        assert_eq!(bits(&bn.forward(&x).array()), bits(&reference));
    }

    #[test]
    fn vertex_mix_plans_price_each_operator_once() {
        use dhg_nn::{packed_b_bytes, OpCost, Plan, SymShape};
        let (c, t, v) = (16u64, 8u64, 25u64);
        let features = 4 * 2 * c * t * v; // read and written
        for (operator, blocks) in
            [(MixOperator::Shared, 1), (MixOperator::PerSample, 1), (MixOperator::PerFrame, t)]
        {
            let mut p = Plan::new(&SymShape::nctv(c as usize, t as usize, v as usize));
            plan_vertex_mix(&mut p, "mix", "", operator, OpCost::default());
            let cost = p.ops()[0].cost;
            assert_eq!(cost.bytes, features + 4 * blocks * v * v, "{operator:?}");
            assert_eq!(cost.flops, 2 * c * t * v * v, "{operator:?}");
            assert_eq!(cost.scratch, blocks * packed_b_bytes(v, v), "{operator:?}");
        }
    }

    #[test]
    fn gradients_flow_through_both_paths() {
        let x = Tensor::param(NdArray::ones(&[1, 2, 2, 3]));
        let op = Tensor::param(NdArray::eye(3));
        apply_vertex_op(&x, &op).square().sum_all().backward();
        assert!(x.grad().is_some() && op.grad().is_some());

        let x2 = Tensor::param(NdArray::ones(&[1, 2, 2, 3]));
        let dop = Tensor::param(NdArray::ones(&[1, 2, 3, 3]));
        apply_dynamic_vertex_op(&x2, &dop).square().sum_all().backward();
        assert!(x2.grad().is_some() && dop.grad().is_some());
    }
}
