//! Shared machinery of every spatial (hyper)graph convolution.

use dhg_nn::{Conv2d, EvalConv, Module};
use dhg_tensor::{parallel, NdArray, Tensor, Workspace};
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
/// Eq. 1, or a hypergraph operator, Eq. 5). Implemented as a broadcast
/// batched matmul on the joint axis so the gradient comes from the tested
/// matmul adjoints.
pub fn apply_vertex_op(x: &Tensor, op: &Tensor) -> Tensor {
    let xs = x.shape();
    assert_eq!(xs.len(), 4, "features must be [N, C, T, V]");
    let v = xs[3];
    assert_eq!(op.shape(), vec![v, v], "operator must be [V, V]");
    // y = x @ opᵀ over the trailing joint axis
    x.matmul(&op.transpose_last2())
}

/// Apply a per-sample, per-frame vertex operator:
/// `y[n,c,t,v] = Σ_u op[n,t,v,u] · x[n,c,t,u]`.
///
/// `x` is `[N, C, T, V]`, `op` is `[N, T, V, V]` (the dynamic operators of
/// Eq. 9 or the dynamic topology of §3.4). The feature tensor is permuted
/// so that the batched matmul batches over `(N, T)`.
pub fn apply_dynamic_vertex_op(x: &Tensor, op: &Tensor) -> Tensor {
    let xs = x.shape();
    let os = op.shape();
    assert_eq!(xs.len(), 4, "features must be [N, C, T, V]");
    assert_eq!(os.len(), 4, "operator must be [N, T, V, V]");
    assert_eq!(os[0], xs[0], "batch mismatch");
    assert_eq!(os[1], xs[2], "frame mismatch");
    assert_eq!(os[2], xs[3], "operator must be square in V");
    assert_eq!(os[3], xs[3], "operator must be square in V");
    // [N, C, T, V] → [N, T, V, C]; op [N,T,V,V] @ x' → [N, T, V, C] → back
    let xp = x.permute(&[0, 2, 3, 1]);
    let yp = op.matmul(&xp);
    yp.permute(&[0, 3, 1, 2])
}

/// The `[.., V, V]` operator blocks of `op`, each transposed, in a
/// workspace buffer: the right-hand operand of the grad-free vertex mixes,
/// which all compute `y = x · opᵀ` on the packed GEMM. Each distinct
/// operator is transposed (and then packed) once per call.
fn transposed_blocks(op: &NdArray, ws: &mut Workspace) -> NdArray {
    let nd = op.ndim();
    let mut perm: Vec<usize> = (0..nd).collect();
    perm.swap(nd - 2, nd - 1);
    op.permute_ws(&perm, ws)
}

/// Grad-free [`apply_vertex_op`]: shared `[V, V]` operator on raw arrays,
/// one `[N·C·T, V] × [V, V]` product.
///
/// Like every vertex mix, this forces the packed kernel: the features are
/// the GEMM's left operand, and the automatic dispatch's density probe
/// over a whole micro-batch could otherwise switch kernels — and a
/// request's bits — when a ReLU-sparse neighbour shares the batch.
pub fn apply_vertex_op_eval(x: &NdArray, op: &NdArray, ws: &mut Workspace) -> NdArray {
    let s = x.shape();
    let v = s[3];
    assert_eq!(op.shape(), &[v, v], "operator must be [V, V]");
    let op_t = transposed_blocks(op, ws);
    let rows = [s[0] * s[1] * s[2], v];
    let y = x.view_as(&rows).matmul_packed_ws(op_t.view(), ws);
    ws.recycle(op_t);
    y.into_shape(s)
}

/// Grad-free [`apply_per_sample_vertex_op`]: `op` is `[N, V, V]`; one
/// `[C·T, V] × [V, V]` product per sample.
pub fn apply_per_sample_vertex_op_eval(x: &NdArray, op: &NdArray, ws: &mut Workspace) -> NdArray {
    let s = x.shape();
    let (n, v) = (s[0], s[3]);
    assert_eq!(op.shape(), &[n, v, v], "operator must be [N, V, V]");
    let op_t = transposed_blocks(op, ws);
    let rows = [n, s[1] * s[2], v];
    let y = x.view_as(&rows).matmul_packed_ws(op_t.view(), ws);
    ws.recycle(op_t);
    y.into_shape(s)
}

/// Grad-free [`apply_dynamic_vertex_op`]: `op` is `[N, T, V, V]`. The
/// features are gathered to `[N, T, C, V]` so each frame's rows are one
/// `[C, V] × [V, V]` product, and the result is scattered back.
pub fn apply_dynamic_vertex_op_eval(x: &NdArray, op: &NdArray, ws: &mut Workspace) -> NdArray {
    let s = x.shape();
    let (n, t, v) = (s[0], s[2], s[3]);
    assert_eq!(op.shape(), &[n, t, v, v], "operator must be [N, T, V, V]");
    let op_t = transposed_blocks(op, ws);
    let rows = x.permute_ws(&[0, 2, 1, 3], ws);
    let y = rows.matmul_packed_ws(&op_t, ws);
    ws.recycle(rows);
    ws.recycle(op_t);
    let out = y.permute_ws(&[0, 2, 1, 3], ws);
    ws.recycle(y);
    out
}

/// Operator granularity of a grad-free vertex mix, as its plan records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MixOperator {
    /// One `[V, V]` operator for the whole batch ([`apply_vertex_op_eval`]).
    Shared,
    /// `[N, V, V]` ([`apply_per_sample_vertex_op_eval`]).
    PerSample,
    /// `[N, T, V, V]` ([`apply_dynamic_vertex_op_eval`]).
    PerFrame,
}

/// Record a grad-free vertex mix of the plan's current `[N, C, T, V]`
/// output as op `name` with arithmetic `cost`, whose scratch becomes the
/// packed images of the operator blocks.
pub(crate) fn plan_vertex_mix(
    p: &mut dhg_nn::Plan,
    name: &str,
    detail: impl Into<String>,
    operator: MixOperator,
    cost: dhg_nn::OpCost,
) {
    let shape = p.output().clone();
    let v = shape.known(3).unwrap_or(1) as u64;
    let blocks = match operator {
        MixOperator::PerFrame => shape.known(2).unwrap_or(1) as u64,
        MixOperator::Shared | MixOperator::PerSample => 1,
    };
    let cost = cost.with_scratch(blocks * dhg_nn::packed_b_bytes(v, v));
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
        let vcost = OpCost::vertex_op(
            input.known(1).unwrap_or(1) as u64,
            input.known(2).unwrap_or(1) as u64,
            op_v as u64,
        );
        plan_vertex_mix(
            &mut p,
            "vertex_op",
            format!("importance-weighted [{op_v}, {op_v}] operator"),
            MixOperator::Shared,
            vcost,
        );
        p.extend("theta", self.theta.plan(&p.output().clone()));
        p
    }

    /// Bake the branch for serving: the importance-weighted operator is
    /// precomputed once and Θ absorbs the block BN's per-channel affine
    /// `(scale, shift)`.
    pub(crate) fn compile(&self, scale: &[f32], shift: &[f32]) -> StaticBranchEval {
        let op = self.op.data();
        let imp = self.importance.data();
        let weighted: Vec<f32> =
            op.data().iter().zip(imp.data()).map(|(&a, &b)| a * b).collect();
        StaticBranchEval {
            op: NdArray::from_vec(weighted, op.shape()),
            theta: EvalConv::fold_affine(&self.theta, scale, shift),
        }
    }
}

/// Compiled [`StaticBranch`]: cached weighted operator + folded Θ.
pub(crate) struct StaticBranchEval {
    op: NdArray,
    theta: EvalConv,
}

impl StaticBranchEval {
    pub(crate) fn forward(&self, x: &NdArray, ws: &mut Workspace) -> NdArray {
        let mixed = apply_vertex_op_eval(x, &self.op, ws);
        let out = self.theta.forward(&mixed, ws);
        ws.recycle(mixed);
        out
    }
}

/// Grad-free classifier head: `logits = x W (+ b)` on raw arrays, with the
/// matmul output drawn from the workspace. The pooled features are the
/// left operand, so the product is forced onto the packed kernel like the
/// vertex mixes (see [`apply_vertex_op_eval`]).
pub fn linear_eval(fc: &dhg_nn::Linear, x: &NdArray, ws: &mut Workspace) -> NdArray {
    let mut y = x.matmul_packed_ws(&fc.weight().data(), ws);
    if let Some(b) = fc.bias() {
        let bd = b.data();
        let k = bd.data().len();
        for row in y.data_mut().chunks_mut(k) {
            for (l, &bv) in row.iter_mut().zip(bd.data()) {
                *l += bv;
            }
        }
    }
    y
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

    /// Eval-mode DataBn as one per-(channel, joint) affine map. The inner
    /// BN runs over `C·V` folded channels where folded channel `c·V + v`
    /// normalises coordinate `c` of joint `v`, so the affine applies to the
    /// native `[N, C, T, V]` layout directly — no permute, no reshape.
    pub fn eval_affine(&self) -> (Vec<f32>, Vec<f32>) {
        self.bn.eval_affine()
    }

    /// Grad-free eval forward using a precomputed [`DataBn::eval_affine`].
    pub fn forward_affine(
        &self,
        x: &NdArray,
        scale: &[f32],
        shift: &[f32],
        ws: &mut Workspace,
    ) -> NdArray {
        let s = x.shape();
        assert_eq!(s.len(), 4, "DataBn expects [N, C, T, V]");
        assert_eq!(s[1], self.channels, "DataBn channel mismatch");
        assert_eq!(s[3], self.joints, "DataBn joint mismatch");
        let (n, c, t, v) = (s[0], s[1], s[2], s[3]);
        let mut out = ws.take(n * c * t * v);
        let xd = x.data();
        parallel::for_each_block(&mut out, v, n * c * t * v, |item, row| {
            let ci = (item / t) % c;
            let xrow = &xd[item * v..(item + 1) * v];
            for (vi, (o, &xv)) in row.iter_mut().zip(xrow).enumerate() {
                let k = ci * v + vi;
                *o = scale[k] * xv + shift[k];
            }
        });
        NdArray::from_vec(out, &[n, c, t, v])
    }
}

impl dhg_nn::Module for DataBn {
    fn forward(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "DataBn expects [N, C, T, V]");
        assert_eq!(s[1], self.channels, "DataBn channel mismatch");
        assert_eq!(s[3], self.joints, "DataBn joint mismatch");
        let (n, c, t, v) = (s[0], s[1], s[2], s[3]);
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
pub fn apply_per_sample_vertex_op(x: &Tensor, op: &Tensor) -> Tensor {
    let xs = x.shape();
    let os = op.shape();
    assert_eq!(xs.len(), 4, "features must be [N, C, T, V]");
    assert_eq!(os.len(), 3, "operator must be [N, V, V]");
    assert_eq!(os[0], xs[0], "batch mismatch");
    assert_eq!(os[1], xs[3], "operator must be square in V");
    assert_eq!(os[2], xs[3], "operator must be square in V");
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
    fn eval_mix_kernels_match_tensor_paths() {
        let mut ws = Workspace::new();
        let (n, c, t, v) = (2, 3, 4, 5);
        let x = NdArray::from_vec(
            (0..n * c * t * v).map(|i| (i as f32 * 0.17).sin()).collect(),
            &[n, c, t, v],
        );
        let xt = Tensor::constant(x.clone());
        let op = NdArray::from_vec((0..v * v).map(|i| (i as f32 * 0.3).cos()).collect(), &[v, v]);
        let a = apply_vertex_op(&xt, &Tensor::constant(op.clone())).array();
        let b = apply_vertex_op_eval(&x, &op, &mut ws);
        assert!(a.allclose(&b, 1e-5, 1e-6));

        let ops = NdArray::from_vec(
            (0..n * v * v).map(|i| (i as f32 * 0.11).sin()).collect(),
            &[n, v, v],
        );
        let a = apply_per_sample_vertex_op(&xt, &Tensor::constant(ops.clone())).array();
        let b = apply_per_sample_vertex_op_eval(&x, &ops, &mut ws);
        assert!(a.allclose(&b, 1e-5, 1e-6));

        let dops = NdArray::from_vec(
            (0..n * t * v * v).map(|i| (i as f32 * 0.07).cos()).collect(),
            &[n, t, v, v],
        );
        let a = apply_dynamic_vertex_op(&xt, &Tensor::constant(dops.clone())).array();
        let b = apply_dynamic_vertex_op_eval(&x, &dops, &mut ws);
        assert!(a.allclose(&b, 1e-5, 1e-6));
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

    /// The three eval vertex mixes, named by operator granularity.
    type EvalMix = fn(&NdArray, &NdArray, &mut Workspace) -> NdArray;
    const MIXES: [(&str, EvalMix); 3] = [
        ("static", apply_vertex_op_eval),
        ("per-sample", apply_per_sample_vertex_op_eval),
        ("per-frame", apply_dynamic_vertex_op_eval),
    ];

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
    fn eval_mixes_match_the_index_formula() {
        let mut ws = Workspace::new();
        let mut seed = 0;
        for v in [18, 25] {
            for c in [3, 24, 48] {
                for t in [1, 7, 32] {
                    for n in [1, 3] {
                        seed += 1;
                        let x = NdArray::from_vec(fill(seed, n * c * t * v, -1.0, 1.0), &[n, c, t, v]);
                        for (kind, mix) in MIXES {
                            let op = op_for(kind, seed + 1000, n, t, v);
                            let got = mix(&x, &op, &mut ws);
                            let want = naive_mix(kind, &x, &op);
                            assert!(
                                got.allclose(&want, 1e-5, 1e-6),
                                "{kind} mix diverged at [N={n}, C={c}, T={t}, V={v}]"
                            );
                            ws.recycle(got);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eval_mix_rows_are_bitwise_batch_invariant_beside_sparse_neighbours() {
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
        let mut ws = Workspace::new();
        for (kind, mix) in MIXES {
            let op3 = op_for(kind, 21, 3, t, v);
            // sample 1's own operator, cut out of the batch operator
            let op1 = if kind == "static" { op3.clone() } else { op3.slice_axis(0, 1, 1) };
            let solo = mix(&alone, &op1, &mut ws);
            let batched = mix(&batch, &op3, &mut ws);
            assert_eq!(
                bits(&solo),
                bits(&batched.slice_axis(0, 1, 1)),
                "{kind} mix: a sample's bits changed with its batch neighbours"
            );
        }
    }

    #[test]
    fn eval_mixes_are_bitwise_identical_across_thread_counts() {
        let (n, c, t, v) = (3, 48, 32, 25);
        let x = NdArray::from_vec(fill(5, n * c * t * v, -1.0, 1.0), &[n, c, t, v]);
        for (kind, mix) in MIXES {
            let op = op_for(kind, 6, n, t, v);
            let run = |threads| {
                dhg_tensor::parallel::with_threads(threads, || bits(&mix(&x, &op, &mut Workspace::new())))
            };
            let reference = run(1);
            for threads in [2, 8] {
                assert_eq!(run(threads), reference, "{kind} mix differs at {threads} threads");
            }
        }
    }

    #[test]
    fn databn_affine_matches_eval_forward() {
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
        let x = NdArray::from_vec(
            (0..2 * 2 * 6 * 3).map(|j| (j as f32 * 0.19).cos()).collect(),
            &[2, 2, 6, 3],
        );
        let reference = {
            let _g = dhg_tensor::no_grad();
            bn.forward(&Tensor::constant(x.clone())).array()
        };
        let (scale, shift) = bn.eval_affine();
        let mut ws = Workspace::new();
        let got = bn.forward_affine(&x, &scale, &shift, &mut ws);
        assert!(reference.allclose(&got, 1e-5, 1e-6));
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
