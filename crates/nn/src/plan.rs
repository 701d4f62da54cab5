//! Static op-level plan IR: symbolic shapes, diagnostics, and an analyzer
//! that walks a model's recorded op chain **without running a forward
//! pass**.
//!
//! Every [`Module`](crate::Module) can describe itself via
//! [`Module::plan`](crate::Module::plan): given a symbolic input shape it
//! returns a [`Plan`] — the ops it would execute, the shapes flowing
//! between them, and any [`Diagnostic`]s found along the way (shape
//! incompatibilities, cold BatchNorm statistics, broken hypergraph
//! invariants). [`analyze`] then verifies the chain is
//! internally consistent and produces a printable [`Report`].
//!
//! Shape checks deliberately reuse the wording of the runtime
//! [`dhg_tensor::ShapeError`] diagnostics so that a plan rejected here and
//! an eager forward that panics report the same failure category.

use dhg_tensor::ops::Conv2dSpec;
use dhg_tensor::NdArray;
use std::fmt;

/// One dimension of a symbolic shape: either the free batch dimension `N`
/// (which every op passes through unchanged) or a concrete extent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Dim {
    /// The symbolic batch dimension — any size, preserved by every op.
    Batch,
    /// A concrete extent.
    Known(usize),
}

impl Dim {
    /// The concrete extent, if this dimension has one.
    pub fn known(self) -> Option<usize> {
        match self {
            Dim::Batch => None,
            Dim::Known(n) => Some(n),
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Batch => write!(f, "N"),
            Dim::Known(n) => write!(f, "{n}"),
        }
    }
}

/// A shape whose batch dimension may be symbolic, e.g. `[N, 3, 16, 25]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymShape(pub Vec<Dim>);

impl SymShape {
    /// The canonical skeleton-sequence input `[N, C, T, V]`.
    pub fn nctv(c: usize, t: usize, v: usize) -> Self {
        SymShape(vec![Dim::Batch, Dim::Known(c), Dim::Known(t), Dim::Known(v)])
    }

    /// A symbolic batch followed by concrete trailing dims.
    pub fn batched(dims: &[usize]) -> Self {
        let mut ds = vec![Dim::Batch];
        ds.extend(dims.iter().map(|&d| Dim::Known(d)));
        SymShape(ds)
    }

    /// A fully concrete shape.
    pub fn concrete(dims: &[usize]) -> Self {
        SymShape(dims.iter().map(|&d| Dim::Known(d)).collect())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Dim] {
        &self.0
    }

    /// Dimension `i` (panics if out of range).
    pub fn at(&self, i: usize) -> Dim {
        self.0[i]
    }

    /// Concrete extent of dimension `i`, if it has one.
    pub fn known(&self, i: usize) -> Option<usize> {
        self.0.get(i).and_then(|d| d.known())
    }

    /// The shape with dimension `i` replaced.
    pub fn with_dim(&self, i: usize, d: Dim) -> Self {
        let mut ds = self.0.clone();
        ds[i] = d;
        SymShape(ds)
    }
}

impl fmt::Display for SymShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// How serious a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but servable (e.g. a fallback path will run).
    Warning,
    /// The described execution would panic or produce garbage.
    Error,
}

/// Stable machine-readable category of a [`Diagnostic`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DiagCode {
    /// Input rank differs from what the op requires.
    RankMismatch,
    /// Channel dimension disagrees with the layer's weights.
    ChannelMismatch,
    /// Joint/vertex dimension disagrees with the model topology.
    JointMismatch,
    /// General dimension disagreement (matmul inner dims, fusion, …).
    ShapeMismatch,
    /// The temporal extent is too small for a kernel/stride combination.
    TemporalUnderflow,
    /// Two-stream fusion received score tensors of different shapes.
    FusionMismatch,
    /// Eval-mode BatchNorm whose running statistics were never updated.
    BnStatsCold,
    /// A module without a real `plan` implementation was encountered.
    UnplannedModule,
    /// A hyperedge with no member vertices.
    IncidenceEmptyEdge,
    /// A vertex covered by no hyperedge.
    IncidenceUncoveredVertex,
    /// An incidence entry outside `{0, 1}`.
    IncidenceNotBinary,
    /// A per-hyperedge `Imp` weight column that does not sum to 1.
    ImpNotNormalized,
    /// A singular vertex/edge degree matrix (zero diagonal entry).
    DegreeSingular,
    /// Consecutive plan ops whose shapes do not connect.
    BrokenChain,
    /// Predicted peak workspace exceeds a configured byte budget.
    BudgetExceeded,
}

impl DiagCode {
    /// Stable kebab-case name (used by tests and tooling).
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::RankMismatch => "rank-mismatch",
            DiagCode::ChannelMismatch => "channel-mismatch",
            DiagCode::JointMismatch => "joint-mismatch",
            DiagCode::ShapeMismatch => "shape-mismatch",
            DiagCode::TemporalUnderflow => "temporal-underflow",
            DiagCode::FusionMismatch => "fusion-mismatch",
            DiagCode::BnStatsCold => "bn-stats-cold",
            DiagCode::UnplannedModule => "unplanned-module",
            DiagCode::IncidenceEmptyEdge => "incidence-empty-edge",
            DiagCode::IncidenceUncoveredVertex => "incidence-uncovered-vertex",
            DiagCode::IncidenceNotBinary => "incidence-not-binary",
            DiagCode::ImpNotNormalized => "imp-not-normalized",
            DiagCode::DegreeSingular => "degree-singular",
            DiagCode::BrokenChain => "broken-chain",
            DiagCode::BudgetExceeded => "budget-exceeded",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer finding, attached to the op scope that produced it.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Machine-readable category.
    pub code: DiagCode,
    /// Error (would panic / produce garbage) or warning (fallback runs).
    pub severity: Severity,
    /// Human-readable description; shape checks reuse the runtime
    /// [`dhg_tensor::ShapeError`] wording.
    pub message: String,
    /// Dotted path of the op that raised it, e.g. `blocks[3].tcn.conv`.
    pub scope: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        if self.scope.is_empty() {
            write!(f, "{sev}[{}]: {}", self.code, self.message)
        } else {
            write!(f, "{sev}[{}] at {}: {}", self.code, self.scope, self.message)
        }
    }
}

/// Product of a shape's extents with the symbolic batch counted as 1 —
/// the per-sample element count every [`OpCost`] is expressed in.
pub fn per_sample_elems(shape: &SymShape) -> u64 {
    shape.dims().iter().map(|d| d.known().unwrap_or(1) as u64).product()
}

/// Bytes of the packed-GEMM image of a `[k, n]` right-hand operand
/// ([`dhg_tensor::gemm::packed_b_len`]): the scratch every packed product
/// draws from the workspace while it runs.
pub fn packed_b_bytes(k: u64, n: u64) -> u64 {
    4 * dhg_tensor::gemm::packed_b_len(k as usize, n as usize) as u64
}

/// Static per-sample cost of one plan op. All figures are for a batch of
/// one (the symbolic `N` counts as 1); scale by the batch size at the
/// call site. `f32` everywhere, so bytes are `4 × elements`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Floating-point operations (a multiply-accumulate counts as 2).
    pub flops: u64,
    /// Bytes moved: operands read plus outputs written.
    pub bytes: u64,
    /// Transient scratch bytes alive only while the op runs (im2col
    /// columns, packing panels) — charged against the workspace peak.
    pub scratch: u64,
}

impl OpCost {
    /// The heuristic cost [`Plan::push_op`] assumes when the caller does
    /// not supply one: one FLOP per output element (shuffles, additions,
    /// activations) and a read+write of every element touched.
    pub fn default_for(input: &SymShape, output: &SymShape) -> Self {
        let (i, o) = (per_sample_elems(input), per_sample_elems(output));
        OpCost { flops: o, bytes: 4 * (i + o), scratch: 0 }
    }

    /// A dense `[m, k] × [k, n]` matmul on the packed GEMM; the scratch
    /// term is the packed image of the `[k, n]` right-hand operand.
    pub fn matmul(m: u64, k: u64, n: u64) -> Self {
        OpCost {
            flops: 2 * m * k * n,
            bytes: 4 * (m * k + k * n + m * n),
            scratch: packed_b_bytes(k, n),
        }
    }

    /// A fully connected layer applied to `rows` independent rows.
    pub fn linear(rows: u64, in_features: u64, out_features: u64) -> Self {
        Self::matmul(rows, in_features, out_features)
    }

    /// A 2-D convolution `cin → cout` of geometry `spec` producing a
    /// `ho × wo` map, run as one GEMM per sample. The scratch term is what
    /// the runtime materialises beside the output: the im2col column
    /// buffer — unless the input already is its own column matrix
    /// ([`Conv2dSpec::columns_are_input`]) — and the packed image of the
    /// columns.
    pub fn conv2d(cin: u64, cout: u64, spec: &Conv2dSpec, ho: u64, wo: u64) -> Self {
        let (kh, kw) = (spec.kernel.0 as u64, spec.kernel.1 as u64);
        let cols = cin * kh * kw * ho * wo;
        let im2col = if spec.columns_are_input() { 0 } else { 4 * cols };
        OpCost {
            flops: 2 * cout * cols,
            bytes: 4 * (cols + cout * cin * kh * kw + cout * ho * wo),
            scratch: im2col + packed_b_bytes(cin * kh * kw, ho * wo),
        }
    }

    /// A vertex mix of `[C, T, V]` features by `[V, V]` operators
    /// (static hypergraph, Eq. 9 joint-weight, or topology operators),
    /// `blocks` distinct operators per sample: 1 for a shared or
    /// per-sample operator, `T` for one per frame. Bytes are the features
    /// read and written plus the operators read.
    pub fn vertex_op(c: u64, t: u64, v: u64, blocks: u64) -> Self {
        OpCost {
            flops: 2 * c * t * v * v,
            bytes: 4 * (c * t * v + blocks * v * v + c * t * v),
            scratch: 0,
        }
    }

    /// An elementwise pass over a shape (ReLU, BN affine, residual add).
    pub fn elementwise(shape: &SymShape) -> Self {
        let e = per_sample_elems(shape);
        OpCost { flops: e, bytes: 8 * e, scratch: 0 }
    }

    /// The same cost with an explicit scratch requirement.
    pub fn with_scratch(mut self, bytes: u64) -> Self {
        self.scratch = bytes;
        self
    }

    /// Component-wise sum.
    pub fn plus(self, other: OpCost) -> Self {
        OpCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
            scratch: self.scratch.max(other.scratch),
        }
    }
}

/// One recorded op: name, free-form detail, the shapes around it, and
/// its static cost.
#[derive(Clone, Debug)]
pub struct PlanOp {
    /// Dotted scope path, e.g. `blocks[0].theta`.
    pub name: String,
    /// Short free-form description (kernel sizes, stride, …).
    pub detail: String,
    /// Shape consumed.
    pub input: SymShape,
    /// Shape produced.
    pub output: SymShape,
    /// Per-sample static cost ([`OpCost::default_for`] heuristic unless
    /// the module supplied an exact figure via [`Plan::push_op_costed`]).
    pub cost: OpCost,
}

/// The op chain a module would execute for a given input shape, plus any
/// diagnostics discovered while recording it.
#[derive(Clone, Debug)]
pub struct Plan {
    input: SymShape,
    ops: Vec<PlanOp>,
    /// Ops of adopted side branches: costed, but outside the chain.
    side_ops: Vec<PlanOp>,
    diagnostics: Vec<Diagnostic>,
    output: SymShape,
}

impl Plan {
    /// An empty plan whose output is the (unmodified) input.
    pub fn new(input: &SymShape) -> Self {
        Plan {
            input: input.clone(),
            ops: Vec::new(),
            side_ops: Vec::new(),
            diagnostics: Vec::new(),
            output: input.clone(),
        }
    }

    /// The passthrough plan of a module without a real `plan`
    /// implementation: shape unchanged, one [`DiagCode::UnplannedModule`]
    /// warning so the analyzer can't silently vouch for it.
    pub fn unplanned(what: &str, input: &SymShape) -> Self {
        let mut p = Plan::new(input);
        p.warn(
            DiagCode::UnplannedModule,
            format!("{what} has no plan() implementation; shapes not verified"),
        );
        p
    }

    /// The shape the plan was recorded for.
    pub fn input(&self) -> &SymShape {
        &self.input
    }

    /// The shape flowing out of the last recorded op.
    pub fn output(&self) -> &SymShape {
        &self.output
    }

    /// The recorded ops in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Ops of side branches carried in by [`Plan::adopt`], re-scoped
    /// under their branch. They run and are costed, but are not part of
    /// the sequential chain.
    pub fn side_ops(&self) -> &[PlanOp] {
        &self.side_ops
    }

    /// All diagnostics recorded so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Record an op consuming the current output and producing `output`,
    /// costed with the [`OpCost::default_for`] heuristic.
    pub fn push_op(&mut self, name: &str, detail: impl Into<String>, output: SymShape) {
        let cost = OpCost::default_for(&self.output, &output);
        self.push_op_costed(name, detail, output, cost);
    }

    /// Record an op with an exact static cost supplied by the module.
    pub fn push_op_costed(
        &mut self,
        name: &str,
        detail: impl Into<String>,
        output: SymShape,
        cost: OpCost,
    ) {
        self.ops.push(PlanOp {
            name: name.to_string(),
            detail: detail.into(),
            input: self.output.clone(),
            output: output.clone(),
            cost,
        });
        self.output = output;
    }

    /// Record an error diagnostic at the current scope tail.
    pub fn error(&mut self, code: DiagCode, message: impl Into<String>) {
        self.diag(code, Severity::Error, message);
    }

    /// Record a warning diagnostic.
    pub fn warn(&mut self, code: DiagCode, message: impl Into<String>) {
        self.diag(code, Severity::Warning, message);
    }

    /// Record a diagnostic with explicit severity.
    pub fn diag(&mut self, code: DiagCode, severity: Severity, message: impl Into<String>) {
        let scope = self.ops.last().map(|op| op.name.clone()).unwrap_or_default();
        self.diagnostics.push(Diagnostic { code, severity, message: message.into(), scope });
    }

    /// Carry over a side branch's ops and diagnostics (re-scoped under
    /// `scope.`) without splicing its ops into the chain — for parallel
    /// paths such as the bone stream of a two-stream fusion, the
    /// non-anchor branches of a branch sum or a residual projection, whose
    /// ops would otherwise violate the sequential-chain invariant
    /// [`analyze`] checks. The ops land in [`Plan::side_ops`], so their
    /// costs count. Returns the branch's output shape.
    pub fn adopt(&mut self, scope: &str, child: &Plan) -> SymShape {
        for op in child.ops.iter().chain(&child.side_ops) {
            let mut op = op.clone();
            op.name = scoped(scope, &op.name);
            self.side_ops.push(op);
        }
        for d in &child.diagnostics {
            let mut d = d.clone();
            d.scope = scoped(scope, &d.scope);
            self.diagnostics.push(d);
        }
        child.output.clone()
    }

    /// Splice a sub-module's plan in: its ops are re-scoped under
    /// `scope.`, its diagnostics are carried over, and the plan output
    /// advances to the child's output.
    pub fn extend(&mut self, scope: &str, child: Plan) {
        for mut op in child.ops {
            op.name = scoped(scope, &op.name);
            self.ops.push(op);
        }
        for mut op in child.side_ops {
            op.name = scoped(scope, &op.name);
            self.side_ops.push(op);
        }
        for mut d in child.diagnostics {
            d.scope = scoped(scope, &d.scope);
            self.diagnostics.push(d);
        }
        self.output = child.output;
    }

    /// True when no diagnostics of any severity were recorded.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one [`Severity::Error`] diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Require the input to be a rank-4 `[N, C, T, V]` shape with the
    /// given channel and joint extents; records the same error categories
    /// the eager path's asserts raise. Returns false when the plan cannot
    /// proceed meaningfully (wrong rank).
    pub fn expect_nctv(&mut self, c: usize, v: usize) -> bool {
        if self.output.rank() != 4 {
            self.error(
                DiagCode::RankMismatch,
                format!("input must be [N, C, T, V], got rank {} {}", self.output.rank(), self.output),
            );
            return false;
        }
        if let Some(got) = self.output.known(1) {
            if got != c {
                self.error(DiagCode::ChannelMismatch, format!("channel mismatch: expected {c}, got {got}"));
            }
        }
        if let Some(got) = self.output.known(3) {
            if got != v {
                self.error(DiagCode::JointMismatch, format!("joint mismatch: expected {v}, got {got}"));
            }
        }
        true
    }
}

/// `scope.name`, or `scope` alone for an unnamed op.
fn scoped(scope: &str, name: &str) -> String {
    if name.is_empty() {
        scope.to_string()
    } else {
        format!("{scope}.{name}")
    }
}

/// Aggregate static cost of a whole plan, per sample (batch ≡ 1).
/// Produced by [`analyze`]; retrieve via [`Report::cost_summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSummary {
    /// Total floating-point operations.
    pub flops: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Predicted peak live workspace bytes: twice the heaviest op's
    /// footprint (operands + scratch), chain and side ops alike. An op's
    /// operands and scratch are live at once; the factor covers the
    /// residual and branch buffers held beside it.
    pub workspace_peak: u64,
    /// Ops the totals cover.
    pub n_ops: usize,
}

impl CostSummary {
    /// The summary scaled to a concrete batch size (peak workspace and
    /// totals all grow linearly in `N`; op count does not).
    pub fn scaled(&self, batch: usize) -> Self {
        let n = batch as u64;
        CostSummary {
            flops: self.flops * n,
            bytes: self.bytes * n,
            workspace_peak: self.workspace_peak * n,
            n_ops: self.n_ops,
        }
    }
}

impl fmt::Display for CostSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} MFLOP, {:.2} MiB moved, peak ws {:.2} MiB, {} ops",
            self.flops as f64 / 1e6,
            self.bytes as f64 / (1 << 20) as f64,
            self.workspace_peak as f64 / (1 << 20) as f64,
            self.n_ops,
        )
    }
}

/// The outcome of [`analyze`]: the plan's diagnostics plus chain-level
/// findings, ready to print.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every diagnostic, plan-level and chain-level.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of ops walked.
    pub n_ops: usize,
    /// The plan's final output shape.
    pub output: SymShape,
    /// Aggregate per-sample static cost.
    pub cost: CostSummary,
}

impl Report {
    /// The plan's aggregate per-sample static cost.
    pub fn cost_summary(&self) -> CostSummary {
        self.cost
    }

    /// True when no diagnostics at all were found.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one error-severity diagnostic was found.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Diagnostics of a given category.
    pub fn with_code(&self, code: DiagCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            return write!(f, "ok: {} ops, output {}", self.n_ops, self.output);
        }
        writeln!(f, "{} diagnostic(s) over {} ops:", self.diagnostics.len(), self.n_ops)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Walk a recorded [`Plan`] and verify it is internally consistent: every
/// op must consume exactly the shape the previous op produced. Returns the
/// plan's diagnostics plus any chain findings and the aggregate
/// [`CostSummary`].
pub fn analyze(plan: &Plan) -> Report {
    let mut diagnostics = plan.diagnostics().to_vec();
    let mut current = plan.input().clone();
    let mut cost = CostSummary {
        n_ops: plan.ops().len() + plan.side_ops().len(),
        ..CostSummary::default()
    };
    for op in plan.ops() {
        if op.input != current {
            diagnostics.push(Diagnostic {
                code: DiagCode::BrokenChain,
                severity: Severity::Error,
                message: format!("op consumes {} but predecessor produced {current}", op.input),
                scope: op.name.clone(),
            });
        }
        current = op.output.clone();
    }
    // side-branch ops run too: they count toward every total, but only
    // the chain is checked for connectivity
    for op in plan.ops().iter().chain(plan.side_ops()) {
        cost.flops += op.cost.flops;
        cost.bytes += op.cost.bytes;
        cost.workspace_peak = cost.workspace_peak.max(2 * (op.cost.bytes + op.cost.scratch));
    }
    if &current != plan.output() {
        diagnostics.push(Diagnostic {
            code: DiagCode::BrokenChain,
            severity: Severity::Error,
            message: format!("plan output {} disagrees with last op output {current}", plan.output()),
            scope: String::new(),
        });
    }
    Report { diagnostics, n_ops: plan.ops().len(), output: plan.output().clone(), cost }
}

/// True when a BatchNorm running-statistics pair still holds its
/// initialisation values (mean ≡ 0, var ≡ 1) — i.e. no training batch was
/// ever folded in. Serving such a layer in eval mode normalises with
/// made-up statistics, the classic v1-checkpoint silent failure.
pub fn bn_stats_cold(running_mean: &NdArray, running_var: &NdArray) -> bool {
    running_mean.data().iter().all(|&m| m == 0.0) && running_var.data().iter().all(|&v| v == 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symshape_display_and_accessors() {
        let s = SymShape::nctv(3, 16, 25);
        assert_eq!(s.to_string(), "[N, 3, 16, 25]");
        assert_eq!(s.rank(), 4);
        assert_eq!(s.at(0), Dim::Batch);
        assert_eq!(s.known(1), Some(3));
        assert_eq!(s.known(0), None);
        assert_eq!(s.with_dim(1, Dim::Known(64)).known(1), Some(64));
    }

    #[test]
    fn push_op_advances_output_and_chain_is_consistent() {
        let input = SymShape::nctv(3, 16, 25);
        let mut p = Plan::new(&input);
        p.push_op("theta", "1x1 conv", SymShape::nctv(64, 16, 25));
        p.push_op("pool", "global avg", SymShape::batched(&[64]));
        let r = analyze(&p);
        assert!(r.ok(), "{r}");
        assert_eq!(p.output(), &SymShape::batched(&[64]));
    }

    #[test]
    fn hand_built_broken_chain_is_detected() {
        let input = SymShape::nctv(3, 16, 25);
        let mut p = Plan::new(&input);
        p.push_op("a", "", SymShape::nctv(64, 16, 25));
        // corrupt the chain by splicing in a child plan recorded for a
        // different shape than `a` produces
        let mut child = Plan::new(&SymShape::nctv(32, 16, 25));
        child.push_op("", "", SymShape::nctv(32, 16, 25));
        p.extend("b", child);
        let r = analyze(&p);
        assert!(r.has_errors());
        assert!(!r.with_code(DiagCode::BrokenChain).is_empty());
    }

    #[test]
    fn expect_nctv_reports_runtime_error_categories() {
        let mut p = Plan::new(&SymShape::nctv(3, 16, 25));
        assert!(p.expect_nctv(3, 25));
        assert!(p.is_clean());

        let mut p = Plan::new(&SymShape::nctv(4, 16, 25));
        p.expect_nctv(3, 25);
        assert_eq!(p.diagnostics()[0].code, DiagCode::ChannelMismatch);
        assert!(p.diagnostics()[0].message.contains("channel mismatch"));

        let mut p = Plan::new(&SymShape::nctv(3, 16, 21));
        p.expect_nctv(3, 25);
        assert_eq!(p.diagnostics()[0].code, DiagCode::JointMismatch);

        let mut p = Plan::new(&SymShape::batched(&[3]));
        assert!(!p.expect_nctv(3, 25));
        assert_eq!(p.diagnostics()[0].code, DiagCode::RankMismatch);
        assert!(p.diagnostics()[0].message.contains("input must be [N, C, T, V]"));
    }

    #[test]
    fn unplanned_module_warns_but_is_not_an_error() {
        let p = Plan::unplanned("Mystery", &SymShape::nctv(3, 8, 25));
        assert!(!p.is_clean());
        assert!(!p.has_errors());
        assert_eq!(p.diagnostics()[0].code, DiagCode::UnplannedModule);
    }

    #[test]
    fn extend_rescopes_ops_and_diagnostics() {
        let mut child = Plan::new(&SymShape::nctv(3, 8, 25));
        child.push_op("conv", "", SymShape::nctv(16, 8, 25));
        child.error(DiagCode::ShapeMismatch, "boom");
        let mut parent = Plan::new(&SymShape::nctv(3, 8, 25));
        parent.extend("blocks[0]", child);
        assert_eq!(parent.ops()[0].name, "blocks[0].conv");
        assert_eq!(parent.diagnostics()[0].scope, "blocks[0].conv");
        assert_eq!(parent.output(), &SymShape::nctv(16, 8, 25));
    }

    #[test]
    fn bn_cold_detection() {
        assert!(bn_stats_cold(&NdArray::zeros(&[4]), &NdArray::ones(&[4])));
        assert!(!bn_stats_cold(&NdArray::full(&[4], 0.1), &NdArray::ones(&[4])));
    }

    #[test]
    fn diag_codes_have_stable_names() {
        assert_eq!(DiagCode::ImpNotNormalized.name(), "imp-not-normalized");
        assert_eq!(DiagCode::IncidenceEmptyEdge.to_string(), "incidence-empty-edge");
        assert_eq!(DiagCode::BudgetExceeded.name(), "budget-exceeded");
    }

    #[test]
    fn per_sample_elems_counts_batch_as_one() {
        assert_eq!(per_sample_elems(&SymShape::nctv(3, 16, 25)), 3 * 16 * 25);
        assert_eq!(per_sample_elems(&SymShape::concrete(&[2, 4])), 8);
        assert_eq!(per_sample_elems(&SymShape::batched(&[64])), 64);
    }

    #[test]
    fn op_cost_constructors_match_hand_counts() {
        let mm = OpCost::matmul(6, 10, 4);
        assert_eq!(mm.flops, 2 * 6 * 10 * 4);
        assert_eq!(mm.bytes, 4 * (60 + 40 + 24));
        assert_eq!(mm.scratch, 4 * 10 * 16, "packed [10, 4] rhs: one 16-wide panel");
        let conv = OpCost::conv2d(3, 8, &Conv2dSpec::temporal(5, 1, 1), 12, 25);
        assert_eq!(conv.flops, 2 * 8 * 3 * 5 * 12 * 25);
        let packed_cols = 4 * 3 * 5 * 304; // 300 columns pad to 19 panels
        assert_eq!(conv.scratch, 4 * 3 * 5 * 12 * 25 + packed_cols, "im2col columns + packed image");
        let pointwise = OpCost::conv2d(3, 8, &Conv2dSpec::pointwise(), 16, 25);
        assert_eq!(pointwise.scratch, 4 * 3 * 400, "1x1: no columns, packed input only");
        let strided = Conv2dSpec { stride: (2, 1), ..Conv2dSpec::pointwise() };
        assert_eq!(
            OpCost::conv2d(3, 8, &strided, 8, 25).scratch,
            4 * 3 * 200 + 4 * 3 * 208,
            "a strided 1x1 builds its columns"
        );
        let v = OpCost::vertex_op(16, 8, 25, 1);
        assert_eq!(v.flops, 2 * 16 * 8 * 25 * 25);
        assert_eq!(v.bytes, 4 * (2 * 16 * 8 * 25 + 25 * 25), "features in and out, one operator");
        assert_eq!(OpCost::vertex_op(16, 8, 25, 8).bytes, 4 * (2 * 16 * 8 * 25 + 8 * 25 * 25));
    }

    #[test]
    fn cost_summary_totals_and_scaling() {
        let input = SymShape::nctv(3, 16, 25);
        let mut p = Plan::new(&input);
        p.push_op_costed("theta", "", SymShape::nctv(64, 16, 25), OpCost::matmul(400, 3, 64));
        p.push_op("relu", "", SymShape::nctv(64, 16, 25));
        let r = analyze(&p);
        assert!(r.ok(), "{r}");
        let c = r.cost_summary();
        assert_eq!(c.n_ops, 2);
        assert_eq!(c.flops, 2 * 400 * 3 * 64 + 64 * 16 * 25);
        // twice the heaviest op's operands + scratch: here the ReLU
        let (mm, relu) = (p.ops()[0].cost, p.ops()[1].cost);
        assert!(relu.bytes > mm.bytes + mm.scratch);
        assert_eq!(c.workspace_peak, 2 * relu.bytes);
        let doubled = c.scaled(2);
        assert_eq!(doubled.flops, 2 * c.flops);
        assert_eq!(doubled.workspace_peak, 2 * c.workspace_peak);
        assert_eq!(doubled.n_ops, c.n_ops);
        assert!(c.to_string().contains("MFLOP"));
    }

    #[test]
    fn adopted_side_branches_are_costed_outside_the_chain() {
        let input = SymShape::nctv(3, 16, 25);
        let mut side = Plan::new(&input);
        side.push_op_costed("proj", "", SymShape::nctv(8, 16, 25), OpCost::matmul(400, 3, 8));
        let mut nested = Plan::new(&input);
        nested.push_op_costed("inner", "", input.clone(), OpCost::vertex_op(3, 16, 25, 16));
        side.adopt("nested", &nested);
        let mut p = Plan::new(&input);
        p.push_op("relu", "", input.clone());
        assert_eq!(p.adopt("residual", &side), SymShape::nctv(8, 16, 25), "the branch output");
        let r = analyze(&p);
        // the side ops do not connect to the chain, yet the chain is sound
        assert!(r.ok(), "{r}");
        assert_eq!(r.n_ops, 1);
        let names: Vec<&str> = p.side_ops().iter().map(|op| op.name.as_str()).collect();
        assert_eq!(names, ["residual.proj", "residual.nested.inner"]);
        let c = r.cost_summary();
        let want = 3 * 16 * 25 + 2 * 400 * 3 * 8 + 2 * 3 * 16 * 25 * 25;
        assert_eq!(c.flops, want);
        assert_eq!(c.n_ops, 3);
        // a parent that splices the plan in carries its side ops along
        let mut outer = Plan::new(&input);
        outer.extend("blocks[0]", p);
        assert_eq!(outer.side_ops()[0].name, "blocks[0].residual.proj");
        assert_eq!(analyze(&outer).cost_summary().flops, want);
    }
}
