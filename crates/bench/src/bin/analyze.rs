//! Static model-graph analyzer over the whole model zoo.
//!
//! Without a single real forward pass through the plan, the analyzer
//! verifies for every zoo model, on both skeleton topologies:
//!
//! 1. **shape compatibility** end-to-end at representative `[N, C, T, V]`
//!    inputs (joint stream, bone stream and two-stream fusion),
//! 2. **inference readiness** — warmed BatchNorm statistics,
//! 3. **hypergraph incidence invariants** — binary `H`, full joint
//!    coverage, normalised `Imp` weights, non-singular degree matrices,
//! 4. **the serving path** — one `InferenceSession::logits` call per
//!    model on `[x, 0, 0]` (a window beside two all-zero ones, like
//!    cameras with no detection) and one on `x` alone: zero autograd
//!    nodes, the `[3, K]` output shape, row 0 bitwise equal to the solo
//!    logits, and zero workspace alias hazards,
//! 5. **memory budget** (`--budget [BYTES]`) — every model's predicted
//!    peak workspace (from the plan IR's static cost model) must fit the
//!    serve workspace cap (default: `dhg_tensor::DEFAULT_BYTE_BUDGET`).
//!
//! Exit status is non-zero if *any* diagnostic (warning or error)
//! survives. `analyze --self-test` instead seeds known-bad inputs and
//! structures and fails if the analyzer misses any of them.
//!
//! ```text
//! cargo run --release -p dhg-bench --bin analyze
//! cargo run --release -p dhg-bench --bin analyze -- --budget
//! cargo run --release -p dhg-bench --bin analyze -- --self-test
//! ```

use dhg_core::TwoStream;
use dhg_nn::{analyze, DiagCode, Module, Plan, SymShape};
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor};
use dhg_train::zoo::Zoo;
use dhg_train::InferenceSession;
use std::process::ExitCode;

/// Deterministic representative batch `[n, 3, t, v]`.
fn batch(n: usize, t: usize, v: usize) -> Tensor {
    Tensor::constant(NdArray::from_vec(
        (0..n * 3 * t * v).map(|i| (i as f32 * 0.017).sin()).collect(),
        &[n, 3, t, v],
    ))
}

/// Warm BN statistics with one training-mode pass, then switch to eval
/// mode — the state a correctly deployed model is in.
fn warmed(zoo: &Zoo, name: &str, x: &Tensor) -> Box<dyn Module> {
    let mut m = zoo.by_name(name).unwrap_or_else(|| panic!("unknown model {name}"));
    m.forward(x);
    m.set_training(false);
    m
}

/// `[x, 0, 0]`: the first window of `x` beside two all-zero windows.
fn beside_zeros(x: &Tensor) -> Tensor {
    let first = x.array().slice_axis(0, 0, 1);
    let zeros = NdArray::zeros(&[2, first.shape()[1], first.shape()[2], first.shape()[3]]);
    Tensor::constant(NdArray::concat(&[&first, &zeros], 0))
}

/// Serve `model` through an `InferenceSession`, once on `[x, 0, 0]` and
/// once on `x`'s first window alone; every way the serving path breaks
/// its contract, as one message each.
fn audit_serving(model: Box<dyn Module>, x: &Tensor, classes: usize) -> Vec<String> {
    let mut faults = Vec::new();
    let mut session = InferenceSession::new(model);
    let batch = beside_zeros(x);
    let solo = Tensor::constant(batch.array().slice_axis(0, 0, 1));
    let nodes_before = dhg_tensor::graph_nodes_created();
    let batched = session.logits(&batch);
    let alone = session.logits(&solo);
    let nodes_built = dhg_tensor::graph_nodes_created() - nodes_before;
    if nodes_built > 0 {
        faults.push(format!("built {nodes_built} autograd node(s) while serving"));
    }
    if batched.shape() != [3, classes] {
        faults.push(format!("serving output shape {:?}", batched.shape()));
    } else if batched.data()[..classes].iter().zip(alone.data()).any(|(a, b)| a.to_bits() != b.to_bits()) {
        faults.push("row 0 of [x, 0, 0] differs from x served alone".to_string());
    }
    let hazards = session.workspace().alias_hazards();
    if hazards > 0 {
        faults.push(format!("{hazards} workspace alias hazard(s)"));
    }
    faults
}

/// The plan's predicted peak workspace bytes, if it does not fit the cap.
fn over_budget(plan: &Plan, budget: Option<u64>) -> Option<u64> {
    let cap = budget?;
    let peak = analyze(plan).cost_summary().workspace_peak;
    (peak > cap).then_some(peak)
}

/// Check a plan's predicted peak workspace against the byte budget;
/// prints and counts a `budget-exceeded` failure when it does not fit.
fn check_budget(label: &str, name: &str, plan: &Plan, budget: Option<u64>) -> usize {
    match (over_budget(plan, budget), budget) {
        (Some(peak), Some(cap)) => {
            println!(
                "FAIL {label:<12} {name:<12} {}: predicted peak workspace {peak} B exceeds cap {cap} B",
                DiagCode::BudgetExceeded,
            );
            1
        }
        _ => 0,
    }
}

/// Audit one topology's zoo; returns the number of failed checks.
fn audit_topology(label: &str, topology: SkeletonTopology, t: usize, budget: Option<u64>) -> usize {
    let v = topology.n_joints();
    let zoo = Zoo::tiny(topology, 4, 0);
    let x = batch(2, t, v);
    let shape = SymShape::nctv(3, t, v);
    let mut failures = 0;

    for name in Zoo::NAMES {
        let m = warmed(&zoo, name, &x);

        // joint- and bone-stream analysis (both streams are [N, 3, T, V])
        let plan = m.plan(&shape);
        let report = analyze(&plan);
        if report.ok() {
            println!("ok   {label:<12} {name:<12} plan: {report}");
            println!("     {label:<12} {name:<12} cost: {}", report.cost_summary());
        } else {
            println!("FAIL {label:<12} {name:<12} plan:\n{report}");
            failures += 1;
        }
        failures += check_budget(label, name, &plan, budget);

        // the serving path: no autograd nodes, batch-invariant rows, no
        // buffer aliasing hazards
        let faults = audit_serving(m, &x, 4);
        if faults.is_empty() {
            println!("ok   {label:<12} {name:<12} serving: [x, 0, 0] row 0 == x alone, 0 nodes");
        }
        for fault in &faults {
            println!("FAIL {label:<12} {name:<12} serving: {fault}");
        }
        failures += faults.len();

        // two-stream late fusion: joint + bone models must agree on [N, K]
        let fused = TwoStream::new(warmed(&zoo, name, &x), warmed(&zoo, name, &x));
        let freport = analyze(&fused.plan_fusion(&shape, &shape));
        if freport.ok() {
            println!("ok   {label:<12} {name:<12} fusion: {freport}");
        } else {
            println!("FAIL {label:<12} {name:<12} fusion:\n{freport}");
            failures += 1;
        }
    }
    failures
}

/// One seeded negative: `what` must hold, else the analyzer missed it.
fn expect(failures: &mut usize, what: &str, caught: bool) {
    if caught {
        println!("ok   self-test: {what}");
    } else {
        println!("MISS self-test: {what}");
        *failures += 1;
    }
}

/// Seed known-bad inputs and structures; every one must be flagged.
fn self_test() -> usize {
    let topology = SkeletonTopology::ntu25();
    let v = topology.n_joints();
    let t = 16;
    let zoo = Zoo::tiny(topology.clone(), 4, 0);
    let x = batch(2, t, v);
    let mut missed = 0;

    for name in Zoo::NAMES {
        let m = warmed(&zoo, name, &x);
        let wrong_channels = analyze(&m.plan(&SymShape::nctv(4, t, v)));
        expect(&mut missed, &format!("{name} rejects a 4-channel input"), wrong_channels.has_errors());
        let wrong_joints = analyze(&m.plan(&SymShape::nctv(3, t, v + 1)));
        expect(&mut missed, &format!("{name} rejects a {}-joint input", v + 1), wrong_joints.has_errors());
        let wrong_rank = analyze(&m.plan(&SymShape::batched(&[3])));
        expect(&mut missed, &format!("{name} rejects a rank-2 input"), wrong_rank.has_errors());
    }

    // cold eval-mode models must warn — exactly those with BatchNorm
    // statistics (ST-LSTM and Lie Group have none to be cold)
    for name in Zoo::NAMES {
        let mut m = zoo.by_name(name).unwrap();
        m.set_training(false); // never trained
        let has_stats = !m.buffers().is_empty();
        let flagged = !analyze(&m.plan(&SymShape::nctv(3, t, v))).with_code(DiagCode::BnStatsCold).is_empty();
        let what = if has_stats { "is flagged" } else { "has no statistics to flag" };
        expect(&mut missed, &format!("{name} cold eval mode {what}"), flagged == has_stats);
    }

    // the serving audit catches a grad-free product left on the density-
    // probed kernel: its row 0 moves beside two all-zero windows
    let probed = Box::new(ProbedHead::new(3 * t * v, 4));
    expect(
        &mut missed,
        "a density-probed grad-free head is flagged as batch-variant",
        audit_serving(probed, &x, 4).iter().any(|f| f.contains("row 0")),
    );

    // seeded incidence-invariant violations
    let hg = dhg_skeleton::static_hypergraph(&topology);
    let mut uncovered = hg.incidence();
    for e in 0..uncovered.shape()[1] {
        uncovered.set(&[dhg_skeleton::topology::ntu::HEAD, e], 0.0);
    }
    expect(
        &mut missed,
        "uncovered joint is flagged",
        dhg_hypergraph::validate_incidence(&uncovered)
            .iter()
            .any(|i| i.code() == "incidence-uncovered-vertex"),
    );
    let mut empty = hg.incidence();
    for j in 0..empty.shape()[0] {
        empty.set(&[j, 5], 0.0);
    }
    expect(
        &mut missed,
        "empty hyperedge is flagged",
        dhg_hypergraph::validate_incidence(&empty)
            .iter()
            .any(|i| i.code() == "incidence-empty-edge"),
    );
    let mut fractional = hg.incidence();
    fractional.set(&[0, 0], 0.5);
    expect(
        &mut missed,
        "non-binary incidence entry is flagged",
        dhg_hypergraph::validate_incidence(&fractional)
            .iter()
            .any(|i| i.code() == "incidence-not-binary"),
    );
    let mut imp = dhg_hypergraph::joint_weights(&hg, &vec![1.0; v]);
    imp.set(&[dhg_skeleton::topology::ntu::HEAD, 4], imp.at(&[dhg_skeleton::topology::ntu::HEAD, 4]) + 0.5);
    expect(
        &mut missed,
        "denormalised Imp weights are flagged",
        dhg_hypergraph::validate_imp(&hg.incidence(), &imp)
            .iter()
            .any(|i| i.code() == "imp-not-normalized"),
    );

    // mismatched class counts across fusion streams
    let other = Zoo::tiny(topology, 5, 0);
    let fused = TwoStream::new(warmed(&zoo, "ST-GCN", &x), warmed(&other, "ST-GCN", &x));
    let r = analyze(&fused.plan_fusion(&SymShape::nctv(3, t, v), &SymShape::nctv(3, t, v)));
    expect(
        &mut missed,
        "fusing 4-class and 5-class streams is flagged",
        !r.with_code(DiagCode::FusionMismatch).is_empty(),
    );

    // budget gate: an absurdly small cap must refuse every real model
    let m = warmed(&zoo, "DHGCN", &x);
    let plan = m.plan(&SymShape::nctv(3, t, v));
    expect(
        &mut missed,
        "budget gate refuses DHGCN under a 1 KiB cap",
        over_budget(&plan, Some(1024)).is_some(),
    );

    missed
}

/// A classifier head on the raw window, `[N, C·T·V] × W`, multiplied with
/// [`NdArray::matmul`]'s density-probed dispatch even under `no_grad` —
/// the batch-variance bug every served product must avoid.
struct ProbedHead {
    w: NdArray,
}

impl ProbedHead {
    fn new(features: usize, classes: usize) -> Self {
        let w = (0..features * classes).map(|i| (i as f32 * 0.37).sin() * 0.1).collect();
        ProbedHead { w: NdArray::from_vec(w, &[features, classes]) }
    }
}

impl Module for ProbedHead {
    fn forward(&self, x: &Tensor) -> Tensor {
        let x = x.array();
        let rows = x.shape()[0];
        Tensor::constant(x.into_shape(&[rows, self.w.shape()[0]]).matmul(&self.w))
    }
}

fn main() -> ExitCode {
    let mut self_test_mode = false;
    let mut budget: Option<u64> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--self-test" => self_test_mode = true,
            "--budget" => {
                // optional numeric cap; bare --budget uses the serve
                // workspace default
                budget = Some(match args.peek().and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) => {
                        args.next();
                        n
                    }
                    None => dhg_tensor::DEFAULT_BYTE_BUDGET as u64,
                });
            }
            other => {
                eprintln!("analyze: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let failures = if self_test_mode {
        println!("== analyze: seeded-negative self-test ==");
        self_test()
    } else {
        println!("== analyze: static audit of the model zoo ==");
        audit_topology("NTU-25", SkeletonTopology::ntu25(), 16, budget)
            + audit_topology("OpenPose-18", SkeletonTopology::openpose18(), 16, budget)
    };
    if failures == 0 {
        println!("== analyze: OK ==");
        ExitCode::SUCCESS
    } else {
        println!("== analyze: {failures} failure(s) ==");
        ExitCode::FAILURE
    }
}
