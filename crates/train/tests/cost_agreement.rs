//! The static cost model must be a safe envelope for the runtime: for
//! every zoo model, the plan IR's predicted peak workspace bytes must be
//! at least the high-water mark one real batch-1 served forward reaches
//! in its `InferenceSession`'s workspace — otherwise the
//! `analyze --budget` gate could admit a model that blows the serving
//! cap. A served stream window is an ordinary session input, so the
//! zoo-wide check covers stream windows too.
//!
//! Every zoo model serves through its eval-mode forward under `no_grad`
//! with the session's workspace installed, so every one draws its
//! intermediates from the workspace and is held to both bounds.

use dhg_core::common::ModelDims;
use dhg_core::{Dhgcn, DhgcnConfig, TopologyGranularity};
use dhg_nn::{analyze, Module, SymShape};
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor};
use dhg_train::zoo::Zoo;
use dhg_train::InferenceSession;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The largest admitted predicted / measured ratio; a looser envelope
/// would let the budget gate refuse models that fit.
const ENVELOPE: u64 = 4;

fn batch1(t: usize, v: usize) -> Tensor {
    Tensor::constant(NdArray::from_vec(
        (0..3 * t * v).map(|i| (i as f32 * 0.017).sin()).collect(),
        &[1, 3, t, v],
    ))
}

/// Warm `m`'s BatchNorm statistics on `x`, serve it one batch-1 window,
/// and assert `0 < measured <= predicted <= ENVELOPE × measured`.
fn assert_envelope(what: &str, m: Box<dyn Module>, x: &Tensor, shape: &SymShape) {
    m.forward(x);
    let mut session = InferenceSession::new(m);
    let predicted = analyze(&session.model().plan(shape)).cost_summary().workspace_peak;
    let _ = session.logits(x);
    let measured = session.workspace().high_water_bytes() as u64;
    assert!(measured > 0, "{what}: the served forward drew nothing from the workspace");
    assert!(
        predicted >= measured,
        "{what}: predicted peak {predicted} B < measured high water {measured} B — the \
         static cost model under-predicts"
    );
    assert!(
        predicted <= measured.saturating_mul(ENVELOPE),
        "{what}: predicted peak {predicted} B is more than {ENVELOPE}x the measured \
         {measured} B — the envelope is too loose to gate on"
    );
}

#[test]
fn predicted_peak_bounds_measured_high_water_across_the_zoo() {
    for (topology, t) in [(SkeletonTopology::ntu25(), 16), (SkeletonTopology::openpose18(), 12)] {
        let v = topology.n_joints();
        let zoo = Zoo::tiny(topology, 4, 0);
        let x = batch1(t, v);
        let shape = SymShape::nctv(3, t, v);
        for name in Zoo::NAMES {
            let m = zoo.by_name(name).expect("zoo model");
            assert_envelope(&format!("{name} on {v} joints"), m, &x, &shape);
        }
    }
    // the paper's per-frame topology: one operator per frame in the
    // joint-weight and topology mixes
    let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 };
    let mut config = DhgcnConfig::small(dims);
    config.granularity = TopologyGranularity::PerFrame;
    let topology = SkeletonTopology::ntu25();
    let m = Dhgcn::for_topology(config, &topology, &mut StdRng::seed_from_u64(0));
    let shape = SymShape::nctv(3, 32, 25);
    assert_envelope("per-frame DHGCN at T = 32", Box::new(m), &batch1(32, 25), &shape);
}
