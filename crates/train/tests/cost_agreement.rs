//! The static cost model must be a safe envelope for the runtime: for
//! every zoo model, the plan IR's predicted peak workspace bytes must be
//! at least the `Workspace` high-water mark one real batch-1
//! `forward_inference` pass actually reaches — otherwise the
//! `analyze --budget` gate could admit a model that blows the serving
//! cap. A served stream window is an ordinary `forward_inference` input,
//! so the zoo-wide check covers stream windows too.
//!
//! Only the models with a compiled serving path draw from the workspace:
//! ST-GCN, TCN, DHGCN and DHGCN-lite. The other five (2s-AGCN, 2s-AHGCN,
//! Shift-GCN, ST-LSTM, Lie Group) serve through the default `no_grad`
//! forward, which never takes a `Workspace` buffer, so they measure 0 B
//! and only the lower bound applies to them.

use dhg_core::common::ModelDims;
use dhg_core::{Dhgcn, DhgcnConfig, TopologyGranularity};
use dhg_nn::{analyze, Module, SymShape};
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor, Workspace};
use dhg_train::zoo::Zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The zoo models whose serving path draws from the workspace.
const DRAWS_FROM_WORKSPACE: [&str; 4] = ["ST-GCN", "TCN", "DHGCN", "DHGCN-lite"];

/// The largest admitted predicted / measured ratio. The cases below
/// read 1.63 (per-frame DHGCN) to 3.45 (TCN on 18 joints); a looser
/// envelope would let the budget gate refuse models that fit.
const ENVELOPE: u64 = 4;

fn batch1(t: usize, v: usize) -> Tensor {
    Tensor::constant(NdArray::from_vec(
        (0..3 * t * v).map(|i| (i as f32 * 0.017).sin()).collect(),
        &[1, 3, t, v],
    ))
}

/// Warm `m`'s BatchNorm statistics on `x`, compile it for serving, and
/// assert `measured <= predicted <= ENVELOPE × measured` for one batch-1
/// pass. Returns the measured high water.
fn assert_envelope(what: &str, m: &mut dyn Module, x: &Tensor, shape: &SymShape) -> u64 {
    m.forward(x);
    m.prepare_inference();
    let predicted = analyze(&m.plan(shape)).cost_summary().workspace_peak;
    let mut ws = Workspace::new();
    let _ = m.forward_inference(x, &mut ws);
    let measured = ws.high_water_bytes() as u64;
    assert!(
        predicted >= measured,
        "{what}: predicted peak {predicted} B < measured high water {measured} B — the \
         static cost model under-predicts"
    );
    if measured > 0 {
        assert!(
            predicted <= measured.saturating_mul(ENVELOPE),
            "{what}: predicted peak {predicted} B is more than {ENVELOPE}x the measured \
             {measured} B — the envelope is too loose to gate on"
        );
    }
    measured
}

#[test]
fn predicted_peak_bounds_measured_high_water_across_the_zoo() {
    for (topology, t) in [(SkeletonTopology::ntu25(), 16), (SkeletonTopology::openpose18(), 12)] {
        let v = topology.n_joints();
        let zoo = Zoo::tiny(topology, 4, 0);
        let x = batch1(t, v);
        let shape = SymShape::nctv(3, t, v);
        for name in Zoo::NAMES {
            let mut m = zoo.by_name(name).expect("zoo model");
            let measured = assert_envelope(&format!("{name} on {v} joints"), &mut m, &x, &shape);
            assert_eq!(
                measured > 0,
                DRAWS_FROM_WORKSPACE.contains(&name),
                "{name} on {v} joints: measured {measured} B from the workspace"
            );
        }
    }
    // the paper's per-frame topology: one operator per frame in the
    // joint-weight and topology mixes
    let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 };
    let mut config = DhgcnConfig::small(dims);
    config.granularity = TopologyGranularity::PerFrame;
    let topology = SkeletonTopology::ntu25();
    let mut m = Dhgcn::for_topology(config, &topology, &mut StdRng::seed_from_u64(0));
    let shape = SymShape::nctv(3, 32, 25);
    assert_envelope("per-frame DHGCN at T = 32", &mut m, &batch1(32, 25), &shape);
}
