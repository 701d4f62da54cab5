//! The static cost model must be a safe envelope for the runtime: for
//! every zoo model, the plan IR's predicted peak workspace bytes must be
//! at least the `Workspace` high-water mark one real batch-1
//! `forward_inference` pass actually reaches — otherwise the
//! `analyze --budget` gate could admit a model that blows the serving
//! cap. A served stream window is an ordinary `forward_inference` input,
//! so the zoo-wide check covers stream windows too.

use dhg_nn::{analyze, Module, SymShape};
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor, Workspace};
use dhg_train::zoo::Zoo;

const MODELS: [&str; 9] = [
    "ST-GCN",
    "2s-AGCN",
    "2s-AHGCN",
    "Shift-GCN",
    "TCN",
    "ST-LSTM",
    "Lie Group",
    "DHGCN",
    "DHGCN-lite",
];

fn batch1(t: usize, v: usize) -> Tensor {
    Tensor::constant(NdArray::from_vec(
        (0..3 * t * v).map(|i| (i as f32 * 0.017).sin()).collect(),
        &[1, 3, t, v],
    ))
}

/// `predicted >= measured` for one prepared model on one input; returns
/// the pair for the assertion message.
fn peaks(m: &dyn Module, x: &Tensor, shape: &SymShape) -> (u64, u64) {
    let predicted = analyze(&m.plan(shape)).cost_summary().workspace_peak;
    let mut ws = Workspace::new();
    let _ = m.forward_inference(x, &mut ws);
    (predicted, ws.high_water_bytes() as u64)
}

#[test]
fn predicted_peak_bounds_measured_high_water_across_the_zoo() {
    for (topology, t) in [(SkeletonTopology::ntu25(), 16), (SkeletonTopology::openpose18(), 12)] {
        let v = topology.n_joints();
        let zoo = Zoo::tiny(topology, 4, 0);
        let x = batch1(t, v);
        let shape = SymShape::nctv(3, t, v);
        for name in MODELS {
            let mut m = zoo.by_name(name).expect("zoo model");
            m.forward(&x);
            m.prepare_inference();
            let (predicted, measured) = peaks(&m, &x, &shape);
            assert!(
                predicted >= measured,
                "{name} on {v} joints: predicted peak {predicted} B < measured high water \
                 {measured} B — the static cost model under-predicts"
            );
            // the envelope must also stay meaningful: an over-prediction
            // beyond 64x would make the budget gate useless
            if measured > 0 {
                assert!(
                    predicted <= measured.saturating_mul(64),
                    "{name}: predicted peak {predicted} B is more than 64x the measured \
                     {measured} B — the envelope is too loose to gate on"
                );
            }
        }
    }
}
