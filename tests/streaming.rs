//! Cross-crate streaming invariance: frame-at-a-time scoring through
//! [`ServeEngine`] streams must agree bitwise with offline scoring of
//! every materialised window, for every streamed zoo model, and the
//! engine's stream counters must follow the emission cadence.

use dhgcn::skeleton::SkeletonTopology;
use dhgcn::tensor::{NdArray, Tensor};
use dhgcn::train::serve::{ServeConfig, ServeEngine};
use dhgcn::train::zoo::Zoo;
use dhgcn::train::InferenceSession;

const C: usize = 3;
const T: usize = 8;
const V: usize = 25;
const CLASSES: usize = 5;

fn zoo() -> Zoo {
    Zoo::tiny(SkeletonTopology::ntu25(), CLASSES, 0)
}

/// A deterministic synthetic stream of `[C, V]` frames with an
/// occasionally dropped joint (all-zero coordinates), exercising the
/// missing-detection path of the moving-distance joint weights.
fn stream_frames(t_total: usize, seed: usize) -> Vec<Vec<f32>> {
    (0..t_total)
        .map(|t| {
            let mut frame: Vec<f32> = (0..C * V)
                .map(|i| (((t * C * V + i) + seed * 4057) as f32 * 0.009).sin())
                .collect();
            if t % 5 == 3 {
                for c in 0..C {
                    frame[c * V + 7] = 0.0; // joint 7 drops out of detection
                }
            }
            frame
        })
        .collect()
}

/// Materialise frames `[s, s + T)` as an offline `[1, C, T, V]` window.
fn window(frames: &[Vec<f32>], s: usize) -> NdArray {
    let rows: Vec<f32> = frames[s..s + T].iter().flatten().copied().collect();
    NdArray::from_vec(rows, &[T, C, V]).permute(&[1, 0, 2]).reshape(&[1, C, T, V])
}

/// Stream `T + 3` frames of `model` through a serve engine at cadence 1
/// and hold every emitted window to `InferenceSession::logits` of the
/// same materialised window. The worker derives any window-dependent
/// state (DHGCN's Eq. 9 operators) from the window itself, so no window
/// may differ from offline scoring in a single bit.
fn assert_serve_stream_matches_offline(model: &'static str) {
    let zoo = zoo();
    let mut offline = InferenceSession::new(zoo.by_name(model).expect("zoo model"));
    let engine = ServeEngine::start(
        move || zoo.by_name(model).expect("zoo model"),
        &[C, T, V],
        ServeConfig::default(),
    )
    .expect("engine start");
    // each frame is built once and the same buffer feeds the push and the
    // offline reference
    let frames = stream_frames(T + 3, 3);
    let stream = engine.open_stream(1).expect("open");
    let mut emitted = 0;
    for (t, frame) in frames.iter().enumerate() {
        let Some(pending) = engine.push_frame(stream, frame).expect("push") else {
            assert!(t + 1 < T, "{model}: window must emit once full");
            continue;
        };
        let got = pending.wait().expect("scored");
        let s = t + 1 - T;
        let want = offline.logits(&Tensor::constant(window(&frames, s)));
        assert_eq!(
            got.data(),
            &want.data()[..got.len()],
            "{model}: serve-stream window starting at {s} diverged from offline scoring"
        );
        emitted += 1;
    }
    assert_eq!(emitted, frames.len() + 1 - T, "{model}: one window per frame once warm");
    assert!(engine.close_stream(stream));
    engine.shutdown();
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_dhgcn() {
    assert_serve_stream_matches_offline("DHGCN");
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_dhgcn_lite() {
    assert_serve_stream_matches_offline("DHGCN-lite");
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_stgcn() {
    assert_serve_stream_matches_offline("ST-GCN");
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_agcn() {
    assert_serve_stream_matches_offline("2s-AGCN");
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_shift_gcn() {
    assert_serve_stream_matches_offline("Shift-GCN");
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_tcn() {
    assert_serve_stream_matches_offline("TCN");
}

/// Emission cadence and warmup bookkeeping: a cadence-2 stream emits at
/// frames T, T+2, T+4 and T+6, and the engine's stream counters agree.
#[test]
fn serve_stream_cadence_and_metrics_agree() {
    let zoo = zoo();
    let engine = ServeEngine::start(move || zoo.stgcn(), &[C, T, V], ServeConfig::default())
        .expect("engine start");
    let frames = stream_frames(T + 6, 4);
    let stream = engine.open_stream(2).expect("open");
    let mut emitted = 0;
    for frame in &frames {
        if let Some(p) = engine.push_frame(stream, frame).expect("push") {
            p.wait().expect("scored");
            emitted += 1;
        }
    }
    assert_eq!(emitted, 4, "emits at T, T+2, T+4, T+6");
    assert_eq!(engine.metrics().stream_windows.get(), 4);
    assert_eq!(engine.metrics().stream_frames.get(), (T + 6) as u64);
    engine.shutdown();
}
