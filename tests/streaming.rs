//! Cross-crate streaming invariance: frame-at-a-time scoring through
//! [`StreamingSession`] and [`ServeEngine`] streams must agree with
//! offline window scoring, the rolling Eq. 9 operator maintenance must
//! match `dynamic_operators` slices of the full stream, and per-frame
//! maintenance must stay far cheaper than per-window reconstruction.

use dhgcn::core::StreamableModel;
use dhgcn::hypergraph::{
    dynamic_operators, from_scratch_operator, RollingOperators, TopologyConfig, WindowTopology,
};
use dhgcn::skeleton::{static_hypergraph, SkeletonTopology};
use dhgcn::tensor::{NdArray, Tensor};
use dhgcn::train::serve::{ServeConfig, ServeEngine};
use dhgcn::train::zoo::Zoo;
use dhgcn::train::{InferenceSession, StreamingConfig, StreamingSession};
use std::hint::black_box;
use std::time::Instant;

const C: usize = 3;
const T: usize = 8;
const V: usize = 25;
const CLASSES: usize = 5;

fn zoo() -> Zoo {
    Zoo::tiny(SkeletonTopology::ntu25(), CLASSES, 0)
}

/// A deterministic synthetic stream of `[C, V]` frames with an
/// occasionally dropped joint (all-zero coordinates), exercising the
/// missing-detection path of the moving-distance maintenance.
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

/// The full stream as `[T_total, V, C]` joint coordinates (the layout
/// `dynamic_operators` consumes).
fn stream_coords(frames: &[Vec<f32>]) -> NdArray {
    let t_total = frames.len();
    let mut data = vec![0.0; t_total * V * C];
    for (t, frame) in frames.iter().enumerate() {
        for c in 0..C {
            for v in 0..V {
                data[t * V * C + v * C + c] = frame[c * V + v];
            }
        }
    }
    NdArray::from_vec(data, &[t_total, V, C])
}

#[test]
fn every_streamable_model_first_window_matches_offline() {
    let zoo = zoo();
    let frames = stream_frames(T, 1);
    let x = Tensor::constant(window(&frames, 0));

    fn check<M: StreamableModel>(name: &str, streamed: M, offline: M, frames: &[Vec<f32>], x: &Tensor) {
        let mut session = StreamingSession::new(streamed, C, V, StreamingConfig::new(T));
        let mut got = None;
        for frame in frames {
            got = session.push(frame);
        }
        let got = got.unwrap_or_else(|| panic!("{name}: full window must emit"));
        let want = InferenceSession::new(offline).logits(x);
        assert_eq!(
            got.data(),
            &want.data()[..got.len()],
            "{name}: streamed first window diverged from offline logits"
        );
    }

    check("dhgcn", zoo.dhgcn(), zoo.dhgcn(), &frames, &x);
    check("dhgcn-lite", zoo.dhgcn_lite(), zoo.dhgcn_lite(), &frames, &x);
    check("stgcn", zoo.stgcn(), zoo.stgcn(), &frames, &x);
    check("agcn", zoo.agcn(), zoo.agcn(), &frames, &x);
    check("shift-gcn", zoo.shift_gcn(), zoo.shift_gcn(), &frames, &x);
    check("tcn", zoo.tcn(), zoo.tcn(), &frames, &x);
}

/// Later windows: the session's rolling operators carry the *true*
/// predecessor distance across window boundaries, so its logits must
/// equal scoring the window with operators sliced out of the full-stream
/// `dynamic_operators` sweep — not the per-window offline recomputation
/// (which would backfill the boundary row).
#[test]
fn dhgcn_later_windows_match_full_stream_operator_slices() {
    let zoo = zoo();
    let frames = stream_frames(T + 5, 2);
    let model = zoo.dhgcn();
    let hg = model.streaming_hypergraph().expect("dhgcn consumes window ops");
    let all_ops = dynamic_operators(&hg, &stream_coords(&frames)); // [T_total, V, V]

    let mut session = StreamingSession::new(model, C, V, StreamingConfig::new(T));
    let offline = InferenceSession::new(zoo.dhgcn());
    let mut emitted = 0;
    for (t, frame) in frames.iter().enumerate() {
        let Some(got) = session.push(frame) else { continue };
        emitted += 1;
        let s = t + 1 - T; // window start
        if s == 0 {
            continue; // first window: covered by the offline-equality test
        }
        // slice the full-stream operators down to this window
        let mut ops = vec![0.0; T * V * V];
        ops.copy_from_slice(&all_ops.data()[s * V * V..(s + T) * V * V]);
        let ops = NdArray::from_vec(ops, &[1, T, V, V]);
        // score the same window offline, injecting the sliced operators
        let x = Tensor::constant(window(&frames, s));
        let want = {
            let mut ws = dhgcn::tensor::Workspace::new();
            offline.model().forward_window(&x, Some(&ops), &mut ws).array()
        };
        assert_eq!(
            got.data(),
            &want.data()[..got.len()],
            "window starting at frame {s}: rolling ops diverged from full-stream slices"
        );
    }
    assert_eq!(emitted, 6, "T+5 frames over a T window emit 6 windows");
}

#[test]
fn serve_stream_matches_offline_window_scoring_for_dhgcn() {
    let zoo = zoo();
    let engine = ServeEngine::start(move || zoo.dhgcn(), &[C, T, V], ServeConfig::default())
        .expect("engine start");
    let zoo = self::zoo();
    let mut offline = InferenceSession::new(zoo.dhgcn());
    let frames = stream_frames(T + 3, 3);
    let stream = engine.open_stream(1).expect("open");
    for (t, frame) in frames.iter().enumerate() {
        let pending = engine.push_frame(stream, frame).expect("push");
        let Some(pending) = pending else {
            assert!(t + 1 < T, "window must emit once full");
            continue;
        };
        let got = pending.wait().expect("scored");
        let s = t + 1 - T;
        // serve streams materialise windows and score them offline-style:
        // the worker derives operators from the window itself
        let want = offline.logits(&Tensor::constant(window(&frames, s)));
        assert_eq!(
            got.data(),
            &want.data()[..got.len()],
            "serve-stream window starting at {s} diverged from offline scoring"
        );
    }
    assert!(engine.close_stream(stream));
    engine.shutdown();
}

/// Emission cadence and warmup bookkeeping across the stack.
#[test]
fn streaming_session_cadence_and_serve_metrics_agree() {
    let zoo = zoo();
    let mut session =
        StreamingSession::new(zoo.stgcn(), C, V, StreamingConfig::new(T).with_emit_every(2));
    let frames = stream_frames(T + 6, 4);
    let emitted = frames.iter().filter_map(|f| session.push(f)).count();
    assert_eq!(emitted, 4, "emits at T, T+2, T+4, T+6");
    assert_eq!(session.emitted(), 4);
    assert_eq!(session.frames_seen(), T + 6);

    let engine = ServeEngine::start(move || zoo.stgcn(), &[C, T, V], ServeConfig::default())
        .expect("engine start");
    let stream = engine.open_stream(2).expect("open");
    for frame in &frames {
        if let Some(p) = engine.push_frame(stream, frame).expect("push") {
            p.wait().expect("scored");
        }
    }
    assert_eq!(engine.metrics().stream_windows.get(), 4);
    assert_eq!(engine.metrics().stream_frames.get(), (T + 6) as u64);
    engine.shutdown();
}

/// One frame of a drifting synthetic skeleton as `[V, D]` coordinates: a
/// fixed base pose plus slow per-joint sinusoidal motion.
fn drifting_pose(t: usize, v: usize, d: usize) -> Vec<f32> {
    (0..v * d)
        .map(|i| {
            let (vi, ci) = (i / d, i % d);
            let base = ((vi * 37 + ci * 11) as f32 * 0.31).sin();
            base + (t as f32 * 0.08 + vi as f32 * 0.5 + ci as f32).sin() * 0.05
        })
        .collect()
}

/// Median wall time in µs of `f(0)`, …, `f(reps - 1)`, each call timed on
/// its own so a preempted call cannot decide the result.
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// The streaming floor: at `T = 64` on NTU-25, pushing one frame must be
/// at least 3× cheaper than rebuilding the whole window from scratch, for
/// both the §3.4 kNN/k-medoid window topology and the Eq. 9 joint-weight
/// operators. A window shares `T − 1` frames with its predecessor, so the
/// structural ratio is about `T`.
#[test]
fn per_frame_maintenance_is_at_least_3x_cheaper_than_window_rebuild() {
    const FLOOR: f64 = 3.0;
    let (t, v, d) = (64usize, 25usize, 3usize);
    let (pushes, windows) = (64usize, 4usize);
    let frames: Vec<Vec<f32>> = (0..t + pushes).map(|ti| drifting_pose(ti, v, d)).collect();

    // §3.4 window topology: one incremental build per push, T builds per
    // from-scratch window
    let config = TopologyConfig::new(4, 8, 7).with_threshold(0.02);
    let mut ring = WindowTopology::new(t, config);
    for f in &frames[..t] {
        ring.push(f, v, d);
    }
    let maintain = median_us(pushes, |i| ring.push(&frames[t + i], v, d));
    let rebuild = median_us(windows, |w| {
        for f in &frames[w..w + t] {
            black_box(from_scratch_operator(f, v, d, &config));
        }
    });
    // libtest shows this line when the assert below fails
    println!(
        "window topology: {maintain:.1} us/frame vs {rebuild:.1} us/window, {:.1}x",
        rebuild / maintain
    );
    assert!(rebuild >= FLOOR * maintain, "window topology is below the {FLOOR}x floor");

    // Eq. 9 moving-distance joint-weight operators
    let hg = static_hypergraph(&SkeletonTopology::ntu25());
    let mut rolling = RollingOperators::new(t, hg.clone(), d);
    for f in &frames[..t] {
        rolling.push(f);
    }
    let maintain = median_us(pushes, |i| rolling.push(&frames[t + i]));
    let rebuild = median_us(windows, |w| {
        let coords = NdArray::from_vec(frames[w..w + t].concat(), &[t, v, d]);
        black_box(dynamic_operators(&hg, &coords));
    });
    println!(
        "rolling operators: {maintain:.1} us/frame vs {rebuild:.1} us/window, {:.1}x",
        rebuild / maintain
    );
    assert!(rebuild >= FLOOR * maintain, "rolling operators is below the {FLOOR}x floor");
}
