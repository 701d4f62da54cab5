//! `stream-cam`: eight cameras at 30 fps pushing frames through
//! `NetClient::push_frame`, open loop.
//!
//! Two connections carry four camera streams each (cameras alternate
//! between connections). Every camera sends one frame per 1/30 s period
//! and the eight cameras' send phases are spread evenly across the
//! period, so a frame is due every 4.2 ms. Each stream's window is 32
//! frames and it emits every 8th frame; the cameras' pre-roll lengths
//! stagger their emissions so exactly one camera completes a window in
//! each period. A frame's latency counts from its due time, so a frame
//! queued behind a slow (window-completing) push on its connection
//! carries that wait.

use crate::inputs::{same_bits, Windows};
use crate::leaves::proto_roundtrip;
use crate::report::{metric, steal_by_window, Metric, Outcome};
use crate::serving::{
    forward_rungs, hypergraph_leaf, ladder_engines, logits, record_server_config, session, specs,
    timed_setups, with_worker_threads, LadderThread, Scale, Server, ServingLadder, C, SETUPS,
    TENANTS, V, WINDOWS,
};
use crate::stats::{due_s, late_fraction, median, Latencies, Scheduled, Windowed};
use crate::trace::{Recorder, Rung};
use dhg_train::proto::{OkPayload, Request};
use dhg_train::{ModelSpec, NetClient, ServeError};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Cameras (streams) in total.
pub const CAMERAS: usize = 8;
/// Frames per second per camera.
pub const FPS: f64 = 30.0;
/// Window length of the served model.
pub const WINDOW: usize = 32;
/// A stream submits a window every this many frames.
pub const EMIT_EVERY: usize = 8;
/// The served model.
const MODEL: &str = "DHGCN";

/// Frames camera `cam` pushes before the schedule starts. Camera `g`
/// then completes windows at slots `g, g + 8, g + 16, ...`.
pub fn preroll(cam: usize) -> usize {
    WINDOW - 1 - cam
}

/// Whether camera `cam`'s frame at schedule slot `slot` completes a
/// window (the engine's rule: ring full and `(frames - T) % every == 0`).
pub fn emits(cam: usize, slot: usize) -> bool {
    let frames = preroll(cam) + slot + 1;
    frames >= WINDOW && (frames - WINDOW).is_multiple_of(EMIT_EVERY)
}

/// Cameras served by connection `conn`.
fn cameras(conn: usize) -> impl Iterator<Item = usize> {
    (0..CAMERAS).filter(move |g| g % TENANTS.len() == conn)
}

/// The schedule's start, a little after every thread has passed the
/// start barrier.
fn schedule_start() -> Instant {
    Instant::now() + Duration::from_millis(20)
}

/// One scheduled push of the measured phase.
struct Push {
    cam: usize,
    slot: usize,
    sched: Scheduled,
    label: Option<Vec<f32>>,
    /// The reply was checked against the offline reference and agreed.
    verified: bool,
}

struct ConnRun {
    pushes: Vec<Push>,
    retries: u64,
}

#[allow(clippy::too_many_arguments)]
fn connection(
    addr: std::net::SocketAddr,
    conn: usize,
    spec: &ModelSpec,
    windows: &Windows,
    slots: usize,
    barrier: &Barrier,
    start: &std::sync::OnceLock<Instant>,
) -> Result<ConnRun, String> {
    let tenant = TENANTS[conn];
    let ready = (|| {
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e:?}"))?;
        let mut ids = [0u64; CAMERAS];
        for g in cameras(conn) {
            ids[g] = client
                .open_stream(tenant, MODEL, EMIT_EVERY as u32)
                .map_err(|e| format!("open stream: {e:?}"))?;
            for k in 0..preroll(g) {
                client
                    .push_frame(tenant, ids[g], &windows.frame(g, k))
                    .map_err(|e| format!("pre-roll: {e:?}"))?;
            }
        }
        Ok::<_, String>((client, ids))
    })();
    // reach the start barrier even on failure, so no thread waits forever
    barrier.wait();
    let (mut client, ids) = ready?;
    let t0 = *start.get_or_init(schedule_start);
    let mut pushes = Vec::with_capacity(slots * CAMERAS / TENANTS.len());
    for slot in 0..slots {
        for g in cameras(conn) {
            let due = due_s(slot as u64, g, CAMERAS, FPS);
            let frame = windows.frame(g, preroll(g) + slot);
            // a wake-up that overshoots the due time counts in the
            // frame's latency, as a stall behind a slow push does
            let at = t0 + Duration::from_secs_f64(due);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let sent = t0.elapsed().as_secs_f64();
            let got = client.push_frame(tenant, ids[g], &frame);
            let done = t0.elapsed().as_secs_f64();
            let (done, label) = match got {
                Ok(label) => (Some(done), label),
                Err(_) => (None, None),
            };
            let sched = Scheduled { due, sent, done };
            pushes.push(Push { cam: g, slot, sched, label, verified: false });
        }
    }
    // verification, outside the schedule: every label must equal the
    // offline logits of its materialised window, and labels must appear
    // exactly on the emission cadence
    let mut reference = session(spec);
    for p in &mut pushes {
        if p.sched.done.is_none() {
            continue;
        }
        let end = preroll(p.cam) + p.slot + 1;
        p.verified = match (&p.label, emits(p.cam, p.slot)) {
            (Some(got), true) => {
                let x = windows.stream_window(p.cam, end, WINDOW);
                same_bits(got, &logits(&mut reference, &x, &[C, WINDOW, V]))
            }
            (None, false) => true,
            _ => false,
        };
    }
    for g in cameras(conn) {
        let _ = client.close_stream(tenant, ids[g]);
    }
    Ok(ConnRun { pushes, retries: client.retries_used() + client.reconnects() })
}

/// Run `stream-cam`; `traced` adds the ladder replay.
pub fn run_stream(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    record_server_config(&mut out, 1);
    out.config("load", "open loop, 2 connections x 4 camera streams, 30 fps each");
    out.config("models", MODEL);
    out.config("window", format!("[{C}, {WINDOW}, {V}] emit_every {EMIT_EVERY}"));
    let specs = specs(&[MODEL], Scale::Experiment, WINDOW);
    let spec = &specs[0];
    let windows = Windows::synth(8, 2, 64, seed);

    let first = windows.stream_window(0, WINDOW, WINDOW);
    let want0 = logits(&mut session(spec), &first, &[C, WINDOW, V]);
    let (setups, server) = timed_setups(
        SETUPS,
        || {
            let server = Server::start(specs.clone())?;
            let mut client =
                NetClient::connect(server.addr()).map_err(|e| format!("connect: {e:?}"))?;
            let id = client
                .open_stream(TENANTS[0], MODEL, EMIT_EVERY as u32)
                .map_err(|e| format!("open stream: {e:?}"))?;
            let mut label = None;
            for k in 0..WINDOW {
                label = client
                    .push_frame(TENANTS[0], id, &windows.frame(0, k))
                    .map_err(|e| format!("push: {e:?}"))?;
            }
            match label {
                Some(got) if same_bits(&got, &want0) => {}
                _ => return Err("first window's label differs from the offline logits".into()),
            }
            let _ = client.close_stream(TENANTS[0], id);
            Ok(server)
        },
        Server::stop,
    )?;

    let slots = (seconds * FPS).ceil() as usize;
    // the connections and this thread (which samples CPU steal per
    // window) share one schedule start
    let barrier = Barrier::new(TENANTS.len() + 1);
    let start = std::sync::OnceLock::new();
    let (runs, steal) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|conn| {
                let (windows, barrier, start) = (&windows, &barrier, &start);
                let addr = server.addr();
                s.spawn(move || connection(addr, conn, spec, windows, slots, barrier, start))
            })
            .collect();
        barrier.wait();
        let t0 = *start.get_or_init(schedule_start);
        let steal = steal_by_window(t0, seconds, WINDOWS);
        let runs: Vec<Result<ConnRun, String>> =
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect();
        (runs, steal)
    });
    let runs: Vec<ConnRun> = runs.into_iter().collect::<Result<_, _>>()?;

    // a failed push and a wrong (or missing, or unexpected) label both
    // miss every limit
    let mut labels = Latencies::default();
    let mut windowed = Windowed::new(WINDOWS, seconds);
    out.config("window_steal", format!("{steal:.3?}"));
    windowed.set_steal(steal);
    let mut pushes = Latencies::default();
    let mut scheds = Vec::new();
    let mut last_done = 0.0f64;
    for p in runs.iter().flat_map(|r| &r.pushes) {
        scheds.push(p.sched);
        let ms = if p.verified { p.sched.latency_ms() } else { None };
        let lat = if emits(p.cam, p.slot) {
            windowed.record(p.sched.due, ms);
            &mut labels
        } else {
            &mut pushes
        };
        match ms {
            Some(ms) => lat.ok(ms),
            None => lat.failed(),
        }
        last_done = last_done.max(p.sched.done.unwrap_or(0.0));
    }
    let pushed = runs.iter().flat_map(|r| &r.pushes);
    out.mismatches = pushed.filter(|p| p.sched.done.is_some() && !p.verified).count() as u64;
    out.attempted = scheds.len() as u64;
    out.failed = (labels.n_failed() + pushes.n_failed()) as u64;
    let completed = (labels.values().len() + pushes.values().len()) as f64;
    let frames_per_s = completed / last_done;
    let period = 1.0 / FPS;
    let late = late_fraction(&scheds, period);
    let label_p50 = windowed.percentile(50.0);
    let tail = labels.tail(95.0);
    let push_p50 = pushes.percentile(50.0);
    let setup_s = median(&setups);
    out.config("tail_percentile", tail.map_or("none".into(), |(p, _)| format!("p{p}")));
    out.named.push(metric("frames_per_s", frames_per_s, "1/s"));
    out.named.push(Metric { name: "label_p50_ms".into(), value: label_p50, unit: "ms" });
    if let Some((p, v)) = tail {
        out.named.push(Metric { name: format!("label_p{p}_ms"), value: v, unit: "ms" });
    }
    out.named.push(Metric { name: "push_p50_ms".into(), value: push_p50, unit: "ms" });
    for p in [90.0, 95.0, 99.0] {
        if let Some(v) = labels.percentile(p) {
            out.detail.push(metric(format!("label_p{p}_ms"), v, "ms"));
        }
    }
    out.named.push(metric("late_frac", late, "frac"));
    out.named.push(metric("setup_s", setup_s, "s"));
    out.distribution("label_ms", labels.values());
    out.distribution("setup_s", &setups);
    let retries: u64 = runs.iter().map(|r| r.retries).sum();

    if traced {
        let ladder = stream_ladder(&server, &specs, &windows, slots, seconds * 0.5)?;
        ladder.report(&mut out, &server, retries, label_p50, true);
        crate::training::ladder_for_serving(&mut out, Scale::Experiment, MODEL, seed)?;
    }
    server.stop();
    out.layers.push(metric("load.late_frac", late, "frac"));
    crate::finish_e2e(&mut out, setup_s, label_p50);
    Ok(out)
}

/// Replay each connection's pushes down the ladder, closed loop: every
/// frame goes over the wire, then in-process through the router and an
/// engine (fresh streams on each rung, pre-rolled the same way), and
/// every window-completing frame through an offline session and the
/// leaf calls.
fn stream_ladder(
    server: &Server,
    specs: &[ModelSpec],
    windows: &Windows,
    slots: usize,
    budget_s: f64,
) -> Result<ServingLadder, String> {
    let engines = ladder_engines(specs)?;
    let engine = &engines[0];
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let shape = [C, WINDOW, V];
    let threads: Vec<Result<LadderThread, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|conn| {
                let router = server.router.clone();
                let addr = server.addr();
                s.spawn(move || -> Result<LadderThread, String> {
                    let tenant = TENANTS[conn];
                    let fail = |e: &dyn std::fmt::Debug| format!("ladder stream set-up: {e:?}");
                    let mut client = NetClient::connect(addr).map_err(|e| fail(&e))?;
                    let mut reference = session(&specs[0]);
                    let leaf = hypergraph_leaf(MODEL, Scale::Experiment);
                    let mut ids = [(0u64, 0u64, 0u64); CAMERAS];
                    for g in cameras(conn) {
                        let every = EMIT_EVERY as u32;
                        let a = client.open_stream(tenant, MODEL, every).map_err(|e| fail(&e))?;
                        let b =
                            router.open_stream(tenant, MODEL, EMIT_EVERY).map_err(|e| fail(&e))?;
                        let c = engine.open_stream(EMIT_EVERY).map_err(|e| fail(&e))?;
                        for k in 0..preroll(g) {
                            let f = windows.frame(g, k);
                            client.push_frame(tenant, a, &f).map_err(|e| fail(&e))?;
                            router.push_frame(tenant, b, &f).map_err(|e| fail(&e))?;
                            engine.push_frame(c, &f).map_err(|e| fail(&e))?;
                        }
                        ids[g] = (a, b, c);
                    }
                    let mut rec = Recorder::new();
                    let mut t = LadderThread::default();
                    'replay: for slot in 0..slots {
                        for g in cameras(conn) {
                            if Instant::now() >= deadline {
                                break 'replay;
                            }
                            let req = (g as u64) << 32 | slot as u64;
                            let (a, b, c) = ids[g];
                            let frame = windows.frame(g, preroll(g) + slot);
                            let net = rec.time(req, Rung::Net, None, || {
                                client.push_frame(tenant, a, &frame)
                            });
                            let routed = rec.time(req, Rung::Router, Some(Rung::Net), || {
                                router.push_frame(tenant, b, &frame)
                            });
                            let served = rec.time(req, Rung::Serve, Some(Rung::Router), || {
                                match engine.push_frame(c, &frame)? {
                                    Some(pending) => pending.wait().map(Some),
                                    None => Ok::<_, ServeError>(None),
                                }
                            });
                            let end = preroll(g) + slot + 1;
                            let want = emits(g, slot).then(|| {
                                let x = windows.stream_window(g, end, WINDOW);
                                let mut pair = x.clone();
                                pair.extend(windows.stream_window(g, end + EMIT_EVERY, WINDOW));
                                let want =
                                    forward_rungs(&mut rec, req, &mut reference, &x, &pair, &shape);
                                if let Some(leaf) = &leaf {
                                    with_worker_threads(|| {
                                        leaf.run(&mut rec, req, &x, C, WINDOW, V)
                                    });
                                }
                                want
                            });
                            let request = Request::PushFrame {
                                tenant: tenant.to_string(),
                                stream: a,
                                frame: frame.clone(),
                            };
                            let reply = OkPayload::Window(want.clone());
                            t.bytes.push(proto_roundtrip(&mut rec, req, &request, &reply) as f64);
                            t.attempted += 1;
                            t.models.push((req, 0));
                            match (net, routed, served) {
                                (Ok(x), Ok(y), Ok(z)) => {
                                    let agree = match &want {
                                        Some(w) => {
                                            x.as_deref().is_some_and(|x| same_bits(x, w))
                                                && y.as_ref()
                                                    .is_some_and(|y| same_bits(y.data(), w))
                                                && z.as_ref()
                                                    .is_some_and(|z| same_bits(z.data(), w))
                                        }
                                        None => x.is_none() && y.is_none() && z.is_none(),
                                    };
                                    if !agree {
                                        t.mismatches += 1;
                                        t.failed += 1;
                                    }
                                }
                                _ => t.failed += 1,
                            }
                        }
                    }
                    for g in cameras(conn) {
                        let (a, b, c) = ids[g];
                        let _ = client.close_stream(tenant, a);
                        let _ = router.close_stream(tenant, b);
                        engine.close_stream(c);
                    }
                    t.retries = client.retries_used() + client.reconnects();
                    t.spans = rec.into_spans();
                    Ok(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ladder thread panicked")).collect()
    });
    let threads: Vec<LadderThread> = threads.into_iter().collect::<Result<_, _>>()?;
    Ok(ServingLadder::new(threads, engines, specs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emissions_are_staggered_one_camera_per_period() {
        // camera g's ring first fills at slot g, then every 8th slot
        for slot in 0..64 {
            let emitting: Vec<usize> = (0..CAMERAS).filter(|&g| emits(g, slot)).collect();
            assert_eq!(emitting, [slot % EMIT_EVERY], "slot {slot}");
        }
        // no pre-roll frame completes a window
        assert!((0..CAMERAS).all(|g| preroll(g) < WINDOW));
    }
}
