//! Loopback integration suite for the TCP serving frontend.
//!
//! The serving contract extends over the wire: logits delivered through
//! `NetClient → NetServer → Router → ServeEngine` must be **bitwise
//! identical** to in-process [`InferenceSession::logits`] on the same
//! inputs, for every model and tenant concurrently. Hot-swap must lose
//! zero accepted requests — every request in flight across the switch
//! gets either a correct reply (from the version that accepted it) or a
//! typed error — a vet-failing checkpoint must be refused with the
//! old version still serving, and a canary whose output breaches quality
//! must roll back with the stable version still serving bitwise.

use dhgcn::skeleton::SkeletonTopology;
use dhgcn::tensor::{NdArray, Tensor};
use dhgcn::train::checkpoint;
use dhgcn::train::net::{NetClient, NetConfig, NetError, NetServer};
use dhgcn::train::proto::Status;
use dhgcn::train::router::{zoo_specs, Router, RouterConfig};
use dhgcn::train::zoo::Zoo;
use dhgcn::train::InferenceSession;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MODELS: [&str; 2] = ["ST-GCN", "DHGCN-lite"];
const TENANTS: [&str; 2] = ["acme", "globex"];

fn sample(seed: usize) -> Vec<f32> {
    (0..3 * 8 * 25).map(|i| ((i + seed * 131) as f32 * 0.013).sin()).collect()
}

fn frame(t: usize) -> Vec<f32> {
    (0..3 * 25).map(|i| ((t * 3 * 25 + i) as f32 * 0.011).sin()).collect()
}

/// In-process reference logits for one flat sample.
fn reference_logits(session: &mut InferenceSession<Box<dyn dhgcn::nn::Module>>, x: &[f32]) -> Vec<f32> {
    let batch1 = Tensor::constant(NdArray::from_vec(x.to_vec(), &[3, 8, 25]).reshape(&[1, 3, 8, 25]));
    session.logits(&batch1).data()[..4].to_vec()
}

fn start_server() -> (Arc<Router>, NetServer) {
    let router = Arc::new(
        Router::start(zoo_specs(&MODELS, 4, 0), RouterConfig::default()).expect("router"),
    );
    let server = NetServer::start(router.clone(), NetConfig::default()).expect("server");
    (router, server)
}

#[test]
fn serves_two_models_to_two_tenants_bitwise_identical_over_tcp() {
    let (_router, server) = start_server();
    let addr = server.addr();

    // 2 models × 2 tenants, each pair hammering concurrently over its
    // own keep-alive connection
    let handles: Vec<_> = MODELS
        .iter()
        .flat_map(|model| TENANTS.iter().map(move |tenant| (*model, *tenant)))
        .enumerate()
        .map(|(lane, (model, tenant))| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                (0..6)
                    .map(|i| {
                        let seed = lane * 100 + i;
                        let x = sample(seed);
                        let logits =
                            client.infer(tenant, model, &x).expect("infer over tcp");
                        (model, seed, logits)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut replies = Vec::new();
    for h in handles {
        replies.extend(h.join().expect("client thread"));
    }

    // every reply bitwise-identical to in-process inference
    let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    for model in MODELS {
        let mut session = InferenceSession::new(zoo.by_name(model).expect("zoo"));
        for (m, seed, got) in replies.iter().filter(|(m, ..)| *m == model) {
            let want = reference_logits(&mut session, &sample(*seed));
            assert_eq!(got, &want, "{m} seed {seed} diverged over TCP");
        }
    }

    // streaming over the wire: the first emitted window is bitwise the
    // offline window logits. Each frame is generated once and the same
    // buffer feeds both sides: recomputing it for the reference can
    // differ in the last bit under release optimisation
    let frames: Vec<Vec<f32>> = (0..8).map(frame).collect();
    let mut client = NetClient::connect(addr).expect("connect");
    let stream = client.open_stream("acme", "ST-GCN", 1).expect("open stream");
    for f in &frames[..7] {
        assert_eq!(client.push_frame("acme", stream, f).expect("warmup"), None);
    }
    let got = client
        .push_frame("acme", stream, &frames[7])
        .expect("emit")
        .expect("full window emits");
    let window = NdArray::from_vec(frames.concat(), &[8, 3, 25])
        .permute(&[1, 0, 2])
        .reshape(&[1, 3, 8, 25]);
    let mut session = InferenceSession::new(zoo.by_name("ST-GCN").expect("zoo"));
    let want = session.logits(&Tensor::constant(window));
    assert_eq!(got, want.data()[..4].to_vec(), "streamed window diverged over TCP");
    assert!(client.close_stream("acme", stream).expect("close"));
    assert!(!client.close_stream("acme", stream).expect("double close reads closed"));

    // health reflects both models and both tenants
    let health = client.health().expect("health");
    let parsed = dhgcn::train::json::Value::parse(&health).expect("health is valid json");
    for model in MODELS {
        let entry = parsed.get("models").and_then(|m| m.get(model)).expect("model in health");
        assert_eq!(entry.get("version").and_then(|v| v.as_f64()), Some(1.0));
    }
    for tenant in TENANTS {
        parsed.get("tenants").and_then(|t| t.get(tenant)).expect("tenant in health");
    }

    // typed errors survive the wire
    let err = client.infer("acme", "NoSuchModel", &sample(0)).expect_err("unknown model");
    assert!(
        matches!(&err, NetError::Remote { status: Status::UnknownModel, .. }),
        "{err:?}"
    );
    let err = client.infer("acme", "ST-GCN", &[1.0, 2.0]).expect_err("bad shape");
    assert!(matches!(&err, NetError::Remote { status: Status::BadShape, .. }), "{err:?}");

    server.shutdown();
}

#[test]
fn hot_swap_mid_load_loses_no_accepted_requests() {
    let (_router, server) = start_server();
    let addr = server.addr();
    let model = "DHGCN-lite";

    // v2 weights: same architecture, different seed
    let zoo_v1 = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    let zoo_v2 = Zoo::tiny(SkeletonTopology::ntu25(), 4, 7);
    let v2_bytes = checkpoint::save(&zoo_v2.by_name(model).expect("zoo"));

    // both tenants hammer the model across the swap; every reply must
    // be bitwise v1 logits, bitwise v2 logits, or a typed server error
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = TENANTS
        .iter()
        .map(|tenant| {
            let stop = stop.clone();
            let tenant = *tenant;
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut replies: Vec<(usize, Result<Vec<f32>, NetError>)> = Vec::new();
                let mut seed = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    replies.push((seed, client.infer(tenant, model, &sample(seed))));
                    seed += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                replies
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let mut admin = NetClient::connect(addr).expect("connect admin");
    let version = admin.swap(model, &v2_bytes.to_vec()).expect("swap");
    assert_eq!(version, 2, "first swap must produce version 2");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);

    let mut v1_session = InferenceSession::new(zoo_v1.by_name(model).expect("zoo"));
    let loaded = zoo_v1.by_name(model).expect("zoo");
    checkpoint::load(&loaded, checkpoint::save(&zoo_v2.by_name(model).expect("zoo")))
        .expect("v2 restores");
    let mut v2_session = InferenceSession::new(loaded);

    let mut served = 0usize;
    let mut typed_errors = 0usize;
    for h in hammers {
        for (seed, reply) in h.join().expect("hammer thread") {
            match reply {
                Ok(got) => {
                    let v1 = reference_logits(&mut v1_session, &sample(seed));
                    let v2 = reference_logits(&mut v2_session, &sample(seed));
                    assert!(
                        got == v1 || got == v2,
                        "seed {seed}: reply matches neither weight version"
                    );
                    served += 1;
                }
                // an accepted-then-failed request must surface typed,
                // never as a dropped connection or garbled frame
                Err(NetError::Remote { .. }) => typed_errors += 1,
                Err(other) => panic!("seed {seed}: request lost untyped: {other:?}"),
            }
        }
    }
    assert!(served > 0, "the swap window must not starve all traffic");
    // after the swap settles, fresh requests serve v2 bitwise
    let x = sample(9001);
    let got = admin.infer("acme", model, &x).expect("post-swap infer");
    assert_eq!(got, reference_logits(&mut v2_session, &x), "post-swap logits are not v2");
    // surfaced for the log: how the swap window split
    println!("swap window: {served} served, {typed_errors} typed errors");

    server.shutdown();
}

#[test]
fn canary_lifecycle_over_the_wire() {
    // promote after 3 clean replies so the lifecycle fits a fast test
    let router = Arc::new(
        Router::start(
            zoo_specs(&MODELS, 4, 0),
            RouterConfig { canary_promote_after: 3, ..RouterConfig::default() },
        )
        .expect("router"),
    );
    let server = NetServer::start(router.clone(), NetConfig::default()).expect("server");
    let addr = server.addr();
    let model = "DHGCN-lite";
    let zoo_v2 = Zoo::tiny(SkeletonTopology::ntu25(), 4, 7);
    let v2_bytes = checkpoint::save(&zoo_v2.by_name(model).expect("zoo")).to_vec();
    let mut client = NetClient::connect(addr).expect("connect");

    // bad fractions refuse typed over the wire, nothing staged
    let err = client.swap_canary(model, &v2_bytes, 0.0).expect_err("zero fraction");
    assert!(matches!(&err, NetError::Remote { status: Status::BadFraction, .. }), "{err:?}");

    // stage at fraction 1.0: every request rides the candidate
    let candidate = client.swap_canary(model, &v2_bytes, 1.0).expect("stage");
    assert_eq!(candidate, 2);
    // a full swap is refused typed while the canary is staged
    let err = client.swap(model, &v2_bytes).expect_err("swap during canary");
    assert!(matches!(&err, NetError::Remote { status: Status::CanaryActive, .. }), "{err:?}");
    // health shows the staged canary
    let parsed =
        dhgcn::train::json::Value::parse(&client.health().expect("health")).expect("json");
    let entry = parsed.get("models").and_then(|m| m.get(model)).expect("model entry");
    let canary = entry.get("canary").expect("canary field");
    assert_eq!(canary.get("version").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(canary.get("fraction_bp").and_then(|v| v.as_f64()), Some(10_000.0));

    // v2 reference: v1 constructor + v2 weights
    let loaded = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0).by_name(model).expect("zoo");
    checkpoint::load(&loaded, checkpoint::save(&zoo_v2.by_name(model).expect("zoo")))
        .expect("v2 restores");
    let mut v2_session = InferenceSession::new(loaded);
    for s in 0..3 {
        let x = sample(s);
        let got = client.infer("acme", model, &x).expect("canary serves");
        assert_eq!(got, reference_logits(&mut v2_session, &x), "canary reply is not v2");
    }
    // three clean replies → auto-promoted, canary gone from health
    assert_eq!(router.version(model), Some(2), "canary did not auto-promote");
    let parsed =
        dhgcn::train::json::Value::parse(&client.health().expect("health")).expect("json");
    let entry = parsed.get("models").and_then(|m| m.get(model)).expect("model entry");
    assert!(matches!(entry.get("canary"), Some(dhgcn::train::json::Value::Null)));
    assert_eq!(entry.get("canary_promotions").and_then(|v| v.as_f64()), Some(1.0));

    // a poisoned candidate: finite weights the vet accepts, but the last
    // two parameters at f32::MAX overflow the forward
    let poisoned = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0).by_name(model).expect("zoo");
    for p in poisoned.parameters().iter().rev().take(2) {
        p.data_mut().data_mut().fill(f32::MAX);
    }
    let poison_bytes = checkpoint::save(&poisoned).to_vec();
    let candidate = client.swap_canary(model, &poison_bytes, 1.0).expect("vet accepts the poison");
    assert_eq!(candidate, 3);
    // its first reply is a typed quality breach, which rolls it back
    let err = client.infer("acme", model, &sample(99)).expect_err("poisoned reply");
    assert!(matches!(&err, NetError::Remote { status: Status::BadOutput, .. }), "{err:?}");
    assert_eq!(router.version(model), Some(2), "rollback must keep the stable version");
    let x = sample(7);
    let got = client.infer("acme", model, &x).expect("stable version serves after rollback");
    assert_eq!(got, reference_logits(&mut v2_session, &x), "stable reply is not v2 after rollback");
    // health observed both transitions and shows no staged canary
    let parsed =
        dhgcn::train::json::Value::parse(&client.health().expect("health")).expect("json");
    let entry = parsed.get("models").and_then(|m| m.get(model)).expect("model entry");
    assert!(matches!(entry.get("canary"), Some(dhgcn::train::json::Value::Null)));
    assert_eq!(entry.get("canary_promotions").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(entry.get("canary_rollbacks").and_then(|v| v.as_f64()), Some(1.0));

    server.shutdown();
}

#[test]
fn duplicate_request_ids_replay_the_cached_reply_without_reexecution() {
    use dhgcn::train::proto::{encode_request, read_frame, write_frame, Request};
    use std::io::Write as _;

    let (router, server) = start_server();
    let addr = server.addr();
    let max_frame = 16 << 20;

    // hand-rolled wire exchange so the same req_id can be sent twice —
    // exactly what a self-healing client does after a lost reply
    let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("deadline");
    let body = encode_request(
        0xABCD_0001,
        &Request::Infer {
            tenant: "acme".to_string(),
            model: "ST-GCN".to_string(),
            input: sample(5),
        },
    );
    write_frame(&mut stream, &body, max_frame).expect("first send");
    let first = read_frame(&mut stream, max_frame).expect("first reply");
    write_frame(&mut stream, &body, max_frame).expect("duplicate send");
    let second = read_frame(&mut stream, max_frame).expect("replayed reply");
    stream.flush().expect("flush");

    // byte-identical replay...
    assert_eq!(first, second, "replayed reply differs from the original");
    // ...and the engine executed once: one request accepted, not two
    let parsed = dhgcn::train::json::Value::parse(&router.health_json()).expect("json");
    let entry = parsed.get("models").and_then(|m| m.get("ST-GCN")).expect("model entry");
    assert_eq!(
        entry.get("accepted").and_then(|v| v.as_f64()),
        Some(1.0),
        "the duplicate request was re-executed instead of replayed"
    );

    server.shutdown();
}

#[test]
fn vet_failing_checkpoints_are_refused_and_old_version_keeps_serving() {
    let (router, server) = start_server();
    let addr = server.addr();
    let model = "ST-GCN";
    let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    let good = checkpoint::save(&zoo.by_name(model).expect("zoo"));
    let mut client = NetClient::connect(addr).expect("connect");

    // corrupt checkpoint: typed refusal over the wire
    let err = client.swap(model, &good[..good.len() / 2]).expect_err("truncated refused");
    assert!(
        matches!(&err, NetError::Remote { status: Status::SwapCheckpoint, .. }),
        "{err:?}"
    );
    // unknown model: typed refusal
    let err = client.swap("NoSuchModel", &good.to_vec()).expect_err("unknown refused");
    assert!(matches!(&err, NetError::Remote { status: Status::UnknownModel, .. }), "{err:?}");

    // the old version is untouched and still serving bitwise
    assert_eq!(router.version(model), Some(1));
    let x = sample(33);
    let mut session = InferenceSession::new(zoo.by_name(model).expect("zoo"));
    let got = client.infer("acme", model, &x).expect("still serving");
    assert_eq!(got, reference_logits(&mut session, &x), "old version drifted after refusals");

    server.shutdown();
}
