//! Wire-level chaos integration suite: the TCP serving stack under
//! seeded transport fault injection.
//!
//! Contracts:
//!
//! - Under a seeded storm of `conn-drop` / `frame-truncate` /
//!   `frame-corrupt` / `reply-delay` / `accept-reject`, at 1, 2 and 8
//!   serve workers, every request a self-healing [`NetClient`] sends
//!   resolves to logits bitwise-equal to in-process
//!   [`InferenceSession::logits`] or to a typed [`NetError`] — never a
//!   hang, never silent corruption — and the router's accounting
//!   conserves (retries are replayed from the reply cache, not
//!   re-executed).
//! - A client with retries disabled surfaces wire damage as a typed
//!   error immediately (the fault machinery itself never panics).
//! - A hot-swap whose reply is lost executes exactly once.

use dhgcn::nn::fault::{FaultPlan, FaultSite};
use dhgcn::skeleton::SkeletonTopology;
use dhgcn::tensor::{NdArray, Tensor};
use dhgcn::train::checkpoint;
use dhgcn::train::net::{ClientConfig, NetClient, NetConfig, NetError, NetServer};
use dhgcn::train::router::{zoo_specs, Router, RouterConfig};
use dhgcn::train::zoo::Zoo;
use dhgcn::train::InferenceSession;
use std::sync::Arc;
use std::time::Duration;

const MODELS: [&str; 2] = ["ST-GCN", "DHGCN-lite"];
const TENANTS: [&str; 2] = ["acme", "globex"];
const SEED: u64 = 0xCAFE_BABE;

fn sample(seed: usize) -> Vec<f32> {
    (0..3 * 8 * 25).map(|i| ((i + seed * 131) as f32 * 0.013).sin()).collect()
}

fn reference_logits(model: &str, x: &[f32]) -> Vec<f32> {
    let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    let mut session = InferenceSession::new(zoo.by_name(model).expect("zoo"));
    let batch1 =
        Tensor::constant(NdArray::from_vec(x.to_vec(), &[3, 8, 25]).reshape(&[1, 3, 8, 25]));
    session.logits(&batch1).data()[..4].to_vec()
}

fn start_stack(workers: usize, faults: Option<Arc<FaultPlan>>) -> (Arc<Router>, NetServer) {
    let router = Arc::new(
        Router::start(
            zoo_specs(&MODELS, 4, 0),
            RouterConfig { total_workers: workers, ..RouterConfig::default() },
        )
        .expect("router"),
    );
    let server = NetServer::start(
        router.clone(),
        NetConfig {
            read_timeout: Duration::from_secs(5),
            idle_tick: Duration::from_millis(10),
            faults,
            ..NetConfig::default()
        },
    )
    .expect("server");
    (router, server)
}

fn healing_client(addr: std::net::SocketAddr) -> NetClient {
    NetClient::connect_config(
        addr,
        ClientConfig {
            reply_timeout: Duration::from_secs(5),
            retries: 10,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

#[test]
fn storm_replies_are_bitwise_or_typed_and_accounting_conserves() {
    for workers in [1, 2, 8] {
        let faults = FaultPlan::builder(SEED)
            .rate(FaultSite::ConnDrop, 0.05)
            .rate(FaultSite::FrameCorrupt, 0.08)
            .rate(FaultSite::FrameTruncate, 0.05)
            .rate(FaultSite::ReplyDelay, 0.10)
            .delay(Duration::from_millis(1))
            .rate(FaultSite::AcceptReject, 0.25)
            .limit(FaultSite::AcceptReject, 6)
            .build();
        let (router, server) = start_stack(workers, Some(faults.clone()));
        let addr = server.addr();

        let per_tenant = 16usize;
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|tenant| {
                let tenant = tenant.to_string();
                std::thread::spawn(move || {
                    let mut client = healing_client(addr);
                    let mut served = 0usize;
                    let mut typed = 0usize;
                    for s in 0..per_tenant {
                        let model = MODELS[s % MODELS.len()];
                        match client.infer(&tenant, model, &sample(s)) {
                            Ok(got) => {
                                assert_eq!(
                                    got,
                                    reference_logits(model, &sample(s)),
                                    "{workers} workers: surviving reply diverged under the storm"
                                );
                                served += 1;
                            }
                            // typed errors are within contract; a panic or
                            // a hang would fail the test harness instead
                            Err(_) => typed += 1,
                        }
                    }
                    (served, typed)
                })
            })
            .collect();
        let mut served = 0usize;
        for h in handles {
            served += h.join().expect("client thread survives the storm").0;
        }
        assert!(served > 0, "{workers} workers: the storm starved every request");

        // the storm must have actually fired on the wire
        let wire_trips: u64 = FaultSite::WIRE.iter().map(|&s| faults.trips(s)).sum();
        assert!(wire_trips > 0, "{workers} workers: no wire fault tripped — the storm proved nothing");

        // conservation: everything the engines accepted resolved exactly
        // once; replayed retries came from the reply cache
        let parsed = dhgcn::train::json::Value::parse(&router.health_json()).expect("json");
        let models = parsed.get("models").expect("models");
        for model in MODELS {
            let m = models.get(model).expect("model entry");
            let count = |k: &str| m.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            assert_eq!(
                count("accepted"),
                count("completed") + count("failed") + count("bad_output")
                    + count("deadline_exceeded"),
                "{workers} workers: {model}: accepted work leaked under the storm"
            );
        }
        server.shutdown();
        router.shutdown();
    }
}

#[test]
fn without_retries_wire_damage_is_a_typed_error_not_a_hang() {
    // every reply corrupted: a retry-less client must surface the CRC
    // failure typed on the first attempt
    let faults = FaultPlan::builder(SEED ^ 1)
        .rate(FaultSite::FrameCorrupt, 1.0)
        .limit(FaultSite::FrameCorrupt, 1)
        .build();
    let (router, server) = start_stack(1, Some(faults));
    let addr = server.addr();
    let mut client = NetClient::connect_config(
        addr,
        ClientConfig {
            reply_timeout: Duration::from_secs(5),
            retries: 0,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let err = client.infer("acme", "ST-GCN", &sample(0)).expect_err("corrupted reply");
    assert!(
        matches!(err, NetError::Proto(_) | NetError::Io(_)),
        "corruption must be typed transport damage, got {err:?}"
    );
    assert_eq!(client.retries_used(), 0, "retries were disabled");
    // the connection heals on the next call (reconnect is part of the
    // send path, not retry)
    let got = client.infer("acme", "ST-GCN", &sample(1)).expect("clean second call");
    assert_eq!(got, reference_logits("ST-GCN", &sample(1)));
    server.shutdown();
    router.shutdown();
}

#[test]
fn swap_with_lost_reply_executes_exactly_once() {
    // the first written reply is truncated mid-frame: the swap executes,
    // the client never sees the version — its retry must be answered
    // from the reply cache, not a second swap
    let faults = FaultPlan::builder(SEED ^ 2)
        .rate(FaultSite::FrameTruncate, 1.0)
        .limit(FaultSite::FrameTruncate, 1)
        .build();
    let (router, server) = start_stack(1, Some(faults.clone()));
    let addr = server.addr();
    let model = "DHGCN-lite";
    let zoo_v2 = Zoo::tiny(SkeletonTopology::ntu25(), 4, 7);
    let v2_bytes = checkpoint::save(&zoo_v2.by_name(model).expect("zoo")).to_vec();

    let mut client = healing_client(addr);
    let version = client.swap(model, &v2_bytes).expect("swap heals through the lost reply");
    assert_eq!(version, 2, "the replayed reply must carry the original version");
    assert_eq!(faults.trips(FaultSite::FrameTruncate), 1, "the reply was never lost");
    assert!(client.retries_used() >= 1, "the client never needed its retry budget");
    assert_eq!(
        router.version(model),
        Some(2),
        "the retried swap re-executed: version advanced twice"
    );
    server.shutdown();
    router.shutdown();
}
