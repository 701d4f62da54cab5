//! The serving stack under test and the closed-loop wire workloads.
//!
//! `wire-tiny` and `forward-exp` drive `NetClient::infer` from two client
//! threads over two keep-alive connections (tenants `acme` and `globex`),
//! closed loop: each client sends its next request when the previous
//! reply arrives. The traced run then replays each client's requests
//! down the ladder ([`infer_ladder`]).

use crate::inputs::{digest, same_bits, Windows};
use crate::leaves::{gemm_gflops, plan_cost, proto_roundtrip, HypergraphLeaf, PlanCost};
use crate::report::{metric, nproc, steal_by_window, Outcome};
use crate::stats::{mean, median, Latencies, Windowed};
use crate::trace::{per_request_ms, self_times_ms, self_times_reaching_ms, Recorder, Rung, Span};
use dhg_nn::Module;
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor};
use dhg_train::proto::{OkPayload, Request};
use dhg_train::router::ModelFactory;
use dhg_train::zoo::Zoo;
use dhg_train::{
    zoo_specs, InferenceSession, ModelSpec, NetClient, NetConfig, NetServer, Router, RouterConfig,
    ServeConfig, ServeEngine,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Classes of every served model (NTU-60 geometry).
pub const N_CLASSES: usize = 60;
/// Constructor seed of every served model; the server's weights are
/// fixed, only the inputs follow `--seed`.
pub const MODEL_SEED: u64 = 0;
/// One tenant per client connection.
pub const TENANTS: [&str; 2] = ["acme", "globex"];
/// Channels and joints of every input (NTU-25 skeletons, xyz).
pub const C: usize = 3;
/// Joints.
pub const V: usize = 25;
/// Timed calls per thread count in the GEMM leaf.
const GEMM_REPS: usize = 30;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Equal time windows the measured phase is split into; throughput and
/// median latency are the median window's.
pub const WINDOWS: usize = 9;

/// Which zoo scale a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `Zoo::tiny` at `T = 8` (the routing table tests use).
    Tiny,
    /// `Zoo::new`: the experiment-calibrated 24-24-48 backbone.
    Experiment,
}

impl Scale {
    /// The zoo constructor for this scale.
    pub fn zoo(self) -> Zoo {
        let topology = SkeletonTopology::ntu25();
        match self {
            Scale::Tiny => Zoo::tiny(topology, N_CLASSES, MODEL_SEED),
            Scale::Experiment => Zoo::new(topology, N_CLASSES, MODEL_SEED),
        }
    }
}

/// Router specs for `models` at `scale` and window `t`.
pub fn specs(models: &[&str], scale: Scale, t: usize) -> Vec<ModelSpec> {
    match scale {
        Scale::Tiny => {
            assert_eq!(t, 8, "the tiny routing table serves T = 8");
            zoo_specs(models, N_CLASSES, MODEL_SEED)
        }
        Scale::Experiment => models
            .iter()
            .map(|&name| {
                let owned = name.to_string();
                let factory: ModelFactory = Arc::new(move || {
                    Scale::Experiment.zoo().by_name(&owned).expect("model is in the zoo registry")
                });
                ModelSpec { name: name.to_string(), factory, sample_shape: vec![C, t, V] }
            })
            .collect(),
    }
}

/// One route per tenant to its own replica engine of `model` (named
/// `model/tenant`), so two clients never coalesce into one batch.
pub fn dedicated_specs(model: &str, scale: Scale, t: usize) -> Vec<ModelSpec> {
    let base = specs(&[model], scale, t).remove(0);
    TENANTS
        .iter()
        .map(|tenant| ModelSpec { name: format!("{model}/{tenant}"), ..base.clone() })
        .collect()
}

/// Metric-name slug of a route name.
pub fn slug(route: &str) -> String {
    route.to_ascii_lowercase().replace([' ', '/'], ".")
}

/// The router configuration every serving workload runs: defaults, with
/// the worker budget set to `nproc`.
pub fn router_config() -> RouterConfig {
    RouterConfig { total_workers: nproc(), ..RouterConfig::default() }
}

/// Record the server configuration in `out`.
pub fn record_server_config(out: &mut Outcome, n_models: usize) {
    let rc = router_config();
    out.config("router.total_workers", rc.total_workers);
    out.config("serve.workers_per_model", (rc.total_workers / n_models.max(1)).max(1));
    out.config("serve.max_batch", rc.serve.max_batch);
    out.config("serve.max_wait_ms", rc.serve.max_wait.as_secs_f64() * 1e3);
    out.config("serve.queue_cap", rc.serve.queue_cap);
    out.config("serve.threads_per_worker", rc.serve.threads_per_worker);
    out.config("router.tenant_quota", rc.tenant_quota);
}

/// A running router behind a TCP listener.
pub struct Server {
    /// The router, shared with the listener and the in-process rungs.
    pub router: Arc<Router>,
    net: NetServer,
}

impl Server {
    /// Start a router over `specs` and bind a loopback listener.
    pub fn start(specs: Vec<ModelSpec>) -> Result<Server, String> {
        let router = Arc::new(
            Router::start(specs, router_config()).map_err(|e| format!("router start: {e:?}"))?,
        );
        let net = NetServer::start(router.clone(), NetConfig::default())
            .map_err(|e| format!("listener start: {e:?}"))?;
        Ok(Server { router, net })
    }

    /// The listener's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.net.addr()
    }

    /// Stop the listener, then drain and join every engine.
    pub fn stop(self) {
        self.net.shutdown();
        self.router.shutdown();
    }
}

/// `InferenceSession` over a fresh replica from `spec` — the offline
/// reference every wire reply is compared against.
pub fn session(spec: &ModelSpec) -> InferenceSession<Box<dyn Module>> {
    InferenceSession::new((spec.factory)())
}

/// Offline logits of one flat sample of shape `shape`.
pub fn logits(
    session: &mut InferenceSession<Box<dyn Module>>,
    x: &[f32],
    shape: &[usize],
) -> Vec<f32> {
    let mut batched = vec![1];
    batched.extend_from_slice(shape);
    session.logits(&Tensor::constant(NdArray::from_vec(x.to_vec(), &batched))).data().to_vec()
}

/// Time `count` (at least one) set-ups with `once` and keep the last
/// one running: every earlier one is torn down with `stop`.
pub fn timed_setups<S>(
    count: usize,
    mut once: impl FnMut() -> Result<S, String>,
    stop: impl Fn(S),
) -> Result<(Vec<f64>, S), String> {
    let mut times = Vec::with_capacity(count);
    loop {
        let t0 = Instant::now();
        let s = once()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= count {
            return Ok((times, s));
        }
        stop(s);
    }
}

/// A closed-loop wire workload.
pub struct WireWorkload {
    /// Zoo models, served round-robin.
    pub models: &'static [&'static str],
    /// Zoo scale.
    pub scale: Scale,
    /// Window length.
    pub t: usize,
    /// Give each client its own replica route of `models[0]` instead
    /// of round-robin over shared routes.
    pub dedicated: bool,
    /// Distinct inputs per client: every request's (`None`), or a cycle
    /// over this many.
    pub input_pool: Option<u64>,
    /// Whether the infer rung should be the majority of the round trip.
    pub infer_majority: bool,
}

impl WireWorkload {
    /// The routing table.
    fn specs(&self) -> Vec<ModelSpec> {
        if self.dedicated {
            dedicated_specs(self.models[0], self.scale, self.t)
        } else {
            specs(self.models, self.scale, self.t)
        }
    }

    /// Input index of request `index`.
    fn input(&self, index: u64) -> u64 {
        self.input_pool.map_or(index, |pool| index % pool)
    }

    /// Route index of request `index` from `client`: its own route, or
    /// round-robin with the clients a step apart.
    fn route(&self, client: u64, index: u64, n_routes: usize) -> usize {
        if self.dedicated {
            client as usize
        } else {
            (index + client) as usize % n_routes
        }
    }
}

/// One reply of the measured phase.
struct Reply {
    input: u64,
    model: usize,
    /// Reply time, s since the client's start.
    at: f64,
    ms: f64,
    /// Digest of the reply's logits; `None` if the request failed.
    digest: Option<u64>,
    /// The digest matched the offline reference.
    verified: bool,
}

/// What one client thread measured.
struct ClientRun {
    replies: Vec<Reply>,
    retries: u64,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    w: &WireWorkload,
    addr: std::net::SocketAddr,
    client_id: u64,
    specs: &[ModelSpec],
    windows: &Windows,
    seed: u64,
    seconds: f64,
    barrier: &Barrier,
) -> Result<ClientRun, String> {
    let client = NetClient::connect(addr).map_err(|e| format!("connect: {e:?}"));
    // reach the start barrier even on failure, so no thread waits forever
    barrier.wait();
    let mut client = client?;
    let tenant = TENANTS[client_id as usize];
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut replies = Vec::new();
    let mut index = 0u64;
    while Instant::now() < deadline {
        let model = w.route(client_id, index, specs.len());
        let input = w.input(index);
        let x = windows.request(seed, client_id, input);
        let t0 = Instant::now();
        let got = client.infer(tenant, &specs[model].name, &x);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let at = start.elapsed().as_secs_f64();
        let digest = got.ok().map(|l| digest(&l));
        replies.push(Reply { input, model, at, ms, digest, verified: false });
        index += 1;
    }
    // verification, outside the timed loop
    let mut sessions: Vec<_> = specs.iter().map(session).collect();
    let shape = [windows.c, windows.t, windows.v];
    let mut reference = std::collections::HashMap::new();
    for r in &mut replies {
        if let Some(got) = r.digest {
            let want = *reference.entry((r.model, r.input)).or_insert_with(|| {
                let x = windows.request(seed, client_id, r.input);
                digest(&logits(&mut sessions[r.model], &x, &shape))
            });
            r.verified = got == want;
        }
    }
    Ok(ClientRun { replies, retries: client.retries_used() + client.reconnects() })
}

/// Run a closed-loop wire workload; `traced` adds the ladder replay.
pub fn run_wire(
    w: &WireWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    record_server_config(&mut out, w.models.len());
    out.config("load", "closed loop, 2 client threads, 2 connections");
    out.config("routes", w.specs().iter().map(|s| s.name.clone()).collect::<Vec<_>>().join(","));
    out.config("window", format!("[{C}, {}, {V}]", w.t));
    let specs = w.specs();
    let windows = Windows::synth(8, 4, w.t, seed);
    let shape = [C, w.t, V];

    // the first request's reference is computed before the clock starts
    let x0 = windows.request(seed, 0, 0);
    let want0 = logits(&mut session(&specs[0]), &x0, &shape);
    let (setups, server) = timed_setups(
        SETUPS,
        || {
            let server = Server::start(specs.clone())?;
            let mut client =
                NetClient::connect(server.addr()).map_err(|e| format!("connect: {e:?}"))?;
            let got = client
                .infer(TENANTS[0], &specs[0].name, &x0)
                .map_err(|e| format!("first request: {e:?}"))?;
            if !same_bits(&got, &want0) {
                return Err("first reply differs from the offline logits".into());
            }
            Ok(server)
        },
        Server::stop,
    )?;

    // the clients and this thread (which samples CPU steal per window)
    // start together
    let barrier = Barrier::new(TENANTS.len() + 1);
    let (runs, steal) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS.len() as u64)
            .map(|c| {
                let (specs, windows, barrier) = (&specs, &windows, &barrier);
                let addr = server.addr();
                s.spawn(move || client_loop(w, addr, c, specs, windows, seed, seconds, barrier))
            })
            .collect();
        barrier.wait();
        let steal = steal_by_window(Instant::now(), seconds, WINDOWS);
        let runs: Vec<Result<ClientRun, String>> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (runs, steal)
    });
    let runs: Vec<ClientRun> = runs.into_iter().collect::<Result<_, _>>()?;

    // a failed request and a wrong reply both miss every limit
    let mut lat = Latencies::default();
    let mut windowed = Windowed::new(WINDOWS, seconds);
    out.config("window_steal", format!("{steal:.3?}"));
    windowed.set_steal(steal);
    for r in runs.iter().flat_map(|r| &r.replies) {
        let ms = r.verified.then_some(r.ms);
        windowed.record(r.at, ms);
        match ms {
            Some(ms) => lat.ok(ms),
            None => lat.failed(),
        }
    }
    let all = runs.iter().flat_map(|r| &r.replies);
    out.attempted = lat.attempted() as u64;
    out.failed = lat.n_failed() as u64;
    out.mismatches = all.filter(|r| r.digest.is_some() && !r.verified).count() as u64;

    let rps = windowed.rate();
    let p50 = windowed.percentile(50.0);
    let tail = lat.tail(99.0);
    let setup_s = median(&setups);
    out.distribution("latency_ms", lat.values());
    out.distribution("setup_s", &setups);
    out.config("tail_percentile", tail.map_or("none".into(), |(p, _)| format!("p{p}")));
    out.config("windows", format!("{WINDOWS}; rps and p50 are medians over the quiet windows"));
    out.named.push(metric("rps", rps, "req/s"));
    out.named.push(crate::report::Metric { name: "latency_p50_ms".into(), value: p50, unit: "ms" });
    if let Some((p, v)) = tail {
        out.named.push(crate::report::Metric {
            name: format!("latency_p{p}_ms"),
            value: v,
            unit: "ms",
        });
    }
    for p in [90.0, 95.0] {
        if let Some(v) = lat.percentile(p) {
            out.detail.push(metric(format!("latency_p{p}_ms"), v, "ms"));
        }
    }
    out.named.push(metric("setup_s", setup_s, "s"));
    let retries: u64 = runs.iter().map(|r| r.retries).sum();

    if traced {
        // replay each client's own requests, in the order it sent them
        let ops: Vec<Vec<(u64, usize)>> =
            runs.iter().map(|r| r.replies.iter().map(|x| (x.input, x.model)).collect()).collect();
        let ladder = infer_ladder(&server, &specs, w.scale, &windows, seed, &ops, seconds * 0.5)?;
        ladder.report(&mut out, &server, retries, p50, w.infer_majority);
        crate::training::ladder_for_serving(&mut out, w.scale, w.models[0], seed)?;
        // a closed loop has no schedule to fall behind
        out.layers.push(metric("load.late_frac", 0.0, "frac"));
    }
    server.stop();
    crate::finish_e2e(&mut out, setup_s, p50);
    Ok(out)
}

/// Run `f` at the kernel thread count the serve engine's workers use, so
/// the in-process rungs compute exactly as the server does.
pub fn with_worker_threads<R>(f: impl FnOnce() -> R) -> R {
    dhg_tensor::parallel::with_threads(router_config().serve.threads_per_worker, f)
}

/// The `infer` rung (batch 1 on `x`) and the batch-2 rung (on `pair`,
/// `x` followed by the next input), at the workers' thread count.
/// Returns the batch-1 logits row.
pub fn forward_rungs(
    rec: &mut Recorder,
    req: u64,
    session: &mut InferenceSession<Box<dyn Module>>,
    x: &[f32],
    pair: &[f32],
    shape: &[usize; 3],
) -> Vec<f32> {
    let [c, t, v] = *shape;
    let x1 = Tensor::constant(NdArray::from_vec(x.to_vec(), &[1, c, t, v]));
    let x2 = Tensor::constant(NdArray::from_vec(pair.to_vec(), &[2, c, t, v]));
    with_worker_threads(|| {
        let want = rec.time(req, Rung::Infer, Some(Rung::Serve), || session.logits(&x1));
        rec.time(req, Rung::InferB2, Some(Rung::Infer), || session.logits(&x2));
        want.data().to_vec()
    })
}

/// Per-thread result of a ladder replay.
#[derive(Default)]
pub struct LadderThread {
    /// Spans recorded by the thread.
    pub spans: Vec<Span>,
    /// Operations replayed.
    pub attempted: u64,
    /// Operations that failed on any rung.
    pub failed: u64,
    /// Replies on any rung that differed from the `infer` rung.
    pub mismatches: u64,
    /// Wire bytes per operation (request + reply frames).
    pub bytes: Vec<f64>,
    /// Client retries plus reconnects.
    pub retries: u64,
    /// `(request id, model index)` of every replayed operation.
    pub models: Vec<(u64, usize)>,
}

/// Everything a serving ladder measured.
pub struct ServingLadder {
    /// Merged thread results.
    pub threads: Vec<LadderThread>,
    /// The in-process engines the `serve` rung used, one per model.
    pub engines: Vec<Arc<ServeEngine>>,
    /// Plan-IR costs per model.
    pub costs: Vec<PlanCost>,
    /// Model names.
    pub names: Vec<String>,
    /// The GEMM leaf, when a model has an im2col convolution.
    pub gemm: Option<GemmRates>,
    /// Kernel spans (GEMM).
    pub kernel_spans: Vec<Span>,
}

/// Packed-GEMM rates on one `(m, k, n)` shape.
#[derive(Clone, Copy, Debug)]
pub struct GemmRates {
    /// GFLOP/s at one thread.
    pub one: f64,
    /// GFLOP/s at `nproc` threads.
    pub all: f64,
    /// The product's shape.
    pub shape: (usize, usize, usize),
}

/// Start one in-process engine per spec with the router's per-model
/// share of the worker budget — the `serve` rung.
pub fn ladder_engines(specs: &[ModelSpec]) -> Result<Vec<Arc<ServeEngine>>, String> {
    let rc = router_config();
    let workers = (rc.total_workers / specs.len().max(1)).max(1);
    specs
        .iter()
        .map(|spec| {
            let factory = spec.factory.clone();
            let config = ServeConfig { workers, ..rc.serve.clone() };
            ServeEngine::start(move || factory(), &spec.sample_shape, config)
                .map(Arc::new)
                .map_err(|e| format!("ladder engine: {e:?}"))
        })
        .collect()
}

/// Hypergraph leaf for a route's model, if it builds hypergraphs:
/// DHGCN builds one topology per block at the block's width; DHGCN-lite
/// builds one shared topology at its embedding width.
pub fn hypergraph_leaf(route: &str, scale: Scale) -> Option<HypergraphLeaf> {
    let zoo = scale.zoo();
    let widths = if route.starts_with("DHGCN-lite") {
        vec![dhg_core::DhgcnLiteConfig::new(zoo.dims).embed_channels]
    } else if route.starts_with("DHGCN") {
        zoo.stages.iter().map(|s| s.channels).collect()
    } else {
        return None;
    };
    Some(HypergraphLeaf::new(&zoo.topology, widths))
}

/// Replay `ops[client]` = `(input index, route)` down the ladder, one
/// thread per client, stopping each thread after `budget_s` seconds.
#[allow(clippy::too_many_arguments)]
pub fn infer_ladder(
    server: &Server,
    specs: &[ModelSpec],
    scale: Scale,
    windows: &Windows,
    seed: u64,
    ops: &[Vec<(u64, usize)>],
    budget_s: f64,
) -> Result<ServingLadder, String> {
    let engines = ladder_engines(specs)?;
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let shape = [windows.c, windows.t, windows.v];
    let threads: Vec<Result<LadderThread, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let engines = &engines;
                let router = server.router.clone();
                let addr = server.addr();
                s.spawn(move || -> Result<LadderThread, String> {
                    let client_id = c as u64;
                    let tenant = TENANTS[c];
                    let mut client =
                        NetClient::connect(addr).map_err(|e| format!("connect: {e:?}"))?;
                    let mut sessions: Vec<_> = specs.iter().map(session).collect();
                    let leaves: Vec<_> =
                        specs.iter().map(|s| hypergraph_leaf(&s.name, scale)).collect();
                    let mut rec = Recorder::new();
                    let mut t = LadderThread::default();
                    for (k, &(input, m)) in ops.iter().enumerate() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let req = client_id << 32 | k as u64;
                        let model = specs[m].name.as_str();
                        let x = windows.request(seed, client_id, input);
                        let net =
                            rec.time(req, Rung::Net, None, || client.infer(tenant, model, &x));
                        let routed = rec.time(req, Rung::Router, Some(Rung::Net), || {
                            router.infer(tenant, model, &x)
                        });
                        let served = rec.time(req, Rung::Serve, Some(Rung::Router), || {
                            engines[m]
                                .submit(NdArray::from_vec(x.clone(), &shape))
                                .and_then(|p| p.wait())
                        });
                        let mut pair = x.clone();
                        pair.extend(windows.request(seed, client_id, input + 1));
                        let want =
                            forward_rungs(&mut rec, req, &mut sessions[m], &x, &pair, &shape);
                        let request = Request::Infer {
                            tenant: tenant.to_string(),
                            model: model.to_string(),
                            input: x.clone(),
                        };
                        t.bytes.push(proto_roundtrip(
                            &mut rec,
                            req,
                            &request,
                            &OkPayload::Logits(want.clone()),
                        ) as f64);
                        if let Some(leaf) = &leaves[m] {
                            with_worker_threads(|| {
                                leaf.run(&mut rec, req, &x, shape[0], shape[1], shape[2])
                            });
                        }
                        t.attempted += 1;
                        t.models.push((req, m));
                        match (net, routed, served) {
                            (Ok(a), Ok(b), Ok(c)) => {
                                if !(same_bits(&a, &want)
                                    && same_bits(b.data(), &want)
                                    && same_bits(c.data(), &want))
                                {
                                    t.mismatches += 1;
                                    t.failed += 1;
                                }
                            }
                            _ => t.failed += 1,
                        }
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

/// Counters from the router's `health_json`: `(errors, quota
/// rejections, shed)` summed over tenants and models.
pub fn router_counters(router: &Router) -> (f64, f64, f64) {
    let health = dhg_train::json::Value::parse(&router.health_json())
        .unwrap_or(dhg_train::json::Value::Null);
    let sum = |section: &str, key: &str| -> f64 {
        match health.get(section) {
            Some(dhg_train::json::Value::Obj(entries)) => {
                entries.iter().filter_map(|(_, v)| v.get(key).and_then(|x| x.as_f64())).sum()
            }
            _ => 0.0,
        }
    };
    (sum("tenants", "errors"), sum("tenants", "quota_rejections"), sum("models", "shed"))
}

impl ServingLadder {
    /// Finish a replay: the plan-IR cost of every route's model, then the
    /// GEMM leaf on the largest im2col shape among them, measured after
    /// the replay threads are done so nothing competes with it.
    pub fn new(
        threads: Vec<LadderThread>,
        engines: Vec<Arc<ServeEngine>>,
        specs: &[ModelSpec],
    ) -> Self {
        let costs: Vec<PlanCost> = specs
            .iter()
            .map(|spec| {
                let [c, t, v] = spec.sample_shape[..] else {
                    panic!("routes serve [C, T, V] samples")
                };
                plan_cost(session(spec).model(), c, t, v)
            })
            .collect();
        let mut rec = Recorder::new();
        let gemm =
            costs.iter().filter_map(|c| c.gemm).max_by_key(|&(m, k, n)| m * k * n).map(|shape| {
                GemmRates {
                    one: gemm_gflops(&mut rec, shape, 1, GEMM_REPS, Rung::Gemm1t),
                    all: gemm_gflops(&mut rec, shape, nproc(), GEMM_REPS, Rung::GemmNt),
                    shape,
                }
            });
        ServingLadder {
            threads,
            engines,
            costs,
            names: specs.iter().map(|s| s.name.clone()).collect(),
            gemm,
            kernel_spans: rec.into_spans(),
        }
    }

    /// All spans, thread and kernel.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> =
            self.threads.iter().flat_map(|t| t.spans.iter().copied()).collect();
        all.extend(self.kernel_spans.iter().copied());
        all
    }

    /// Write the per-layer metrics, checks and breakdowns into `out`.
    /// `untraced_ms` is the untraced run's latency median for the same
    /// operations (`trace.overhead_frac` compares the traced `net` rung
    /// with it) and `extra_retries` the measured phase's client retries.
    pub fn report(
        &self,
        out: &mut Outcome,
        server: &Server,
        extra_retries: u64,
        untraced_ms: Option<f64>,
        infer_majority: bool,
    ) {
        let spans = self.spans();
        let rung_ms = |rung| per_request_ms(&spans, rung).into_values().collect::<Vec<_>>();
        let net_ms = rung_ms(Rung::Net);
        let infer_by_req = per_request_ms(&spans, Rung::Infer);
        let infer_ms: Vec<f64> = infer_by_req.values().copied().collect();
        let model_of: BTreeMap<u64, usize> =
            self.threads.iter().flat_map(|t| t.models.iter().copied()).collect();

        out.attempted += self.threads.iter().map(|t| t.attempted).sum::<u64>();
        out.failed += self.threads.iter().map(|t| t.failed).sum::<u64>();
        out.mismatches += self.threads.iter().map(|t| t.mismatches).sum::<u64>();

        let l = &mut out.layers;
        l.push(metric(
            "net.self_ms_p50",
            median(&self_times_ms(&spans, Rung::Net, Rung::Router)),
            "ms",
        ));
        let retries: u64 = self.threads.iter().map(|t| t.retries).sum::<u64>() + extra_retries;
        l.push(metric("net.retries", retries as f64, "count"));
        let bytes: Vec<f64> = self.threads.iter().flat_map(|t| t.bytes.iter().copied()).collect();
        l.push(metric("net.bytes_per_op", mean(&bytes), "B"));
        l.push(metric("proto.codec_us_p50", median(&rung_ms(Rung::Proto)) * 1e3, "us"));
        let (errors, quota, router_shed) = router_counters(&server.router);
        l.push(metric(
            "router.self_ms_p50",
            median(&self_times_ms(&spans, Rung::Router, Rung::Serve)),
            "ms",
        ));
        l.push(metric("router.errors", errors, "count"));
        l.push(metric("router.quota_rejections", quota, "count"));
        l.push(metric(
            "serve.wait_ms_p50",
            median(&self_times_reaching_ms(&spans, Rung::Serve, Rung::Infer)),
            "ms",
        ));
        let (completed, batches, shed) = self.engines.iter().fold((0, 0, 0), |acc, e| {
            let m = e.metrics();
            (acc.0 + m.completed.get(), acc.1 + m.batches.get(), acc.2 + m.shed.get())
        });
        l.push(metric("serve.batch_mean", completed as f64 / batches.max(1) as f64, "req/batch"));
        l.push(metric("serve.shed", shed as f64 + router_shed, "count"));

        let infer_p50 = median(&infer_ms);
        let flops_of = |req: &u64| model_of.get(req).map_or(0, |&m| self.costs[m].flops);
        let mflop: Vec<f64> = infer_by_req.keys().map(|r| flops_of(r) as f64 / 1e6).collect();
        let gflops: Vec<f64> =
            infer_by_req.iter().map(|(r, ms)| flops_of(r) as f64 / ms / 1e6).collect();
        l.push(metric("infer.forward_ms_p50", infer_p50, "ms"));
        l.push(metric(
            "infer.forward_ms_per_sample_b2",
            median(&rung_ms(Rung::InferB2)) / 2.0,
            "ms",
        ));
        l.push(metric("infer.mflop", mean(&mflop), "MFLOP"));
        l.push(metric("infer.gflops", median(&gflops), "GFLOP/s"));

        let jw = per_request_ms(&spans, Rung::JointWeights);
        let topo = per_request_ms(&spans, Rung::Topology);
        let jw_p50 = median(&jw.values().copied().collect::<Vec<_>>());
        let topo_p50 = median(&topo.values().copied().collect::<Vec<_>>());
        let hg_infer: Vec<f64> = jw.keys().filter_map(|r| infer_by_req.get(r).copied()).collect();
        l.push(metric("hypergraph.joint_weights_ms_p50", jw_p50, "ms"));
        l.push(metric("hypergraph.topology_ms_p50", topo_p50, "ms"));
        l.push(metric("hypergraph.share", (jw_p50 + topo_p50) / median(&hg_infer), "frac"));

        let (g1, gn) = self.gemm.map_or((0.0, 0.0), |g| (g.one, g.all));
        l.push(metric("tensor.gemm_gflops_1t", g1, "GFLOP/s"));
        l.push(metric("tensor.gemm_gflops_nt", gn, "GFLOP/s"));
        // the forward's achieved rate against the packed kernel's on the
        // model's own dense shape, both at the workers' single thread
        let efficiency = median(&gflops) / g1;
        out.detail.push(metric("infer.gflops_over_gemm_1t", efficiency, "frac"));
        // the net rung of the operations that reached the forward pass
        // (every request; a stream's window-completing pushes)
        let net_by_req = per_request_ms(&spans, Rung::Net);
        let net_reaching: Vec<f64> =
            infer_by_req.keys().filter_map(|r| net_by_req.get(r).copied()).collect();
        if let Some(base) = untraced_ms {
            l.push(metric("trace.overhead_frac", median(&net_reaching) / base - 1.0, "frac"));
        }

        if let Some(GemmRates { shape: (m, k, n), .. }) = self.gemm {
            out.config("tensor.gemm_shape", format!("{m}x{k}x{n}"));
        }
        out.config("ladder.ops", model_of.len());
        for (mi, name) in self.names.iter().enumerate() {
            let reqs: Vec<u64> =
                model_of.iter().filter(|&(_, &m)| m == mi).map(|(&r, _)| r).collect();
            let per = |rung| {
                let by = per_request_ms(&spans, rung);
                reqs.iter().filter_map(|r| by.get(r).copied()).collect::<Vec<_>>()
            };
            let s = slug(name);
            let fwd = median(&per(Rung::Infer));
            let mf = self.costs[mi].flops as f64 / 1e6;
            out.detail.push(metric(format!("infer.forward_ms_p50.{s}"), fwd, "ms"));
            out.detail.push(metric(
                format!("infer.forward_ms_per_sample_b2.{s}"),
                median(&per(Rung::InferB2)) / 2.0,
                "ms",
            ));
            out.detail.push(metric(format!("infer.mflop.{s}"), mf, "MFLOP"));
            out.detail.push(metric(format!("infer.gflops.{s}"), mf / fwd, "GFLOP/s"));
        }
        let share = infer_p50 / median(&net_reaching);
        let (expect, pass) = if infer_majority {
            ("> 0.5: the forward pass is most of the round trip", share > 0.5)
        } else {
            ("< 0.5: the forward pass is a minority of the round trip", share < 0.5)
        };
        out.check("infer rung p50 / net rung p50", share, expect, pass);
        out.distribution("ladder.net_ms", &net_ms);
        out.distribution("ladder.infer_ms", &infer_ms);
        out.spans.extend(spans);
    }
}
