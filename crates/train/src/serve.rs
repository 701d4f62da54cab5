//! Micro-batching serve engine: concurrent request traffic over one model.
//!
//! A single [`crate::InferenceSession`] answers one caller at a time, so
//! every request pays a full forward pass alone. Skeleton models are small
//! — serving them is throughput-bound, and the headroom is *across*
//! requests: coalescing concurrent single-sample requests into one
//! `[B, C, T, V]` forward amortises per-op fixed costs (shape checks,
//! dispatch, buffer handling) over the whole batch and lets the batched
//! kernels clear the [`dhg_tensor::parallel`] work threshold.
//!
//! ## Architecture
//!
//! ```text
//! submit() ──▶ bounded queue ──▶ worker 1..W ──▶ oneshot reply
//!    │            │  coalesce: flush at max_batch         ▲
//!    │            │  or max_wait, whichever first         │
//!    └─ Rejected{queue_depth} when full     per-request logits ─┘
//!                 ▲
//!        supervisor: respawns dead workers (bounded budget + backoff)
//! ```
//!
//! * **Bounded queue, explicit shedding.** [`ServeEngine::submit`] never
//!   blocks: a full queue returns [`ServeError::Rejected`] with the
//!   current depth, so overload degrades gracefully (the caller can
//!   retry, redirect, or drop) instead of growing an unbounded backlog.
//! * **Micro-batches.** A worker that finds the queue non-empty gathers
//!   up to `max_batch` requests, waiting at most `max_wait` for
//!   stragglers; under saturation batches are full and no one waits.
//! * **Per-worker model replicas.** Models hold `Rc`-based tensors and
//!   cannot cross threads, so each worker *builds its own replica* from
//!   the caller's factory and compiles it through
//!   [`crate::InferenceSession::analyzed`] — an analyzer-refused model
//!   never starts serving. Replica construction is deterministic (seeded
//!   constructors), so every worker computes bitwise-identical logits.
//! * **Self-healing workers.** A supervisor thread watches for worker
//!   deaths (a panic that escapes the batch guard — e.g. inside the
//!   queue lock) and respawns a fresh replica in its place, under a
//!   bounded restart budget ([`ServeConfig::max_restarts`]) with
//!   exponential backoff. Queue-lock poisoning from a mid-critical-
//!   section death is recovered, not propagated: the queue state is a
//!   `VecDeque` + flag whose invariants survive any panic point. If the
//!   *last* worker dies with the budget exhausted, the engine closes
//!   itself and fails the backlog with typed [`ServeError::Closed`] —
//!   no caller is ever left blocked on a queue nobody serves.
//! * **Per-request deadlines.** With [`ServeConfig::deadline`] set,
//!   requests that exceed it come back as typed
//!   [`ServeError::DeadlineExceeded`] — both when they expire in the
//!   queue (workers skip them instead of wasting a forward) and when the
//!   caller's [`Pending::wait`] times out (a stalled batch cannot wedge
//!   its callers).
//! * **Output validation.** Every reply row is checked for non-finite
//!   values before it leaves the engine; a corrupted forward yields
//!   typed [`ServeError::BadOutput`], never a silent NaN to a caller.
//! * **Deterministic results.** Every per-sample computation in the
//!   workspace is bitwise-independent of its batch neighbours and of the
//!   thread count, so a request's logits are bitwise-identical to a
//!   sequential [`crate::InferenceSession::logits`] call on the same
//!   input, whatever batch it landed in (the cross-crate suite in
//!   `tests/serve_invariance.rs` asserts this for the whole zoo, and
//!   `tests/chaos.rs` re-asserts it for survivors under injected
//!   faults).
//! * **Deterministic shutdown.** [`ServeEngine::shutdown`] (or drop)
//!   closes the queue, lets the workers drain every already-accepted
//!   request, and joins them; in-flight work is finished, never dropped.
//!
//! The whole path is instrumented through a [`dhg_nn::Registry`]:
//! queue-depth and live-worker gauges, batch-size and end-to-end latency
//! histograms (p50/p95/p99), and request/batch/shed/restart/deadline/
//! bad-output counters — see [`ServeMetrics`] and the one-call
//! [`ServeEngine::health`] snapshot.
//!
//! Fault injection for chaos tests hangs off [`ServeConfig::faults`]
//! (see [`dhg_nn::fault`]): worker deaths, batch panics, batch stalls
//! and logit corruption are all injected through that plan, and none of
//! the hooks cost anything when no plan is configured.
//!
//! ## Streams
//!
//! Live skeleton sources push one `[C, V]` frame at a time instead of
//! whole `[C, T, V]` windows. [`ServeEngine::open_stream`] allocates
//! per-stream keyed state (a ring of the last `T` frames); each
//! [`ServeEngine::push_frame`] advances that ring and — once it holds a
//! full window, on the stream's emission cadence — materialises the
//! window and submits it through the **same** bounded queue as ordinary
//! requests. Streams therefore inherit backpressure (a shed window
//! returns [`ServeError::Rejected`]), deadlines, batching with other
//! traffic, and the self-healing worker pool, with zero new machinery
//! on the hot path. Pushes are *transactional*: the ring advances only
//! when the push fully succeeds, so a shed or refused window leaves the
//! stream exactly as it was and the caller can retry the same frame
//! without double-inserting it. Workers derive any dynamic operators from the
//! materialised window itself, so every emitted window scores exactly as
//! [`InferenceSession::logits`] would score it offline.

use crate::InferenceSession;
use dhg_nn::fault::{FaultPlan, FaultSite};
use dhg_nn::{Counter, Gauge, Histogram, Module, Registry, SymShape};
use dhg_tensor::parallel::with_threads;
use dhg_tensor::{NdArray, Tensor};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest micro-batch a worker will coalesce; a flush happens at
    /// this size or at `max_wait`, whichever comes first.
    pub max_batch: usize,
    /// How long a worker holding a partial batch waits for stragglers
    /// before flushing. Zero means "flush whatever is there immediately".
    pub max_wait: Duration,
    /// Bounded queue capacity; a submit beyond it is shed with
    /// [`ServeError::Rejected`].
    pub queue_cap: usize,
    /// Number of worker threads, each owning its own model replica.
    pub workers: usize,
    /// Thread count pinned (via [`dhg_tensor::parallel::with_threads`])
    /// around each worker's batched forward. 1 keeps workers independent;
    /// raise it to parallelise inside a batch on an otherwise idle host.
    pub threads_per_worker: usize,
    /// End-to-end (submit → reply) budget per request. Requests past it
    /// fail with [`ServeError::DeadlineExceeded`] — skipped by workers if
    /// still queued, timed out in [`Pending::wait`] if in flight. `None`
    /// disables deadlines.
    pub deadline: Option<Duration>,
    /// Total worker respawns the supervisor may spend over the engine's
    /// lifetime before a dead worker stays dead.
    pub max_restarts: usize,
    /// Base supervisor backoff before a respawn; doubles with each
    /// restart already spent (capped at 64×, saturating — a huge base
    /// cannot overflow the multiplication).
    pub restart_backoff: Duration,
    /// Fault-injection plan consulted on the serving hot path (chaos
    /// testing). `None` — the production default — makes every fault
    /// hook a no-op.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 64,
            workers: 1,
            threads_per_worker: 1,
            deadline: None,
            max_restarts: 8,
            restart_backoff: Duration::from_millis(1),
            faults: None,
        }
    }
}

/// Typed serving failures. Overload, shutdown, deadlines and corrupt
/// outputs are explicit values, not blocked callers or panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full; the request was shed (graceful
    /// degradation under overload). `queue_depth` is the depth observed
    /// at rejection time — callers can use it for retry backoff.
    Rejected {
        /// Queue depth at the moment of rejection (== configured cap).
        queue_depth: usize,
    },
    /// The input's shape did not match the engine's sample shape.
    BadShape {
        /// Per-sample shape the engine was started with.
        expected: Vec<usize>,
        /// Shape of the offending input.
        got: Vec<usize>,
    },
    /// The request exceeded [`ServeConfig::deadline`] before completing.
    DeadlineExceeded,
    /// The forward produced non-finite logits for this request; the
    /// corrupt values were withheld.
    BadOutput,
    /// A frame pushed to a stream had the wrong length (`expected` =
    /// `C · V` for the engine's sample shape).
    BadFrame {
        /// Required frame length.
        expected: usize,
        /// Length of the offending frame.
        got: usize,
    },
    /// The stream id was never opened, or was already closed.
    UnknownStream,
    /// The engine cannot host frame streams: its per-sample shape is not
    /// `[C, T, V]`, or the requested emission cadence was zero.
    NotStreamable(String),
    /// The engine is shut down (or a worker died before replying).
    Closed,
    /// Worker startup failed: the factory's model was refused by the
    /// static analyzer, or a worker died while compiling it.
    Startup(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { queue_depth } => {
                write!(f, "request shed: queue full at depth {queue_depth}")
            }
            ServeError::BadShape { expected, got } => {
                write!(f, "input shape {got:?} does not match sample shape {expected:?}")
            }
            ServeError::BadFrame { expected, got } => {
                write!(f, "stream frame has length {got}, expected C*V = {expected}")
            }
            ServeError::UnknownStream => write!(f, "stream was never opened or already closed"),
            ServeError::NotStreamable(why) => {
                write!(f, "engine cannot host frame streams: {why}")
            }
            ServeError::DeadlineExceeded => write!(f, "request exceeded its deadline"),
            ServeError::BadOutput => write!(f, "forward produced non-finite logits"),
            ServeError::Closed => write!(f, "serve engine is shut down"),
            ServeError::Startup(why) => write!(f, "serve engine failed to start: {why}"),
        }
    }
}

impl ServeError {
    /// True for errors that indict the *model version* rather than the
    /// caller or transient load: non-finite output, a dead engine, or a
    /// start that never completed. Canary routing rolls back on these;
    /// caller errors ([`ServeError::BadShape`], [`ServeError::Rejected`],
    /// [`ServeError::DeadlineExceeded`], …) never condemn a candidate.
    pub fn is_quality_breach(&self) -> bool {
        matches!(
            self,
            ServeError::BadOutput | ServeError::Closed | ServeError::Startup(_)
        )
    }
}

impl std::error::Error for ServeError {}

/// Lock-free handles to every metric the engine updates, backed by a
/// shared [`Registry`] (so callers can also render/export the registry
/// wholesale).
#[derive(Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    /// Requests accepted into the queue.
    pub requests: Arc<Counter>,
    /// Requests answered with logits.
    pub completed: Arc<Counter>,
    /// Requests shed at a full queue.
    pub shed: Arc<Counter>,
    /// Micro-batches executed.
    pub batches: Arc<Counter>,
    /// Requests that died inside a failed batch (worker panic).
    pub failed: Arc<Counter>,
    /// Requests that failed their [`ServeConfig::deadline`].
    pub deadline_exceeded: Arc<Counter>,
    /// Requests whose logits came back non-finite (withheld as
    /// [`ServeError::BadOutput`]).
    pub bad_output: Arc<Counter>,
    /// Worker respawns performed by the supervisor.
    pub restarts: Arc<Counter>,
    /// Streams opened over the engine's lifetime.
    pub streams_opened: Arc<Counter>,
    /// Frames pushed across all streams.
    pub stream_frames: Arc<Counter>,
    /// Windows materialised and submitted by streams.
    pub stream_windows: Arc<Counter>,
    /// Current queue depth.
    pub queue_depth: Arc<Gauge>,
    /// Streams currently open.
    pub open_streams: Arc<Gauge>,
    /// Workers currently believed alive (spawned minus unrecovered
    /// deaths).
    pub live_workers: Arc<Gauge>,
    /// Distribution of executed batch sizes.
    pub batch_size: Arc<Histogram>,
    /// End-to-end (submit → reply) latency in microseconds.
    pub latency_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        ServeMetrics {
            requests: registry.counter("serve-requests-total"),
            completed: registry.counter("serve-completed-total"),
            shed: registry.counter("serve-shed-total"),
            batches: registry.counter("serve-batches-total"),
            failed: registry.counter("serve-failed-total"),
            deadline_exceeded: registry.counter("serve-deadline-exceeded-total"),
            bad_output: registry.counter("serve-bad-output-total"),
            restarts: registry.counter("serve-worker-restarts-total"),
            streams_opened: registry.counter("serve-streams-opened-total"),
            stream_frames: registry.counter("serve-stream-frames-total"),
            stream_windows: registry.counter("serve-stream-windows-total"),
            queue_depth: registry.gauge("serve-queue-depth"),
            open_streams: registry.gauge("serve-open-streams"),
            live_workers: registry.gauge("serve-live-workers"),
            batch_size: registry.histogram("serve-batch-size", || {
                Histogram::exponential(1, 12) // 1 .. 2048
            }),
            latency_us: registry.histogram("serve-latency-us", || {
                Histogram::exponential(1, 27) // 1 µs .. ~67 s
            }),
            registry,
        }
    }

    /// The backing registry (for text/JSON export of every metric).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Point-in-time liveness/pressure snapshot of a [`ServeEngine`] — the
/// answer a health endpoint would serve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeHealth {
    /// Workers currently alive.
    pub live_workers: i64,
    /// Workers the engine was configured with.
    pub configured_workers: usize,
    /// Worker respawns spent so far (out of
    /// [`ServeConfig::max_restarts`]).
    pub restarts: u64,
    /// Current queue depth.
    pub queue_depth: i64,
    /// Requests accepted into the queue so far.
    pub accepted: u64,
    /// Requests answered with logits.
    pub completed: u64,
    /// Requests shed at the full queue.
    pub shed: u64,
    /// Requests lost to failed batches.
    pub failed: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Requests withheld for non-finite logits.
    pub bad_output: u64,
}

impl ServeHealth {
    /// A serving-capacity verdict: at least one worker is alive.
    pub fn is_serving(&self) -> bool {
        self.live_workers > 0
    }
}

/// One queued request: the input sample, its submit timestamp (end-to-end
/// latency starts at the queue, not the forward), and the oneshot reply
/// channel its [`Pending`] handle waits on.
struct Request {
    input: NdArray,
    enqueued: Instant,
    reply: mpsc::SyncSender<Result<NdArray, ServeError>>,
}

struct QueueState {
    queue: VecDeque<Request>,
    closed: bool,
}

/// State shared between the submit side, the workers and the supervisor.
struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    config: ServeConfig,
    metrics: ServeMetrics,
}

impl Shared {
    /// Lock the queue state, recovering from poisoning: a worker that
    /// panics mid-critical-section (injected or real) must not take the
    /// submit/shutdown paths down with it. The guarded state is a
    /// `VecDeque` + flag whose invariants hold at every panic point, so
    /// the poisoned value is safe to keep using.
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A ticket for an in-flight request; redeem with [`Pending::wait`].
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<NdArray, ServeError>>,
    /// Absolute deadline (when the engine has one): `wait` stops blocking
    /// here even if the worker never replies.
    deadline: Option<Instant>,
    deadline_metric: Arc<Counter>,
}

impl Pending {
    /// Block until the request's logits (a `[n_classes]` vector) arrive,
    /// or — when the engine has a [`ServeConfig::deadline`] — until the
    /// deadline passes, whichever is first.
    pub fn wait(self) -> Result<NdArray, ServeError> {
        match self.deadline {
            None => match self.rx.recv() {
                Ok(result) => result,
                Err(_) => Err(ServeError::Closed),
            },
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    // Deadline already in the past: never park, not even
                    // with a zero timeout. A reply that is already here
                    // was computed in budget and is still delivered; an
                    // absent one fails promptly and typed.
                    return match self.rx.try_recv() {
                        Ok(result) => result,
                        Err(_) => {
                            self.deadline_metric.inc();
                            Err(ServeError::DeadlineExceeded)
                        }
                    };
                }
                match self.rx.recv_timeout(deadline - now) {
                    Ok(result) => result,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.deadline_metric.inc();
                        Err(ServeError::DeadlineExceeded)
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
                }
            }
        }
    }
}

/// Supervisor mailbox traffic.
enum SupMsg {
    /// Worker `index` exited abnormally while the engine was open.
    Died {
        /// Slot of the dead worker.
        index: usize,
    },
    /// The engine is closing: join everyone and exit.
    Shutdown,
}

/// Per-stream keyed state: the ring of the last `T` frames plus the
/// emission bookkeeping (see the module docs' *Streams* section).
struct StreamState {
    /// Last up-to-`T` frames, oldest first, each `[C * V]`.
    frames: VecDeque<Vec<f32>>,
    frames_seen: usize,
    emit_every: usize,
}

/// A micro-batching, backpressured, self-healing serving front-end over
/// analyzer-validated inference sessions. See the module docs for the
/// contract.
pub struct ServeEngine {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    events_tx: mpsc::Sender<SupMsg>,
    sample_shape: Vec<usize>,
    streams: Mutex<HashMap<u64, StreamState>>,
    next_stream: AtomicU64,
}

impl ServeEngine {
    /// Start an engine for single-sample inputs of shape `sample_shape`
    /// (`[C, T, V]` for skeleton models). `factory` is called once per
    /// worker, *inside* that worker's thread, to build its model replica;
    /// each replica is served through
    /// [`crate::InferenceSession::analyzed`] and the engine refuses to
    /// start (with [`ServeError::Startup`]) if any replica's plan has
    /// errors. The same factory rebuilds replicas when the supervisor
    /// respawns a dead worker.
    pub fn start<M, F>(
        factory: F,
        sample_shape: &[usize],
        config: ServeConfig,
    ) -> Result<Self, ServeError>
    where
        M: Module,
        F: Fn() -> M + Send + Sync + 'static,
    {
        if config.max_batch == 0 || config.queue_cap == 0 || config.workers == 0 {
            return Err(ServeError::Startup(
                "max_batch, queue_cap and workers must all be at least 1".into(),
            ));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            config: config.clone(),
            metrics: ServeMetrics::new(),
        });
        shared.metrics.live_workers.set(config.workers as i64);
        let factory = Arc::new(factory);
        let sym = SymShape::batched(sample_shape);
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        let (events_tx, events_rx) = mpsc::channel::<SupMsg>();
        let mut handles: Vec<Option<JoinHandle<()>>> = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let handle =
                spawn_worker(index, &shared, &factory, &sym, Some(ready_tx.clone()), &events_tx)
                    .map_err(|e| ServeError::Startup(format!("spawn failed: {e}")))?;
            handles.push(Some(handle));
        }
        drop(ready_tx);
        let supervisor = {
            let shared = shared.clone();
            let factory = factory.clone();
            let sym = sym.clone();
            let events_tx = events_tx.clone();
            std::thread::Builder::new()
                .name("dhg-serve-supervisor".into())
                .spawn(move || {
                    supervisor_main(&shared, &factory, &sym, handles, events_rx, &events_tx)
                })
                .map_err(|e| ServeError::Startup(format!("supervisor spawn failed: {e}")))?
        };
        let mut engine = ServeEngine {
            shared,
            supervisor: Some(supervisor),
            events_tx,
            sample_shape: sample_shape.to_vec(),
            streams: Mutex::new(HashMap::new()),
            next_stream: AtomicU64::new(1),
        };
        for _ in 0..config.workers {
            let startup = match ready_rx.recv() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(why)) => Err(ServeError::Startup(why)),
                Err(_) => Err(ServeError::Startup("a worker died during startup".into())),
            };
            if let Err(e) = startup {
                engine.close();
                return Err(e);
            }
        }
        Ok(engine)
    }

    /// Enqueue one `[C, T, V]` sample without blocking. Returns a
    /// [`Pending`] ticket, or a typed error: [`ServeError::Rejected`]
    /// when the bounded queue is full, [`ServeError::BadShape`] for a
    /// mis-shaped input, [`ServeError::Closed`] after shutdown.
    pub fn submit(&self, input: NdArray) -> Result<Pending, ServeError> {
        if input.shape() != self.sample_shape.as_slice() {
            return Err(ServeError::BadShape {
                expected: self.sample_shape.clone(),
                got: input.shape().to_vec(),
            });
        }
        let metrics = &self.shared.metrics;
        let (tx, rx) = mpsc::sync_channel(1);
        let enqueued = Instant::now();
        {
            let mut st = self.shared.lock_state();
            if st.closed {
                return Err(ServeError::Closed);
            }
            let depth = st.queue.len();
            if depth >= self.shared.config.queue_cap {
                metrics.shed.inc();
                return Err(ServeError::Rejected { queue_depth: depth });
            }
            st.queue.push_back(Request { input, enqueued, reply: tx });
            metrics.requests.inc();
            metrics.queue_depth.set((depth + 1) as i64);
        }
        self.shared.available.notify_one();
        Ok(Pending {
            rx,
            deadline: self.shared.config.deadline.map(|d| enqueued + d),
            deadline_metric: metrics.deadline_exceeded.clone(),
        })
    }

    /// Submit and wait: the one-call blocking path.
    pub fn infer(&self, input: NdArray) -> Result<NdArray, ServeError> {
        self.submit(input)?.wait()
    }

    /// The engine's metric handles (live; snapshot or render at will).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// One-call liveness/pressure snapshot (see [`ServeHealth`]).
    pub fn health(&self) -> ServeHealth {
        let m = &self.shared.metrics;
        ServeHealth {
            live_workers: m.live_workers.get(),
            configured_workers: self.shared.config.workers,
            restarts: m.restarts.get(),
            queue_depth: m.queue_depth.get(),
            accepted: m.requests.get(),
            completed: m.completed.get(),
            shed: m.shed.get(),
            failed: m.failed.get(),
            deadline_exceeded: m.deadline_exceeded.get(),
            bad_output: m.bad_output.get(),
        }
    }

    /// Per-sample input shape this engine was started with.
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Lock the stream table, recovering from poisoning the same way
    /// [`Shared::lock_state`] does (ring + counters stay consistent at
    /// every panic point).
    fn lock_streams(&self) -> MutexGuard<'_, HashMap<u64, StreamState>> {
        self.streams.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Open a frame stream against this engine. The engine's sample shape
    /// must be `[C, T, V]`; the stream's window length is exactly `T` (the
    /// shape every worker replica was analyzed for), and a
    /// window is submitted every `emit_every` pushed frames once the ring
    /// holds `T` frames. Returns the stream id for
    /// [`ServeEngine::push_frame`] / [`ServeEngine::close_stream`].
    pub fn open_stream(&self, emit_every: usize) -> Result<u64, ServeError> {
        if self.sample_shape.len() != 3 {
            return Err(ServeError::NotStreamable(format!(
                "streams need a [C, T, V] sample shape, engine serves {:?}",
                self.sample_shape
            )));
        }
        if emit_every == 0 {
            return Err(ServeError::NotStreamable("emit_every must be at least 1".into()));
        }
        if self.shared.lock_state().closed {
            return Err(ServeError::Closed);
        }
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let window = self.sample_shape[1];
        let mut streams = self.lock_streams();
        streams.insert(
            id,
            StreamState {
                frames: VecDeque::with_capacity(window),
                frames_seen: 0,
                emit_every,
            },
        );
        let metrics = &self.shared.metrics;
        metrics.streams_opened.inc();
        metrics.open_streams.set(streams.len() as i64);
        Ok(id)
    }

    /// Push one `[C, V]` frame (flattened, `C`-major) to an open stream.
    /// Returns `Ok(None)` while the ring warms up or between emissions;
    /// on the emission cadence the materialised `[C, T, V]` window is
    /// submitted through the ordinary bounded queue and the ticket comes
    /// back as `Ok(Some(pending))`.
    ///
    /// The push is **transactional**: the ring advances only when the
    /// call succeeds. A shed submit ([`ServeError::Rejected`]) or an
    /// engine shut down mid-push ([`ServeError::Closed`]) leaves the
    /// stream state — ring contents and frame count — exactly as it was,
    /// so retrying the same frame can never double-insert it.
    pub fn push_frame(&self, stream: u64, frame: &[f32]) -> Result<Option<Pending>, ServeError> {
        let [c, t, v] = *self.sample_shape else {
            return Err(ServeError::NotStreamable(format!(
                "streams need a [C, T, V] sample shape, engine serves {:?}",
                self.sample_shape
            )));
        };
        if frame.len() != c * v {
            return Err(ServeError::BadFrame { expected: c * v, got: frame.len() });
        }
        let mut streams = self.lock_streams();
        let state = streams.get_mut(&stream).ok_or(ServeError::UnknownStream)?;
        if self.shared.lock_state().closed {
            // shut down mid-push: refuse before touching the ring so the
            // frame is not silently swallowed by a dead engine
            return Err(ServeError::Closed);
        }
        // prospective state: what the ring WOULD hold after this push
        let frames_seen = state.frames_seen + 1;
        let emits = state.frames.len() + 1 >= t && (frames_seen - t) % state.emit_every == 0;
        let pending = if emits {
            // materialise the window from the current ring plus this
            // frame, without mutating; the oldest frame is skipped when
            // the ring is already full (it would be popped on commit)
            let skip = state.frames.len() + 1 - t;
            let mut data = vec![0.0; c * t * v];
            let rows = state
                .frames
                .iter()
                .skip(skip)
                .map(Vec::as_slice)
                .chain(std::iter::once(frame));
            for (ti, fr) in rows.enumerate() {
                for ci in 0..c {
                    data[ci * t * v + ti * v..ci * t * v + (ti + 1) * v]
                        .copy_from_slice(&fr[ci * v..(ci + 1) * v]);
                }
            }
            // a refused submit propagates here, before the commit below:
            // the ring has not advanced and the push had no effect
            Some(self.submit(NdArray::from_vec(data, &[c, t, v]))?)
        } else {
            None
        };
        // commit: the push (and any submit) succeeded
        if state.frames.len() == t {
            state.frames.pop_front();
        }
        state.frames.push_back(frame.to_vec());
        state.frames_seen = frames_seen;
        let metrics = &self.shared.metrics;
        metrics.stream_frames.inc();
        if pending.is_some() {
            metrics.stream_windows.inc();
        }
        Ok(pending)
    }

    /// Close a stream, dropping its ring. Returns whether the id was
    /// open. Windows already submitted keep their [`Pending`] tickets.
    pub fn close_stream(&self, stream: u64) -> bool {
        let mut streams = self.lock_streams();
        let existed = streams.remove(&stream).is_some();
        self.shared.metrics.open_streams.set(streams.len() as i64);
        existed
    }

    /// Close the queue, drain every accepted request, join the workers.
    /// New submits fail with [`ServeError::Closed`]; already-accepted
    /// requests are answered before the workers exit (or failed with a
    /// typed error if every worker is dead). Dropping the engine does the
    /// same.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.closed = true;
        }
        self.shared.available.notify_all();
        let _ = self.events_tx.send(SupMsg::Shutdown);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // live workers drained the queue before exiting; whatever a fully
        // dead worker set left behind is failed typed, never stranded
        drain_queue(&self.shared, &ServeError::Closed);
        let mut streams = self.lock_streams();
        streams.clear();
        self.shared.metrics.open_streams.set(0);
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.close();
    }
}

/// Fail every queued request with `error` (deadlock backstop for the
/// no-workers-left cases).
fn drain_queue(shared: &Shared, error: &ServeError) {
    let drained: Vec<Request> = {
        let mut st = shared.lock_state();
        let drained = st.queue.drain(..).collect();
        shared.metrics.queue_depth.set(0);
        drained
    };
    for request in drained {
        let _ = request.reply.send(Err(error.clone()));
    }
}

/// Spawn one worker thread. The thread reports over `ready_tx` on initial
/// startup (respawns pass `None`: the factory already passed analysis
/// once) and notifies the supervisor if it exits abnormally while the
/// engine is open.
fn spawn_worker<M, F>(
    index: usize,
    shared: &Arc<Shared>,
    factory: &Arc<F>,
    sym: &SymShape,
    ready_tx: Option<mpsc::Sender<Result<(), String>>>,
    events_tx: &mpsc::Sender<SupMsg>,
) -> std::io::Result<JoinHandle<()>>
where
    M: Module,
    F: Fn() -> M + Send + Sync + 'static,
{
    let shared = shared.clone();
    let factory = factory.clone();
    let sym = sym.clone();
    let events_tx = events_tx.clone();
    std::thread::Builder::new().name(format!("dhg-serve-{index}")).spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_main(&shared, &*factory, &sym, ready_tx.as_ref())
        }));
        let died = match outcome {
            // a drained queue or a refusal already reported over the
            // ready channel are normal exits
            Ok(WorkerExit::Drained) | Ok(WorkerExit::Refused) => false,
            Ok(WorkerExit::RespawnFailed) | Err(_) => true,
        };
        if died && !shared.lock_state().closed {
            let _ = events_tx.send(SupMsg::Died { index });
        }
    })
}

/// Watch for worker deaths and respawn them (fresh replica, same slot)
/// under the engine's restart budget, with exponential backoff. When the
/// last worker dies unrecoverable, closes the engine and fails the
/// backlog typed. On shutdown joins every remaining worker.
fn supervisor_main<M, F>(
    shared: &Arc<Shared>,
    factory: &Arc<F>,
    sym: &SymShape,
    mut handles: Vec<Option<JoinHandle<()>>>,
    events_rx: mpsc::Receiver<SupMsg>,
    events_tx: &mpsc::Sender<SupMsg>,
) where
    M: Module,
    F: Fn() -> M + Send + Sync + 'static,
{
    let config = &shared.config;
    let mut restarts_spent = 0usize;
    let mut live = handles.len();
    loop {
        match events_rx.recv() {
            Ok(SupMsg::Shutdown) | Err(_) => break,
            Ok(SupMsg::Died { index }) => {
                if let Some(handle) = handles[index].take() {
                    let _ = handle.join();
                }
                if shared.lock_state().closed {
                    continue; // dying during drain: shutdown joins the rest
                }
                let respawned = restarts_spent < config.max_restarts
                    && {
                        std::thread::sleep(respawn_backoff(
                            config.restart_backoff,
                            restarts_spent,
                        ));
                        restarts_spent += 1;
                        match spawn_worker(index, shared, factory, sym, None, events_tx) {
                            Ok(handle) => {
                                shared.metrics.restarts.inc();
                                handles[index] = Some(handle);
                                true
                            }
                            Err(_) => false,
                        }
                    };
                if !respawned {
                    live -= 1;
                    shared.metrics.live_workers.set(live as i64);
                    if live == 0 {
                        // nobody serves this queue any more: close it and
                        // fail the backlog so no caller blocks forever
                        {
                            let mut st = shared.lock_state();
                            st.closed = true;
                        }
                        shared.available.notify_all();
                        drain_queue(shared, &ServeError::Closed);
                    }
                }
            }
        }
    }
    for handle in handles.iter_mut().filter_map(Option::take) {
        let _ = handle.join();
    }
}

/// Supervisor backoff before spending the `restarts_spent + 1`-th
/// restart: the base doubles per restart already spent, capped at 64×.
/// Saturating multiplication — a large user-configured base caps at
/// [`Duration::MAX`] instead of overflowing `Duration` math and panicking
/// the supervisor (which would take the whole self-healing path down).
fn respawn_backoff(base: Duration, restarts_spent: usize) -> Duration {
    base.saturating_mul(1u32 << restarts_spent.min(6) as u32)
}

/// How a worker's serve loop ended (vs. a panic, caught by the spawner).
enum WorkerExit {
    /// Queue closed and drained — the normal shutdown path.
    Drained,
    /// Initial replica refused by the analyzer (reported over `ready_tx`).
    Refused,
    /// Respawned replica failed to build — the supervisor must know.
    RespawnFailed,
}

/// Worker entry: build + validate this worker's replica, report readiness
/// (initial spawn only), then serve batches until the queue is closed and
/// drained.
fn worker_main<M: Module>(
    shared: &Shared,
    factory: &(dyn Fn() -> M + Send + Sync),
    sym: &SymShape,
    ready_tx: Option<&mpsc::Sender<Result<(), String>>>,
) -> WorkerExit {
    let mut session = match InferenceSession::analyzed(factory(), sym) {
        Ok((session, _report)) => {
            if let Some(tx) = ready_tx {
                let _ = tx.send(Ok(()));
            }
            session
        }
        Err(report) => {
            return match ready_tx {
                Some(tx) => {
                    let _ = tx.send(Err(format!("analyzer refused the model:\n{report}")));
                    WorkerExit::Refused
                }
                None => WorkerExit::RespawnFailed,
            };
        }
    };
    while let Some(batch) = gather(shared) {
        execute(shared, &mut session, batch);
    }
    WorkerExit::Drained
}

/// Pull the next micro-batch: wait for a non-empty queue, then coalesce up
/// to `max_batch` requests, waiting at most `max_wait` for stragglers.
/// Requests already past the engine deadline are answered with
/// [`ServeError::DeadlineExceeded`] instead of joining a batch. `None`
/// once the queue is closed *and* drained (deterministic drain).
fn gather(shared: &Shared) -> Option<Vec<Request>> {
    let config = &shared.config;
    let mut st = shared.lock_state();
    if let Some(faults) = &config.faults {
        // inside the critical section on purpose: an injected death here
        // kills the thread *and* poisons the queue lock, exercising both
        // the supervisor and the poison-recovery paths
        faults.maybe_panic(FaultSite::WorkerDeath);
    }
    loop {
        if !st.queue.is_empty() {
            break;
        }
        if st.closed {
            return None;
        }
        st = shared
            .available
            .wait(st)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    let mut batch = Vec::with_capacity(config.max_batch);
    let deadline = Instant::now() + config.max_wait;
    loop {
        while batch.len() < config.max_batch {
            match st.queue.pop_front() {
                Some(request) => {
                    if let Some(budget) = config.deadline {
                        if request.enqueued.elapsed() > budget {
                            shared.metrics.deadline_exceeded.inc();
                            let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
                            continue;
                        }
                    }
                    batch.push(request);
                }
                None => break,
            }
        }
        shared.metrics.queue_depth.set(st.queue.len() as i64);
        if batch.len() >= config.max_batch || st.closed {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, timeout) = shared
            .available
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        st = guard;
        if timeout.timed_out() && st.queue.is_empty() {
            break;
        }
    }
    Some(batch)
}

/// Run one micro-batch: stack inputs into `[B, C, T, V]`, one batched
/// forward (thread count pinned to `threads_per_worker`), then scatter the
/// logit rows back over the reply channels. Every row is validated finite
/// before it leaves ([`ServeError::BadOutput`] otherwise). A panicking
/// forward fails the batch's requests (their `Pending`s see
/// [`ServeError::Closed`]) but leaves the worker alive for the next batch.
fn execute<M: Module>(shared: &Shared, session: &mut InferenceSession<M>, batch: Vec<Request>) {
    if batch.is_empty() {
        return;
    }
    let metrics = &shared.metrics;
    let b = batch.len();
    metrics.batches.inc();
    metrics.batch_size.observe(b as u64);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(faults) = &shared.config.faults {
            faults.maybe_delay();
            faults.maybe_panic(FaultSite::BatchPanic);
        }
        let sample_len = batch[0].input.len();
        let mut data = Vec::with_capacity(b * sample_len);
        for request in &batch {
            data.extend_from_slice(request.input.data());
        }
        let mut shape = Vec::with_capacity(batch[0].input.ndim() + 1);
        shape.push(b);
        shape.extend_from_slice(batch[0].input.shape());
        let x = Tensor::constant(NdArray::from_vec(data, &shape));
        let logits = with_threads(shared.config.threads_per_worker, || session.logits(&x));
        assert_eq!(logits.ndim(), 2, "serving model must produce [N, K] logits");
        assert_eq!(logits.shape()[0], b, "batched forward changed the batch size");
        let k = logits.shape()[1];
        for (i, request) in batch.into_iter().enumerate() {
            let mut row = logits.data()[i * k..(i + 1) * k].to_vec();
            if let Some(faults) = &shared.config.faults {
                faults.maybe_corrupt(&mut row);
            }
            metrics.latency_us.observe(request.enqueued.elapsed().as_micros() as u64);
            if row.iter().all(|v| v.is_finite()) {
                metrics.completed.inc();
                let _ = request.reply.send(Ok(NdArray::from_vec(row, &[k])));
            } else {
                metrics.bad_output.inc();
                let _ = request.reply.send(Err(ServeError::BadOutput));
            }
        }
    }));
    if outcome.is_err() {
        // the batch's Requests were consumed by the closure; their reply
        // senders are dropped, so every Pending unblocks with Closed
        metrics.failed.add(b as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::Zoo;
    use dhg_skeleton::SkeletonTopology;

    const SHAPE: [usize; 3] = [3, 8, 25];

    fn sample(seed: usize) -> NdArray {
        NdArray::from_vec(
            (0..3 * 8 * 25).map(|i| ((i + seed * 131) as f32 * 0.013).sin()).collect(),
            &SHAPE,
        )
    }

    fn engine(config: ServeConfig) -> ServeEngine {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        ServeEngine::start(move || zoo.stgcn(), &SHAPE, config).expect("engine start")
    }

    #[test]
    fn serves_requests_and_matches_sequential_logits() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let mut reference = InferenceSession::new(zoo.stgcn());
        let engine = engine(ServeConfig::default());
        for seed in 0..5 {
            let x = sample(seed);
            let got = engine.infer(x.clone()).expect("infer");
            assert_eq!(got.shape(), &[4]);
            let batch1 = Tensor::constant(x.reshape(&[1, 3, 8, 25]));
            let want = reference.logits(&batch1);
            assert_eq!(got.data(), &want.data()[..4], "seed {seed} diverged");
        }
        let m = engine.metrics();
        assert_eq!(m.completed.get(), 5);
        assert_eq!(m.shed.get(), 0);
        assert!(m.latency_us.count() == 5);
        engine.shutdown();
    }

    #[test]
    fn coalesces_concurrent_requests_into_batches() {
        let engine = engine(ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
            ..ServeConfig::default()
        });
        let pendings: Vec<Pending> =
            (0..8).map(|s| engine.submit(sample(s)).expect("submit")).collect();
        for p in pendings {
            assert_eq!(p.wait().expect("wait").shape(), &[4]);
        }
        let m = engine.metrics();
        assert_eq!(m.completed.get(), 8);
        assert_eq!(m.shed.get(), 0, "no request may be shed below the queue bound");
        assert!(
            m.batches.get() < 8,
            "8 concurrent requests must coalesce into fewer than 8 batches (got {})",
            m.batches.get()
        );
        assert!(
            m.batch_size.quantile(1.0).unwrap_or(0) >= 2,
            "largest batch should exceed one request"
        );
        engine.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_typed_error() {
        // max_wait long enough that the worker holds its first batch open
        // while we flood the bounded queue behind it
        let engine = engine(ServeConfig {
            max_batch: 2,
            max_wait: Duration::from_secs(5),
            queue_cap: 4,
            ..ServeConfig::default()
        });
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for s in 0..64 {
            match engine.submit(sample(s)) {
                Ok(p) => accepted.push(p),
                Err(ServeError::Rejected { queue_depth }) => {
                    assert!(queue_depth >= 1, "rejection must report the observed depth");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(rejected > 0, "a 4-deep queue cannot absorb 64 instant submits");
        assert_eq!(engine.metrics().shed.get(), rejected as u64);
        // accepted requests still complete (shutdown drains deterministically)
        let n = accepted.len();
        for p in accepted {
            p.wait().expect("accepted request must be answered");
        }
        assert_eq!(engine.metrics().completed.get(), n as u64);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work_then_refuses() {
        let engine = engine(ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let pendings: Vec<Pending> =
            (0..6).map(|s| engine.submit(sample(s)).expect("submit")).collect();
        engine.shutdown();
        for p in pendings {
            assert!(p.wait().is_ok(), "accepted requests must be drained on shutdown");
        }
    }

    #[test]
    fn mis_shaped_inputs_are_rejected_with_bad_shape() {
        let engine = engine(ServeConfig::default());
        let err = engine.submit(NdArray::zeros(&[3, 8, 24])).unwrap_err();
        assert_eq!(
            err,
            ServeError::BadShape { expected: vec![3, 8, 25], got: vec![3, 8, 24] }
        );
        engine.shutdown();
    }

    #[test]
    fn analyzer_refused_model_fails_startup() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        // declare a 24-joint sample shape against a 25-joint model: the
        // plan has shape errors, so no worker may start serving
        let err = ServeEngine::start(move || zoo.stgcn(), &[3, 8, 24], ServeConfig::default())
            .err()
            .expect("mis-shaped serving contract must be refused");
        assert!(matches!(err, ServeError::Startup(_)), "{err:?}");
    }

    #[test]
    fn invalid_config_fails_startup() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let err = ServeEngine::start(
            move || zoo.stgcn(),
            &SHAPE,
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
        )
        .err()
        .expect("zero max_batch must be refused");
        assert!(matches!(err, ServeError::Startup(_)));
    }

    #[test]
    fn metrics_registry_renders_all_serving_metrics() {
        let engine = engine(ServeConfig::default());
        engine.infer(sample(0)).expect("infer");
        let text = engine.metrics().registry().render_text();
        for name in [
            "serve-requests-total",
            "serve-completed-total",
            "serve-shed-total",
            "serve-batches-total",
            "serve-deadline-exceeded-total",
            "serve-bad-output-total",
            "serve-worker-restarts-total",
            "serve-streams-opened-total",
            "serve-stream-frames-total",
            "serve-stream-windows-total",
            "serve-queue-depth",
            "serve-open-streams",
            "serve-live-workers",
            "serve-batch-size",
            "serve-latency-us",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        let json = engine.metrics().registry().to_json();
        assert!(json.contains("\"serve-latency-us\":{\"count\":1"), "{json}");
        engine.shutdown();
    }

    #[test]
    fn multiple_workers_serve_identical_logits() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let mut reference = InferenceSession::new(zoo.stgcn());
        let want: Vec<Vec<f32>> = (0..8)
            .map(|s| {
                let x = Tensor::constant(sample(s).reshape(&[1, 3, 8, 25]));
                reference.logits(&x).data()[..4].to_vec()
            })
            .collect();
        let engine = engine(ServeConfig {
            workers: 3,
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let pendings: Vec<Pending> =
            (0..8).map(|s| engine.submit(sample(s)).expect("submit")).collect();
        for (s, p) in pendings.into_iter().enumerate() {
            let got = p.wait().expect("wait");
            assert_eq!(got.data(), want[s].as_slice(), "request {s} diverged across workers");
        }
        engine.shutdown();
    }

    #[test]
    fn healthy_engine_reports_full_worker_complement() {
        let engine = engine(ServeConfig { workers: 2, ..ServeConfig::default() });
        engine.infer(sample(0)).expect("infer");
        let health = engine.health();
        assert!(health.is_serving());
        assert_eq!(health.live_workers, 2);
        assert_eq!(health.configured_workers, 2);
        assert_eq!(health.restarts, 0);
        assert_eq!(health.completed, 1);
        assert_eq!(health.bad_output, 0);
        engine.shutdown();
    }

    /// One `[C, V]` frame of the synthetic stream.
    fn frame(t: usize) -> Vec<f32> {
        (0..3 * 25).map(|i| ((t * 3 * 25 + i) as f32 * 0.011).sin()).collect()
    }

    #[test]
    fn stream_warms_up_then_scores_sliding_windows() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let mut reference = InferenceSession::new(zoo.stgcn());
        let engine = engine(ServeConfig::default());
        let stream = engine.open_stream(1).expect("open");
        // generate each frame once and feed the same buffer to both sides:
        // recomputing it for the reference can differ in the last bit
        // under release optimisation
        let frames: Vec<Vec<f32>> = (0..10).map(frame).collect();
        // warmup: T-1 frames in, nothing out
        for f in &frames[..7] {
            assert!(engine.push_frame(stream, f).expect("push").is_none());
        }
        // frame 8 completes the window; every later frame slides it
        for t in 7..10 {
            let pending = engine
                .push_frame(stream, &frames[t])
                .expect("push")
                .expect("full window must submit");
            let got = pending.wait().expect("scored");
            // offline reference over the same [C, T, V] window
            let window = NdArray::from_vec(frames[t + 1 - 8..=t].concat(), &[8, 3, 25])
                .permute(&[1, 0, 2])
                .reshape(&[1, 3, 8, 25]);
            let want = reference.logits(&Tensor::constant(window));
            assert_eq!(got.data(), &want.data()[..4], "window at t={t} diverged");
        }
        let m = engine.metrics();
        assert_eq!(m.stream_frames.get(), 10);
        assert_eq!(m.stream_windows.get(), 3);
        assert_eq!(m.streams_opened.get(), 1);
        assert_eq!(m.open_streams.get(), 1);
        assert!(engine.close_stream(stream));
        assert_eq!(m.open_streams.get(), 0);
        engine.shutdown();
    }

    #[test]
    fn stream_emit_cadence_thins_submissions() {
        let engine = engine(ServeConfig::default());
        let stream = engine.open_stream(4).expect("open");
        let mut emitted = 0;
        for t in 0..16 {
            if let Some(p) = engine.push_frame(stream, &frame(t)).expect("push") {
                p.wait().expect("scored");
                emitted += 1;
            }
        }
        // emits at frames 8 and 12 and 16
        assert_eq!(emitted, 3);
        assert_eq!(engine.metrics().stream_windows.get(), 3);
        engine.shutdown();
    }

    #[test]
    fn stream_misuse_is_rejected_typed() {
        let engine = engine(ServeConfig::default());
        assert!(
            matches!(engine.open_stream(0).unwrap_err(), ServeError::NotStreamable(_)),
            "a zero emission cadence can never emit"
        );
        let stream = engine.open_stream(1).expect("open");
        assert_eq!(
            engine.push_frame(stream, &[0.0; 7]).unwrap_err(),
            ServeError::BadFrame { expected: 75, got: 7 }
        );
        assert_eq!(
            engine.push_frame(stream + 1, &frame(0)).unwrap_err(),
            ServeError::UnknownStream
        );
        assert!(engine.close_stream(stream));
        assert!(!engine.close_stream(stream), "double close must report absence");
        assert_eq!(
            engine.push_frame(stream, &frame(0)).unwrap_err(),
            ServeError::UnknownStream
        );
        engine.shutdown();
    }

    #[test]
    fn independent_streams_do_not_share_rings() {
        let engine = engine(ServeConfig::default());
        let a = engine.open_stream(1).expect("open a");
        let b = engine.open_stream(1).expect("open b");
        assert_ne!(a, b);
        // interleave different content; each stream warms up on its own
        // schedule and scores its own frames
        let mut a_logits = None;
        let mut b_logits = None;
        for t in 0..8 {
            a_logits = engine.push_frame(a, &frame(t)).expect("push a");
            b_logits = engine.push_frame(b, &frame(t + 100)).expect("push b");
        }
        let a_logits = a_logits.expect("a warm").wait().expect("a scored");
        let b_logits = b_logits.expect("b warm").wait().expect("b scored");
        assert_ne!(
            a_logits.data(),
            b_logits.data(),
            "distinct streams must score their own windows"
        );
        engine.shutdown();
    }

    #[test]
    fn injected_worker_death_is_respawned_and_serving_continues() {
        let faults = FaultPlan::builder(0xFA17)
            .rate(FaultSite::WorkerDeath, 1.0)
            .limit(FaultSite::WorkerDeath, 1)
            .build();
        let engine = engine(ServeConfig {
            faults: Some(faults.clone()),
            restart_backoff: Duration::from_micros(100),
            ..ServeConfig::default()
        });
        // first request's gather kills the worker; the supervisor must
        // respawn it and the request must still be answered eventually
        // (it stays queued: the dying worker never dequeued it)
        let got = engine.infer(sample(0)).expect("served after respawn");
        assert_eq!(got.shape(), &[4]);
        assert_eq!(faults.trips(FaultSite::WorkerDeath), 1);
        let health = engine.health();
        assert_eq!(health.restarts, 1, "supervisor must log the respawn");
        assert_eq!(health.live_workers, 1);
        engine.shutdown();
    }

    #[test]
    fn exhausted_restart_budget_fails_pending_work_typed() {
        let faults = FaultPlan::builder(7).rate(FaultSite::WorkerDeath, 1.0).build();
        let engine = engine(ServeConfig {
            faults: Some(faults),
            max_restarts: 2,
            restart_backoff: Duration::from_micros(100),
            ..ServeConfig::default()
        });
        // every gather dies: after the budget (2 respawns) the last
        // worker stays dead and the engine must fail the backlog typed
        // rather than strand the callers
        let pendings: Vec<Pending> =
            (0..4).map(|s| engine.submit(sample(s)).expect("submit")).collect();
        for p in pendings {
            let err = p.wait().expect_err("no worker survives to serve this");
            assert_eq!(err, ServeError::Closed);
        }
        let health = engine.health();
        assert_eq!(health.restarts, 2);
        assert_eq!(health.live_workers, 0);
        assert!(!health.is_serving());
        // the engine is closed: new submits and stream traffic refuse typed
        assert_eq!(engine.submit(sample(9)).unwrap_err(), ServeError::Closed);
        assert_eq!(engine.open_stream(1).unwrap_err(), ServeError::Closed);
        engine.shutdown();
    }

    #[test]
    fn corrupted_logits_are_withheld_as_bad_output() {
        let faults = FaultPlan::builder(3)
            .rate(FaultSite::BadLogits, 1.0)
            .limit(FaultSite::BadLogits, 1)
            .build();
        let engine = engine(ServeConfig { faults: Some(faults), ..ServeConfig::default() });
        let err = engine.infer(sample(0)).expect_err("corrupt row must be withheld");
        assert_eq!(err, ServeError::BadOutput);
        assert_eq!(engine.metrics().bad_output.get(), 1);
        // the fault was limited to one trip: the engine still serves
        let got = engine.infer(sample(1)).expect("subsequent requests are clean");
        assert!(got.data().iter().all(|v| v.is_finite()));
        engine.shutdown();
    }

    #[test]
    fn stalled_batch_times_out_callers_with_deadline_exceeded() {
        let faults = FaultPlan::builder(5)
            .rate(FaultSite::BatchDelay, 1.0)
            .limit(FaultSite::BatchDelay, 1)
            .delay(Duration::from_millis(200))
            .build();
        let engine = engine(ServeConfig {
            faults: Some(faults),
            deadline: Some(Duration::from_millis(30)),
            ..ServeConfig::default()
        });
        let err = engine.infer(sample(0)).expect_err("stalled batch must time out");
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert!(engine.metrics().deadline_exceeded.get() >= 1);
        engine.shutdown();
    }

    #[test]
    fn queued_requests_past_their_deadline_are_expired_not_served() {
        // wedge the single worker's first batch long enough for the rest
        // of the backlog to age past its deadline while still queued
        let faults = FaultPlan::builder(13)
            .rate(FaultSite::BatchDelay, 1.0)
            .limit(FaultSite::BatchDelay, 1)
            .delay(Duration::from_millis(80))
            .build();
        let engine = engine(ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            deadline: Some(Duration::from_millis(10)),
            faults: Some(faults),
            ..ServeConfig::default()
        });
        let pendings: Vec<Pending> =
            (0..8).map(|s| engine.submit(sample(s)).expect("submit")).collect();
        let outcomes: Vec<_> = pendings.into_iter().map(|p| p.wait()).collect();
        let expired = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::DeadlineExceeded)))
            .count();
        for o in &outcomes {
            assert!(
                matches!(o, Ok(_) | Err(ServeError::DeadlineExceeded)),
                "unexpected outcome {o:?}"
            );
        }
        assert!(
            expired >= 1,
            "an 80 ms stall against a 10 ms deadline must expire queued requests"
        );
        assert!(engine.metrics().deadline_exceeded.get() >= expired as u64);
        engine.shutdown();
    }

    #[test]
    fn respawn_backoff_caps_at_64x_and_saturates() {
        let base = Duration::from_millis(3);
        let factors: Vec<u128> =
            (0..10).map(|n| respawn_backoff(base, n).as_millis() / 3).collect();
        assert_eq!(factors, [1, 2, 4, 8, 16, 32, 64, 64, 64, 64]);
        // regression: 64× a large user-configured base used to overflow
        // `Duration * u32` and panic the supervisor thread
        let huge = Duration::from_secs(u64::MAX / 8);
        assert_eq!(respawn_backoff(huge, 6), Duration::MAX);
        assert_eq!(respawn_backoff(Duration::MAX, 9), Duration::MAX);
        assert_eq!(respawn_backoff(Duration::ZERO, 3), Duration::ZERO);
    }

    #[test]
    fn past_deadline_wait_fails_promptly_without_parking() {
        // wedge the only reply 500 ms out, let the 5 ms deadline expire
        // *before* wait() is called: it must return immediately, not park
        // on the wedged reply channel
        let faults = FaultPlan::builder(21)
            .rate(FaultSite::BatchDelay, 1.0)
            .limit(FaultSite::BatchDelay, 1)
            .delay(Duration::from_millis(500))
            .build();
        let engine = engine(ServeConfig {
            deadline: Some(Duration::from_millis(5)),
            faults: Some(faults),
            ..ServeConfig::default()
        });
        let pending = engine.submit(sample(0)).expect("submit");
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        let err = pending.wait().expect_err("deadline long past");
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "a past-deadline wait must not park until the wedged reply arrives ({:?})",
            t0.elapsed()
        );
        assert!(engine.metrics().deadline_exceeded.get() >= 1);
        engine.shutdown();
    }

    #[test]
    fn ready_reply_is_delivered_even_if_wait_starts_past_the_deadline() {
        // the reply arrives well inside the 50 ms budget; the caller only
        // redeems the ticket later — completed work is delivered, not
        // discarded as DeadlineExceeded
        let engine = engine(ServeConfig {
            deadline: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        });
        let pending = engine.submit(sample(0)).expect("submit");
        std::thread::sleep(Duration::from_millis(120));
        let got = pending.wait().expect("in-budget reply must be delivered late");
        assert_eq!(got.shape(), &[4]);
        engine.shutdown();
    }

    #[test]
    fn shed_window_leaves_stream_state_untouched_for_retry() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let mut reference = InferenceSession::new(zoo.stgcn());
        // wedge every batch 300 ms and keep the queue one deep, so the
        // stream's first window finds the queue full and is shed
        let faults = FaultPlan::builder(17)
            .rate(FaultSite::BatchDelay, 1.0)
            .delay(Duration::from_millis(300))
            .build();
        let engine = engine(ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_cap: 1,
            faults: Some(faults),
            ..ServeConfig::default()
        });
        let wedge_a = engine.submit(sample(100)).expect("wedge a");
        // wait for the worker to dequeue wedge a, then fill the queue
        let wedge_b = loop {
            match engine.submit(sample(101)) {
                Ok(p) => break p,
                Err(ServeError::Rejected { .. }) => std::thread::sleep(Duration::from_millis(2)),
                Err(other) => panic!("unexpected error {other:?}"),
            }
        };
        let stream = engine.open_stream(1).expect("open");
        // one buffer per frame for both sides (see
        // stream_warms_up_then_scores_sliding_windows)
        let frames: Vec<Vec<f32>> = (0..8).map(frame).collect();
        for f in &frames[..7] {
            assert!(engine.push_frame(stream, f).expect("warmup").is_none());
        }
        let err = engine.push_frame(stream, &frames[7]).expect_err("queue is full");
        assert!(matches!(err, ServeError::Rejected { .. }), "{err:?}");
        // transactional: the failed push must not have advanced the ring
        assert_eq!(engine.metrics().stream_frames.get(), 7);
        assert_eq!(engine.metrics().stream_windows.get(), 0);
        // retry the SAME frame until the wedge clears and it is accepted
        let mut pending = None;
        for _ in 0..500 {
            match engine.push_frame(stream, &frames[7]) {
                Ok(Some(p)) => {
                    pending = Some(p);
                    break;
                }
                Ok(None) => panic!("retried frame must complete the same window"),
                Err(ServeError::Rejected { .. }) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        let got = pending.expect("retry must eventually be accepted").wait().expect("scored");
        // the accepted window must be frames 0..8 exactly once each; a
        // non-transactional push would have double-inserted frame 7
        let window = NdArray::from_vec(frames.concat(), &[8, 3, 25])
            .permute(&[1, 0, 2])
            .reshape(&[1, 3, 8, 25]);
        let want = reference.logits(&Tensor::constant(window));
        assert_eq!(got.data(), &want.data()[..4], "retried window diverged");
        assert_eq!(engine.metrics().stream_frames.get(), 8);
        assert_eq!(engine.metrics().stream_windows.get(), 1);
        wedge_a.wait().expect("wedge a answered");
        wedge_b.wait().expect("wedge b answered");
        engine.shutdown();
    }

    #[test]
    fn closing_a_stream_with_final_window_in_flight_still_answers() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let mut reference = InferenceSession::new(zoo.stgcn());
        let faults = FaultPlan::builder(23)
            .rate(FaultSite::BatchDelay, 1.0)
            .limit(FaultSite::BatchDelay, 1)
            .delay(Duration::from_millis(150))
            .build();
        let engine = engine(ServeConfig { faults: Some(faults), ..ServeConfig::default() });
        let stream = engine.open_stream(1).expect("open");
        let mut pending = None;
        for t in 0..8 {
            pending = engine.push_frame(stream, &frame(t)).expect("push");
        }
        let pending = pending.expect("frame 8 completes the window");
        // close while the window is still wedged in its delayed batch
        assert!(engine.close_stream(stream));
        assert_eq!(engine.metrics().open_streams.get(), 0, "gauge must drop on close");
        let got = pending.wait().expect("in-flight window must still be answered");
        let rows: Vec<f32> = (0..8).flat_map(frame).collect();
        let window = NdArray::from_vec(rows, &[8, 3, 25])
            .permute(&[1, 0, 2])
            .reshape(&[1, 3, 8, 25]);
        let want = reference.logits(&Tensor::constant(window));
        assert_eq!(got.data(), &want.data()[..4], "closed-stream window diverged");
        // the stream is gone: further pushes are typed
        assert_eq!(engine.push_frame(stream, &frame(9)).unwrap_err(), ServeError::UnknownStream);
        engine.shutdown();
    }

    #[test]
    fn push_frame_after_engine_close_is_typed_and_gauge_stays_exact() {
        // one worker, restart budget 1, unlimited deaths: the first death
        // respawns after a 300 ms backoff (our window to act), the second
        // exhausts the budget and the engine closes itself
        let faults = FaultPlan::builder(29).rate(FaultSite::WorkerDeath, 1.0).build();
        let engine = engine(ServeConfig {
            faults: Some(faults),
            max_restarts: 1,
            restart_backoff: Duration::from_millis(300),
            ..ServeConfig::default()
        });
        let stream = engine.open_stream(1).expect("open while the backoff window is live");
        assert_eq!(engine.metrics().open_streams.get(), 1);
        // wait for the self-close
        for _ in 0..2000 {
            if !engine.health().is_serving() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!engine.health().is_serving(), "budget-exhausted engine must close");
        // a push to the surviving ring is refused typed, before mutating it
        let err = engine.push_frame(stream, &frame(0)).unwrap_err();
        assert_eq!(err, ServeError::Closed);
        assert_eq!(engine.metrics().stream_frames.get(), 0, "refused push must not commit");
        // the gauge still reflects the table exactly; close resolves it
        assert_eq!(engine.metrics().open_streams.get(), 1);
        assert!(engine.close_stream(stream));
        assert_eq!(engine.metrics().open_streams.get(), 0);
        assert!(!engine.close_stream(stream));
        engine.shutdown();
    }

    #[test]
    fn injected_batch_panic_fails_only_that_batch() {
        let faults = FaultPlan::builder(11)
            .rate(FaultSite::BatchPanic, 1.0)
            .limit(FaultSite::BatchPanic, 1)
            .build();
        let engine = engine(ServeConfig { faults: Some(faults), ..ServeConfig::default() });
        let err = engine.infer(sample(0)).expect_err("first batch dies");
        assert_eq!(err, ServeError::Closed);
        // the worker bumps the failed counter after the reply senders
        // drop (which is what unblocked us), so allow it a beat
        for _ in 0..200 {
            if engine.metrics().failed.get() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(engine.metrics().failed.get(), 1);
        // same worker, next batch: alive and correct
        let got = engine.infer(sample(1)).expect("worker survives a batch panic");
        assert_eq!(got.shape(), &[4]);
        assert_eq!(engine.health().restarts, 0, "a caught batch panic is not a death");
        engine.shutdown();
    }
}
