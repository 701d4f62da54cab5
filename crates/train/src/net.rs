//! TCP serving frontend: a std-only threaded listener speaking the
//! [`crate::proto`] length-prefixed protocol over keep-alive
//! connections, routing every request through a shared [`Router`].
//!
//! ## Connection model
//!
//! One OS thread per connection (bounded by
//! [`NetConfig::max_connections`]; excess connections receive one
//! [`Status::Busy`] frame and are closed). A connection is a keep-alive
//! request/response loop: frames are answered in arrival order, and the
//! peer may hold the socket open idle indefinitely — idleness is
//! distinguished from a stalled peer by socket read timeouts, not
//! wall-clock reads, so this file stays clock-free. Once the first byte
//! of a frame arrives the remainder is subject to
//! [`NetConfig::read_timeout`] per read; a peer that stalls mid-frame is
//! disconnected. Replies are subject to [`NetConfig::write_timeout`].
//!
//! Malformed bodies are answered with a typed
//! [`Status::BadRequest`] frame (echoing the request id when at least
//! its 8 bytes arrived) rather than dropping the connection; framing
//! violations — an oversized length prefix, a mid-frame disconnect, a
//! CRC mismatch — close it.
//!
//! ## Chaos and self-healing
//!
//! With [`NetConfig::faults`] set, the wire-level
//! [`FaultSite`]s (`conn-drop`,
//! `frame-truncate`, `frame-corrupt`, `reply-delay`, `accept-reject`)
//! fire deterministically on the accept, read and write paths — every
//! decision a pure function of `(seed, site, call-index)`, so a chaos
//! run replays exactly.
//!
//! [`NetClient`] is the matching blocking client: one request in flight
//! per connection, correlation-id checked, and **self-healing** — a
//! transport-level failure (socket error, checksum mismatch, truncated
//! reply, correlation desync, server `Busy`) tears down the connection
//! and retries on a jitter-free exponential backoff schedule
//! ([`retry_backoff`]), reconnecting automatically and resending under
//! the *same* request id. The server keeps a bounded LRU of
//! recently-answered ids ([`NetConfig::reply_cache`]), so a retried
//! request whose original reply was lost is answered from cache instead
//! of executing twice — a retried `swap` never double-bumps a version.
//! Typed server verdicts ([`NetError::Remote`], other than `Busy`) are
//! never retried.

use crate::proto::{
    decode_request, decode_response, encode_err, encode_ok, encode_request, frame_bytes,
    peek_req_id, read_frame, verify_frame, write_frame, OkPayload, ProtoError, Request,
    Response, Status, DEFAULT_MAX_FRAME, FRAME_HEADER,
};
use crate::router::{RouteError, Router, SwapError};
use crate::serve::ServeError;
use dhg_nn::fault::{FaultPlan, FaultSite};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Listener configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`NetServer::addr`]).
    pub addr: String,
    /// Concurrent connection cap; excess connections get one
    /// [`Status::Busy`] frame and are closed.
    pub max_connections: usize,
    /// Per-read deadline once a frame has started arriving.
    pub read_timeout: Duration,
    /// Per-write deadline for replies.
    pub write_timeout: Duration,
    /// Frame size cap, both directions.
    pub max_frame: usize,
    /// Poll cadence while a connection sits idle between frames (bounds
    /// both shutdown latency and the stop-flag check interval).
    pub idle_tick: Duration,
    /// Entries kept in the bounded LRU of recently-answered request ids
    /// (idempotent replay for client retries). In-flight entries are
    /// never evicted; answered ones are, oldest first, past this cap.
    pub reply_cache: usize,
    /// How long a duplicate request waits for the in-flight original
    /// before being refused with a typed [`Status::Busy`].
    pub inflight_wait: Duration,
    /// Wire-level fault plan consulted on the accept, read and write
    /// paths. `None` (the default) keeps every hook a no-op.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame: DEFAULT_MAX_FRAME,
            idle_tick: Duration::from_millis(50),
            reply_cache: 1024,
            inflight_wait: Duration::from_secs(5),
            faults: None,
        }
    }
}

/// Typed client/server transport failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::ErrorKind),
    /// The connection attempt missed its deadline
    /// ([`ClientConfig::connect_timeout`]).
    ConnectTimeout,
    /// Wire-format violation.
    Proto(ProtoError),
    /// The server answered with a non-`Ok` status.
    Remote {
        /// Typed failure class from the wire.
        status: Status,
        /// Human-readable detail.
        message: String,
    },
    /// The reply's correlation id did not match the request's.
    ReqIdMismatch {
        /// Id this client sent.
        sent: u64,
        /// Id the server echoed.
        got: u64,
    },
    /// The reply decoded cleanly but carried the wrong payload variant.
    UnexpectedPayload,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(kind) => write!(f, "socket error: {kind}"),
            NetError::ConnectTimeout => write!(f, "connect timed out"),
            NetError::Proto(e) => write!(f, "protocol error: {e}"),
            NetError::Remote { status, message } => {
                write!(f, "server refused ({status:?}): {message}")
            }
            NetError::ReqIdMismatch { sent, got } => {
                write!(f, "correlation id mismatch: sent {sent}, got {got}")
            }
            NetError::UnexpectedPayload => write!(f, "reply payload variant mismatch"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(kind) => NetError::Io(kind),
            other => NetError::Proto(other),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.kind())
    }
}

fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(kind, std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Classify a `TcpStream::connect_timeout` failure: deadline misses get
/// the dedicated typed variant, everything else stays a socket error.
fn map_connect_err(kind: std::io::ErrorKind) -> NetError {
    if is_timeout(kind) {
        NetError::ConnectTimeout
    } else {
        NetError::Io(kind)
    }
}

// ------------------------------------------------------------- reply cache

/// One request id's lifecycle in the idempotency cache.
enum Slot {
    /// Some connection thread is executing this id right now.
    InFlight,
    /// Executed; the encoded reply is held for replay.
    Done(Arc<Vec<u8>>),
}

struct CacheInner {
    slots: BTreeMap<u64, Slot>,
    /// Answered ids in completion order — the LRU eviction queue.
    done_order: VecDeque<u64>,
}

/// What [`ReplyCache::begin`] decided for an incoming request id.
enum Begin {
    /// First sighting: the caller must execute and then
    /// [`complete`](ReplyCache::complete) (or abort).
    Execute,
    /// Already answered: send this cached reply, execute nothing.
    Replay(Arc<Vec<u8>>),
    /// Still executing elsewhere and the patience window elapsed.
    Busy,
}

/// Bounded LRU of recently-answered request ids, shared by every
/// connection thread of one server. A client that retries a request —
/// possibly on a brand-new connection, after its reply was lost to a
/// wire fault — gets the original reply replayed instead of a second
/// execution, which is what makes retrying a side-effecting `swap` safe.
struct ReplyCache {
    inner: Mutex<CacheInner>,
    ready: Condvar,
    cap: usize,
}

impl ReplyCache {
    fn new(cap: usize) -> ReplyCache {
        ReplyCache {
            inner: Mutex::new(CacheInner {
                slots: BTreeMap::new(),
                done_order: VecDeque::new(),
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Claim `req_id` for execution, replay its finished reply, or — if
    /// another thread holds it in flight past `patience` — report Busy.
    fn begin(&self, req_id: u64, patience: Duration) -> Begin {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut waited = Duration::ZERO;
        loop {
            match inner.slots.get(&req_id) {
                None => {
                    inner.slots.insert(req_id, Slot::InFlight);
                    return Begin::Execute;
                }
                Some(Slot::Done(reply)) => return Begin::Replay(reply.clone()),
                Some(Slot::InFlight) => {
                    if waited >= patience {
                        return Begin::Busy;
                    }
                    let tick = Duration::from_millis(20).min(patience - waited);
                    let (guard, _) = self
                        .ready
                        .wait_timeout(inner, tick)
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                    waited += tick;
                }
            }
        }
    }

    /// Record `req_id`'s reply and evict the oldest answered ids past
    /// the cap. In-flight ids are never evicted.
    fn complete(&self, req_id: u64, reply: Arc<Vec<u8>>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = inner.slots.get_mut(&req_id) {
            *slot = Slot::Done(reply);
            inner.done_order.push_back(req_id);
        }
        while inner.done_order.len() > self.cap {
            if let Some(old) = inner.done_order.pop_front() {
                if matches!(inner.slots.get(&old), Some(Slot::Done(_))) {
                    inner.slots.remove(&old);
                }
            }
        }
        drop(inner);
        self.ready.notify_all();
    }

    /// Release an in-flight claim without a reply (execution never
    /// finished); waiting duplicates re-contend for execution.
    fn abort(&self, req_id: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(inner.slots.get(&req_id), Some(Slot::InFlight)) {
            inner.slots.remove(&req_id);
        }
        drop(inner);
        self.ready.notify_all();
    }
}

/// Panic-safe execution claim: if the holder unwinds before
/// [`finish`](ExecGuard::finish), the claim is aborted so duplicates are
/// not stuck waiting on a reply that will never come.
struct ExecGuard<'a> {
    cache: &'a ReplyCache,
    req_id: u64,
    armed: bool,
}

impl ExecGuard<'_> {
    fn finish(mut self, reply: Arc<Vec<u8>>) {
        self.armed = false;
        self.cache.complete(self.req_id, reply);
    }
}

impl Drop for ExecGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abort(self.req_id);
        }
    }
}

// ------------------------------------------------------------------ server

/// The running TCP frontend. Shutting down (or dropping) stops the
/// accept loop and signals connection threads, which exit at their next
/// idle tick.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
    idle_tick: Duration,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind and start serving `router` on [`NetConfig::addr`].
    pub fn start(router: Arc<Router>, config: NetConfig) -> Result<NetServer, NetError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(AtomicUsize::new(0));
        let idle_tick = config.idle_tick;
        let cache = Arc::new(ReplyCache::new(config.reply_cache));
        let accept_thread = {
            let stop = stop.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("dhg-net-accept".into())
                .spawn(move || accept_loop(&listener, &router, &config, &stop, &conns, &cache))
                .map_err(|e| NetError::Io(e.kind()))?
        };
        Ok(NetServer { addr, stop, conns, idle_tick, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.load(Ordering::SeqCst)
    }

    /// Stop accepting, signal connection threads, and wait (bounded) for
    /// them to drain. Idempotent; dropping the server does the same.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let Some(handle) = self.accept_thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // the accept loop blocks in accept(); a self-connection wakes it
        // so it can observe the stop flag
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
        // connection threads notice the flag at their next idle tick;
        // wait a bounded number of ticks, then let stragglers (a peer
        // stalled mid-frame) finish on their socket deadlines
        for _ in 0..64 {
            if self.conns.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(self.idle_tick);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop(
    listener: &TcpListener,
    router: &Arc<Router>,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
    conns: &Arc<AtomicUsize>,
    cache: &Arc<ReplyCache>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Some(plan) = &config.faults {
            if plan.should_fire(FaultSite::AcceptReject) {
                // accepted, then immediately closed: the peer's first
                // request fails with a typed socket error and retries
                drop(stream);
                continue;
            }
        }
        if conns.load(Ordering::SeqCst) >= config.max_connections {
            // best-effort typed refusal; the peer may already be gone
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(config.write_timeout));
            let body = encode_err(0, Status::Busy, "connection limit reached", 0);
            let _ = write_frame(&mut stream, &body, config.max_frame);
            continue;
        }
        conns.fetch_add(1, Ordering::SeqCst);
        let router = router.clone();
        let conn_config = config.clone();
        let conn_stop = stop.clone();
        let conn_conns = conns.clone();
        let conn_cache = cache.clone();
        let spawned = std::thread::Builder::new().name("dhg-net-conn".into()).spawn(move || {
            serve_connection(stream, &router, &conn_config, &conn_stop, &conn_cache);
            conn_conns.fetch_sub(1, Ordering::SeqCst);
        });
        if spawned.is_err() {
            conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// What one read attempt at the top of the keep-alive loop produced.
enum FrameRead {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Nothing arrived within one idle tick.
    Idle,
    /// The peer closed cleanly between frames.
    Eof,
}

/// Read one frame, tolerating idleness *between* frames but applying
/// `read_timeout` per read once a frame has started. Verifies the body
/// CRC; with a fault plan installed, the read-path `frame-corrupt` and
/// `conn-drop` sites fire here.
fn read_frame_keepalive(
    stream: &mut TcpStream,
    config: &NetConfig,
) -> Result<FrameRead, NetError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0usize;
    while got < FRAME_HEADER {
        match stream.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(FrameRead::Eof);
                }
                return Err(NetError::Io(std::io::ErrorKind::UnexpectedEof));
            }
            Ok(n) => {
                if got == 0 {
                    // the frame has started: stalls are now fatal
                    stream.set_read_timeout(Some(config.read_timeout))?;
                }
                got += n;
            }
            Err(e) if is_timeout(e.kind()) && got == 0 => return Ok(FrameRead::Idle),
            Err(e) => return Err(NetError::Io(e.kind())),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > config.max_frame {
        return Err(NetError::Proto(ProtoError::Oversize { declared: len, max: config.max_frame }));
    }
    let mut body = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(NetError::Io(std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) => return Err(NetError::Io(e.kind())),
        }
    }
    if let Some(plan) = &config.faults {
        // as-if the inbound frame was damaged in transit: the checksum
        // below turns it into a typed framing error, never bad decode
        plan.maybe_flip_byte(FaultSite::FrameCorrupt, &mut body, 0);
        if plan.should_fire(FaultSite::ConnDrop) {
            return Err(NetError::Io(std::io::ErrorKind::ConnectionReset));
        }
    }
    verify_frame(&body, crc)?;
    Ok(FrameRead::Frame(body))
}

/// Write one reply frame, consulting the write-path wire-fault sites:
/// `reply-delay` stalls first, `conn-drop` closes without writing,
/// `frame-truncate` writes a strict prefix then closes, and
/// `frame-corrupt` flips one post-length byte (the peer's checksum turns
/// it into a typed error).
fn write_reply(
    stream: &mut TcpStream,
    body: &[u8],
    config: &NetConfig,
) -> Result<(), NetError> {
    let Some(plan) = &config.faults else {
        return Ok(write_frame(stream, body, config.max_frame)?);
    };
    plan.maybe_reply_delay();
    if plan.should_fire(FaultSite::ConnDrop) {
        return Err(NetError::Io(std::io::ErrorKind::ConnectionReset));
    }
    let mut wire = frame_bytes(body, config.max_frame)?;
    if let Some(keep) = plan.maybe_truncate(FaultSite::FrameTruncate, wire.len()) {
        let _ = stream.write_all(&wire[..keep]);
        let _ = stream.flush();
        return Err(NetError::Io(std::io::ErrorKind::ConnectionAborted));
    }
    // skip the length prefix so the peer still frames correctly and the
    // corruption lands where only the CRC can catch it
    plan.maybe_flip_byte(FaultSite::FrameCorrupt, &mut wire, 4);
    stream.write_all(&wire)?;
    stream.flush()?;
    Ok(())
}

fn serve_connection(
    mut stream: TcpStream,
    router: &Arc<Router>,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
    cache: &ReplyCache,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(config.write_timeout)).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_read_timeout(Some(config.idle_tick)).is_err() {
            return;
        }
        let body = match read_frame_keepalive(&mut stream, config) {
            Ok(FrameRead::Frame(body)) => body,
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => return,
        };
        let reply = respond(router, cache, config, &body);
        if write_reply(&mut stream, &reply, config).is_err() {
            return;
        }
    }
}

/// Answer one request body, consulting the idempotency cache: replays
/// cached replies for retried ids, executes first sightings exactly
/// once. Malformed bodies and id 0 bypass the cache.
fn respond(
    router: &Arc<Router>,
    cache: &ReplyCache,
    config: &NetConfig,
    body: &[u8],
) -> Arc<Vec<u8>> {
    let (req_id, req) = match decode_request(body) {
        Ok(decoded) => decoded,
        Err(e) => {
            let req_id = peek_req_id(body).unwrap_or(0);
            return Arc::new(encode_err(req_id, Status::BadRequest, &e.to_string(), 0));
        }
    };
    let kind = req.kind();
    if req_id == 0 {
        return Arc::new(dispatch(router, req_id, req));
    }
    match cache.begin(req_id, config.inflight_wait) {
        Begin::Replay(reply) => reply,
        Begin::Busy => Arc::new(encode_err(
            req_id,
            Status::Busy,
            "duplicate request still executing",
            kind,
        )),
        Begin::Execute => {
            let guard = ExecGuard { cache, req_id, armed: true };
            let reply = Arc::new(dispatch(router, req_id, req));
            guard.finish(reply.clone());
            reply
        }
    }
}

/// Map a routing failure onto its wire status.
fn route_status(e: &RouteError) -> Status {
    match e {
        RouteError::UnknownModel(_) => Status::UnknownModel,
        RouteError::QuotaExceeded { .. } => Status::QuotaExceeded,
        RouteError::Serve(s) => match s {
            ServeError::Rejected { .. } => Status::Rejected,
            ServeError::BadShape { .. } => Status::BadShape,
            ServeError::DeadlineExceeded => Status::DeadlineExceeded,
            ServeError::BadOutput => Status::BadOutput,
            ServeError::BadFrame { .. } => Status::BadFrame,
            ServeError::UnknownStream => Status::UnknownStream,
            ServeError::NotStreamable(_) => Status::NotStreamable,
            ServeError::Closed => Status::Closed,
            ServeError::Startup(_) => Status::Startup,
        },
    }
}

fn swap_status(e: &SwapError) -> Status {
    match e {
        SwapError::UnknownModel(_) => Status::UnknownModel,
        SwapError::Checkpoint(_) => Status::SwapCheckpoint,
        SwapError::Vetoed(_) => Status::SwapVetoed,
        SwapError::Startup(_) => Status::Startup,
        SwapError::CanaryActive(_) => Status::CanaryActive,
        SwapError::BadFraction(_) => Status::BadFraction,
    }
}

/// Dispatch one decoded request and encode its reply. Never panics;
/// every failure is a typed response frame. The request id doubles as
/// the canary routing key, so a retried request lands on the same
/// version arm it drew the first time.
fn dispatch(router: &Arc<Router>, req_id: u64, req: Request) -> Vec<u8> {
    let kind = req.kind();
    match req {
        Request::Infer { tenant, model, input } => {
            match router.infer_keyed(&tenant, &model, &input, req_id) {
                Ok(logits) => encode_ok(req_id, &OkPayload::Logits(logits.data().to_vec())),
                Err(e) => encode_err(req_id, route_status(&e), &e.to_string(), kind),
            }
        }
        Request::OpenStream { tenant, model, emit_every } => {
            match router.open_stream(&tenant, &model, emit_every as usize) {
                Ok(stream) => encode_ok(req_id, &OkPayload::Stream(stream)),
                Err(e) => encode_err(req_id, route_status(&e), &e.to_string(), kind),
            }
        }
        Request::PushFrame { tenant, stream, frame } => {
            match router.push_frame(&tenant, stream, &frame) {
                Ok(window) => encode_ok(
                    req_id,
                    &OkPayload::Window(window.map(|l| l.data().to_vec())),
                ),
                Err(e) => encode_err(req_id, route_status(&e), &e.to_string(), kind),
            }
        }
        Request::CloseStream { tenant, stream } => {
            match router.close_stream(&tenant, stream) {
                Ok(existed) => encode_ok(req_id, &OkPayload::Closed(existed)),
                Err(e) => encode_err(req_id, route_status(&e), &e.to_string(), kind),
            }
        }
        Request::Health => encode_ok(req_id, &OkPayload::Health(router.health_json())),
        Request::Swap { model, checkpoint } => match router.swap(&model, &checkpoint) {
            Ok(version) => encode_ok(req_id, &OkPayload::Version(version)),
            Err(e) => encode_err(req_id, swap_status(&e), &e.to_string(), kind),
        },
        Request::SwapCanary { model, fraction_bp, checkpoint } => {
            match router.swap_canary(&model, &checkpoint, fraction_bp as f64 / 10_000.0) {
                Ok(version) => encode_ok(req_id, &OkPayload::CanaryVersion(version)),
                Err(e) => encode_err(req_id, swap_status(&e), &e.to_string(), kind),
            }
        }
    }
}

// ------------------------------------------------------------------ client

/// Deterministic, jitter-free exponential backoff schedule:
/// `base << attempt`, saturating, capped at `cap`. Attempt 0 is the
/// first *retry*.
pub fn retry_backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(cap)
}

/// Is this failure worth tearing down the connection and retrying? All
/// transport-level failures are (the request may never have executed, or
/// its reply was lost — the server's reply cache makes the resend
/// idempotent either way). Typed server verdicts are not, except `Busy`,
/// which by contract means "try again later".
fn retryable(e: &NetError) -> bool {
    match e {
        NetError::Io(_)
        | NetError::ConnectTimeout
        | NetError::Proto(_)
        | NetError::ReqIdMismatch { .. } => true,
        NetError::Remote { status, .. } => *status == Status::Busy,
        NetError::UnexpectedPayload => false,
    }
}

/// Client tuning knobs. The defaults match the pre-retry behaviour of
/// this module except that connects now time out and transport failures
/// are retried (with no fault plan on the server, retries never fire on
/// a healthy link).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Deadline for establishing a TCP connection
    /// ([`NetError::ConnectTimeout`] when missed).
    pub connect_timeout: Duration,
    /// Socket read deadline while waiting for a reply.
    pub reply_timeout: Duration,
    /// Socket write deadline while sending a request.
    pub write_timeout: Duration,
    /// Frame size cap, both directions.
    pub max_frame: usize,
    /// Retries after the first attempt (0 disables self-healing).
    pub retries: u32,
    /// First retry delay; doubles each retry ([`retry_backoff`]).
    pub backoff_base: Duration,
    /// Ceiling on a single retry delay.
    pub backoff_cap: Duration,
    /// Session tag occupying the high 32 bits of every request id.
    /// `None` draws a distinct tag per client from a process-global
    /// counter mixed with the pid, so concurrent clients against one
    /// server never alias each other's ids in the reply cache.
    pub session: Option<u32>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            reply_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame: DEFAULT_MAX_FRAME,
            retries: 4,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            session: None,
        }
    }
}

static NEXT_SESSION: AtomicU32 = AtomicU32::new(1);

fn fresh_session() -> u32 {
    // unique within the process by the counter; the pid mix keeps two
    // *processes* hammering one server from aliasing (no entropy: the
    // request path stays clock- and randomness-free)
    NEXT_SESSION.fetch_add(1, Ordering::Relaxed) ^ std::process::id().rotate_left(16)
}

/// Blocking request/response client over one keep-alive connection,
/// self-healing per the module docs: transport failures reconnect and
/// retry on the deterministic [`retry_backoff`] schedule, resending
/// under the same request id so the server's reply cache deduplicates.
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    session: u32,
    next_seq: u32,
    connects: u64,
    retries_used: u64,
}

impl NetClient {
    /// Connect with the [`ClientConfig`] defaults.
    pub fn connect(addr: SocketAddr) -> Result<NetClient, NetError> {
        Self::connect_config(addr, ClientConfig::default())
    }

    /// Connect with full control over timeouts, retry schedule and
    /// session tag. Fails fast (no retry) so a bad address is a typed
    /// error here, not on the first request.
    pub fn connect_config(addr: SocketAddr, config: ClientConfig) -> Result<NetClient, NetError> {
        let session = match config.session {
            Some(tag) => tag,
            None => fresh_session(),
        };
        let mut client = NetClient {
            addr,
            config,
            stream: None,
            session,
            next_seq: 0,
            connects: 0,
            retries_used: 0,
        };
        client.ensure_stream()?;
        Ok(client)
    }

    /// Times this client re-established its connection after the first.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Times a request attempt was retried.
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    /// The session tag in the high 32 bits of this client's request ids.
    pub fn session(&self) -> u32 {
        self.session
    }

    fn ensure_stream(&mut self) -> Result<(), NetError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| map_connect_err(e.kind()))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.reply_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        self.stream = Some(stream);
        self.connects += 1;
        Ok(())
    }

    /// One wire exchange on the current connection.
    fn attempt(&mut self, sent: u64, body: &[u8]) -> Result<OkPayload, NetError> {
        let max_frame = self.config.max_frame;
        self.ensure_stream()?;
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Io(std::io::ErrorKind::NotConnected));
        };
        write_frame(stream, body, max_frame)?;
        let reply = read_frame(stream, max_frame)?;
        match decode_response(&reply)? {
            Response::Ok { req_id, payload } => {
                if req_id != sent {
                    return Err(NetError::ReqIdMismatch { sent, got: req_id });
                }
                Ok(payload)
            }
            Response::Err { req_id, status, message } => {
                // id 0 marks failures where the server could not recover
                // the request id (or a pre-request Busy refusal)
                if req_id != sent && req_id != 0 {
                    return Err(NetError::ReqIdMismatch { sent, got: req_id });
                }
                Err(NetError::Remote { status, message })
            }
        }
    }

    fn call(&mut self, req: &Request) -> Result<OkPayload, NetError> {
        self.next_seq = self.next_seq.wrapping_add(1);
        let sent = (self.session as u64) << 32 | self.next_seq as u64;
        let body = encode_request(sent, req);
        let mut attempt = 0u32;
        loop {
            match self.attempt(sent, &body) {
                Ok(payload) => return Ok(payload),
                Err(e) => {
                    if !matches!(e, NetError::Remote { .. }) {
                        // the connection is dead or desynced either way
                        self.stream = None;
                    }
                    if attempt >= self.config.retries || !retryable(&e) {
                        return Err(e);
                    }
                    self.retries_used += 1;
                    std::thread::sleep(retry_backoff(
                        self.config.backoff_base,
                        self.config.backoff_cap,
                        attempt,
                    ));
                    attempt += 1;
                }
            }
        }
    }

    /// Batch inference of one flat row-major sample.
    pub fn infer(
        &mut self,
        tenant: &str,
        model: &str,
        input: &[f32],
    ) -> Result<Vec<f32>, NetError> {
        match self.call(&Request::Infer {
            tenant: tenant.to_string(),
            model: model.to_string(),
            input: input.to_vec(),
        })? {
            OkPayload::Logits(logits) => Ok(logits),
            _ => Err(NetError::UnexpectedPayload),
        }
    }

    /// Open a sliding-window stream; returns the server stream id.
    pub fn open_stream(
        &mut self,
        tenant: &str,
        model: &str,
        emit_every: u32,
    ) -> Result<u64, NetError> {
        match self.call(&Request::OpenStream {
            tenant: tenant.to_string(),
            model: model.to_string(),
            emit_every,
        })? {
            OkPayload::Stream(id) => Ok(id),
            _ => Err(NetError::UnexpectedPayload),
        }
    }

    /// Push one flat `[C*V]` frame; `Some(logits)` when it completed a
    /// window.
    pub fn push_frame(
        &mut self,
        tenant: &str,
        stream: u64,
        frame: &[f32],
    ) -> Result<Option<Vec<f32>>, NetError> {
        match self.call(&Request::PushFrame {
            tenant: tenant.to_string(),
            stream,
            frame: frame.to_vec(),
        })? {
            OkPayload::Window(window) => Ok(window),
            _ => Err(NetError::UnexpectedPayload),
        }
    }

    /// Close a stream; `true` if it was open.
    pub fn close_stream(&mut self, tenant: &str, stream: u64) -> Result<bool, NetError> {
        match self.call(&Request::CloseStream { tenant: tenant.to_string(), stream })? {
            OkPayload::Closed(existed) => Ok(existed),
            _ => Err(NetError::UnexpectedPayload),
        }
    }

    /// Router-wide health snapshot (JSON).
    pub fn health(&mut self) -> Result<String, NetError> {
        match self.call(&Request::Health)? {
            OkPayload::Health(json) => Ok(json),
            _ => Err(NetError::UnexpectedPayload),
        }
    }

    /// Hot-swap `model` to `checkpoint`; returns the new version.
    pub fn swap(&mut self, model: &str, checkpoint: &[u8]) -> Result<u64, NetError> {
        match self.call(&Request::Swap {
            model: model.to_string(),
            checkpoint: checkpoint.to_vec(),
        })? {
            OkPayload::Version(version) => Ok(version),
            _ => Err(NetError::UnexpectedPayload),
        }
    }

    /// Stage `checkpoint` as a canary for `model` serving `fraction` of
    /// keyed traffic (`0 < fraction <= 1`); returns the candidate
    /// version that a later auto-promotion would install.
    pub fn swap_canary(
        &mut self,
        model: &str,
        checkpoint: &[u8],
        fraction: f64,
    ) -> Result<u64, NetError> {
        let fraction_bp = (fraction * 10_000.0).round().clamp(0.0, 10_000.0) as u32;
        match self.call(&Request::SwapCanary {
            model: model.to_string(),
            fraction_bp,
            checkpoint: checkpoint.to_vec(),
        })? {
            OkPayload::CanaryVersion(version) => Ok(version),
            _ => Err(NetError::UnexpectedPayload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_doubling_capped() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_millis(200);
        let schedule: Vec<u64> =
            (0..8).map(|a| retry_backoff(base, cap, a).as_millis() as u64).collect();
        assert_eq!(schedule, vec![5, 10, 20, 40, 80, 160, 200, 200]);
        // absurd attempt counts saturate instead of overflowing
        assert_eq!(retry_backoff(base, cap, u32::MAX), cap);
    }

    #[test]
    fn retryable_covers_transport_not_verdicts() {
        assert!(retryable(&NetError::Io(std::io::ErrorKind::ConnectionReset)));
        assert!(retryable(&NetError::ConnectTimeout));
        assert!(retryable(&NetError::Proto(ProtoError::BadChecksum { expected: 1, got: 2 })));
        assert!(retryable(&NetError::ReqIdMismatch { sent: 1, got: 2 }));
        // Busy means "try again"; every other server verdict is final
        assert!(retryable(&NetError::Remote { status: Status::Busy, message: String::new() }));
        for status in [Status::BadShape, Status::UnknownModel, Status::BadOutput] {
            assert!(!retryable(&NetError::Remote { status, message: String::new() }));
        }
        assert!(!retryable(&NetError::UnexpectedPayload));
    }

    #[test]
    fn connect_errors_map_timeouts_to_the_typed_variant() {
        assert_eq!(map_connect_err(std::io::ErrorKind::TimedOut), NetError::ConnectTimeout);
        assert_eq!(map_connect_err(std::io::ErrorKind::WouldBlock), NetError::ConnectTimeout);
        assert_eq!(
            map_connect_err(std::io::ErrorKind::ConnectionRefused),
            NetError::Io(std::io::ErrorKind::ConnectionRefused)
        );
    }

    #[test]
    fn reply_cache_replays_done_and_evicts_only_done() {
        let cache = ReplyCache::new(2);
        let patience = Duration::from_millis(1);
        // first sighting executes; completion is replayed thereafter
        assert!(matches!(cache.begin(1, patience), Begin::Execute));
        cache.complete(1, Arc::new(vec![0xAA]));
        match cache.begin(1, patience) {
            Begin::Replay(reply) => assert_eq!(*reply, vec![0xAA]),
            _ => panic!("answered id must replay"),
        }
        // an in-flight id survives any amount of Done eviction pressure
        assert!(matches!(cache.begin(2, patience), Begin::Execute));
        for id in 3..8 {
            assert!(matches!(cache.begin(id, patience), Begin::Execute));
            cache.complete(id, Arc::new(vec![id as u8]));
        }
        // id 1 and the early Done ids were evicted (cap 2), so they
        // would execute anew; the in-flight id 2 still blocks duplicates
        assert!(matches!(cache.begin(1, patience), Begin::Execute));
        cache.abort(1);
        assert!(matches!(cache.begin(2, patience), Begin::Busy));
        // aborting releases the claim for re-execution
        cache.abort(2);
        assert!(matches!(cache.begin(2, patience), Begin::Execute));
    }

    #[test]
    fn exec_guard_aborts_on_unwind_and_completes_on_finish() {
        let cache = ReplyCache::new(4);
        let patience = Duration::from_millis(1);
        assert!(matches!(cache.begin(9, patience), Begin::Execute));
        {
            let guard = ExecGuard { cache: &cache, req_id: 9, armed: true };
            drop(guard); // simulates an unwinding executor
        }
        // the claim was released, not stuck in flight
        assert!(matches!(cache.begin(9, patience), Begin::Execute));
        let guard = ExecGuard { cache: &cache, req_id: 9, armed: true };
        guard.finish(Arc::new(vec![7]));
        assert!(matches!(cache.begin(9, patience), Begin::Replay(_)));
    }

    #[test]
    fn session_tags_are_distinct_within_a_process() {
        let a = fresh_session();
        let b = fresh_session();
        assert_ne!(a, b, "two clients must never share a session tag");
    }
}
