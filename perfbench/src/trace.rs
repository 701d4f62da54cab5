//! Layer-ladder spans.
//!
//! A traced run replays each operation once per *rung*: over the wire
//! (`net`), then in-process through the `router`, a `serve` engine and an
//! `infer` session, then the leaf calls into `proto`, the hypergraph
//! builders and the GEMM kernel. Every call records a [`Span`] — request
//! id, rung, start, end and the rung it descends from. Spans stay in
//! memory until the run ends and are then written as one tab-separated
//! file.
//!
//! Because each rung re-executes the whole request one layer further in,
//! a layer's self time is its rung's duration minus the duration of the
//! rung below it for the same request id ([`self_times_ms`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// One rung of the ladder or one leaf call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// `NetClient::infer` / `push_frame`: the whole wire round trip.
    Net,
    /// In-process `Router::infer` / `push_frame`.
    Router,
    /// `ServeEngine::submit` + `Pending::wait` (or `push_frame` + wait).
    Serve,
    /// `InferenceSession::logits` at batch 1.
    Infer,
    /// `InferenceSession::logits` at batch 2 (this request and the next).
    InferB2,
    /// Request and reply encode → frame (CRC) → decode.
    Proto,
    /// `dynamic_operators` on the window's coordinates (Eq. 6–9).
    JointWeights,
    /// `stacked_operators` at one DHGCN block width (Eq. 10–11).
    Topology,
    /// Packed `matmul` on the model's largest im2col shape, 1 thread.
    Gemm1t,
    /// The same product at `nproc` threads.
    GemmNt,
    /// `batch_samples`: minibatch assembly.
    Skeleton,
    /// `Module::forward` in training mode.
    TrainForward,
    /// `cross_entropy` + `backward`.
    TrainBackward,
    /// `Sgd::step`.
    TrainStep,
}

impl Rung {
    /// Every rung, in ladder order.
    pub const ALL: [Rung; 14] = [
        Rung::Net,
        Rung::Router,
        Rung::Serve,
        Rung::Infer,
        Rung::InferB2,
        Rung::Proto,
        Rung::JointWeights,
        Rung::Topology,
        Rung::Gemm1t,
        Rung::GemmNt,
        Rung::Skeleton,
        Rung::TrainForward,
        Rung::TrainBackward,
        Rung::TrainStep,
    ];

    /// Stable name used in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Net => "net",
            Rung::Router => "router",
            Rung::Serve => "serve",
            Rung::Infer => "infer",
            Rung::InferB2 => "infer.b2",
            Rung::Proto => "proto",
            Rung::JointWeights => "hypergraph.joint_weights",
            Rung::Topology => "hypergraph.topology",
            Rung::Gemm1t => "tensor.gemm_1t",
            Rung::GemmNt => "tensor.gemm_nt",
            Rung::Skeleton => "skeleton.batch",
            Rung::TrainForward => "train.forward",
            Rung::TrainBackward => "train.backward",
            Rung::TrainStep => "train.step",
        }
    }

    /// Inverse of [`Rung::name`].
    pub fn parse(s: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operation id (`client << 32 | index`); every rung of one
    /// operation shares it.
    pub req: u64,
    /// The layer this call entered.
    pub rung: Rung,
    /// The rung this one descends from (`None` at the top).
    pub parent: Option<Rung>,
    /// Start, ns since the run's trace epoch.
    pub start_ns: u64,
    /// End, ns since the run's trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The run's trace epoch: every span's times count from the first call.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Per-thread span buffer against the run's [`epoch`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty buffer.
    pub fn new() -> Self {
        Recorder { epoch: epoch(), spans: Vec::new() }
    }

    /// Time `f` as one span of `rung` for operation `req`.
    pub fn time<R>(
        &mut self,
        req: u64,
        rung: Rung,
        parent: Option<Rung>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { req, rung, parent, start_ns: start, end_ns: end });
        out
    }

    /// Duration (ms) of the most recent span; 0 before the first.
    pub fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::ms)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total duration (ms) of `rung` per request id. Repeated spans of one
/// rung within a request (one topology build per block width) add up.
pub fn per_request_ms(spans: &[Span], rung: Rung) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.rung == rung) {
        *out.entry(s.req).or_insert(0.0) += s.ms();
    }
    out
}

/// Self time (ms) of `rung` for each request that reached it: its
/// duration minus the duration of `below` for the same request id, where
/// a request that never reached `below` (a frame push that emitted no
/// window) subtracts nothing.
pub fn self_times_ms(spans: &[Span], rung: Rung, below: Rung) -> Vec<f64> {
    let lower = per_request_ms(spans, below);
    per_request_ms(spans, rung)
        .into_iter()
        .map(|(req, ms)| ms - lower.get(&req).copied().unwrap_or(0.0))
        .collect()
}

/// Self time (ms) of `rung` over only the requests that also reached
/// `below` — e.g. the queue wait of pushes that submitted a window.
pub fn self_times_reaching_ms(spans: &[Span], rung: Rung, below: Rung) -> Vec<f64> {
    let lower = per_request_ms(spans, below);
    per_request_ms(spans, rung)
        .into_iter()
        .filter_map(|(req, ms)| lower.get(&req).map(|b| ms - b))
        .collect()
}

const HEADER: &str = "req\trung\tparent\tstart_ns\tend_ns";

/// Write spans as tab-separated lines under a header.
pub fn write_spans(w: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.req,
            s.rung.name(),
            s.parent.map_or("-", Rung::name),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

/// Read spans written by [`write_spans`].
#[cfg(test)]
pub fn read_spans(r: impl std::io::BufRead) -> Result<Vec<Span>, String> {
    let mut lines = r.lines();
    match lines.next() {
        Some(Ok(h)) if h == HEADER => {}
        other => return Err(format!("bad trace header: {other:?}")),
    }
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let f: Vec<&str> = line.split('\t').collect();
        let [req, rung, parent, start, end] = f[..] else {
            return Err(format!("line {}: expected 5 fields", i + 2));
        };
        let bad = |what: &str| format!("line {}: bad {what}", i + 2);
        out.push(Span {
            req: req.parse().map_err(|_| bad("req"))?,
            rung: Rung::parse(rung).ok_or_else(|| bad("rung"))?,
            parent: match parent {
                "-" => None,
                p => Some(Rung::parse(p).ok_or_else(|| bad("parent"))?),
            },
            start_ns: start.parse().map_err(|_| bad("start"))?,
            end_ns: end.parse().map_err(|_| bad("end"))?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, rung: Rung, start_ms: u64, end_ms: u64) -> Span {
        Span { req, rung, parent: None, start_ns: start_ms * 1_000_000, end_ns: end_ms * 1_000_000 }
    }

    #[test]
    fn ladder_self_time_subtracts_the_rung_below_per_request() {
        let spans = [
            // request 1: net 10 ms, router 7 ms, serve 6 ms, infer 4 ms
            span(1, Rung::Net, 0, 10),
            span(1, Rung::Router, 10, 17),
            span(1, Rung::Serve, 17, 23),
            span(1, Rung::Infer, 23, 27),
            // request 2: net 5 ms, router 4 ms, serve 1 ms, no infer rung
            // (a frame push that emitted nothing)
            span(2, Rung::Net, 30, 35),
            span(2, Rung::Router, 35, 39),
            span(2, Rung::Serve, 39, 40),
        ];
        let close = |got: Vec<f64>, want: &[f64]| {
            assert_eq!(got.len(), want.len(), "{got:?} vs {want:?}");
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
            }
        };
        close(self_times_ms(&spans, Rung::Net, Rung::Router), &[3.0, 1.0]);
        close(self_times_ms(&spans, Rung::Router, Rung::Serve), &[1.0, 3.0]);
        close(self_times_ms(&spans, Rung::Serve, Rung::Infer), &[2.0, 1.0]);
        close(self_times_reaching_ms(&spans, Rung::Serve, Rung::Infer), &[2.0]);
    }

    #[test]
    fn repeated_leaf_spans_add_up_per_request() {
        let spans = [
            span(4, Rung::Topology, 0, 2),
            span(4, Rung::Topology, 2, 5),
            span(5, Rung::Topology, 9, 10),
        ];
        let per = per_request_ms(&spans, Rung::Topology);
        assert_eq!(per.len(), 2);
        assert!((per[&4] - 5.0).abs() < 1e-9);
        assert!((per[&5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_file_round_trips() {
        let mut rec = Recorder::new();
        let x = rec.time(7, Rung::Net, None, || 40 + 2);
        assert_eq!(x, 42);
        rec.time(7, Rung::Router, Some(Rung::Net), || ());
        let mut spans = rec.into_spans();
        spans.push(Span {
            req: u64::MAX,
            rung: Rung::TrainStep,
            parent: Some(Rung::TrainBackward),
            start_ns: 5,
            end_ns: u64::MAX,
        });
        for rung in Rung::ALL {
            spans.push(Span { req: 1, rung, parent: Some(rung), start_ns: 1, end_ns: 2 });
        }
        let mut buf = Vec::new();
        write_spans(&mut buf, &spans).unwrap();
        let back = read_spans(buf.as_slice()).unwrap();
        assert_eq!(back, spans);
        assert!(read_spans("nope\n".as_bytes()).is_err());
        let torn = format!("{HEADER}\n1\tnet\t-\t5\n");
        assert!(read_spans(torn.as_bytes()).is_err());
    }
}
