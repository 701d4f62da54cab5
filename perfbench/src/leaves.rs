//! Leaf calls of the ladder: the wire codec (`proto`), the hypergraph
//! builders and the GEMM kernel, each timed around its public function
//! on the operation's own data, plus the plan-IR cost figures they are
//! compared against.

use crate::trace::{Recorder, Rung};
use dhg_hypergraph::{
    dynamic_operators, stacked_operators, Hypergraph, TopologyConfig, TopologyGranularity,
};
use dhg_nn::{analyze, Module, SymShape};
use dhg_skeleton::{static_hypergraph, SkeletonTopology};
use dhg_tensor::parallel::with_threads;
use dhg_tensor::NdArray;
use dhg_train::proto::{
    decode_request, decode_response, encode_ok, encode_request, frame_bytes, OkPayload, Request,
    DEFAULT_MAX_FRAME, FRAME_HEADER,
};
use std::hint::black_box;

/// Encode → frame (CRC) → decode one request and its reply, the codec
/// work both ends of a wire round trip do. Returns the bytes the pair
/// puts on the wire.
pub fn proto_roundtrip(
    rec: &mut Recorder,
    req_id: u64,
    request: &Request,
    reply: &OkPayload,
) -> usize {
    rec.time(req_id, Rung::Proto, Some(Rung::Net), || {
        let body = encode_request(req_id, request);
        let wire = frame_bytes(&body, DEFAULT_MAX_FRAME).expect("request fits a frame");
        let decoded = decode_request(&wire[FRAME_HEADER..]).expect("request decodes");
        let body = encode_ok(req_id, reply);
        let back = frame_bytes(&body, DEFAULT_MAX_FRAME).expect("reply fits a frame");
        let resp = decode_response(&back[FRAME_HEADER..]).expect("reply decodes");
        black_box((decoded, resp));
        wire.len() + back.len()
    })
}

/// `k_n`, `k_m` and k-medoid seed DHGCN blocks build their topology with.
const TOPOLOGY: (usize, usize, u64) = (3, 4, 0x6B6D_6561_6E73);

/// The hypergraph work of one DHGCN-family forward, replayed outside
/// the model: Eq. 6–9 joint weights on the window's coordinates and one
/// Eq. 10–11 topology build per block width. The blocks' learned
/// embeddings are private, so each width embeds the coordinates through
/// a fixed seeded projection with ReLU instead.
pub struct HypergraphLeaf {
    hg: Hypergraph,
    widths: Vec<usize>,
    proj: Vec<f32>,
}

impl HypergraphLeaf {
    /// Leaf for block widths `widths` over `topology`.
    pub fn new(topology: &SkeletonTopology, widths: Vec<usize>) -> Self {
        let max_w = widths.iter().copied().max().unwrap_or(0);
        let proj = (0..max_w * 3)
            .map(|i| {
                (crate::inputs::mix(0xE3B0 + i as u64) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect();
        HypergraphLeaf { hg: static_hypergraph(topology), widths, proj }
    }

    /// Time both builders on one flat `[C, T, V]` window.
    pub fn run(&self, rec: &mut Recorder, req_id: u64, x: &[f32], c: usize, t: usize, v: usize) {
        let window = NdArray::from_vec(x.to_vec(), &[c, t, v]);
        let positions = window.permute(&[1, 2, 0]); // [T, V, C]
        let ops = rec.time(req_id, Rung::JointWeights, Some(Rung::Infer), || {
            dynamic_operators(&self.hg, &positions)
        });
        black_box(ops);
        let (kn, km, seed) = TOPOLOGY;
        let config = TopologyConfig::new(kn, km, seed);
        for &e in &self.widths {
            let mut feats = vec![0.0f32; t * v * e];
            for (tv, chunk) in feats.chunks_mut(e).enumerate() {
                let p = positions.data();
                for (ei, out) in chunk.iter_mut().enumerate() {
                    let w = &self.proj[ei * 3..ei * 3 + 3];
                    let s: f32 = (0..c.min(3)).map(|ci| w[ci] * p[tv * c + ci]).sum();
                    *out = s.max(0.0);
                }
            }
            let feats = NdArray::from_vec(feats, &[1, t, v, e]);
            let stacked = rec.time(req_id, Rung::Topology, Some(Rung::Infer), || {
                stacked_operators(&feats, TopologyGranularity::PerSample, &config)
            });
            black_box(stacked);
        }
    }
}

/// Plan-IR figures for one prepared model at one sample shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanCost {
    /// Predicted forward FLOPs per sample.
    pub flops: u64,
    /// The largest im2col GEMM `(m, k, n)` per sample: output channels,
    /// im2col rows, output positions.
    pub gemm: Option<(usize, usize, usize)>,
}

/// Cost figures from `analyze(&model.plan(..)).cost_summary()` and the
/// plan's convolution ops.
pub fn plan_cost(model: &dyn Module, c: usize, t: usize, v: usize) -> PlanCost {
    let plan = model.plan(&SymShape::nctv(c, t, v));
    let flops = analyze(&plan).cost_summary().flops;
    let gemm = plan
        .ops()
        .iter()
        .filter(|op| op.cost.scratch > 0 && op.output.rank() == 4)
        .filter_map(|op| {
            let m = op.output.known(1)?;
            let n = op.output.known(2)? * op.output.known(3)?;
            let k = (op.cost.flops / (2 * m as u64 * n as u64)) as usize;
            (k > 0).then_some((op.cost.flops, (m, k, n)))
        })
        .max_by_key(|&(f, _)| f)
        .map(|(_, shape)| shape);
    PlanCost { flops, gemm }
}

/// Request-id space of kernel spans (kept apart from operation ids).
pub const KERNEL_REQ: u64 = 1 << 63;

/// Median GFLOP/s of the packed dense `matmul` on `[m, k] × [k, n]` at
/// `threads` threads over `reps` timed calls (after one warm-up).
pub fn gemm_gflops(
    rec: &mut Recorder,
    (m, k, n): (usize, usize, usize),
    threads: usize,
    reps: usize,
    rung: Rung,
) -> f64 {
    let fill = |len: usize, salt: u64| -> Vec<f32> {
        (0..len)
            .map(|i| (crate::inputs::mix(salt ^ i as u64) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
            .collect()
    };
    let a = NdArray::from_vec(fill(m * k, 1), &[m, k]);
    let b = NdArray::from_vec(fill(k * n, 2), &[k, n]);
    with_threads(threads, || {
        black_box(a.matmul(&b));
        let mut rates = Vec::with_capacity(reps);
        for rep in 0..reps {
            rec.time(KERNEL_REQ | rep as u64, rung, Some(Rung::Infer), || black_box(a.matmul(&b)));
            rates.push(2.0 * (m * k * n) as f64 / rec.last_ms() / 1e6);
        }
        crate::stats::median(&rates)
    })
}
