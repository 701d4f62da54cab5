//! Serving-path latency: the same DHGCN-lite batch pushed through the two
//! execution modes of its one forward — grad-recording eval mode and the
//! served path, `InferenceSession::logits` (the eval forward under
//! `no_grad`, with the session's workspace recycling buffers). Both ride
//! the packed cache-blocked GEMM (`dhg_tensor::gemm`) for their dense
//! conv and propagation matmuls, so this bench also tracks end-to-end
//! regressions in the matmul dispatch. That the session serves exactly
//! the `no_grad` eval forward is pinned by `dhg-train`'s
//! `infer::tests::session_is_the_no_grad_eval_forward_and_builds_no_graph`.

use criterion::{criterion_group, criterion_main, Criterion};
use dhg_nn::Module;
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor};
use dhg_train::zoo::Zoo;
use dhg_train::InferenceSession;
use std::hint::black_box;

fn batch() -> Tensor {
    Tensor::constant(NdArray::from_vec(
        (0..8 * 3 * 24 * 25).map(|i| (i as f32 * 0.011).sin()).collect(),
        &[8, 3, 24, 25],
    ))
}

fn bench_inference_latency(c: &mut Criterion) {
    let zoo = Zoo::new(SkeletonTopology::ntu25(), 8, 0);
    let model = zoo.dhgcn_lite();
    let x = batch();
    model.forward(&x); // move BN running stats off their init values
    let mut session = InferenceSession::new(model);

    let mut group = c.benchmark_group("inference_latency_b8_t24");
    group.bench_function("grad_eval", |b| b.iter(|| black_box(session.model().forward(&x))));
    group.bench_function("session", |b| b.iter(|| black_box(session.logits(&x))));
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_inference_latency
);
criterion_main!(benches);
