//! Cross-crate proof that the parallel execution layer is *bitwise*
//! deterministic: every kernel that shards over `dhg_tensor::parallel`
//! must return exactly the same bytes at any thread count. Each test
//! computes a serial baseline under `with_threads(1)` and compares the
//! parallel result bit-for-bit (`f32::to_bits`, not `allclose`).

use dhgcn::hypergraph::{
    dynamic_operators, knn_hyperedges, stacked_operators, TopologyConfig, TopologyGranularity,
};
use dhgcn::prelude::*;
use dhgcn::skeleton::{batch_samples, static_hypergraph, SkeletonSample};
use dhgcn::tensor::gemm::packed_b_len;
use dhgcn::tensor::ops::Conv2dSpec;
use dhgcn::tensor::parallel::{num_threads, with_threads, MIN_PARALLEL_WORK};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thread counts the suite sweeps (the ISSUE's `DHGCN_THREADS ∈ {1,2,8}`).
const THREADS: [usize; 3] = [1, 2, 8];

fn assert_bitwise_eq(a: &NdArray, b: &NdArray, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

fn random_array(shape: &[usize], seed: u64) -> NdArray {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    NdArray::from_vec((0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect(), shape)
}

#[test]
fn batched_matmul_is_bitwise_identical_across_thread_counts() {
    // 4·48·56·40 ≈ 430k scalar ops: above the parallel threshold
    let a = random_array(&[4, 48, 40], 1);
    let b = random_array(&[4, 40, 56], 2);
    let serial = with_threads(1, || a.matmul(&b));
    for t in THREADS {
        let par = with_threads(t, || a.matmul(&b));
        assert_bitwise_eq(&serial, &par, &format!("dense matmul, threads = {t}"));
    }
}

#[test]
fn packed_gemm_is_bitwise_identical_across_thread_counts() {
    // Conv-shaped product (the GCN feature transform after im2col) well
    // above MIN_PARALLEL_WORK, dense -> auto dispatch takes the packed
    // cache-blocked kernel; forced matmul_packed must match the auto
    // entry point bit for bit at every thread count, and the adaptive
    // row-block split must never leak into the result bits.
    let a = random_array(&[32, 288], 21);
    let b = random_array(&[288, 213], 22);
    let serial = with_threads(1, || a.matmul(&b));
    for t in THREADS {
        let par = with_threads(t, || a.matmul(&b));
        assert_bitwise_eq(&serial, &par, &format!("packed gemm, threads = {t}"));
        let forced = with_threads(t, || a.matmul_packed(&b));
        assert_bitwise_eq(&serial, &forced, &format!("forced packed gemm, threads = {t}"));
    }
}

#[test]
fn sparse_lhs_matmul_is_bitwise_identical_across_thread_counts() {
    // >50% zeros in the lhs flips the zero-skip inner loop; the branch
    // decision is global, so it too must be thread-count independent
    let mut a = random_array(&[4, 48, 40], 3);
    for (i, v) in a.data_mut().iter_mut().enumerate() {
        if i % 3 != 0 {
            *v = 0.0;
        }
    }
    let b = random_array(&[4, 40, 56], 4);
    let serial = with_threads(1, || a.matmul(&b));
    for t in THREADS {
        let par = with_threads(t, || a.matmul(&b));
        assert_bitwise_eq(&serial, &par, &format!("sparse matmul, threads = {t}"));
    }
}

#[test]
fn conv2d_forward_and_backward_are_bitwise_identical() {
    // Three convolution nodes: an unbiased 3×1 (im2col columns), a biased
    // 1×1 (the input is its own columns: no im2col, no col2im) and a
    // biased, strided, dilated 3×1. At [8, 24, 64, 25] into 48 channels
    // every product's distinct B images — forward, dW and dx — hold more
    // than MIN_PARALLEL_WORK floats, so they are packed in parallel.
    let x0 = random_array(&[8, 24, 64, 25], 5);
    let cases = [
        ("3x1", Conv2dSpec::temporal(3, 1, 1), false),
        ("biased 1x1", Conv2dSpec::pointwise(), true),
        ("biased 3x1 stride 2 dilation 2", Conv2dSpec::temporal(3, 2, 2), true),
    ];
    for (i, (what, spec, biased)) in cases.into_iter().enumerate() {
        let (kh, kw) = spec.kernel;
        let (cin, cout, ckk) = (24, 48, 24 * kh * kw);
        let (ho, wo) = spec.out_size(64, 25);
        let l = ho * wo;
        // forward W·cols, dW = g·colsᵀ, dx = Wᵀ·g: 8 distinct B images each
        for (k, n) in [(ckk, l), (l, ckk), (cout, l)] {
            assert!(8 * packed_b_len(k, n) > MIN_PARALLEL_WORK, "{what}: [{k}, {n}] packs serially");
        }
        let w0 = random_array(&[cout, cin, kh, kw], 6 + i as u64);
        let b0 = random_array(&[cout], 9 + i as u64);
        let r = Tensor::constant(random_array(&[8, cout, ho, wo], 12 + i as u64));
        let run = || {
            let x = Tensor::param(x0.clone());
            let w = Tensor::param(w0.clone());
            let b = biased.then(|| Tensor::param(b0.clone()));
            let y = x.conv2d(&w, b.as_ref(), spec);
            // a weighted sum, so every output position has its own gradient
            y.mul(&r).sum_all().backward();
            let gb = b.map(|b| b.grad().unwrap());
            (y.array(), x.grad().unwrap(), w.grad().unwrap(), gb)
        };
        let (sy, sgx, sgw, sgb) = with_threads(1, run);
        for t in THREADS {
            let (py, pgx, pgw, pgb) = with_threads(t, run);
            assert_bitwise_eq(&sy, &py, &format!("{what} conv2d forward, threads = {t}"));
            assert_bitwise_eq(&sgx, &pgx, &format!("{what} conv2d input grad, threads = {t}"));
            assert_bitwise_eq(&sgw, &pgw, &format!("{what} conv2d weight grad, threads = {t}"));
            assert_eq!(sgb.is_some(), pgb.is_some());
            if let (Some(s), Some(p)) = (&sgb, &pgb) {
                assert_bitwise_eq(s, p, &format!("{what} conv2d bias grad, threads = {t}"));
            }
        }
    }
}

#[test]
fn dhgcn_training_step_is_bitwise_identical_across_thread_counts() {
    // One forward, cross-entropy and backward of a fresh DHGCN (same seed,
    // so the same dropout masks) at each thread count. Batch 12 at T = 32
    // puts the block BatchNorms' per-channel sums, forward and backward,
    // above the parallel threshold, beside the convolutions' GEMMs.
    let dataset = SkeletonDataset::ntu60_like(4, 3, 32, 12);
    let refs: Vec<&SkeletonSample> = dataset.samples.iter().collect();
    let (x, labels) = batch_samples(&refs, Stream::Joint, &dataset.topology);
    let run = || {
        let mut model = Zoo::tiny(dataset.topology.clone(), 4, 3).dhgcn();
        model.set_training(true);
        let loss = model.forward(&Tensor::constant(x.clone())).cross_entropy(&labels);
        loss.backward();
        let grads: Vec<NdArray> =
            model.parameters().iter().map(|p| p.grad().expect("every parameter gets a gradient")).collect();
        (loss.array(), grads)
    };
    let (serial_loss, serial_grads) = with_threads(1, run);
    for t in THREADS {
        let (loss, grads) = with_threads(t, run);
        assert_bitwise_eq(&serial_loss, &loss, &format!("training loss, threads = {t}"));
        assert_eq!(grads.len(), serial_grads.len());
        for (i, (s, p)) in serial_grads.iter().zip(&grads).enumerate() {
            assert_bitwise_eq(s, p, &format!("parameter {i} gradient, threads = {t}"));
        }
    }
}

/// The shape the newly sharded kernels are pinned at: 614,400 elements,
/// above MIN_PARALLEL_WORK, over 16 samples, 48 channels and 768 rows.
const BIG: [usize; 4] = [16, 48, 32, 25];

/// Run `f` at every thread count above 1 and compare each of its arrays
/// with the 1-thread run, bit for bit.
fn assert_sharded_matches_serial(what: &str, f: impl Fn() -> Vec<(&'static str, NdArray)>) {
    let serial = with_threads(1, &f);
    for t in THREADS.into_iter().filter(|&t| t > 1) {
        for ((name, s), (_, p)) in serial.iter().zip(with_threads(t, &f)) {
            assert_bitwise_eq(s, &p, &format!("{what}: {name}, threads = {t}"));
        }
    }
}

#[test]
fn sharded_elementwise_kernels_are_bitwise_identical() {
    assert!(BIG.iter().product::<usize>() >= MIN_PARALLEL_WORK);
    let x = random_array(&BIG, 21);
    let y = random_array(&BIG, 22);
    let bias = random_array(&[BIG[1]], 23);
    assert_sharded_matches_serial("elementwise", || {
        let mut scaled = x.clone();
        scaled.add_assign_scaled(&y, -0.37);
        let mut biased = x.clone();
        biased.add_channel_bias(bias.data());
        let mut squared = x.clone();
        squared.map_inplace(|v| v * v - 0.5);
        vec![
            ("map", x.map(|v| v.max(0.0) * 1.5 - 0.25)),
            ("zip_map", x.zip_map(&y, |a, b| a * b - a / (1.0 + b.abs()))),
            ("add_assign_scaled", scaled),
            ("add_channel_bias", biased),
            ("map_inplace", squared),
        ]
    });
    // ReLU's backward masks the gradient in place (zip_map_inplace)
    assert_sharded_matches_serial("relu", || {
        let xt = Tensor::param(x.clone());
        let out = xt.relu();
        out.mul(&Tensor::constant(y.clone())).sum_all().backward();
        vec![("forward", out.array()), ("backward", xt.grad().unwrap())]
    });
}

#[test]
fn broadcast_binops_are_bitwise_identical_with_the_operand_on_either_side() {
    // per channel, per (channel, frame) row, per trailing plane, per joint
    let full = random_array(&BIG, 31);
    for (i, small_shape) in
        [&[1, 48, 1, 1][..], &[48, 32, 1], &[32, 25], &[1, 1, 1, 25]].into_iter().enumerate()
    {
        let small = random_array(small_shape, 32 + i as u64);
        assert_sharded_matches_serial(&format!("broadcast {small_shape:?}"), || {
            vec![
                ("full - small", full.sub(&small)),
                ("small - full", small.sub(&full)),
                ("full * small", full.mul(&small)),
                ("small / full", small.div(&full)),
            ]
        });
    }
}

#[test]
fn permutes_are_bitwise_identical_on_both_paths() {
    let x = random_array(&BIG, 41);
    // the first three swap adjacent axis groups (block transpose), the
    // last two walk the odometer
    for perm in [[0, 2, 3, 1], [0, 2, 1, 3], [0, 3, 1, 2], [2, 0, 3, 1], [3, 1, 0, 2]] {
        assert_sharded_matches_serial(&format!("permute {perm:?}"), || {
            vec![("out", x.permute(&perm))]
        });
    }
}

#[test]
fn batch_norm_train_is_bitwise_identical_forward_and_backward() {
    let x0 = random_array(&BIG, 51);
    let (g0, b0) = (random_array(&[BIG[1]], 52), random_array(&[BIG[1]], 53));
    let r = Tensor::constant(random_array(&BIG, 54));
    assert_sharded_matches_serial("batch_norm_train", || {
        let (x, gamma, beta) =
            (Tensor::param(x0.clone()), Tensor::param(g0.clone()), Tensor::param(b0.clone()));
        let (y, mean, var) = x.batch_norm_train(&gamma, &beta, 1e-5);
        y.mul(&r).sum_all().backward();
        vec![
            ("y", y.array()),
            ("mean", mean),
            ("var", var),
            ("dx", x.grad().unwrap()),
            ("dgamma", gamma.grad().unwrap()),
            ("dbeta", beta.grad().unwrap()),
        ]
    });
}

#[test]
fn sharded_reductions_are_bitwise_identical() {
    // kept runs with a long inner stretch (a conv's bias gradient) and
    // with inner = 1 (a shared [V, V] operator's gradient)
    // and summed runs between kept dims (the per-sample time average of
    // the topology embeddings, per-sample operator gradients)
    let x = random_array(&BIG, 61);
    let m = random_array(&[512, 25, 25], 62);
    let e = random_array(&[16, 32, 25, 24], 63);
    let g = random_array(&[16, 32, 25, 25], 64);
    assert_sharded_matches_serial("sum_axes", || {
        vec![
            ("[N, C, T, V] -> [1, C, 1, 1]", x.sum_axes(&[0, 2, 3], true)),
            ("[N, C, T, V] -> [T, V]", x.sum_axes(&[0, 1], false)),
            ("[512, V, V] -> [1, V, V]", m.sum_axes(&[0], true)),
            ("reduce_to_shape [C, 1, 1]", x.clone().reduce_to_shape(&[48, 1, 1])),
            ("[N, T, V, E] -> [N, 1, V, E]", e.sum_axes(&[1], true)),
            ("reduce_to_shape [N, 1, V, V]", g.clone().reduce_to_shape(&[16, 1, 25, 25])),
        ]
    });
}

#[test]
fn dynamic_operators_are_bitwise_identical_across_thread_counts() {
    // T = 96 frames over the NTU-25 static hypergraph clears the threshold
    let hg = static_hypergraph(&SkeletonTopology::ntu25());
    let positions = random_array(&[96, 25, 3], 7);
    let serial = with_threads(1, || dynamic_operators(&hg, &positions));
    for t in THREADS {
        let par = with_threads(t, || dynamic_operators(&hg, &positions));
        assert_bitwise_eq(&serial, &par, &format!("dynamic_operators, threads = {t}"));
    }
}

#[test]
fn knn_hyperedges_are_identical_across_thread_counts() {
    // 256 vertices: 256²·7 ≈ 460k ops, enough to engage the pool
    let coords = random_array(&[256, 3], 8);
    let serial = with_threads(1, || knn_hyperedges(coords.data(), 256, 3, 5));
    for t in THREADS {
        let par = with_threads(t, || knn_hyperedges(coords.data(), 256, 3, 5));
        assert_eq!(serial.edges(), par.edges(), "knn edges, threads = {t}");
    }
}

#[test]
fn stacked_operators_are_bitwise_identical_across_thread_counts() {
    // §3.4's topology for a batch of embedded features [N, T, V, E], one
    // hypergraph per sample and one per frame; 24 samples put even the
    // per-sample stack above the pool's work threshold
    let (n, t, v, e) = (24, 4, 25, 8);
    let config = TopologyConfig::new(3, 4, 0x6B6D_6561_6E73);
    assert!(n * v * v * (e + config.kn + config.km + 8) >= MIN_PARALLEL_WORK);
    let feats = random_array(&[n, t, v, e], 12);
    for granularity in [TopologyGranularity::PerSample, TopologyGranularity::PerFrame] {
        let plain = || stacked_operators(&feats, granularity, &config);
        let serial = with_threads(1, plain);
        for threads in THREADS {
            let what = format!("{granularity:?} topology, threads = {threads}");
            assert_bitwise_eq(&serial, &with_threads(threads, plain), &what);
        }
    }
}

#[test]
fn batch_assembly_is_bitwise_identical_across_thread_counts() {
    let dataset = SkeletonDataset::ntu60_like(3, 4, 40, 9);
    let refs: Vec<&SkeletonSample> = dataset.samples.iter().collect();
    for stream in [Stream::Joint, Stream::Bone] {
        let (serial, sl) = with_threads(1, || batch_samples(&refs, stream, &dataset.topology));
        for t in THREADS {
            let (par, pl) = with_threads(t, || batch_samples(&refs, stream, &dataset.topology));
            assert_bitwise_eq(&serial, &par, &format!("batch_samples {stream}, threads = {t}"));
            assert_eq!(sl, pl, "labels must not depend on thread count");
        }
    }
}

#[test]
fn dhgcn_threads_env_var_is_respected() {
    // every other test pins its thread count through with_threads, so this
    // process-global probe cannot perturb their results
    std::env::set_var("DHGCN_THREADS", "3");
    assert_eq!(num_threads(), 3);
    std::env::set_var("DHGCN_THREADS", "not a number");
    let fallback = num_threads();
    assert!(fallback >= 1, "garbage input must fall back to a sane default");
    std::env::remove_var("DHGCN_THREADS");
    assert!(num_threads() >= 1);
    // a with_threads override beats the environment
    std::env::set_var("DHGCN_THREADS", "7");
    with_threads(2, || assert_eq!(num_threads(), 2));
    assert_eq!(num_threads(), 7);
    std::env::remove_var("DHGCN_THREADS");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Row-stochasticity survives parallel construction: every row of the
    /// per-frame Eq. 9 operator sums to 1 (moving frames) or 0 (rows of a
    /// vertex isolated by all-zero weights), at every thread count.
    #[test]
    fn dynamic_operator_rows_stay_stochastic_in_parallel(seed in 0u64..500) {
        let hg = static_hypergraph(&SkeletonTopology::ntu25());
        // offset into (0.5, 1.5) so no joint hits the all-zero missing-
        // detection sentinel and frames genuinely move
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = NdArray::from_vec(
            (0..96 * 25 * 3).map(|_| rng.gen::<f32>() + 0.5).collect(),
            &[96, 25, 3],
        );
        for t in THREADS {
            let ops = with_threads(t, || dynamic_operators(&hg, &positions));
            prop_assert_eq!(ops.shape(), &[96, 25, 25]);
            for ti in 0..96 {
                for r in 0..25 {
                    let sum: f32 = (0..25).map(|c| ops.at(&[ti, r, c])).sum();
                    prop_assert!(
                        (sum - 1.0).abs() < 1e-4 || sum.abs() < 1e-6,
                        "threads {}: row ({}, {}) sums to {}", t, ti, r, sum
                    );
                }
            }
        }
    }
}
