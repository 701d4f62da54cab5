//! Property suite for the incremental topology builder: the
//! [`Incremental`] builder at `rebuild_threshold = 0` must be
//! **bitwise-identical** to [`from_scratch_operator`] on every build — across
//! coordinate drift histories, kNN/k-medoid configurations, seeds and
//! `DHGCN_THREADS ∈ {1, 2, 8}` — and at small positive thresholds its
//! divergence must stay bounded and collapse back to zero the moment
//! every anchor trips the threshold (full resync).

use dhg_hypergraph::{from_scratch_operator, Incremental, TopologyConfig};
use dhg_tensor::parallel::with_threads;
use dhg_tensor::NdArray;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thread counts the suite sweeps (the builder's determinism contract).
const THREADS: [usize; 3] = [1, 2, 8];

/// Random joint cloud `[V, D]` in `[-1, 1]`.
fn cloud(v: usize, d: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..v * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Perturb every coordinate by at most `scale`.
fn drift(points: &mut [f32], rng: &mut StdRng, scale: f32) {
    for p in points.iter_mut() {
        *p += rng.gen_range(-1.0f32..1.0) * scale;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The acceptance criterion: threshold 0 ⇒ every incremental build is
    /// bitwise the from-scratch operator, whatever drifts came before and
    /// whatever the thread count.
    #[test]
    fn threshold_zero_is_bitwise_from_scratch(
        seed in 0u64..1000,
        v in 6usize..14,
        kn in 1usize..5,
        km in 1usize..5,
        steps in 1usize..5,
    ) {
        let d = 3;
        let config = TopologyConfig::new(kn, km, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut coords = cloud(v, d, &mut rng);
        let mut inc = Incremental::new(config);
        for step in 0..steps {
            let want = from_scratch_operator(&coords, v, d, &config);
            let got = inc.build(&coords, v, d);
            prop_assert_eq!(
                got.data(), want.data(),
                "step {} diverged from from-scratch at threshold 0", step
            );
            // the same history replayed under every thread count must
            // reproduce the same bits
            for &threads in &THREADS {
                let mut pinned = Incremental::new(config);
                let replayed = with_threads(threads, || {
                    let mut rng2 = StdRng::seed_from_u64(seed ^ 0x5EED);
                    let mut c = cloud(v, d, &mut rng2);
                    let mut last = pinned.build(&c, v, d);
                    for _ in 0..step {
                        drift(&mut c, &mut rng2, 0.1);
                        last = pinned.build(&c, v, d);
                    }
                    last
                });
                prop_assert_eq!(
                    replayed.data(), want.data(),
                    "step {} diverged under {} threads", step, threads
                );
            }
            drift(&mut coords, &mut rng, 0.1);
        }
    }

    /// Bitwise-unchanged coordinates never trigger a rebuild: the cached
    /// operator comes back identical, and the builder reports full reuse.
    #[test]
    fn unchanged_coords_reuse_the_cached_operator(
        seed in 0u64..1000,
        v in 6usize..14,
        tau in 0.0f32..0.5,
    ) {
        let d = 3;
        let config = TopologyConfig::new(2, 3, seed).with_threshold(tau);
        let mut rng = StdRng::seed_from_u64(seed);
        let coords = cloud(v, d, &mut rng);
        let mut inc = Incremental::new(config);
        let first = inc.build(&coords, v, d);
        let second = inc.build(&coords, v, d);
        prop_assert_eq!(first.data(), second.data());
        prop_assert!(inc.stats().reused_everything, "identical coords must be a cache hit");
    }

    /// A movement that trips the threshold for *every* anchor resyncs the
    /// incremental builder to the exact from-scratch operator: divergence
    /// cannot accumulate across resyncs.
    #[test]
    fn global_movement_resyncs_exactly(
        seed in 0u64..1000,
        v in 6usize..12,
    ) {
        let d = 3;
        let tau = 0.05;
        let config = TopologyConfig::new(2, 3, seed).with_threshold(tau);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut coords = cloud(v, d, &mut rng);
        let mut inc = Incremental::new(config);
        inc.build(&coords, v, d);
        // a few sub-threshold drifts: stale edges allowed
        for _ in 0..3 {
            drift(&mut coords, &mut rng, 0.003);
            inc.build(&coords, v, d);
        }
        // now shove everything well past tau: full resync
        for p in coords.iter_mut() {
            *p += 1.0;
        }
        let got = inc.build(&coords, v, d);
        let want = from_scratch_operator(&coords, v, d, &config);
        prop_assert_eq!(got.data(), want.data(), "full-dirty rebuild must resync exactly");
        prop_assert!(inc.stats().full_rebuild);
    }
}

/// L∞ distance between two operators.
fn linf(a: &NdArray, b: &NdArray) -> f32 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// At a small positive threshold the incremental operator may serve stale
/// kNN edges, but the divergence from from-scratch stays bounded: the
/// operator remains finite and symmetric, and its entrywise gap stays
/// well under the operator's own scale across a long sub-threshold drift.
/// Deterministic seed sweep (no generated cases) so the empirical bound
/// is stable run to run.
#[test]
fn small_threshold_divergence_is_bounded() {
    let (v, d) = (12, 3);
    for seed in 0..6u64 {
        let config = TopologyConfig::new(2, 3, seed).with_threshold(0.05);
        let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
        let mut coords = cloud(v, d, &mut rng);
        let mut inc = Incremental::new(config);
        let mut worst = 0.0f32;
        inc.build(&coords, v, d);
        for _ in 0..24 {
            drift(&mut coords, &mut rng, 0.01);
            let got = inc.build(&coords, v, d);
            let want = from_scratch_operator(&coords, v, d, &config);
            assert!(got.data().iter().all(|x| x.is_finite()), "seed {seed}: non-finite entry");
            for i in 0..v {
                for j in 0..v {
                    let (a, b) = (got.data()[i * v + j], got.data()[j * v + i]);
                    assert!(
                        (a - b).abs() <= 1e-5,
                        "seed {seed}: operator asymmetric at ({i},{j}): {a} vs {b}"
                    );
                }
            }
            worst = worst.max(linf(&got, &want));
        }
        let scale =
            from_scratch_operator(&coords, v, d, &config).data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(
            worst <= scale,
            "seed {seed}: sub-threshold divergence {worst} exceeds operator scale {scale}"
        );
    }
}

/// The same drift history replayed at threshold 0 under different thread
/// counts stays bitwise-identical — partial rebuilds (τ > 0) too.
#[test]
fn thread_count_never_changes_the_bits() {
    let (v, d) = (10, 3);
    for &tau in &[0.0f32, 0.05] {
        let config = TopologyConfig::new(3, 3, 42).with_threshold(tau);
        let runs: Vec<Vec<NdArray>> = THREADS
            .iter()
            .map(|&threads| {
                with_threads(threads, || {
                    let mut rng = StdRng::seed_from_u64(9);
                    let mut coords = cloud(v, d, &mut rng);
                    let mut inc = Incremental::new(config);
                    let mut ops = Vec::new();
                    for _ in 0..10 {
                        ops.push(inc.build(&coords, v, d));
                        drift(&mut coords, &mut rng, 0.02);
                    }
                    ops
                })
            })
            .collect();
        for run in &runs[1..] {
            for (step, (a, b)) in runs[0].iter().zip(run).enumerate() {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "tau={tau}: step {step} diverged across thread counts"
                );
            }
        }
    }
}
