//! Property suite pinning the packed cache-blocked GEMM kernel to the
//! retained reference `ikj` kernel.
//!
//! Two contracts are exercised on randomly generated shapes:
//!
//! 1. **Accuracy** — `matmul_packed` agrees with `matmul_reference` within
//!    `allclose(rtol = RTOL, atol = ATOL)`. The kernels round differently
//!    (the packed kernel accumulates per KC-block with FMA where
//!    available), so bitwise equality across kernels is *not* expected.
//! 2. **Determinism** — `matmul_packed` at 1, 2 and 8 worker threads is
//!    bitwise identical: per-element accumulation order depends only on
//!    `k` and the constant KC block size, never on the row-block split or
//!    thread assignment.
//!
//! 3. **Transposed operands** — packing a stored transpose gives the
//!    panels of its materialised copy, bit for bit, and a product read
//!    through transposed views ([`ArrayView::t`](dhg_tensor::ArrayView::t))
//!    equals `transpose_last2()` + `matmul` bit for bit, whichever kernel
//!    the density probe picks.
//!
//! Shapes cover rectangular, degenerate (`m = 1`, `k = 1`, `n` not a
//! multiple of the register tile) and broadcast-batched products.

use dhg_tensor::gemm::{pack_a, pack_b_full, packed_b_len, Operand, KC, MR};
use dhg_tensor::parallel::with_threads;
use dhg_tensor::{ArrayView, NdArray, Workspace};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Relative tolerance pinning packed against reference.
const RTOL: f32 = 1e-5;
/// Absolute floor: output elements near zero arise from cancellation of
/// O(k) same-magnitude products, where the two kernels' different
/// accumulation orders legitimately differ by a few ulps of the *partial
/// sums* (measured max ≈ 6e-6 at k = 576), not of the tiny result.
const ATOL: f32 = 1e-4;

/// Deterministic pseudo-random fill so every case is reproducible from
/// the proptest seed alone.
fn filled(shape: &[usize], seed: u64) -> NdArray {
    let n: usize = shape.iter().product();
    let mut s = seed | 1;
    let data = (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    NdArray::from_vec(data, shape)
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// Packed result at every thread count: allclose to the reference kernel,
/// bitwise-identical to itself across thread counts.
fn check_pinned(a: &NdArray, b: &NdArray) -> Result<(), String> {
    let reference = a.matmul_reference(b);
    let baseline = with_threads(THREADS[0], || a.matmul_packed(b));
    if !baseline.allclose(&reference, RTOL, ATOL) {
        return Err(format!(
            "packed diverged from reference on {:?} x {:?}",
            a.shape(),
            b.shape()
        ));
    }
    let want = bits(&baseline);
    for &t in &THREADS[1..] {
        let got = with_threads(t, || a.matmul_packed(b));
        if bits(&got) != want {
            return Err(format!(
                "packed kernel not bitwise deterministic at {t} threads on {:?} x {:?}",
                a.shape(),
                b.shape()
            ));
        }
    }
    Ok(())
}

/// `x` with every element whose position hashes below `zero_frac` set to
/// zero. Near one half, the density probe's verdict turns on exactly which
/// positions it samples.
fn with_zeros(x: NdArray, zero_frac: f64, seed: u64) -> NdArray {
    let shape = x.shape().to_vec();
    let mut data = x.into_vec();
    for (i, v) in data.iter_mut().enumerate() {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        if (h >> 11) as f64 / (1u64 << 53) as f64 <= zero_frac {
            *v = 0.0;
        }
    }
    NdArray::from_vec(data, &shape)
}

/// `x` read as its transpose when `t`, without copying.
fn view(x: &NdArray, t: bool) -> ArrayView<'_> {
    if t {
        x.view().t()
    } else {
        x.view()
    }
}

/// `x` with its transpose materialised when `t`.
fn materialised(x: &NdArray, t: bool) -> NdArray {
    if t {
        x.transpose_last2()
    } else {
        x.clone()
    }
}

/// The product of the stored operands `a` and `b`, each read as its
/// transpose where flagged: through views (auto dispatch and the forced
/// packed kernel) against `transpose_last2()` + `matmul`, bit for bit.
/// Returns the auto result.
fn check_transposed(a: &NdArray, ta: bool, b: &NdArray, tb: bool) -> Result<NdArray, String> {
    let (am, bm) = (materialised(a, ta), materialised(b, tb));
    let got = view(a, ta).matmul(view(b, tb));
    if bits(&got) != bits(&am.matmul(&bm)) {
        return Err(format!("auto: {:?}{} x {:?}{}", a.shape(), ["", "ᵀ"][ta as usize], b.shape(), ["", "ᵀ"][tb as usize]));
    }
    let packed = Workspace::new().install(|| view(a, ta).matmul_packed(view(b, tb)));
    if bits(&packed) != bits(&am.matmul_packed(&bm)) {
        return Err(format!("packed: {:?}{} x {:?}{}", a.shape(), ["", "ᵀ"][ta as usize], b.shape(), ["", "ᵀ"][tb as usize]));
    }
    Ok(got)
}

/// The stored image of a logical `[.., rows, cols]` operand: the operand
/// itself, or its transpose when it is to be read through `t()`.
fn stored(batch: &[usize], rows: usize, cols: usize, t: bool, seed: u64) -> NdArray {
    let mut shape = batch.to_vec();
    shape.extend(if t { [cols, rows] } else { [rows, cols] });
    filled(&shape, seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn packing_a_stored_transpose_gives_the_materialised_panels(
        rows in 1usize..40,
        depth in 1usize..40,
        deep in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // k past KC packs a second, ragged depth block; rows not a
        // multiple of MR or NR leave ragged edge panels
        let k = depth + if deep { KC } else { 0 };
        let b = filled(&[k, rows], seed);
        let bt = b.transpose_last2();
        let mut want = vec![f32::NAN; packed_b_len(k, rows)];
        let mut got = vec![f32::NAN; packed_b_len(k, rows)];
        pack_b_full(Operand::rows(b.data(), rows), &mut want, rows, k);
        pack_b_full(Operand::transposed(bt.data(), k), &mut got, rows, k);
        let panel_bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(panel_bits(&got), panel_bits(&want));

        let a = filled(&[rows, k], seed ^ 0x5A5A);
        let at = a.transpose_last2();
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let mut want = vec![f32::NAN; rows.div_ceil(MR) * MR * kc];
            let mut got = want.clone();
            pack_a(Operand::rows(a.data(), k), pc, kc, rows, &mut want);
            pack_a(Operand::transposed(at.data(), rows), pc, kc, rows, &mut got);
            prop_assert_eq!(panel_bits(&got), panel_bits(&want), "depth block {}", pc);
            pc += kc;
        }
    }

    #[test]
    fn transposed_operands_match_the_materialised_transpose(
        nb in 1usize..4,
        side in 0usize..3,
        m in 1usize..24,
        one_row in any::<bool>(),
        depth in 1usize..40,
        deep in any::<bool>(),
        n in 1usize..40,
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // m = 1, k past KC, ragged n, and the batch broadcast on either
        // side (side 0: both batched, 1: A only, 2: B only)
        let m = if one_row { 1 } else { m };
        let k = depth + if deep { KC } else { 0 };
        let (ba, bb): (&[usize], &[usize]) = match side {
            0 => (&[nb], &[nb]),
            1 => (&[nb], &[]),
            _ => (&[1], &[nb]),
        };
        let a = stored(ba, m, k, ta, seed);
        let b = stored(bb, k, n, tb, seed ^ 0x3C3C);
        let r = check_transposed(&a, ta, &b, tb);
        prop_assert!(r.is_ok(), "{:?}", r.err());
    }
}

/// Operands near half zeros, large enough for the strided density probe:
/// a transposed A must sample its logical order (else the kernel choice,
/// and with it the bits, can flip), a transposed operand routed to the
/// zero-skip row kernel is materialised, and both probe verdicts occur.
#[test]
fn near_half_zero_operands_keep_the_probe_verdict() {
    let (nb, m, k, n) = (3, 40, 70, 33);
    assert!(nb * m * k > 4096, "the strided probe must run");
    let (mut row_kernel, mut packed_kernel) = (0, 0);
    for step in 0..=20 {
        let frac = 0.40 + 0.01 * step as f64;
        for (ta, tb) in [(false, true), (true, false), (true, true)] {
            let a = with_zeros(stored(&[nb], m, k, ta, step), frac, step ^ 0x77);
            let b = stored(&[], k, n, tb, step ^ 0x99);
            let got = check_transposed(&a, ta, &b, tb).unwrap();
            let (am, bm) = (materialised(&a, ta), materialised(&b, tb));
            if bits(&got) == bits(&am.matmul_reference(&bm)) {
                row_kernel += 1;
            } else {
                assert_eq!(bits(&got), bits(&am.matmul_packed(&bm)), "frac {frac}");
                packed_kernel += 1;
            }
        }
    }
    assert!(row_kernel > 0 && packed_kernel > 0, "row {row_kernel}, packed {packed_kernel}");
}

/// Enough distinct B images that they pack in parallel: transposed or
/// not, the product is the same bits at every thread count.
#[test]
fn parallel_packing_of_transposed_images_is_thread_invariant() {
    let (nb, m, k, n) = (8, 24, 64, 600);
    assert!(nb * packed_b_len(k, n) >= dhg_tensor::parallel::MIN_PARALLEL_WORK);
    for tb in [false, true] {
        let a = filled(&[m, k], 5);
        let b = stored(&[nb], k, n, tb, 6);
        let want = with_threads(1, || check_transposed(&a, false, &b, tb).unwrap());
        for &t in &THREADS[1..] {
            let got = with_threads(t, || check_transposed(&a, false, &b, tb).unwrap());
            assert_eq!(bits(&got), bits(&want), "{t} threads, tb = {tb}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn rectangular_shapes(m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in 0u64..1000) {
        let a = filled(&[m, k], seed);
        let b = filled(&[k, n], seed ^ 0xABCD);
        prop_assert!(check_pinned(&a, &b).is_ok(), "{:?}", check_pinned(&a, &b));
    }

    #[test]
    fn degenerate_shapes(k in 1usize..32, n in 1usize..64, seed in 0u64..1000) {
        // m = 1: single output row (auto dispatch avoids packing; forced
        // packed must still be right)
        let a1 = filled(&[1, k], seed);
        let b1 = filled(&[k, n], seed ^ 0x1111);
        prop_assert!(check_pinned(&a1, &b1).is_ok(), "{:?}", check_pinned(&a1, &b1));
        // k = 1: outer product
        let a2 = filled(&[n.max(2), 1], seed ^ 0x2222);
        let b2 = filled(&[1, k], seed ^ 0x3333);
        prop_assert!(check_pinned(&a2, &b2).is_ok(), "{:?}", check_pinned(&a2, &b2));
        // n not a multiple of the register tile: NR=16, force ragged edge
        let ragged_n = (n | 1).max(3); // odd, never a multiple of 16
        let a3 = filled(&[7, k], seed ^ 0x4444);
        let b3 = filled(&[k, ragged_n], seed ^ 0x5555);
        prop_assert!(check_pinned(&a3, &b3).is_ok(), "{:?}", check_pinned(&a3, &b3));
    }

    #[test]
    fn broadcast_batched_shapes(
        nb in 1usize..5,
        m in 1usize..16,
        k in 1usize..24,
        n in 1usize..16,
        seed in 0u64..1000,
    ) {
        // batched LHS against broadcast rank-2 RHS
        let a = filled(&[nb, m, k], seed);
        let b = filled(&[k, n], seed ^ 0x6666);
        prop_assert!(check_pinned(&a, &b).is_ok(), "{:?}", check_pinned(&a, &b));
        // rank-2 LHS against batched RHS
        let a2 = filled(&[m, k], seed ^ 0x7777);
        let b2 = filled(&[nb, k, n], seed ^ 0x8888);
        prop_assert!(check_pinned(&a2, &b2).is_ok(), "{:?}", check_pinned(&a2, &b2));
        // size-1 batch dim broadcast against nb
        let a3 = filled(&[1, m, k], seed ^ 0x9999);
        let b3 = filled(&[nb, k, n], seed ^ 0xAAAA);
        prop_assert!(check_pinned(&a3, &b3).is_ok(), "{:?}", check_pinned(&a3, &b3));
    }

    #[test]
    fn sparse_operands_keep_both_kernels_honest(m in 2usize..24, k in 2usize..32, n in 1usize..24, seed in 0u64..1000) {
        // mostly-zero LHS: auto dispatch takes the zero-skip row kernel,
        // forced packed must agree with it
        let dense = filled(&[m, k], seed);
        let keep = seed as usize % (m * k);
        let mut za = vec![0.0f32; m * k];
        za[keep] = dense.data()[keep];
        let a = NdArray::from_vec(za, &[m, k]);
        let b = filled(&[k, n], seed ^ 0xBBBB);
        let auto = a.matmul(&b);
        let packed = a.matmul_packed(&b);
        prop_assert!(auto.allclose(&packed, RTOL, ATOL));
    }
}

/// Conv-shaped product at the exact size the benches use, pinned outside
/// the proptest loop so it always runs even with a filtered seed.
#[test]
fn conv_shaped_product_is_pinned() {
    let a = filled(&[64, 576], 42);
    let b = filled(&[576, 425], 43);
    check_pinned(&a, &b).unwrap();
}

/// KC-block boundary: k just above the 256-element block forces the
/// two-pass accumulate path (assign on the first block, += on the rest).
#[test]
fn kc_block_boundary_is_pinned() {
    for k in [255, 256, 257, 513] {
        let a = filled(&[13, k], k as u64);
        let b = filled(&[k, 21], (k as u64) ^ 0xF0F0);
        check_pinned(&a, &b).unwrap();
    }
}
