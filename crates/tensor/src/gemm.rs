//! Packed cache-blocked GEMM microkernel — the dense hot path behind
//! [`crate::NdArray::matmul`] and therefore behind every conv and every
//! dense hypergraph propagation.
//!
//! ## Structure (BLIS-style)
//!
//! `B` is packed **once per distinct `[k, n]` operand** with
//! [`pack_b_full`] — NR-column k-major panels grouped by KC block — and
//! shared read-only by every row-block worker. Each row-block then runs
//!
//! ```text
//! for pc in steps of KC:                  // k blocking (L1/L2 for panels)
//!     pack A[rows, pc..pc+kc]  → apack    // MR-row panels, k-major
//!     for each (MR × NR) tile: microkernel → C tile
//! ```
//!
//! Packing B before the row-block workers start is what lets the sharding
//! grain shrink with the thread count for free: a per-worker B pack would
//! multiply the packing cost by the number of row-blocks. (The distinct B
//! images of a batched product are themselves packed in parallel, one
//! image per closure call.)
//!
//! The microkernel keeps an `MR×NR = 6×16` accumulator in registers (12
//! YMM accumulators + an A broadcast + a B load on AVX2 — inside the 16
//! available) and walks the two packed panels contiguously, so the
//! autovectorizer emits full-width f32 SIMD lanes. On x86-64 with
//! AVX2+FMA, a `#[target_feature]` variant uses `f32::mul_add` to get
//! fused `vfmadd` instructions; the portable fallback uses mul+add. The
//! choice is a one-time CPUID probe — never data- or thread-dependent.
//!
//! ## Operands read where they lie
//!
//! Both packers read an [`Operand`]: a row-major matrix, or the row-major
//! image of its transpose. A product such as `g·Bᵀ` or `Aᵀ·g` (every
//! matmul and conv backward) therefore packs the stored matrix directly
//! instead of first copying out its transpose. Either layout packs the
//! same values into the same panel positions, so the microkernel — and
//! every output bit — cannot tell them apart.
//!
//! ## Determinism contract
//!
//! For every output element `C[i, j]` the accumulation order is: scalar
//! products `p = pc..pc+kc` ascending inside the microkernel accumulator,
//! then one `C[i, j] (+)= acc` per `pc` block, `pc` ascending. That order
//! depends only on `k` and the constant [`KC`] — *not* on the row-block
//! size, the tile splits, or which thread computes the block — so
//! results are bitwise identical at every `DHGCN_THREADS` value even
//! though [`row_block`] adapts the parallel grain to the thread count.
//! The packed kernel is *not* bitwise-equal to the reference `ikj` loop
//! (a different but equally valid rounding), which is why
//! [`crate::NdArray::matmul_reference`] stays available and the property
//! suite pins the two within `allclose(1e-5)`.
//!
//! ## Pack-buffer lifetime
//!
//! Panels live in a thread-local [`Workspace`] arena: drawn with
//! [`Workspace::take`] (they are fully overwritten, including edge-tile
//! zero padding, so the zeroed variant would be a redundant memset) and
//! returned on exit. Every packing thread is long-lived — the serving
//! workers, any serial caller, and the persistent workers of
//! [`crate::parallel`], which keep their arenas from one region to the
//! next — so packing runs with **zero steady-state allocation**.

use crate::workspace::Workspace;
use std::cell::RefCell;

/// Microkernel register-tile rows (A panel width).
pub const MR: usize = 6;
/// Microkernel register-tile columns (B panel width, two AVX2 f32 lanes).
pub const NR: usize = 16;
/// k-dimension cache block: `KC·MR` floats of A panel ≈ 6 KiB, `KC·NR`
/// floats of B panel ≈ 16 KiB — both L1-resident while a tile runs.
pub const KC: usize = 256;
/// Largest row-block a single parallel item computes (multiple of MR).
pub const RB_MAX: usize = 96;

thread_local! {
    /// Per-thread pack arena; see the module docs on lifetime.
    static PACK_ARENA: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Row-block size for sharding `nb` batches of `m`-row matrices over
/// `threads` workers: start at [`RB_MAX`] and halve (staying a multiple of
/// [`MR`]) until there are at least `4·threads` items to balance, or the
/// block is a single register tile. Any value returned here yields
/// bitwise-identical results (see the module determinism contract); only
/// load balance and pack-amortization change.
pub fn row_block(m: usize, nb: usize, threads: usize) -> usize {
    let mut rb = RB_MAX;
    let target_items = threads.max(1) * 4;
    while rb > MR && nb * m.div_ceil(rb) < target_items {
        rb = (rb / 2).div_ceil(MR) * MR;
    }
    rb
}

/// Whether the FMA microkernel is usable on this machine. One-time CPUID
/// probe: stable for the process lifetime, independent of data, shapes,
/// and thread count.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn have_avx2_fma() -> bool {
    static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PROBE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
fn have_avx2_fma() -> bool {
    false
}

/// Floats needed to hold a fully packed `[k, n]` B operand: every column
/// panel is padded to the full [`NR`] width.
pub fn packed_b_len(k: usize, n: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// A GEMM operand read in place: a logical matrix stored either row-major
/// with row stride `ld` — element `(i, p)` at `data[i·ld + p]` — or as the
/// row-major image of its transpose — element `(i, p)` at `data[p·ld + i]`.
/// The packers read both layouts into identical panels, so a transposed
/// operand is never copied out before its product.
#[derive(Clone, Copy, Debug)]
pub struct Operand<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
}

impl<'a> Operand<'a> {
    /// A row-major matrix whose rows start `ld` floats apart.
    pub fn rows(data: &'a [f32], ld: usize) -> Self {
        Operand { data, ld, trans: false }
    }

    /// The transpose of the row-major matrix `data` (row stride `ld`):
    /// logical row `i` is stored column `i`.
    pub fn transposed(data: &'a [f32], ld: usize) -> Self {
        Operand { data, ld, trans: true }
    }
}

/// Pack all of `b` (a logical `[k, n]` matrix) into the panel layout the
/// microkernel consumes: KC blocks in `k` order, each holding
/// `n.div_ceil(NR)` NR-column k-major panels. The block starting at depth
/// `pc` sits at float offset `pc * n.div_ceil(NR) * NR`; within it, panel
/// `s` holds `bp[.. + s·NR·kc + p·NR + j]` = `b[pc+p, s·NR+j]`, columns
/// past the matrix edge packed as zeros. Every position is written, so
/// `bp` may come back dirty from a [`Workspace`].
///
/// A row-major `b` is read one depth row at a time; a stored transpose one
/// output column at a time (each a contiguous run of its stored row).
/// Either way every panel position receives the same value.
///
/// Packing is done **once per distinct B operand, before the row-block
/// workers start** — they share the result read-only.
pub fn pack_b_full(b: Operand<'_>, bp: &mut [f32], n: usize, k: usize) {
    debug_assert_eq!(bp.len(), packed_b_len(k, n), "pack_b_full: pack buffer size");
    let n_padded = n.div_ceil(NR) * NR;
    let ld = b.ld;
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let block = &mut bp[pc * n_padded..(pc + kc) * n_padded];
        for s in 0..n.div_ceil(NR) {
            let j0 = s * NR;
            let nr_eff = NR.min(n - j0);
            let dst_panel = &mut block[s * NR * kc..(s + 1) * NR * kc];
            if b.trans {
                for j in 0..nr_eff {
                    let src = &b.data[(j0 + j) * ld + pc..(j0 + j) * ld + pc + kc];
                    for (p, &v) in src.iter().enumerate() {
                        dst_panel[p * NR + j] = v;
                    }
                }
                if nr_eff < NR {
                    for dst in dst_panel.chunks_exact_mut(NR) {
                        dst[nr_eff..].fill(0.0);
                    }
                }
            } else {
                for p in 0..kc {
                    let src = &b.data[(pc + p) * ld + j0..(pc + p) * ld + j0 + nr_eff];
                    let dst = &mut dst_panel[p * NR..(p + 1) * NR];
                    dst[..nr_eff].copy_from_slice(src);
                    dst[nr_eff..].fill(0.0);
                }
            }
        }
        pc += kc;
    }
}

/// Compute one row-block `c = a · b_packed` where `a` is a logical `mb×k`
/// matrix and `bp` is the [`pack_b_full`] image of a `[k, n]` B. `c` may
/// be dirty: the first `pc` block *assigns* and later blocks accumulate,
/// so callers can draw it with [`Workspace::take`]. Only the A panels are
/// packed here (into the thread-local arena) — this is the function each
/// parallel row-block worker runs.
pub fn gemm_block_prepacked(a: Operand<'_>, bp: &[f32], c: &mut [f32], mb: usize, n: usize, k: usize) {
    debug_assert_eq!(bp.len(), packed_b_len(k, n), "gemm_block: packed rhs size");
    debug_assert_eq!(c.len(), mb * n, "gemm_block: out size");
    if mb == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let n_padded = n.div_ceil(NR) * NR;
    let kc_max = k.min(KC);
    let a_panels = mb.div_ceil(MR);
    PACK_ARENA.with(|arena| {
        let mut apack = arena.borrow_mut().take(a_panels * MR * kc_max);
        let fma = have_avx2_fma();
        let mut pc = 0;
        while pc < k {
            let kc = kc_max.min(k - pc);
            pack_a(a, pc, kc, mb, &mut apack);
            let first = pc == 0;
            let block = &bp[pc * n_padded..(pc + kc) * n_padded];
            for q in 0..a_panels {
                let i0 = q * MR;
                let mr_eff = MR.min(mb - i0);
                let apanel = &apack[q * MR * kc..(q + 1) * MR * kc];
                for s in 0..n.div_ceil(NR) {
                    let j0 = s * NR;
                    let nr_eff = NR.min(n - j0);
                    let bpanel = &block[s * NR * kc..(s + 1) * NR * kc];
                    let mut acc = [[0.0f32; NR]; MR];
                    if fma {
                        // SAFETY: have_avx2_fma() verified avx2+fma.
                        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                        unsafe {
                            microkernel_fma(apanel, bpanel, kc, &mut acc);
                        }
                        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
                        microkernel_portable(apanel, bpanel, kc, &mut acc);
                    } else {
                        microkernel_portable(apanel, bpanel, kc, &mut acc);
                    }
                    store_tile(&acc, c, n, i0, j0, mr_eff, nr_eff, first);
                }
            }
            pc += kc;
        }
        arena.borrow_mut().give(apack);
    });
}

/// Convenience wrapper over [`pack_b_full`] + [`gemm_block_prepacked`]
/// for callers computing a one-shot `mb×k · k×n` product: packs B into
/// the thread-local arena and runs the row-block kernel. Hot paths that
/// shard one product over many row-blocks must pre-pack instead, or B is
/// re-packed per block.
pub fn gemm_block(a: Operand<'_>, b: Operand<'_>, c: &mut [f32], mb: usize, n: usize, k: usize) {
    if mb == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let mut bp = PACK_ARENA.with(|arena| arena.borrow_mut().take(packed_b_len(k, n)));
    pack_b_full(b, &mut bp, n, k);
    gemm_block_prepacked(a, &bp, c, mb, n, k);
    PACK_ARENA.with(|arena| arena.borrow_mut().give(bp));
}

/// Pack `a[0..mb, pc..pc+kc]` into MR-row panels laid out k-major:
/// `apack[q·MR·kc + p·MR + i]` holds row `q·MR+i`, depth `pc+p`. Rows past
/// `mb` pack as zeros so the microkernel never branches on the row edge.
/// Every position is written — the buffer may be dirty. A row-major `a`
/// is read one row at a time; a stored transpose one depth at a time,
/// where the panel's rows lie contiguous. Either way every panel position
/// receives the same value.
pub fn pack_a(a: Operand<'_>, pc: usize, kc: usize, mb: usize, apack: &mut [f32]) {
    let ld = a.ld;
    for q in 0..mb.div_ceil(MR) {
        let dst = &mut apack[q * MR * kc..(q + 1) * MR * kc];
        let i0 = q * MR;
        let mr_eff = MR.min(mb - i0);
        if a.trans {
            for (p, d) in dst.chunks_exact_mut(MR).enumerate() {
                let src = &a.data[(pc + p) * ld + i0..(pc + p) * ld + i0 + mr_eff];
                d[..mr_eff].copy_from_slice(src);
                d[mr_eff..].fill(0.0);
            }
            continue;
        }
        for ii in 0..MR {
            let i = i0 + ii;
            if i < mb {
                let src = &a.data[i * ld + pc..i * ld + pc + kc];
                for (p, &v) in src.iter().enumerate() {
                    dst[p * MR + ii] = v;
                }
            } else {
                for p in 0..kc {
                    dst[p * MR + ii] = 0.0;
                }
            }
        }
    }
}

/// The portable register-tile kernel: `acc += apanel · bpanel` over `kc`
/// depths. Fixed-size inner loops over contiguous panels — exactly the
/// shape LLVM's autovectorizer turns into full-width f32 lanes.
#[inline(always)]
fn microkernel_portable(apanel: &[f32], bpanel: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    let arows = apanel.chunks_exact(MR).take(kc);
    let brows = bpanel.chunks_exact(NR).take(kc);
    for (arow, brow) in arows.zip(brows) {
        for i in 0..MR {
            let ai = arow[i];
            for j in 0..NR {
                acc[i][j] += ai * brow[j];
            }
        }
    }
}

/// AVX2+FMA variant, written with explicit 256-bit intrinsics: the
/// 6×16 accumulator lives in twelve ymm registers, each depth step
/// loads one 16-wide B row (two `vmovups`) and broadcasts six A
/// scalars, issuing twelve `vfmadd231ps`. Explicit intrinsics rather
/// than autovectorized `mul_add` because LLVM interchanges the scalar
/// loop into a memory-bound scalar-FMA form (~4× slower). Per element
/// the math is the same fused multiply-add in the same `p`-ascending
/// order as the scalar formulation, so results are unchanged.
///
/// # Safety
///
/// The caller must have verified `avx2` and `fma` are available (see
/// [`have_avx2_fma`]) and must pass panels holding at least `kc·MR`
/// (`apanel`) and `kc·NR` (`bpanel`) floats.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
// SAFETY: contract above — feature-gated entry, panel bounds re-checked
// by the debug assertion in the body before any pointer arithmetic.
unsafe fn microkernel_fma(apanel: &[f32], bpanel: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    // SAFETY: panel bounds asserted above; acc rows are NR = 16 floats,
    // read and written as two unaligned 8-lane halves.
    unsafe {
        let mut lo = [_mm256_setzero_ps(); MR];
        let mut hi = [_mm256_setzero_ps(); MR];
        for i in 0..MR {
            lo[i] = _mm256_loadu_ps(acc[i].as_ptr());
            hi[i] = _mm256_loadu_ps(acc[i].as_ptr().add(8));
        }
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for i in 0..MR {
                let ai = _mm256_broadcast_ss(&*ap.add(i));
                lo[i] = _mm256_fmadd_ps(ai, b0, lo[i]);
                hi[i] = _mm256_fmadd_ps(ai, b1, hi[i]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for i in 0..MR {
            _mm256_storeu_ps(acc[i].as_mut_ptr(), lo[i]);
            _mm256_storeu_ps(acc[i].as_mut_ptr().add(8), hi[i]);
        }
    }
}

/// Write an accumulator tile into `c` at `(i0, j0)`, clipped to the
/// `mr_eff × nr_eff` valid region. The first `pc` block assigns (so `c`
/// may start dirty), later blocks accumulate.
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_tile(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    first: bool,
) {
    for (i, arow) in acc.iter().enumerate().take(mr_eff) {
        let crow = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + nr_eff];
        if first {
            crow.copy_from_slice(&arow[..nr_eff]);
        } else {
            for (cv, &av) in crow.iter_mut().zip(arow.iter()) {
                *cv += av;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], mb: usize, n: usize, k: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; mb * n];
        for i in 0..mb {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        // deterministic LCG so tests need no external RNG
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn check_shape(mb: usize, n: usize, k: usize) {
        let a = fill(mb as u64 * 31 + 1, mb * k);
        let b = fill(n as u64 * 17 + 2, k * n);
        // dirty output: the packed kernel must fully overwrite it
        let mut c = vec![f32::NAN; mb * n];
        gemm_block(Operand::rows(&a, k), Operand::rows(&b, n), &mut c, mb, n, k);
        let want = naive(&a, &b, mb, n, k);
        for (i, (got, want)) in c.iter().zip(&want).enumerate() {
            assert!(
                (got - want).abs() <= 1e-4 + 1e-5 * want.abs(),
                "({mb}x{k})·({k}x{n}) element {i}: packed {got} vs naive {want}"
            );
        }
    }

    #[test]
    fn matches_naive_on_register_tile_multiples() {
        check_shape(MR, NR, 8);
        check_shape(2 * MR, 2 * NR, 32);
        check_shape(RB_MAX, NR, 16);
    }

    #[test]
    fn matches_naive_on_edge_tiles() {
        check_shape(1, 1, 1);
        check_shape(1, NR + 3, 5); // m = 1: single partial A panel
        check_shape(MR + 1, NR - 1, 7);
        check_shape(7, 33, 19); // nothing divides anything
        check_shape(5, 2, 1); // k = 1
    }

    #[test]
    fn matches_naive_across_cache_block_boundaries() {
        check_shape(13, 21, KC + 1); // second pc block, edge kc
        check_shape(7, 512 + 9, 33); // wide n: many column panels, ragged edge
        check_shape(MR, NR, 2 * KC); // exact multiple of KC
    }

    #[test]
    fn k_zero_zeroes_a_dirty_output() {
        let mut c = vec![f32::NAN; 12];
        gemm_block(Operand::rows(&[], 0), Operand::rows(&[], 4), &mut c, 3, 4, 0);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_block_balances_items_without_going_below_a_tile() {
        assert_eq!(row_block(1000, 1, 1), RB_MAX);
        // single batch, many threads: shrink for grain
        let rb = row_block(96, 1, 8);
        assert!(rb >= MR && rb.is_multiple_of(MR) && rb < RB_MAX, "rb = {rb}");
        assert!(96usize.div_ceil(rb) >= 16, "enough items for 8 threads: rb = {rb}");
        // plenty of batches: no need to shrink
        assert_eq!(row_block(64, 32, 8), RB_MAX);
        // tiny problem: bottoms out at one register tile
        assert_eq!(row_block(4, 1, 8), MR);
    }

    #[test]
    fn results_do_not_depend_on_row_block_split() {
        // the determinism contract: computing rows in one block or split
        // into several must give bitwise-identical results
        let (m, n, k) = (24, 40, KC + 7);
        let a = fill(3, m * k);
        let b = fill(4, k * n);
        let mut whole = vec![f32::NAN; m * n];
        gemm_block(Operand::rows(&a, k), Operand::rows(&b, n), &mut whole, m, n, k);
        for rb in [MR, 2 * MR, 3 * MR] {
            let mut split = vec![f32::NAN; m * n];
            let mut i0 = 0;
            while i0 < m {
                let i1 = (i0 + rb).min(m);
                gemm_block(
                    Operand::rows(&a[i0 * k..i1 * k], k),
                    Operand::rows(&b, n),
                    &mut split[i0 * n..i1 * n],
                    i1 - i0,
                    n,
                    k,
                );
                i0 = i1;
            }
            for (x, y) in whole.iter().zip(&split) {
                assert_eq!(x.to_bits(), y.to_bits(), "rb = {rb}");
            }
        }
    }
}
