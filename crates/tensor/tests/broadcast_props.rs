//! Property tests pinning broadcast `binop` and `sum_axes` bit for bit
//! to a naive per-multi-index reference, over random shapes. The
//! patterns cover every blocked case (one operand with the output shape,
//! the other 1 except for one contiguous run of dims, on either side)
//! and patterns that fall back to the index odometer.

use dhg_tensor::array::broadcast_shape;
use dhg_tensor::NdArray;
use proptest::prelude::*;

/// splitmix64 stream for shapes and values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A dim in `1..=max`.
    fn dim(&mut self, max: u64) -> usize {
        1 + (self.next() % max) as usize
    }

    /// Values in [-2, 2), with exact and negative zeros mixed in.
    fn array(&mut self, shape: &[usize]) -> NdArray {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| match self.next() % 16 {
                0 => 0.0,
                1 => -0.0,
                _ => (self.next() >> 40) as f32 / (1u64 << 22) as f32 - 2.0,
            })
            .collect();
        NdArray::from_vec(data, shape)
    }
}

/// The multi-index of row-major offset `flat` in `shape`.
fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; shape.len()];
    for d in (0..shape.len()).rev() {
        idx[d] = flat % shape[d];
        flat /= shape[d];
    }
    idx
}

/// Row-major offset of the trailing `shape.len()` entries of `idx`, with
/// size-1 dims of `shape` read at index 0 (numpy broadcasting).
fn ravel_broadcast(idx: &[usize], shape: &[usize]) -> usize {
    let offset = idx.len() - shape.len();
    shape.iter().enumerate().fold(0, |acc, (d, &s)| acc * s + if s == 1 { 0 } else { idx[offset + d] })
}

fn reference_binop(a: &NdArray, b: &NdArray, f: impl Fn(f32, f32) -> f32) -> Vec<u32> {
    let out = broadcast_shape(a.shape(), b.shape()).expect("compatible shapes");
    let n: usize = out.iter().product();
    (0..n)
        .map(|flat| {
            let idx = unravel(flat, &out);
            let (x, y) = (a.data()[ravel_broadcast(&idx, a.shape())], b.data()[ravel_broadcast(&idx, b.shape())]);
            f(x, y).to_bits()
        })
        .collect()
}

/// Each output element starts at zero and adds its addends in the
/// input's row-major order.
fn reference_sum_axes(x: &NdArray, axes: &[usize], keepdim: bool) -> (Vec<usize>, Vec<u32>) {
    let kept: Vec<usize> =
        x.shape().iter().enumerate().map(|(d, &s)| if axes.contains(&d) { 1 } else { s }).collect();
    let mut out = vec![0.0f32; kept.iter().product()];
    for (flat, &v) in x.data().iter().enumerate() {
        out[ravel_broadcast(&unravel(flat, x.shape()), &kept)] += v;
    }
    let shape = if keepdim {
        kept
    } else {
        x.shape().iter().enumerate().filter(|(d, _)| !axes.contains(d)).map(|(_, &s)| s).collect()
    };
    (shape, out.iter().map(|v| v.to_bits()).collect())
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// `a op b` against the reference for all four ops.
fn check_all_ops(a: &NdArray, b: &NdArray) {
    type Op = (&'static str, fn(&NdArray, &NdArray) -> NdArray, fn(f32, f32) -> f32);
    let ops: [Op; 4] = [
        ("add", NdArray::add, |x, y| x + y),
        ("sub", NdArray::sub, |x, y| x - y),
        ("mul", NdArray::mul, |x, y| x * y),
        ("div", NdArray::div, |x, y| x / y),
    ];
    for (name, op, f) in ops {
        let got = op(a, b);
        assert_eq!(
            bits(&got),
            reference_binop(a, b, f),
            "{name} {:?} with {:?}",
            a.shape(),
            b.shape()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn broadcast_binops_match_the_index_reference(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        // size-1 extents are drawn too: they fit either side of a run
        let (n, c, t, v) = (rng.dim(4), rng.dim(5), rng.dim(6), rng.dim(5));
        let full = [n, c, t, v];
        let small_shapes: Vec<Vec<usize>> = vec![
            // blocked: per-channel, trailing [V, V]-style, leading, scalar
            vec![1, c, 1, 1],
            vec![t, v],
            vec![1, 1, t, v],
            vec![v],
            vec![n, c, 1, 1],
            vec![n, 1, 1, 1],
            vec![c, 1, 1],
            vec![1],
            // odometer: matching dims interleaved with stretched ones
            vec![n, 1, t, v],
            vec![1, c, 1, v],
            vec![n, 1, t, 1],
        ];
        let x = rng.array(&full);
        for s in &small_shapes {
            let y = rng.array(s);
            check_all_ops(&x, &y);
            check_all_ops(&y, &x);
        }
        // odometer: both operands broadcast
        for (sa, sb) in [(vec![n, 1, t, 1], vec![1, c, 1, v]), (vec![t, 1], vec![1, v]), (vec![n, c, 1, 1], vec![1, 1, t, v])] {
            let (a, b) = (rng.array(&sa), rng.array(&sb));
            check_all_ops(&a, &b);
            check_all_ops(&b, &a);
        }
    }

    #[test]
    fn sum_axes_matches_the_index_reference(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let rank = 1 + (rng.next() % 4) as usize;
        let shape: Vec<usize> = (0..rank).map(|_| rng.dim(5)).collect();
        let x = rng.array(&shape);
        // every non-empty subset of the axes: contiguous kept runs take
        // the blocked loop, interleaved ones the odometer
        for mask in 1u32..(1 << rank) {
            let axes: Vec<usize> = (0..rank).filter(|&d| mask & (1 << d) != 0).collect();
            for keepdim in [true, false] {
                let got = x.sum_axes(&axes, keepdim);
                let (want_shape, want) = reference_sum_axes(&x, &axes, keepdim);
                prop_assert_eq!(got.shape(), &want_shape[..]);
                prop_assert_eq!(bits(&got), want, "sum_axes {:?} over {:?}", shape, axes);
            }
        }
        // reduce_to_shape and broadcast_to go through the same kernels
        let target: Vec<usize> = shape.iter().map(|&s| if rng.next().is_multiple_of(2) { 1 } else { s }).collect();
        let axes: Vec<usize> = (0..rank).filter(|&d| target[d] == 1 && shape[d] != 1).collect();
        // (a target equal to the shape passes the input through unsummed)
        let want = if axes.is_empty() { bits(&x) } else { reference_sum_axes(&x, &axes, true).1 };
        prop_assert_eq!(bits(&x.clone().reduce_to_shape(&target)), want);
        let small = rng.array(&target);
        prop_assert_eq!(
            bits(&small.broadcast_to(&shape)),
            reference_binop(&NdArray::zeros(&shape), &small, |_, s| s)
        );
    }
}
