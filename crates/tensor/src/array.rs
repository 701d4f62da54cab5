//! Contiguous row-major `f32` n-dimensional arrays.
//!
//! [`NdArray`] is the numeric workhorse underneath the autograd layer: it
//! implements numpy-style broadcasting, batched matrix multiplication (the
//! `ikj` loop order so the inner loop vectorises), axis reductions, shape
//! manipulation, and the `im2col`/`col2im` pair that turns convolution into
//! matrix multiplication.
//!
//! Arrays are always contiguous after every operation; at the sizes used by
//! skeleton models (`V = 25`, `T ≤ 64`, `C ≤ 256`) this is both simpler and
//! faster than maintaining strided views.

use std::borrow::Cow;
use std::fmt;

use crate::gemm::Operand;
use crate::shape_check::ShapeError;
use crate::workspace::{give_installed, take_installed};

/// A dense, contiguous, row-major `f32` n-dimensional array.
///
/// The empty shape `[]` denotes a scalar holding exactly one element.
///
/// While a [`crate::Workspace`] is installed on the calling thread
/// ([`crate::Workspace::install`]), the kernels here draw the storage of
/// the arrays they build from it, and such an array gives its storage
/// back when dropped. Without one, storage is an ordinary allocation.
pub struct NdArray {
    shape: Vec<usize>,
    data: Vec<f32>,
    /// Whether `data` was drawn from an installed workspace, and goes back
    /// to the installed one on drop.
    pooled: bool,
}

impl Clone for NdArray {
    /// A copy in fresh storage: clones leave the forward that made the
    /// original (`Tensor::array`), so they are never pool storage.
    fn clone(&self) -> Self {
        NdArray { shape: self.shape.clone(), data: self.data.clone(), pooled: false }
    }
}

impl PartialEq for NdArray {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Drop for NdArray {
    fn drop(&mut self) {
        if self.pooled {
            give_installed(std::mem::take(&mut self.data));
        }
    }
}

/// Storage for a new array: drawn from the calling thread's installed
/// workspace when there is one, else freshly allocated.
struct Storage {
    data: Vec<f32>,
    pooled: bool,
}

impl Storage {
    /// `len` elements with unspecified contents; the caller overwrites
    /// every one.
    fn dirty(len: usize) -> Self {
        match take_installed(len, false) {
            Some(data) => Storage { data, pooled: true },
            None => Storage { data: vec![0.0; len], pooled: false },
        }
    }

    /// `len` zeros.
    fn zeroed(len: usize) -> Self {
        match take_installed(len, true) {
            Some(data) => Storage { data, pooled: true },
            None => Storage { data: vec![0.0; len], pooled: false },
        }
    }

    /// Empty, with room for `len` elements the caller pushes.
    fn empty(len: usize) -> Self {
        match take_installed(len, false) {
            Some(mut data) => {
                data.clear();
                Storage { data, pooled: true }
            }
            None => Storage { data: Vec::with_capacity(len), pooled: false },
        }
    }

    fn array(self, shape: Vec<usize>) -> NdArray {
        debug_assert_eq!(self.data.len(), numel(&shape), "storage does not match shape {shape:?}");
        NdArray { shape, data: self.data, pooled: self.pooled }
    }
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.data.len())
        }
    }
}

/// Number of elements implied by a shape (product of dimensions; 1 for `[]`).
#[inline]
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a contiguous array of the given shape.
pub fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for d in (0..shape.len()).rev() {
        strides[d] = acc;
        acc *= shape[d];
    }
    strides
}

/// Broadcast two shapes following numpy rules (align trailing dimensions;
/// a dimension of 1 stretches). Returns `None` if the shapes are
/// incompatible.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let nd = a.len().max(b.len());
    let mut out = vec![0; nd];
    for d in 0..nd {
        let da = if d < nd - a.len() { 1 } else { a[d - (nd - a.len())] };
        let db = if d < nd - b.len() { 1 } else { b[d - (nd - b.len())] };
        out[d] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Strides for iterating an array of shape `src` as if broadcast to `dst`
/// (stride 0 on stretched dimensions). `src` must be broadcast-compatible
/// with `dst` and `dst.len() >= src.len()`.
fn broadcast_strides(src: &[usize], dst: &[usize]) -> Vec<usize> {
    let nd = dst.len();
    let base = contiguous_strides(src);
    let offset = nd - src.len();
    let mut out = vec![0usize; nd];
    for d in 0..src.len() {
        out[offset + d] = if src[d] == 1 && dst[offset + d] != 1 { 0 } else { base[d] };
    }
    out
}

/// `(outer, mid, inner)` when `small`, aligned to the trailing dims of
/// `full`, is 1 everywhere except one contiguous run of dims equal to
/// `full`'s: `full` then reads as `[outer, mid, inner]` against a `[mid]`
/// `small`. Size-1 dims of `full` fit either side. `None` when matching
/// dims are interleaved with stretched ones (`[N, 1, V, E]` against
/// `[N, T, V, E]`). `small` must be broadcast-compatible with `full`.
fn broadcast_run(small: &[usize], full: &[usize]) -> Option<(usize, usize, usize)> {
    let nd = full.len();
    let offset = nd - small.len();
    let matches = |d: usize| full[d] != 1 && d >= offset && small[d - offset] == full[d];
    let a = (0..nd).find(|&d| matches(d)).unwrap_or(nd);
    let b = (0..nd).rev().find(|&d| matches(d)).map_or(a, |d| d + 1);
    if (a..b).any(|d| full[d] != 1 && !matches(d)) {
        return None;
    }
    Some((full[..a].iter().product(), full[a..b].iter().product(), full[b..].iter().product()))
}

/// Fill `out` with `f(full, small)`, `full` read as `[outer, mid, inner]`
/// and `small` as `[mid]` (see [`broadcast_run`]): each `inner`-long
/// stretch of `full` pairs with one element of `small`, or, when `inner`
/// is 1, each `mid`-long row with all of `small`. One `outer` block per
/// closure call, sharded over the worker pool.
fn broadcast_blocked(
    out: &mut [f32],
    full: &[f32],
    small: &[f32],
    (_, mid, inner): (usize, usize, usize),
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    let block = mid * inner;
    crate::parallel::for_each_block(out, block, out.len(), |o, dst| {
        let src = &full[o * block..(o + 1) * block];
        if inner == 1 {
            for ((d, &x), &s) in dst.iter_mut().zip(src).zip(small) {
                *d = f(x, s);
            }
        } else {
            for ((drow, row), &s) in
                dst.chunks_exact_mut(inner).zip(src.chunks_exact(inner)).zip(small)
            {
                for (d, &x) in drow.iter_mut().zip(row) {
                    *d = f(x, s);
                }
            }
        }
    });
}

/// Elements per closure call of the sharded elementwise kernels
/// ([`NdArray::map`], [`NdArray::zip_map`], …): a fixed span, so no
/// element's arguments depend on the thread count.
const ELEMENTWISE_SPAN: usize = 16 * 1024;

/// Call `f(start, chunk)` over consecutive [`ELEMENTWISE_SPAN`]-long
/// chunks of `out` (the last one shorter), `start` being the chunk's
/// offset in `out`, sharded over the worker pool at one unit of work per
/// element.
fn for_each_elementwise(out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    let n = out.len();
    if n == 0 {
        return;
    }
    if n <= ELEMENTWISE_SPAN {
        return f(0, out);
    }
    let ends: Vec<usize> =
        (1..=n.div_ceil(ELEMENTWISE_SPAN)).map(|i| (i * ELEMENTWISE_SPAN).min(n)).collect();
    crate::parallel::for_each_span(out, &ends, n, |i, chunk| f(i * ELEMENTWISE_SPAN, chunk));
}

/// Add `src`, read as `[outer, mid, inner]`, into `out` (`[mid]`), summing
/// over `outer` and `inner`. Each output element takes its addends in
/// `src`'s row-major order — outer-major, then inner — the order the
/// odometer in [`NdArray::sum_axes`] uses.
///
/// `out` is split into one contiguous run per thread, sharded over the
/// worker pool; each run walks `src` block by block as the serial loop
/// does, and no element's addend order depends on the split.
fn reduce_blocked(src: &[f32], out: &mut [f32], (_, mid, inner): (usize, usize, usize)) {
    if src.is_empty() {
        return;
    }
    let parts = crate::parallel::num_threads().min(mid);
    let ends: Vec<usize> = (1..=parts).map(|t| mid * t / parts).collect();
    crate::parallel::for_each_span(out, &ends, src.len(), |i, run| {
        let j0 = ends[i] - run.len();
        // a private copy, so two runs never share a cache line while they sum
        let mut accs = run.to_vec();
        for block in src.chunks_exact(mid * inner) {
            if inner == 1 {
                for (acc, &v) in accs.iter_mut().zip(&block[j0..]) {
                    *acc += v;
                }
            } else {
                for (acc, row) in accs.iter_mut().zip(block[j0 * inner..].chunks_exact(inner)) {
                    let mut s = *acc;
                    for &v in row {
                        s += v;
                    }
                    *acc = s;
                }
            }
        }
        run.copy_from_slice(&accs);
    });
}

impl NdArray {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// An array of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Storage::zeroed(numel(shape)).array(shape.to_vec())
    }

    /// An array of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// An array filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = numel(shape);
        let s = match take_installed(n, false) {
            Some(mut data) => {
                data.fill(value);
                Storage { data, pooled: true }
            }
            None => Storage { data: vec![value; n], pooled: false },
        };
        s.array(shape.to_vec())
    }

    /// Wrap an existing buffer. Panics if `data.len()` does not match the
    /// shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "from_vec: data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        NdArray { shape: shape.to_vec(), data, pooled: false }
    }

    /// An array of `shape` with unspecified contents, which the caller
    /// overwrites: a kernel's output buffer.
    pub(crate) fn for_overwrite(shape: &[usize]) -> Self {
        Storage::dirty(numel(shape)).array(shape.to_vec())
    }

    /// A rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        NdArray { shape: vec![], data: vec![value], pooled: false }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut a = Self::zeros(&[n, n]);
        for i in 0..n {
            a.data[i * n + i] = 1.0;
        }
        a
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of the array.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds no elements (some dimension is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat, row-major data buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the array and return its flat buffer. The buffer leaves
    /// any installed workspace for good.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.pooled = false;
        std::mem::take(&mut self.data)
    }

    /// Value of a rank-0 or single-element array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on array with {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Set the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let strides = contiguous_strides(&self.shape);
        index
            .iter()
            .zip(&self.shape)
            .zip(&strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of bounds for dim of size {d}");
                i * s
            })
            .sum()
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Apply `f` to every element, producing a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut out = Storage::dirty(self.len());
        let src = &self.data;
        for_each_elementwise(&mut out.data, |start, chunk| {
            for (o, &v) in chunk.iter_mut().zip(&src[start..]) {
                *o = f(v);
            }
        });
        out.array(self.shape.clone())
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        for_each_elementwise(&mut self.data, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Combine `other` into `self` elementwise in place (same shape, no
    /// broadcasting): `self[i] = f(self[i], other[i])`.
    pub(crate) fn zip_map_inplace(&mut self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape, other.shape, "zip_map_inplace shape mismatch");
        let src = &other.data;
        for_each_elementwise(&mut self.data, |start, chunk| {
            for (a, &b) in chunk.iter_mut().zip(&src[start..]) {
                *a = f(*a, b);
            }
        });
    }

    /// Combine two same-shaped arrays elementwise (no broadcasting).
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let mut out = Storage::dirty(self.len());
        let (a, b) = (&self.data, &other.data);
        for_each_elementwise(&mut out.data, |start, chunk| {
            for ((o, &x), &y) in chunk.iter_mut().zip(&a[start..]).zip(&b[start..]) {
                *o = f(x, y);
            }
        });
        out.array(self.shape.clone())
    }

    /// Elementwise binary operation with numpy broadcasting.
    ///
    /// When one operand has the output shape and the other is 1 except
    /// for one contiguous run of dims (`[1, C, 1, 1]` over
    /// `[N, C, H, W]`, `[V, V]` over `[N, T, V, V]`, a trailing `[C]`),
    /// a blocked loop pairs each contiguous stretch of the full operand
    /// with its element or row of the small one. Every other pattern
    /// walks an index odometer. Both call `f` on the same operands for
    /// every output element, so the result is the same bits either way.
    pub fn binop(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        if self.shape == other.shape {
            return self.zip_map(other, f);
        }
        let out_shape = broadcast_shape(&self.shape, &other.shape).unwrap_or_else(|| {
            panic!("broadcast mismatch: {:?} vs {:?}", self.shape, other.shape)
        });
        let n = numel(&out_shape);
        if self.shape == out_shape {
            if let Some(run) = broadcast_run(&other.shape, &out_shape) {
                let mut out = Storage::dirty(n);
                broadcast_blocked(&mut out.data, &self.data, &other.data, run, f);
                return out.array(out_shape);
            }
        } else if other.shape == out_shape {
            if let Some(run) = broadcast_run(&self.shape, &out_shape) {
                let mut out = Storage::dirty(n);
                broadcast_blocked(&mut out.data, &other.data, &self.data, run, |b, a| f(a, b));
                return out.array(out_shape);
            }
        }
        let mut out = Storage::empty(n);
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let nd = out_shape.len();
        let data = &mut out.data;
        let mut idx = vec![0usize; nd];
        let (mut oa, mut ob) = (0usize, 0usize);
        for _ in 0..n {
            data.push(f(self.data[oa], other.data[ob]));
            // odometer increment from the last dimension
            for d in (0..nd).rev() {
                idx[d] += 1;
                oa += sa[d];
                ob += sb[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
                oa -= sa[d] * out_shape[d];
                ob -= sb[d] * out_shape[d];
            }
        }
        out.array(out_shape)
    }

    /// Elementwise sum with broadcasting.
    pub fn add(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a + b)
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a - b)
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a * b)
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a / b)
    }

    /// Add `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Multiply every element by `s`.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Accumulate `other * scale` into `self` (same shape, no broadcast).
    pub fn add_assign_scaled(&mut self, other: &Self, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        self.zip_map_inplace(other, |a, b| a + b * scale);
    }

    /// Add `bias[c]` to every element of channel `c` (axis 1) in place —
    /// the bias epilogue of a convolution, with no broadcast operand. One
    /// sample per closure call, sharded over the worker pool.
    pub fn add_channel_bias(&mut self, bias: &[f32]) {
        assert!(self.ndim() >= 2, "add_channel_bias needs rank >= 2");
        let c = self.shape[1];
        assert_eq!(bias.len(), c, "add_channel_bias bias length mismatch");
        let inner: usize = self.shape[2..].iter().product();
        let work = self.len();
        crate::parallel::for_each_block(&mut self.data, c * inner, work, |_, plane| {
            for (chan, &b) in plane.chunks_mut(inner).zip(bias) {
                for v in chan {
                    *v += b;
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterpret the buffer with a new shape of the same element count.
    /// A single `usize::MAX` ("infer") dimension is allowed.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let shape = resolve_reshape(self.len(), shape);
        assert_eq!(numel(&shape), self.len(), "reshape to {shape:?} from {:?}", self.shape);
        let mut s = Storage::empty(self.len());
        s.data.extend_from_slice(&self.data);
        s.array(shape)
    }

    /// [`NdArray::reshape`] by value: reinterpret the shape without copying
    /// the buffer. The zero-cost reshape for owned intermediates on the
    /// inference path (`reshape` on a borrowed array must clone).
    pub fn into_shape(mut self, shape: &[usize]) -> Self {
        let shape = resolve_reshape(self.len(), shape);
        assert_eq!(numel(&shape), self.len(), "into_shape to {shape:?} from {:?}", self.shape);
        let pooled = std::mem::replace(&mut self.pooled, false);
        NdArray { shape, data: std::mem::take(&mut self.data), pooled }
    }

    /// Materialise a permutation of the axes. `perm` must be a permutation of
    /// `0..ndim`.
    ///
    /// A permutation that swaps two adjacent axis groups and keeps the
    /// axes around them in place (`[0, 2, 3, 1]`, `[0, 3, 1, 2]`,
    /// `[0, 1, 3, 2]`, `[0, 2, 1, 3]`, `[1, 0, 2]`, …) is a batched block
    /// transpose and runs as a cache-tiled copy; every other permutation
    /// walks an index odometer. Both only move elements, so the result is
    /// the same bits either way.
    pub fn permute(&self, perm: &[usize]) -> Self {
        let nd = self.ndim();
        assert_eq!(perm.len(), nd, "permute rank mismatch");
        let mut seen = vec![false; nd];
        for &p in perm {
            assert!(p < nd && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        // every element is overwritten below, so a dirty buffer is fine
        let mut out = Storage::dirty(self.len());
        let src = &self.data;
        if let Some((rows, cols, inner)) = adjacent_group_swap(&self.shape, perm) {
            // one [rows, cols, inner] plane per closure call
            let plane = rows * cols * inner;
            crate::parallel::for_each_block(&mut out.data, plane, src.len(), |o, dst| {
                swap_axis_groups(&src[o * plane..(o + 1) * plane], dst, rows, cols, inner);
            });
            return out.array(out_shape);
        }
        let in_strides = contiguous_strides(&self.shape);
        // stride of output dim d in the *input* buffer
        let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        for_each_elementwise(&mut out.data, |start, chunk| {
            // the odometer at output element `start`
            let mut idx = vec![0usize; nd];
            let (mut rest, mut off) = (start, 0usize);
            for d in (0..nd).rev() {
                idx[d] = rest % out_shape[d];
                rest /= out_shape[d];
                off += idx[d] * strides[d];
            }
            for o in chunk.iter_mut() {
                *o = src[off];
                for d in (0..nd).rev() {
                    idx[d] += 1;
                    off += strides[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    idx[d] = 0;
                    off -= strides[d] * out_shape[d];
                }
            }
        });
        out.array(out_shape)
    }

    /// Swap the last two axes (matrix transpose for the batched case).
    pub fn transpose_last2(&self) -> Self {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last2 needs rank >= 2");
        let mut perm: Vec<usize> = (0..nd).collect();
        perm.swap(nd - 1, nd - 2);
        self.permute(&perm)
    }

    /// Materialise this array broadcast to `shape`.
    pub fn broadcast_to(&self, shape: &[usize]) -> Self {
        if self.shape == shape {
            return self.clone();
        }
        let bs = broadcast_shape(&self.shape, shape)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} to {:?}", self.shape, shape));
        assert_eq!(bs, shape, "cannot broadcast {:?} to {:?}", self.shape, shape);
        NdArray::zeros(shape).binop(self, |_, b| b)
    }

    /// Sum a gradient-like array down to `target` shape, undoing broadcasting
    /// (sums over prepended dims and dims that were stretched from 1).
    /// Consumes the array, so a gradient already of the target shape
    /// passes through without a copy.
    pub fn reduce_to_shape(self, target: &[usize]) -> Self {
        if self.shape == target {
            return self;
        }
        let nd = self.ndim();
        let offset = nd - target.len();
        // sum over the leading extra dims and over stretched dims
        let mut axes: Vec<usize> = (0..offset).collect();
        for (d, &t) in target.iter().enumerate() {
            if t == 1 && self.shape[offset + d] != 1 {
                axes.push(offset + d);
            }
        }
        self.sum_axes(&axes, true).into_shape(target)
    }

    /// Concatenate arrays along `axis`. All other dimensions must match.
    pub fn concat(parts: &[&NdArray], axis: usize) -> Self {
        assert!(!parts.is_empty(), "concat of zero arrays");
        let nd = parts[0].ndim();
        assert!(axis < nd, "concat axis out of range");
        let mut out_shape = parts[0].shape.clone();
        out_shape[axis] = parts.iter().map(|p| p.shape[axis]).sum();
        for p in parts {
            assert_eq!(p.ndim(), nd, "concat rank mismatch");
            for (d, &want) in out_shape.iter().enumerate() {
                if d != axis {
                    assert_eq!(p.shape[d], want, "concat dim {d} mismatch");
                }
            }
        }
        let outer: usize = parts[0].shape[..axis].iter().product();
        let inner: usize = parts[0].shape[axis + 1..].iter().product();
        let mut out = Storage::empty(numel(&out_shape));
        for o in 0..outer {
            for p in parts {
                let block = p.shape[axis] * inner;
                let start = o * block;
                out.data.extend_from_slice(&p.data[start..start + block]);
            }
        }
        out.array(out_shape)
    }

    /// Extract `len` consecutive indices starting at `start` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Self {
        assert!(axis < self.ndim(), "slice axis out of range");
        assert!(start + len <= self.shape[axis], "slice out of bounds");
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let mut out = Storage::empty(outer * len * inner);
        let src_block = self.shape[axis] * inner;
        for o in 0..outer {
            let base = o * src_block + start * inner;
            out.data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        out.array(out_shape)
    }

    /// Scatter-add `src` (shaped like the slice) back into a zero array of
    /// `full_shape` at the given position along `axis`. Inverse of
    /// [`NdArray::slice_axis`] for gradients.
    pub fn unslice_axis(src: &NdArray, full_shape: &[usize], axis: usize, start: usize) -> Self {
        let mut out = NdArray::zeros(full_shape);
        let outer: usize = full_shape[..axis].iter().product();
        let inner: usize = full_shape[axis + 1..].iter().product();
        let len = src.shape[axis];
        let dst_block = full_shape[axis] * inner;
        let src_block = len * inner;
        for o in 0..outer {
            let dst = o * dst_block + start * inner;
            let s = o * src_block;
            out.data[dst..dst + src_block].copy_from_slice(&src.data[s..s + src_block]);
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum over the given axes. With `keepdim` the reduced dimensions stay
    /// as size 1; otherwise they are removed.
    ///
    /// Each output element adds its addends in the input's row-major
    /// order, starting from zero. When the kept dims form one contiguous
    /// run (`[N, C, H, W]` → `[1, C, 1, 1]`, `[N, T, V, V]` →
    /// `[1, 1, V, V]`), a blocked loop walks the input as
    /// `[outer, kept, inner]`; every other pattern walks an index
    /// odometer. Both keep that order, so the result is the same bits
    /// either way.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Self {
        if axes.is_empty() {
            return self.clone();
        }
        let nd = self.ndim();
        let mut reduce = vec![false; nd];
        for &a in axes {
            assert!(a < nd, "sum axis {a} out of range for rank {nd}");
            reduce[a] = true;
        }
        let kept_shape: Vec<usize> =
            (0..nd).map(|d| if reduce[d] { 1 } else { self.shape[d] }).collect();
        let mut out = NdArray::zeros(&kept_shape);
        if let Some(run) = broadcast_run(&kept_shape, &self.shape) {
            reduce_blocked(&self.data, &mut out.data, run);
        } else {
            let out_strides_full = contiguous_strides(&kept_shape);
            let out_strides: Vec<usize> =
                (0..nd).map(|d| if reduce[d] { 0 } else { out_strides_full[d] }).collect();
            let mut idx = vec![0usize; nd];
            let mut off_out = 0usize;
            for &v in &self.data {
                out.data[off_out] += v;
                for d in (0..nd).rev() {
                    idx[d] += 1;
                    off_out += out_strides[d];
                    if idx[d] < self.shape[d] {
                        break;
                    }
                    idx[d] = 0;
                    off_out -= out_strides[d] * self.shape[d];
                }
            }
        }
        if keepdim {
            out
        } else {
            let squeezed: Vec<usize> =
                (0..nd).filter(|&d| !reduce[d]).map(|d| self.shape[d]).collect();
            out.into_shape(&squeezed)
        }
    }

    /// Mean over the given axes.
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Self {
        let count: usize = axes.iter().map(|&a| self.shape[a]).product();
        self.sum_axes(axes, keepdim).mul_scalar(1.0 / count as f32)
    }

    /// Sum of all elements as an `f32`.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        self.sum_all() / self.len() as f32
    }

    /// Maximum element (NaN-ignoring; `-inf` for empty arrays).
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum along `axis` (keepdim). Used internally by stable softmax.
    pub fn max_axis_keepdim(&self, axis: usize) -> Self {
        let nd = self.ndim();
        assert!(axis < nd);
        let outer: usize = self.shape[..axis].iter().product();
        let k = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let mut out = NdArray::full(&out_shape, f32::NEG_INFINITY);
        for o in 0..outer {
            for j in 0..k {
                let base = (o * k + j) * inner;
                for i in 0..inner {
                    let v = self.data[base + i];
                    let dst = o * inner + i;
                    if v > out.data[dst] {
                        out.data[dst] = v;
                    }
                }
            }
        }
        out
    }

    /// Index of the maximum element along the last axis, one per row.
    pub fn argmax_last(&self) -> Vec<usize> {
        let k = *self.shape.last().expect("argmax on scalar");
        self.data
            .chunks_exact(k)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |acc, (i, &v)| {
                        if v > acc.1 {
                            (i, v)
                        } else {
                            acc
                        }
                    })
                    .0
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Batched matrix multiplication with broadcasting over leading
    /// dimensions. `self: [..., m, k]`, `other: [..., k, n]` →
    /// `[broadcast(...), m, n]`. Rank-2 inputs are ordinary matmul.
    ///
    /// Dense operands with at least two output rows run the packed
    /// cache-blocked microkernel (see [`crate::gemm`]): row-blocks are
    /// sharded over the worker pool with [`crate::parallel::for_each_span`]
    /// and each block packs A/B panels and runs the register-tiled inner
    /// kernel. A bounded density probe on `self` keeps the zero-skip `ikj`
    /// fast path for sparse operators (hypergraph incidence products are
    /// mostly zeros). Dense products of every shape — `m = 1` included —
    /// take the packed kernel, because serving relies on each output row
    /// being bitwise identical whether computed alone or inside a larger
    /// batch, which forbids dispatching on `m`.
    ///
    /// Every dispatch decision depends only on shapes and operand data —
    /// never on the thread count — and both kernels fix each output
    /// element's accumulation order independently of the sharding, so the
    /// result is bitwise identical at every `DHGCN_THREADS` value. The
    /// packed and reference kernels round differently; they agree within
    /// `allclose(1e-5)` (pinned by the property suite) but not bit-for-bit,
    /// which is why [`NdArray::matmul_reference`] stays available.
    pub fn matmul(&self, other: &Self) -> Self {
        self.view().matmul_with(other.view(), MatmulKernel::Auto)
    }

    /// [`NdArray::matmul`] forced onto the retained reference `ikj` row
    /// kernel (with its zero-skip density branch). This is the numerical
    /// baseline the packed kernel is pinned against in the property suite
    /// and the "before" side of the GEMM benchmarks.
    pub fn matmul_reference(&self, other: &Self) -> Self {
        self.view().matmul_with(other.view(), MatmulKernel::Reference)
    }

    /// [`NdArray::matmul`] forced onto the packed cache-blocked kernel,
    /// bypassing the density/shape dispatch — degenerate shapes (`m = 1`,
    /// `k = 1`, ragged edge tiles) and sparse operands included. Property
    /// tests use this to exercise the packed kernel on shapes the automatic
    /// dispatch would route elsewhere.
    pub fn matmul_packed(&self, other: &Self) -> Self {
        self.view().matmul_packed(other.view())
    }

    /// [`NdArray::matmul`] returning a typed [`ShapeError`] instead of
    /// panicking on incompatible operands. The error `Display` is the same
    /// text the panicking entry point raises, so the static analyzer and
    /// the runtime report one diagnostic.
    pub fn try_matmul(&self, other: &Self) -> Result<Self, ShapeError> {
        crate::shape_check::check_matmul(&self.shape, &other.shape)?;
        Ok(matmul_impl(self.view(), other.view(), MatmulKernel::Auto))
    }

    /// This array as a borrowed [`ArrayView`] of its own shape.
    pub fn view(&self) -> ArrayView<'_> {
        ArrayView { shape: &self.shape, data: &self.data, trans: false }
    }

    /// This array's buffer read under `shape`, which must hold the same
    /// number of elements — a reshape that copies nothing.
    pub fn view_as<'a>(&'a self, shape: &'a [usize]) -> ArrayView<'a> {
        assert_eq!(numel(shape), self.len(), "view_as {shape:?} from {:?}", self.shape);
        ArrayView { shape, data: &self.data, trans: false }
    }

    // ------------------------------------------------------------------
    // Convolution support
    // ------------------------------------------------------------------

    /// Unfold `[N, C, H, W]` into column form `[N, C*kh*kw, Ho*Wo]` so that
    /// convolution becomes a batched matmul with the `[Cout, C*kh*kw]`
    /// weight matrix. Out-of-bounds (padding) positions read as zero.
    ///
    /// The `[Ho*Wo]`-long output rows (one per `(batch, channel, kernel
    /// tap)`) are independent, so they are sharded over the worker pool;
    /// see [`crate::parallel`] for the determinism contract.
    #[allow(clippy::too_many_arguments)]
    pub fn im2col(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Self {
        self.try_im2col(kh, kw, sh, sw, ph, pw, dh, dw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NdArray::im2col`] returning a typed [`ShapeError`] instead of
    /// panicking on a bad rank or an input smaller than the effective
    /// kernel — same `Display` text as the panicking entry point.
    #[allow(clippy::too_many_arguments)]
    pub fn try_im2col(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Result<Self, ShapeError> {
        crate::shape_check::check_im2col(&self.shape, kh, kw, sh, sw, ph, pw, dh, dw)?;
        Ok(self.im2col_impl(kh, kw, sh, sw, ph, pw, dh, dw))
    }

    #[allow(clippy::too_many_arguments)]
    fn im2col_impl(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Self {
        debug_assert_eq!(self.ndim(), 4, "im2col expects [N, C, H, W]");
        let (n, c, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        let (ho, wo) = conv_out_size(h, w, kh, kw, sh, sw, ph, pw, dh, dw);
        let l = ho * wo;
        let ckk = c * kh * kw;
        let kk = kh * kw;
        // padding positions are skipped by the copy loop below, so the
        // buffer must start zeroed
        let mut out = Storage::zeroed(n * ckk * l);
        let work = n * ckk * l;
        let rows = whole_rows(kw, sw, pw);
        crate::parallel::for_each_block(&mut out.data, l.max(1), work, |item, row_out| {
            // item indexes the (batch, channel, kernel-tap) row
            let (b, row) = (item / ckk, item % ckk);
            let (ci, tap) = (row / kk, row % kk);
            let (ki, kj) = (tap / kw, tap % kw);
            let src_c = (b * c + ci) * h * w;
            for y in 0..ho {
                let iy = (y * sh + ki * dh) as isize - ph as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src_y = src_c + iy as usize * w;
                let dst_y = y * wo;
                if rows {
                    row_out[dst_y..dst_y + wo].copy_from_slice(&self.data[src_y..src_y + w]);
                    continue;
                }
                for x in 0..wo {
                    let ix = (x * sw + kj * dw) as isize - pw as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    row_out[dst_y + x] = self.data[src_y + ix as usize];
                }
            }
        });
        out.array(vec![n, ckk, l])
    }

    /// Fold column form `[N, C*kh*kw, Ho*Wo]` back to `[N, C, H, W]`,
    /// accumulating overlapping contributions. This is the adjoint of
    /// [`NdArray::im2col`] and therefore its gradient.
    ///
    /// Kernel taps of the *same* `(batch, channel)` overlap in the output,
    /// so the shard unit is one `[H, W]` channel plane: each plane is
    /// accumulated by one thread in the serial tap order, keeping the
    /// result bitwise identical to the serial path.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im(&self, c: usize, h: usize, w: usize, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Self {
        assert_eq!(self.ndim(), 3, "col2im expects [N, C*kh*kw, L]");
        let n = self.shape[0];
        let (ho, wo) = conv_out_size(h, w, kh, kw, sh, sw, ph, pw, dh, dw);
        let l = ho * wo;
        assert_eq!(self.shape[1], c * kh * kw, "col2im channel-kernel mismatch");
        assert_eq!(self.shape[2], l, "col2im spatial mismatch");
        let ckk = c * kh * kw;
        let mut out = Storage::zeroed(n * c * h * w);
        let work = n * ckk * l;
        let rows = whole_rows(kw, sw, pw);
        crate::parallel::for_each_block(&mut out.data, (h * w).max(1), work, |item, plane| {
            // item indexes the (batch, channel) output plane
            let (b, ci) = (item / c, item % c);
            let src_b = b * ckk * l;
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    let src_row = src_b + row * l;
                    for y in 0..ho {
                        let iy = (y * sh + ki * dh) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_y = iy as usize * w;
                        let src_y = src_row + y * wo;
                        if rows {
                            let src = &self.data[src_y..src_y + wo];
                            for (d, &v) in plane[dst_y..dst_y + w].iter_mut().zip(src) {
                                *d += v;
                            }
                            continue;
                        }
                        for x in 0..wo {
                            let ix = (x * sw + kj * dw) as isize - pw as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[dst_y + ix as usize] += self.data[src_y + x];
                        }
                    }
                }
            }
        });
        out.array(vec![n, c, h, w])
    }

    // ------------------------------------------------------------------
    // Comparisons
    // ------------------------------------------------------------------

    /// Whether every element differs from `other`'s by at most
    /// `atol + rtol * |other|`.
    ///
    /// The tolerance is **asymmetric** — `other` is the reference operand
    /// and scales the relative term (numpy's `allclose` convention), so
    /// `a.allclose(b, ..)` and `b.allclose(a, ..)` can disagree when the
    /// magnitudes differ near the tolerance boundary.
    ///
    /// Bitwise-equal elements short-circuit before any arithmetic: equal
    /// infinities compare close (where `inf - inf = NaN` would fail the
    /// tolerance test), as do identical NaN bit patterns, and the common
    /// exactly-equal case skips the float ops entirely. Non-finite
    /// elements are *only* close when bitwise equal — otherwise
    /// `rtol * |±inf|` would make the threshold infinite and declare
    /// opposite infinities close.
    pub fn allclose(&self, other: &Self, rtol: f32, atol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(&a, &b)| {
                if a.to_bits() == b.to_bits() {
                    return true;
                }
                a.is_finite() && b.is_finite() && (a - b).abs() <= atol + rtol * b.abs()
            })
    }
}

/// A borrowed, read-only look at an array's buffer under a shape with the
/// same element count — how a kernel consumes a reshaped operand without
/// copying it, e.g. a `[N, C, H, W]` feature map as the `[N, C, H·W]`
/// right-hand side of a 1×1 convolution's GEMM. Made by
/// [`NdArray::view`] / [`NdArray::view_as`]; [`ArrayView::t`] reads it as
/// the transpose of its last two axes, still without copying.
#[derive(Clone, Copy, Debug)]
pub struct ArrayView<'a> {
    /// The stored shape; the logical one swaps its last two axes when
    /// `trans` is set.
    shape: &'a [usize],
    data: &'a [f32],
    trans: bool,
}

impl<'a> ArrayView<'a> {
    /// This view read as the transpose of its last two axes (a batched
    /// matrix transpose), without copying: `x.view().t()` is the operand
    /// `x.transpose_last2()` would materialise. Products read it in place
    /// (see [`crate::gemm::Operand`]) with the bits of the materialised
    /// operand. Applying it twice gives back the view.
    pub fn t(self) -> Self {
        assert!(self.shape.len() >= 2, "transpose needs rank >= 2");
        ArrayView { trans: !self.trans, ..self }
    }

    /// [`NdArray::matmul`] on views: automatic kernel dispatch.
    pub fn matmul(self, other: ArrayView<'_>) -> NdArray {
        self.matmul_with(other, MatmulKernel::Auto)
    }

    /// [`NdArray::matmul_packed`] on views: the packed kernel whatever
    /// the operands' density.
    ///
    /// Every grad-free product with activation data on the left comes
    /// here (`Tensor::matmul` under `no_grad`, the vertex mixes): the
    /// automatic dispatch probes the left operand's density over the
    /// whole batch, so a ReLU-sparse or all-zero neighbour in a serving
    /// micro-batch could flip the kernel, and with it a request's bits,
    /// between a batch and a solo run. The packed kernel makes every
    /// output row a function of its own row and the right operand alone.
    pub fn matmul_packed(self, other: ArrayView<'_>) -> NdArray {
        self.matmul_with(other, MatmulKernel::Packed)
    }

    fn matmul_with(self, other: ArrayView<'_>, kernel: MatmulKernel) -> NdArray {
        crate::shape_check::check_matmul(&self.logical_shape(), &other.logical_shape())
            .unwrap_or_else(|e| panic!("{e}"));
        matmul_impl(self, other, kernel)
    }

    /// The shape the view reads as: the stored one, last two axes swapped
    /// when transposed.
    fn logical_shape(&self) -> Cow<'a, [usize]> {
        if !self.trans {
            return Cow::Borrowed(self.shape);
        }
        let mut shape = self.shape.to_vec();
        let nd = shape.len();
        shape.swap(nd - 2, nd - 1);
        Cow::Owned(shape)
    }

    /// Logical `(rows, cols)` of each matrix in the batch.
    fn dims(&self) -> (usize, usize) {
        let nd = self.shape.len();
        let (r, c) = (self.shape[nd - 2], self.shape[nd - 1]);
        if self.trans {
            (c, r)
        } else {
            (r, c)
        }
    }

    /// Logical rows `i0..i1` of the matrix starting at element `base`, as
    /// a GEMM operand read in place.
    fn operand(&self, base: usize, i0: usize, i1: usize) -> Operand<'a> {
        let (rows, cols) = self.dims();
        if !self.trans {
            return Operand::rows(&self.data[base + i0 * cols..base + i1 * cols], cols);
        }
        // logical (i, p) is stored at p·rows + i: the block spans from row
        // i0 of depth 0 to row i1 of depth cols − 1
        let end = if cols == 0 || i0 == i1 { base + i0 } else { base + (cols - 1) * rows + i1 };
        Operand::transposed(&self.data[base + i0..end], rows)
    }

    /// The buffer in logical row-major order: borrowed as it lies, or the
    /// transpose materialised for the row kernel, which reads rows only.
    fn row_major(&self) -> Cow<'a, [f32]> {
        if !self.trans {
            return Cow::Borrowed(self.data);
        }
        let nd = self.shape.len();
        let mut out = vec![0.0f32; self.data.len()];
        swap_axis_groups(self.data, &mut out, self.shape[nd - 2], self.shape[nd - 1], 1);
        Cow::Owned(out)
    }

    /// The density probe ([`mostly_zero`]) over the logical row-major
    /// order, so a transposed view probes the positions its materialised
    /// transpose would.
    fn mostly_zero(&self) -> bool {
        if !self.trans {
            return mostly_zero(self.data, |i| i);
        }
        let (m, k) = self.dims();
        mostly_zero(self.data, |i| {
            let (bi, r) = (i / (m * k), i % (m * k));
            bi * m * k + (r % k) * m + r / k
        })
    }
}

/// The shared matmul kernel behind every [`NdArray`] / [`ArrayView`]
/// product entry point; operands are shape-checked by the caller.
///
/// Either operand may be a transposed view ([`ArrayView::t`]): the packed
/// kernel packs it where it lies, the row kernel reads a materialised
/// copy, and the density probe samples its logical order — so the result
/// is bitwise the product of the materialised transpose.
fn matmul_impl(a: ArrayView<'_>, b: ArrayView<'_>, kernel: MatmulKernel) -> NdArray {
    let (rank_a, rank_b) = (a.shape.len(), b.shape.len());
    debug_assert!(rank_a >= 2 && rank_b >= 2, "matmul needs rank >= 2");
    let (m, k1) = a.dims();
    let (k2, n) = b.dims();
    debug_assert_eq!(k1, k2, "matmul inner-dim mismatch: {:?} x {:?}", a.logical_shape(), b.logical_shape());
    let batch_a = &a.shape[..rank_a - 2];
    let batch_b = &b.shape[..rank_b - 2];
    let batch = broadcast_shape(batch_a, batch_b).unwrap_or_else(|| {
        panic!("matmul batch broadcast mismatch: {:?} x {:?}", a.shape, b.shape)
    });
    let nb = numel(&batch);
    let sa = broadcast_strides(batch_a, &batch);
    let sb = broadcast_strides(batch_b, &batch);
    // per-batch element counts
    let ea = m * k1;
    let eb = k1 * n;
    let mut out_shape = batch.clone();
    out_shape.push(m);
    out_shape.push(n);
    // both kernels fully overwrite their output span (matmul_row zeroes
    // the row, gemm assigns on the first k-block), so the buffer may
    // come back dirty from the workspace — no memset needed
    let mut out = Storage::dirty(nb * m * n);
    // walk the broadcast odometer once to precompute each batch's
    // operand offsets; workers then index instead of iterating
    let nd = batch.len();
    let mut abases = Vec::with_capacity(nb);
    let mut bbases = Vec::with_capacity(nb);
    let mut idx = vec![0usize; nd];
    let (mut oa, mut ob) = (0usize, 0usize);
    for _ in 0..nb {
        abases.push(oa * ea);
        bbases.push(ob * eb);
        for d in (0..nd).rev() {
            idx[d] += 1;
            oa += sa[d];
            ob += sb[d];
            if idx[d] < batch[d] {
                break;
            }
            idx[d] = 0;
            oa -= sa[d] * batch[d];
            ob -= sb[d] * batch[d];
        }
    }
    let work = nb
        .saturating_mul(m)
        .saturating_mul(n)
        .saturating_mul(k1.max(1));
    // Dispatch. The packed kernel takes every dense product — including
    // m = 1, where packing B costs more than it saves, because serving
    // depends on batch-size invariance: a request's logits must be
    // bitwise identical whether it runs alone (an [1, F] FC product) or
    // inside a micro-batch ([B, F]). Both kernels fix each output row's
    // bits as a function of that row and B alone, so invariance holds
    // exactly when the *kernel choice* cannot differ between those two
    // calls — no shape test on m is allowed. The zero-skipping row
    // kernel keeps sparse incidence products (constant operands, stable
    // density) off the packed path. Nothing here reads the thread
    // count, so dispatch never breaks thread-count determinism either.
    let skip_zeros = kernel != MatmulKernel::Packed && m > 0 && a.mostly_zero();
    // an empty contraction writes nothing on the packed kernel; the row
    // kernel zero-fills it
    let packed = k1 > 0
        && match kernel {
            MatmulKernel::Packed => true,
            MatmulKernel::Reference => false,
            MatmulKernel::Auto => !skip_zeros,
        };
    if packed {
        // Pack each *distinct* rhs matrix once, before sharding: a
        // broadcast B (the common conv/FC case) packs a single time no
        // matter how many batches or row-blocks consume it. Workers
        // share the packed image read-only and pack only their own A
        // row-block, so the sharding grain can shrink with the thread
        // count without multiplying pack work. The images themselves are
        // packed in parallel, one closure per image, so each is written
        // whole by one thread whatever the thread count.
        let mut uniq = bbases.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let bp_len = crate::gemm::packed_b_len(k1, n);
        let mut bpack = take_installed(uniq.len() * bp_len, false)
            .unwrap_or_else(|| vec![0.0f32; uniq.len() * bp_len]);
        crate::parallel::for_each_block(&mut bpack, bp_len, uniq.len() * bp_len, |u, image| {
            crate::gemm::pack_b_full(b.operand(uniq[u], 0, k1), image, n, k1);
        });
        // Shard (batch, row-block) spans; each span multiplies up to
        // `rb` rows of A against its batch's packed B.
        let rb = crate::gemm::row_block(m, nb, crate::parallel::num_threads());
        let nbk = m.div_ceil(rb);
        let mut ends = Vec::with_capacity(nb * nbk);
        for bi in 0..nb {
            for ib in 0..nbk {
                let i1 = ((ib + 1) * rb).min(m);
                ends.push(bi * m * n + i1 * n);
            }
        }
        crate::parallel::for_each_span(&mut out.data, &ends, work, |item, cspan| {
            let (bi, ib) = (item / nbk, item % nbk);
            let i0 = ib * rb;
            let i1 = (i0 + rb).min(m);
            let ablock = a.operand(abases[bi], i0, i1);
            let u = uniq.binary_search(&bbases[bi]).unwrap();
            let bp = &bpack[u * bp_len..(u + 1) * bp_len];
            crate::gemm::gemm_block_prepacked(ablock, bp, cspan, i1 - i0, n, k1);
        });
        give_installed(bpack);
    } else {
        let (a_rows, b_rows) = (a.row_major(), b.row_major());
        crate::parallel::for_each_block(&mut out.data, n.max(1), work, |item, orow| {
            let (bi, i) = (item / m, item % m);
            let abase = abases[bi];
            let arow = &a_rows[abase + i * k1..abase + (i + 1) * k1];
            let bm = &b_rows[bbases[bi]..bbases[bi] + eb];
            matmul_row(arow, bm, orow, n, skip_zeros);
        });
    }
    out.array(out_shape)
}

/// Which matmul inner kernel [`NdArray::matmul_impl`] runs. `Auto` is the
/// production dispatch; the forced variants back the public
/// [`NdArray::matmul_reference`] / [`NdArray::matmul_packed`] entry points
/// so tests and benches can pin a kernel regardless of operand shape or
/// density.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MatmulKernel {
    Auto,
    Reference,
    Packed,
}

/// Most elements the density probe is willing to look at. Above this the
/// probe strides instead of scanning, keeping the cost of the dispatch
/// decision bounded no matter how large the operand is.
const DENSITY_PROBE_MAX: usize = 4096;

/// Whether more than half of the probed elements of `data` are exactly
/// zero — the density probe that decides between the dense packed kernel
/// and the zero-skipping row kernel in [`NdArray::matmul`]. Hypergraph
/// operators (`H`-products, `Imp·Impᵀ` factors) are mostly zeros and win
/// with the skip; im2col'd conv inputs and weights are dense.
///
/// Small operands are scanned in full. Larger ones are probed at a fixed
/// deterministic stride chosen odd and not divisible by 3, so the sample
/// cannot alias the period-2/3/4/6 zero patterns that interleaved or
/// padded operands produce. The stride walks the operand's *logical*
/// row-major order, which `index` maps to a position in `data`, so a
/// transposed operand samples the elements its materialised copy would.
/// The probe reads only operand data and length, never the thread count,
/// so the dispatch decision — and therefore the result bits — are
/// identical at every `DHGCN_THREADS` value. A wrong density guess on an
/// adversarial pattern costs only speed, never correctness: both kernels
/// compute the same product.
fn mostly_zero(data: &[f32], index: impl Fn(usize) -> usize) -> bool {
    if data.len() <= DENSITY_PROBE_MAX {
        let zeros = data.iter().filter(|&&v| v == 0.0).count();
        return zeros * 2 > data.len();
    }
    let mut stride = data.len() / DENSITY_PROBE_MAX;
    stride |= 1;
    if stride.is_multiple_of(3) {
        stride += 2;
    }
    let (mut zeros, mut probed) = (0usize, 0usize);
    let mut i = 0;
    while i < data.len() {
        if data[index(i)] == 0.0 {
            zeros += 1;
        }
        probed += 1;
        i += stride;
    }
    zeros * 2 > probed
}

/// One output row of the `ikj` matmul kernel: `orow = arow · bm` where
/// `bm` is the `[k, n]` right-hand matrix. Zeroes `orow` first — the
/// output buffer may be recycled dirty from a [`crate::Workspace`]. Shared by the
/// serial and parallel paths so both make identical per-element
/// decisions — this is what makes the parallel result bitwise equal to
/// the serial one.
#[inline]
fn matmul_row(arow: &[f32], bm: &[f32], orow: &mut [f32], n: usize, skip_zeros: bool) {
    orow.fill(0.0);
    if skip_zeros {
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bm[p * n..(p + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    } else {
        for (p, &av) in arow.iter().enumerate() {
            let brow = &bm[p * n..(p + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    }
}

/// If `perm` keeps a prefix and a suffix of the axes in place and swaps
/// the two adjacent axis groups between them — `[.., B, A, ..]` from
/// `[.., A, B, ..]` — the `(rows, cols, inner)` extents of the batched
/// block transpose it amounts to: the input read as
/// `[outer, rows, cols, inner]` becomes `[outer, cols, rows, inner]`.
/// `None` for the identity and for every other permutation.
fn adjacent_group_swap(shape: &[usize], perm: &[usize]) -> Option<(usize, usize, usize)> {
    let moved = |(i, &p): (usize, &usize)| i != p;
    let a = perm.iter().enumerate().position(moved)?;
    let c = perm.len() - perm.iter().enumerate().rev().position(moved)?;
    // axes before `a` are fixed, so the group moved to the front starts at
    // perm[a] > a and runs to `c`; the group it displaces is a..b
    let b = perm[a];
    let front = c - b;
    let swapped = (0..front).all(|i| perm[a + i] == b + i)
        && (0..b - a).all(|i| perm[a + front + i] == a + i);
    swapped.then(|| {
        let rows = shape[a..b].iter().product();
        let cols = shape[b..c].iter().product();
        (rows, cols, shape[c..].iter().product())
    })
}

/// Side of the square tiles [`swap_axis_groups`] walks: a 16×16 block of
/// `f32` reads and writes whole cache lines on both sides.
const TRANSPOSE_TILE: usize = 16;

/// `dst[o][j][i][..] = src[o][i][j][..]` for every `[rows, cols]` plane of
/// `inner`-long runs, visited in square tiles so both sides stay
/// cache-resident. Pure data movement: the output bits are the input's.
fn swap_axis_groups(src: &[f32], dst: &mut [f32], rows: usize, cols: usize, inner: usize) {
    let plane = rows * cols * inner;
    if plane == 0 {
        return;
    }
    for (s, d) in src.chunks_exact(plane).zip(dst.chunks_exact_mut(plane)) {
        for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let i1 = (i0 + TRANSPOSE_TILE).min(rows);
            for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
                let j1 = (j0 + TRANSPOSE_TILE).min(cols);
                for i in i0..i1 {
                    for j in j0..j1 {
                        let from = (i * cols + j) * inner;
                        let to = (j * rows + i) * inner;
                        if inner == 1 {
                            d[to] = s[from];
                        } else {
                            d[to..to + inner].copy_from_slice(&s[from..from + inner]);
                        }
                    }
                }
            }
        }
    }
}

/// Whether a kernel one column wide, at unit width stride and with no
/// width padding, maps each output row onto one whole input row (and
/// `Wo = W`): `im2col` then copies, and `col2im` adds, whole rows instead
/// of testing every element's column against the bounds. Every `k×1`
/// temporal and `1×1` pointwise kernel qualifies.
fn whole_rows(kw: usize, sw: usize, pw: usize) -> bool {
    kw == 1 && sw == 1 && pw == 0
}

/// Output spatial size of a 2-D convolution. Panics when the padded input
/// is smaller than the effective kernel; [`crate::check_conv_out_size`] is
/// the non-panicking equivalent with the same diagnostic text.
#[allow(clippy::too_many_arguments)]
pub fn conv_out_size(h: usize, w: usize, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> (usize, usize) {
    crate::shape_check::check_conv_out_size(h, w, kh, kw, sh, sw, ph, pw, dh, dw)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn resolve_reshape(len: usize, shape: &[usize]) -> Vec<usize> {
    let infer = shape.iter().filter(|&&d| d == usize::MAX).count();
    assert!(infer <= 1, "reshape allows at most one inferred dim");
    if infer == 0 {
        return shape.to_vec();
    }
    let known: usize = shape.iter().filter(|&&d| d != usize::MAX).product();
    assert!(known > 0 && len.is_multiple_of(known), "cannot infer reshape dim");
    shape.iter().map(|&d| if d == usize::MAX { len / known } else { d }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let a = NdArray::zeros(&[2, 3]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.len(), 6);
        let b = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(b.at(&[1, 0]), 3.0);
        let s = NdArray::scalar(5.0);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_len_mismatch_panics() {
        NdArray::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = NdArray::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]);
        let i = NdArray::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn broadcast_shapes() {
        assert_eq!(broadcast_shape(&[2, 1, 3], &[4, 3]), Some(vec![2, 4, 3]));
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shape(&[], &[5]), Some(vec![5]));
        assert_eq!(broadcast_shape(&[2, 3], &[3, 3]), None);
    }

    #[test]
    fn broadcast_add() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = NdArray::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let col = NdArray::from_vec(vec![100.0, 200.0], &[2, 1]);
        let d = a.add(&col);
        assert_eq!(d.data(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn matmul_2d() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = NdArray::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched_broadcast() {
        // a: [2, 2, 2] batched, b: [2, 2] broadcast over batch
        let a = NdArray::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
        // and the mirrored broadcast
        let d = b.matmul(&a);
        assert_eq!(d.shape(), &[2, 2, 2]);
        assert_eq!(d.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn permute_and_transpose() {
        let a = NdArray::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(t.at(&[1, 3, 2]), a.at(&[1, 2, 3]));
        // permute twice with inverse perm is identity
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, a);
    }

    /// Every permutation of `0..n`, in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for pos in 0..n {
                let mut p = rest.clone();
                p.insert(pos, n - 1);
                out.push(p);
            }
        }
        out.sort();
        out
    }

    /// `out[i₀, …] = x[j]` where `j` holds `i_d` at axis `perm[d]` — the
    /// permute definition written as an index formula.
    fn permute_reference(x: &NdArray, perm: &[usize]) -> Vec<f32> {
        let out_shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
        let in_strides = contiguous_strides(x.shape());
        (0..x.len())
            .map(|flat| {
                let (mut rem, mut src) = (flat, 0);
                for d in (0..perm.len()).rev() {
                    src += (rem % out_shape[d]) * in_strides[perm[d]];
                    rem /= out_shape[d];
                }
                x.data()[src]
            })
            .collect()
    }

    #[test]
    fn permute_matches_the_index_formula_for_every_permutation() {
        let mut state = 0x5EED_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut ws = crate::Workspace::new();
        for rank in 2..=5 {
            for perm in permutations(rank) {
                // random extents in 1..=5 (size-1 axes included), then one
                // shape with an axis long enough to cross transpose tiles
                let mut shapes: Vec<Vec<usize>> =
                    (0..3).map(|_| (0..rank).map(|_| 1 + next(5) as usize).collect()).collect();
                let mut long: Vec<usize> = (0..rank).map(|_| 1 + next(3) as usize).collect();
                long[perm[0]] = 37;
                long[perm[rank - 1]] = 19;
                shapes.push(long);
                for shape in shapes {
                    let n = numel(&shape);
                    let x = NdArray::from_vec((0..n).map(|i| (i as f32 * 0.37).sin()).collect(), &shape);
                    let want: Vec<u32> = permute_reference(&x, &perm).iter().map(|v| v.to_bits()).collect();
                    let got = x.permute(&perm);
                    let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got_bits, want, "permute {perm:?} of {shape:?}");
                    // from an installed workspace, a dirty buffer is fully
                    // overwritten
                    ws.give(vec![f32::NAN; n + 3]);
                    ws.install(|| assert_eq!(x.permute(&perm), got, "pooled permute {perm:?} of {shape:?}"));
                }
            }
        }
    }

    #[test]
    fn kernels_past_one_span_match_their_definitions() {
        // sixteen full elementwise spans and a ragged one, sharded at 3
        // threads: every chunk must start its work at its own offset
        let shape = [7, 23, 1650];
        let n = numel(&shape);
        assert!(n >= crate::parallel::MIN_PARALLEL_WORK && !n.is_multiple_of(ELEMENTWISE_SPAN));
        let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let ys: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        let (x, y) = (NdArray::from_vec(xs.clone(), &shape), NdArray::from_vec(ys.clone(), &shape));
        for threads in [1, 3] {
            crate::parallel::with_threads(threads, || {
                let want: Vec<f32> = xs.iter().map(|&v| v * 2.0 - 1.0).collect();
                assert_eq!(x.map(|v| v * 2.0 - 1.0).data(), &want[..]);
                let want: Vec<f32> = xs.iter().zip(&ys).map(|(&a, &b)| a - b).collect();
                assert_eq!(x.zip_map(&y, |a, b| a - b).data(), &want[..]);
                let mut acc = x.clone();
                acc.add_assign_scaled(&y, 0.5);
                let want: Vec<f32> = xs.iter().zip(&ys).map(|(&a, &b)| a + b * 0.5).collect();
                assert_eq!(acc.data(), &want[..]);
                for perm in [[2, 0, 1], [1, 2, 0], [2, 1, 0]] {
                    assert_eq!(
                        x.permute(&perm).data(),
                        &permute_reference(&x, &perm)[..],
                        "permute {perm:?}"
                    );
                }
                let mut want = [0.0f32; 23];
                for (i, &v) in xs.iter().enumerate() {
                    want[(i / 1650) % 23] += v;
                }
                assert_eq!(x.sum_axes(&[0, 2], false).data(), &want[..]);
            });
        }
    }

    #[test]
    fn adjacent_group_swaps_are_recognised() {
        let shape = [2, 3, 4, 5];
        // the layout changes of the serving path: (rows, cols, inner)
        assert_eq!(adjacent_group_swap(&shape, &[0, 2, 3, 1]), Some((3, 20, 1)));
        assert_eq!(adjacent_group_swap(&shape, &[0, 3, 1, 2]), Some((12, 5, 1)));
        assert_eq!(adjacent_group_swap(&shape, &[0, 1, 3, 2]), Some((4, 5, 1)));
        assert_eq!(adjacent_group_swap(&shape, &[0, 2, 1, 3]), Some((3, 4, 5)));
        assert_eq!(adjacent_group_swap(&shape[..3], &[1, 0, 2]), Some((2, 3, 4)));
        // identity and interleaving permutations take the odometer
        assert_eq!(adjacent_group_swap(&shape, &[0, 1, 2, 3]), None);
        assert_eq!(adjacent_group_swap(&shape, &[2, 0, 3, 1]), None);
        assert_eq!(adjacent_group_swap(&shape, &[3, 2, 1, 0]), None);
    }

    #[test]
    fn sum_axes_keepdim_and_squeeze() {
        let a = NdArray::from_vec((1..=24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let s = a.sum_axes(&[1], true);
        assert_eq!(s.shape(), &[2, 1, 4]);
        assert_eq!(s.at(&[0, 0, 0]), 1.0 + 5.0 + 9.0);
        let s2 = a.sum_axes(&[0, 2], false);
        assert_eq!(s2.shape(), &[3]);
        assert_eq!(s2.data()[0], (1..=4).sum::<i32>() as f32 + (13..=16).sum::<i32>() as f32);
    }

    #[test]
    fn mean_and_reduce_to_shape() {
        let a = NdArray::ones(&[2, 3]);
        assert_eq!(a.mean_axes(&[0, 1], false).item(), 1.0);
        let g = NdArray::ones(&[4, 2, 3]);
        let r = g.clone().reduce_to_shape(&[2, 3]);
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data()[0], 4.0);
        let r2 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r2.shape(), &[2, 1]);
        assert_eq!(r2.data()[0], 12.0);
    }

    #[test]
    fn max_axis_and_argmax() {
        let a = NdArray::from_vec(vec![1.0, 5.0, 3.0, 9.0, 2.0, 4.0], &[2, 3]);
        let m = a.max_axis_keepdim(1);
        assert_eq!(m.shape(), &[2, 1]);
        assert_eq!(m.data(), &[5.0, 9.0]);
        assert_eq!(a.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = NdArray::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let b = NdArray::from_vec((6..12).map(|i| i as f32).collect(), &[2, 3]);
        let c = NdArray::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 6]);
        assert_eq!(c.slice_axis(1, 0, 3), a);
        assert_eq!(c.slice_axis(1, 3, 3), b);
        let c0 = NdArray::concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[4, 3]);
        assert_eq!(c0.slice_axis(0, 2, 2), b);
    }

    #[test]
    fn unslice_is_adjoint_of_slice() {
        let full = NdArray::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let s = full.slice_axis(0, 1, 2);
        let u = NdArray::unslice_axis(&s, &[3, 4], 0, 1);
        assert_eq!(u.slice_axis(0, 1, 2), s);
        assert_eq!(u.slice_axis(0, 0, 1).sum_all(), 0.0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is a reshape
        let a = NdArray::from_vec((0..16).map(|i| i as f32).collect(), &[1, 2, 2, 4]);
        let c = a.im2col(1, 1, 1, 1, 0, 0, 1, 1);
        assert_eq!(c.shape(), &[1, 2, 8]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn im2col_known_values() {
        // input 1x1x3x3 with values 1..9, 2x2 kernel, stride 1, no pad
        let a = NdArray::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let c = a.im2col(2, 2, 1, 1, 0, 0, 1, 1);
        assert_eq!(c.shape(), &[1, 4, 4]);
        // rows are kernel positions, columns are output positions
        assert_eq!(&c.data()[0..4], &[1.0, 2.0, 4.0, 5.0]); // k=(0,0)
        assert_eq!(&c.data()[4..8], &[2.0, 3.0, 5.0, 6.0]); // k=(0,1)
        assert_eq!(&c.data()[8..12], &[4.0, 5.0, 7.0, 8.0]); // k=(1,0)
        assert_eq!(&c.data()[12..16], &[5.0, 6.0, 8.0, 9.0]); // k=(1,1)
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let a = NdArray::ones(&[1, 1, 2, 2]);
        let c = a.im2col(3, 3, 1, 1, 1, 1, 1, 1);
        assert_eq!(c.shape(), &[1, 9, 4]);
        // centre kernel tap sees all four ones
        let centre_row = &c.data()[4 * 4..5 * 4];
        assert_eq!(centre_row, &[1.0, 1.0, 1.0, 1.0]);
        // corner tap (0,0) only sees input at output (1,1)
        let corner = &c.data()[0..4];
        assert_eq!(corner, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y
        let x = NdArray::from_vec((0..36).map(|i| (i as f32).sin()).collect(), &[1, 1, 6, 6]);
        let xc = x.im2col(3, 1, 1, 1, 1, 0, 2, 1);
        let y = NdArray::from_vec((0..xc.len()).map(|i| (i as f32 * 0.7).cos()).collect(), xc.shape());
        let yi = y.col2im(1, 6, 6, 3, 1, 1, 1, 1, 0, 2, 1);
        let lhs: f32 = xc.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(yi.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_out_sizes() {
        assert_eq!(conv_out_size(5, 5, 3, 3, 1, 1, 1, 1, 1, 1), (5, 5));
        assert_eq!(conv_out_size(8, 25, 3, 1, 2, 1, 1, 0, 1, 1), (4, 25));
        // dilation 2: effective kernel 5
        assert_eq!(conv_out_size(10, 1, 3, 1, 1, 1, 2, 0, 2, 1), (10, 1));
    }

    #[test]
    fn reshape_with_inferred_dim() {
        let a = NdArray::zeros(&[2, 3, 4]);
        let r = a.reshape(&[usize::MAX, 4]);
        assert_eq!(r.shape(), &[6, 4]);
    }

    #[test]
    fn broadcast_to_materialises() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = a.broadcast_to(&[2, 3]);
        assert_eq!(b.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn allclose_tolerances() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[2]);
        let b = NdArray::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6], &[2]);
        assert!(a.allclose(&b, 1e-4, 1e-5));
        let c = NdArray::from_vec(vec![1.1, 2.0], &[2]);
        assert!(!a.allclose(&c, 1e-4, 1e-5));
    }

    #[test]
    fn allclose_handles_infinities_and_bitwise_equality() {
        // equal infinities must compare close: inf - inf = NaN would fail
        // the tolerance check without the bitwise short-circuit
        let inf = NdArray::from_vec(vec![f32::INFINITY, f32::NEG_INFINITY, 1.0], &[3]);
        assert!(inf.allclose(&inf.clone(), 1e-5, 1e-8));
        // opposite infinities are not close
        let flipped = NdArray::from_vec(vec![f32::NEG_INFINITY, f32::INFINITY, 1.0], &[3]);
        assert!(!inf.allclose(&flipped, 1e-5, 1e-8));
        // identical NaN payloads are bitwise equal and therefore close
        let nan = NdArray::from_vec(vec![f32::NAN], &[1]);
        assert!(nan.allclose(&nan.clone(), 0.0, 0.0));
        // NaN vs a number is never close
        assert!(!nan.allclose(&NdArray::from_vec(vec![0.0], &[1]), 1.0, 1.0));
    }

    #[test]
    fn allclose_relative_tolerance_is_asymmetric() {
        // rtol scales |b| (the receiver's argument), numpy-style: with
        // a = 100, b = 104, |a-b| = 4 <= rtol*104 but not rtol*100 once
        // rtol sits between the two thresholds
        let a = NdArray::from_vec(vec![100.0], &[1]);
        let b = NdArray::from_vec(vec![104.0], &[1]);
        let rtol = 4.0 / 102.0;
        assert!(a.allclose(&b, rtol, 0.0));
        assert!(!b.allclose(&a, rtol, 0.0));
    }

    #[test]
    fn density_probe_decision_is_unchanged_by_sampling() {
        // Small operands: exact scan. An incidence-like pattern (2 of 3
        // zero) reads sparse; a dense weight block reads dense.
        let mostly_zero = |d: &[f32]| mostly_zero(d, |i| i);
        assert!(mostly_zero(&[0.0, 0.0, 1.0, 0.0, 0.0, 2.0]));
        assert!(!mostly_zero(&[1.0; 100]));

        // Large operands go through the strided probe; the decision on
        // realistic workloads must match the full scan. Incidence-shaped:
        // each row of H has ~k nonzeros out of many columns.
        let (rows, cols, nnz_per_row) = (512, 400, 10);
        let mut incidence = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for j in 0..nnz_per_row {
                incidence[r * cols + (r * 7 + j * 41) % cols] = 1.0;
            }
        }
        assert!(incidence.len() > DENSITY_PROBE_MAX);
        assert!(mostly_zero(&incidence));

        // Conv-shaped dense operand (im2col output with some zero padding
        // positions, still majority nonzero).
        let mut dense: Vec<f32> = (0..64 * 576).map(|i| (i % 13) as f32 + 1.0).collect();
        for v in dense.iter_mut().step_by(10) {
            *v = 0.0; // 10% padding zeros
        }
        assert!(dense.len() > DENSITY_PROBE_MAX);
        assert!(!mostly_zero(&dense));

        // Period-2 and period-3 alternating patterns: exactly half /
        // one-third zero. The stride (odd, not divisible by 3) cannot
        // alias onto only-zeros or only-nonzeros.
        let alt2: Vec<f32> = (0..20000).map(|i| (i % 2) as f32).collect();
        assert!(!mostly_zero(&alt2)); // exactly half zero -> not "mostly"
        let alt3: Vec<f32> = (0..20000).map(|i| ((i % 3) != 0) as i32 as f32).collect();
        assert!(!mostly_zero(&alt3)); // one third zero
        let alt3_sparse: Vec<f32> = (0..20000).map(|i| ((i % 3) == 0) as i32 as f32).collect();
        assert!(mostly_zero(&alt3_sparse)); // two thirds zero
    }

    #[test]
    fn forced_kernels_agree_with_auto_dispatch() {
        // One shape the auto path sends to the packed kernel and one it
        // sends to the row kernel; both forced entry points must agree
        // within tolerance everywhere.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a = NdArray::from_vec((0..23 * 17).map(|_| next()).collect(), &[23, 17]);
        let b = NdArray::from_vec((0..17 * 29).map(|_| next()).collect(), &[17, 29]);
        let auto = a.matmul(&b);
        let reference = a.matmul_reference(&b);
        let packed = a.matmul_packed(&b);
        assert!(auto.allclose(&reference, 1e-5, 1e-6));
        assert!(auto.allclose(&packed, 1e-5, 1e-6));
        // dense multi-row auto dispatch IS the packed kernel, bit for bit
        assert_eq!(
            auto.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            packed.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // a dense single-row product also dispatches packed: its row must
        // be bitwise identical to the same row inside a larger batch
        // (serving batch-size invariance), so dispatch cannot test m
        let row = NdArray::from_vec(a.data()[..17].to_vec(), &[1, 17]);
        let auto_row = row.matmul(&b);
        assert_eq!(
            auto_row.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            row.matmul_packed(&b).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            auto_row.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            packed.data()[..auto_row.len()].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn installed_workspace_reuses_dirty_buffers_correctly() {
        // Products of both kernels and a smaller follow-up product run in
        // buffers recycled through an installed workspace; stale garbage
        // from a larger buffer must never leak into results.
        let mut ws = crate::Workspace::new();
        let a = NdArray::from_vec((0..12 * 7).map(|i| (i as f32).sin()).collect(), &[12, 7]);
        let b = NdArray::from_vec((0..7 * 9).map(|i| (i as f32).cos()).collect(), &[7, 9]);
        let expect = a.matmul(&b);
        let mut sp = vec![0.0f32; 12 * 7];
        sp[3] = 2.0;
        sp[40] = -1.0;
        let sparse = NdArray::from_vec(sp, &[12, 7]);
        let expect_sp = sparse.matmul(&b);
        ws.give(vec![f32::NAN; 200]);
        ws.install(|| {
            for _ in 0..3 {
                assert_eq!(a.matmul(&b), expect);
            }
            // sparse operand -> row kernel, same recycled buffers
            assert_eq!(sparse.matmul(&b), expect_sp);
            assert_eq!(NdArray::zeros(&[4, 50]), NdArray::from_vec(vec![0.0; 200], &[4, 50]));
        });
        assert!(ws.pooled() > 0, "dropped arrays go back to the installed workspace");
        assert_eq!(ws.live_bytes(), 0, "every pooled buffer came back");
    }

    #[test]
    fn pool_storage_stays_out_of_clones_and_vectors() {
        let mut ws = crate::Workspace::new();
        let (clone, vec) = ws.install(|| {
            let x = NdArray::zeros(&[64]);
            assert!(x.pooled);
            let clone = x.clone();
            assert!(!clone.pooled, "a clone is fresh storage");
            (clone, x.map(|v| v + 1.0).into_vec())
        });
        assert!(!clone.pooled);
        assert_eq!(vec, vec![1.0; 64]);
        // without an installed workspace nothing is pooled
        assert!(!NdArray::zeros(&[64]).pooled);
    }
}
