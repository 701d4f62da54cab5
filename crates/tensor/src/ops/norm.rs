//! Batch normalisation as one fused op per mode: training (batch
//! statistics) and eval (running statistics).

use crate::autograd::{Backward, BackwardCtx};
use crate::{parallel, NdArray, Tensor};

/// Partial sums a per-channel reduction keeps: element `j` of every row
/// adds into lane `j % LANES`, and the lanes fold left to right at the
/// end. The order depends on the shape alone, and the independent lanes
/// let the loop vectorise.
const LANES: usize = 8;

/// `Σ f(a, b)` over paired rows in the fixed order of [`LANES`]: rows in
/// iteration order, each dealt round-robin over the lanes from lane 0.
fn lane_sum<'a>(rows: impl Iterator<Item = (&'a [f32], &'a [f32])>, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for (a, b) in rows {
        let (mut ca, mut cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            for ((l, &va), &vb) in lanes.iter_mut().zip(xa).zip(xb) {
                *l += f(va, vb);
            }
        }
        for ((l, &va), &vb) in lanes.iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
            *l += f(va, vb);
        }
    }
    let mut total = 0.0f32;
    for l in lanes {
        total += l;
    }
    total
}

/// `(n, c, inner)` of an `[N, C, ...]` shape, `inner` at least 1 so an
/// empty input walks no rows.
fn nc_inner(shape: &[usize]) -> (usize, usize, usize) {
    (shape[0], shape[1], shape[2..].iter().product::<usize>().max(1))
}

/// Entry `at` of every per-channel pair in `pairs`, as a `[C]` array.
fn pair_entry(pairs: &[f32], at: usize) -> NdArray {
    let c = pairs.len() / 2;
    NdArray::from_vec(pairs.iter().skip(at).step_by(2).copied().collect(), &[c])
}

/// The `inner`-long rows of channel `ci` of `x` read as `[N, C, inner]`,
/// in batch order.
fn channel_rows(x: &[f32], c: usize, inner: usize, ci: usize) -> impl Iterator<Item = &[f32]> {
    x.chunks_exact(inner).skip(ci).step_by(c)
}

/// The fused training BatchNorm node. Besides its parents it keeps only
/// the normalised input `x̂` and the per-channel `1/σ`.
struct BatchNormOp {
    xhat: NdArray,
    inv_std: Vec<f32>,
}

impl Backward for BatchNormOp {
    fn backward(&self, mut g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let (n, c, inner) = nc_inner(g.shape());
        let hd = self.xhat.data();
        // per channel: [Σ dy, Σ dy·x̂], one channel per closure call
        let mut sums = vec![0.0f32; 2 * c];
        let gd = g.data();
        parallel::for_each_block(&mut sums, 2, 2 * gd.len(), |ci, s| {
            s[0] = lane_sum(channel_rows(gd, c, inner, ci).map(|r| (r, r)), |gv, _| gv);
            let pairs = channel_rows(gd, c, inner, ci).zip(channel_rows(hd, c, inner, ci));
            s[1] = lane_sum(pairs, |gv, hv| gv * hv);
        });
        let dgamma = ctx.parents[1].requires_grad().then(|| pair_entry(&sums, 1));
        let dbeta = ctx.parents[2].requires_grad().then(|| pair_entry(&sums, 0));
        let dx = ctx.parents[0].requires_grad().then(|| {
            // dx = (γ/σ)/m · (m·dy − Σdy − x̂·Σ(dy·x̂)), written over dy,
            // one `inner` row per closure call
            let m = (n * inner) as f32;
            let gamma = ctx.parents[1].data();
            let (gamma, inv_std, sums) = (gamma.data(), &self.inv_std, &sums);
            parallel::for_each_block(g.data_mut(), inner, hd.len(), |r, grow| {
                let ci = r % c;
                let k = gamma[ci] * inv_std[ci] / m;
                let (sg, sgh) = (sums[2 * ci], sums[2 * ci + 1]);
                for (gv, &hv) in grow.iter_mut().zip(&hd[r * inner..(r + 1) * inner]) {
                    *gv = k * (m * *gv - sg - hv * sgh);
                }
            });
            g
        });
        vec![dx, dgamma, dbeta]
    }

    fn name(&self) -> &'static str {
        "batch_norm_train"
    }
}

impl Tensor {
    /// Training-mode batch normalisation of `[N, C, ...]` over every axis
    /// but 1, as one graph node: `y = γ·(x − μ)/σ + β` with the per-channel
    /// batch mean `μ`, `σ = √(biased variance + eps)`, and `γ`, `β` of
    /// shape `[C]`. Returns `(y, μ, biased variance)`, the statistics as
    /// `[C]` arrays for the caller's running estimates.
    ///
    /// Each channel's sums run over its `(n, h·w)` elements in an order
    /// fixed by the shape: element `j` of every `h·w` row adds into lane
    /// `j % 8`, and the eight lanes fold left to right. Channels are
    /// sharded over the worker pool, one channel per closure call, and the
    /// x̂, y and `dx` sweeps one `h·w` row per call, so the result is
    /// bitwise identical at every thread count.
    ///
    /// The backward is the closed form
    /// `dx = (γ/σ)/m · (m·dy − Σdy − x̂·Σ(dy·x̂))`, `dγ = Σ dy·x̂` and
    /// `dβ = Σ dy` over the `m = N·H·W` elements of a channel; `dx` is
    /// skipped when the input does not require gradients.
    pub fn batch_norm_train(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> (Tensor, NdArray, NdArray) {
        let x = self.data();
        assert!(x.ndim() >= 2, "batch_norm_train expects [N, C, ...], got {:?}", x.shape());
        let (n, c, inner) = nc_inner(x.shape());
        let (gm, bt) = (gamma.data(), beta.data());
        assert_eq!(gm.shape(), &[c], "batch_norm_train: gamma must be [C]");
        assert_eq!(bt.shape(), &[c], "batch_norm_train: beta must be [C]");
        let m = (n * inner) as f32;
        let xd = x.data();
        // per channel: [mean, biased variance], one channel per closure call
        let mut stats = vec![0.0f32; 2 * c];
        parallel::for_each_block(&mut stats, 2, 3 * xd.len(), |ci, s| {
            let rows = || channel_rows(xd, c, inner, ci).map(|r| (r, r));
            let mean = lane_sum(rows(), |v, _| v) / m;
            s[0] = mean;
            s[1] = lane_sum(rows(), |v, _| (v - mean) * (v - mean)) / m;
        });
        let inv_std: Vec<f32> = stats.chunks_exact(2).map(|s| 1.0 / (s[1] + eps).sqrt()).collect();
        // x̂, then y from x̂, one `inner` row per closure call
        let mut xhat = NdArray::for_overwrite(x.shape());
        parallel::for_each_block(xhat.data_mut(), inner, xd.len(), |r, hrow| {
            let ci = r % c;
            let (mean, is) = (stats[2 * ci], inv_std[ci]);
            for (h, &v) in hrow.iter_mut().zip(&xd[r * inner..(r + 1) * inner]) {
                *h = (v - mean) * is;
            }
        });
        let mut y = NdArray::for_overwrite(x.shape());
        let (hd, gd, bd) = (xhat.data(), gm.data(), bt.data());
        parallel::for_each_block(y.data_mut(), inner, xd.len(), |r, yrow| {
            let ci = r % c;
            let (gv, bv) = (gd[ci], bd[ci]);
            for (o, &h) in yrow.iter_mut().zip(&hd[r * inner..(r + 1) * inner]) {
                *o = gv * h + bv;
            }
        });
        let (mean, var) = (pair_entry(&stats, 0), pair_entry(&stats, 1));
        let op = BatchNormOp { xhat, inv_std };
        let y = Tensor::from_op(y, vec![self.clone(), gamma.clone(), beta.clone()], Box::new(op));
        (y, mean, var)
    }
}

/// Parameter geometry of an eval BatchNorm over `[N, C, ...]`: each of
/// the `C·w` parameter slots covers channel `c` at position `j` of the
/// last axis when `w > 1` (slot `c·w + j`), or the whole channel when
/// `w = 1`. `mid` is the number of `w`-long rows per channel plane.
#[derive(Clone, Copy)]
struct Slots {
    c: usize,
    mid: usize,
    w: usize,
}

impl Slots {
    /// Slots for `shape` and `p` parameters: per channel when `p = C`,
    /// per (channel, last-axis position) when `p = C·W`.
    fn of(shape: &[usize], p: usize) -> Self {
        assert!(shape.len() >= 3, "batch_norm_eval expects [N, C, ...], got {shape:?}");
        let c = shape[1];
        let plane: usize = shape[2..].iter().product();
        let last = shape[shape.len() - 1];
        let w = if p == c {
            1
        } else {
            assert_eq!(p, c * last, "batch_norm_eval: {p} parameters fit neither C nor C·W of {shape:?}");
            last
        };
        Slots { c, mid: plane / w.max(1), w }
    }

    /// Elements per channel plane.
    fn plane_len(&self) -> usize {
        self.mid * self.w
    }
}

/// The eval BatchNorm node. Besides its parents it keeps the per-slot
/// running mean and `1/σ`, which the `γ` gradient reads.
struct BatchNormEvalOp {
    slots: Slots,
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    scale: Vec<f32>,
}

impl Backward for BatchNormEvalOp {
    fn backward(&self, mut g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let Slots { c, w, .. } = self.slots;
        let plane = self.slots.plane_len().max(1);
        let p = c * w;
        let x = ctx.parents[0].data();
        // per slot: Σ dy and Σ dy·x̂, in row-major order
        let (mut sg, mut sgh) = (vec![0.0f32; p], vec![0.0f32; p]);
        for (pi, (gp, xp)) in g.data().chunks_exact(plane).zip(x.data().chunks_exact(plane)).enumerate() {
            let base = (pi % c) * w;
            for (gr, xr) in gp.chunks_exact(w).zip(xp.chunks_exact(w)) {
                for (j, (&gv, &xv)) in gr.iter().zip(xr).enumerate() {
                    let k = base + j;
                    sg[k] += gv;
                    sgh[k] += gv * ((xv - self.mean[k]) * self.inv_std[k]);
                }
            }
        }
        let dgamma = ctx.parents[1].requires_grad().then(|| NdArray::from_vec(sgh, &[p]));
        let dbeta = ctx.parents[2].requires_grad().then(|| NdArray::from_vec(sg, &[p]));
        // dx = s·dy, written over dy
        let dx = ctx.parents[0].requires_grad().then(|| {
            for (pi, gp) in g.data_mut().chunks_exact_mut(plane).enumerate() {
                let s = &self.scale[(pi % c) * w..(pi % c + 1) * w];
                for gr in gp.chunks_exact_mut(w) {
                    for (gv, &sv) in gr.iter_mut().zip(s) {
                        *gv *= sv;
                    }
                }
            }
            g
        });
        vec![dx, dgamma, dbeta]
    }

    fn name(&self) -> &'static str {
        "batch_norm_eval"
    }
}

impl Tensor {
    /// Eval-mode batch normalisation of `[N, C, ...]` over the running
    /// statistics `mean` and `var`, as one graph node and one pass:
    /// `y = s·x + b` with `s = γ/√(var + eps)` and `b = β − s·mean`.
    ///
    /// `γ`, `β`, `mean` and `var` hold one entry per parameter slot:
    /// either `C` (one per channel, axis 1) or `C·W` with `W` the last
    /// axis, where slot `c·W + j` covers channel `c` at position `j` of
    /// the last axis — the layout of a BatchNorm over a `[N, C·V, T, 1]`
    /// fold of `[N, C, T, V]` features, applied to the features in place.
    ///
    /// The backward is `dx = s·dy`, `dγ = Σ dy·(x − mean)/√(var + eps)`
    /// and `dβ = Σ dy` over each slot's elements. Channel planes are
    /// sharded over the worker pool; every element is computed on its
    /// own, so the output is the same bits at every thread count.
    pub fn batch_norm_eval(&self, gamma: &Tensor, beta: &Tensor, mean: &NdArray, var: &NdArray, eps: f32) -> Tensor {
        let x = self.data();
        let (gm, bt) = (gamma.data(), beta.data());
        let p = gm.len();
        let slots = Slots::of(x.shape(), p);
        for (name, len) in [("beta", bt.len()), ("mean", mean.len()), ("var", var.len())] {
            assert_eq!(len, p, "batch_norm_eval: {name} has {len} entries, gamma {p}");
        }
        let inv_std: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut scale = Vec::with_capacity(p);
        let mut shift = Vec::with_capacity(p);
        for k in 0..p {
            let s = gm.data()[k] / (var.data()[k] + eps).sqrt();
            scale.push(s);
            shift.push(bt.data()[k] - s * mean.data()[k]);
        }
        let mut y = NdArray::for_overwrite(x.shape());
        let Slots { c, w, .. } = slots;
        let plane = slots.plane_len().max(1);
        let xd = x.data();
        parallel::for_each_block(y.data_mut(), plane, xd.len(), |pi, yp| {
            let k0 = (pi % c) * w;
            let xp = &xd[pi * plane..(pi + 1) * plane];
            if w == 1 {
                let (s, b) = (scale[k0], shift[k0]);
                for (o, &v) in yp.iter_mut().zip(xp) {
                    *o = s * v + b;
                }
                return;
            }
            let (s, b) = (&scale[k0..k0 + w], &shift[k0..k0 + w]);
            for (yr, xr) in yp.chunks_exact_mut(w).zip(xp.chunks_exact(w)) {
                for (((o, &v), &sv), &bv) in yr.iter_mut().zip(xr).zip(s).zip(b) {
                    *o = sv * v + bv;
                }
            }
        });
        drop((x, gm, bt));
        let op = BatchNormEvalOp { slots, mean: mean.data().to_vec(), inv_std, scale };
        Tensor::from_op(y, vec![self.clone(), gamma.clone(), beta.clone()], Box::new(op))
    }
}
