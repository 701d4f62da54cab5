//! Property-based gradient checks: every differentiable op in `dhg-tensor`
//! is validated against central finite differences on randomly generated
//! inputs.

use dhg_tensor::gradcheck::assert_gradients_close;
use dhg_tensor::ops::Conv2dSpec;
use dhg_tensor::{NdArray, Tensor};
use proptest::prelude::*;

const TOL: f32 = 2e-2;

/// Input values bounded away from op singularities (div/ln/sqrt).
fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.2f32..2.0f32, n)
}

/// Signed values for ops defined on all of ℝ.
fn signed_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0f32, n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn grad_add_broadcast(a in signed_values(6), b in signed_values(3)) {
        let xb = NdArray::from_vec(b, &[3]);
        let x = NdArray::from_vec(a, &[2, 3]);
        assert_gradients_close(&x, |t| t.add(&Tensor::param(xb.clone())).sum_all(), TOL);
        // and gradient w.r.t. the broadcast side
        let xa = x.clone();
        assert_gradients_close(&xb, |t| Tensor::param(xa.clone()).add(t).square().sum_all(), TOL);
    }

    #[test]
    fn grad_mul_div(a in values(4), b in values(4)) {
        let x = NdArray::from_vec(a, &[2, 2]);
        let y = NdArray::from_vec(b, &[2, 2]);
        assert_gradients_close(&x, |t| t.mul(&Tensor::param(y.clone())).sum_all(), TOL);
        assert_gradients_close(&x, |t| Tensor::param(y.clone()).div(t).sum_all(), TOL);
        assert_gradients_close(&x, |t| t.div(&Tensor::param(y.clone())).sum_all(), TOL);
    }

    #[test]
    fn grad_unary_chain(a in values(5)) {
        let x = NdArray::from_vec(a, &[5]);
        assert_gradients_close(&x, |t| t.sqrt().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.ln().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.exp().mul_scalar(0.1).sum_all(), TOL);
        assert_gradients_close(&x, |t| t.neg().add_scalar(3.0).sum_all(), TOL);
        assert_gradients_close(&x, |t| t.pow_scalar(1.7).sum_all(), TOL);
    }

    #[test]
    fn grad_activations(a in signed_values(6)) {
        let x = NdArray::from_vec(a.clone(), &[6]);
        // relu's kink at 0 breaks finite differences; nudge values away
        let mut nudged = x.clone();
        nudged.map_inplace(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        assert_gradients_close(&nudged, |t| t.relu().sum_all(), TOL);
        assert_gradients_close(&nudged, |t| t.leaky_relu(0.2).sum_all(), TOL);
        assert_gradients_close(&x, |t| t.sigmoid().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.tanh().sum_all(), TOL);
    }

    #[test]
    fn grad_matmul(a in signed_values(6), b in signed_values(8)) {
        let x = NdArray::from_vec(a, &[3, 2]);
        let y = NdArray::from_vec(b, &[2, 4]);
        assert_gradients_close(&x, |t| t.matmul(&Tensor::param(y.clone())).square().sum_all(), TOL);
        let x2 = x.clone();
        assert_gradients_close(&y, |t| Tensor::param(x2.clone()).matmul(t).square().sum_all(), TOL);
    }

    #[test]
    fn grad_batched_matmul_broadcast(a in signed_values(4), b in signed_values(16)) {
        // w [2,2] broadcast against batch [4,2,2]
        let w = NdArray::from_vec(a, &[2, 2]);
        let x = NdArray::from_vec(b, &[4, 2, 2]);
        let xc = x.clone();
        assert_gradients_close(&w, |t| t.matmul(&Tensor::param(xc.clone())).square().sum_all(), TOL);
        let wc = w.clone();
        assert_gradients_close(&x, |t| Tensor::param(wc.clone()).matmul(t).square().sum_all(), TOL);
    }

    #[test]
    fn grad_reductions(a in signed_values(12)) {
        let x = NdArray::from_vec(a, &[2, 3, 2]);
        assert_gradients_close(&x, |t| t.sum_axes(&[1], true).square().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.sum_axes(&[0, 2], false).square().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.mean_axes(&[2], false).square().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.mean_all(), TOL);
    }

    #[test]
    fn grad_shape_ops(a in signed_values(12)) {
        let x = NdArray::from_vec(a, &[2, 3, 2]);
        assert_gradients_close(&x, |t| t.reshape(&[6, 2]).square().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.permute(&[2, 0, 1]).square().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.transpose_last2().square().sum_all(), TOL);
        assert_gradients_close(&x, |t| t.slice_axis(1, 1, 2).square().sum_all(), TOL);
        assert_gradients_close(&x, |t| {
            let a = t.slice_axis(0, 0, 1);
            let b = t.slice_axis(0, 1, 1);
            Tensor::concat(&[&b, &a], 0).square().sum_all()
        }, TOL);
    }

    #[test]
    fn grad_softmax_family(a in signed_values(8)) {
        let x = NdArray::from_vec(a, &[2, 4]);
        // weight the outputs so gradients are non-degenerate
        let w = NdArray::from_vec((0..8).map(|i| (i as f32 * 0.37).sin()).collect(), &[2, 4]);
        let wc = w.clone();
        assert_gradients_close(&x, move |t| t.softmax(1).mul(&Tensor::constant(wc.clone())).sum_all(), TOL);
        let wc2 = w.clone();
        assert_gradients_close(&x, move |t| t.log_softmax(1).mul(&Tensor::constant(wc2.clone())).sum_all(), TOL);
        assert_gradients_close(&x, |t| t.cross_entropy(&[1, 3]), TOL);
    }

    #[test]
    fn grad_conv2d(a in signed_values(24), w in signed_values(12)) {
        // x [1, 2, 6, 2], w [2, 2, 3, 1] — temporal conv with dilation
        let x = NdArray::from_vec(a, &[1, 2, 6, 2]);
        let wt = NdArray::from_vec(w, &[2, 2, 3, 1]);
        let spec = Conv2dSpec::temporal(3, 1, 2);
        let wc = wt.clone();
        assert_gradients_close(&x, move |t| t.conv2d(&Tensor::param(wc.clone()), None, spec).square().sum_all(), TOL);
        let xc = x.clone();
        assert_gradients_close(&wt, move |t| Tensor::param(xc.clone()).conv2d(t, None, spec).square().sum_all(), TOL);
    }

    #[test]
    fn grad_conv2d_bias_and_stride(a in signed_values(32)) {
        let x = NdArray::from_vec(a, &[2, 1, 8, 2]);
        let w = NdArray::from_vec((0..6).map(|i| (i as f32 * 0.3).cos()).collect(), &[2, 1, 3, 1]);
        let b = NdArray::from_vec(vec![0.5, -0.5], &[2]);
        let spec = Conv2dSpec::temporal(3, 2, 1);
        let (wc, bc) = (w.clone(), b.clone());
        assert_gradients_close(&x, move |t| {
            t.conv2d(&Tensor::param(wc.clone()), Some(&Tensor::param(bc.clone())), spec).square().sum_all()
        }, TOL);
        let xc = x.clone();
        let wc2 = w.clone();
        assert_gradients_close(&b, move |t| {
            Tensor::param(xc.clone()).conv2d(&Tensor::param(wc2.clone()), Some(t), spec).square().sum_all()
        }, TOL);
    }

    #[test]
    fn grad_batch_norm_train(a in signed_values(24), w in signed_values(24)) {
        // x [2, 3, 2, 2]: per-channel statistics over N·H·W = 8 elements,
        // a weighted sum so no gradient vanishes by symmetry
        let x = NdArray::from_vec(a, &[2, 3, 2, 2]);
        let wt = NdArray::from_vec(w, &[2, 3, 2, 2]);
        let gamma = NdArray::from_vec(vec![0.5, 1.5, -1.0], &[3]);
        let beta = NdArray::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let loss = move |x: &Tensor, g: &Tensor, b: &Tensor| {
            x.batch_norm_train(g, b, 1e-5).0.mul(&Tensor::constant(wt.clone())).sum_all()
        };
        let (l, bc) = (loss.clone(), beta.clone());
        assert_gradients_close(&x, |t| l(t, &Tensor::param(gamma.clone()), &Tensor::param(bc.clone())), TOL);
        let (l, xc) = (loss.clone(), x.clone());
        assert_gradients_close(&gamma, |t| l(&Tensor::param(xc.clone()), t, &Tensor::param(beta.clone())), TOL);
        assert_gradients_close(&beta, |t| loss(&Tensor::param(x.clone()), &Tensor::param(gamma.clone()), t), TOL);
    }

    #[test]
    fn grad_batch_norm_eval(a in signed_values(24), w in signed_values(24)) {
        // x [2, 3, 2, 2] against running statistics, per channel and per
        // (channel, last-axis position) — the layout DataBn normalises
        let x = NdArray::from_vec(a, &[2, 3, 2, 2]);
        let wt = NdArray::from_vec(w, &[2, 3, 2, 2]);
        for p in [3usize, 6] {
            let vals = |f: fn(usize) -> f32| NdArray::from_vec((0..p).map(f).collect(), &[p]);
            let gamma = vals(|i| 0.5 + 0.3 * i as f32);
            let beta = vals(|i| 0.1 - 0.07 * i as f32);
            let mean = vals(|i| 0.2 * i as f32 - 0.4);
            let var = vals(|i| 0.6 + 0.25 * i as f32);
            let wt = wt.clone();
            let loss = move |x: &Tensor, g: &Tensor, b: &Tensor| {
                x.batch_norm_eval(g, b, &mean, &var, 1e-5).mul(&Tensor::constant(wt.clone())).sum_all()
            };
            let (l, bc) = (loss.clone(), beta.clone());
            assert_gradients_close(&x, |t| l(t, &Tensor::param(gamma.clone()), &Tensor::param(bc.clone())), TOL);
            let (l, xc) = (loss.clone(), x.clone());
            assert_gradients_close(&gamma, |t| l(&Tensor::param(xc.clone()), t, &Tensor::param(beta.clone())), TOL);
            assert_gradients_close(&beta, |t| loss(&Tensor::param(x.clone()), &Tensor::param(gamma.clone()), t), TOL);
        }
    }

    #[test]
    fn grad_composite_mlp(a in signed_values(6)) {
        // an end-to-end two-layer network gradient against FD
        let x = NdArray::from_vec(a, &[2, 3]);
        assert_gradients_close(&x, |t| {
            let w1 = Tensor::constant(NdArray::from_vec(
                (0..12).map(|i| ((i * 7 % 5) as f32 - 2.0) * 0.3).collect(), &[3, 4]));
            let w2 = Tensor::constant(NdArray::from_vec(
                (0..8).map(|i| ((i * 3 % 7) as f32 - 3.0) * 0.2).collect(), &[4, 2]));
            t.matmul(&w1).tanh().matmul(&w2).cross_entropy(&[0, 1])
        }, TOL);
    }
}
