//! Batch normalisation over `[N, C, H, W]` feature maps.

use crate::module::{Buffer, Module};
use crate::plan::{bn_stats_cold, DiagCode, Plan, SymShape};
use dhg_tensor::{NdArray, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// BatchNorm2d: per-channel normalisation over the `(N, H, W)` axes with
/// trainable scale `γ` and shift `β`.
///
/// In training mode, batch statistics normalise the input and update
/// exponential running estimates; in eval mode the running estimates are
/// used as constants, in one pass ([`Tensor::batch_norm_eval`]).
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Buffer,
    running_var: Buffer,
    momentum: f32,
    eps: f32,
    training: bool,
    channels: usize,
}

impl BatchNorm2d {
    /// A new layer with `γ = 1`, `β = 0`, momentum 0.1 and eps 1e-5.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::param(NdArray::ones(&[channels])),
            beta: Tensor::param(NdArray::zeros(&[channels])),
            running_mean: Rc::new(RefCell::new(NdArray::zeros(&[channels]))),
            running_var: Rc::new(RefCell::new(NdArray::ones(&[channels]))),
            momentum: 0.1,
            eps: 1e-5,
            training: true,
            channels,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Whether the layer is in training mode (batch statistics).
    pub fn training(&self) -> bool {
        self.training
    }

    /// Whether the running statistics still hold their initialisation
    /// values (mean ≡ 0, var ≡ 1) — i.e. no training batch was ever folded
    /// in. Serving in eval mode with cold statistics normalises with
    /// made-up constants; the plan analyzer flags it as `bn-stats-cold`.
    pub fn stats_cold(&self) -> bool {
        bn_stats_cold(&self.running_mean.borrow(), &self.running_var.borrow())
    }

    /// The running mean estimate (eval-mode statistics).
    pub fn running_mean(&self) -> NdArray {
        self.running_mean.borrow().clone()
    }

    /// The running variance estimate.
    pub fn running_var(&self) -> NdArray {
        self.running_var.borrow().clone()
    }

    /// The trainable per-channel scale `γ`.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// The trainable per-channel shift `β`.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// The numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "BatchNorm2d expects [N, C, H, W]");
        assert_eq!(shape[1], self.channels, "BatchNorm2d channel mismatch");
        if self.training {
            let (y, mean, var) = x.batch_norm_train(&self.gamma, &self.beta, self.eps);
            // update running stats outside the graph; the batch itself is
            // normalised with the biased variance (standard BN), but the
            // running estimate used at eval time takes Bessel's correction
            // n/(n−1) over the N·H·W reduction count so it is an unbiased
            // estimator of the population variance
            let m = self.momentum;
            let count = (shape[0] * shape[2] * shape[3]) as f32;
            let bessel = if count > 1.0 { count / (count - 1.0) } else { 1.0 };
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            *rm = rm.mul_scalar(1.0 - m).add(&mean.mul_scalar(m));
            *rv = rv.mul_scalar(1.0 - m).add(&var.mul_scalar(m * bessel));
            y
        } else {
            let (rm, rv) = (self.running_mean.borrow(), self.running_var.borrow());
            x.batch_norm_eval(&self.gamma, &self.beta, &rm, &rv, self.eps)
        }
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<Buffer> {
        vec![Rc::clone(&self.running_mean), Rc::clone(&self.running_var)]
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn plan(&self, input: &SymShape) -> Plan {
        let mut p = Plan::new(input);
        if input.rank() != 4 {
            p.error(
                DiagCode::RankMismatch,
                format!("BatchNorm2d expects [N, C, H, W], got rank {} {input}", input.rank()),
            );
            return p;
        }
        if let Some(c) = input.known(1) {
            if c != self.channels {
                p.error(
                    DiagCode::ChannelMismatch,
                    format!("BatchNorm2d channel mismatch: layer has {}, input has {c}", self.channels),
                );
                return p;
            }
        }
        let mode = if self.training { "train (batch stats)" } else { "eval (running stats)" };
        p.push_op("batchnorm2d", format!("{} channels, {mode}", self.channels), input.clone());
        if !self.training && self.stats_cold() {
            p.warn(
                DiagCode::BnStatsCold,
                "eval-mode BatchNorm with untouched running statistics (mean=0, var=1); \
                 output will be normalised with initialisation constants",
            );
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalised() {
        let bn = BatchNorm2d::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::constant(random_uniform(&[4, 3, 5, 5], -3.0, 7.0, &mut rng));
        let y = bn.forward(&x).array();
        // per-channel mean ≈ 0, var ≈ 1
        let mean = y.mean_axes(&[0, 2, 3], false);
        let var = y
            .sub(&y.mean_axes(&[0, 2, 3], true))
            .map(|v| v * v)
            .mean_axes(&[0, 2, 3], false);
        for c in 0..3 {
            assert!(mean.data()[c].abs() < 1e-4, "mean[{c}] = {}", mean.data()[c]);
            assert!((var.data()[c] - 1.0).abs() < 1e-2, "var[{c}] = {}", var.data()[c]);
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        // feed many batches with mean 5 so running stats converge there
        for _ in 0..60 {
            let x = Tensor::constant(random_uniform(&[8, 2, 3, 3], 4.0, 6.0, &mut rng));
            bn.forward(&x);
        }
        assert!((bn.running_mean().data()[0] - 5.0).abs() < 0.3);
        bn.set_training(false);
        // a constant-5 input should map to ≈ 0 in eval mode
        let x = Tensor::constant(NdArray::full(&[2, 2, 3, 3], 5.0));
        let y = bn.forward(&x).array();
        assert!(y.data().iter().all(|v| v.abs() < 0.5), "{y:?}");
        // and eval mode must not touch the running stats
        let before = bn.running_mean();
        bn.forward(&x);
        assert_eq!(bn.running_mean(), before);
    }

    #[test]
    fn running_var_uses_bessel_correction() {
        // hand-computed case: x = [1, 2, 3, 4] as [N=2, C=1, H=1, W=2]
        // reduction count n = N·H·W = 4, mean = 2.5
        // biased var  = (1.5² + 0.5² + 0.5² + 1.5²)/4 = 1.25  (normalises the batch)
        // unbiased    = 5/4 · 4/3 = 5/3                        (feeds the running stat)
        let bn = BatchNorm2d::new(1);
        let x = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 1, 2]));
        let y = bn.forward(&x).array();
        // the batch itself is still normalised with the *biased* variance
        let denom = (1.25f32 + 1e-5).sqrt();
        for (got, xv) in y.data().iter().zip([1.0f32, 2.0, 3.0, 4.0]) {
            assert!((got - (xv - 2.5) / denom).abs() < 1e-6, "{got} vs {xv}");
        }
        // running stats start at (0, 1) with momentum 0.1:
        // rm = 0.9·0 + 0.1·2.5 = 0.25
        // rv = 0.9·1 + 0.1·(5/3) ≈ 1.0666667   (1.025 would be the biased bug)
        assert!((bn.running_mean().data()[0] - 0.25).abs() < 1e-6);
        assert!((bn.running_var().data()[0] - (0.9 + 0.1 * 5.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn single_element_reduction_skips_bessel() {
        // n = N·H·W = 1 would divide by zero; the update must fall back to
        // the biased estimate (which is 0 variance here) without NaN
        let bn = BatchNorm2d::new(1);
        let x = Tensor::constant(NdArray::from_vec(vec![3.0], &[1, 1, 1, 1]));
        bn.forward(&x);
        let rv = bn.running_var().data()[0];
        assert!(rv.is_finite(), "running_var became {rv}");
        assert!((rv - 0.9).abs() < 1e-6); // 0.9·1 + 0.1·0
    }

    /// The composed training BatchNorm — mean, sub, square, mean, add ε,
    /// sqrt, div, mul γ, add β — kept as the oracle the fused
    /// [`Tensor::batch_norm_train`] node is pinned against.
    fn composed_oracle(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let view = [1, gamma.shape()[0], 1, 1];
        let mean = x.mean_axes(&[0, 2, 3], true);
        let centred = x.sub(&mean);
        let var = centred.square().mean_axes(&[0, 2, 3], true);
        let xhat = centred.div(&var.add_scalar(eps).sqrt());
        xhat.mul(&gamma.reshape(&view)).add(&beta.reshape(&view))
    }

    /// Output and `(x, γ, β)` gradients of `Σ w ⊙ bn(x)` through the fused
    /// layer and through the oracle, with `x` a param or a constant.
    fn fused_and_oracle(shape: &[usize], x_grad: bool, seed: u64) -> [(Option<NdArray>, Option<NdArray>); 4] {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = shape[1];
        let x0 = random_uniform(shape, -3.0, 5.0, &mut rng);
        let w = Tensor::constant(random_uniform(shape, -1.0, 1.0, &mut rng));
        let g0 = random_uniform(&[c], 0.5, 1.5, &mut rng);
        let b0 = random_uniform(&[c], -0.5, 0.5, &mut rng);
        let leaf = |a: &NdArray| if x_grad { Tensor::param(a.clone()) } else { Tensor::constant(a.clone()) };
        let bn = BatchNorm2d::new(c);
        *bn.gamma().data_mut() = g0.clone();
        *bn.beta().data_mut() = b0.clone();
        let x = leaf(&x0);
        let fused = bn.forward(&x);
        fused.mul(&w).sum_all().backward();
        let (ox, og, ob) = (leaf(&x0), Tensor::param(g0), Tensor::param(b0));
        let oracle = composed_oracle(&ox, &og, &ob, bn.eps());
        oracle.mul(&w).sum_all().backward();
        [
            (Some(fused.array()), Some(oracle.array())),
            (x.grad(), ox.grad()),
            (bn.gamma().grad(), og.grad()),
            (bn.beta().grad(), ob.grad()),
        ]
    }

    #[test]
    fn fused_training_forward_matches_the_composed_oracle() {
        // [N, C, H, W], DataBn's folded [N, C·V, T, 1] with and without an
        // input gradient, and N·H·W = 1 (zero variance)
        let cases: [(&[usize], bool); 4] =
            [(&[4, 3, 5, 5], true), (&[2, 75, 8, 1], true), (&[2, 75, 8, 1], false), (&[1, 3, 1, 1], true)];
        for (i, (shape, x_grad)) in cases.into_iter().enumerate() {
            let names = ["y", "dx", "dgamma", "dbeta"];
            for (name, (got, want)) in names.iter().zip(fused_and_oracle(shape, x_grad, 40 + i as u64)) {
                assert_eq!(got.is_some(), want.is_some(), "{name} presence for {shape:?}");
                if let (Some(got), Some(want)) = (got, want) {
                    assert!(got.data().iter().all(|v| v.is_finite()), "{name} not finite for {shape:?}");
                    assert!(got.allclose(&want, 1e-5, 1e-5), "{name} for {shape:?}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn training_forward_is_one_graph_node() {
        let bn = BatchNorm2d::new(3);
        let mut rng = StdRng::seed_from_u64(5);
        for x in [
            Tensor::param(random_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng)),
            Tensor::constant(random_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng)),
        ] {
            let before = dhg_tensor::graph_nodes_created();
            bn.forward(&x);
            assert_eq!(dhg_tensor::graph_nodes_created() - before, 1);
        }
    }

    #[test]
    fn eval_forward_matches_the_composed_formula_in_one_node() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut bn = BatchNorm2d::new(3);
        for _ in 0..3 {
            bn.forward(&Tensor::constant(random_uniform(&[4, 3, 5, 5], -2.0, 3.0, &mut rng)));
        }
        bn.set_training(false);
        *bn.gamma().data_mut() = random_uniform(&[3], 0.5, 1.5, &mut rng);
        *bn.beta().data_mut() = random_uniform(&[3], -0.5, 0.5, &mut rng);
        let x = Tensor::param(random_uniform(&[2, 3, 4, 6], -3.0, 3.0, &mut rng));
        // (x − μ)/√(σ² + ε)·γ + β over the running statistics
        let view = [1, 3, 1, 1];
        let mean = Tensor::constant(bn.running_mean().reshape(&view));
        let var = Tensor::constant(bn.running_var().reshape(&view));
        let composed = x
            .sub(&mean)
            .div(&var.add_scalar(bn.eps()).sqrt())
            .mul(&bn.gamma().reshape(&view))
            .add(&bn.beta().reshape(&view));
        let before = dhg_tensor::graph_nodes_created();
        let y = bn.forward(&x);
        assert_eq!(dhg_tensor::graph_nodes_created() - before, 1, "one node");
        assert!(y.array().allclose(&composed.array(), 1e-5, 1e-5));
        let w = Tensor::constant(random_uniform(&[2, 3, 4, 6], -1.0, 1.0, &mut rng));
        y.mul(&w).sum_all().backward();
        let (dx, dg, db) = (x.grad().unwrap(), bn.gamma().grad().unwrap(), bn.beta().grad().unwrap());
        for p in [&x, bn.gamma(), bn.beta()] {
            p.zero_grad();
        }
        composed.mul(&w).sum_all().backward();
        assert!(dx.allclose(&x.grad().unwrap(), 1e-5, 1e-5), "dx");
        assert!(dg.allclose(&bn.gamma().grad().unwrap(), 1e-5, 1e-5), "dgamma");
        assert!(db.allclose(&bn.beta().grad().unwrap(), 1e-5, 1e-5), "dbeta");
    }

    #[test]
    fn gamma_beta_receive_gradients() {
        let bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::constant(random_uniform(&[3, 2, 4, 4], -1.0, 1.0, &mut rng));
        bn.forward(&x).square().sum_all().backward();
        for p in bn.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // gradient through the full composed normalisation
        use dhg_tensor::gradcheck::assert_gradients_close;
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_uniform(&[2, 2, 2, 2], -1.0, 1.0, &mut rng);
        assert_gradients_close(
            &x,
            |t| {
                let bn = BatchNorm2d::new(2);
                bn.forward(t).square().sum_all()
            },
            5e-2,
        );
    }
}
