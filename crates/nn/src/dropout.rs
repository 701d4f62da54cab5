//! Inverted dropout.

use crate::module::Module;
use crate::plan::{Plan, SymShape};
use dhg_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`; in eval mode the
/// layer is the identity.
pub struct Dropout {
    p: f32,
    training: bool,
    rng: RefCell<StdRng>,
}

impl Dropout {
    /// A new dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0, 1)");
        Dropout { p, training: true, rng: RefCell::new(StdRng::seed_from_u64(seed)) }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Module for Dropout {
    fn forward(&self, x: &Tensor) -> Tensor {
        if !self.training || self.p == 0.0 {
            return x.clone();
        }
        let shape = x.shape();
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut rng = self.rng.borrow_mut();
        let mask = NdArray::from_fn(&shape, |_| if rng.gen::<f32>() < keep { scale } else { 0.0 });
        let mask = Tensor::constant(mask);
        x.mul(&mask)
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn plan(&self, input: &SymShape) -> Plan {
        let mut p = Plan::new(input);
        let mode = if self.training && self.p > 0.0 { "mask" } else { "identity" };
        p.push_op("dropout", format!("p={} ({mode})", self.p), input.clone());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        d.set_training(false);
        let x = Tensor::constant(NdArray::ones(&[100]));
        assert_eq!(d.forward(&x).array(), NdArray::ones(&[100]));
    }

    #[test]
    fn training_preserves_expectation() {
        let d = Dropout::new(0.3, 1);
        let x = Tensor::constant(NdArray::ones(&[10_000]));
        let y = d.forward(&x).array();
        let mean = y.mean_all();
        assert!((mean - 1.0).abs() < 0.05, "expectation drifted: {mean}");
        // survivors carry the inverted scale
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let d = Dropout::new(0.0, 2);
        let x = Tensor::constant(NdArray::ones(&[8]));
        assert_eq!(d.forward(&x).array(), NdArray::ones(&[8]));
    }

    #[test]
    fn gradient_is_masked_like_the_output() {
        let d = Dropout::new(0.5, 3);
        let x = Tensor::param(NdArray::ones(&[64]));
        let y = d.forward(&x);
        let out = y.array();
        y.sum_all().backward();
        let g = x.grad().unwrap();
        for (gv, ov) in g.data().iter().zip(out.data()) {
            assert_eq!(*gv, *ov, "gradient must equal the applied mask scale");
        }
    }
}
