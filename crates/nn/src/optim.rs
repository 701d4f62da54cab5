//! Optimisation: SGD with momentum and the paper's step learning-rate
//! schedule (§4.2: SGD, momentum 0.9, lr 0.1 divided by 10 at fixed
//! epochs).

use dhg_tensor::{NdArray, Tensor};
use std::collections::HashMap;

/// Hyper-parameters of [`Sgd`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0.9 in the paper).
    pub momentum: f32,
    /// L2 weight decay added to gradients.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        // §4.2: SGD with momentum 0.9; initial lr 0.1
        SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 1e-4 }
    }
}

/// Stochastic gradient descent with classical momentum.
pub struct Sgd {
    params: Vec<Tensor>,
    config: SgdConfig,
    velocity: HashMap<u64, NdArray>,
}

impl Sgd {
    /// An optimiser over the given parameter tensors.
    pub fn new(params: Vec<Tensor>, config: SgdConfig) -> Self {
        Sgd { params, config, velocity: HashMap::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.config.lr
    }

    /// Set the learning rate (driven by [`StepLr`]).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Apply one update from the accumulated gradients, then clear them.
    /// Parameters without gradients (unused branches) are skipped.
    pub fn step(&mut self) {
        for p in &self.params {
            let Some(mut grad) = p.grad() else { continue };
            if self.config.weight_decay > 0.0 {
                grad.add_assign_scaled(&p.data(), self.config.weight_decay);
            }
            let v = self
                .velocity
                .entry(p.id())
                .or_insert_with(|| NdArray::zeros(grad.shape()));
            // v ← μ v + g;  p ← p − lr · v
            *v = v.mul_scalar(self.config.momentum);
            v.add_assign_scaled(&grad, 1.0);
            p.data_mut().add_assign_scaled(v, -self.config.lr);
            p.zero_grad();
        }
    }

    /// Clear all gradients without updating.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Snapshot the momentum buffers in parameter order, materialising a
    /// zero buffer for parameters that have never been stepped. With the
    /// parameters themselves, this is the complete optimiser state:
    /// restoring it via [`Sgd::load_velocities`] resumes training
    /// bitwise-identically.
    pub fn velocities(&self) -> Vec<NdArray> {
        self.params
            .iter()
            .map(|p| {
                self.velocity
                    .get(&p.id())
                    .cloned()
                    .unwrap_or_else(|| NdArray::zeros(p.data().shape()))
            })
            .collect()
    }

    /// Restore momentum buffers snapshotted by [`Sgd::velocities`] (same
    /// parameter order, shape-for-shape).
    ///
    /// # Panics
    /// If the count or any shape disagrees with the managed parameters.
    pub fn load_velocities(&mut self, velocities: Vec<NdArray>) {
        assert_eq!(
            velocities.len(),
            self.params.len(),
            "velocity count does not match parameter count"
        );
        self.velocity.clear();
        for (p, v) in self.params.iter().zip(velocities) {
            assert_eq!(
                v.shape(),
                p.data().shape(),
                "velocity shape does not match its parameter"
            );
            self.velocity.insert(p.id(), v);
        }
    }

    /// Number of managed parameter tensors.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }
}

/// The paper's step schedule: divide the learning rate by 10 at each
/// milestone epoch (§4.2: epochs 30/40 for NTU, 45/55 for Kinetics).
#[derive(Clone, Debug, PartialEq)]
pub struct StepLr {
    initial: f32,
    milestones: Vec<usize>,
    factor: f32,
}

impl StepLr {
    /// A schedule starting at `initial` and multiplying by `factor` at
    /// each milestone (pass `0.1` for "divide by 10").
    pub fn new(initial: f32, milestones: Vec<usize>, factor: f32) -> Self {
        StepLr { initial, milestones, factor }
    }

    /// The learning rate in force during `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.initial * self.factor.powi(passed as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_descends_a_quadratic() {
        let x = Tensor::param(NdArray::from_vec(vec![5.0], &[1]));
        let mut opt = Sgd::new(
            vec![x.clone()],
            SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 },
        );
        for _ in 0..50 {
            let loss = x.square().sum_all();
            loss.backward();
            opt.step();
        }
        assert!(x.data().data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| -> f32 {
            let x = Tensor::param(NdArray::from_vec(vec![5.0], &[1]));
            let mut opt = Sgd::new(
                vec![x.clone()],
                SgdConfig { lr: 0.01, momentum, weight_decay: 0.0 },
            );
            for _ in 0..40 {
                let loss = x.square().sum_all();
                loss.backward();
                opt.step();
            }
            let v = x.data().data()[0].abs();
            v
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster on a quadratic");
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient_signal() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0], &[1]));
        let mut opt = Sgd::new(
            vec![x.clone()],
            SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.5 },
        );
        // zero data gradient: loss does not involve x's value meaningfully
        let loss = x.mul_scalar(0.0).sum_all();
        loss.backward();
        opt.step();
        assert!(x.data().data()[0] < 1.0, "decay should shrink the weight");
    }

    #[test]
    fn step_skips_parameters_without_grads() {
        let used = Tensor::param(NdArray::from_vec(vec![1.0], &[1]));
        let unused = Tensor::param(NdArray::from_vec(vec![2.0], &[1]));
        let mut opt = Sgd::new(
            vec![used.clone(), unused.clone()],
            SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 },
        );
        used.square().sum_all().backward();
        opt.step();
        assert_eq!(unused.data().data(), &[2.0]);
        assert!(used.grad().is_none(), "grads cleared after step");
    }

    #[test]
    fn velocity_roundtrip_resumes_bitwise() {
        let config = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 };
        let step_once = |opt: &mut Sgd, x: &Tensor| {
            x.square().sum_all().backward();
            opt.step();
        };
        // reference: four uninterrupted steps
        let a = Tensor::param(NdArray::from_vec(vec![3.0, -2.0], &[2]));
        let mut opt_a = Sgd::new(vec![a.clone()], config);
        for _ in 0..4 {
            step_once(&mut opt_a, &a);
        }
        // resumed: two steps, snapshot, restore into a fresh optimiser
        let b = Tensor::param(NdArray::from_vec(vec![3.0, -2.0], &[2]));
        let mut opt_b = Sgd::new(vec![b.clone()], config);
        for _ in 0..2 {
            step_once(&mut opt_b, &b);
        }
        let snapshot = opt_b.velocities();
        assert_eq!(snapshot.len(), 1);
        let mut opt_b2 = Sgd::new(vec![b.clone()], config);
        opt_b2.load_velocities(snapshot);
        for _ in 0..2 {
            step_once(&mut opt_b2, &b);
        }
        assert_eq!(a.data().data(), b.data().data(), "resumed trajectory must be bitwise");
    }

    #[test]
    fn velocities_materialise_zeros_for_unstepped_parameters() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let opt = Sgd::new(vec![x], SgdConfig::default());
        let vs = opt.velocities();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0], NdArray::zeros(&[3]));
    }

    #[test]
    #[should_panic(expected = "velocity count")]
    fn load_velocities_rejects_count_mismatch() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0], &[1]));
        let mut opt = Sgd::new(vec![x], SgdConfig::default());
        opt.load_velocities(vec![]);
    }

    #[test]
    fn step_lr_follows_paper_schedule() {
        // NTU: decay at 30 and 40, train to 50 (§4.2)
        let s = StepLr::new(0.1, vec![30, 40], 0.1);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(29) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(30) - 0.01).abs() < 1e-7);
        assert!((s.lr_at(39) - 0.01).abs() < 1e-7);
        assert!((s.lr_at(40) - 0.001).abs() < 1e-8);
        assert!((s.lr_at(49) - 0.001).abs() < 1e-8);
    }
}
