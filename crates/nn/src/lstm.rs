//! A long short-term memory layer, used by the RNN-family baselines in
//! Tabs. 7–8 (ST-LSTM \[21\] and relatives).

use crate::init;
use crate::module::Module;
use crate::plan::{packed_b_bytes, DiagCode, OpCost, Plan, SymShape};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// A single-layer LSTM over `[N, T, D]` sequences, returning the final
/// hidden state `[N, H]` from [`Module::forward`] (use
/// [`Lstm::forward_all`] for every step's hidden state).
pub struct Lstm {
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    input_size: usize,
    hidden_size: usize,
}

impl Lstm {
    /// A new LSTM with Xavier-initialised weights and the forget-gate bias
    /// set to 1 (the standard trick for gradient flow early in training).
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        let w_ih = Tensor::param(init::xavier_uniform(
            &[input_size, 4 * hidden_size],
            input_size,
            hidden_size,
            rng,
        ));
        let w_hh = Tensor::param(init::xavier_uniform(
            &[hidden_size, 4 * hidden_size],
            hidden_size,
            hidden_size,
            rng,
        ));
        let mut b = NdArray::zeros(&[4 * hidden_size]);
        // gate order: input, forget, cell, output — forget bias = 1
        for i in hidden_size..2 * hidden_size {
            b.data_mut()[i] = 1.0;
        }
        Lstm { w_ih, w_hh, bias: Tensor::param(b), input_size, hidden_size }
    }

    /// Hidden width `H`.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Run the recurrence and return each step's hidden state
    /// `[N, T, H]`.
    pub fn forward_all(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "LSTM expects [N, T, D]");
        assert_eq!(shape[2], self.input_size, "LSTM input width mismatch");
        let (n, t_len) = (shape[0], shape[1]);
        let h0 = Tensor::constant(NdArray::zeros(&[n, self.hidden_size]));
        let c0 = Tensor::constant(NdArray::zeros(&[n, self.hidden_size]));
        let (mut h, mut c) = (h0, c0);
        let hs = self.hidden_size;
        let mut outputs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let xt = x.slice_axis(1, t, 1).reshape(&[n, self.input_size]);
            let gates = xt.matmul(&self.w_ih).add(&h.matmul(&self.w_hh)).add(&self.bias);
            let i = gates.slice_axis(1, 0, hs).sigmoid();
            let f = gates.slice_axis(1, hs, hs).sigmoid();
            let g = gates.slice_axis(1, 2 * hs, hs).tanh();
            let o = gates.slice_axis(1, 3 * hs, hs).sigmoid();
            c = f.mul(&c).add(&i.mul(&g));
            h = o.mul(&c.tanh());
            outputs.push(h.reshape(&[n, 1, hs]));
        }
        let refs: Vec<&Tensor> = outputs.iter().collect();
        Tensor::concat(&refs, 1)
    }
}

impl Module for Lstm {
    /// Final hidden state `[N, H]`.
    fn forward(&self, x: &Tensor) -> Tensor {
        let all = self.forward_all(x);
        let t_len = all.shape()[1];
        let n = all.shape()[0];
        all.slice_axis(1, t_len - 1, 1).reshape(&[n, self.hidden_size])
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.w_ih.clone(), self.w_hh.clone(), self.bias.clone()]
    }

    fn plan(&self, input: &SymShape) -> Plan {
        let mut p = Plan::new(input);
        if input.rank() != 3 {
            p.error(
                DiagCode::RankMismatch,
                format!("LSTM expects [N, T, D], got rank {} {input}", input.rank()),
            );
            return p;
        }
        if let Some(d) = input.known(2) {
            if d != self.input_size {
                p.error(
                    DiagCode::ShapeMismatch,
                    format!("LSTM input width mismatch: layer expects {}, input has {d}", self.input_size),
                );
                return p;
            }
        }
        let out = SymShape(vec![input.at(0), crate::plan::Dim::Known(self.hidden_size)]);
        let t = input.known(1).unwrap_or(1) as u64;
        let (d, h) = (self.input_size as u64, self.hidden_size as u64);
        // per step: the two gate products, the gate sums and the
        // nonlinearities and state update; each step reads its input row
        // and hidden state and writes its gates, while the weights stay
        // resident as packed images, one product at a time
        let cost = OpCost {
            flops: t * (8 * h * (d + h) + 21 * h),
            bytes: 4 * t * (d + h + 4 * h),
            scratch: packed_b_bytes(d.max(h), 4 * h),
        };
        let detail = format!("{} -> {} (final hidden)", self.input_size, self.hidden_size);
        p.push_op_costed("lstm", detail, out, cost);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(6, 8, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[3, 5, 6]));
        assert_eq!(lstm.forward(&x).shape(), vec![3, 8]);
        assert_eq!(lstm.forward_all(&x).shape(), vec![3, 5, 8]);
        assert_eq!(lstm.n_parameters(), 6 * 32 + 8 * 32 + 32);
    }

    #[test]
    fn hidden_states_are_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(4, 4, &mut rng);
        let x = Tensor::constant(NdArray::full(&[2, 10, 4], 100.0));
        let h = lstm.forward(&x).array();
        assert!(h.data().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn gradients_flow_through_time() {
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = Lstm::new(3, 5, &mut rng);
        let x = Tensor::param(init::random_uniform(&[2, 7, 3], -1.0, 1.0, &mut rng));
        lstm.forward(&x).square().sum_all().backward();
        let g = x.grad().expect("input gradient missing");
        // the first timestep must receive gradient through the recurrence
        let first = g.slice_axis(1, 0, 1);
        assert!(first.data().iter().any(|&v| v.abs() > 0.0), "vanished entirely at t=0");
        for p in lstm.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn order_sensitivity() {
        // an LSTM must distinguish a sequence from its reverse
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(2, 4, &mut rng);
        let fwd: Vec<f32> = (0..12).map(|i| i as f32 / 6.0 - 1.0).collect();
        let mut rev_frames: Vec<f32> = Vec::new();
        for t in (0..6).rev() {
            rev_frames.extend_from_slice(&fwd[t * 2..(t + 1) * 2]);
        }
        let a = lstm.forward(&Tensor::constant(NdArray::from_vec(fwd, &[1, 6, 2]))).array();
        let b = lstm.forward(&Tensor::constant(NdArray::from_vec(rev_frames, &[1, 6, 2]))).array();
        assert!(!a.allclose(&b, 1e-3, 1e-3), "LSTM output should be order sensitive");
    }
}
