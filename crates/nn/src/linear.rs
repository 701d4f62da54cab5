//! Fully connected layer.

use crate::init;
use crate::module::Module;
use crate::plan::{per_sample_elems, DiagCode, Dim, OpCost, Plan, SymShape};
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// A dense affine map `y = x W + b` with `W ∈ [in, out]`. Accepts inputs
/// of any rank; the last dimension must equal `in_features`.
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// A new layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight =
            Tensor::param(init::kaiming_uniform(&[in_features, out_features], in_features, rng));
        let bias = Some(Tensor::param(NdArray::zeros(&[out_features])));
        Linear { weight, bias, in_features, out_features }
    }

    /// A new layer without a bias term.
    pub fn new_no_bias(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let mut l = Self::new(in_features, out_features, rng);
        l.bias = None;
        l
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix `[in, out]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `[out]`, if present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }
}

impl Module for Linear {
    fn forward(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(
            *shape.last().expect("linear input must have rank >= 1"),
            self.in_features,
            "linear expected last dim {}, got {:?}",
            self.in_features,
            shape
        );
        // flatten leading dims to a matmul, then restore
        let rows: usize = shape[..shape.len() - 1].iter().product();
        let flat = x.reshape(&[rows, self.in_features]);
        let mut y = flat.matmul(&self.weight);
        if let Some(b) = &self.bias {
            y = y.add(b);
        }
        let mut out_shape = shape[..shape.len() - 1].to_vec();
        out_shape.push(self.out_features);
        y.reshape(&out_shape)
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }

    fn plan(&self, input: &SymShape) -> Plan {
        let mut p = Plan::new(input);
        if input.rank() == 0 {
            p.error(DiagCode::RankMismatch, "linear input must have rank >= 1");
            return p;
        }
        if let Some(last) = input.known(input.rank() - 1) {
            if last != self.in_features {
                p.error(
                    DiagCode::ShapeMismatch,
                    format!("linear expected last dim {}, got {input}", self.in_features),
                );
                return p;
            }
        }
        let out = input.with_dim(input.rank() - 1, Dim::Known(self.out_features));
        let rows = per_sample_elems(input) / self.in_features as u64;
        let cost = OpCost::linear(rows, self.in_features as u64, self.out_features as u64);
        p.push_op_costed("linear", format!("{} -> {}", self.in_features, self.out_features), out, cost);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(8, 3, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[5, 8]));
        assert_eq!(l.forward(&x).shape(), vec![5, 3]);
        // rank-3 input
        let x3 = Tensor::constant(NdArray::ones(&[2, 5, 8]));
        assert_eq!(l.forward(&x3).shape(), vec![2, 5, 3]);
    }

    #[test]
    fn parameters_and_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(4, 6, &mut rng);
        assert_eq!(l.parameters().len(), 2);
        assert_eq!(l.n_parameters(), 4 * 6 + 6);
        let nb = Linear::new_no_bias(4, 6, &mut rng);
        assert_eq!(nb.n_parameters(), 24);
    }

    #[test]
    fn gradient_flows_to_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(3, 2, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[4, 3]));
        let loss = l.forward(&x).square().sum_all();
        loss.backward();
        for p in l.parameters() {
            assert!(p.grad().is_some(), "missing grad on {:?}", p);
        }
    }

    #[test]
    fn grad_free_rows_keep_their_bits_beside_zero_rows() {
        // [x; 0; 0] is mostly zeros: a density-probed product would take
        // the zero-skip kernel for the batch and the packed one for x alone
        let mut rng = StdRng::seed_from_u64(4);
        let l = Linear::new(300, 10, &mut rng);
        let x: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut batch = x.clone();
        batch.resize(3 * 300, 0.0);
        let _g = dhg_tensor::no_grad();
        let alone = l.forward(&Tensor::constant(NdArray::from_vec(x, &[1, 300]))).array();
        let batched = l.forward(&Tensor::constant(NdArray::from_vec(batch, &[3, 300]))).array();
        assert_eq!(alone.data(), &batched.data()[..10]);
    }

    #[test]
    fn known_affine_map() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(2, 2, &mut rng);
        // overwrite weights with an identity and bias [1, 2]
        l.weight().data_mut().data_mut().copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        l.parameters()[1].data_mut().data_mut().copy_from_slice(&[1.0, 2.0]);
        let x = Tensor::constant(NdArray::from_vec(vec![3.0, 4.0], &[1, 2]));
        assert_eq!(l.forward(&x).array().data(), &[4.0, 6.0]);
    }
}
