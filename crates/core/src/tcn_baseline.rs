//! TCN \[13\]: the CNN-family baseline of Tabs. 6–7. Joints are flattened
//! into channels and the model is a stack of strided temporal
//! convolutions — no graph structure at all, which is exactly why the
//! GCN/DHGCN family beats it.

use crate::common::ModelDims;
use crate::tcn::TemporalConv;
use dhg_nn::{global_avg_pool, BatchNorm2d, Buffer, Linear, Module};
use dhg_tensor::Tensor;
use rand::Rng;

/// Interpretable temporal-convolution classifier over flattened joints.
pub struct TcnClassifier {
    input_bn: BatchNorm2d,
    layers: Vec<TemporalConv>,
    fc: Linear,
    dims: ModelDims,
}

impl TcnClassifier {
    /// Build with the given per-layer channel widths (stride 2 on every
    /// layer after the first, mirroring the published architecture's
    /// progressive downsampling).
    pub fn new(dims: ModelDims, widths: &[usize], dropout: f32, rng: &mut impl Rng) -> Self {
        assert!(!widths.is_empty(), "need at least one layer");
        let flat = dims.in_channels * dims.n_joints;
        let input_bn = BatchNorm2d::new(flat);
        let mut layers = Vec::with_capacity(widths.len());
        let mut in_ch = flat;
        for (i, &w) in widths.iter().enumerate() {
            let stride = if i == 0 { 1 } else { 2 };
            layers.push(TemporalConv::new(in_ch, w, stride, 1, dropout, rng));
            in_ch = w;
        }
        let fc = Linear::new(in_ch, dims.n_classes, rng);
        TcnClassifier { input_bn, layers, fc, dims }
    }

    /// The model geometry.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }
}

impl Module for TcnClassifier {
    fn forward(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "input must be [N, C, T, V]");
        let (n, c, t, v) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.dims.in_channels);
        assert_eq!(v, self.dims.n_joints);
        // [N, C, T, V] → [N, C·V, T, 1]
        let flat = x.permute(&[0, 1, 3, 2]).reshape(&[n, c * v, t, 1]);
        let mut h = self.input_bn.forward(&flat);
        for layer in &self.layers {
            h = layer.forward(&h).relu();
        }
        self.fc.forward(&global_avg_pool(&h))
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.input_bn.parameters();
        for l in &self.layers {
            ps.extend(l.parameters());
        }
        ps.extend(self.fc.parameters());
        ps
    }

    fn set_training(&mut self, training: bool) {
        self.input_bn.set_training(training);
        for l in &mut self.layers {
            l.set_training(training);
        }
    }

    fn buffers(&self) -> Vec<Buffer> {
        let mut bs = self.input_bn.buffers();
        for l in &self.layers {
            bs.extend(l.buffers());
        }
        bs
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{Dim, Plan, SymShape};
        let mut p = Plan::new(input);
        if !p.expect_nctv(self.dims.in_channels, self.dims.n_joints) || p.has_errors() {
            return p;
        }
        let flat = self.dims.in_channels * self.dims.n_joints;
        let flattened = SymShape(vec![input.at(0), Dim::Known(flat), input.at(2), Dim::Known(1)]);
        p.push_op("permute_reshape", format!("[N, C, T, V] -> [N, {flat}, T, 1]"), flattened);
        p.extend("input_bn", self.input_bn.plan(&p.output().clone()));
        for (i, l) in self.layers.iter().enumerate() {
            p.extend(&format!("layers[{i}]"), l.plan(&p.output().clone()));
            if p.has_errors() {
                return p;
            }
            p.push_op("relu", "", p.output().clone());
        }
        let channels = p.output().at(1);
        p.push_op("global_avg_pool", "mean over (T, V)", SymShape(vec![input.at(0), channels]));
        p.extend("fc", self.fc.plan(&p.output().clone()));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_tensor::NdArray;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = TcnClassifier::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 6 },
            &[32, 32],
            0.0,
            &mut rng,
        );
        let x = Tensor::constant(NdArray::ones(&[2, 3, 16, 25]));
        assert_eq!(m.forward(&x).shape(), vec![2, 6]);
    }

    #[test]
    fn all_parameters_train() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = TcnClassifier::new(
            ModelDims { in_channels: 3, n_joints: 18, n_classes: 4 },
            &[16],
            0.0,
            &mut rng,
        );
        let x = Tensor::constant(NdArray::ones(&[1, 3, 8, 18]));
        m.forward(&x).cross_entropy(&[0]).backward();
        assert!(m.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn no_joint_mixing_before_fc() {
        // TCN treats joints as independent channels: permuting the joint
        // order at the input only permutes channels, so a model with
        // identical per-channel weights can't tell — here we just verify
        // the architectural claim that the spatial axis is size 1 inside.
        let mut rng = StdRng::seed_from_u64(0);
        let m = TcnClassifier::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 },
            &[8, 8],
            0.0,
            &mut rng,
        );
        let x = Tensor::constant(NdArray::ones(&[1, 3, 16, 25]));
        let flat = x.permute(&[0, 1, 3, 2]).reshape(&[1, 75, 16, 1]);
        let h = m.layers[0].forward(&m.input_bn.forward(&flat));
        assert_eq!(h.shape()[3], 1);
    }
}
