//! 2-D convolution layer (the workhorse of every skeleton model: pointwise
//! channel mixers and `k×1` temporal convolutions).

use crate::init;
use crate::module::Module;
use crate::plan::{DiagCode, Dim, OpCost, Plan, SymShape};
use dhg_tensor::ops::Conv2dSpec;
use dhg_tensor::{NdArray, Tensor};
use rand::Rng;

/// A convolution `[N, Cin, H, W] → [N, Cout, Ho, Wo]` with trainable
/// weight `[Cout, Cin, kh, kw]` and optional bias.
pub struct Conv2d {
    weight: Tensor,
    bias: Option<Tensor>,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl Conv2d {
    /// A new convolution with Kaiming-uniform weights and zero bias.
    pub fn new(in_channels: usize, out_channels: usize, spec: Conv2dSpec, rng: &mut impl Rng) -> Self {
        let shape = [out_channels, in_channels, spec.kernel.0, spec.kernel.1];
        let weight = Tensor::param(init::kaiming_uniform(&shape, init::conv_fan_in(&shape), rng));
        let bias = Some(Tensor::param(NdArray::zeros(&[out_channels])));
        Conv2d { weight, bias, spec, in_channels, out_channels }
    }

    /// A pointwise (`1×1`) convolution — the channel mixer used by every
    /// spatial graph/hypergraph convolution's Θ.
    pub fn pointwise(in_channels: usize, out_channels: usize, rng: &mut impl Rng) -> Self {
        Self::new(in_channels, out_channels, Conv2dSpec::pointwise(), rng)
    }

    /// A `k×1` temporal convolution with "same" output length at stride 1.
    pub fn temporal(
        in_channels: usize,
        out_channels: usize,
        kernel_t: usize,
        stride_t: usize,
        dilation_t: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(in_channels, out_channels, Conv2dSpec::temporal(kernel_t, stride_t, dilation_t), rng)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// The weight tensor `[Cout, Cin, kh, kw]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor `[Cout]`, if present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Tensor) -> Tensor {
        x.conv2d(&self.weight, self.bias.as_ref(), self.spec)
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
        if input.rank() != 4 {
            p.error(
                DiagCode::RankMismatch,
                format!("conv2d expects [N, Cin, H, W], got rank {} {input}", input.rank()),
            );
            return p;
        }
        if let Some(c) = input.known(1) {
            if c != self.in_channels {
                p.error(
                    DiagCode::ChannelMismatch,
                    format!("conv2d channel mismatch: weight expects {}, input has {c}", self.in_channels),
                );
                return p;
            }
        }
        let (kh, kw) = self.spec.kernel;
        let detail = format!(
            "{}x{} kernel {kh}x{kw} stride {:?} pad {:?} dil {:?}",
            self.in_channels, self.out_channels, self.spec.stride, self.spec.padding, self.spec.dilation
        );
        match (input.known(2), input.known(3)) {
            (Some(h), Some(w)) => {
                match dhg_tensor::check_conv_out_size(
                    h, w, kh, kw,
                    self.spec.stride.0, self.spec.stride.1,
                    self.spec.padding.0, self.spec.padding.1,
                    self.spec.dilation.0, self.spec.dilation.1,
                ) {
                    Ok((ho, wo)) => {
                        let out = SymShape(vec![
                            input.at(0),
                            Dim::Known(self.out_channels),
                            Dim::Known(ho),
                            Dim::Known(wo),
                        ]);
                        let cost = OpCost::conv2d(
                            self.in_channels as u64,
                            self.out_channels as u64,
                            &self.spec,
                            ho as u64,
                            wo as u64,
                        );
                        p.push_op_costed("conv2d", detail, out, cost);
                    }
                    // "conv input height {h} too small for kernel" — the
                    // exact text the eager path panics with
                    Err(e) => p.error(DiagCode::TemporalUnderflow, e.to_string()),
                }
            }
            _ => {
                // symbolic spatial extents: the output size can't be
                // computed, so record the channel change and flag it
                let out = input
                    .with_dim(1, Dim::Known(self.out_channels));
                p.push_op("conv2d", detail, out);
                p.warn(
                    DiagCode::UnplannedModule,
                    "conv2d over symbolic spatial extents; output size not verified",
                );
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pointwise_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::pointwise(3, 16, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[2, 3, 8, 25]));
        assert_eq!(c.forward(&x).shape(), vec![2, 16, 8, 25]);
        assert_eq!(c.n_parameters(), 16 * 3 + 16);
    }

    #[test]
    fn temporal_stride_halves_frames() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::temporal(4, 4, 3, 2, 1, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[1, 4, 16, 25]));
        assert_eq!(c.forward(&x).shape(), vec![1, 4, 8, 25]);
    }

    #[test]
    fn dilated_temporal_keeps_frames() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::temporal(4, 8, 3, 1, 3, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[1, 4, 20, 25]));
        assert_eq!(c.forward(&x).shape(), vec![1, 8, 20, 25]);
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::temporal(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[1, 2, 6, 4]));
        c.forward(&x).square().sum_all().backward();
        for p in c.parameters() {
            let g = p.grad().expect("parameter missing gradient");
            assert!(g.data().iter().any(|&v| v != 0.0));
        }
    }
}
