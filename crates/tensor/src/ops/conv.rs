//! 2-D convolution via `im2col` + batched matmul.
//!
//! The skeleton models use `[N, C, T, V]` tensors where `T` is time and `V`
//! is the joint dimension; temporal convolutions are `k×1` kernels over `T`
//! with optional stride and dilation, which this general implementation
//! covers.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

/// Geometry of a 2-D convolution: kernel, stride, padding, dilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Stride along height and width.
    pub stride: (usize, usize),
    /// Zero padding along height and width.
    pub padding: (usize, usize),
    /// Dilation along height and width.
    pub dilation: (usize, usize),
}

impl Conv2dSpec {
    /// A `k × 1` temporal convolution over `[N, C, T, V]` with "same"
    /// padding at stride 1 (the DHST temporal module; paper fixes `k = 3`).
    ///
    /// Panics on even `kernel_t`: the "same" padding `dilation·(k−1)/2` is
    /// only exact for odd kernels — an even kernel would silently shrink
    /// `T` by `dilation` every block, corrupting the temporal stream.
    pub fn temporal(kernel_t: usize, stride_t: usize, dilation_t: usize) -> Self {
        assert!(
            kernel_t % 2 == 1,
            "Conv2dSpec::temporal requires an odd kernel_t (got {kernel_t}): \
             'same' padding dilation*(k-1)/2 cannot preserve T for even kernels \
             (the paper fixes k = 3)"
        );
        let pad_t = dilation_t * (kernel_t - 1) / 2;
        Conv2dSpec {
            kernel: (kernel_t, 1),
            stride: (stride_t, 1),
            padding: (pad_t, 0),
            dilation: (dilation_t, 1),
        }
    }

    /// A pointwise `1 × 1` convolution.
    pub fn pointwise() -> Self {
        Conv2dSpec { kernel: (1, 1), stride: (1, 1), padding: (0, 0), dilation: (1, 1) }
    }

    /// Whether `im2col` under this geometry is a pure reshape (`1×1`
    /// kernel, unit stride, no padding): the `[N, C, H, W]` input already
    /// *is* its `[N, C, H·W]` column matrix, so no columns need building.
    pub fn columns_are_input(&self) -> bool {
        self.kernel == (1, 1) && self.stride == (1, 1) && self.padding == (0, 0)
    }

    /// Output spatial size for an input of height `h` and width `w`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        crate::array::conv_out_size(
            h,
            w,
            self.kernel.0,
            self.kernel.1,
            self.stride.0,
            self.stride.1,
            self.padding.0,
            self.padding.1,
            self.dilation.0,
            self.dilation.1,
        )
    }
}

struct Im2ColOp {
    spec: Conv2dSpec,
    in_shape: Vec<usize>,
}

impl Backward for Im2ColOp {
    fn backward(&self, g: NdArray, _ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let s = &self.spec;
        let (c, h, w) = (self.in_shape[1], self.in_shape[2], self.in_shape[3]);
        vec![Some(g.col2im(
            c, h, w, s.kernel.0, s.kernel.1, s.stride.0, s.stride.1, s.padding.0, s.padding.1,
            s.dilation.0, s.dilation.1,
        ))]
    }

    fn name(&self) -> &'static str {
        "im2col"
    }
}

impl Tensor {
    /// Unfold `[N, C, H, W]` into `[N, C·kh·kw, Ho·Wo]` columns. The
    /// gradient is the adjoint scatter-add (`col2im`).
    pub fn im2col(&self, spec: Conv2dSpec) -> Tensor {
        let in_shape = self.shape();
        assert_eq!(in_shape.len(), 4, "im2col expects [N, C, H, W]");
        let out = self.data().im2col(
            spec.kernel.0,
            spec.kernel.1,
            spec.stride.0,
            spec.stride.1,
            spec.padding.0,
            spec.padding.1,
            spec.dilation.0,
            spec.dilation.1,
        );
        Tensor::from_op(out, vec![self.clone()], Box::new(Im2ColOp { spec, in_shape }))
    }

    /// 2-D convolution: `self` is `[N, Cin, H, W]`, `weight` is
    /// `[Cout, Cin, kh, kw]`, optional `bias` is `[Cout]`. Returns
    /// `[N, Cout, Ho, Wo]`.
    ///
    /// Implemented as `im2col` + batched matmul so the gradient reuses the
    /// (independently verified) matmul and `col2im` adjoints.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let in_shape = self.shape();
        let w_shape = weight.shape();
        assert_eq!(in_shape.len(), 4, "conv2d input must be [N, Cin, H, W]");
        assert_eq!(w_shape.len(), 4, "conv2d weight must be [Cout, Cin, kh, kw]");
        assert_eq!(in_shape[1], w_shape[1], "conv2d channel mismatch");
        assert_eq!((w_shape[2], w_shape[3]), spec.kernel, "conv2d kernel/spec mismatch");
        let (n, cout) = (in_shape[0], w_shape[0]);
        let (ho, wo) = spec.out_size(in_shape[2], in_shape[3]);
        let ckk = w_shape[1] * w_shape[2] * w_shape[3];

        let cols = self.im2col(spec); // [N, CKK, L]
        let w2d = weight.reshape(&[cout, ckk]); // broadcast over batch
        let out = w2d.matmul(&cols); // [N, Cout, L]
        let out = out.reshape(&[n, cout, ho, wo]);
        match bias {
            Some(b) => {
                assert_eq!(b.shape(), vec![cout], "conv2d bias must be [Cout]");
                out.add(&b.reshape(&[1, cout, 1, 1]))
            }
            None => out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointwise_conv_is_channel_mixing() {
        // 1x1 conv with weight [[1,1]] sums the two input channels
        let x = Tensor::constant(NdArray::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        ));
        let w = Tensor::constant(NdArray::ones(&[1, 2, 1, 1]));
        let y = x.conv2d(&w, None, Conv2dSpec::pointwise());
        assert_eq!(y.shape(), vec![1, 1, 2, 2]);
        assert_eq!(y.array().data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn temporal_conv_same_padding_keeps_length() {
        let x = Tensor::constant(NdArray::ones(&[2, 3, 8, 25]));
        let w = Tensor::constant(NdArray::zeros(&[4, 3, 3, 1]));
        let y = x.conv2d(&w, None, Conv2dSpec::temporal(3, 1, 1));
        assert_eq!(y.shape(), vec![2, 4, 8, 25]);
        // dilation 2 also preserves length with "same" padding
        let y2 = x.conv2d(&w, None, Conv2dSpec::temporal(3, 1, 2));
        assert_eq!(y2.shape(), vec![2, 4, 8, 25]);
        // stride 2 halves it
        let y3 = x.conv2d(&w, None, Conv2dSpec::temporal(3, 2, 1));
        assert_eq!(y3.shape(), vec![2, 4, 4, 25]);
    }

    #[test]
    #[should_panic(expected = "odd kernel_t")]
    fn temporal_even_kernel_panics() {
        Conv2dSpec::temporal(4, 1, 1);
    }

    #[test]
    fn temporal_same_padding_preserves_t_across_dilations() {
        // the regression the padding bug would break: stride-1 "same"
        // temporal convs must keep T exactly, whatever the dilation
        let x = Tensor::constant(NdArray::ones(&[1, 2, 16, 5]));
        let w = Tensor::constant(NdArray::zeros(&[2, 2, 3, 1]));
        for dilation in 1..=4 {
            let spec = Conv2dSpec::temporal(3, 1, dilation);
            let y = x.conv2d(&w, None, spec);
            assert_eq!(y.shape(), vec![1, 2, 16, 5], "dilation {dilation} changed T");
        }
    }

    #[test]
    fn conv_known_values_3x1() {
        // single channel, T=4, V=1, kernel [1, 2, 3] along T, no padding
        let x = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4, 1]));
        let w = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[1, 1, 3, 1]));
        let spec = Conv2dSpec { kernel: (3, 1), stride: (1, 1), padding: (0, 0), dilation: (1, 1) };
        let y = x.conv2d(&w, None, spec);
        assert_eq!(y.shape(), vec![1, 1, 2, 1]);
        // y0 = 1*1+2*2+3*3 = 14; y1 = 1*2+2*3+3*4 = 20
        assert_eq!(y.array().data(), &[14.0, 20.0]);
    }

    #[test]
    fn conv_bias_broadcasts_per_channel() {
        let x = Tensor::constant(NdArray::zeros(&[1, 1, 2, 2]));
        let w = Tensor::constant(NdArray::zeros(&[3, 1, 1, 1]));
        let b = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let y = x.conv2d(&w, Some(&b), Conv2dSpec::pointwise()).array();
        assert_eq!(y.shape(), &[1, 3, 2, 2]);
        assert_eq!(&y.data()[0..4], &[1.0; 4]);
        assert_eq!(&y.data()[4..8], &[2.0; 4]);
        assert_eq!(&y.data()[8..12], &[3.0; 4]);
    }

    #[test]
    fn conv_weight_gradient_known_case() {
        // x all ones, so d loss/d w = count of output positions per tap
        let x = Tensor::constant(NdArray::ones(&[1, 1, 4, 4]));
        let w = Tensor::param(NdArray::zeros(&[1, 1, 3, 3]));
        let spec = Conv2dSpec { kernel: (3, 3), stride: (1, 1), padding: (0, 0), dilation: (1, 1) };
        let y = x.conv2d(&w, None, spec); // output 2x2
        y.sum_all().backward();
        let g = w.grad().unwrap();
        assert_eq!(g.shape(), &[1, 1, 3, 3]);
        assert_eq!(g.data(), &[4.0; 9]); // each tap sees 4 output positions
    }

    #[test]
    fn conv_input_gradient_known_case() {
        let x = Tensor::param(NdArray::zeros(&[1, 1, 3, 1]));
        let w = Tensor::constant(NdArray::from_vec(vec![1.0, 10.0, 100.0], &[1, 1, 3, 1]));
        let spec = Conv2dSpec::temporal(3, 1, 1); // same padding
        let y = x.conv2d(&w, None, spec);
        y.sum_all().backward();
        // dL/dx[i] = Σ_{t+k-1=i} w[k]; the middle position sees all taps
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[11.0, 111.0, 110.0]);
    }
}
