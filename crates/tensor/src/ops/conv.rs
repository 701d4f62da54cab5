//! 2-D convolution as one autograd node over the packed GEMM.
//!
//! The skeleton models use `[N, C, T, V]` tensors where `T` is time and `V`
//! is the joint dimension; temporal convolutions are `k×1` kernels over `T`
//! with optional stride and dilation, which this general implementation
//! covers, and every other convolution is a pointwise (`1×1`) channel
//! mixer.

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

/// The one autograd node of [`Tensor::conv2d`]. It keeps the im2col
/// columns of a convolution that needs them (`k×1`, strided or padded
/// kernels) for the weight gradient; a unit-stride `1×1` convolution keeps
/// nothing, because its columns are its input.
struct Conv2dOp {
    spec: Conv2dSpec,
    cols: Option<NdArray>,
}

impl Backward for Conv2dOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let x = ctx.parents[0].data();
        let w = ctx.parents[1].data();
        let (n, cout) = (g.shape()[0], g.shape()[1]);
        let l = g.shape()[2] * g.shape()[3];
        let w2d = [cout, w.shape()[1..].iter().product()];
        let cols_shape = [n, w2d[1], l];
        // db: g summed over every axis but the channel (the axes a
        // broadcast bias add would reduce)
        let db = ctx.parents.get(2).map(|b| {
            b.requires_grad().then(|| {
                let axes: Vec<usize> = [0, 2, 3].into_iter().filter(|&d| g.shape()[d] != 1).collect();
                g.sum_axes(&axes, true).into_shape(&[cout])
            })
        });
        let g = g.into_shape(&[n, cout, l]);
        // dW = Σ_n g·colsᵀ, the columns' transpose packed where it lies
        let dw = ctx.parents[1].requires_grad().then(|| {
            let cols = match &self.cols {
                Some(cols) => cols.view(),
                None => x.view_as(&cols_shape),
            };
            g.view().matmul(cols.t()).reduce_to_shape(&w2d).into_shape(w.shape())
        });
        // dx = Wᵀ·g, folded back onto the input unless the columns are it
        let dx = ctx.parents[0].requires_grad().then(|| {
            let dcols = w.view_as(&w2d).t().matmul(g.view());
            if self.cols.is_none() {
                return dcols.into_shape(x.shape());
            }
            let s = &self.spec;
            let (c, h, wd) = (x.shape()[1], x.shape()[2], x.shape()[3]);
            dcols.col2im(
                c, h, wd, s.kernel.0, s.kernel.1, s.stride.0, s.stride.1, s.padding.0, s.padding.1,
                s.dilation.0, s.dilation.1,
            )
        });
        let mut grads = vec![dx, dw];
        grads.extend(db);
        grads
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

impl Tensor {
    /// 2-D convolution: `self` is `[N, Cin, H, W]`, `weight` is
    /// `[Cout, Cin, kh, kw]`, optional `bias` is `[Cout]`. Returns
    /// `[N, Cout, Ho, Wo]`.
    ///
    /// One autograd node: the output is the packed product of the
    /// `[Cout, Cin·kh·kw]` weight with the im2col columns, read in place
    /// as a `[N, Cout, Ho, Wo]` array, with the bias added in place. A
    /// unit-stride `1×1` convolution multiplies the input itself, so it
    /// builds no columns and its input gradient folds nothing back.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let x = self.data();
        let w = weight.data();
        let (in_shape, w_shape) = (x.shape(), w.shape());
        assert_eq!(in_shape.len(), 4, "conv2d input must be [N, Cin, H, W]");
        assert_eq!(w_shape.len(), 4, "conv2d weight must be [Cout, Cin, kh, kw]");
        assert_eq!(in_shape[1], w_shape[1], "conv2d channel mismatch");
        assert_eq!((w_shape[2], w_shape[3]), spec.kernel, "conv2d kernel/spec mismatch");
        let (n, cout) = (in_shape[0], w_shape[0]);
        let (ho, wo) = spec.out_size(in_shape[2], in_shape[3]);
        let w2d = [cout, w_shape[1] * w_shape[2] * w_shape[3]];
        let cols_shape = [n, w2d[1], ho * wo];
        let s = &spec;
        let cols = (!s.columns_are_input()).then(|| {
            x.im2col(
                s.kernel.0, s.kernel.1, s.stride.0, s.stride.1, s.padding.0, s.padding.1,
                s.dilation.0, s.dilation.1,
            )
        });
        let cols_view = match &cols {
            Some(cols) => cols.view(),
            None => x.view_as(&cols_shape),
        };
        let mut out = w.view_as(&w2d).matmul(cols_view).into_shape(&[n, cout, ho, wo]);
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            assert_eq!(b.shape(), vec![cout], "conv2d bias must be [Cout]");
            out.add_channel_bias(b.data().data());
            parents.push(b.clone());
        }
        drop((x, w));
        Tensor::from_op(out, parents, Box::new(Conv2dOp { spec, cols }))
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
