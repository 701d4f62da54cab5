//! # dhg-tensor
//!
//! Dense `f32` n-dimensional arrays with reverse-mode automatic
//! differentiation, built for the DHGCN reproduction.
//!
//! The crate has two layers:
//!
//! * [`NdArray`] — a contiguous, row-major, `f32` n-d array with numpy-style
//!   broadcasting, batched matrix multiplication, reductions, shape
//!   manipulation and the `im2col`/`col2im` pair used by convolutions.
//! * [`Tensor`] — a reference-counted autograd node wrapping an [`NdArray`].
//!   Every differentiable operation eagerly computes its forward value and
//!   records a backward function; [`Tensor::backward`] runs reverse-mode
//!   differentiation over the recorded graph.
//!
//! Gradients of every op are validated against central finite differences by
//! the property tests in this crate (see [`gradcheck`]).
//!
//! ```
//! use dhg_tensor::{NdArray, Tensor};
//! let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]));
//! let y = x.mul(&x).sum_all(); // y = Σ x²
//! y.backward();
//! assert_eq!(x.grad().unwrap().data(), &[2.0, 4.0, 6.0]); // dy/dx = 2x
//! ```

pub mod array;
pub mod autograd;
pub mod gemm;
pub mod gradcheck;
pub mod ops;
pub mod parallel;
pub mod shape_check;
pub mod workspace;

pub use array::{ArrayView, NdArray};
pub use autograd::{graph_nodes_created, is_grad_enabled, no_grad, NoGradGuard, Tensor};
pub use shape_check::{check_conv_out_size, check_im2col, check_matmul, ShapeError};
pub use workspace::{Workspace, DEFAULT_BYTE_BUDGET};
