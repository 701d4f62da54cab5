//! Differentiable operations on [`crate::Tensor`].
//!
//! Each submodule defines forward computation + a [`crate::autograd::Backward`]
//! implementation. All gradients are covered by finite-difference property
//! tests (`tests/gradcheck_props.rs`).

mod activation;
mod arith;
mod conv;
mod matmul;
mod norm;
mod reduce;
mod shape;
mod softmax;

pub use conv::Conv2dSpec;
