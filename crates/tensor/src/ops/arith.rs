//! Elementwise arithmetic with broadcasting, and scalar maps.

use crate::autograd::{Backward, BackwardCtx};
use crate::{NdArray, Tensor};

/// Binary elementwise ops. The gradient of a broadcast input is the output
/// gradient summed back down to the input's shape.
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
}

struct BinOp {
    kind: BinKind,
}

impl Backward for BinOp {
    fn backward(&self, g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let a = ctx.parents[0].data();
        let b = ctx.parents[1].data();
        // gb first: it only reads `g`, which ga may then take
        let gb = ctx.parents[1].requires_grad().then(|| {
            let gb = match self.kind {
                // a copy of `g` (in workspace storage), or its sum
                BinKind::Add => return g.reduced_to_shape(b.shape()),
                BinKind::Sub => g.mul_scalar(-1.0),
                BinKind::Mul => g.mul(&a),
                // d/db (a/b) = -a / b²
                BinKind::Div => g.mul(&a).mul_scalar(-1.0).div(&b).div(&b),
            };
            gb.reduce_to_shape(b.shape())
        });
        let ga = ctx.parents[0].requires_grad().then(|| match self.kind {
            BinKind::Add | BinKind::Sub => g,
            BinKind::Mul => g.mul(&b),
            BinKind::Div => g.div(&b),
        });
        vec![ga.map(|g| g.reduce_to_shape(a.shape())), gb]
    }

    fn name(&self) -> &'static str {
        match self.kind {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
        }
    }
}

/// Unary elementwise maps whose derivative is a simple function of the
/// input and/or output.
enum UnaryKind {
    Neg,
    AddScalar,
    MulScalar(f32),
    Sqrt,
    Exp,
    Ln,
    PowScalar(f32),
    Square,
}

struct UnaryOp {
    kind: UnaryKind,
}

impl Backward for UnaryOp {
    fn backward(&self, mut g: NdArray, ctx: &BackwardCtx<'_>) -> Vec<Option<NdArray>> {
        let x = ctx.parents[0].data();
        match self.kind {
            UnaryKind::Neg => g.map_inplace(|gv| -gv),
            UnaryKind::AddScalar => {}
            UnaryKind::MulScalar(s) => g.map_inplace(|gv| gv * s),
            // d sqrt(x) = 1 / (2 sqrt(x)) = 1 / (2 out)
            UnaryKind::Sqrt => g.zip_map_inplace(ctx.output, |gv, ov| gv * 0.5 / ov),
            UnaryKind::Exp => g.zip_map_inplace(ctx.output, |gv, ov| gv * ov),
            UnaryKind::Ln => g.zip_map_inplace(&x, |gv, xv| gv / xv),
            UnaryKind::PowScalar(p) => g.zip_map_inplace(&x, |gv, xv| gv * p * xv.powf(p - 1.0)),
            UnaryKind::Square => g.zip_map_inplace(&x, |gv, xv| 2.0 * xv * gv),
        }
        vec![Some(g)]
    }

    fn name(&self) -> &'static str {
        match self.kind {
            UnaryKind::Neg => "neg",
            UnaryKind::AddScalar => "add_scalar",
            UnaryKind::MulScalar(_) => "mul_scalar",
            UnaryKind::Sqrt => "sqrt",
            UnaryKind::Exp => "exp",
            UnaryKind::Ln => "ln",
            UnaryKind::PowScalar(_) => "pow_scalar",
            UnaryKind::Square => "square",
        }
    }
}

impl Tensor {
    /// Elementwise `self + other` with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let out = self.data().add(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Add }))
    }

    /// Elementwise `self - other` with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let out = self.data().sub(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Sub }))
    }

    /// Elementwise `self * other` with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let out = self.data().mul(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Mul }))
    }

    /// Elementwise `self / other` with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let out = self.data().div(&other.data());
        Tensor::from_op(out, vec![self.clone(), other.clone()], Box::new(BinOp { kind: BinKind::Div }))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        let out = self.data().mul_scalar(-1.0);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Neg }))
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let out = self.data().add_scalar(s);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::AddScalar }))
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let out = self.data().mul_scalar(s);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::MulScalar(s) }))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        let out = self.data().map(f32::sqrt);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Sqrt }))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let out = self.data().map(f32::exp);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Exp }))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        let out = self.data().map(f32::ln);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Ln }))
    }

    /// Elementwise power with a scalar exponent.
    pub fn pow_scalar(&self, p: f32) -> Tensor {
        let out = self.data().map(|v| v.powf(p));
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::PowScalar(p) }))
    }

    /// Elementwise square (`x * x` without a second graph edge).
    pub fn square(&self) -> Tensor {
        let out = self.data().map(|v| v * v);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryOp { kind: UnaryKind::Square }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::param(NdArray::from_vec(v, s))
    }

    #[test]
    fn add_broadcast_grad_reduces() {
        let a = p(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = p(vec![10.0, 20.0, 30.0], &[3]);
        let y = a.add(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0; 6]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0, 2.0]); // summed over rows
    }

    #[test]
    fn div_grads() {
        let a = p(vec![6.0], &[1]);
        let b = p(vec![2.0], &[1]);
        let y = a.div(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[0.5]); // 1/b
        assert_eq!(b.grad().unwrap().data(), &[-1.5]); // -a/b²
    }

    #[test]
    fn chain_of_unary_ops() {
        // y = ln(exp(x)) = x → dy/dx = 1
        let x = p(vec![0.3, 1.7], &[2]);
        let y = x.exp().ln().sum_all();
        y.backward();
        let g = x.grad().unwrap();
        assert!(g.allclose(&NdArray::ones(&[2]), 1e-4, 1e-5), "{g:?}");
    }

    #[test]
    fn sqrt_grad() {
        let x = p(vec![4.0], &[1]);
        let y = x.sqrt().sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.25]);
    }

    #[test]
    fn square_is_x_times_x_with_gradient_2x() {
        let v = vec![-1.75, -0.3, 0.0, 1e-3, 0.7, 2.5, 3.3e7, f32::MIN_POSITIVE];
        let x = p(v.clone(), &[8]);
        let sq = x.square();
        let bits = |a: &NdArray| a.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sq.array()), bits(&x.mul(&x).array()));
        sq.sum_all().backward();
        let twice: Vec<f32> = v.iter().map(|&xv| 2.0 * xv).collect();
        assert_eq!(bits(&x.grad().unwrap()), bits(&NdArray::from_vec(twice, &[8])));
    }

    #[test]
    fn pow_scalar_grad() {
        let x = p(vec![2.0], &[1]);
        let y = x.pow_scalar(3.0).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[12.0]); // 3x²
    }
}
