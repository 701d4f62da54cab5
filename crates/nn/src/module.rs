//! The [`Module`] trait: the common interface of all layers and models.

use crate::plan::{Plan, SymShape};
use dhg_tensor::{NdArray, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to a non-trainable state array (BatchNorm running
/// statistics). Buffers are serialised by checkpoints alongside the
/// parameters but are never touched by the optimiser.
pub type Buffer = Rc<RefCell<NdArray>>;

/// A trainable component: forward computation over a single input tensor,
/// parameter enumeration for the optimiser, and a train/eval switch.
///
/// Layers without parameters or mode-dependence accept the default no-op
/// implementations.
///
/// ## Execution modes
///
/// [`Module::forward`] is the one forward of a module. In training mode
/// it records autograd graph edges and uses batch statistics. In eval mode
/// (`set_training(false)`) under a [`dhg_tensor::no_grad`] guard it is the
/// serving path: zero graph nodes, running statistics, and every
/// activation-side product on the packed GEMM kernel, so a sample's
/// outputs do not depend on its batch neighbours.
pub trait Module {
    /// Compute the layer's output. Builds autograd graph edges whenever
    /// any involved tensor requires gradients.
    fn forward(&self, x: &Tensor) -> Tensor;

    /// All trainable parameter tensors, in a stable order.
    fn parameters(&self) -> Vec<Tensor> {
        Vec::new()
    }

    /// Non-trainable state buffers in a stable order (BatchNorm running
    /// statistics). Checkpoints persist these alongside parameters.
    fn buffers(&self) -> Vec<Buffer> {
        Vec::new()
    }

    /// Switch between training (true) and evaluation (false) behaviour.
    fn set_training(&mut self, _training: bool) {}

    /// Total number of scalar parameters.
    fn n_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.data().len()).sum()
    }

    /// Record the op-level [`Plan`] this module would execute for a
    /// symbolic `input` shape — **without running a forward pass**. The
    /// plan carries the shapes flowing between ops plus diagnostics for
    /// anything the static analyzer can prove wrong: shape
    /// incompatibilities (the same categories the eager path's asserts
    /// raise), cold BatchNorm statistics in eval mode, and broken
    /// hypergraph invariants.
    ///
    /// The default is an honest passthrough: shape unchanged plus an
    /// `unplanned-module` warning, so un-implemented modules can never be
    /// silently vouched for.
    fn plan(&self, input: &SymShape) -> Plan {
        Plan::unplanned(std::any::type_name::<Self>(), input)
    }
}

impl Module for Box<dyn Module> {
    fn forward(&self, x: &Tensor) -> Tensor {
        (**self).forward(x)
    }

    fn parameters(&self) -> Vec<Tensor> {
        (**self).parameters()
    }

    fn buffers(&self) -> Vec<Buffer> {
        (**self).buffers()
    }

    fn set_training(&mut self, training: bool) {
        (**self).set_training(training)
    }

    fn plan(&self, input: &SymShape) -> Plan {
        (**self).plan(input)
    }
}

/// Collect the parameters of many modules into one vector (stable order).
pub fn collect_parameters<'a>(modules: impl IntoIterator<Item = &'a dyn Module>) -> Vec<Tensor> {
    modules.into_iter().flat_map(|m| m.parameters()).collect()
}

/// Collect the buffers of many modules into one vector (stable order).
pub fn collect_buffers<'a>(modules: impl IntoIterator<Item = &'a dyn Module>) -> Vec<Buffer> {
    modules.into_iter().flat_map(|m| m.buffers()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_tensor::NdArray;

    struct Scale(Tensor);
    impl Module for Scale {
        fn forward(&self, x: &Tensor) -> Tensor {
            x.mul(&self.0)
        }
        fn parameters(&self) -> Vec<Tensor> {
            vec![self.0.clone()]
        }
    }

    #[test]
    fn default_impls_are_noop() {
        struct Identity;
        impl Module for Identity {
            fn forward(&self, x: &Tensor) -> Tensor {
                x.clone()
            }
        }
        let mut id = Identity;
        id.set_training(true);
        assert!(id.parameters().is_empty());
        assert_eq!(id.n_parameters(), 0);
    }

    #[test]
    fn collect_parameters_preserves_order() {
        let a = Scale(Tensor::param(NdArray::ones(&[2])));
        let b = Scale(Tensor::param(NdArray::ones(&[3])));
        let ps = collect_parameters([&a as &dyn Module, &b as &dyn Module]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].data().len(), 2);
        assert_eq!(ps[1].data().len(), 3);
        assert_eq!(a.n_parameters(), 2);
    }
}
