//! Serving entry point: a model in eval mode bundled with its reusable
//! scratch workspace.
//!
//! [`InferenceSession::new`] switches the model to eval mode, and every
//! call runs the model's one [`Module::forward`] under
//! [`dhg_tensor::no_grad`] with the session's [`Workspace`] installed on
//! the calling thread ([`Workspace::install`]): the kernels draw their
//! output buffers from it and dead intermediates go back to it, so
//! steady-state forward passes allocate (almost) nothing and build zero
//! autograd graph nodes.

use crate::eval::{self, EvalResult};
use dhg_nn::Module;
use dhg_skeleton::{SkeletonDataset, Stream};
use dhg_tensor::{NdArray, Tensor, Workspace};

/// A model in eval mode plus its scratch buffers.
pub struct InferenceSession<M: Module> {
    model: M,
    ws: Workspace,
}

impl<M: Module> InferenceSession<M> {
    /// Serve `model`: switch it to eval mode. Works for any [`Module`].
    pub fn new(mut model: M) -> Self {
        model.set_training(false);
        InferenceSession { model, ws: Workspace::new() }
    }

    /// Serve `model` as [`InferenceSession::new`] does, but first run the static analyzer
    /// ([`dhg_nn::analyze`]) over its plan at `input`: if any diagnostic
    /// is an error — shape breaks, invalid hypergraph incidence — the
    /// session is refused and the report returned instead. Warnings
    /// (e.g. cold BatchNorm statistics) are carried in the `Ok` report.
    pub fn analyzed(
        mut model: M,
        input: &dhg_nn::SymShape,
    ) -> Result<(Self, dhg_nn::Report), dhg_nn::Report> {
        model.set_training(false);
        let report = dhg_nn::analyze(&model.plan(input));
        if report.has_errors() {
            return Err(report);
        }
        Ok((InferenceSession { model, ws: Workspace::new() }, report))
    }

    /// The served model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The session's workspace: what its forwards hold between requests
    /// and the high water they reached.
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Raw class scores `[N, K]` for an input batch `[N, C, T, V]`: the
    /// eval-mode forward under `no_grad`, with the workspace installed.
    pub fn logits(&mut self, x: &Tensor) -> NdArray {
        serve_forward(&self.model, x, &mut self.ws)
    }

    /// Predicted class index per sample.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.logits(x).argmax_last()
    }

    /// Scores and labels over dataset indices (see [`eval::score`]).
    pub fn score(
        &mut self,
        dataset: &SkeletonDataset,
        indices: &[usize],
        stream: Stream,
        batch_size: usize,
    ) -> (NdArray, Vec<usize>) {
        eval::score_with(&self.model, dataset, indices, stream, batch_size, &mut self.ws)
    }

    /// Top-1/Top-5 accuracy over dataset indices.
    pub fn evaluate(
        &mut self,
        dataset: &SkeletonDataset,
        indices: &[usize],
        stream: Stream,
    ) -> EvalResult {
        eval::evaluate(&self.model, dataset, indices, stream)
    }

    /// Release the model, e.g. to resume training. The caller must switch
    /// it back with `set_training(true)` before further optimisation.
    pub fn into_model(self) -> M {
        self.model
    }
}

/// The one served forward: `model`'s [`Module::forward`] under
/// [`dhg_tensor::no_grad`] with `ws` installed on the calling thread.
/// The model should be in eval mode.
pub(crate) fn serve_forward(model: &dyn Module, x: &Tensor, ws: &mut Workspace) -> NdArray {
    ws.install(|| {
        let _guard = dhg_tensor::no_grad();
        model.forward(x).array()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_core::common::{ModelDims, StageSpec};
    use dhg_core::StGcn;
    use dhg_skeleton::SkeletonTopology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> StGcn {
        let mut rng = StdRng::seed_from_u64(11);
        StGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 5 },
            SkeletonTopology::ntu25().graph().normalized_adjacency(),
            &[StageSpec::new(8, 1)],
            0.0,
            &mut rng,
        )
    }

    #[test]
    fn session_is_the_no_grad_eval_forward_and_builds_no_graph() {
        let mut m = model();
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 3 * 8 * 25).map(|i| (i as f32 * 0.019).cos()).collect(),
            &[2, 3, 8, 25],
        ));
        m.forward(&x); // warm BN stats
        m.set_training(false);
        let reference = {
            let _g = dhg_tensor::no_grad();
            m.forward(&x).array()
        };
        let mut session = InferenceSession::new(m);
        for _ in 0..3 {
            // the workspace's recycled buffers never change a bit
            let before = dhg_tensor::graph_nodes_created();
            let got = session.logits(&x);
            assert_eq!(dhg_tensor::graph_nodes_created(), before, "serving built graph nodes");
            assert_eq!(got, reference, "serving logits diverged");
        }
        assert_eq!(session.predict(&x), reference.argmax_last());
        let ws = session.workspace();
        assert!(ws.pooled() > 0 && ws.high_water_bytes() > 0, "the forward drew from the workspace");
        assert_eq!(ws.live_bytes(), 0, "every buffer came back");
    }

    #[test]
    fn session_evaluates_datasets() {
        let d = SkeletonDataset::ntu60_like(5, 3, 8, 2);
        let indices: Vec<usize> = (0..d.len()).collect();
        let mut session = InferenceSession::new(model());
        let r = session.evaluate(&d, &indices, Stream::Joint);
        assert_eq!(r.n, indices.len());
        let (scores, labels) = session.score(&d, &indices, Stream::Joint, 4);
        assert_eq!(scores.shape(), &[indices.len(), 5]);
        assert_eq!(labels.len(), indices.len());
    }

    #[test]
    fn into_model_returns_the_served_model() {
        let session = InferenceSession::new(model());
        let m = session.into_model();
        assert!(m.n_parameters() > 0);
    }

    #[test]
    fn analyzed_session_accepts_a_warmed_model_and_refuses_bad_shapes() {
        use dhg_nn::SymShape;
        let m = model();
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 3 * 8 * 25).map(|i| (i as f32 * 0.019).cos()).collect(),
            &[2, 3, 8, 25],
        ));
        m.forward(&x); // warm BN stats
        let (mut session, report) =
            InferenceSession::analyzed(m, &SymShape::nctv(3, 8, 25)).expect("clean model");
        assert!(report.ok(), "{report}");
        assert_eq!(session.logits(&x).shape(), &[2, 5]);

        // a mis-shaped serving contract is refused outright
        let m2 = model();
        m2.forward(&x);
        let err = InferenceSession::analyzed(m2, &SymShape::nctv(4, 8, 25)).err().expect("refused");
        assert!(err.has_errors());
        assert!(!err.with_code(dhg_nn::DiagCode::ChannelMismatch).is_empty());
    }
}
