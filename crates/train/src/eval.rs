//! Evaluation under the paper's protocols: Top-1/Top-5 scoring of single
//! streams and of the two-stream fusion.

use dhg_nn::{top_k_accuracy, Module};
use dhg_skeleton::{batch_samples, SkeletonDataset, SkeletonSample, Stream};
use dhg_tensor::{NdArray, Tensor, Workspace};

/// Accuracy summary of one evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f32,
    /// Top-5 accuracy in `[0, 1]` (equals Top-1 when fewer than five
    /// classes exist).
    pub top5: f32,
    /// Number of evaluated samples.
    pub n: usize,
}

impl EvalResult {
    /// Top-1 as a percentage.
    pub fn top1_pct(&self) -> f32 {
        self.top1 * 100.0
    }

    /// Top-5 as a percentage.
    pub fn top5_pct(&self) -> f32 {
        self.top5 * 100.0
    }
}

/// Raw scores of `model` over the given sample indices, in index order:
/// `([N, K] scores, labels)`. Uses a fresh [`Workspace`]; callers
/// scoring repeatedly should hold one and use [`score_with`].
pub fn score(
    model: &dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
    stream: Stream,
    batch_size: usize,
) -> (NdArray, Vec<usize>) {
    let mut ws = Workspace::new();
    score_with(model, dataset, indices, stream, batch_size, &mut ws)
}

/// [`score`] with a caller-provided scratch workspace.
///
/// Each batch runs the model's [`Module::forward`] under
/// [`dhg_tensor::no_grad`] with `ws` installed (see
/// [`crate::InferenceSession::logits`]): no autograd graph is retained
/// across batches, and the batch's intermediates recycle through `ws`.
/// The model should be in eval mode.
pub fn score_with(
    model: &dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
    stream: Stream,
    batch_size: usize,
    ws: &mut Workspace,
) -> (NdArray, Vec<usize>) {
    assert!(!indices.is_empty(), "empty evaluation split");
    // batch assembly (normalisation + stream transform) is pure data work
    // and shards over the worker pool; the forward passes stay on the
    // calling thread — autograd tensors are `Rc`-based and thread-confined
    // — but their hot kernels (matmul, im2col, dynamic operators) shard
    // internally, so evaluation still scales with DHGCN_THREADS
    let chunks: Vec<&[usize]> = indices.chunks(batch_size).collect();
    let sample_len = dataset.samples[indices[0]].data.data().len();
    let work = indices.len() * sample_len * 8;
    let batches = dhg_tensor::parallel::parallel_map(chunks.len(), work, |ci| {
        let refs: Vec<&SkeletonSample> =
            chunks[ci].iter().map(|&i| &dataset.samples[i]).collect();
        batch_samples(&refs, stream, &dataset.topology)
    });
    let mut score_chunks: Vec<NdArray> = Vec::with_capacity(chunks.len());
    let mut labels = Vec::with_capacity(indices.len());
    for (x, batch_labels) in batches {
        let x = Tensor::constant(x);
        score_chunks.push(crate::infer::serve_forward(model, &x, ws));
        labels.extend(batch_labels);
    }
    let refs: Vec<&NdArray> = score_chunks.iter().collect();
    (NdArray::concat(&refs, 0), labels)
}

/// Evaluate a single-stream model.
pub fn evaluate(
    model: &dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
    stream: Stream,
) -> EvalResult {
    let (scores, labels) = score(model, dataset, indices, stream, 32);
    result_from_scores(&scores, &labels, dataset.n_classes)
}

/// Evaluate the two-stream fusion: the joint model's and bone model's
/// scores are summed before ranking (§3.5).
pub fn evaluate_fused(
    joint_model: &dyn Module,
    bone_model: &dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
) -> EvalResult {
    let (js, labels) = score(joint_model, dataset, indices, Stream::Joint, 32);
    let (bs, _) = score(bone_model, dataset, indices, Stream::Bone, 32);
    let fused = dhg_core::fuse_scores(&js, &bs);
    result_from_scores(&fused, &labels, dataset.n_classes)
}

fn result_from_scores(scores: &NdArray, labels: &[usize], n_classes: usize) -> EvalResult {
    let top1 = top_k_accuracy(scores, labels, 1);
    let top5 = top_k_accuracy(scores, labels, 5.min(n_classes));
    EvalResult { top1, top5, n: labels.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_skeleton::SkeletonDataset;

    /// A fake model that always predicts the sample's own label by
    /// cheating through a closure — used to test the metric plumbing.
    struct Oracle {
        n_classes: usize,
        labels: Vec<usize>,
        cursor: std::cell::Cell<usize>,
    }

    impl Module for Oracle {
        fn forward(&self, x: &Tensor) -> Tensor {
            let n = x.shape()[0];
            let mut out = NdArray::zeros(&[n, self.n_classes]);
            for i in 0..n {
                let label = self.labels[self.cursor.get() + i];
                out.set(&[i, label], 10.0);
            }
            self.cursor.set(self.cursor.get() + n);
            Tensor::constant(out)
        }
    }

    #[test]
    fn oracle_scores_perfectly() {
        let d = SkeletonDataset::ntu60_like(4, 3, 8, 5);
        let indices: Vec<usize> = (0..d.len()).collect();
        let labels: Vec<usize> = d.samples.iter().map(|s| s.label).collect();
        let oracle = Oracle { n_classes: 4, labels, cursor: std::cell::Cell::new(0) };
        let r = evaluate(&oracle, &d, &indices, Stream::Joint);
        assert!((r.top1 - 1.0).abs() < 1e-6);
        assert!((r.top5 - 1.0).abs() < 1e-6);
        assert_eq!(r.n, 12);
        assert!((r.top1_pct() - 100.0).abs() < 1e-4);
    }

    #[test]
    fn fused_evaluation_runs() {
        let d = SkeletonDataset::ntu60_like(3, 2, 8, 6);
        let indices: Vec<usize> = (0..d.len()).collect();
        let labels: Vec<usize> = d.samples.iter().map(|s| s.label).collect();
        let j = Oracle { n_classes: 3, labels: labels.clone(), cursor: std::cell::Cell::new(0) };
        let b = Oracle { n_classes: 3, labels, cursor: std::cell::Cell::new(0) };
        let r = evaluate_fused(&j, &b, &d, &indices);
        assert!((r.top1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn evaluation_builds_no_autograd_graph() {
        // the former eval path called `forward` directly, retaining every
        // batch's full autograd graph until its scores were dropped; the
        // inference path must allocate zero graph nodes
        use dhg_core::common::ModelDims;
        use dhg_core::StGcn;
        use dhg_skeleton::SkeletonTopology;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let d = SkeletonDataset::ntu60_like(3, 3, 8, 2);
        let indices: Vec<usize> = (0..d.len()).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = StGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 3 },
            SkeletonTopology::ntu25().graph().normalized_adjacency(),
            &[dhg_core::common::StageSpec::new(8, 1)],
            0.0,
            &mut rng,
        );
        model.set_training(false);
        let before = dhg_tensor::graph_nodes_created();
        let first = score(&model, &d, &indices, Stream::Joint, 4);
        assert_eq!(
            dhg_tensor::graph_nodes_created(),
            before,
            "eval retained an autograd graph"
        );
        // a second pass through recycled workspace buffers scores the same bits
        assert_eq!(first, score(&model, &d, &indices, Stream::Joint, 4));
    }

    #[test]
    fn top5_caps_at_class_count() {
        // with 3 classes, top5 uses k = 3 and cannot panic
        let d = SkeletonDataset::ntu60_like(3, 2, 8, 7);
        let indices: Vec<usize> = (0..d.len()).collect();
        let labels = vec![0; d.len()];
        let m = Oracle { n_classes: 3, labels, cursor: std::cell::Cell::new(0) };
        let r = evaluate(&m, &d, &indices, Stream::Joint);
        assert!((r.top5 - 1.0).abs() < 1e-6);
    }
}
