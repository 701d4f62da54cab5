//! The two-stream joint–bone fusion framework (§3.5, after 2s-AGCN):
//! identical models are trained on the joint stream and the bone stream,
//! and their prediction scores are summed at test time (Tabs. 1 and 5).

use dhg_nn::{DiagCode, Module, Plan, SymShape};
use dhg_tensor::{NdArray, Tensor};

/// Sum two score matrices `[N, K]` (the paper's late fusion).
pub fn fuse_scores(joint_scores: &NdArray, bone_scores: &NdArray) -> NdArray {
    assert_eq!(joint_scores.shape(), bone_scores.shape(), "fusion shape mismatch");
    joint_scores.add(bone_scores)
}

/// A joint-stream model paired with a bone-stream model.
///
/// The harness trains each stream independently (as the paper does); this
/// wrapper evaluates them jointly.
pub struct TwoStream<M: Module> {
    /// Model trained on joint coordinates.
    pub joint: M,
    /// Model trained on bone vectors.
    pub bone: M,
}

impl<M: Module> TwoStream<M> {
    /// Pair two trained stream models.
    pub fn new(joint: M, bone: M) -> Self {
        TwoStream { joint, bone }
    }

    /// Fused scores for pre-built per-stream input batches.
    pub fn predict(&self, joint_batch: &Tensor, bone_batch: &Tensor) -> NdArray {
        let js = self.joint.forward(joint_batch).array();
        let bs = self.bone.forward(bone_batch).array();
        fuse_scores(&js, &bs)
    }

    /// Switch both streams between train and eval mode.
    pub fn set_training(&mut self, training: bool) {
        self.joint.set_training(training);
        self.bone.set_training(training);
    }

    /// Statically verify the late-fusion contract without running either
    /// stream: each per-stream plan must be clean, and both plans must
    /// produce the same score shape `[N, K]` — the condition
    /// [`fuse_scores`] asserts eagerly at test time.
    pub fn plan_fusion(&self, joint_input: &SymShape, bone_input: &SymShape) -> Plan {
        let mut p = Plan::new(joint_input);
        p.extend("joint", self.joint.plan(joint_input));
        let joint_out = p.output().clone();
        let bone_out = p.adopt("bone", &self.bone.plan(bone_input));
        if joint_out != bone_out {
            p.error(
                DiagCode::FusionMismatch,
                format!(
                    "fusion shape mismatch: joint stream produces {joint_out}, bone stream produces {bone_out}"
                ),
            );
        } else {
            p.push_op("fuse_scores", "joint + bone late fusion", joint_out);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(NdArray);
    impl Module for Fixed {
        fn forward(&self, _x: &Tensor) -> Tensor {
            Tensor::constant(self.0.clone())
        }
    }

    #[test]
    fn fusion_sums_scores() {
        let a = NdArray::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]);
        let b = NdArray::from_vec(vec![0.0, 3.0, 1.0, 1.0], &[2, 2]);
        assert_eq!(fuse_scores(&a, &b).data(), &[1.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn fusion_can_fix_a_single_stream_mistake() {
        // joint stream narrowly wrong, bone stream confident and right —
        // the fused prediction is right (the Tab. 5 mechanism)
        let joint = NdArray::from_vec(vec![0.55, 0.45], &[1, 2]); // predicts 0
        let bone = NdArray::from_vec(vec![0.10, 0.90], &[1, 2]); // predicts 1
        let fused = fuse_scores(&joint, &bone);
        assert_eq!(fused.argmax_last(), vec![1]);
    }

    #[test]
    fn two_stream_predicts_with_both_models() {
        let ts = TwoStream::new(
            Fixed(NdArray::from_vec(vec![1.0, 0.0], &[1, 2])),
            Fixed(NdArray::from_vec(vec![0.0, 2.0], &[1, 2])),
        );
        let dummy = Tensor::constant(NdArray::zeros(&[1, 1]));
        let scores = ts.predict(&dummy, &dummy);
        assert_eq!(scores.data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "fusion shape mismatch")]
    fn mismatched_fusion_panics() {
        fuse_scores(&NdArray::zeros(&[1, 2]), &NdArray::zeros(&[2, 2]));
    }
}
