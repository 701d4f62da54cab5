//! End-to-end learning tests: tiny models must actually learn the
//! synthetic task (loss decreases, accuracy far above chance), and the
//! two-stream machinery must hold its contract.

use dhgcn::prelude::*;
use dhgcn::train::eval::evaluate_fused;

fn tiny_dataset() -> SkeletonDataset {
    // 6 classes: the two phase-contrast pairs (hard) plus two single-limb
    // waves (easier) — a mixed-difficulty smoke-test task
    SkeletonDataset::ntu60_like(6, 16, 16, 99)
}

#[test]
fn dhgcn_learns_above_chance() {
    let dataset = tiny_dataset();
    let split = dataset.split(Protocol::Random { test_fraction: 0.25 }, 1);
    let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: dataset.n_classes };
    let mut model =
        Dhgcn::for_topology(DhgcnConfig::small(dims), &dataset.topology, &mut rand_seed(3));
    let report = train(&mut model, &dataset, &split.train, Stream::Joint, &TrainConfig::fast(12));
    assert!(report.improved(), "loss should decrease: {:?}", report.epoch_losses);
    let result = evaluate(&model, &dataset, &split.test, Stream::Joint);
    // chance = 1/6 ≈ 17%; require a decisive margin
    assert!(
        result.top1 > 0.35,
        "DHGCN should learn the 6-class toy task, got top1 = {}",
        result.top1
    );
}

#[test]
fn baselines_learn_too() {
    let dataset = tiny_dataset();
    let split = dataset.split(Protocol::Random { test_fraction: 0.25 }, 1);
    // experiment-width zoo: the narrow test zoo underfits GCNs badly
    let zoo = Zoo::new(dataset.topology.clone(), dataset.n_classes, 5);
    for name in ["TCN", "ST-GCN", "2s-AHGCN"] {
        let mut model = zoo.by_name(name).expect("zoo model");
        let report =
            train(model.as_mut(), &dataset, &split.train, Stream::Joint, &TrainConfig::fast(12));
        assert!(report.improved(), "{name} loss should decrease");
        let result = evaluate(model.as_ref(), &dataset, &split.test, Stream::Joint);
        assert!(result.top1 > 0.28, "{name} stuck at chance: top1 = {}", result.top1);
    }
}

#[test]
fn bone_stream_trains_and_fusion_is_consistent() {
    let dataset = tiny_dataset();
    let split = dataset.split(Protocol::Random { test_fraction: 0.25 }, 2);
    let zoo = Zoo::new(dataset.topology.clone(), dataset.n_classes, 4);
    let cfg = TrainConfig::fast(14);
    let mut joint: Box<dyn dhgcn::nn::Module> = Box::new(zoo.dhgcn());
    let mut bone: Box<dyn dhgcn::nn::Module> = Box::new(zoo.dhgcn());
    train(joint.as_mut(), &dataset, &split.train, Stream::Joint, &cfg);
    train(bone.as_mut(), &dataset, &split.train, Stream::Bone, &cfg);
    let j = evaluate(joint.as_ref(), &dataset, &split.test, Stream::Joint);
    let b = evaluate(bone.as_ref(), &dataset, &split.test, Stream::Bone);
    let f = evaluate_fused(joint.as_ref(), bone.as_ref(), &dataset, &split.test);
    // fusion is bounded sensibly: not worse than the weaker stream by a
    // wide margin, and all are above chance
    // the bone stream loses absolute position and is the weaker stream at
    // smoke-test scale (at experiment scale it reaches ~0.7, see Tab. 5)
    assert!(j.top1 > 0.25 && b.top1 > 0.19, "streams above chance: {j:?} {b:?}");
    assert!(f.top1 >= j.top1.min(b.top1) - 0.1, "fusion not catastrophically worse");
}

#[test]
fn training_is_deterministic_given_seeds() {
    let dataset = SkeletonDataset::ntu60_like(3, 6, 12, 17);
    let split = dataset.split(Protocol::Random { test_fraction: 0.3 }, 0);
    let run = || {
        let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 3 };
        let mut model =
            Dhgcn::for_topology(DhgcnConfig::small(dims), &dataset.topology, &mut rand_seed(9));
        let r = train(&mut model, &dataset, &split.train, Stream::Joint, &TrainConfig::fast(3));
        (r.epoch_losses, evaluate(&model, &dataset, &split.test, Stream::Joint).top1)
    };
    let (l1, a1) = run();
    let (l2, a2) = run();
    assert_eq!(l1, l2, "same seeds must give identical loss curves");
    assert_eq!(a1, a2);
}

#[test]
fn training_forward_builds_the_pinned_graph() {
    // Counted on the building thread: an unfused BatchNorm or convolution,
    // or a stray node, changes these numbers.
    use dhgcn::skeleton::{batch_samples, SkeletonSample};
    use dhgcn::tensor::graph_nodes_created;
    let dataset = SkeletonDataset::ntu60_like(4, 2, 32, 5);
    let refs: Vec<&SkeletonSample> = dataset.samples.iter().collect();
    let (x, labels) = batch_samples(&refs, Stream::Joint, &dataset.topology);
    let x = Tensor::constant(x);

    let bn = dhgcn::nn::BatchNorm2d::new(3);
    let before = graph_nodes_created();
    bn.forward(&x);
    assert_eq!(graph_nodes_created() - before, 1, "a training BatchNorm2d is one node");

    for conv in [
        dhgcn::nn::Conv2d::pointwise(3, 4, &mut rand_seed(0)),
        dhgcn::nn::Conv2d::temporal(3, 4, 3, 2, 2, &mut rand_seed(0)),
    ] {
        let before = graph_nodes_created();
        conv.forward(&x);
        assert_eq!(graph_nodes_created() - before, 1, "a biased Conv2d is one node");
    }

    let mut model = Zoo::new(dataset.topology.clone(), 60, 0).dhgcn();
    model.set_training(true);
    let before = graph_nodes_created();
    let _loss = model.forward(&x).cross_entropy(&labels);
    assert_eq!(graph_nodes_created() - before, 92, "Zoo::new DHGCN training forward + cross_entropy");
}

#[test]
fn eval_mode_survives_training_roundtrip() {
    // after train(), the model must be back in eval mode (deterministic)
    let dataset = SkeletonDataset::ntu60_like(3, 4, 12, 23);
    let split = dataset.split(Protocol::Random { test_fraction: 0.3 }, 0);
    let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 3 };
    let mut config = DhgcnConfig::small(dims);
    config.dropout = 0.4; // make non-determinism visible if training mode leaks
    let mut model = Dhgcn::for_topology(config, &dataset.topology, &mut rand_seed(6));
    train(&mut model, &dataset, &split.train, Stream::Joint, &TrainConfig::fast(2));
    let a = evaluate(&model, &dataset, &split.test, Stream::Joint);
    let b = evaluate(&model, &dataset, &split.test, Stream::Joint);
    assert_eq!(a, b, "evaluation must be deterministic after training");
}
