//! Bit-level fingerprints of every zoo model, for showing that a change
//! leaves what the models train and serve untouched.
//!
//! ```text
//! cargo run -p dhg-bench --bin fingerprint > before.txt   # on the parent
//! cargo run -p dhg-bench --bin fingerprint > after.txt    # on the change
//! diff before.txt after.txt
//! ```
//!
//! Each line is `<model> <configuration> <quantity> <fnv64>`, an FNV-64
//! over `f32::to_bits` or raw bytes of:
//!
//! * `checkpoint` — the checkpoint bytes of a freshly built model
//!   (parameter and buffer order, initial values);
//! * `plan.<mode>.<shape>` — the plan's ops, side ops, diagnostics and
//!   [`dhg_nn::CostSummary`] in training, cold-eval and prepared (eval
//!   mode after one warming forward) modes, at a valid input and at a
//!   wrong channel count, joint count and rank;
//! * `train.step<k>` — the loss, every gradient and the BatchNorm
//!   buffers of two SGD steps;
//! * `train.call` — every epoch loss and every parameter after one short
//!   [`dhg_train::train`] call (two epochs of three minibatches, drawn
//!   from the call's buffer pool);
//! * `logits.b<n>.t<k>` — `InferenceSession::logits` at batch `n` and
//!   `k` worker threads.
//!
//! The GEMM picks its AVX2 or portable kernel at run time, so outputs are
//! comparable only between builds run on one host.

use dhg_core::common::ModelDims;
use dhg_core::{BranchConfig, Dhgcn, DhgcnConfig, PartConv, TopologyGranularity};
use dhg_nn::{analyze, Module, Plan, Sgd, SgdConfig, SymShape};
use dhg_skeleton::{SkeletonDataset, SkeletonTopology, Stream};
use dhg_tensor::{NdArray, Tensor};
use dhg_train::zoo::Zoo;
use dhg_train::{InferenceSession, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frames of every input batch.
const FRAMES: usize = 8;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    fn floats(&mut self, data: &[f32]) {
        for v in data {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// Shape and bits of an array.
    fn array(&mut self, a: &NdArray) {
        self.text(&format!("{:?}", a.shape()));
        self.floats(a.data());
    }
}

/// One model configuration: a label and a constructor of fresh copies.
struct Config {
    model: String,
    config: String,
    joints: usize,
    build: Box<dyn Fn() -> Box<dyn Module>>,
}

/// Deterministic batch `[n, 3, FRAMES, v]`; `salt` varies the values.
fn batch(n: usize, v: usize, salt: usize) -> Tensor {
    Tensor::constant(NdArray::from_vec(
        (0..n * 3 * FRAMES * v).map(|i| ((i + 7 * salt) as f32 * 0.017).sin()).collect(),
        &[n, 3, FRAMES, v],
    ))
}

fn plan_hash(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    for op in plan.ops() {
        h.text(&format!("{}|{}|{}|{}|{:?}", op.name, op.detail, op.input, op.output, op.cost));
    }
    h.text("side");
    for op in plan.side_ops() {
        h.text(&format!("{}|{}|{}|{}|{:?}", op.name, op.detail, op.input, op.output, op.cost));
    }
    h.text("diagnostics");
    for d in plan.diagnostics() {
        h.text(&d.to_string());
    }
    h.text(&format!("{:?}", analyze(plan).cost_summary()));
    h.0
}

fn print(c: &Config, quantity: &str, hash: u64) {
    println!("{} {} {quantity} {hash:016x}", c.model, c.config);
}

fn fingerprint(c: &Config) {
    let v = c.joints;
    print(c, "checkpoint", {
        let mut h = Fnv::new();
        h.bytes(&dhg_train::checkpoint::save(&*(c.build)()));
        h.0
    });

    // plans: training, cold eval (untouched BN statistics) and prepared
    // (eval mode after one warming forward); malformed shapes on the last
    let train = (c.build)();
    let mut cold = (c.build)();
    cold.set_training(false);
    let mut prepared = (c.build)();
    prepared.forward(&batch(2, v, 0));
    prepared.set_training(false);
    let shapes = [
        ("valid", SymShape::nctv(3, FRAMES, v)),
        ("channel", SymShape::nctv(4, FRAMES, v)),
        ("joint", SymShape::nctv(3, FRAMES, v + 1)),
        ("rank", SymShape::batched(&[3, FRAMES])),
    ];
    for (mode, m) in [("train", &train), ("cold-eval", &cold), ("prepared", &prepared)] {
        for (label, shape) in &shapes {
            if mode != "prepared" && *label != "valid" {
                continue;
            }
            print(c, &format!("plan.{mode}.{label}"), plan_hash(&m.plan(shape)));
        }
    }

    // two SGD steps from a fresh model
    let m = (c.build)();
    let mut sgd = Sgd::new(m.parameters(), SgdConfig::default());
    for step in 0..2 {
        let mut h = Fnv::new();
        let loss = m.forward(&batch(2, v, step + 1)).cross_entropy(&[1, 3]);
        loss.backward();
        h.array(&loss.array());
        for p in m.parameters() {
            match p.grad() {
                Some(g) => h.array(&g),
                None => h.text("no-grad"),
            }
        }
        sgd.step();
        for b in m.buffers() {
            h.array(&b.borrow());
        }
        print(c, &format!("train.step{step}"), h.0);
    }

    // one short training call, as the table harness trains
    let corpus = if v == 25 {
        SkeletonDataset::ntu60_like(5, 2, FRAMES, 11)
    } else {
        SkeletonDataset::kinetics_like(5, 2, FRAMES, 11)
    };
    let config = TrainConfig {
        epochs: 2,
        batch_size: 4,
        sgd: SgdConfig::default(),
        lr_milestones: vec![1],
        seed: 7,
        verbose: false,
    };
    let mut m = (c.build)();
    let all: Vec<usize> = (0..corpus.len()).collect();
    let report = dhg_train::train(&mut *m, &corpus, &all, Stream::Joint, &config);
    print(c, "train.call", {
        let mut h = Fnv::new();
        h.floats(&report.epoch_losses);
        for p in m.parameters() {
            h.array(&p.data());
        }
        h.0
    });

    // served logits after one warming forward
    let warm = (c.build)();
    warm.forward(&batch(2, v, 9));
    let mut session = InferenceSession::new(warm);
    for n in [1, 3] {
        let x = batch(n, v, 5);
        for threads in [1, 2] {
            let logits = dhg_tensor::parallel::with_threads(threads, || session.logits(&x));
            let mut h = Fnv::new();
            h.array(&logits);
            print(c, &format!("logits.b{n}.t{threads}"), h.0);
        }
    }
}

fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    let topologies =
        [("ntu25", SkeletonTopology::ntu25()), ("openpose18", SkeletonTopology::openpose18())];
    type ZooOf = fn(SkeletonTopology, usize, u64) -> Zoo;
    let scales: [(&str, ZooOf); 2] = [("tiny", Zoo::tiny), ("new", Zoo::new)];
    for (topo_label, topology) in &topologies {
        for (scale, zoo_of) in scales {
            let zoo = zoo_of(topology.clone(), 5, 0);
            for name in Zoo::NAMES {
                let z = zoo.clone();
                out.push(Config {
                    model: name.replace(' ', "_"),
                    config: format!("{scale}/{topo_label}"),
                    joints: topology.n_joints(),
                    build: Box::new(move || z.by_name(name).expect("zoo name")),
                });
            }
        }
    }
    let ntu = SkeletonTopology::ntu25();
    for (scale, zoo_of) in scales {
        let zoo = zoo_of(ntu.clone(), 5, 0);
        for mode in [PartConv::Graph, PartConv::Hypergraph] {
            for parts in [2, 4, 6] {
                let z = zoo.clone();
                out.push(Config {
                    model: format!("{mode}-{parts}"),
                    config: format!("{scale}/ntu25"),
                    joints: 25,
                    build: Box::new(move || Box::new(z.part_based(parts, mode))),
                });
            }
        }
        for branches in [
            BranchConfig::no_static(),
            BranchConfig::no_joint_weight(),
            BranchConfig::no_topology(),
            BranchConfig::no_dynamic(),
        ] {
            let z = zoo.clone();
            out.push(Config {
                model: branches.label().to_string(),
                config: format!("{scale}/ntu25"),
                joints: 25,
                build: Box::new(move || Box::new(z.dhgcn_with(3, 4, branches))),
            });
        }
    }
    let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 5 };
    for (label, granularity) in
        [("per-sample", TopologyGranularity::PerSample), ("per-frame", TopologyGranularity::PerFrame)]
    {
        out.push(Config {
            model: "DHGCN-small".to_string(),
            config: format!("{label}/ntu25"),
            joints: 25,
            build: Box::new(move || {
                let mut config = DhgcnConfig::small(dims);
                config.granularity = granularity;
                let topology = SkeletonTopology::ntu25();
                Box::new(Dhgcn::for_topology(config, &topology, &mut StdRng::seed_from_u64(0)))
            }),
        });
    }
    out
}

fn main() {
    for c in configs() {
        fingerprint(&c);
    }
}
