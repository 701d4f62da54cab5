//! Canonical model constructors, so every table binary builds the
//! comparison models identically (same scaled backbone, same seeds).

use dhg_core::common::{small_stages, ModelDims, StageSpec};
use dhg_core::{
    Agcn, AgcnVariant, BranchConfig, Dhgcn, DhgcnConfig, DhgcnLite, DhgcnLiteConfig,
    LieFeatureClassifier, LstmClassifier, PartBasedModel, PartConv, ShiftGcn, StGcn,
    TcnClassifier,
};
use dhg_nn::Module;
use dhg_skeleton::{part_subsets, static_hypergraph, SkeletonTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared construction context for one dataset geometry.
#[derive(Clone, Debug)]
pub struct Zoo {
    /// Model geometry.
    pub dims: ModelDims,
    /// Skeleton topology of the dataset.
    pub topology: SkeletonTopology,
    /// Initialisation seed.
    pub seed: u64,
    /// Backbone stages used by every backbone model.
    pub stages: Vec<StageSpec>,
    /// Dropout inside temporal units.
    pub dropout: f32,
}

impl Zoo {
    /// CPU-scale zoo for a topology and class count. The default backbone
    /// (24-24-48 channels, one stride-2 stage) is the experiment-calibrated
    /// width; [`Zoo::tiny`] gives the narrower test-suite configuration.
    pub fn new(topology: SkeletonTopology, n_classes: usize, seed: u64) -> Self {
        let dims = ModelDims { in_channels: 3, n_joints: topology.n_joints(), n_classes };
        let stages =
            vec![StageSpec::new(24, 1), StageSpec::new(24, 1), StageSpec::new(48, 2)];
        Zoo { dims, topology, seed, stages, dropout: 0.05 }
    }

    /// A minimal-width zoo for fast unit tests.
    pub fn tiny(topology: SkeletonTopology, n_classes: usize, seed: u64) -> Self {
        let dims = ModelDims { in_channels: 3, n_joints: topology.n_joints(), n_classes };
        Zoo { dims, topology, seed, stages: small_stages(), dropout: 0.05 }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// ST-GCN \[37\] on the normalised bone-graph adjacency.
    pub fn stgcn(&self) -> StGcn {
        StGcn::new(
            self.dims,
            self.topology.graph().normalized_adjacency(),
            &self.stages,
            self.dropout,
            &mut self.rng(),
        )
    }

    /// One stream of 2s-AGCN \[29\].
    pub fn agcn(&self) -> Agcn {
        Agcn::new(
            self.dims,
            AgcnVariant::Graph,
            self.topology.graph().normalized_adjacency(),
            &self.stages,
            self.dropout,
            &mut self.rng(),
        )
    }

    /// One stream of 2s-AHGCN — AGCN with the static hypergraph base
    /// (Tab. 1).
    pub fn ahgcn(&self) -> Agcn {
        Agcn::new(
            self.dims,
            AgcnVariant::Hypergraph,
            static_hypergraph(&self.topology).operator(),
            &self.stages,
            self.dropout,
            &mut self.rng(),
        )
    }

    /// PB-GCN / PB-HGCN with the given part count (Tab. 2; NTU only).
    pub fn part_based(&self, n_parts: usize, mode: PartConv) -> PartBasedModel {
        let parts = part_subsets(&self.topology, n_parts);
        PartBasedModel::new(
            self.dims,
            &self.topology.graph(),
            &parts,
            mode,
            &self.stages,
            self.dropout,
            &mut self.rng(),
        )
    }

    /// DHGCN with explicit `(k_n, k_m)` and branch selection
    /// (Tabs. 3 and 4).
    pub fn dhgcn_with(&self, kn: usize, km: usize, branches: BranchConfig) -> Dhgcn {
        let mut config = DhgcnConfig::small(self.dims);
        config.stages = self.stages.clone();
        config.dropout = self.dropout;
        config.kn = kn;
        config.km = km;
        config.branches = branches;
        Dhgcn::for_topology(config, &self.topology, &mut self.rng())
    }

    /// The full DHGCN at the Tab. 3 optimum (`k_n = 3, k_m = 4`).
    pub fn dhgcn(&self) -> Dhgcn {
        self.dhgcn_with(3, 4, BranchConfig::full())
    }

    /// DHGCN-lite: the §5 efficiency extension (shared topology, fused
    /// operator, low-rank Θ).
    pub fn dhgcn_lite(&self) -> DhgcnLite {
        let mut config = DhgcnLiteConfig::new(self.dims);
        config.dropout = self.dropout;
        DhgcnLite::new(config, &self.topology, &mut self.rng())
    }

    /// Shift-GCN \[3\].
    pub fn shift_gcn(&self) -> ShiftGcn {
        ShiftGcn::new(self.dims, &self.stages, 8, self.dropout, &mut self.rng())
    }

    /// The TCN baseline \[13\].
    pub fn tcn(&self) -> TcnClassifier {
        // parameter parity with the backbone models
        let widths: Vec<usize> = self.stages.iter().map(|s| s.channels).collect();
        TcnClassifier::new(self.dims, &widths, self.dropout, &mut self.rng())
    }

    /// The LSTM baseline (ST-LSTM-like \[21\]).
    pub fn lstm(&self) -> LstmClassifier {
        LstmClassifier::new(self.dims, 32, &mut self.rng())
    }

    /// The hand-crafted Lie-group-style baseline \[34\].
    pub fn lie(&self) -> LieFeatureClassifier {
        LieFeatureClassifier::new(self.dims, self.topology.clone(), &mut self.rng())
    }

    /// Every name [`Zoo::by_name`] builds. Zoo-wide checks iterate this
    /// list, so a model added to `by_name` and here is covered by all of
    /// them.
    pub const NAMES: [&'static str; 9] = [
        "ST-GCN",
        "2s-AGCN",
        "2s-AHGCN",
        "Shift-GCN",
        "TCN",
        "ST-LSTM",
        "Lie Group",
        "DHGCN",
        "DHGCN-lite",
    ];

    /// Build by table row name — the registry used by Tabs. 6–8.
    pub fn by_name(&self, name: &str) -> Option<Box<dyn Module>> {
        Some(match name {
            "ST-GCN" => Box::new(self.stgcn()),
            "2s-AGCN" => Box::new(self.agcn()),
            "2s-AHGCN" => Box::new(self.ahgcn()),
            "Shift-GCN" => Box::new(self.shift_gcn()),
            "TCN" => Box::new(self.tcn()),
            "ST-LSTM" => Box::new(self.lstm()),
            "Lie Group" => Box::new(self.lie()),
            "DHGCN" => Box::new(self.dhgcn()),
            "DHGCN-lite" => Box::new(self.dhgcn_lite()),
            _ => return None,
        })
    }

    /// Build by table row name, ready for serving (see
    /// [`crate::InferenceSession`]).
    pub fn by_name_session(&self, name: &str) -> Option<crate::InferenceSession<Box<dyn Module>>> {
        Some(crate::InferenceSession::new(self.by_name(name)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_tensor::{NdArray, Tensor};

    #[test]
    fn every_named_model_builds_and_runs() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 3 * 8 * 25).map(|i| (i as f32 * 0.01).sin()).collect(),
            &[2, 3, 8, 25],
        ));
        for name in Zoo::NAMES {
            let m = zoo.by_name(name).unwrap_or_else(|| panic!("unknown model {name}"));
            let y = m.forward(&x);
            assert_eq!(y.shape(), vec![2, 4], "{name}");
        }
        assert!(zoo.by_name("NoSuchModel").is_none());
    }

    #[test]
    fn every_named_model_serves_through_a_session() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 3 * 8 * 25).map(|i| (i as f32 * 0.01).sin()).collect(),
            &[2, 3, 8, 25],
        ));
        for name in Zoo::NAMES {
            let mut session =
                zoo.by_name_session(name).unwrap_or_else(|| panic!("unknown model {name}"));
            let before = dhg_tensor::graph_nodes_created();
            let y = session.logits(&x);
            assert_eq!(
                dhg_tensor::graph_nodes_created(),
                before,
                "{name} built autograd graph nodes while serving"
            );
            assert_eq!(y.shape(), &[2, 4], "{name}");
            assert!(y.data().iter().all(|v| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn openpose_zoo_builds() {
        let zoo = Zoo::tiny(SkeletonTopology::openpose18(), 5, 1);
        let x = Tensor::constant(NdArray::ones(&[1, 3, 8, 18]));
        assert_eq!(zoo.dhgcn().forward(&x).shape(), vec![1, 5]);
        assert_eq!(zoo.stgcn().forward(&x).shape(), vec![1, 5]);
    }

    #[test]
    fn part_based_builds_all_settings() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 3, 2);
        for n in [2usize, 4, 6] {
            for mode in [PartConv::Graph, PartConv::Hypergraph] {
                let m = zoo.part_based(n, mode);
                assert_eq!(m.n_parts(), n);
            }
        }
    }

    #[test]
    fn identical_seeds_give_identical_models() {
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 3, 7);
        let a = zoo.stgcn();
        let b = zoo.stgcn();
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.array(), pb.array());
        }
    }
}
