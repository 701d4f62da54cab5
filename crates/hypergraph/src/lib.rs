//! # dhg-hypergraph
//!
//! Hypergraph structures and operators for the DHGCN reproduction.
//!
//! This crate owns everything the paper's §3.2–§3.4 need:
//!
//! * [`Hypergraph`] — vertex/hyperedge structure with weighted incidence,
//!   vertex degrees (Eq. 3), hyperedge degrees (Eq. 4) and the normalised
//!   hypergraph convolution operator
//!   `D_v^{-1/2} H W D_e^{-1} Hᵀ D_v^{-1/2}` (Eq. 5).
//! * [`Graph`] — the plain skeleton graph of GCN baselines with the
//!   normalised adjacency `D̃^{-1/2} Ã D̃^{-1/2}` (Eq. 1).
//! * [`knn`] — per-frame `k_n`-nearest-neighbour hyperedges ("common
//!   information", Eq. 11).
//! * [`kmeans`] — `k_m`-medoid cluster hyperedges ("global information",
//!   §3.4's iterative centroid update).
//! * [`dynamic`] — moving-distance joint weights (Eq. 6–7), the weighted
//!   incidence `Imp = W_all ∘ H` (Eq. 8) and its propagation operator
//!   `Imp·Impᵀ` (Eq. 9).
//! * [`topology`] — dynamic-topology construction: the union kNN ∪
//!   k-medoid operator of one coordinate set ([`from_scratch_operator`])
//!   and its per-sample or per-frame stacks for a batch.
//! * [`validate`] — static checks of the incidence invariants everything
//!   above relies on (binary `H`, full vertex coverage, non-singular
//!   degrees, normalised `Imp` columns), used by the model-plan analyzer.
//!
//! Operators are plain [`dhg_tensor::NdArray`]s: they enter model graphs as
//! constants while features flow through differentiable matmuls.

pub mod dynamic;
pub mod graph;
pub mod hypergraph;
pub mod kmeans;
pub mod knn;
pub mod topology;
pub mod validate;

pub use dynamic::{
    dynamic_operators, joint_weights, moving_distance, normalize_rows,
    weighted_incidence_operator,
};
pub use graph::Graph;
pub use hypergraph::Hypergraph;
pub use kmeans::kmeans_hyperedges;
pub use knn::knn_hyperedges;
pub use topology::{from_scratch_operator, stacked_operators, TopologyConfig, TopologyGranularity};
pub use validate::{validate_hypergraph, validate_imp, validate_incidence, IncidenceIssue};
