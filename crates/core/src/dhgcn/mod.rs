//! DHGCN — the Dynamic Hypergraph Convolutional Network (§3).
//!
//! The backbone is a stack of **DHST blocks** (Dynamic Hypergraph
//! Spatial-Temporal blocks, Fig. 5). Each block's spatial module sums
//! three branches:
//!
//! 1. **Static hypergraph** (§3.2) — the fixed six-hyperedge skeleton
//!    operator of Eq. 5.
//! 2. **Dynamic joint weight** (§3.3) — per-frame operators `Imp·Impᵀ`
//!    (Eq. 9) built from each joint's moving distance (Eq. 6–7).
//! 3. **Dynamic topology** (§3.4) — an FC embedding (Eq. 10) followed by
//!    `k_n`-NN and `k_m`-means hyperedge construction per sample (or per
//!    frame, as in the paper — configurable because per-frame is the
//!    dominant compute cost the paper's §5 laments).
//!
//! The spatial output feeds a dilated `3×1` temporal convolution; ten such
//! blocks, global average pooling and an FC classifier complete the model
//! (§3.5). Branch membership is configurable to reproduce the Tab. 4
//! ablation, and `(k_n, k_m)` to reproduce Tab. 3.

mod block;
mod branches;
mod lite;
mod model;

pub use block::DhstBlock;
pub use crate::common::StaticBranch;
pub use branches::{JointWeightBranch, TopologyBranch};
pub use lite::{DhgcnLite, DhgcnLiteConfig};
pub use model::{BranchConfig, Dhgcn, DhgcnConfig, TopologyGranularity};
