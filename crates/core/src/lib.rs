//! # dhg-core
//!
//! The paper's contribution — **DHGCN**, the Dynamic Hypergraph
//! Convolutional Network for skeleton-based action recognition — together
//! with every baseline model its evaluation compares against.
//!
//! ## The model zoo
//!
//! | Module | Model | Role in the paper |
//! |---|---|---|
//! | [`dhgcn`] | DHGCN (10 DHST blocks, 3 spatial branches) | §3.5, Tabs. 3–8 |
//! | [`stgcn`] | ST-GCN \[37\] | first GCN baseline, Tabs. 6–7 |
//! | [`agcn`] | 2s-AGCN \[29\] and 2s-AHGCN | adaptive-graph baseline + the hypergraph swap of Tab. 1 |
//! | [`pbgcn`] | PB-GCN \[32\] and PB-HGCN | part-based ablation of Tab. 2 |
//! | [`shift_gcn`] | Shift-GCN \[3\] | strongest published rival in Tabs. 7–8 |
//! | [`tcn_baseline`] | TCN \[13\] | CNN-family baseline, Tabs. 6–7 |
//! | [`lstm_baseline`] | LSTM (ST-LSTM-like \[21\]) | RNN-family baseline, Tabs. 7–8 |
//! | [`lie_baseline`] | Lie-group features + linear \[34\] | hand-crafted baseline, Tab. 7 |
//! | [`two_stream`] | joint + bone score fusion | §3.5, Tabs. 1/4/5 |
//!
//! Every model implements [`dhg_nn::Module`] over `[N, 3, T, V]` input
//! batches and produces `[N, n_classes]` logits, so the training harness
//! in `dhg-train` treats them uniformly.

pub mod agcn;
pub mod common;
pub mod dhgcn;
pub mod lie_baseline;
pub mod lstm_baseline;
pub mod pbgcn;
pub mod shift_gcn;
pub mod stgcn;
pub mod tcn;
pub mod tcn_baseline;
pub mod two_stream;

pub use agcn::{Agcn, AgcnVariant};
pub use common::{apply_dynamic_vertex_op, apply_vertex_op, ModelDims};
pub use dhgcn::{BranchConfig, Dhgcn, DhgcnConfig, DhgcnLite, DhgcnLiteConfig, TopologyGranularity};
pub use lie_baseline::LieFeatureClassifier;
pub use lstm_baseline::LstmClassifier;
pub use pbgcn::{PartBasedModel, PartConv};
pub use shift_gcn::ShiftGcn;
pub use stgcn::StGcn;
pub use tcn::TemporalConv;
pub use tcn_baseline::TcnClassifier;
pub use two_stream::{fuse_scores, TwoStream};
