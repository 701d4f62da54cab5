//! # dhg-nn
//!
//! Neural-network building blocks on top of [`dhg_tensor`]: layers with
//! trainable parameters, weight initialisation, the SGD optimiser and
//! learning-rate schedule from the paper's §4.2, losses and metrics.
//!
//! All layers implement [`Module`]: forward computation, parameter
//! collection for the optimiser, and a train/eval mode switch (BatchNorm
//! and Dropout behave differently between the two).

pub mod batchnorm;
pub mod conv;
pub mod dropout;
pub mod fault;
pub mod init;
pub mod linear;
pub mod lstm;
pub mod metrics;
pub mod module;
pub mod optim;
pub mod plan;
pub mod pool;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use fault::{FaultConfig, FaultPlan, FaultSite};
pub use linear::Linear;
pub use lstm::Lstm;
pub use metrics::{
    confusion_matrix, labeled, top_k_accuracy, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry,
};
pub use module::{collect_buffers, collect_parameters, Buffer, Module};
pub use optim::{Sgd, SgdConfig, StepLr};
pub use plan::{
    analyze, bn_stats_cold, packed_b_bytes, per_sample_elems, CostSummary, DiagCode, Diagnostic,
    Dim, OpCost, Plan, PlanOp, Report, Severity, SymShape,
};
pub use pool::global_avg_pool;
