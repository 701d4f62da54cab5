//! # dhg-train
//!
//! Training, evaluation and experiment-reproduction harness.
//!
//! * [`trainer`] — minibatch SGD training of any [`dhg_nn::Module`] over a
//!   [`dhg_skeleton::SkeletonDataset`], with the paper's §4.2 recipe
//!   (SGD + momentum 0.9, step learning-rate decay) scaled to CPU budgets.
//! * [`eval`] — Top-1/Top-5 scoring under the §4.1 protocols, including
//!   two-stream fusion evaluation.
//! * [`experiment`] — table declarations: each `Table` pairs the paper's
//!   published rows with rows measured on the synthetic corpus and prints
//!   them side by side (the `dhg-bench` `tableN` binaries drive this).
//! * [`infer`] — [`InferenceSession`]: a model's eval-mode forward run
//!   grad-free, bundled with the scratch workspace its buffers recycle
//!   through.
//! * [`serve`] — [`ServeEngine`]: concurrent serving over inference
//!   sessions — bounded request queue with explicit load shedding,
//!   micro-batch coalescing, per-worker model replicas, latency/through-
//!   put metrics, and per-stream frame ingestion
//!   ([`ServeEngine::open_stream`]) that maps skeleton streams onto the
//!   same queue machinery.
//! * [`router`] — [`Router`]: multi-model, multi-tenant routing over
//!   per-model [`ServeEngine`]s — shared worker budget, per-tenant
//!   in-flight quotas with labeled metrics, and versioned hot-swap with
//!   checkpoint vetting (analyzer + plan-IR workspace budget).
//! * [`proto`] / [`net`] — the length-prefixed binary wire protocol and
//!   the std-only threaded TCP frontend + blocking [`NetClient`] that
//!   put the router on a socket.
//! * [`checkpoint`] — compact binary save/load of model parameters and
//!   BatchNorm running statistics.
//! * [`zoo`] — canonical constructors for every model in the comparison,
//!   so tables build models consistently.

pub mod checkpoint;
pub mod eval;
pub mod experiment;
pub mod infer;
pub mod json;
pub mod net;
pub mod proto;
pub mod report;
pub mod router;
pub mod serve;
pub mod trainer;
pub mod zoo;

pub use eval::{evaluate, evaluate_fused, EvalResult};
pub use net::{retry_backoff, ClientConfig, NetClient, NetConfig, NetError, NetServer};
pub use router::{
    zoo_specs, CanaryStatus, ModelSpec, RouteError, Router, RouterConfig, SwapError,
};
pub use experiment::{Table, TableRow};
pub use infer::InferenceSession;
pub use serve::{Pending, ServeConfig, ServeEngine, ServeError, ServeHealth, ServeMetrics};
pub use report::{classification_report, ClassificationReport};
pub use checkpoint::TrainState;
pub use trainer::{
    train, train_resumable, train_validated, ResumableConfig, TrainConfig, TrainError,
    TrainReport,
};
