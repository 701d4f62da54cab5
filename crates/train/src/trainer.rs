//! Minibatch SGD training (§4.2, scaled to CPU budgets), with crash-safe
//! periodic checkpointing and exact resumption.
//!
//! ## Determinism and resumability
//!
//! Every epoch's minibatch order is derived from `(seed, epoch)` alone —
//! not from RNG state threaded across epochs — so epoch `e` shuffles the
//! same way whether the process ran straight through or restarted from a
//! snapshot. Together with the optimiser's momentum buffers
//! ([`dhg_nn::Sgd::velocities`]) and the model's parameters/BatchNorm
//! statistics, a [`crate::checkpoint::TrainState`] snapshot captures
//! everything the loop consumes: [`train_resumable`] restarted from a
//! snapshot reproduces the uninterrupted run's loss trajectory **bitwise**
//! from the resume epoch (asserted in `tests/chaos.rs`). The one
//! exception is active dropout, whose sampling state is not snapshotted —
//! resume remains correct but is no longer bitwise beyond the first
//! resumed batch.
//!
//! ## Robustness
//!
//! A non-finite guard wraps every minibatch: if the loss or any gradient
//! comes back NaN/Inf (numerical blow-up, or an injected
//! [`dhg_nn::fault::FaultSite::NonFiniteLoss`] chaos fault), the batch is
//! *skipped* — gradients cleared, no optimiser step — and counted in
//! [`TrainReport::skipped_batches`]. [`train_resumable`] turns a skip
//! budget overrun into a typed [`TrainError`] instead of training forever
//! on garbage. Snapshots are written crash-atomically
//! ([`crate::checkpoint::save_train_state_file`]); a save killed partway
//! leaves the previous snapshot intact, and resumption skips corrupt
//! snapshots (typed decode errors) down to the newest valid one.

use crate::checkpoint::{self, TrainState};
use crate::eval::EvalResult;
use dhg_nn::fault::{FaultPlan, FaultSite};
use dhg_nn::{Module, Sgd, SgdConfig, StepLr};
use dhg_skeleton::{batch_samples, SkeletonDataset, SkeletonSample, Stream};
use dhg_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Training hyper-parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size (the paper uses 16).
    pub batch_size: usize,
    /// Optimiser settings (paper: SGD, momentum 0.9, lr 0.1).
    pub sgd: SgdConfig,
    /// Epochs at which the learning rate is divided by 10 (paper: 30/40
    /// for NTU, 45/55 for Kinetics — scaled here with the epoch budget).
    pub lr_milestones: Vec<usize>,
    /// Shuffling / initialisation seed.
    pub seed: u64,
    /// Print a line per epoch.
    pub verbose: bool,
}

impl TrainConfig {
    /// The CPU-scale default used by the table harness: the paper's
    /// optimiser with the milestone pattern compressed into `epochs`.
    pub fn fast(epochs: usize) -> Self {
        let m1 = (epochs * 3) / 5;
        let m2 = (epochs * 4) / 5;
        TrainConfig {
            epochs,
            batch_size: 16,
            sgd: SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 1e-4 },
            lr_milestones: vec![m1.max(1), m2.max(2)],
            seed: 0x5EED,
            verbose: false,
        }
    }
}

/// Per-epoch telemetry from a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy per epoch (over stepped batches).
    pub epoch_losses: Vec<f32>,
    /// Training-set Top-1 accuracy of the final epoch's batches (cheap
    /// running estimate, not a re-evaluation).
    pub final_train_accuracy: f32,
    /// Minibatches dropped by the non-finite loss/gradient guard.
    pub skipped_batches: u64,
    /// Held-out accuracy after training, when a validation split was given
    /// (see [`train_validated`]); scored on the grad-free inference path.
    pub validation: Option<EvalResult>,
}

impl TrainReport {
    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Typed failures of the resumable training loop.
#[derive(Debug, PartialEq, Eq)]
pub enum TrainError {
    /// The non-finite guard skipped more minibatches than
    /// [`ResumableConfig::max_skipped_batches`] allows — the run is
    /// diverging, not training.
    NonFiniteBudget {
        /// Batches skipped so far.
        skipped: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The snapshot directory could not be created.
    Checkpoint(checkpoint::CheckpointError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteBudget { skipped, budget } => write!(
                f,
                "non-finite guard skipped {skipped} minibatch(es), budget is {budget}"
            ),
            TrainError::Checkpoint(e) => write!(f, "train-state checkpointing failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Knobs of [`train_resumable`] on top of the plain [`TrainConfig`].
#[derive(Clone, Debug)]
pub struct ResumableConfig {
    /// The underlying training recipe.
    pub train: TrainConfig,
    /// Write a [`TrainState`] snapshot every this many completed epochs
    /// (clamped to ≥ 1; the final epoch is always snapshotted).
    pub checkpoint_every: usize,
    /// Directory holding `train-state-epoch-NNNNN.ckpt` snapshots.
    pub dir: PathBuf,
    /// Abort with [`TrainError::NonFiniteBudget`] once the guard has
    /// skipped this many minibatches (`u64::MAX` = never abort).
    pub max_skipped_batches: u64,
    /// Fault plan consulted for injected non-finite losses and
    /// checkpoint-write failures (chaos testing); `None` injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl ResumableConfig {
    /// Defaults around a [`TrainConfig`]: snapshot every epoch into
    /// `dir`, never abort on skips, no fault injection.
    pub fn new(train: TrainConfig, dir: impl Into<PathBuf>) -> Self {
        ResumableConfig {
            train,
            checkpoint_every: 1,
            dir: dir.into(),
            max_skipped_batches: u64::MAX,
            faults: None,
        }
    }
}

/// The minibatch order for `epoch` — a pure function of `(seed, epoch)`,
/// so resumed runs shuffle identically to uninterrupted ones.
fn epoch_order(indices: &[usize], seed: u64, epoch: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(
        seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
    );
    let mut order = indices.to_vec();
    order.shuffle(&mut rng);
    order
}

/// What one epoch of the shared loop produced.
struct EpochOutcome {
    mean_loss: f32,
    skipped: u64,
    hits: usize,
    count: usize,
}

/// One full pass: shuffle (pure in `(seed, epoch)`), assemble minibatches
/// in parallel, run the fwd/bwd loop (sharded kernels) under the non-finite guard.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    model: &mut dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
    stream: Stream,
    config: &TrainConfig,
    optimizer: &mut Sgd,
    epoch: usize,
    track_accuracy: bool,
    faults: Option<&FaultPlan>,
) -> EpochOutcome {
    let order = epoch_order(indices, config.seed, epoch);
    let params = model.parameters();
    let mut loss_sum = 0.0f32;
    let mut batches = 0usize;
    let mut skipped = 0u64;
    let mut hits = 0usize;
    let mut count = 0usize;
    // pre-assemble the epoch's minibatches in parallel (pure data work);
    // the forward/backward loop below runs on this thread because the
    // autograd graph is `Rc`-based, but every kernel of a step that
    // touches a whole activation shards over this thread's worker pool
    let chunks: Vec<&[usize]> = order.chunks(config.batch_size).collect();
    let sample_len = dataset.samples[order[0]].data.data().len();
    let work = order.len() * sample_len * 8;
    let prepared = dhg_tensor::parallel::parallel_map(chunks.len(), work, |ci| {
        let refs: Vec<&SkeletonSample> =
            chunks[ci].iter().map(|&i| &dataset.samples[i]).collect();
        batch_samples(&refs, stream, &dataset.topology)
    });
    for (x, labels) in prepared {
        let input = Tensor::constant(x);
        let logits = model.forward(&input);
        let loss = logits.cross_entropy(&labels);
        let mut loss_value = loss.item();
        if let Some(plan) = faults {
            if plan.should_fire(FaultSite::NonFiniteLoss) {
                loss_value = f32::NAN;
            }
        }
        // guard 1: a non-finite loss would poison every parameter
        if !loss_value.is_finite() {
            skipped += 1;
            optimizer.zero_grad();
            continue;
        }
        loss.backward();
        // guard 2: a finite loss can still backprop into non-finite
        // gradients (overflow in intermediate products)
        let grads_finite = params.iter().all(|p| {
            p.grad().is_none_or(|g| g.data().iter().all(|v| v.is_finite()))
        });
        if !grads_finite {
            skipped += 1;
            optimizer.zero_grad();
            continue;
        }
        loss_sum += loss_value;
        batches += 1;
        if track_accuracy {
            let preds = logits.data().argmax_last();
            hits += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
            count += labels.len();
        }
        optimizer.step();
    }
    EpochOutcome { mean_loss: loss_sum / batches.max(1) as f32, skipped, hits, count }
}

/// Train `model` on the given sample indices of `dataset`, reading the
/// requested input [`Stream`]. Deterministic in `config.seed`; the
/// non-finite guard is active (see [`TrainReport::skipped_batches`]) but
/// has no abort budget — use [`train_resumable`] for that.
pub fn train(
    model: &mut dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
    stream: Stream,
    config: &TrainConfig,
) -> TrainReport {
    assert!(!indices.is_empty(), "empty training split");
    let mut optimizer = Sgd::new(model.parameters(), config.sgd);
    let schedule = StepLr::new(config.sgd.lr, config.lr_milestones.clone(), 0.1);
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut skipped = 0u64;
    let mut final_hits = 0usize;
    let mut final_count = 0usize;
    model.set_training(true);

    for epoch in 0..config.epochs {
        optimizer.set_lr(schedule.lr_at(epoch));
        let last_epoch = epoch + 1 == config.epochs;
        let outcome = run_epoch(
            model, dataset, indices, stream, config, &mut optimizer, epoch, last_epoch, None,
        );
        epoch_losses.push(outcome.mean_loss);
        skipped += outcome.skipped;
        if last_epoch {
            final_hits = outcome.hits;
            final_count = outcome.count;
        }
        if config.verbose {
            eprintln!(
                "epoch {:>3}/{}: lr={:.4} loss={:.4}",
                epoch + 1,
                config.epochs,
                schedule.lr_at(epoch),
                outcome.mean_loss
            );
        }
    }
    model.set_training(false);
    TrainReport {
        epoch_losses,
        final_train_accuracy: if final_count > 0 {
            final_hits as f32 / final_count as f32
        } else {
            0.0
        },
        skipped_batches: skipped,
        validation: None,
    }
}

/// Snapshot path for the state after `epochs_done` completed epochs.
fn snapshot_path(dir: &Path, epochs_done: usize) -> PathBuf {
    dir.join(format!("train-state-epoch-{epochs_done:05}.ckpt"))
}

/// All `train-state-epoch-NNNNN.ckpt` files in `dir`, ascending by epoch.
fn list_snapshots(dir: &Path) -> Vec<(usize, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut found: Vec<(usize, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let epoch = name
                .strip_prefix("train-state-epoch-")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()?;
            Some((epoch, entry.path()))
        })
        .collect();
    found.sort();
    found
}

/// [`train`] with crash-safe progress: a [`TrainState`] snapshot is
/// written crash-atomically every [`ResumableConfig::checkpoint_every`]
/// epochs, and a fresh call resumes from the newest *valid* snapshot in
/// [`ResumableConfig::dir`] — corrupt snapshots (torn writes, bad magic,
/// shape drift) are skipped typed, down to training from scratch if none
/// decode. Because the shuffle is a pure function of `(seed, epoch)` and
/// the optimiser's momentum rides in the snapshot, the resumed loss
/// trajectory is bitwise-identical to an uninterrupted run from the
/// resume epoch (dropout excepted; see the module docs).
///
/// A snapshot write that fails (disk error, or an injected
/// [`dhg_nn::fault::FaultSite::CheckpointIo`] fault) does **not** abort
/// training: the previous snapshot is still intact, which is the point
/// of writing them atomically.
pub fn train_resumable(
    model: &mut dyn Module,
    dataset: &SkeletonDataset,
    indices: &[usize],
    stream: Stream,
    rcfg: &ResumableConfig,
) -> Result<TrainReport, TrainError> {
    assert!(!indices.is_empty(), "empty training split");
    let config = &rcfg.train;
    std::fs::create_dir_all(&rcfg.dir).map_err(|e| {
        TrainError::Checkpoint(checkpoint::CheckpointError::Io {
            path: rcfg.dir.display().to_string(),
            kind: e.kind(),
        })
    })?;
    let mut optimizer = Sgd::new(model.parameters(), config.sgd);
    let schedule = StepLr::new(config.sgd.lr, config.lr_milestones.clone(), 0.1);
    let faults = rcfg.faults.as_deref();

    // resume from the newest snapshot that decodes; a corrupt one may
    // have partially overwritten the model before erroring, so keep a
    // pristine copy to restore between attempts
    let params = model.parameters();
    let buffers = model.buffers();
    let param_backup: Vec<_> = params.iter().map(|p| p.data().clone()).collect();
    let buffer_backup: Vec<_> = buffers.iter().map(|b| b.borrow().clone()).collect();
    let mut start_epoch = 0usize;
    let mut epoch_losses: Vec<f32> = Vec::new();
    let mut skipped = 0u64;
    for (_, path) in list_snapshots(&rcfg.dir).into_iter().rev() {
        match checkpoint::load_train_state_file(model, &path) {
            Ok(state) => {
                optimizer.load_velocities(state.velocities);
                start_epoch = state.epochs_done;
                epoch_losses = state.epoch_losses;
                skipped = state.skipped_batches;
                if config.verbose {
                    eprintln!("resuming after epoch {start_epoch} from {}", path.display());
                }
                break;
            }
            Err(why) => {
                // typed decode failure: restore the pristine model and
                // fall through to the next-newest snapshot
                if config.verbose {
                    eprintln!("skipping corrupt snapshot {}: {why}", path.display());
                }
                for (p, backup) in params.iter().zip(&param_backup) {
                    *p.data_mut() = backup.clone();
                }
                for (b, backup) in buffers.iter().zip(&buffer_backup) {
                    *b.borrow_mut() = backup.clone();
                }
            }
        }
    }

    let mut final_hits = 0usize;
    let mut final_count = 0usize;
    model.set_training(true);
    for epoch in start_epoch..config.epochs {
        optimizer.set_lr(schedule.lr_at(epoch));
        let last_epoch = epoch + 1 == config.epochs;
        let outcome = run_epoch(
            model, dataset, indices, stream, config, &mut optimizer, epoch, last_epoch, faults,
        );
        epoch_losses.push(outcome.mean_loss);
        skipped += outcome.skipped;
        if last_epoch {
            final_hits = outcome.hits;
            final_count = outcome.count;
        }
        if config.verbose {
            eprintln!(
                "epoch {:>3}/{}: lr={:.4} loss={:.4} skipped={}",
                epoch + 1,
                config.epochs,
                schedule.lr_at(epoch),
                outcome.mean_loss,
                skipped
            );
        }
        if skipped > rcfg.max_skipped_batches {
            model.set_training(false);
            return Err(TrainError::NonFiniteBudget {
                skipped,
                budget: rcfg.max_skipped_batches,
            });
        }
        let completed = epoch + 1;
        if completed % rcfg.checkpoint_every.max(1) == 0 || completed == config.epochs {
            let state = TrainState {
                epochs_done: completed,
                epoch_losses: epoch_losses.clone(),
                skipped_batches: skipped,
                velocities: optimizer.velocities(),
            };
            let path = snapshot_path(&rcfg.dir, completed);
            if let Err(why) =
                checkpoint::save_train_state_file(model, &state, &path, faults)
            {
                // crash-atomicity means the previous snapshot survives;
                // keep training and try again at the next interval
                if config.verbose {
                    eprintln!("snapshot at epoch {completed} failed (continuing): {why}");
                }
            }
        }
    }
    model.set_training(false);
    Ok(TrainReport {
        epoch_losses,
        final_train_accuracy: if final_count > 0 {
            final_hits as f32 / final_count as f32
        } else {
            0.0
        },
        skipped_batches: skipped,
        validation: None,
    })
}

/// [`train`], then score the held-out `val_indices` on the serving path
/// (eval mode + [`crate::eval::evaluate`]) and record the result in
/// [`TrainReport::validation`]. The model is returned in eval mode; call
/// `set_training(true)` before resuming training.
pub fn train_validated(
    model: &mut dyn Module,
    dataset: &SkeletonDataset,
    train_indices: &[usize],
    val_indices: &[usize],
    stream: Stream,
    config: &TrainConfig,
) -> TrainReport {
    let mut report = train(model, dataset, train_indices, stream, config);
    if !val_indices.is_empty() {
        model.set_training(false);
        report.validation = Some(crate::eval::evaluate(&*model, dataset, val_indices, stream));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_core::common::ModelDims;
    use dhg_core::StGcn;
    use dhg_skeleton::{Protocol, SkeletonTopology};
    use rand::rngs::StdRng;

    fn tiny_model(seed: u64, n_classes: usize) -> StGcn {
        let mut rng = StdRng::seed_from_u64(seed);
        StGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes },
            SkeletonTopology::ntu25().graph().normalized_adjacency(),
            &[dhg_core::common::StageSpec::new(8, 1)],
            0.0,
            &mut rng,
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dhg-trainer-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn training_reduces_loss_on_a_tiny_problem() {
        let dataset = SkeletonDataset::ntu60_like(3, 10, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
        let mut model = tiny_model(0, 3);
        let config = TrainConfig {
            epochs: 4,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
            lr_milestones: vec![3],
            seed: 7,
            verbose: false,
        };
        let report = train(&mut model, &dataset, &split.train, Stream::Joint, &config);
        assert_eq!(report.epoch_losses.len(), 4);
        assert_eq!(report.skipped_batches, 0, "healthy run skips nothing");
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
    }

    #[test]
    fn validated_training_scores_holdout_on_inference_path() {
        let dataset = SkeletonDataset::ntu60_like(3, 8, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.25 }, 0);
        let mut model = tiny_model(1, 3);
        let config = TrainConfig {
            epochs: 1,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
            lr_milestones: vec![1],
            seed: 7,
            verbose: false,
        };
        let report = train_validated(
            &mut model,
            &dataset,
            &split.train,
            &split.test,
            Stream::Joint,
            &config,
        );
        let v = report.validation.expect("validation recorded");
        assert_eq!(v.n, split.test.len());
        assert!(v.top1 >= 0.0 && v.top1 <= 1.0);
    }

    #[test]
    fn fast_config_milestones_are_ordered() {
        let c = TrainConfig::fast(10);
        assert_eq!(c.lr_milestones, vec![6, 8]);
        assert!(c.lr_milestones[0] < c.epochs);
    }

    #[test]
    #[should_panic(expected = "empty training split")]
    fn empty_split_panics() {
        let dataset = SkeletonDataset::ntu60_like(2, 2, 8, 1);
        let mut model = tiny_model(0, 2);
        train(&mut model, &dataset, &[], Stream::Joint, &TrainConfig::fast(1));
    }

    #[test]
    fn epoch_order_is_pure_in_seed_and_epoch() {
        let indices: Vec<usize> = (0..32).collect();
        assert_eq!(epoch_order(&indices, 5, 3), epoch_order(&indices, 5, 3));
        assert_ne!(epoch_order(&indices, 5, 3), epoch_order(&indices, 5, 4));
        assert_ne!(epoch_order(&indices, 5, 3), epoch_order(&indices, 6, 3));
    }

    #[test]
    fn resumable_run_matches_plain_train_bitwise() {
        let dataset = SkeletonDataset::ntu60_like(3, 8, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
            lr_milestones: vec![2],
            seed: 11,
            verbose: false,
        };
        let mut plain = tiny_model(9, 3);
        let want = train(&mut plain, &dataset, &split.train, Stream::Joint, &config);

        let dir = temp_dir("fresh-equals-plain");
        let mut resumable = tiny_model(9, 3);
        let got = train_resumable(
            &mut resumable,
            &dataset,
            &split.train,
            Stream::Joint,
            &ResumableConfig::new(config, &dir),
        )
        .expect("resumable train");
        assert_eq!(got.epoch_losses, want.epoch_losses, "same loop, same losses");
        for (pa, pb) in plain.parameters().iter().zip(resumable.parameters()) {
            assert_eq!(pa.array(), pb.array(), "same loop, same weights");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_training_resumes_bitwise() {
        let dataset = SkeletonDataset::ntu60_like(3, 8, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
        let full = TrainConfig {
            epochs: 4,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
            lr_milestones: vec![3],
            seed: 13,
            verbose: false,
        };
        // reference: uninterrupted 4-epoch run
        let mut reference = tiny_model(21, 3);
        let want =
            train(&mut reference, &dataset, &split.train, Stream::Joint, &full);

        // interrupted: run 2 epochs (snapshots land on disk), then a new
        // process picks the run back up to 4
        let dir = temp_dir("interrupt-resume");
        let mut first = tiny_model(21, 3);
        let part = ResumableConfig::new(
            TrainConfig { epochs: 2, ..full.clone() },
            &dir,
        );
        train_resumable(&mut first, &dataset, &split.train, Stream::Joint, &part)
            .expect("first leg");

        let mut second = tiny_model(21, 3); // fresh weights: must be overwritten by resume
        let report = train_resumable(
            &mut second,
            &dataset,
            &split.train,
            Stream::Joint,
            &ResumableConfig::new(full.clone(), &dir),
        )
        .expect("second leg");

        assert_eq!(report.epoch_losses.len(), 4);
        assert_eq!(
            report.epoch_losses, want.epoch_losses,
            "resumed trajectory must be bitwise-identical to the uninterrupted run"
        );
        for (pa, pb) in reference.parameters().iter().zip(second.parameters()) {
            assert_eq!(pa.array(), pb.array(), "resumed weights must be bitwise-identical");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_valid_one() {
        let dataset = SkeletonDataset::ntu60_like(2, 6, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
            lr_milestones: vec![2],
            seed: 17,
            verbose: false,
        };
        let dir = temp_dir("corrupt-fallback");
        let mut model = tiny_model(33, 2);
        train_resumable(
            &mut model,
            &dataset,
            &split.train,
            Stream::Joint,
            &ResumableConfig::new(config.clone(), &dir),
        )
        .expect("seed run");
        // wreck the newest snapshot (truncate), leave epoch 1 intact
        let snaps = list_snapshots(&dir);
        assert_eq!(snaps.len(), 2, "checkpoint_every=1 over 2 epochs");
        let newest = &snaps.last().unwrap().1;
        let blob = std::fs::read(newest).unwrap();
        std::fs::write(newest, &blob[..blob.len() / 3]).unwrap();

        // resume to 3 epochs: must pick up after epoch 1, not crash, not
        // restart from zero
        let extended = TrainConfig { epochs: 3, ..config };
        let mut resumed = tiny_model(33, 2);
        let report = train_resumable(
            &mut resumed,
            &dataset,
            &split.train,
            Stream::Joint,
            &ResumableConfig::new(extended, &dir),
        )
        .expect("resume over corrupt snapshot");
        // epoch 1 came from the valid snapshot; epochs 2..3 were trained
        assert_eq!(report.epoch_losses.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_non_finite_losses_are_skipped_and_budgeted() {
        use dhg_nn::fault::FaultPlan;

        let dataset = SkeletonDataset::ntu60_like(2, 6, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
            lr_milestones: vec![2],
            seed: 19,
            verbose: false,
        };
        // every batch poisoned, generous budget: run completes, all
        // batches skipped, loss means are 0 (nothing stepped)
        let dir = temp_dir("nonfinite-skip");
        let mut model = tiny_model(44, 2);
        let all_poisoned = FaultPlan::builder(1).rate(FaultSite::NonFiniteLoss, 1.0).build();
        let mut rcfg = ResumableConfig::new(config.clone(), &dir);
        rcfg.faults = Some(all_poisoned.clone());
        let report =
            train_resumable(&mut model, &dataset, &split.train, Stream::Joint, &rcfg)
                .expect("skips within budget");
        assert!(report.skipped_batches > 0);
        assert_eq!(
            report.skipped_batches,
            all_poisoned.trips(FaultSite::NonFiniteLoss),
            "every injected trip must be counted as a skip"
        );
        std::fs::remove_dir_all(&dir).ok();

        // tight budget: typed error, not an infinite garbage run
        let dir = temp_dir("nonfinite-budget");
        let mut model = tiny_model(44, 2);
        let mut rcfg = ResumableConfig::new(config, &dir);
        rcfg.faults = Some(FaultPlan::builder(2).rate(FaultSite::NonFiniteLoss, 1.0).build());
        rcfg.max_skipped_batches = 0;
        let err = train_resumable(&mut model, &dataset, &split.train, Stream::Joint, &rcfg)
            .expect_err("budget of 0 must abort");
        assert!(matches!(err, TrainError::NonFiniteBudget { budget: 0, .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_snapshot_write_does_not_abort_training() {
        use dhg_nn::fault::FaultPlan;

        let dataset = SkeletonDataset::ntu60_like(2, 6, 8, 1);
        let split = dataset.split(Protocol::Random { test_fraction: 0.2 }, 0);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 },
            lr_milestones: vec![3],
            seed: 23,
            verbose: false,
        };
        let dir = temp_dir("failed-snapshot");
        let mut model = tiny_model(55, 2);
        // the epoch-2 snapshot write dies; epochs 1 and 3 land
        let faults = FaultPlan::builder(3)
            .rate(FaultSite::CheckpointIo, 1.0)
            .limit(FaultSite::CheckpointIo, 1)
            .build();
        let mut rcfg = ResumableConfig::new(config, &dir);
        rcfg.faults = Some(faults.clone());
        // burn the single fault trip on the *second* save: epoch 1 saves
        // clean first
        let report =
            train_resumable(&mut model, &dataset, &split.train, Stream::Joint, &rcfg)
                .expect("training survives a failed snapshot write");
        assert_eq!(report.epoch_losses.len(), 3);
        assert_eq!(faults.trips(FaultSite::CheckpointIo), 1, "one save was killed");
        let snaps = list_snapshots(&dir);
        assert_eq!(snaps.len(), 2, "the killed save left no (complete) file behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
