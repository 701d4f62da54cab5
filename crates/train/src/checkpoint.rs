//! Compact binary checkpoints of model parameters and buffers.
//!
//! The format is deliberately simple: a magic header, the tensor count,
//! then each tensor as `ndim, dims…, f32 data` in little-endian. Loading
//! restores into an *existing* model whose parameter list must match
//! shape-for-shape (the same constructor + seed produces it).
//!
//! The format (`DHGCKPT2`, written by [`save`]) stores the model's
//! [`dhg_nn::Module::buffers`] — BatchNorm running statistics — after the
//! parameters, so a restored model evaluates identically to the saved one.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dhg_nn::fault::FaultPlan;
use dhg_nn::Module;
use dhg_tensor::NdArray;

const MAGIC_V2: &[u8; 8] = b"DHGCKPT2";
const MAGIC_TRAIN: &[u8; 8] = b"DHGTRNS1";

/// Errors produced by [`load`] and the file-based entry points. Every
/// corrupt-artifact failure mode is a typed variant — a serving process
/// restoring a bad checkpoint must get an error it can log and refuse,
/// never a panic that takes the whole process down.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The header magic did not match.
    BadMagic,
    /// The byte stream ended early or had trailing garbage.
    Truncated,
    /// Tensor `index` had a different shape than the model expects.
    ShapeMismatch {
        /// Index of the offending tensor.
        index: usize,
    },
    /// The checkpoint holds a different number of tensors than the model.
    CountMismatch {
        /// Tensors in the checkpoint.
        found: usize,
        /// Tensors the model expects.
        expected: usize,
    },
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The offending path.
        path: String,
        /// The I/O error kind (the message is not kept: `ErrorKind` is
        /// comparable, which keeps this enum `Eq` for test assertions).
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a DHG checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated or oversized"),
            CheckpointError::ShapeMismatch { index } => {
                write!(f, "tensor {index} shape mismatch")
            }
            CheckpointError::CountMismatch { found, expected } => {
                write!(f, "checkpoint has {found} tensors, model expects {expected}")
            }
            CheckpointError::Io { path, kind } => {
                write!(f, "checkpoint I/O on {path}: {kind}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialise all parameters and buffers of a model (version-2 format).
pub fn save(model: &dyn Module) -> Bytes {
    let params = model.parameters();
    let buffers = model.buffers();
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC_V2);
    buf.put_u32_le(params.len() as u32);
    for p in &params {
        put_array(&mut buf, &p.data());
    }
    buf.put_u32_le(buffers.len() as u32);
    for b in &buffers {
        put_array(&mut buf, &b.borrow());
    }
    buf.freeze()
}

fn put_array(buf: &mut BytesMut, data: &dhg_tensor::NdArray) {
    buf.put_u32_le(data.ndim() as u32);
    for &d in data.shape() {
        buf.put_u32_le(d as u32);
    }
    for &v in data.data() {
        buf.put_f32_le(v);
    }
}

/// Read one tensor section (count + tensors) into `targets`, a list of
/// `(shape check, write)` destinations materialised as mutable array refs.
fn read_section(
    bytes: &mut Bytes,
    targets: &mut [&mut dhg_tensor::NdArray],
) -> Result<(), CheckpointError> {
    if bytes.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    let count = bytes.get_u32_le() as usize;
    if count != targets.len() {
        return Err(CheckpointError::CountMismatch { found: count, expected: targets.len() });
    }
    for (index, data) in targets.iter_mut().enumerate() {
        if bytes.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let ndim = bytes.get_u32_le() as usize;
        if bytes.remaining() < ndim * 4 {
            return Err(CheckpointError::Truncated);
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(bytes.get_u32_le() as usize);
        }
        if data.shape() != shape.as_slice() {
            return Err(CheckpointError::ShapeMismatch { index });
        }
        let n = data.len();
        if bytes.remaining() < n * 4 {
            return Err(CheckpointError::Truncated);
        }
        for v in data.data_mut() {
            *v = bytes.get_f32_le();
        }
    }
    Ok(())
}

/// Restore parameters and buffers into a structurally identical model.
pub fn load(model: &dyn Module, mut bytes: Bytes) -> Result<(), CheckpointError> {
    if bytes.remaining() < MAGIC_V2.len() + 4 {
        return Err(CheckpointError::Truncated);
    }
    let mut magic = [0u8; 8];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC_V2 {
        return Err(CheckpointError::BadMagic);
    }
    let params = model.parameters();
    let mut param_refs: Vec<_> = params.iter().map(|p| p.data_mut()).collect();
    {
        let mut targets: Vec<&mut dhg_tensor::NdArray> =
            param_refs.iter_mut().map(|r| &mut **r).collect();
        read_section(&mut bytes, &mut targets)?;
    }
    drop(param_refs);
    let buffers = model.buffers();
    let mut buffer_refs: Vec<_> = buffers.iter().map(|b| b.borrow_mut()).collect();
    let mut targets: Vec<&mut dhg_tensor::NdArray> =
        buffer_refs.iter_mut().map(|r| &mut **r).collect();
    read_section(&mut bytes, &mut targets)?;
    if bytes.has_remaining() {
        return Err(CheckpointError::Truncated);
    }
    Ok(())
}

fn io_error(path: &std::path::Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.display().to_string(), kind: e.kind() }
}

/// Crash-atomic file write: the blob lands in a temp sibling
/// (`<name>.tmp`), is fsynced, and is renamed over `path`; the directory
/// is then fsynced so the rename itself is durable. A crash — or an
/// injected [`dhg_nn::fault::FaultSite::CheckpointIo`] failure — at any
/// point leaves either the complete old file or the complete new file on
/// disk, never a torn mix (the temp may linger; it is overwritten by the
/// next attempt).
fn atomic_write(
    path: &std::path::Path,
    blob: &[u8],
    faults: Option<&FaultPlan>,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = std::fs::File::create(&tmp)?;
    if let Some(error) = faults.and_then(|f| f.maybe_io_error()) {
        // simulate a writer killed mid-save: half the payload reaches the
        // temp file, the destination is never touched
        let _ = file.write_all(&blob[..blob.len() / 2]);
        return Err(error);
    }
    file.write_all(blob)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

/// Serialise a model ([`save`]) straight to `path`, crash-atomically: a
/// writer killed mid-save leaves the previous checkpoint intact (see the
/// kill-mid-save test). Consults the process-wide fault plan, if any.
pub fn save_file(model: &dyn Module, path: &std::path::Path) -> Result<(), CheckpointError> {
    save_file_with(model, path, dhg_nn::fault::installed().as_deref())
}

/// [`save_file`] with an explicit fault plan (chaos tests prefer this:
/// plans stay isolated from concurrently running tests).
pub fn save_file_with(
    model: &dyn Module,
    path: &std::path::Path,
    faults: Option<&FaultPlan>,
) -> Result<(), CheckpointError> {
    atomic_write(path, &save(model), faults).map_err(|e| io_error(path, e))
}

/// Restore a checkpoint file into a structurally identical model. The
/// whole decode path is typed: unreadable files, truncated or
/// magic-mismatched artifacts, and shape/count disagreements all come back
/// as a [`CheckpointError`], never a panic — a corrupt artifact on disk
/// cannot kill a serving process that calls this.
pub fn load_file(model: &dyn Module, path: &std::path::Path) -> Result<(), CheckpointError> {
    let raw = std::fs::read(path).map_err(|e| io_error(path, e))?;
    load(model, Bytes::from(raw))
}

/// Everything beyond the model needed to resume a training run exactly
/// where it stopped: progress counters plus the optimiser's momentum
/// buffers. Serialised (with the model's parameters and buffers) in the
/// `DHGTRNS1` format by [`save_train_state`].
#[derive(Clone, Debug, PartialEq)]
pub struct TrainState {
    /// Epochs fully completed (resume starts at this epoch index).
    pub epochs_done: usize,
    /// Mean loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Minibatches skipped so far by the non-finite guard.
    pub skipped_batches: u64,
    /// SGD momentum buffers, in parameter order
    /// ([`dhg_nn::Sgd::velocities`]).
    pub velocities: Vec<NdArray>,
}

/// Serialise a mid-training snapshot: progress scalars, then the model's
/// parameters and buffers (as in [`save`]), then the optimiser velocity
/// section. Restoring with [`load_train_state`] and
/// [`dhg_nn::Sgd::load_velocities`] resumes training bitwise-identically.
pub fn save_train_state(model: &dyn Module, state: &TrainState) -> Bytes {
    let params = model.parameters();
    let buffers = model.buffers();
    assert_eq!(
        state.velocities.len(),
        params.len(),
        "one velocity buffer per parameter"
    );
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC_TRAIN);
    buf.put_u32_le(state.epochs_done as u32);
    buf.put_u32_le(state.epoch_losses.len() as u32);
    for &loss in &state.epoch_losses {
        buf.put_f32_le(loss);
    }
    buf.put_u64_le(state.skipped_batches);
    buf.put_u32_le(params.len() as u32);
    for p in &params {
        put_array(&mut buf, &p.data());
    }
    buf.put_u32_le(buffers.len() as u32);
    for b in &buffers {
        put_array(&mut buf, &b.borrow());
    }
    buf.put_u32_le(state.velocities.len() as u32);
    for v in &state.velocities {
        put_array(&mut buf, v);
    }
    buf.freeze()
}

/// Restore a [`save_train_state`] snapshot: model parameters and buffers
/// are written back into `model`, and the returned [`TrainState`] carries
/// the progress counters and velocity buffers (shape-checked against the
/// model's parameters). Fully typed: corrupt snapshots come back as
/// [`CheckpointError`], never a panic, so a resume path can skip them.
pub fn load_train_state(
    model: &dyn Module,
    mut bytes: Bytes,
) -> Result<TrainState, CheckpointError> {
    if bytes.remaining() < MAGIC_TRAIN.len() + 8 {
        return Err(CheckpointError::Truncated);
    }
    let mut magic = [0u8; 8];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC_TRAIN {
        return Err(CheckpointError::BadMagic);
    }
    let epochs_done = bytes.get_u32_le() as usize;
    let n_losses = bytes.get_u32_le() as usize;
    if bytes.remaining() < n_losses * 4 {
        return Err(CheckpointError::Truncated);
    }
    let epoch_losses: Vec<f32> = (0..n_losses).map(|_| bytes.get_f32_le()).collect();
    if bytes.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    let skipped_batches = bytes.get_u64_le();
    let params = model.parameters();
    {
        let mut param_refs: Vec<_> = params.iter().map(|p| p.data_mut()).collect();
        let mut targets: Vec<&mut NdArray> = param_refs.iter_mut().map(|r| &mut **r).collect();
        read_section(&mut bytes, &mut targets)?;
    }
    {
        let buffers = model.buffers();
        let mut buffer_refs: Vec<_> = buffers.iter().map(|b| b.borrow_mut()).collect();
        let mut targets: Vec<&mut NdArray> =
            buffer_refs.iter_mut().map(|r| &mut **r).collect();
        read_section(&mut bytes, &mut targets)?;
    }
    // velocities mirror the parameter shapes exactly
    let mut velocities: Vec<NdArray> =
        params.iter().map(|p| NdArray::zeros(p.data().shape())).collect();
    {
        let mut targets: Vec<&mut NdArray> = velocities.iter_mut().collect();
        read_section(&mut bytes, &mut targets)?;
    }
    if bytes.has_remaining() {
        return Err(CheckpointError::Truncated);
    }
    Ok(TrainState { epochs_done, epoch_losses, skipped_batches, velocities })
}

/// [`save_train_state`] straight to `path`, crash-atomically (temp +
/// fsync + rename, with the same injected-fault semantics as
/// [`save_file`]).
pub fn save_train_state_file(
    model: &dyn Module,
    state: &TrainState,
    path: &std::path::Path,
    faults: Option<&FaultPlan>,
) -> Result<(), CheckpointError> {
    atomic_write(path, &save_train_state(model, state), faults).map_err(|e| io_error(path, e))
}

/// Read and decode a [`save_train_state_file`] snapshot.
pub fn load_train_state_file(
    model: &dyn Module,
    path: &std::path::Path,
) -> Result<TrainState, CheckpointError> {
    let raw = std::fs::read(path).map_err(|e| io_error(path, e))?;
    load_train_state(model, Bytes::from(raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhg_nn::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_restores_exact_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Linear::new(5, 3, &mut rng);
        let blob = save(&a);
        let mut rng2 = StdRng::seed_from_u64(99);
        let b = Linear::new(5, 3, &mut rng2);
        assert!(!a.parameters()[0].array().allclose(&b.parameters()[0].array(), 1e-6, 1e-7));
        load(&b, blob).expect("load");
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.array(), pb.array());
        }
    }

    #[test]
    fn roundtrip_preserves_running_stats_and_served_logits() {
        use dhg_core::common::{ModelDims, StageSpec};
        use dhg_core::StGcn;
        use dhg_skeleton::SkeletonTopology;
        use dhg_tensor::{NdArray, Tensor};

        let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 };
        let adjacency = SkeletonTopology::ntu25().graph().normalized_adjacency();
        let stages = [StageSpec::new(8, 1)];
        let x = Tensor::constant(NdArray::from_vec(
            (0..2 * 3 * 8 * 25).map(|i| (i as f32 * 0.013).sin()).collect(),
            &[2, 3, 8, 25],
        ));

        let mut rng = StdRng::seed_from_u64(5);
        let a = StGcn::new(dims, adjacency.clone(), &stages, 0.0, &mut rng);
        a.forward(&x); // move BN running stats off their init values
        a.forward(&x);
        let blob = save(&a);

        // a differently-seeded model: parameters AND buffers disagree
        let mut rng2 = StdRng::seed_from_u64(99);
        let b = StGcn::new(dims, adjacency, &stages, 0.0, &mut rng2);
        load(&b, blob).expect("load");

        for (ba, bb) in a.buffers().iter().zip(b.buffers()) {
            assert_eq!(*ba.borrow(), *bb.borrow(), "running stats not restored");
        }
        let ya = crate::InferenceSession::new(a).logits(&x);
        let yb = crate::InferenceSession::new(b).logits(&x);
        assert_eq!(ya, yb, "served logits should be bitwise identical");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = Linear::new(2, 2, &mut rng);
        let err = load(&m, Bytes::from_static(b"NOTACKPTxxxxxxxxxxxx")).unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
        // the retired parameters-only `DHGCKPT1` format is refused typed
        let mut v1 = BytesMut::new();
        v1.put_slice(b"DHGCKPT1");
        let params = m.parameters();
        v1.put_u32_le(params.len() as u32);
        for p in &params {
            put_array(&mut v1, &p.data());
        }
        assert_eq!(load(&m, v1.freeze()).unwrap_err(), CheckpointError::BadMagic);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Linear::new(4, 2, &mut rng);
        let b = Linear::new(2, 4, &mut rng);
        let err = load(&b, save(&a)).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Linear::new(3, 3, &mut rng);
        let b = Linear::new_no_bias(3, 3, &mut rng);
        let err = load(&b, save(&a)).unwrap_err();
        assert_eq!(err, CheckpointError::CountMismatch { found: 2, expected: 1 });
    }

    /// The long-running-server regression: *every* truncation of a valid
    /// artifact — mid-magic, mid-header, mid-shape, mid-data, mid-buffer
    /// section — must come back as a typed error, never a panic (a
    /// BatchNorm-carrying model keeps the buffer section non-empty).
    #[test]
    fn every_truncation_is_a_typed_error() {
        use dhg_core::common::{ModelDims, StageSpec};
        use dhg_core::StGcn;
        use dhg_skeleton::SkeletonTopology;

        let mut rng = StdRng::seed_from_u64(21);
        let lin = Linear::new(4, 3, &mut rng);
        let dims = ModelDims { in_channels: 3, n_joints: 25, n_classes: 3 };
        let st = StGcn::new(
            dims,
            SkeletonTopology::ntu25().graph().normalized_adjacency(),
            &[StageSpec::new(4, 1)],
            0.0,
            &mut rng,
        );
        for (model, blob) in [
            (&lin as &dyn Module, save(&lin)),
            (&st as &dyn Module, save(&st)),
        ] {
            assert!(load(model, blob.clone()).is_ok(), "intact blob must load");
            for cut in 0..blob.len() {
                let err = load(model, blob.slice(0..cut));
                assert!(err.is_err(), "truncation at {cut}/{} must fail", blob.len());
            }
        }
    }

    /// Single-byte corruption anywhere in the stream must never panic:
    /// the decoder either detects it (typed error) or the flip lands in
    /// f32 payload bytes, where every bit pattern is a legal value.
    #[test]
    fn every_single_byte_flip_never_panics() {
        let mut rng = StdRng::seed_from_u64(22);
        let m = Linear::new(4, 3, &mut rng);
        let blob = save(&m);
        for i in 0..blob.len() {
            let mut corrupt = BytesMut::from(&blob[..]);
            corrupt[i] ^= 0xFF;
            let _ = load(&m, corrupt.freeze()); // Ok or typed Err, no panic
        }
        // header corruption specifically must be *detected*, not merely
        // survived
        for i in 0..8 {
            let mut corrupt = BytesMut::from(&blob[..]);
            corrupt[i] ^= 0xFF;
            assert_eq!(load(&m, corrupt.freeze()).unwrap_err(), CheckpointError::BadMagic);
        }
    }

    /// Unique temp path for file-based tests (std-only; no tempfile dep).
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dhg-ckpt-test-{}-{tag}.bin", std::process::id()))
    }

    #[test]
    fn file_roundtrip_restores_exact_values() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Linear::new(5, 3, &mut rng);
        let path = temp_path("roundtrip");
        save_file(&a, &path).expect("save_file");
        let mut rng2 = StdRng::seed_from_u64(91);
        let b = Linear::new(5, 3, &mut rng2);
        load_file(&b, &path).expect("load_file");
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.array(), pb.array());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let mut rng = StdRng::seed_from_u64(24);
        let m = Linear::new(2, 2, &mut rng);
        let path = temp_path("does-not-exist");
        let err = load_file(&m, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Io { kind: std::io::ErrorKind::NotFound, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_file_on_disk_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(25);
        let m = Linear::new(2, 2, &mut rng);
        // truncated-on-disk artifact (e.g. a crashed writer)
        let path = temp_path("truncated");
        let blob = save(&m);
        std::fs::write(&path, &blob[..blob.len() / 2]).expect("write");
        assert_eq!(load_file(&m, &path).unwrap_err(), CheckpointError::Truncated);
        // magic-mismatched artifact (e.g. the wrong file entirely)
        std::fs::write(&path, b"definitely not a checkpoint").expect("write");
        assert_eq!(load_file(&m, &path).unwrap_err(), CheckpointError::BadMagic);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_mid_save_leaves_previous_checkpoint_intact() {
        use dhg_nn::fault::{FaultPlan, FaultSite};

        let mut rng = StdRng::seed_from_u64(31);
        let old = Linear::new(6, 3, &mut rng);
        let path = temp_path("kill-mid-save");
        save_file(&old, &path).expect("initial save");

        // a differently-seeded model whose save is killed partway through
        let mut rng2 = StdRng::seed_from_u64(32);
        let new = Linear::new(6, 3, &mut rng2);
        let faults = FaultPlan::builder(0xDEAD).rate(FaultSite::CheckpointIo, 1.0).build();
        let err = save_file_with(&new, &path, Some(&faults)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Io { kind: std::io::ErrorKind::Interrupted, .. }),
            "{err:?}"
        );
        assert_eq!(faults.trips(FaultSite::CheckpointIo), 1);

        // the destination still holds the complete OLD checkpoint
        let mut rng3 = StdRng::seed_from_u64(33);
        let restored = Linear::new(6, 3, &mut rng3);
        load_file(&restored, &path).expect("previous checkpoint must survive the kill");
        for (pa, pb) in old.parameters().iter().zip(restored.parameters()) {
            assert_eq!(pa.array(), pb.array(), "old checkpoint corrupted by killed save");
        }

        // with the fault budget exhausted, the next save goes through
        let clean = FaultPlan::builder(0xDEAD)
            .rate(FaultSite::CheckpointIo, 1.0)
            .limit(FaultSite::CheckpointIo, 0)
            .build();
        save_file_with(&new, &path, Some(&clean)).expect("save after the fault");
        load_file(&restored, &path).expect("new checkpoint loads");
        for (pa, pb) in new.parameters().iter().zip(restored.parameters()) {
            assert_eq!(pa.array(), pb.array());
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_file_name("dhg-ckpt-test-kill-mid-save.bin.tmp")).ok();
    }

    #[test]
    fn train_state_roundtrips_through_disk() {
        let mut rng = StdRng::seed_from_u64(41);
        let a = Linear::new(4, 2, &mut rng);
        let state = TrainState {
            epochs_done: 3,
            epoch_losses: vec![2.5, 1.25, 0.75],
            skipped_batches: 2,
            velocities: a
                .parameters()
                .iter()
                .map(|p| {
                    let mut v = p.data().clone();
                    v.map_inplace(|x| x * 0.5);
                    v
                })
                .collect(),
        };
        let path = temp_path("train-state");
        save_train_state_file(&a, &state, &path, None).expect("save");

        let mut rng2 = StdRng::seed_from_u64(42);
        let b = Linear::new(4, 2, &mut rng2);
        let restored = load_train_state_file(&b, &path).expect("load");
        assert_eq!(restored, state);
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.array(), pb.array(), "model section restored");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_state_corruption_is_always_typed() {
        let mut rng = StdRng::seed_from_u64(43);
        let m = Linear::new(3, 2, &mut rng);
        let state = TrainState {
            epochs_done: 1,
            epoch_losses: vec![1.0],
            skipped_batches: 0,
            velocities: m.parameters().iter().map(|p| NdArray::zeros(p.data().shape())).collect(),
        };
        let blob = save_train_state(&m, &state);
        assert!(load_train_state(&m, blob.clone()).is_ok());
        // every truncation point is a typed error, never a panic
        for cut in 0..blob.len() {
            assert!(
                load_train_state(&m, blob.slice(0..cut)).is_err(),
                "truncation at {cut} must fail typed"
            );
        }
        // wrong artifact kind is detected up front
        assert_eq!(
            load_train_state(&m, save(&m)).unwrap_err(),
            CheckpointError::BadMagic,
            "a plain model checkpoint is not a train state"
        );
        assert_eq!(
            load(&m, blob).unwrap_err(),
            CheckpointError::BadMagic,
            "a train state is not a plain model checkpoint"
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Linear::new(3, 3, &mut rng);
        let blob = save(&a);
        let cut = blob.slice(0..blob.len() - 5);
        assert_eq!(load(&a, cut).unwrap_err(), CheckpointError::Truncated);
        // trailing garbage also rejected
        let mut extended = BytesMut::from(&blob[..]);
        extended.put_u32_le(0);
        assert_eq!(load(&a, extended.freeze()).unwrap_err(), CheckpointError::Truncated);
    }
}
