//! `train-exp`: `dhg_train::train` of the experiment-scale DHGCN on a
//! synthetic NTU-60-like corpus, and the training ladder every traced
//! run measures.
//!
//! Each measured call trains a freshly constructed model (fixed
//! constructor seed) for one epoch over the same 64 windows at T = 32 in
//! minibatches of 16, so every call must reproduce the first call's loss
//! bit for bit.

use crate::report::{cpu_ticks, metric, steal_between, Outcome};
use crate::serving::{dedicated_specs, timed_setups, Scale, Server};
use crate::stats::{median, quiet};
use crate::trace::{per_request_ms, Recorder, Rung};
use dhg_nn::{Module, Sgd};
use dhg_skeleton::{batch_samples, SkeletonDataset, SkeletonSample, Stream};
use dhg_tensor::{graph_nodes_created, Tensor};
use dhg_train::{train, TrainConfig};
use std::time::Instant;

/// Corpus classes.
const CLASSES: usize = 8;
/// Windows per class in the `train-exp` corpus (64 windows in all).
const PER_CLASS: usize = 8;
/// Window length.
const T: usize = 32;
/// Set-ups per `train-exp` run (each includes a first optimizer step).
const SETUPS: usize = 5;
/// Serving-ladder requests per client in the `train-exp` traced run.
const SERVING_OPS: u64 = 48;
/// The training ladder's per-step span sum must lie within this share
/// of `batch / train_samples_per_s`.
const STEP_SUM_TOLERANCE: f64 = 0.25;

/// Request-id space of training-step spans (kept apart from operation
/// ids).
const STEP_REQ: u64 = 1 << 62;

/// The training recipe: the table harness's CPU-scale SGD settings, one
/// epoch, minibatches of 16.
pub fn config() -> TrainConfig {
    TrainConfig::fast(1)
}

/// Run `train-exp`; `traced` adds the training and serving ladders.
pub fn run_train(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config();
    let zoo = Scale::Experiment.zoo();
    out.config("model", "DHGCN (Zoo::new, 24-24-48)");
    out.config("corpus", format!("ntu60_like({CLASSES}, {PER_CLASS}, {T}, seed)"));
    out.config("batch_size", cfg.batch_size);
    out.config("epochs_per_call", cfg.epochs);
    out.config("sgd", format!("{:?}", cfg.sgd));
    out.config("train_seed", cfg.seed);

    let first: Vec<usize> = (0..cfg.batch_size).collect();
    let (setups, corpus) = timed_setups(
        SETUPS,
        || {
            let corpus = SkeletonDataset::ntu60_like(CLASSES, PER_CLASS, T, seed);
            let mut model = zoo.dhgcn();
            train(&mut model, &corpus, &first, Stream::Joint, &cfg);
            Ok(corpus)
        },
        drop,
    )?;
    let all: Vec<usize> = (0..corpus.len()).collect();
    let steps = all.len().div_ceil(cfg.batch_size) * cfg.epochs;

    let mut rates = Vec::new();
    let mut step_ms = Vec::new();
    let mut steal = Vec::new();
    let mut losses: Vec<f32> = Vec::new();
    let mut skipped = 0;
    let start = Instant::now();
    while rates.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut model = zoo.dhgcn();
        let ticks = cpu_ticks();
        let t0 = Instant::now();
        let report = train(&mut model, &corpus, &all, Stream::Joint, &cfg);
        let s = t0.elapsed().as_secs_f64();
        steal.push(steal_between(ticks, cpu_ticks()));
        rates.push((all.len() * cfg.epochs) as f64 / s);
        step_ms.push(s * 1e3 / steps as f64);
        losses.push(report.epoch_losses.last().copied().unwrap_or(f32::NAN));
        skipped += report.skipped_batches;
    }
    // a call whose loss is not finite, or differs in any bit from the
    // first call's, failed
    let bad = losses.iter().filter(|l| !l.is_finite() || l.to_bits() != losses[0].to_bits()).count()
        as u64;
    out.attempted = (rates.len() * steps) as u64;
    out.mismatches = bad;
    out.failed = bad * steps as u64 + skipped;

    // medians over the calls that ran with the least CPU steal
    let calm = quiet(&steal);
    let sps = median(&calm.iter().map(|&i| rates[i]).collect::<Vec<_>>());
    let p50 = median(&calm.iter().map(|&i| step_ms[i]).collect::<Vec<_>>());
    let setup_s = median(&setups);
    out.config("train_steps_per_call", steps);
    out.config("calls", rates.len());
    out.named.push(metric("train_samples_per_s", sps, "samples/s"));
    out.named.push(metric("train_loss", f64::from(losses[0]), "nats"));
    out.named.push(metric("train_step_ms", p50, "ms"));
    out.named.push(metric("setup_s", setup_s, "s"));
    out.distribution("train_samples_per_s", &rates);
    out.distribution("setup_s", &setups);

    if traced {
        let ratio = train_ladder(&mut out, &mut zoo.dhgcn(), &corpus, &cfg, sps);
        out.layers.push(metric("trace.overhead_frac", ratio - 1.0, "frac"));
        // served as forward-exp serves it: one replica route per client
        let specs = dedicated_specs("DHGCN", Scale::Experiment, T);
        let windows = crate::inputs::Windows::synth(CLASSES, 4, T, seed);
        let server = Server::start(specs.clone())?;
        let ops: Vec<Vec<(u64, usize)>> =
            (0..specs.len()).map(|c| (0..SERVING_OPS).map(|i| (i, c)).collect()).collect();
        let ladder = crate::serving::infer_ladder(
            &server,
            &specs,
            Scale::Experiment,
            &windows,
            seed,
            &ops,
            seconds * 0.5,
        )?;
        ladder.report(&mut out, &server, 0, None, true);
        server.stop();
        out.layers.push(metric("load.late_frac", 0.0, "frac"));
    }
    crate::finish_e2e(&mut out, setup_s, Some(p50));
    Ok(out)
}

/// The training ladder of a serving workload's traced run: `model` at
/// `scale`, one timed `train` call on a 32-window corpus, then the
/// benchmark's own minibatch loop over the same windows.
pub fn ladder_for_serving(
    out: &mut Outcome,
    scale: Scale,
    model: &str,
    seed: u64,
) -> Result<(), String> {
    let zoo = scale.zoo();
    let t = match scale {
        Scale::Tiny => 8,
        Scale::Experiment => T,
    };
    let build = || zoo.by_name(model).ok_or_else(|| format!("{model} is not in the zoo"));
    let corpus = SkeletonDataset::ntu60_like(CLASSES, 4, t, seed);
    let cfg = config();
    let all: Vec<usize> = (0..corpus.len()).collect();
    let mut timed = build()?;
    let t0 = Instant::now();
    train(&mut *timed, &corpus, &all, Stream::Joint, &cfg);
    let sps = (all.len() * cfg.epochs) as f64 / t0.elapsed().as_secs_f64();
    out.config("train_ladder.model", format!("{model} at T = {t}, {} windows", all.len()));
    train_ladder(out, &mut *build()?, &corpus, &cfg, sps);
    Ok(())
}

/// Run the benchmark's own minibatch loop — `batch_samples`,
/// `Module::forward`, `cross_entropy` + `backward`, `Sgd::step` — for as
/// many steps as `train` runs with `cfg`, push the `train` layer metrics,
/// and check the per-step spans against `batch / samples_per_s`.
/// Returns the ratio of the two.
pub fn train_ladder(
    out: &mut Outcome,
    model: &mut dyn Module,
    corpus: &SkeletonDataset,
    cfg: &TrainConfig,
    samples_per_s: f64,
) -> f64 {
    let mut rec = Recorder::new();
    let indices: Vec<usize> = (0..corpus.len()).collect();
    let mut nodes = Vec::new();
    let mut steps = 0usize;
    model.set_training(true);
    let mut opt = Sgd::new(model.parameters(), cfg.sgd);
    for _ in 0..cfg.epochs {
        for chunk in indices.chunks(cfg.batch_size) {
            let req = STEP_REQ | steps as u64;
            let (x, labels) = rec.time(req, Rung::Skeleton, None, || {
                let refs: Vec<&SkeletonSample> =
                    chunk.iter().map(|&i| &corpus.samples[i]).collect();
                batch_samples(&refs, Stream::Joint, &corpus.topology)
            });
            let before = graph_nodes_created();
            let input = Tensor::constant(x);
            let logits = rec.time(req, Rung::TrainForward, None, || model.forward(&input));
            rec.time(req, Rung::TrainBackward, None, || {
                let loss = logits.cross_entropy(&labels);
                loss.backward();
            });
            rec.time(req, Rung::TrainStep, None, || opt.step());
            nodes.push((graph_nodes_created() - before) as f64);
            steps += 1;
        }
    }
    model.set_training(false);
    let spans = rec.into_spans();
    let p50 = |rung| median(&per_request_ms(&spans, rung).into_values().collect::<Vec<_>>());
    let l = &mut out.layers;
    l.push(metric("skeleton.batch_ms_p50", p50(Rung::Skeleton), "ms"));
    l.push(metric("train.forward_ms_p50", p50(Rung::TrainForward), "ms"));
    l.push(metric("train.backward_ms_p50", p50(Rung::TrainBackward), "ms"));
    l.push(metric("train.step_ms_p50", p50(Rung::TrainStep), "ms"));
    l.push(metric("autograd.nodes_per_step", median(&nodes), "count"));

    let train_steps = corpus.len().div_ceil(cfg.batch_size) * cfg.epochs;
    out.check(
        "ladder steps - train steps",
        steps as f64 - train_steps as f64,
        "= 0: the ladder runs as many minibatch steps as train",
        steps == train_steps,
    );
    let step_sums: Vec<f64> = {
        let mut by_step = std::collections::BTreeMap::<u64, f64>::new();
        for s in &spans {
            *by_step.entry(s.req).or_insert(0.0) += s.ms();
        }
        by_step.into_values().collect()
    };
    let want_ms = 1e3 * cfg.batch_size as f64 / samples_per_s;
    let ratio = crate::stats::mean(&step_sums) / want_ms;
    out.check(
        "ladder step-span sum / (batch / train_samples_per_s)",
        ratio,
        &format!("within 1 +- {STEP_SUM_TOLERANCE}"),
        (ratio - 1.0).abs() <= STEP_SUM_TOLERANCE,
    );
    let fwd_bwd = p50(Rung::TrainForward) + p50(Rung::TrainBackward);
    let share = fwd_bwd / median(&step_sums);
    out.check(
        "train forward+backward p50 / step-span sum",
        share,
        "> 0.5: autograd forward and backward are most of a step",
        share > 0.5,
    );
    out.spans.extend(spans);
    ratio
}
