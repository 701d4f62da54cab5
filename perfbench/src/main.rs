//! `dhg-perfbench`: the repository benchmark.
//!
//! One workload per run, end to end through the workspace's public API:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-tiny --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! the same measurement and then replays the same operations down the
//! layer ladder, reporting the per-layer metrics. `--workload all` runs
//! every workload (each in its own process, so `peak_rss_mb` is per
//! workload) and prints each one's metrics by name. Human-readable lines
//! come first; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Full records and trace
//! spans go to `.bench_out/` under the working directory. Any failed
//! operation or output mismatch makes the command exit non-zero.
//!
//! See `perfbench/README.md` for the workloads, the metric map and the
//! layer → metric → workload table.

mod inputs;
mod leaves;
mod report;
mod serving;
mod stats;
mod stream;
mod trace;
mod training;

use report::{metric, Host, Metric, Outcome};
use serving::{Scale, WireWorkload};
use std::process::ExitCode;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["wire-tiny", "forward-exp", "stream-cam", "train-exp"];

/// The end-to-end metrics every untraced run reports, in order.
/// Throughput and tail percentiles are printed and recorded under their
/// own names but not listed here: on a shared two-vCPU host they move
/// with the hypervisor's CPU steal far more than the median does, and
/// the throughput adds little the median does not carry (a closed
/// loop's rate is its clients over its mean latency, `stream-cam`'s is
/// fixed by its schedule, `train-exp`'s is the inverse of its step time).
const END_TO_END: [&str; 3] = ["setup_s", "latency_p50_ms", "peak_rss_mb"];

/// The per-layer metrics every traced run reports, in order.
const PER_LAYER: [&str; 26] = [
    "net.self_ms_p50",
    "net.retries",
    "net.bytes_per_op",
    "proto.codec_us_p50",
    "router.self_ms_p50",
    "router.errors",
    "router.quota_rejections",
    "serve.wait_ms_p50",
    "serve.batch_mean",
    "serve.shed",
    "infer.forward_ms_p50",
    "infer.forward_ms_per_sample_b2",
    "infer.mflop",
    "infer.gflops",
    "hypergraph.joint_weights_ms_p50",
    "hypergraph.topology_ms_p50",
    "hypergraph.share",
    "tensor.gemm_gflops_1t",
    "tensor.gemm_gflops_nt",
    "skeleton.batch_ms_p50",
    "train.forward_ms_p50",
    "train.backward_ms_p50",
    "train.step_ms_p50",
    "autograd.nodes_per_step",
    "load.late_frac",
    "trace.overhead_frac",
];

const WIRE_TINY: WireWorkload = WireWorkload {
    models: &["DHGCN-lite", "ST-GCN"],
    scale: Scale::Tiny,
    t: 8,
    dedicated: false,
    input_pool: None,
    infer_majority: false,
};

const FORWARD_EXP: WireWorkload = WireWorkload {
    models: &["DHGCN"],
    scale: Scale::Experiment,
    t: 32,
    dedicated: true,
    input_pool: Some(256),
    infer_majority: true,
};

/// Fill the end-to-end metrics from a workload's figures: its set-up
/// median and median operation latency, plus the process's peak
/// resident set.
pub fn finish_e2e(out: &mut Outcome, setup_s: f64, p50_ms: Option<f64>) {
    let rss = report::peak_rss_mb();
    out.e2e = vec![
        metric("setup_s", setup_s, "s"),
        Metric { name: "latency_p50_ms".into(), value: p50_ms, unit: "ms" },
        metric("peak_rss_mb", rss, "MB"),
    ];
    out.named.push(metric("peak_rss_mb", rss, "MB"));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    match workload {
        "wire-tiny" => serving::run_wire(&WIRE_TINY, seed, seconds, traced),
        "forward-exp" => serving::run_wire(&FORWARD_EXP, seed, seconds, traced),
        "stream-cam" => stream::run_stream(seed, seconds, traced),
        "train-exp" => training::run_train(seed, seconds, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Order `metrics` as `names` lists them; an absent name is an error.
fn in_order(metrics: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|n| {
            metrics
                .iter()
                .find(|m| m.name == *n)
                .cloned()
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect()
}

/// Run every workload as a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("=== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{w} did not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut host = Host::probe();
    let before = report::cpu_ticks();
    let mut outcome = match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    host.steal_frac = report::steal_between(before, report::cpu_ticks());
    let ordered = if args.trace {
        in_order(&outcome.layers, &PER_LAYER).map(|l| outcome.layers = l)
    } else {
        in_order(&outcome.e2e, &END_TO_END).map(|l| outcome.e2e = l)
    };
    if let Err(e) = ordered {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", report::summary(&args.workload, args.seed, &host, &outcome));
    let dir = std::path::Path::new(".bench_out");
    if let Err(e) =
        report::write_record(dir, &args.workload, args.seed, args.trace, &host, &outcome)
    {
        eprintln!("could not write the record under {}: {e}", dir.display());
    }
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed ({} output mismatches)",
            args.workload, outcome.failed, outcome.attempted, outcome.mismatches
        );
        ExitCode::FAILURE
    }
}
