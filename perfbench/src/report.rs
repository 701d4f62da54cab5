//! What one workload run produced, the host it ran on, and the two ways
//! it is written out: human-readable lines plus one closing JSON line on
//! stdout, and a full record under `.bench_out/`.

use crate::trace::{write_spans, Span};
use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` or the layer map spells it.
    pub name: String,
    /// The measured value; `None` when the percentile it names landed on
    /// a failed operation.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: Some(value), unit }
}

/// A consistency check of the traced run against a stated tolerance.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is compared.
    pub name: String,
    /// The measured quantity.
    pub value: f64,
    /// The tolerance, in words.
    pub expect: String,
    /// Whether `value` meets `expect`.
    pub pass: bool,
}

/// A per-run distribution summary: quartiles and the sample count.
#[derive(Clone, Debug)]
pub struct Distribution {
    /// What was sampled.
    pub name: String,
    /// `(q1, median, q3)`.
    pub quartiles: (f64, f64, f64),
    /// Samples.
    pub n: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (plus the traced
    /// replay when traced).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Outputs that differed from the offline reference.
    pub mismatches: u64,
    /// The end-to-end metrics `BENCHMARK.json` gates.
    pub e2e: Vec<Metric>,
    /// The same run's end-to-end figures under their workload-specific
    /// names (`rps`, `label_p50_ms`, `train_loss`, ...).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Per-model and other breakdowns, printed and recorded only.
    pub detail: Vec<Metric>,
    /// Consistency checks (traced runs).
    pub checks: Vec<Check>,
    /// Server and workload configuration.
    pub config: Vec<(String, String)>,
    /// Per-run quartiles of each sampled quantity.
    pub distributions: Vec<Distribution>,
    /// Ladder spans (traced runs).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record a configuration entry.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Record the quartiles of `values`.
    pub fn distribution(&mut self, name: &str, values: &[f64]) {
        self.distributions.push(Distribution {
            name: name.to_string(),
            quartiles: crate::stats::quartiles(values),
            n: values.len(),
        });
    }

    /// Record a check of `value` against `expect`.
    pub fn check(&mut self, name: &str, value: f64, expect: &str, pass: bool) {
        self.checks.push(Check { name: name.into(), value, expect: expect.into(), pass });
    }

    /// Outputs verified and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0 && self.attempted > 0
    }
}

/// The host a result was measured on.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// The `DHGCN_THREADS` setting, or `unset`.
    pub dhgcn_threads: String,
    /// Share of CPU time the hypervisor gave to other guests during the
    /// run (`steal` in `/proc/stat`); the figures of a run with high
    /// steal are slow for reasons outside the program.
    pub steal_frac: f64,
}

impl Host {
    /// Probe the current host.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            cpu,
            dhgcn_threads: std::env::var("DHGCN_THREADS").unwrap_or_else(|_| "unset".into()),
            steal_frac: 0.0,
        }
    }
}

/// `(steal, total)` CPU ticks so far, from the `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU ticks stolen between two [`cpu_ticks`] readings; zero
/// where `/proc/stat` could not be read.
pub fn steal_between(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

/// CPU steal fraction of each of `k` equal windows of `span` s from
/// `start`, sampled at the window boundaries.
pub fn steal_by_window(start: std::time::Instant, span: f64, k: usize) -> Vec<f64> {
    let marks: Vec<Option<(u64, u64)>> = (0..=k)
        .map(|i| {
            let at = start + std::time::Duration::from_secs_f64(span * i as f64 / k as f64);
            std::thread::sleep(at.saturating_duration_since(std::time::Instant::now()));
            cpu_ticks()
        })
        .collect();
    marks.windows(2).map(|m| steal_between(m[0], m[1])).collect()
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", dhg_train::json::escape(s))
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".into(),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The closing stdout line: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced { &outcome.layers } else { &outcome.e2e };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    )
}

/// Human-readable lines printed before the result line.
pub fn summary(workload: &str, seed: u64, host: &Host, outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# workload {workload} seed {seed} nproc {} cpu {:?} DHGCN_THREADS {} steal {:.4}",
        host.nproc, host.cpu, host.dhgcn_threads, host.steal_frac
    );
    for (k, v) in &outcome.config {
        let _ = writeln!(s, "# config {k} = {v}");
    }
    let _ = writeln!(
        s,
        "ops attempted {} succeeded {} failed {} mismatches {}",
        outcome.attempted,
        outcome.attempted.saturating_sub(outcome.failed),
        outcome.failed,
        outcome.mismatches
    );
    for (kind, list) in [
        ("metric", &outcome.named),
        ("e2e", &outcome.e2e),
        ("layer", &outcome.layers),
        ("detail", &outcome.detail),
    ] {
        for m in list.iter() {
            let v = m.value.map_or("missed (failed ops)".into(), |v| format!("{v:.6}"));
            let _ = writeln!(s, "{kind} {} {v} {}", m.name, m.unit);
        }
    }
    for d in &outcome.distributions {
        let (q1, q2, q3) = d.quartiles;
        let _ = writeln!(s, "quartiles {} n={} q1={q1:.6} median={q2:.6} q3={q3:.6}", d.name, d.n);
    }
    for c in &outcome.checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        let _ = writeln!(s, "check {verdict} {} = {:.4} (expect {})", c.name, c.value, c.expect);
    }
    s
}

/// Write the full record (and the spans of a traced run) under `dir`.
pub fn write_record(
    dir: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    host: &Host,
    outcome: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    let config: Vec<String> =
        outcome.config.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let dists: Vec<String> = outcome
        .distributions
        .iter()
        .map(|d| {
            let (q1, q2, q3) = d.quartiles;
            format!(
                "{}: {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                json_str(&d.name),
                d.n,
                json_num(Some(q1)),
                json_num(Some(q2)),
                json_num(Some(q3))
            )
        })
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"value\": {}, \"expect\": {}, \"pass\": {}}}",
                json_str(&c.name),
                json_num(Some(c.value)),
                json_str(&c.expect),
                c.pass
            )
        })
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \
         \"host\": {{\"nproc\": {}, \"cpu\": {}, \"DHGCN_THREADS\": {}, \"steal_frac\": {}}}, \
         \"config\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"mismatches\": {}, \"end_to_end\": {}, \"named\": {}, \"per_layer\": {}, \
         \"detail\": {}, \"quartiles\": {{{}}}, \"checks\": [{}]}}\n",
        json_str(workload),
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.dhgcn_threads),
        json_num(Some(host.steal_frac)),
        config.join(", "),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        outcome.mismatches,
        json_metrics(&outcome.e2e),
        json_metrics(&outcome.named),
        json_metrics(&outcome.layers),
        json_metrics(&outcome.detail),
        dists.join(", "),
        checks.join(", "),
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if traced {
        let file = std::fs::File::create(dir.join(format!("{stem}.spans.tsv")))?;
        write_spans(&mut std::io::BufWriter::new(file), &outcome.spans)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.e2e.push(metric("latency_p50_ms", 1.25, "ms"));
        o.e2e.push(Metric { name: "latency_tail_ms".into(), value: None, unit: "ms" });
        let line = result_line(&o, false);
        let v = dhg_train::json::Value::parse(&line).expect("valid JSON");
        assert!(v.get("correct").is_some());
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(v.get("failed").and_then(|x| x.as_f64()), Some(0.0));
        let m = v.get("metrics").expect("metrics");
        let p50 = m.get("latency_p50_ms").expect("p50");
        assert_eq!(p50.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(p50.get("unit").and_then(|x| x.as_str()), Some("ms"));
        assert!(o.correct());
        o.mismatches = 1;
        assert!(!o.correct());
    }
}
