//! Order statistics shared by every workload.
//!
//! * nearest-rank percentiles over per-operation latencies, where a failed
//!   or refused operation ranks above every success — it misses whatever
//!   limit the percentile sets;
//! * the ≥10-beyond rule that picks the highest percentile a sample
//!   supports;
//! * quartiles computed exactly as Python's `statistics.quantiles(data,
//!   n=4)` computes them, so the per-run records and an external spread
//!   check agree to the last digit;
//! * open-loop due-time accounting for scheduled sends.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples ranked strictly above the `p`-th percentile.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The highest percentile of [`TAIL_LADDER`] not above `target` that has
/// at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(target: f64, n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().filter(|&p| p <= target).find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Per-operation latencies (ms) of one run, failures included.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ok: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Record a successful operation.
    pub fn ok(&mut self, ms: f64) {
        self.ok.push(ms);
    }

    /// Record a failed or refused operation.
    pub fn failed(&mut self) {
        self.failed += 1;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.ok.len() + self.failed
    }

    /// Operations that failed.
    pub fn n_failed(&self) -> usize {
        self.failed
    }

    /// Latencies of the operations that succeeded, in record order.
    pub fn values(&self) -> &[f64] {
        &self.ok
    }

    /// Nearest-rank percentile over every attempted operation. `None`
    /// when nothing was attempted or the rank lands on a failure: that
    /// percentile missed every limit.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.attempted();
        if n == 0 {
            return None;
        }
        let r = rank(p, n);
        if r > self.ok.len() {
            return None;
        }
        let mut sorted = self.ok.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[r - 1])
    }

    /// The tail at the highest supported percentile not above `target`:
    /// `(percentile, value)`, or `None` when the sample is too small for
    /// any percentile of the ladder.
    pub fn tail(&self, target: f64) -> Option<(f64, Option<f64>)> {
        let p = tail_percentile(target, self.attempted())?;
        Some((p, self.percentile(p)))
    }
}

/// Indices of the quieter half of a run's windows (or calls): those
/// whose CPU steal is at or below the median steal — every one of them
/// when steal is even. The host is a shared VM, and a stretch in which the
/// hypervisor runs other guests slows the program for reasons outside it.
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let m = median(steal);
    (0..steal.len()).filter(|&i| steal[i] <= m).collect()
}

/// Median of values where `None` (a percentile that missed) ranks above
/// every measured one; `None` when the middle lands on a miss.
pub fn median_opt(mut values: Vec<Option<f64>>) -> Option<f64> {
    values.sort_by(|a, b| match (a, b) {
        (Some(x), Some(y)) => x.total_cmp(y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });
    let n = values.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => values[n / 2],
        _ => Some((values[n / 2 - 1]? + values[n / 2]?) / 2.0),
    }
}

/// One run's operations bucketed into equal time windows, each with the
/// CPU steal measured over it. A run reports the median over its quiet
/// windows ([`quiet`]).
#[derive(Clone, Debug)]
pub struct Windowed {
    span: f64,
    windows: Vec<Latencies>,
    steal: Vec<f64>,
}

impl Windowed {
    /// `k` windows over `[0, span)` s, all with zero steal until
    /// [`Windowed::set_steal`].
    pub fn new(k: usize, span: f64) -> Self {
        Windowed { span, windows: vec![Latencies::default(); k], steal: vec![0.0; k] }
    }

    /// The CPU steal measured over each window.
    pub fn set_steal(&mut self, steal: Vec<f64>) {
        assert_eq!(steal.len(), self.windows.len(), "one steal figure per window");
        self.steal = steal;
    }

    /// Record an operation that finished at `at` s (late finishers count
    /// in the last window) with latency `ms`, or `None` if it failed.
    pub fn record(&mut self, at: f64, ms: Option<f64>) {
        let k = self.windows.len();
        let w = &mut self.windows[((at / self.span * k as f64) as usize).min(k - 1)];
        match ms {
            Some(ms) => w.ok(ms),
            None => w.failed(),
        }
    }

    /// Median over the quiet windows of each one's `p`-th percentile;
    /// `None` when it lands on a window whose percentile missed (fell on
    /// a failed operation).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        median_opt(quiet(&self.steal).into_iter().map(|i| self.windows[i].percentile(p)).collect())
    }

    /// Median over the quiet windows of each one's succeeded operations
    /// per second.
    pub fn rate(&self) -> f64 {
        let len = self.span / self.windows.len() as f64;
        let rates: Vec<f64> = quiet(&self.steal)
            .into_iter()
            .map(|i| (self.windows[i].attempted() - self.windows[i].n_failed()) as f64 / len)
            .collect();
        median(&rates)
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` by the default ("exclusive") method of Python's
/// `statistics.quantiles(data, n=4)`. Fewer than two values repeat the
/// single value (Python refuses them).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// One send of an open-loop schedule, in seconds since the schedule's
/// start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scheduled {
    /// When the schedule wanted it sent.
    pub due: f64,
    /// When it actually left the client (after any wait behind a slow
    /// predecessor on the same connection).
    pub sent: f64,
    /// When its reply arrived; `None` if it failed.
    pub done: Option<f64>,
}

impl Scheduled {
    /// Latency counted from the due time, so a send held back behind a
    /// slow predecessor carries that wait. `None` for a failure.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|done| (done - self.due) * 1e3)
    }

    /// Sent more than one `period` after it was due: the generator fell
    /// behind its own schedule.
    pub fn late(&self, period: f64) -> bool {
        self.sent - self.due > period
    }
}

/// Due time of frame slot `slot` of camera `cam` out of `cams` cameras
/// at `fps`: each camera sends once per period, and the cameras' phases
/// are spread evenly across the period.
pub fn due_s(slot: u64, cam: usize, cams: usize, fps: f64) -> f64 {
    (slot as f64 + cam as f64 / cams as f64) / fps
}

/// Share of `sends` sent more than one `period` late.
pub fn late_fraction(sends: &[Scheduled], period: f64) -> f64 {
    if sends.is_empty() {
        return 0.0;
    }
    sends.iter().filter(|s| s.late(period)).count() as f64 / sends.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999, only 9
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(tail_percentile(99.0, 1000), Some(99.0));
        assert_eq!(beyond(99.0, 999), 9);
        assert_eq!(tail_percentile(99.0, 999), Some(95.0));
        // 200 samples support p95 but not p99
        assert_eq!(tail_percentile(99.0, 200), Some(95.0));
        assert_eq!(tail_percentile(95.0, 200), Some(95.0));
        // the target caps the choice even when more would be supported
        assert_eq!(tail_percentile(95.0, 100_000), Some(95.0));
        assert_eq!(tail_percentile(99.0, 100), Some(90.0));
        assert_eq!(tail_percentile(99.0, 99), None);
        assert_eq!(tail_percentile(99.0, 0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut l = Latencies::default();
        for ms in (1..=100).rev() {
            l.ok(ms as f64);
        }
        assert_eq!(l.percentile(50.0), Some(50.0));
        assert_eq!(l.percentile(99.0), Some(99.0));
        assert_eq!(l.percentile(100.0), Some(100.0));
        assert_eq!(l.tail(99.0), Some((90.0, Some(90.0))));
    }

    #[test]
    fn failed_operations_miss_every_limit() {
        let mut l = Latencies::default();
        for ms in 1..=95 {
            l.ok(ms as f64);
        }
        for _ in 0..5 {
            l.failed();
        }
        assert_eq!(l.attempted(), 100);
        assert_eq!(l.n_failed(), 5);
        // ranks up to 95 are successes; p96 and above land on failures
        assert_eq!(l.percentile(95.0), Some(95.0));
        assert_eq!(l.percentile(96.0), None);
        // failures count in the denominator: the median moves up
        assert_eq!(l.percentile(50.0), Some(50.0));
        let mut half = Latencies::default();
        half.ok(1.0);
        half.failed();
        half.failed();
        assert_eq!(half.percentile(50.0), None);
        assert_eq!(Latencies::default().percentile(50.0), None);
    }

    #[test]
    fn the_median_window_ignores_a_burst() {
        let mut w = Windowed::new(5, 10.0);
        for i in 0..1000 {
            let at = i as f64 / 100.0;
            // seconds 4..6 (window 2) run 10x slower
            let ms = if (4.0..6.0).contains(&at) { 10.0 } else { 1.0 + (i % 7) as f64 * 0.01 };
            w.record(at, Some(ms));
        }
        assert_eq!(w.percentile(50.0), Some(1.03));
        assert!((w.rate() - 100.0).abs() < 1e-9);
        // a late finisher lands in the last window
        w.record(10.5, Some(1.0));
        assert!((w.rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn windows_with_high_steal_are_left_out() {
        let mut w = Windowed::new(4, 4.0);
        // windows 0 and 3 ran under steal and read 3 ms; 1 and 2 read 1 ms
        for (at, ms) in [(0.5, 3.0), (1.5, 1.0), (2.5, 1.0), (3.5, 3.0)] {
            w.record(at, Some(ms));
        }
        assert_eq!(w.percentile(50.0), Some(2.0));
        w.set_steal(vec![0.10, 0.01, 0.0, 0.08]);
        assert_eq!(quiet(&[0.10, 0.01, 0.0, 0.08]), [1, 2]);
        assert_eq!(w.percentile(50.0), Some(1.0));
        // even steal keeps every window
        assert_eq!(quiet(&[0.0; 4]), [0, 1, 2, 3]);
    }

    #[test]
    fn failed_windows_rank_above_measured_ones() {
        let mut w = Windowed::new(3, 3.0);
        w.record(0.5, Some(2.0));
        w.record(1.5, None);
        w.record(2.5, Some(1.0));
        // windows' p50: 2.0, missed, 1.0 -> median window reads 2.0
        assert_eq!(w.percentile(50.0), Some(2.0));
        assert!((w.rate() - 1.0).abs() < 1e-9);
        w.record(2.6, None);
        w.record(2.7, None);
        // two windows missed: the median window missed
        assert_eq!(w.percentile(50.0), None);
        assert_eq!(median_opt(vec![Some(1.0), None]), None);
        assert_eq!(median_opt(vec![Some(1.0), Some(2.0)]), Some(1.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        // frames due every 10 ms on one connection; the second send
        // takes 35 ms, so the next three leave late
        let period = 0.010;
        let service = [0.001, 0.035, 0.001, 0.001, 0.001, 0.001];
        let mut free_at = 0.0f64;
        let sends: Vec<Scheduled> = service
            .iter()
            .enumerate()
            .map(|(i, &busy)| {
                let due = i as f64 * period;
                let sent = free_at.max(due);
                free_at = sent + busy;
                Scheduled { due, sent, done: Some(free_at) }
            })
            .collect();
        let lat: Vec<f64> = sends.iter().map(|s| s.latency_ms().unwrap()).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(lat[0], 1.0));
        assert!(close(lat[1], 35.0));
        // due at 20 ms, left at 45 ms behind the stall: 26 ms from due
        assert!(close(lat[2], 26.0));
        assert!(close(lat[3], 17.0));
        assert!(close(lat[4], 8.0));
        assert!(close(lat[5], 1.0));
        // sends that left 25 ms and 16 ms after their due time are late;
        // 7 ms behind is within one 10 ms period
        let late: Vec<bool> = sends.iter().map(|s| s.late(period)).collect();
        assert_eq!(late, [false, false, true, true, false, false]);
        assert!((late_fraction(&sends, period) - 2.0 / 6.0).abs() < 1e-12);
        let lost = Scheduled { due: 0.0, sent: 0.0, done: None };
        assert_eq!(lost.latency_ms(), None);
    }

    #[test]
    fn camera_phases_spread_across_the_period() {
        let fps = 30.0;
        let dues: Vec<f64> = (0..8).map(|cam| due_s(3, cam, 8, fps)).collect();
        for w in dues.windows(2) {
            assert!((w[1] - w[0] - 1.0 / 240.0).abs() < 1e-12);
        }
        assert!((due_s(4, 0, 8, fps) - dues[0] - 1.0 / 30.0).abs() < 1e-12);
    }
}
