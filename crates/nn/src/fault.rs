//! Seeded, deterministic fault injection for chaos testing.
//!
//! Robustness claims ("a dead worker is respawned", "training resumes
//! from the last valid checkpoint") are only testable if the failures
//! can be *produced on demand, reproducibly*. This module is the single
//! switchboard: production code consults a [`FaultPlan`] at a handful of
//! named [`FaultSite`]s, and the plan — driven by a seed, per-site rates
//! and per-site trip limits — decides deterministically whether that
//! particular call fails. With no plan installed every hook is a no-op
//! that costs one relaxed atomic load.
//!
//! Two wiring styles:
//!
//! * **Explicit** — pass an `Arc<FaultPlan>` into the component under
//!   test (e.g. `ServeConfig::faults`). Preferred in tests: plans stay
//!   isolated per engine, and parallel tests cannot see each other's
//!   faults.
//! * **Global** — [`install`] a plan process-wide. Code that takes no
//!   explicit plan reads it through [`installed`] (e.g.
//!   `checkpoint::save_file`).
//!
//! Decisions are a pure function of `(seed, site, per-site call index)`
//! — two runs with the same plan and the same call interleaving per site
//! trip the same faults. The per-site call counter is atomic, so the
//! *set* of decisions is stable even when calls race; which thread draws
//! which decision may vary, which is exactly the nondeterminism a chaos
//! suite wants to survive.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Number of distinct injection sites (length of the per-site tables).
pub const FAULT_SITES: usize = 11;

/// Named places in the stack where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Kill a serve worker thread (panic outside the batch guard).
    WorkerDeath = 0,
    /// Panic inside a micro-batch forward (caught; fails the batch only).
    BatchPanic = 1,
    /// Stall a micro-batch by the plan's delay (exercises deadlines).
    BatchDelay = 2,
    /// Corrupt a batch's logits with a NaN (exercises output validation).
    BadLogits = 3,
    /// Fail a checkpoint file write partway (exercises crash-atomicity).
    CheckpointIo = 4,
    /// Poison a training loss with a NaN (exercises the non-finite guard).
    NonFiniteLoss = 5,
    /// Drop a TCP connection mid-exchange (exercises client reconnect).
    ConnDrop = 6,
    /// Write only a prefix of a wire frame, then close (exercises
    /// framing-level typed errors and retry).
    FrameTruncate = 7,
    /// Flip one byte of a wire frame (exercises the frame checksum).
    FrameCorrupt = 8,
    /// Stall a reply by the plan's delay (exercises client reply
    /// timeouts and idempotent retry).
    ReplyDelay = 9,
    /// Accept a connection, then close it immediately (exercises
    /// client connect/first-request retry).
    AcceptReject = 10,
}

impl FaultSite {
    /// All sites, in tag order.
    pub const ALL: [FaultSite; FAULT_SITES] = [
        FaultSite::WorkerDeath,
        FaultSite::BatchPanic,
        FaultSite::BatchDelay,
        FaultSite::BadLogits,
        FaultSite::CheckpointIo,
        FaultSite::NonFiniteLoss,
        FaultSite::ConnDrop,
        FaultSite::FrameTruncate,
        FaultSite::FrameCorrupt,
        FaultSite::ReplyDelay,
        FaultSite::AcceptReject,
    ];

    /// The transport-level sites consulted inside `dhg_train::net`.
    pub const WIRE: [FaultSite; 5] = [
        FaultSite::ConnDrop,
        FaultSite::FrameTruncate,
        FaultSite::FrameCorrupt,
        FaultSite::ReplyDelay,
        FaultSite::AcceptReject,
    ];

    /// Stable kebab-case name (used by reports and panic payloads).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerDeath => "worker-death",
            FaultSite::BatchPanic => "batch-panic",
            FaultSite::BatchDelay => "batch-delay",
            FaultSite::BadLogits => "bad-logits",
            FaultSite::CheckpointIo => "checkpoint-io",
            FaultSite::NonFiniteLoss => "non-finite-loss",
            FaultSite::ConnDrop => "conn-drop",
            FaultSite::FrameTruncate => "frame-truncate",
            FaultSite::FrameCorrupt => "frame-corrupt",
            FaultSite::ReplyDelay => "reply-delay",
            FaultSite::AcceptReject => "accept-reject",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Immutable description of what a [`FaultPlan`] injects.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-call decision hash.
    pub seed: u64,
    /// Per-site probability in `[0, 1]` that a given call trips.
    pub rates: [f64; FAULT_SITES],
    /// Per-site cap on total trips (`u64::MAX` = unlimited).
    pub limits: [u64; FAULT_SITES],
    /// How long a tripped [`FaultSite::BatchDelay`] stalls.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            rates: [0.0; FAULT_SITES],
            limits: [u64::MAX; FAULT_SITES],
            delay: Duration::from_millis(20),
        }
    }
}

/// A thread-safe, seeded fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    calls: [AtomicU64; FAULT_SITES],
    trips: [AtomicU64; FAULT_SITES],
}

/// Builder for a [`FaultPlan`] (the ergonomic test-side entry point).
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    config: FaultConfig,
}

impl FaultPlanBuilder {
    /// Trip `site` on each call with probability `rate`.
    pub fn rate(mut self, site: FaultSite, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0, 1]");
        self.config.rates[site as usize] = rate;
        self
    }

    /// Cap `site` at `limit` total trips.
    pub fn limit(mut self, site: FaultSite, limit: u64) -> Self {
        self.config.limits[site as usize] = limit;
        self
    }

    /// Stall duration for [`FaultSite::BatchDelay`] trips.
    pub fn delay(mut self, delay: Duration) -> Self {
        self.config.delay = delay;
        self
    }

    /// Finish the plan.
    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(self.config))
    }
}

/// splitmix64 finaliser: avalanche `x` into an independent-looking word.
/// Public because deterministic policy code elsewhere (canary traffic
/// splitting, wire-corruption byte choice) wants the same seeded hash.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(z: u64) -> u64 {
    mix64(z)
}

impl FaultPlan {
    /// A plan from an explicit config.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            calls: Default::default(),
            trips: Default::default(),
        }
    }

    /// Start building a plan with the given decision seed.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder { config: FaultConfig { seed, ..FaultConfig::default() } }
    }

    /// A plan that injects nothing (every hook is a cheap no-op).
    pub fn disabled() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(FaultConfig::default()))
    }

    /// The plan's immutable configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Should this call of `site` fail? Deterministic in
    /// `(seed, site, per-site call index)`; respects the site's trip
    /// limit. Counts the call either way.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        self.fire_word(site).is_some()
    }

    /// Like [`should_fire`](FaultPlan::should_fire), but on a trip also
    /// hands back a decision word derived from the same
    /// `(seed, site, call)` hash, so the caller can make sub-choices
    /// (which byte to corrupt, where to truncate) that replay exactly.
    pub fn fire_word(&self, site: FaultSite) -> Option<u64> {
        let s = site as usize;
        let call = self.calls[s].fetch_add(1, Ordering::Relaxed);
        let rate = self.config.rates[s];
        if rate <= 0.0 {
            return None;
        }
        // uniform in [0, 1) from the (seed, site, call) hash
        let word = mix(self.config.seed ^ mix((s as u64) << 32 | call));
        let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= rate {
            return None;
        }
        // claim one trip under the site's budget, exactly
        let limit = self.config.limits[s];
        self.trips[s]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                (t < limit).then_some(t + 1)
            })
            .is_ok()
            // re-mix so sub-choice bits are independent of the bits the
            // threshold comparison consumed
            .then(|| mix(word))
    }

    /// Panic (payload names the site) if this call of `site` trips.
    pub fn maybe_panic(&self, site: FaultSite) {
        if self.should_fire(site) {
            panic!("injected fault: {site}");
        }
    }

    /// Sleep the plan's delay if this call of [`FaultSite::BatchDelay`]
    /// trips. Returns whether it stalled.
    pub fn maybe_delay(&self) -> bool {
        let fired = self.should_fire(FaultSite::BatchDelay);
        if fired {
            std::thread::sleep(self.config.delay);
        }
        fired
    }

    /// Overwrite `data[0]` with NaN if this call of
    /// [`FaultSite::BadLogits`] trips. Returns whether it corrupted.
    pub fn maybe_corrupt(&self, data: &mut [f32]) -> bool {
        let fired = self.should_fire(FaultSite::BadLogits) && !data.is_empty();
        if fired {
            data[0] = f32::NAN;
        }
        fired
    }

    /// A synthetic I/O error if this call of [`FaultSite::CheckpointIo`]
    /// trips (the caller maps it like a real filesystem failure).
    pub fn maybe_io_error(&self) -> Option<std::io::Error> {
        self.should_fire(FaultSite::CheckpointIo).then(|| {
            std::io::Error::new(std::io::ErrorKind::Interrupted, "injected checkpoint fault")
        })
    }

    /// Sleep the plan's delay if this call of [`FaultSite::ReplyDelay`]
    /// trips. Returns whether it stalled.
    pub fn maybe_reply_delay(&self) -> bool {
        let fired = self.should_fire(FaultSite::ReplyDelay);
        if fired {
            std::thread::sleep(self.config.delay);
        }
        fired
    }

    /// XOR one byte of `data[skip..]` with a nonzero mask if this call of
    /// `site` trips. Byte index and mask both come from the decision
    /// word, so the corruption replays exactly. Returns the flipped
    /// index. No-op (but still counted) when `data[skip..]` is empty.
    pub fn maybe_flip_byte(
        &self,
        site: FaultSite,
        data: &mut [u8],
        skip: usize,
    ) -> Option<usize> {
        let word = self.fire_word(site)?;
        if data.len() <= skip {
            return None;
        }
        let index = skip + (word as usize) % (data.len() - skip);
        // nonzero mask: the byte always actually changes
        let mask = ((word >> 32) as u8) | 1;
        data[index] ^= mask;
        Some(index)
    }

    /// If this call of `site` trips, a deterministic keep-length strictly
    /// shorter than `len` (possibly zero) for the caller to truncate a
    /// write to. `None` when the call does not trip or `len` is zero.
    pub fn maybe_truncate(&self, site: FaultSite, len: usize) -> Option<usize> {
        let word = self.fire_word(site)?;
        if len == 0 {
            return None;
        }
        Some((word as usize) % len)
    }

    /// Times `site` has been consulted.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls[site as usize].load(Ordering::Relaxed)
    }

    /// Times `site` has actually tripped.
    pub fn trips(&self, site: FaultSite) -> u64 {
        self.trips[site as usize].load(Ordering::Relaxed)
    }

    /// Total trips across all sites.
    pub fn total_trips(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.trips(s)).sum()
    }

    /// Human-readable per-site `name: trips/calls` summary.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for site in FaultSite::ALL {
            if self.config.rates[site as usize] > 0.0 || self.calls(site) > 0 {
                out.push_str(&format!(
                    "{}: tripped {}/{} calls\n",
                    site.name(),
                    self.trips(site),
                    self.calls(site)
                ));
            }
        }
        if out.is_empty() {
            out.push_str("no fault sites active\n");
        }
        out
    }
}

/// Fast-path flag: global hooks return immediately while this is false.
static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL_PLAN: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();

fn global_slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    GLOBAL_PLAN.get_or_init(|| RwLock::new(None))
}

/// Install `plan` process-wide. Pass-through code that cannot take an
/// explicit plan (e.g. free checkpoint functions) observes it through
/// [`installed`] immediately. Returns the previously installed plan, if
/// any.
pub fn install(plan: Arc<FaultPlan>) -> Option<Arc<FaultPlan>> {
    let mut slot = global_slot().write().unwrap_or_else(|e| e.into_inner());
    let previous = slot.replace(plan);
    GLOBAL_ACTIVE.store(true, Ordering::Release);
    previous
}

/// Remove the process-wide plan ([`installed`] returns `None` again).
pub fn uninstall() -> Option<Arc<FaultPlan>> {
    let mut slot = global_slot().write().unwrap_or_else(|e| e.into_inner());
    GLOBAL_ACTIVE.store(false, Ordering::Release);
    slot.take()
}

/// The process-wide plan, if one is installed.
pub fn installed() -> Option<Arc<FaultPlan>> {
    if !GLOBAL_ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    global_slot().read().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::builder(seed).rate(FaultSite::BatchPanic, 0.3).build();
            (0..64).map(|_| plan.should_fire(FaultSite::BatchPanic)).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the same schedule");
        assert_ne!(draw(7), draw(8), "different seeds must diverge");
    }

    #[test]
    fn rate_zero_never_fires_and_rate_one_always_fires() {
        let plan = FaultPlan::builder(1)
            .rate(FaultSite::WorkerDeath, 1.0)
            .build();
        for _ in 0..32 {
            assert!(plan.should_fire(FaultSite::WorkerDeath));
            assert!(!plan.should_fire(FaultSite::BatchPanic), "unconfigured site fired");
        }
        assert_eq!(plan.trips(FaultSite::WorkerDeath), 32);
        assert_eq!(plan.trips(FaultSite::BatchPanic), 0);
        assert_eq!(plan.calls(FaultSite::BatchPanic), 32);
    }

    #[test]
    fn trip_limit_caps_total_failures() {
        let plan = FaultPlan::builder(2)
            .rate(FaultSite::CheckpointIo, 1.0)
            .limit(FaultSite::CheckpointIo, 3)
            .build();
        let fired = (0..50).filter(|_| plan.should_fire(FaultSite::CheckpointIo)).count();
        assert_eq!(fired, 3, "limit must cap trips");
        assert_eq!(plan.trips(FaultSite::CheckpointIo), 3);
        assert_eq!(plan.calls(FaultSite::CheckpointIo), 50);
    }

    #[test]
    fn rates_land_near_their_probability() {
        let plan = FaultPlan::builder(3).rate(FaultSite::BadLogits, 0.25).build();
        let n = 4000;
        let fired = (0..n).filter(|_| plan.should_fire(FaultSite::BadLogits)).count();
        let frac = fired as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "0.25-rate site fired {frac} of calls");
    }

    #[test]
    fn limit_claims_are_exact_under_contention() {
        let plan = FaultPlan::builder(4)
            .rate(FaultSite::WorkerDeath, 1.0)
            .limit(FaultSite::WorkerDeath, 10)
            .build();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plan = &plan;
                scope.spawn(move || {
                    for _ in 0..100 {
                        plan.should_fire(FaultSite::WorkerDeath);
                    }
                });
            }
        });
        assert_eq!(plan.trips(FaultSite::WorkerDeath), 10);
        assert_eq!(plan.calls(FaultSite::WorkerDeath), 800);
    }

    #[test]
    fn corrupt_hook_writes_nan_when_tripped() {
        let plan = FaultPlan::builder(5).rate(FaultSite::BadLogits, 1.0).build();
        let mut logits = [0.5f32, 1.5];
        assert!(plan.maybe_corrupt(&mut logits));
        assert!(logits[0].is_nan());
        assert_eq!(logits[1], 1.5);
        let disabled = FaultPlan::disabled();
        let mut clean = [0.5f32, 1.5];
        assert!(!disabled.maybe_corrupt(&mut clean));
        assert_eq!(clean, [0.5, 1.5]);
    }

    #[test]
    fn io_hook_returns_typed_error_when_tripped() {
        let plan = FaultPlan::builder(6).rate(FaultSite::CheckpointIo, 1.0).build();
        let err = plan.maybe_io_error().expect("must trip at rate 1");
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        assert!(FaultPlan::disabled().maybe_io_error().is_none());
    }

    #[test]
    fn report_names_active_sites() {
        let plan = FaultPlan::builder(9).rate(FaultSite::BatchPanic, 1.0).build();
        plan.should_fire(FaultSite::BatchPanic);
        let report = plan.report();
        assert!(report.contains("batch-panic: tripped 1/1"), "{report}");
        assert_eq!(FaultPlan::disabled().report(), "no fault sites active\n");
    }

    #[test]
    fn flip_byte_is_deterministic_and_always_changes_the_byte() {
        let flips = |seed: u64| -> Vec<(usize, Vec<u8>)> {
            let plan =
                FaultPlan::builder(seed).rate(FaultSite::FrameCorrupt, 1.0).build();
            (0..16)
                .map(|_| {
                    let mut data = vec![0u8; 32];
                    let index = plan
                        .maybe_flip_byte(FaultSite::FrameCorrupt, &mut data, 8)
                        .expect("rate 1 must trip");
                    assert!(index >= 8, "skip region must be untouched");
                    assert_ne!(data[index], 0, "flip must change the byte");
                    (index, data)
                })
                .collect()
        };
        assert_eq!(flips(3), flips(3), "same seed must replay the same flips");
        assert_ne!(flips(3), flips(4));
        // degenerate target: counted, but no corruption possible
        let plan = FaultPlan::builder(5).rate(FaultSite::FrameCorrupt, 1.0).build();
        assert!(plan.maybe_flip_byte(FaultSite::FrameCorrupt, &mut [1u8; 4], 4).is_none());
        assert_eq!(plan.calls(FaultSite::FrameCorrupt), 1);
    }

    #[test]
    fn truncate_keep_length_is_strictly_shorter() {
        let plan = FaultPlan::builder(6).rate(FaultSite::FrameTruncate, 1.0).build();
        for len in [1usize, 2, 9, 1024] {
            let keep = plan
                .maybe_truncate(FaultSite::FrameTruncate, len)
                .expect("rate 1 must trip");
            assert!(keep < len, "keep {keep} must be < len {len}");
        }
        assert!(plan.maybe_truncate(FaultSite::FrameTruncate, 0).is_none());
        let quiet = FaultPlan::disabled();
        assert!(quiet.maybe_truncate(FaultSite::FrameTruncate, 64).is_none());
    }

    #[test]
    fn fire_word_matches_should_fire_schedule() {
        let words = {
            let plan = FaultPlan::builder(12).rate(FaultSite::ConnDrop, 0.5).build();
            (0..64).map(|_| plan.fire_word(FaultSite::ConnDrop)).collect::<Vec<_>>()
        };
        let bools = {
            let plan = FaultPlan::builder(12).rate(FaultSite::ConnDrop, 0.5).build();
            (0..64).map(|_| plan.should_fire(FaultSite::ConnDrop)).collect::<Vec<_>>()
        };
        assert_eq!(words.iter().map(Option::is_some).collect::<Vec<_>>(), bools);
        assert!(words.iter().flatten().count() > 0, "0.5 rate must trip sometimes");
    }

    #[test]
    fn global_install_round_trips() {
        // single test for the global slot (tests in one binary share it)
        let plan = FaultPlan::builder(11).rate(FaultSite::BatchPanic, 1.0).build();
        let previous = install(plan.clone());
        let active = installed().expect("installed plan is visible");
        assert!(active.should_fire(FaultSite::BatchPanic), "installed plan must be the one read");
        assert!(active.maybe_io_error().is_none(), "checkpoint-io not configured");
        let removed = uninstall().expect("was installed");
        assert!(Arc::ptr_eq(&removed, &plan));
        assert!(installed().is_none(), "uninstalled plan must no longer be visible");
        if let Some(previous) = previous {
            install(previous);
        }
    }
}
