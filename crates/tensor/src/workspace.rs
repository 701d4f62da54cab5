//! Reusable buffers for the tensor kernels.
//!
//! A [`Workspace`] is a pool of recycled `Vec<f32>` buffers. Installed on
//! the calling thread ([`Workspace::install`]), it lends the
//! [`crate::NdArray`] kernels their output buffers, and each array built
//! that way gives its buffer back when it is dropped. Only buffers a
//! workspace handed out come back through the drop path — request inputs,
//! `clone`s and `from_vec` arrays are ordinary allocations. Buffers are
//! `Vec<f32>`, so a workspace is cheap to create and fully owned —
//! dropping it frees everything it holds.
//!
//! Two callers install one, each with its own policy, chosen by the
//! constructor:
//!
//! * a serving session, around each grad-free forward
//!   ([`Workspace::new`], the serving policy). Intermediates die as soon
//!   as the next op consumes them, so a small pool brings the
//!   steady-state allocation count of a forward to (almost) zero.
//! * the trainer, around all epochs of one training call
//!   ([`Workspace::for_training`], the training policy). A step's
//!   activations must outlive its forward (the backward reads them), so
//!   its live set is large; from the second step on, its activations,
//!   gradients and packed GEMM operands reuse the buffers the previous
//!   step gave back, so the allocator does not trim them and the kernel
//!   does not fault their pages back in, and a buffer a kernel overwrites
//!   is not zeroed first.
//!
//! The two share no code past [`Workspace`]'s own methods: the training
//! policy in a serving session read slower on every serving workload
//! (DESIGN.md, "Memory").
//!
//! ## The serving policy: a best-fit free list
//!
//! A take gets the smallest pooled buffer that fits, else the largest,
//! grown (its capacity sticks). The pool is bounded two ways, because a
//! long-running server must not ratchet its memory upward forever:
//!
//! * **count** — at most `MAX_POOLED` buffers are retained; excess
//!   recycles are dropped on the floor.
//! * **bytes** — total pooled capacity is capped at a high-water byte
//!   budget ([`DEFAULT_BYTE_BUDGET`] unless overridden with
//!   [`Workspace::with_byte_budget`]). When a recycle pushes the pool past
//!   the budget, the *oldest* pooled buffers are evicted until it fits
//!   again. Without this cap, one oversized request permanently pins
//!   `MAX_POOLED` oversized buffers: `take` hands out the largest buffer
//!   when nothing fits, `resize` grows it, and the grown capacity comes
//!   back on recycle — a slow ratchet toward `MAX_POOLED × largest
//!   request ever seen`.
//!
//! ## The training policy: exact capacities under a residency cap
//!
//! The memory the pool holds — capacity pooled plus capacity on loan —
//! never exceeds the high-water mark of the bytes its loans requested
//! ([`Workspace::high_water_bytes`]): the pool never keeps more than its
//! own busiest moment asked for, about one step's live set.
//!
//! * **Exact capacities.** A take is served by a pooled buffer of exactly
//!   the requested length, or by a fresh allocation, so capacity on loan
//!   equals [`Workspace::live_bytes`]. No buffer is grown or lent with
//!   slack, which the cap would have to pay for.
//! * **Eviction.** A fresh allocation first evicts pooled buffers until
//!   the cap has room for it, so the allocator can reuse their memory;
//!   the most recently given buffer goes first. Under a repeating pattern
//!   the buffer given back last tends to be the one whose next use lies
//!   furthest ahead. Oldest-first, largest-first and smallest-first orders
//!   each faulted more pages per training call.
//! * **Lookups, not scans.** Pooled buffers are kept by capacity and loans
//!   by address, so takes, gives and the alias check are map lookups (a
//!   training step makes about 1,600 takes).
//! * **Misses stay.** One length's concurrent peak and another's fall at
//!   different moments, so the per-length peaks add up to more than the
//!   high-water mark (153 against 126 MB in a `Zoo::new` DHGCN step):
//!   about one take in nine misses in a steady training step.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};

thread_local! {
    /// The workspace [`Workspace::install`] put on this thread, if any.
    static INSTALLED: RefCell<Option<Workspace>> = const { RefCell::new(None) };
}

/// `len` elements from the calling thread's installed workspace (zeroed
/// or with unspecified contents), or `None` when none is installed.
pub(crate) fn take_installed(len: usize, zeroed: bool) -> Option<Vec<f32>> {
    INSTALLED.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ws = slot.as_mut()?;
        Some(if zeroed { ws.take_zeroed(len) } else { ws.take(len) })
    })
}

/// Give `buf` to the calling thread's installed workspace; without one
/// (or while the thread exits) the buffer is simply freed.
pub(crate) fn give_installed(buf: Vec<f32>) {
    let _ = INSTALLED.try_with(|slot| {
        if let Ok(mut slot) = slot.try_borrow_mut() {
            if let Some(ws) = slot.as_mut() {
                ws.give(buf);
            }
        }
    });
}

/// Upper bound on buffers the serving policy pools; beyond this, recycled
/// buffers are simply dropped. A model forward keeps only a handful of
/// buffers alive at once, so a small pool already gives a ~100% hit rate.
const MAX_POOLED: usize = 16;

/// Default high-water byte budget for pooled capacity (64 MiB). Far above
/// any steady-state forward of the CPU-scale zoo, low enough that a burst
/// of oversized requests cannot pin gigabytes in a serving process.
pub const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// A pool of reusable `f32` buffers; see the module docs for its two
/// policies.
pub struct Workspace {
    policy: Policy,
}

enum Policy {
    Serving(BestFit),
    Training(Capped),
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty serving workspace with the [`DEFAULT_BYTE_BUDGET`].
    /// Buffers are created lazily on first use.
    pub fn new() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// An empty serving workspace whose pooled capacity never exceeds
    /// `budget` bytes (recycles past the high-water mark evict the oldest
    /// buffers, and a buffer larger than the whole budget is never pooled
    /// at all).
    pub fn with_byte_budget(budget: usize) -> Self {
        Workspace {
            policy: Policy::Serving(BestFit {
                pool: VecDeque::new(),
                pooled_bytes: 0,
                byte_budget: budget,
                alias_hazards: 0,
                live_bytes: 0,
                high_water_bytes: 0,
                misses: 0,
            }),
        }
    }

    /// An empty workspace with the training policy: exact capacities, the
    /// memory it holds capped at the high-water mark of its loans (no byte
    /// budget), the most recently given buffers evicted first.
    pub fn for_training() -> Self {
        Workspace { policy: Policy::Training(Capped::default()) }
    }

    /// Run `f` with this workspace installed on the calling thread, so
    /// the [`crate::NdArray`] kernels `f` runs draw their output buffers from it
    /// and the arrays they build give them back when dropped. The
    /// previous installation, if any, is restored afterwards, also when
    /// `f` panics. An array that outlives `f` gives its storage to
    /// whichever workspace is installed when it is dropped (as storage
    /// that workspace never lent, see [`Workspace::give`]), or frees it.
    pub fn install<R>(&mut self, f: impl FnOnce() -> R) -> R {
        /// Puts the workspace back into its owner and the previous one
        /// back on the thread.
        struct Uninstall<'a> {
            owner: &'a mut Workspace,
            prev: Option<Workspace>,
        }
        impl Drop for Uninstall<'_> {
            fn drop(&mut self) {
                if let Some(ws) = INSTALLED.with(|slot| slot.replace(self.prev.take())) {
                    *self.owner = ws;
                }
            }
        }
        let prev = INSTALLED.with(|slot| slot.replace(Some(std::mem::take(self))));
        let _uninstall = Uninstall { owner: self, prev };
        f()
    }

    /// Number of buffers currently pooled (diagnostics only).
    pub fn pooled(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.pool.len(),
            Policy::Training(p) => p.order.len(),
        }
    }

    /// Total capacity currently pooled, in bytes (diagnostics only).
    /// Invariant: never exceeds [`Workspace::byte_budget`].
    pub fn pooled_bytes(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.pooled_bytes,
            Policy::Training(p) => p.pooled_bytes,
        }
    }

    /// The high-water byte budget this pool enforces; `usize::MAX` for a
    /// training workspace, whose cap is its own high-water mark.
    pub fn byte_budget(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.byte_budget,
            Policy::Training(_) => usize::MAX,
        }
    }

    /// Number of aliasing hazards caught by [`Workspace::give`]: attempts
    /// to return a buffer whose storage is already pooled. A non-zero
    /// count means some path recycled the same storage twice — the next
    /// two `take` calls would hand out aliased buffers and silently
    /// corrupt each other. The `analyze` binary's serving audit reads it
    /// from each zoo model's `InferenceSession` and fails on a non-zero
    /// count.
    pub fn alias_hazards(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.alias_hazards,
            Policy::Training(p) => p.alias_hazards,
        }
    }

    /// Bytes currently out on loan: taken via [`Workspace::take`] /
    /// [`Workspace::take_zeroed`] and not yet given back. Buffers that
    /// enter the pool from outside (a `give` of storage this workspace
    /// never handed out) don't contribute.
    pub fn live_bytes(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.live_bytes,
            Policy::Training(p) => p.live_bytes,
        }
    }

    /// The highest [`Workspace::live_bytes`] ever observed — the runtime
    /// high-water mark the analyzer's predicted peak is validated against,
    /// and the training policy's residency cap.
    pub fn high_water_bytes(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.high_water_bytes,
            Policy::Training(p) => p.high_water_bytes,
        }
    }

    /// Takes that found no pooled buffer to serve them and allocated a
    /// fresh one (diagnostics only).
    pub fn misses(&self) -> usize {
        match &self.policy {
            Policy::Serving(p) => p.misses,
            Policy::Training(p) => p.misses,
        }
    }

    /// A buffer of exactly `len` elements, zero-filled. Reuses a pooled
    /// buffer if the policy has one for `len`, else allocates. Costs one
    /// memset of `len` elements — callers that overwrite every element
    /// (GEMM pack panels, matmul outputs) should use [`Workspace::take`]
    /// instead.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        match &mut self.policy {
            Policy::Serving(p) => p.take_zeroed(len),
            Policy::Training(p) => p.take_zeroed(len),
        }
    }

    /// A buffer of exactly `len` elements with unspecified contents (the
    /// caller overwrites every element). Element values are whatever the
    /// recycled buffer held — never uninitialised memory — and, unlike
    /// [`Workspace::take_zeroed`], no memset is paid on reuse: only growth
    /// beyond the recycled length (serving policy) is zero-filled.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match &mut self.policy {
            Policy::Serving(p) => p.take(len),
            Policy::Training(p) => p.take(len),
        }
    }

    /// Return a dead buffer to the pool.
    ///
    /// If the buffer's storage is already pooled (a double-recycle — only
    /// possible through unsafe aliasing, but catastrophic when it
    /// happens), the buffer is *leaked* instead of pooled or dropped:
    /// pooling it would hand the same storage to two `take` calls, and
    /// dropping it would double-free. The event is counted in
    /// [`Workspace::alias_hazards`].
    ///
    /// Serving policy: pooling past `MAX_POOLED` drops the incoming
    /// buffer; pooling past the byte budget evicts the oldest pooled
    /// buffers until the total fits again (the incoming buffer itself is
    /// evicted last, so a buffer larger than the whole budget is never
    /// retained).
    ///
    /// Training policy: a buffer this workspace lent ends its loan and is
    /// pooled, which leaves the memory it holds unchanged; storage it never
    /// lent — another workspace's buffer, or a fresh `Vec` — is pooled only
    /// while the cap has room for it.
    pub fn give(&mut self, buf: Vec<f32>) {
        match &mut self.policy {
            Policy::Serving(p) => p.give(buf),
            Policy::Training(p) => p.give(buf),
        }
    }
}

/// The serving policy; see the module docs.
struct BestFit {
    /// Front = oldest (first evicted), back = most recently recycled.
    pool: VecDeque<Vec<f32>>,
    pooled_bytes: usize,
    byte_budget: usize,
    alias_hazards: usize,
    /// Bytes of buffers currently out on loan (taken, not yet returned).
    live_bytes: usize,
    /// Highest `live_bytes` ever observed — the measured peak the static
    /// cost model's predicted `workspace_peak` must dominate.
    high_water_bytes: usize,
    misses: usize,
}

impl BestFit {
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_raw(len);
        buf.truncate(len);
        buf.iter_mut().for_each(|v| *v = 0.0);
        buf.resize(len, 0.0);
        self.loan(len);
        buf
    }

    fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_raw(len);
        buf.truncate(len);
        buf.resize(len, 0.0);
        self.loan(len);
        buf
    }

    fn loan(&mut self, len: usize) {
        self.live_bytes += len * std::mem::size_of::<f32>();
        self.high_water_bytes = self.high_water_bytes.max(self.live_bytes);
    }

    fn take_raw(&mut self, len: usize) -> Vec<f32> {
        // best fit: smallest pooled capacity >= len, else the largest
        // pooled buffer (its capacity grows once and then sticks)
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        let mut largest: Option<(usize, usize)> = None;
        for (i, b) in self.pool.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len {
                if best.is_none_or(|(_, c)| cap < c) {
                    best = Some((i, cap));
                }
            } else if largest.is_none_or(|(_, c)| cap > c) {
                largest = Some((i, cap));
            }
        }
        match best.or(largest) {
            Some((i, _)) => {
                let buf = self.pool.remove(i).expect("index from enumerate");
                self.pooled_bytes -= buf.capacity() * std::mem::size_of::<f32>();
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    fn give(&mut self, buf: Vec<f32>) {
        // saturating: storage that was never taken from this workspace
        // (fresh Vecs, another pool's buffers) can legitimately be given
        self.live_bytes = self.live_bytes.saturating_sub(buf.len() * std::mem::size_of::<f32>());
        if buf.capacity() == 0 {
            return;
        }
        let ptr = buf.as_ptr();
        if self.pool.iter().any(|b| b.as_ptr() == ptr) {
            self.alias_hazards += 1;
            std::mem::forget(buf);
            return;
        }
        if self.pool.len() >= MAX_POOLED {
            return;
        }
        self.pooled_bytes += buf.capacity() * std::mem::size_of::<f32>();
        self.pool.push_back(buf);
        while self.pooled_bytes > self.byte_budget {
            match self.pool.pop_front() {
                Some(old) => {
                    self.pooled_bytes -= old.capacity() * std::mem::size_of::<f32>();
                }
                None => break,
            }
        }
    }
}

/// Bytes held by `elems` `f32`s.
fn bytes(elems: usize) -> usize {
    elems * std::mem::size_of::<f32>()
}

/// The training policy; see the module docs.
#[derive(Default)]
struct Capped {
    /// Pooled buffers by capacity in elements, each bucket in give order
    /// with its give sequence number.
    buckets: HashMap<usize, Vec<(u64, Vec<f32>)>>,
    /// Give sequence → capacity of every pooled buffer: the eviction order.
    order: BTreeMap<u64, usize>,
    /// The last give sequence number handed out.
    seq: u64,
    /// The length of every buffer on loan, by address.
    loans: HashMap<usize, usize>,
    pooled_bytes: usize,
    live_bytes: usize,
    high_water_bytes: usize,
    alias_hazards: usize,
    misses: usize,
}

impl Capped {
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let buf = match self.take_pooled(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => self.allocate(len),
        };
        self.lend(buf)
    }

    fn take(&mut self, len: usize) -> Vec<f32> {
        let buf = match self.take_pooled(len) {
            // a pooled buffer given back shorter than its capacity is
            // zero-filled past its length
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => self.allocate(len),
        };
        self.lend(buf)
    }

    /// The most recently given pooled buffer of capacity `len`, out of
    /// the pool.
    fn take_pooled(&mut self, len: usize) -> Option<Vec<f32>> {
        let (seq, buf) = self.buckets.get_mut(&len)?.pop()?;
        self.order.remove(&seq);
        self.pooled_bytes -= bytes(len);
        Some(buf)
    }

    /// A fresh zeroed buffer of `len` elements, after evicting pooled
    /// buffers until the cap has room for it.
    fn allocate(&mut self, len: usize) -> Vec<f32> {
        self.misses += 1;
        let cap = self.high_water_bytes.max(self.live_bytes + bytes(len));
        while self.pooled_bytes > 0 && self.pooled_bytes + self.live_bytes + bytes(len) > cap {
            self.evict_newest();
        }
        vec![0.0; len]
    }

    /// Record `buf` as lent and hand it out.
    fn lend(&mut self, buf: Vec<f32>) -> Vec<f32> {
        if buf.capacity() == 0 {
            return buf;
        }
        // an earlier loan at this address left for good and was freed
        if let Some(len) = self.loans.insert(buf.as_ptr() as usize, buf.len()) {
            self.live_bytes -= bytes(len);
        }
        self.live_bytes += bytes(buf.len());
        self.high_water_bytes = self.high_water_bytes.max(self.live_bytes);
        buf
    }

    fn evict_newest(&mut self) {
        let Some((seq, cap)) = self.order.pop_last() else { return };
        let bucket = self.buckets.get_mut(&cap).expect("ordered buffers are pooled");
        let (newest, _) = bucket.pop().expect("ordered buffers are pooled");
        debug_assert_eq!(newest, seq, "buckets hold their buffers in give order");
        self.pooled_bytes -= bytes(cap);
    }

    fn give(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let addr = buf.as_ptr() as usize;
        match self.loans.remove(&addr) {
            Some(len) => self.live_bytes -= bytes(len),
            None => {
                let pooled = self.buckets.get(&cap);
                if pooled.is_some_and(|b| b.iter().any(|(_, p)| p.as_ptr() as usize == addr)) {
                    self.alias_hazards += 1;
                    std::mem::forget(buf);
                    return;
                }
            }
        }
        self.seq += 1;
        self.order.insert(self.seq, cap);
        self.buckets.entry(cap).or_default().push((self.seq, buf));
        self.pooled_bytes += bytes(cap);
        while self.pooled_bytes > 0 && self.pooled_bytes + self.live_bytes > self.high_water_bytes {
            self.evict_newest();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: usize = std::mem::size_of::<f32>();

    /// `ws` with one buffer of each length taken, filled with `value` and
    /// given back: pooled under either policy.
    fn dirty(mut ws: Workspace, lens: &[usize], value: f32) -> Workspace {
        let bufs: Vec<Vec<f32>> = lens.iter().map(|&n| ws.take(n)).collect();
        for mut b in bufs {
            b.fill(value);
            ws.give(b);
        }
        ws
    }

    #[test]
    fn take_zeroed_is_zero_after_recycling_dirty_buffer() {
        let mut ws = Workspace::new();
        ws.give(vec![7.0; 64]);
        let buf = ws.take_zeroed(32);
        assert_eq!(buf.len(), 32);
        assert!(buf.iter().all(|&v| v == 0.0));
        // training: only a buffer of the same length is reused
        let mut ws = dirty(Workspace::for_training(), &[32], 7.0);
        let buf = ws.take_zeroed(32);
        assert_eq!(buf.len(), 32);
        assert!(buf.iter().all(|&v| v == 0.0));
        assert_eq!(ws.misses(), 1, "the zeroed take reused the pooled buffer");
    }

    #[test]
    fn take_skips_the_memset_and_keeps_recycled_contents() {
        // pins the dirty-reuse contract the GEMM pack buffers and the
        // kernels rely on: `take` must not pay a zeroing pass over reused
        // storage (only growth past the recycled length may be zero-filled)
        let mut ws = Workspace::new();
        ws.give(vec![7.0; 64]);
        let buf = ws.take(32);
        assert_eq!(buf.len(), 32);
        assert!(buf.iter().all(|&v| v == 7.0), "recycled contents must survive take");
        ws.give(buf);
        let grown = ws.take(96);
        assert!(grown[..32].iter().all(|&v| v == 7.0));
        assert!(grown[32..].iter().all(|&v| v == 0.0), "growth is zero-filled");
        // training: the same length keeps its contents, another one is a
        // fresh, zeroed allocation
        let mut ws = dirty(Workspace::for_training(), &[32], 7.0);
        let buf = ws.take(32);
        assert!(buf.iter().all(|&v| v == 7.0), "recycled contents must survive take");
        assert!(ws.take(96).iter().all(|&v| v == 0.0));
        assert_eq!(ws.misses(), 2);
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        let mut ws = Workspace::new();
        ws.give(Vec::with_capacity(100));
        let buf = ws.take(80);
        assert!(buf.capacity() >= 100, "expected the pooled buffer back");
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.pooled_bytes(), 0);
        ws.give(buf);
        assert_eq!(ws.pooled(), 1);
        assert_eq!(ws.misses(), 0);
        let mut ws = Workspace::for_training();
        let buf = ws.take(80);
        let ptr = buf.as_ptr();
        ws.give(buf);
        assert_eq!((ws.pooled(), ws.pooled_bytes()), (1, 80 * F));
        let again = ws.take(80);
        assert_eq!(again.as_ptr(), ptr, "expected the pooled buffer back");
        assert_eq!((ws.pooled(), ws.pooled_bytes()), (0, 0));
        assert_eq!(ws.misses(), 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        ws.give(Vec::with_capacity(1000));
        ws.give(Vec::with_capacity(10));
        let buf = ws.take(8);
        assert!(buf.capacity() < 1000, "should have picked the small buffer");
    }

    #[test]
    fn training_pools_serve_their_own_capacity_only() {
        // no growth and no oversized loans: a pooled buffer is handed out
        // for exactly its capacity, never stretched or shared
        let mut ws = dirty(Workspace::for_training(), &[1000, 10], 1.0);
        let small = ws.take(8);
        assert_eq!(small.capacity(), 8, "a fresh buffer, not the pooled 10");
        let large = ws.take(1200);
        assert_eq!(large.capacity(), 1200, "a fresh buffer, not the pooled 1000 grown");
        assert_eq!(ws.misses(), 4);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..100 {
            ws.give(vec![0.0; 8]);
        }
        assert!(ws.pooled() <= MAX_POOLED);
    }

    #[test]
    fn pooled_bytes_tracks_capacity() {
        let mut ws = Workspace::new();
        ws.give(Vec::with_capacity(10));
        ws.give(Vec::with_capacity(6));
        assert_eq!(ws.pooled_bytes(), 16 * F);
        let _ = ws.take(10);
        assert_eq!(ws.pooled_bytes(), 6 * F);
        // training: lent buffers count as live bytes, pooled ones by
        // capacity, and a give moves one to the other
        let mut ws = Workspace::for_training();
        let a = ws.take(10);
        let b = ws.take(6);
        assert_eq!((ws.live_bytes(), ws.pooled_bytes()), (16 * F, 0));
        ws.give(a);
        assert_eq!((ws.live_bytes(), ws.pooled_bytes()), (6 * F, 10 * F));
        ws.give(b);
        assert_eq!((ws.live_bytes(), ws.pooled_bytes()), (0, 16 * F));
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        // budget fits exactly one of the two buffers
        let mut ws = Workspace::with_byte_budget(120 * F);
        ws.give(Vec::with_capacity(100)); // oldest
        ws.give(Vec::with_capacity(80)); // pushes total to 180 floats
        assert_eq!(ws.pooled(), 1, "oldest buffer must have been evicted");
        assert_eq!(ws.pooled_bytes(), 80 * F);
        // the survivor is the newer 80-capacity buffer
        let buf = ws.take(1);
        assert_eq!(buf.capacity(), 80);
    }

    #[test]
    fn a_training_allocation_evicts_the_newest_pooled_buffers_first() {
        let mut ws = dirty(Workspace::for_training(), &[100, 80, 60], 0.0);
        // the cap (240 floats) leaves no room for 50 more: the newest
        // pooled buffer (60) makes room
        let _fresh = ws.take(50);
        assert_eq!(ws.pooled_bytes(), 180 * F);
        assert!(ws.take(100).capacity() == 100 && ws.take(80).capacity() == 80);
        assert_eq!(ws.misses(), 4, "100 and 80 stayed pooled");
    }

    #[test]
    fn buffer_larger_than_budget_is_never_retained() {
        let mut ws = Workspace::with_byte_budget(64);
        ws.give(Vec::with_capacity(1000));
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.pooled_bytes(), 0);
        // training: foreign storage past the cap (here, an empty high
        // water) is not retained either
        let mut ws = Workspace::for_training();
        ws.give(vec![0.0; 1000]);
        assert_eq!((ws.pooled(), ws.pooled_bytes(), ws.live_bytes()), (0, 0, 0));
    }

    /// The long-running-server regression: hammer the pool with
    /// mixed-size takes and recycles (the ratcheting pattern where `take`
    /// grows the largest buffer when nothing fits) and assert residency
    /// stays under the high-water budget at every step.
    #[test]
    fn byte_budget_bounds_residency_under_mixed_load() {
        let budget = 4096; // 1024 floats
        let mut ws = Workspace::with_byte_budget(budget);
        let mut held: Vec<Vec<f32>> = Vec::new();
        for i in 0..2000usize {
            // deterministic mixed sizes, including occasional oversized
            // requests that exceed the whole budget on their own
            let len = match i % 7 {
                0 => 1500, // bigger than the budget
                k => 1 + (i * 37 + k * 113) % 900,
            };
            held.push(ws.take(len));
            if i % 3 == 0 {
                for b in held.drain(..) {
                    ws.give(b);
                }
            }
            assert!(
                ws.pooled_bytes() <= budget,
                "residency {} exceeded budget {budget} at step {i}",
                ws.pooled_bytes()
            );
            assert!(ws.pooled() <= MAX_POOLED);
        }
        for b in held.drain(..) {
            ws.give(b);
        }
        assert!(ws.pooled_bytes() <= budget);
        assert_eq!(ws.alias_hazards(), 0);
    }

    /// A training step's pattern: the forward takes each layer's output
    /// and holds it, after a short-lived temporary of the same size; the
    /// backward takes one gradient per layer in reverse order, each given
    /// back once the next one exists; then every output comes back. The
    /// per-length peaks add up to more than the high-water mark (the two
    /// lengths' gradient pairs peak at different times), so a few takes
    /// per cycle must miss, as about one in nine does in a DHGCN step.
    #[test]
    fn a_repeating_step_stays_under_its_high_water_and_is_served_from_the_pool() {
        let layers = [300usize, 300, 300, 300, 300, 100, 100, 100, 100, 100];
        let mut ws = Workspace::for_training();
        // lent buffers have exact capacities, so the memory the pool holds
        // is its pooled bytes plus its live bytes
        let check = |ws: &Workspace, bufs: &[&Vec<f32>]| {
            assert!(ws.pooled_bytes() + ws.live_bytes() <= ws.high_water_bytes());
            for b in bufs {
                assert_eq!(b.capacity(), b.len(), "a lent buffer was grown or oversized");
            }
        };
        let mut misses = Vec::new();
        for _ in 0..6 {
            let before = ws.misses();
            let mut held = Vec::new();
            for &n in &layers {
                let tmp = ws.take(n);
                check(&ws, &[&tmp]);
                ws.give(tmp);
                held.push(ws.take(n));
                check(&ws, &held.iter().collect::<Vec<_>>());
            }
            let mut grad = ws.take(*layers.last().unwrap());
            for &n in layers.iter().rev().skip(1) {
                let next = ws.take(n);
                check(&ws, &[&grad, &next]);
                ws.give(std::mem::replace(&mut grad, next));
            }
            ws.give(grad);
            for b in held.drain(..).rev() {
                ws.give(b);
            }
            check(&ws, &[]);
            assert_eq!(ws.live_bytes(), 0);
            misses.push(ws.misses() - before);
        }
        let takes = 3 * layers.len();
        assert!(misses[0] > 0 && misses[0] <= takes);
        assert!(
            misses[1..].iter().all(|&m| m * 5 <= takes && m < misses[0]),
            "steady-state cycles must be served from the pool: misses per cycle {misses:?} of {takes} takes"
        );
    }

    #[test]
    fn double_give_of_aliased_storage_is_counted_not_pooled() {
        for mut ws in [Workspace::new(), Workspace::for_training()] {
            let buf = ws.take(8);
            let (ptr, len, cap) = (buf.as_ptr() as *mut f32, buf.len(), buf.capacity());
            ws.give(buf);
            assert_eq!(ws.alias_hazards(), 0);
            // forge an alias of the pooled storage; `give` must refuse to
            // pool it (two pooled copies would alias future `take`s) and
            // must not drop it (that would double-free) — it leaks it and
            // counts
            // SAFETY: (ptr, len, cap) were captured from a live Vec whose
            // ownership moved into the pool; the forged alias is
            // immediately handed to `give`, which leaks it (never drops),
            // so the storage is freed exactly once, by the pooled original.
            let alias = unsafe { Vec::from_raw_parts(ptr, len, cap) };
            ws.give(alias);
            assert_eq!(ws.alias_hazards(), 1);
            assert_eq!(ws.pooled(), 1);
        }
    }

    #[test]
    fn high_water_tracks_peak_live_bytes() {
        for mut ws in [Workspace::new(), Workspace::for_training()] {
            let a = ws.take(100);
            let b = ws.take_zeroed(50);
            assert_eq!(ws.live_bytes(), 150 * F);
            assert_eq!(ws.high_water_bytes(), 150 * F);
            ws.give(a);
            assert_eq!(ws.live_bytes(), 50 * F);
            let c = ws.take(20);
            assert_eq!(ws.high_water_bytes(), 150 * F, "peak must not decay");
            ws.give(b);
            ws.give(c);
            assert_eq!(ws.live_bytes(), 0);
            // foreign storage given without a take must not underflow
            ws.give(vec![0.0; 1000]);
            assert_eq!(ws.live_bytes(), 0);
            assert_eq!(ws.high_water_bytes(), 150 * F);
        }
    }

    #[test]
    fn install_lends_the_workspace_to_the_thread_and_takes_it_back() {
        let mut ws = Workspace::new();
        ws.give(vec![3.0; 40]);
        let seen = ws.install(|| {
            // nested installs shadow and then restore the outer one
            let mut inner = Workspace::new();
            inner.install(|| assert_eq!(take_installed(8, true), Some(vec![0.0; 8])));
            let buf = take_installed(10, false).expect("outer restored");
            let seen = buf.capacity();
            give_installed(buf);
            seen
        });
        assert!(seen >= 40, "the pooled buffer was lent out");
        assert_eq!(ws.pooled(), 1, "and came back to the owner");
        assert!(take_installed(1, false).is_none(), "uninstalled afterwards");
        // a panic inside still uninstalls and returns the workspace
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ws.install(|| panic!("forward failed"))
        }));
        assert!(caught.is_err());
        assert!(take_installed(1, false).is_none());
        assert_eq!(ws.pooled(), 1);
        // a training workspace installs the same way
        let mut ws = dirty(Workspace::for_training(), &[40], 3.0);
        let seen = ws.install(|| {
            let buf = take_installed(40, false).expect("installed");
            let seen = buf[0];
            give_installed(buf);
            seen
        });
        assert_eq!(seen, 3.0, "the pooled buffer was lent out");
        assert_eq!(ws.pooled(), 1, "and came back to the owner");
    }
}
