//! Reusable scratch buffers for grad-free forward passes.
//!
//! Training forwards allocate a fresh buffer per op because every
//! intermediate must outlive the forward pass (the backward pass reads it).
//! Inference has no such constraint: intermediates die as soon as the next
//! op consumes them, so a small pool of recycled `Vec<f32>` buffers brings
//! the steady-state allocation count of a forward pass to (almost) zero.
//!
//! A [`Workspace`] is a plain best-fit free list. A serving session
//! installs its workspace on the calling thread for the duration of a
//! forward ([`Workspace::install`]): the [`crate::NdArray`] kernels then
//! `take` their output buffers from it, and each array built that way
//! gives its buffer back when it is dropped. Only buffers the workspace
//! handed out come back — request inputs and `clone`s are ordinary
//! allocations. Training never installs one, so its allocation is the
//! plain heap's. Buffers are `Vec<f32>`, so a workspace is cheap to create
//! and fully owned — dropping it frees everything.
//!
//! ## Residency bounds
//!
//! The pool is bounded two ways, because a long-running server must not
//! ratchet its memory upward forever:
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

use std::cell::RefCell;
use std::collections::VecDeque;

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

/// Upper bound on pooled buffers; beyond this, recycled buffers are simply
/// dropped. A model forward keeps only a handful of buffers alive at once,
/// so a small pool already gives a ~100% hit rate.
const MAX_POOLED: usize = 16;

/// Default high-water byte budget for pooled capacity (64 MiB). Far above
/// any steady-state forward of the CPU-scale zoo, low enough that a burst
/// of oversized requests cannot pin gigabytes in a serving process.
pub const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// A pool of reusable `f32` buffers for allocation-free inference.
pub struct Workspace {
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
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty workspace with the [`DEFAULT_BYTE_BUDGET`]. Buffers are
    /// created lazily on first use.
    pub fn new() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// An empty workspace whose pooled capacity never exceeds `budget`
    /// bytes (recycles past the high-water mark evict the oldest buffers,
    /// and a buffer larger than the whole budget is never pooled at all).
    pub fn with_byte_budget(budget: usize) -> Self {
        Workspace {
            pool: VecDeque::new(),
            pooled_bytes: 0,
            byte_budget: budget,
            alias_hazards: 0,
            live_bytes: 0,
            high_water_bytes: 0,
        }
    }

    /// Run `f` with this workspace installed on the calling thread, so
    /// the [`crate::NdArray`] kernels `f` runs draw their output buffers from it
    /// and the arrays they build give them back when dropped. The
    /// previous installation, if any, is restored afterwards, also when
    /// `f` panics. Arrays that outlive `f` free their storage normally.
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
        self.pool.len()
    }

    /// Total capacity currently pooled, in bytes (diagnostics only).
    /// Invariant: never exceeds [`Workspace::byte_budget`].
    pub fn pooled_bytes(&self) -> usize {
        self.pooled_bytes
    }

    /// The high-water byte budget this pool enforces.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Number of aliasing hazards caught by [`Workspace::give`]: attempts
    /// to return a buffer whose storage is already pooled. A non-zero
    /// count means some serving path recycled the same storage twice —
    /// the next two `take` calls would hand out aliased buffers and
    /// silently corrupt each other. The `analyze` binary's serving audit
    /// reads it from each zoo model's `InferenceSession` and fails on a
    /// non-zero count.
    pub fn alias_hazards(&self) -> usize {
        self.alias_hazards
    }

    /// Bytes currently out on loan: taken via [`Workspace::take`] /
    /// [`Workspace::take_zeroed`] and not yet given back. Buffers that
    /// enter the pool from outside (a `give` of storage this workspace
    /// never handed out) don't contribute.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// The highest [`Workspace::live_bytes`] ever observed — the runtime
    /// high-water mark the analyzer's predicted peak is validated against.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water_bytes
    }

    /// A buffer of exactly `len` elements, zero-filled. Reuses the pooled
    /// buffer whose capacity fits best, else allocates. Costs one memset of
    /// `len` elements — callers that overwrite every element (GEMM pack
    /// panels, matmul outputs) should use [`Workspace::take`] instead.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_raw(len);
        buf.truncate(len);
        buf.iter_mut().for_each(|v| *v = 0.0);
        buf.resize(len, 0.0);
        self.loan(len);
        buf
    }

    /// A buffer of exactly `len` elements with unspecified contents (the
    /// caller overwrites every element). Element values are whatever the
    /// recycled buffer held — never uninitialised memory — and, unlike
    /// [`Workspace::take_zeroed`], no memset is paid on reuse: only growth
    /// beyond the recycled length is zero-filled.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
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
            None => Vec::new(),
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
    /// Pooling past `MAX_POOLED` drops the incoming buffer; pooling past
    /// the byte budget evicts the oldest pooled buffers until the total
    /// fits again (the incoming buffer itself is evicted last, so a buffer
    /// larger than the whole budget is never retained).
    pub fn give(&mut self, buf: Vec<f32>) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_is_zero_after_recycling_dirty_buffer() {
        let mut ws = Workspace::new();
        ws.give(vec![7.0; 64]);
        let buf = ws.take_zeroed(32);
        assert_eq!(buf.len(), 32);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_skips_the_memset_and_keeps_recycled_contents() {
        // pins the dirty-reuse contract the GEMM pack buffers rely on:
        // `take` must not pay a zeroing pass over reused storage (only
        // growth past the recycled length may be zero-filled)
        let mut ws = Workspace::new();
        ws.give(vec![7.0; 64]);
        let buf = ws.take(32);
        assert_eq!(buf.len(), 32);
        assert!(buf.iter().all(|&v| v == 7.0), "recycled contents must survive take");
        ws.give(buf);
        let grown = ws.take(96);
        assert!(grown[..32].iter().all(|&v| v == 7.0));
        assert!(grown[32..].iter().all(|&v| v == 0.0), "growth is zero-filled");
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
        assert_eq!(ws.pooled_bytes(), 16 * std::mem::size_of::<f32>());
        let _ = ws.take(10);
        assert_eq!(ws.pooled_bytes(), 6 * std::mem::size_of::<f32>());
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        // budget fits exactly one of the two buffers
        let mut ws = Workspace::with_byte_budget(120 * std::mem::size_of::<f32>());
        ws.give(Vec::with_capacity(100)); // oldest
        ws.give(Vec::with_capacity(80)); // pushes total to 180 floats
        assert_eq!(ws.pooled(), 1, "oldest buffer must have been evicted");
        assert_eq!(ws.pooled_bytes(), 80 * std::mem::size_of::<f32>());
        // the survivor is the newer 80-capacity buffer
        let buf = ws.take(1);
        assert_eq!(buf.capacity(), 80);
    }

    #[test]
    fn buffer_larger_than_budget_is_never_retained() {
        let mut ws = Workspace::with_byte_budget(64);
        ws.give(Vec::with_capacity(1000));
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.pooled_bytes(), 0);
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

    #[test]
    fn double_give_of_aliased_storage_is_counted_not_pooled() {
        let mut ws = Workspace::new();
        let buf = vec![1.0f32; 8];
        let (ptr, len, cap) = (buf.as_ptr() as *mut f32, buf.len(), buf.capacity());
        ws.give(buf);
        assert_eq!(ws.alias_hazards(), 0);
        // forge an alias of the pooled storage; `give` must refuse to pool
        // it (two pooled copies would alias future `take`s) and must not
        // drop it (that would double-free) — it leaks it and counts
        // SAFETY: (ptr, len, cap) were captured from a live Vec whose
        // ownership moved into the pool; the forged alias is immediately
        // handed to `give`, which leaks it (never drops), so the storage
        // is freed exactly once, by the pooled original.
        let alias = unsafe { Vec::from_raw_parts(ptr, len, cap) };
        ws.give(alias);
        assert_eq!(ws.alias_hazards(), 1);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn high_water_tracks_peak_live_bytes() {
        let sz = std::mem::size_of::<f32>();
        let mut ws = Workspace::new();
        let a = ws.take(100);
        let b = ws.take_zeroed(50);
        assert_eq!(ws.live_bytes(), 150 * sz);
        assert_eq!(ws.high_water_bytes(), 150 * sz);
        ws.give(a);
        assert_eq!(ws.live_bytes(), 50 * sz);
        let c = ws.take(20);
        assert_eq!(ws.high_water_bytes(), 150 * sz, "peak must not decay");
        ws.give(b);
        ws.give(c);
        assert_eq!(ws.live_bytes(), 0);
        // foreign storage given without a take must not underflow
        ws.give(vec![0.0; 1000]);
        assert_eq!(ws.live_bytes(), 0);
        assert_eq!(ws.high_water_bytes(), 150 * sz);
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
    }
}
