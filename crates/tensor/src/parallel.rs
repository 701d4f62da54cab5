//! Data-parallel execution over a persistent worker pool (std-only).
//!
//! Every hot kernel in the workspace — batched [`crate::NdArray::matmul`],
//! `im2col`/`col2im`, the elementwise, broadcast, permute and bias sweeps
//! of [`crate::NdArray`], the training BatchNorm, the per-frame
//! dynamic-hypergraph construction in `dhg-hypergraph`, batch assembly in
//! `dhg-train` — funnels through the three primitives in this module:
//!
//! * [`for_each_block`] — split a flat output buffer into equally sized
//!   blocks and fill each block independently (matmul rows, `im2col` rows,
//!   per-frame operators, per-sample batch slots, BatchNorm rows).
//! * [`for_each_span`] — the ragged-span variant of [`for_each_block`]:
//!   consecutive spans of caller-chosen lengths (the packed GEMM's
//!   row-blocks, whose last block per batch is shorter; the elementwise
//!   kernels' fixed-length spans, whose last span is shorter).
//! * [`parallel_map`] — compute `n` independent values and return them in
//!   index order (hyperedge lists, per-sample topology operators,
//!   pre-assembled minibatches).
//!
//! ## Determinism guarantee
//!
//! The primitives are *bitwise deterministic*: every output element is
//! produced by exactly one invocation of the caller's closure with exactly
//! the same arguments regardless of the thread count. Threads only decide
//! *who* computes a block, never *how* — there are no shared accumulators,
//! no atomics-order-dependent reductions, and no per-thread scratch that
//! could reassociate floating-point sums. `threads = 1` (or a problem below
//! [`MIN_PARALLEL_WORK`]) degenerates to the plain serial loop.
//!
//! ## The worker pool
//!
//! A region with `n` threads splits its items into `n` contiguous shards
//! (`shard_end`), runs shard 0 on the calling thread and hands shards
//! `1..n` to that thread's pool workers, and returns once every shard has
//! finished. Each calling thread owns its workers: they are spawned the
//! first time one of its regions needs them and live until the thread
//! exits, so concurrent callers — test threads, serve workers — never
//! share one, and a region costs about a microsecond to open instead of an
//! OS thread spawn per shard.
//!
//! A worker that has finished its shard waits for the next in two stages:
//! it yields its CPU ([`std::thread::yield_now`]) up to `WAIT_YIELDS`
//! times, about 4.5 ms at the 0.22 µs a yield took on a 2-vCPU Xeon VM,
//! and then parks on a condition variable until a region wakes it. A
//! training step opens its regions well within that window, so its
//! workers rarely pay a wake-up; yielding rather than spinning hands the
//! CPU to any thread that shares it; parking stops an idle pool from
//! burning CPU at all. The caller waits for its workers the same way. Both
//! waits count iterations, not time: this crate reads no clock.
//!
//! A panic in any shard is caught on the thread that ran it, every other
//! shard still runs to completion, and the payload is re-raised on the
//! caller with [`std::panic::resume_unwind`]. The workers survive it, so
//! the pool stays usable.
//!
//! ## Thread-count resolution
//!
//! 1. a [`with_threads`] override active on the calling thread, else
//! 2. the `DHGCN_THREADS` environment variable (a positive integer no
//!    larger than [`MAX_ENV_THREADS`]), else
//! 3. [`std::thread::available_parallelism`].
//!
//! A malformed `DHGCN_THREADS` — `0`, non-numeric garbage, or an absurdly
//! large value that would fork-bomb the process — never panics and never
//! produces a zero-thread pool: it falls back to
//! [`std::thread::available_parallelism`] and prints a one-time warning to
//! stderr (once per process, not once per kernel launch — a long-running
//! server must not spam its log from every forward pass).
//!
//! Shards run with parallelism suppressed, so closures may freely call
//! back into parallel kernels (e.g. the per-frame operator build calls
//! `matmul`): a nested region runs serially on the thread that opened it.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread;

/// Problems whose estimated scalar-op count falls below this run serially:
/// opening a region costs about a microsecond of hand-off and wake-up,
/// which only amortises once there is real work to split. A DHGCN
/// training step at 2 threads on a 2-vCPU Xeon VM took the same time with
/// 2^16 and with 2^18 here, and a quarter longer with 2^20.
pub const MIN_PARALLEL_WORK: usize = 1 << 18;

/// How many times a waiting pool thread yields its CPU before it parks on
/// its condition variable (see "The worker pool" in the module docs).
const WAIT_YIELDS: usize = 20_000;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// The workers that run this thread's shards `1..`, in shard order.
    static WORKERS: RefCell<Vec<Worker>> = const { RefCell::new(Vec::new()) };
}

/// Restores the previous thread-count override when dropped (panic-safe).
struct OverrideGuard(Option<usize>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.0));
    }
}

fn set_override(n: Option<usize>) -> OverrideGuard {
    OverrideGuard(THREAD_OVERRIDE.with(|o| o.replace(n)))
}

/// The shard guard: nested parallel regions inside a shard run serially
/// instead of fanning out a second time.
fn suppress_nested() -> OverrideGuard {
    set_override(Some(1))
}

/// Largest thread count accepted from the `DHGCN_THREADS` environment
/// variable. Anything above this is treated as a configuration mistake
/// (e.g. a byte count pasted into the wrong variable) rather than a real
/// request for thousands of pool workers per calling thread.
pub const MAX_ENV_THREADS: usize = 512;

/// The hardware fallback: [`std::thread::available_parallelism`], or 1
/// when even that cannot be determined.
fn default_threads() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Validate a raw `DHGCN_THREADS` value. `Ok(n)` for `1..=MAX_ENV_THREADS`;
/// `Err(reason)` for everything a long-running process must survive:
/// zero, negative, non-numeric, empty, and absurdly large values.
fn parse_env_threads(raw: &str) -> Result<usize, &'static str> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("zero threads is meaningless"),
        Ok(n) if n > MAX_ENV_THREADS => Err("absurdly large"),
        Ok(n) => Ok(n),
        Err(_) => Err("not a positive integer"),
    }
}

/// The number of worker threads a parallel region started on this thread
/// would use: a [`with_threads`] override if active, else a *valid*
/// `DHGCN_THREADS` (see [`MAX_ENV_THREADS`]), else
/// [`std::thread::available_parallelism`]. Always at least 1. An invalid
/// environment value warns once per process and falls back.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(s) = std::env::var("DHGCN_THREADS") {
        match parse_env_threads(&s) {
            Ok(n) => return n,
            Err(why) => {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "dhg-tensor: ignoring DHGCN_THREADS={s:?} ({why}); \
                         falling back to {} thread(s)",
                        default_threads()
                    );
                });
            }
        }
    }
    default_threads()
}

/// Run `f` with the thread count pinned to `n` (at least 1) on the current
/// thread, restoring the previous setting afterwards. This is how the
/// determinism suite compares `threads ∈ {1, 2, 8}` without racing on the
/// process-global environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = set_override(Some(n.max(1)));
    f()
}

/// End of shard `i` when `n` items are split over `parts` shards: shards
/// are contiguous, cover `0..n`, and differ in size by at most one.
#[inline]
fn shard_end(n: usize, parts: usize, i: usize) -> usize {
    // parts and i are small (thread counts), so n * i cannot overflow for
    // any buffer that fits in memory
    n * i / parts
}

/// How many threads to actually use for `n_items` items of `work` total
/// estimated scalar operations.
fn plan(n_items: usize, work: usize) -> usize {
    if n_items <= 1 || work < MIN_PARALLEL_WORK {
        return 1;
    }
    num_threads().min(n_items)
}

/// A shard handed to a worker.
type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A panic payload carried from the thread that panicked to the caller.
type Panic = Box<dyn Any + Send + 'static>;

/// The `posted` generation that tells a worker to exit.
const EXIT: u64 = u64::MAX;

/// `m`'s guard, also when a panic elsewhere poisoned it: nothing the pool
/// guards is left half-updated by a panic, because shards never run under
/// a pool lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's side of the hand-off. The caller stores a task in `slot`
/// and bumps `posted`; the worker runs it, files its panic in `slot` and
/// stores the same generation in `done`.
struct Mailbox {
    /// Generation of the last task posted. Stored with `Release` after the
    /// task is in `slot`, loaded with `Acquire` by the worker.
    posted: AtomicU64,
    /// Generation of the last task finished. Stored with `Release` after
    /// the task returned, loaded with `Acquire` by the caller, so the
    /// caller sees every element the task wrote.
    done: AtomicU64,
    slot: Mutex<Slot>,
    /// How many threads (the worker, its caller) are parked on `wake`.
    parked: Mutex<usize>,
    wake: Condvar,
}

#[derive(Default)]
struct Slot {
    task: Option<Task<'static>>,
    panic: Option<Panic>,
}

impl Mailbox {
    /// Return once `ready()` holds: yield up to [`WAIT_YIELDS`] times, then
    /// park until [`Mailbox::wake`].
    fn wait(&self, ready: impl Fn() -> bool) {
        for _ in 0..WAIT_YIELDS {
            if ready() {
                return;
            }
            thread::yield_now();
        }
        let mut parked = lock(&self.parked);
        *parked += 1;
        while !ready() {
            parked = self.wake.wait(parked).unwrap_or_else(PoisonError::into_inner);
        }
        *parked -= 1;
    }

    /// Wake the threads parked in [`Mailbox::wait`], after the caller made
    /// their condition true. A waiter registers and re-checks under
    /// `parked`, so it either is counted here or sees the new state.
    fn wake(&self) {
        if *lock(&self.parked) > 0 {
            self.wake.notify_all();
        }
    }
}

/// A worker's loop: run each posted task, report it done, and exit when
/// asked to.
fn work(mailbox: Arc<Mailbox>) {
    // every region a task opens runs serially on this thread
    THREAD_OVERRIDE.with(|o| o.set(Some(1)));
    let mut seen = 0;
    loop {
        mailbox.wait(|| mailbox.posted.load(Ordering::Acquire) != seen);
        seen = mailbox.posted.load(Ordering::Acquire);
        if seen == EXIT {
            return;
        }
        let task = lock(&mailbox.slot).task.take();
        if let Some(task) = task {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
                lock(&mailbox.slot).panic = Some(payload);
            }
        }
        mailbox.done.store(seen, Ordering::Release);
        mailbox.wake();
    }
}

/// The calling thread's handle on one pool worker; dropping it tells the
/// worker to exit and joins it.
struct Worker {
    mailbox: Arc<Mailbox>,
    /// Generation of the last task posted to it.
    posted: Cell<u64>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Worker {
    /// Start worker `index`, or `None` if the OS refuses another thread.
    fn spawn(index: usize) -> Option<Worker> {
        let mailbox = Arc::new(Mailbox {
            posted: AtomicU64::new(0),
            done: AtomicU64::new(0),
            slot: Mutex::default(),
            parked: Mutex::new(0),
            wake: Condvar::new(),
        });
        let theirs = Arc::clone(&mailbox);
        let thread = thread::Builder::new()
            .name(format!("dhg-pool-{index}"))
            .spawn(move || work(theirs))
            .ok()?;
        Some(Worker { mailbox, posted: Cell::new(0), thread: Some(thread) })
    }

    fn post(&self, task: Task<'static>) {
        let generation = self.posted.get() + 1;
        self.posted.set(generation);
        lock(&self.mailbox.slot).task = Some(task);
        self.mailbox.posted.store(generation, Ordering::Release);
        self.mailbox.wake();
    }

    /// Block until the last posted task has finished; its panic, if any.
    fn finish(&self) -> Option<Panic> {
        let generation = self.posted.get();
        self.mailbox.wait(|| self.mailbox.done.load(Ordering::Acquire) == generation);
        lock(&self.mailbox.slot).panic.take()
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.mailbox.posted.store(EXIT, Ordering::Release);
        self.mailbox.wake();
        // a worker runs its tasks under `catch_unwind`, so it ends cleanly
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The workers of one region that hold a task. [`Busy::join`] waits for
/// them, and so does dropping it, also while the caller unwinds: no task
/// outlives the region that posted it.
struct Busy<'w> {
    workers: &'w [Worker],
}

impl Busy<'_> {
    /// Wait for every busy worker; the first panic among their tasks.
    fn join(&mut self) -> Option<Panic> {
        let mut first = None;
        for w in mem::take(&mut self.workers) {
            let panic = w.finish();
            first = first.or(panic);
        }
        first
    }
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.join();
    }
}

/// Run `mine` on the calling thread and each of `tasks` on a pool worker,
/// and return once all of them have finished; the first panic among them
/// is re-raised here. Tasks no worker can take — the OS refused a thread,
/// or a task of this thread's own region opened a region of its own with
/// [`with_threads`] — run on the calling thread after `mine`.
fn run_region<'a>(tasks: Vec<Task<'a>>, mine: impl FnOnce()) {
    let _serial = suppress_nested();
    let mut pending = Some((tasks, mine));
    let _ = WORKERS.try_with(|cell| {
        if let Ok(mut workers) = cell.try_borrow_mut() {
            if let Some((tasks, mine)) = pending.take() {
                while workers.len() < tasks.len() {
                    match Worker::spawn(workers.len()) {
                        Some(w) => workers.push(w),
                        None => break,
                    }
                }
                dispatch(&workers, tasks, mine);
            }
        }
    });
    if let Some((tasks, mine)) = pending {
        mine();
        tasks.into_iter().for_each(|task| task());
    }
}

/// [`run_region`] over workers it has already spawned.
fn dispatch<'a>(workers: &[Worker], tasks: Vec<Task<'a>>, mine: impl FnOnce()) {
    let mut busy = Busy { workers: &[] };
    let mut tasks = tasks.into_iter();
    for (i, task) in tasks.by_ref().take(workers.len()).enumerate() {
        busy.workers = &workers[..=i];
        // SAFETY: erasing 'a lets a worker hold a task that borrows the
        // caller's frame. It never runs after 'a ends: `busy` covers this
        // worker before the post and blocks until each covered task has
        // finished, in `join` below and in its `Drop` if this unwinds, and
        // a worker drops its task before it reports it done.
        let task = unsafe { mem::transmute::<Task<'a>, Task<'static>>(task) };
        workers[i].post(task);
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(|| {
        mine();
        tasks.for_each(|task| task());
    }));
    let theirs = busy.join();
    if let Some(payload) = mine.err().or(theirs) {
        panic::resume_unwind(payload);
    }
}

/// Call `run` on every shard — shard 0 on the calling thread, the others
/// on its pool workers — and return once all have finished.
fn run_shards<S: Send>(shards: Vec<S>, run: impl Fn(S) + Sync) {
    let run = &run;
    let mut shards = shards.into_iter();
    let Some(first) = shards.next() else { return };
    let tasks: Vec<Task<'_>> = shards.map(|s| Box::new(move || run(s)) as Task<'_>).collect();
    run_region(tasks, || run(first));
}

/// Split `out` into consecutive blocks of `block` elements and call
/// `f(block_index, block)` for each, sharding blocks over the worker pool.
///
/// `work` is the caller's estimate of the total scalar-op count; problems
/// below [`MIN_PARALLEL_WORK`] (or with one thread) run the plain serial
/// loop. Each block is written by exactly one closure invocation, so the
/// result is bitwise identical at every thread count.
///
/// Panics if `out` is non-empty and its length is not a multiple of
/// `block`.
pub fn for_each_block<F>(out: &mut [f32], block: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(block > 0, "for_each_block: zero block size");
    assert_eq!(out.len() % block, 0, "for_each_block: buffer not a multiple of block");
    let n_items = out.len() / block;
    let fill = |item0: usize, shard: &mut [f32]| {
        for (k, blk) in shard.chunks_mut(block).enumerate() {
            f(item0 + k, blk);
        }
    };
    let nt = plan(n_items, work);
    if nt <= 1 {
        return fill(0, out);
    }
    let mut shards = Vec::with_capacity(nt);
    let mut rest = out;
    for t in 0..nt {
        let (i0, i1) = (shard_end(n_items, nt, t), shard_end(n_items, nt, t + 1));
        let (shard, tail) = mem::take(&mut rest).split_at_mut((i1 - i0) * block);
        shards.push((i0, shard));
        rest = tail;
    }
    run_shards(shards, |(i0, shard)| fill(i0, shard));
}

/// Split `out` into consecutive *ragged* spans and call `f(span_index,
/// span)` for each, sharding spans over the worker pool. `ends[i]` is the
/// exclusive element offset where span `i` stops; spans therefore cover
/// `0..out.len()` contiguously and may differ in length (the packed GEMM
/// shards row-blocks whose last block per batch is shorter).
///
/// Same `work` threshold and bitwise-determinism contract as
/// [`for_each_block`]: each span is written by exactly one closure
/// invocation with the same arguments at every thread count.
///
/// Panics unless `ends` is non-decreasing and its last entry equals
/// `out.len()`.
pub fn for_each_span<F>(out: &mut [f32], ends: &[usize], work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() && ends.is_empty() {
        return;
    }
    assert_eq!(
        ends.last().copied(),
        Some(out.len()),
        "for_each_span: ends must finish at the buffer length"
    );
    assert!(ends.windows(2).all(|w| w[0] <= w[1]), "for_each_span: ends must be non-decreasing");
    let offset = |item: usize| if item == 0 { 0 } else { ends[item - 1] };
    // spans i0..i1, laid out in `shard` from offset(i0) on
    let fill = |items: Range<usize>, shard: &mut [f32]| {
        let base = offset(items.start);
        let mut start = 0;
        for i in items {
            let end = ends[i] - base;
            f(i, &mut shard[start..end]);
            start = end;
        }
    };
    let n_items = ends.len();
    let nt = plan(n_items, work);
    if nt <= 1 {
        return fill(0..n_items, out);
    }
    let mut shards = Vec::with_capacity(nt);
    let mut rest = out;
    for t in 0..nt {
        let (i0, i1) = (shard_end(n_items, nt, t), shard_end(n_items, nt, t + 1));
        let (shard, tail) = mem::take(&mut rest).split_at_mut(offset(i1) - offset(i0));
        shards.push((i0..i1, shard));
        rest = tail;
    }
    run_shards(shards, |(items, shard)| fill(items, shard));
}

/// Compute `f(0), f(1), …, f(n-1)` sharded over the worker pool and return
/// the results in index order. Same `work` threshold and determinism
/// contract as [`for_each_block`].
pub fn parallel_map<T, F>(n: usize, work: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let nt = plan(n, work);
    if nt <= 1 {
        return (0..n).map(f).collect();
    }
    let mut parts: Vec<Vec<T>> = (0..nt).map(|_| Vec::new()).collect();
    let shards: Vec<(Range<usize>, &mut Vec<T>)> = parts
        .iter_mut()
        .enumerate()
        .map(|(t, part)| (shard_end(n, nt, t)..shard_end(n, nt, t + 1), part))
        .collect();
    run_shards(shards, |(items, part)| *part = items.map(&f).collect());
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Large enough to clear MIN_PARALLEL_WORK regardless of item count.
    const BIG: usize = MIN_PARALLEL_WORK * 4;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(5, || assert_eq!(num_threads(), 5));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn env_thread_parsing_accepts_sane_values() {
        assert_eq!(parse_env_threads("1"), Ok(1));
        assert_eq!(parse_env_threads("8"), Ok(8));
        assert_eq!(parse_env_threads("  16 "), Ok(16)); // whitespace tolerated
        assert_eq!(parse_env_threads("512"), Ok(512)); // boundary
    }

    #[test]
    fn env_thread_parsing_rejects_hazards() {
        // every historical long-running-process hazard: zero-thread pools,
        // garbage, negatives, empties, and fork-bomb-sized requests
        assert!(parse_env_threads("0").is_err());
        assert!(parse_env_threads("-4").is_err());
        assert!(parse_env_threads("").is_err());
        assert!(parse_env_threads("eight").is_err());
        assert!(parse_env_threads("8.0").is_err());
        assert!(parse_env_threads("513").is_err());
        assert!(parse_env_threads("1000000").is_err());
        assert!(parse_env_threads("18446744073709551616").is_err()); // > u64
    }

    #[test]
    fn shards_are_contiguous_and_cover() {
        for n in [1usize, 7, 16, 1000] {
            for parts in [1usize, 2, 3, 8, 16] {
                assert_eq!(shard_end(n, parts, 0), 0);
                assert_eq!(shard_end(n, parts, parts), n);
                for i in 0..parts {
                    assert!(shard_end(n, parts, i) <= shard_end(n, parts, i + 1));
                }
            }
        }
    }

    #[test]
    fn for_each_block_matches_serial_loop() {
        let n_items = 103; // not a multiple of any thread count
        let block = 7;
        let fill = |i: usize, blk: &mut [f32]| {
            for (k, v) in blk.iter_mut().enumerate() {
                *v = (i * 31 + k) as f32 * 0.25 - 3.0;
            }
        };
        let mut serial = vec![0.0f32; n_items * block];
        for (i, blk) in serial.chunks_mut(block).enumerate() {
            fill(i, blk);
        }
        for threads in [1usize, 2, 5, 8] {
            let mut par = vec![0.0f32; n_items * block];
            with_threads(threads, || for_each_block(&mut par, block, BIG, fill));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_block_small_work_stays_serial_and_correct() {
        let mut out = vec![0.0f32; 8];
        // work far below the threshold: must still fill every block
        for_each_block(&mut out, 2, 4, |i, blk| blk.fill(i as f32));
        assert_eq!(out, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn for_each_block_empty_buffer_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        for_each_block(&mut out, 5, BIG, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "multiple of block")]
    fn for_each_block_misaligned_buffer_panics() {
        let mut out = vec![0.0f32; 7];
        for_each_block(&mut out, 2, BIG, |_, _| {});
    }

    #[test]
    fn for_each_span_matches_serial_loop() {
        // ragged spans: lengths cycle 1..=9, mimicking GEMM edge row-blocks
        let lens: Vec<usize> = (0..97).map(|i| i % 9 + 1).collect();
        let ends: Vec<usize> = lens
            .iter()
            .scan(0usize, |acc, &l| {
                *acc += l;
                Some(*acc)
            })
            .collect();
        let total = *ends.last().unwrap();
        let fill = |i: usize, span: &mut [f32]| {
            for (k, v) in span.iter_mut().enumerate() {
                *v = (i * 131 + k) as f32 * 0.5 - 7.0;
            }
        };
        let mut serial = vec![0.0f32; total];
        {
            let mut start = 0;
            for (i, &end) in ends.iter().enumerate() {
                fill(i, &mut serial[start..end]);
                start = end;
            }
        }
        for threads in [1usize, 2, 5, 8] {
            let mut par = vec![0.0f32; total];
            with_threads(threads, || for_each_span(&mut par, &ends, BIG, fill));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_span_allows_empty_spans() {
        let ends = [0usize, 2, 2, 5];
        let mut out = vec![0.0f32; 5];
        for_each_span(&mut out, &ends, 4, |i, span| {
            assert_eq!(span.len(), [0, 2, 0, 3][i]);
            span.fill(i as f32);
        });
        assert_eq!(out, vec![1.0, 1.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn for_each_span_empty_everything_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        for_each_span(&mut out, &[], BIG, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "finish at the buffer length")]
    fn for_each_span_bad_ends_panic() {
        let mut out = vec![0.0f32; 4];
        for_each_span(&mut out, &[1, 3], BIG, |_, _| {});
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 9] {
            let got = with_threads(threads, || parallel_map(257, BIG, |i| i * i));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_of_zero_items_is_empty() {
        let got: Vec<usize> = with_threads(4, || parallel_map(0, BIG, |i| i));
        assert!(got.is_empty());
    }

    /// How many pool workers the calling thread owns.
    fn workers_on_this_thread() -> usize {
        WORKERS.with(|w| w.borrow().len())
    }

    #[test]
    fn a_thousand_regions_keep_threads_minus_one_workers() {
        let serial: Vec<usize> = (0..64).map(|i| i * 3).collect();
        for threads in [2usize, 3] {
            with_threads(threads, || {
                for _ in 0..1000 {
                    assert_eq!(parallel_map(64, BIG, |i| i * 3), serial);
                }
            });
        }
        assert!(workers_on_this_thread() <= 2, "{} workers", workers_on_this_thread());
    }

    #[test]
    fn a_panicking_shard_propagates_and_the_pool_stays_usable() {
        let mut serial = vec![0.0f32; 64];
        for (i, v) in serial.iter_mut().enumerate() {
            *v = i as f32;
        }
        with_threads(3, || {
            // the panicking block lies in the last shard, on a worker
            let caught = std::panic::catch_unwind(|| {
                let mut out = vec![0.0f32; 64];
                for_each_block(&mut out, 1, BIG, |i, b| {
                    assert_ne!(i, 60, "boom at 60");
                    b[0] = i as f32;
                });
            });
            let message = caught.expect_err("the shard's panic must reach the caller");
            assert!(message.downcast_ref::<String>().is_some_and(|m| m.contains("boom at 60")));
            let mut out = vec![0.0f32; 64];
            for_each_block(&mut out, 1, BIG, |i, b| b[0] = i as f32);
            assert_eq!(out, serial);
        });
    }

    #[test]
    fn concurrent_callers_each_get_serial_results() {
        let serial: Vec<u64> = (0..301u64).map(|i| i * i + 7).collect();
        std::thread::scope(|s| {
            for caller in 0..4usize {
                let serial = &serial;
                s.spawn(move || {
                    for round in 0..200 {
                        let threads = 2 + (caller + round) % 2;
                        let got = with_threads(threads, || {
                            parallel_map(301, BIG, |i| (i * i) as u64 + 7)
                        });
                        assert_eq!(&got, serial, "caller {caller}, round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn more_threads_than_cores_finish() {
        let mut out = vec![0.0f32; 8 * 16];
        with_threads(8, || {
            for _ in 0..50 {
                for_each_block(&mut out, 16, BIG, |i, b| b.fill(i as f32));
            }
        });
        let want: Vec<f32> = (0..8 * 16).map(|k| (k / 16) as f32).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn nested_regions_inside_workers_run_serially() {
        // each worker observes num_threads() == 1, proving nested calls
        // cannot spawn a second generation of threads
        let inner: Vec<usize> = with_threads(4, || parallel_map(8, BIG, |_| num_threads()));
        assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_map(16, BIG, |i| {
                    if i == 13 {
                        panic!("boom at 13");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
    }
}
