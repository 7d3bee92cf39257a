//! The deterministic parallel campaign scheduler.
//!
//! The paper's economic argument (§4.1) is that many *cheap* verification
//! runs beat one late batch run — and campaign work items (per-block
//! proofs, per-block fault sweeps) are already independent: seeds are
//! derived per cell, cache keys are content hashes, and nothing in a work
//! item's body touches shared mutable state. This module supplies the
//! missing piece: a worker pool that executes the items concurrently
//! while keeping the *observable output identical to the serial run*.
//!
//! The determinism contract, relied on by `scripts/check.sh` and the
//! property tests:
//!
//! 1. **Self-scheduling pool.** Workers claim items from one shared
//!    atomic cursor, so an idle worker steals the next unclaimed item
//!    instead of waiting behind a static partition. Which worker runs
//!    which item varies run to run — and must not matter.
//! 2. **Plan-order merge.** Every result is slotted by its *item index*,
//!    never by completion order; the assembled vector is
//!    indistinguishable from a serial for-loop's output.
//! 3. **Single-writer side effects.** Work items are pure; anything
//!    stateful (cache insertion, cache persistence, report assembly)
//!    happens after the join, on the calling thread, in plan order.
//!
//! The pool size comes from [`resolve_workers`]: an explicit request, the
//! `DFV_WORKERS` environment override, or `available_parallelism`.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dfv_obs::ObsHook;

/// Environment variable overriding the worker count for every campaign
/// in the process (useful for `scripts/check.sh` style A/B runs).
pub const WORKERS_ENV: &str = "DFV_WORKERS";

/// Upper bound on the worker-pool size. A `DFV_WORKERS` override beyond
/// this (a typo like `44444`, or an outright overflow) falls back to the
/// default rather than spawning a machine-crushing number of threads.
pub const MAX_WORKERS: usize = 4096;

/// Resolves the worker count for a campaign run.
///
/// Priority: the `DFV_WORKERS` environment variable (when set to an
/// integer in `1..=`[`MAX_WORKERS`]), then the explicit `requested`
/// option, then [`std::thread::available_parallelism`]. Always at least 1.
/// An unusable override (zero, garbage, out of range) is *ignored*, not
/// obeyed and not fatal — use [`resolve_workers_with`] to also record the
/// fallback as a warning event.
pub fn resolve_workers(requested: Option<usize>) -> usize {
    resolve_workers_from(
        std::env::var(WORKERS_ENV).ok().as_deref(),
        requested,
        &ObsHook::default(),
    )
}

/// [`resolve_workers`] that records a `core.sched.workers_fallback` event
/// through `obs` when the environment override was unusable.
pub fn resolve_workers_with(requested: Option<usize>, obs: &ObsHook) -> usize {
    resolve_workers_from(std::env::var(WORKERS_ENV).ok().as_deref(), requested, obs)
}

/// The resolution logic itself, with the environment value injected —
/// testable without mutating the process-global environment.
pub fn resolve_workers_from(env: Option<&str>, requested: Option<usize>, obs: &ObsHook) -> usize {
    if let Some(s) = env {
        match s.trim().parse::<usize>() {
            Ok(n) if (1..=MAX_WORKERS).contains(&n) => return n,
            Ok(n) => obs.event(dfv_obs::kinds::SCHED_WORKERS_FALLBACK, || {
                format!("{WORKERS_ENV}={n} out of range 1..={MAX_WORKERS}; using default")
            }),
            Err(_) => obs.event(dfv_obs::kinds::SCHED_WORKERS_FALLBACK, || {
                format!("{WORKERS_ENV}={s:?} is not an integer; using default")
            }),
        }
    }
    match requested {
        Some(n) => n.clamp(1, MAX_WORKERS),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Canonicalizes a panic payload into deterministic, single-line text.
///
/// Only the payload's own message survives — no backtrace, no thread
/// name, no addresses — so a `Crashed` verdict's note is byte-stable
/// across runs and safe for canonical JSON. Long messages are truncated
/// at a fixed budget.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    };
    let line = text.lines().next().unwrap_or("");
    const MAX: usize = 240;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let mut cut = MAX;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &line[..cut])
    }
}

/// Runs `f` over every item of `items`, returning the results in item
/// order — the parallel equivalent of `items.iter().enumerate().map(f)`.
///
/// With `workers <= 1` (or fewer than two items) this *is* that serial
/// loop: no threads are spawned, so the one-worker path has zero
/// scheduling overhead and is the reference the parallel path must match
/// byte for byte. Otherwise `workers` scoped threads self-schedule over
/// a shared atomic cursor and each result lands in its item's slot.
pub fn run_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_quarantined(items, workers, f, |_, _| {})
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| panic!("campaign worker panicked: {payload}")))
        .collect()
}

/// [`run_indexed`] with panic isolation: a work item that panics becomes
/// `Err(canonicalized payload)` in its slot instead of poisoning the
/// pool, and every other worker keeps draining the queue.
///
/// `sink` is called on the *calling thread* — the single writer — once
/// per completed item, in *completion order* (nondeterministic under
/// parallelism). This is the checkpoint hook: the campaign journals each
/// verdict the moment it exists, so a kill between two sink calls loses
/// at most the in-flight items. Anything order-sensitive must instead
/// consume the returned vector, which is in deterministic item order.
pub fn run_quarantined<T, R, F, S>(
    items: &[T],
    workers: usize,
    f: F,
    mut sink: S,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    S: FnMut(usize, &Result<R, String>),
{
    let guarded = |i: usize, t: &T| quarantine(|| f(i, t));
    if workers <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let r = guarded(i, t);
                sink(i, &r);
                r
            })
            .collect();
    }
    let workers = workers.min(items.len());
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        // Workers stream (index, result) pairs to the calling thread,
        // which is the single writer: it runs the sink in completion
        // order and slots each result into item order.
        let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
        for _ in 0..workers {
            let cursor = &cursor;
            let guarded = &guarded;
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A send can only fail if the receiver was dropped, which
                // only happens when this scope is already unwinding.
                if tx.send((i, guarded(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            sink(i, &r);
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item index was claimed exactly once"))
        .collect()
}

/// Runs `f`, turning a panic into `Err(canonicalized payload)`: the
/// isolation [`run_quarantined`] gives each work item, for one item run
/// outside the pool.
pub fn quarantine<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    // `f` only borrows Sync data, and on panic the partial state is
    // dropped with the unwound stack — nothing torn escapes, so the
    // unwind-safety assertion is sound.
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_text(p.as_ref()))
}

/// A shared, amortized campaign deadline clock.
///
/// A serial campaign checked its deadline with one `Instant::now()` per
/// block — cheap, but wasteful on large plans and awkward to share
/// across workers. This clock keeps the elapsed time in a single
/// `AtomicU64` of microseconds: any thread may refresh it (every
/// [`DeadlineClock::STRIDE`]th query takes the real clock reading and
/// `fetch_max`es it in), and every query compares the cached coarse tick
/// against the deadline without touching the OS clock.
///
/// Expiry is monotonic — once `expired` returns true it stays true —
/// because the atomic only ever grows.
#[derive(Debug)]
pub struct DeadlineClock {
    start: Instant,
    deadline_us: Option<u64>,
    elapsed_us: AtomicU64,
    queries: AtomicU64,
}

impl DeadlineClock {
    /// How many `expired` queries share one real clock reading.
    pub const STRIDE: u64 = 32;

    /// A clock started at `start` with an optional budget. With
    /// `deadline == None` every query is a branch on a constant.
    pub fn new(start: Instant, deadline: Option<Duration>) -> Self {
        DeadlineClock {
            start,
            deadline_us: deadline.map(|d| d.as_micros().min(u64::MAX as u128) as u64),
            elapsed_us: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// Whether the deadline has passed, using the amortized coarse tick.
    ///
    /// The first query and every [`Self::STRIDE`]th one after it refresh
    /// the tick from the real clock; queries in between reuse the cached
    /// value, so a thundering herd of workers polling between blocks
    /// costs two atomic ops each, not a syscall each.
    pub fn expired(&self) -> bool {
        let Some(deadline_us) = self.deadline_us else {
            return false;
        };
        let n = self.queries.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(Self::STRIDE) {
            let now = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.elapsed_us.fetch_max(now, Ordering::Relaxed);
        }
        self.elapsed_us.load(Ordering::Relaxed) >= deadline_us
    }

    /// The absolute deadline instant, for handing down into per-block
    /// budgets (the solver keeps its own finer-grained amortization).
    pub fn instant(&self) -> Option<Instant> {
        self.deadline_us
            .map(|us| self.start + Duration::from_micros(us))
    }
}

/// A cooperative cancellation flag shared between a campaign and whoever
/// is waiting on it (a `dfv-serve` client connection, a timeout watcher).
///
/// Cancellation is a *latch*: once [`CancelToken::cancel`] fires it stays
/// set, and every not-yet-started work item degrades to a skip at its
/// next check — in-flight blocks finish (and are journaled) normally, so
/// no completed proof work is lost. The default token is never cancelled
/// and costs one relaxed atomic load per block.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Latches the token; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn serial_and_parallel_agree_in_item_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = run_indexed(&items, 1, |i, x| (i as u64) * 1000 + x * x);
        for workers in [2, 3, 8, 200] {
            let par = run_indexed(&items, workers, |i, x| (i as u64) * 1000 + x * x);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        run_indexed(&counts, 4, |_, c| c.fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn empty_and_single_item_take_the_serial_path() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(&empty, 8, |_, x| *x).is_empty());
        assert_eq!(run_indexed(&[7u32], 8, |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn worker_resolution_priority() {
        // NOTE: tests must not *set* DFV_WORKERS (process-global); assert
        // only when the harness environment leaves it unset.
        if std::env::var(WORKERS_ENV).is_err() {
            assert_eq!(resolve_workers(Some(3)), 3);
            assert_eq!(resolve_workers(Some(0)), 1);
            assert!(resolve_workers(None) >= 1);
        }
    }

    /// Runs the injected-env resolver and returns (workers, fallback events).
    fn resolve_with_env(env: Option<&str>, requested: Option<usize>) -> (usize, usize) {
        use dfv_obs::MemoryRecorder;
        let rec = MemoryRecorder::shared();
        let obs = ObsHook::attached(rec.clone());
        let n = resolve_workers_from(env, requested, &obs);
        let fallbacks = rec
            .lock()
            .unwrap()
            .events_of(dfv_obs::kinds::SCHED_WORKERS_FALLBACK)
            .len();
        (n, fallbacks)
    }

    #[test]
    fn zero_workers_env_falls_back_with_warning() {
        let (n, warns) = resolve_with_env(Some("0"), Some(3));
        assert_eq!(n, 3, "an unusable override defers to the request");
        assert_eq!(warns, 1);
    }

    #[test]
    fn garbage_workers_env_falls_back_with_warning() {
        for garbage in ["lots", "", "4x", "-2", "3.5"] {
            let (n, warns) = resolve_with_env(Some(garbage), Some(2));
            assert_eq!(n, 2, "env {garbage:?}");
            assert_eq!(warns, 1, "env {garbage:?}");
        }
    }

    #[test]
    fn overflow_workers_env_falls_back_with_warning() {
        // Bigger than MAX_WORKERS but parseable...
        let (n, warns) = resolve_with_env(Some("99999"), Some(4));
        assert_eq!(n, 4);
        assert_eq!(warns, 1);
        // ...and bigger than usize itself.
        let (n, warns) = resolve_with_env(Some("99999999999999999999999999"), Some(4));
        assert_eq!(n, 4);
        assert_eq!(warns, 1);
    }

    #[test]
    fn valid_workers_env_wins_without_warning() {
        let (n, warns) = resolve_with_env(Some(" 7 "), Some(2));
        assert_eq!(n, 7, "a valid override beats the request");
        assert_eq!(warns, 0);
        let (n, _) = resolve_with_env(None, None);
        assert!(n >= 1);
    }

    #[test]
    fn requested_workers_are_clamped_to_max() {
        let (n, warns) = resolve_with_env(None, Some(usize::MAX));
        assert_eq!(n, MAX_WORKERS);
        assert_eq!(warns, 0, "clamping an explicit request is not a warning");
    }

    #[test]
    fn panicking_item_is_quarantined_and_the_rest_complete() {
        let items: Vec<u32> = (0..40).collect();
        for workers in [1, 4] {
            let out = run_quarantined(
                &items,
                workers,
                |_, x| {
                    if *x == 13 {
                        panic!("unlucky item {x}");
                    }
                    x * 2
                },
                |_, _| {},
            );
            assert_eq!(out.len(), 40, "workers={workers}");
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    assert_eq!(r.as_ref().unwrap_err(), "unlucky item 13");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
                }
            }
        }
    }

    #[test]
    fn sink_sees_every_item_exactly_once_on_the_calling_thread() {
        let items: Vec<u32> = (0..30).collect();
        let caller = std::thread::current().id();
        let mut seen = vec![0u32; items.len()];
        run_quarantined(
            &items,
            4,
            |_, x| *x,
            |i, r| {
                assert_eq!(std::thread::current().id(), caller, "single writer");
                assert!(r.is_ok());
                seen[i] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn panic_text_is_canonical() {
        let p = panic::catch_unwind(|| panic!("boom at line {}", 7)).unwrap_err();
        assert_eq!(panic_text(p.as_ref()), "boom at line 7");
        let p = panic::catch_unwind(|| panic!("two\nlines")).unwrap_err();
        assert_eq!(panic_text(p.as_ref()), "two", "first line only");
        let p = panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_text(p.as_ref()), "<non-string panic payload>");
        let p = panic::catch_unwind(|| panic!("{}", "x".repeat(1000))).unwrap_err();
        let t = panic_text(p.as_ref());
        assert!(t.len() <= 250 && t.ends_with('…'), "long payloads truncate");
    }

    #[test]
    fn deadline_clock_none_never_expires_and_zero_expires_at_once() {
        let free = DeadlineClock::new(Instant::now(), None);
        for _ in 0..100 {
            assert!(!free.expired());
        }
        assert_eq!(free.instant(), None);

        let zero = DeadlineClock::new(Instant::now(), Some(Duration::ZERO));
        // The very first query refreshes the tick, so expiry is seen
        // immediately — not STRIDE queries later.
        assert!(zero.expired());
        assert!(zero.expired(), "expiry is sticky");
    }

    #[test]
    fn deadline_clock_expires_within_a_stride_of_the_deadline() {
        let clock = DeadlineClock::new(Instant::now(), Some(Duration::from_millis(5)));
        let t0 = Instant::now();
        while !clock.expired() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "clock never expired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
