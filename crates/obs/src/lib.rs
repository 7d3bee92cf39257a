//! `dfv-obs` — the workspace's structured observability substrate.
//!
//! Every engine crate (kernel, RTL simulator, SAT solver, SEC driver,
//! co-simulation harness) funnels its instrumentation through the one
//! [`Recorder`] trait defined here, so a single in-memory sink sees a
//! coherent, deterministically ordered stream of spans, events, and
//! monotonic counters regardless of which engines participated in a run.
//!
//! Design rules, enforced by construction:
//!
//! - **No wall-clock values in recorded data.** Recorded entries carry a
//!   monotonic sequence number, never an `Instant` or timestamp, so two
//!   runs of the same seeded workload produce byte-identical streams.
//!   Wall time is measured only "at the edges" by [`RunReport::phase`],
//!   and is kept out of the canonical (byte-reproducible) JSON form.
//! - **Deterministic ordering.** Counters live in ordered maps; events
//!   are ordered by their sequence number; JSON objects preserve
//!   insertion order.
//!
//! The crate also hosts the format-level pieces the observability layer
//! needs and that more than one crate consumes: a dependency-free JSON
//! value type with writer and parser ([`json`]), a multi-scope VCD
//! writer and round-trip parser ([`vcd`]), and the cross-domain
//! [`WatchedTrace`]/[`first_divergence`] machinery the divergence
//! localizer is built on ([`divergence`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod divergence;
pub mod json;
pub mod recorder;
pub mod report;
pub mod vcd;

/// Canonical names for cross-crate event kinds and counters.
///
/// Any engine may record ad-hoc kinds, but names that more than one crate
/// produces or consumes (the campaign runner emits them, reports and tests
/// assert on them) are declared here once so producers and consumers cannot
/// drift apart. All of them obey the substrate's determinism rules: detail
/// strings are canonicalized (no pointers, no backtraces, no wall-clock
/// values), so recorded streams stay byte-reproducible.
pub mod kinds {
    /// Event: a campaign work item panicked and was quarantined by the
    /// scheduler. Detail: `<block>: <canonicalized panic payload>`.
    pub const SCHED_PANIC: &str = "core.sched.panic";
    /// Event: a `DFV_WORKERS` override was unusable (zero, garbage, or
    /// out of range) and the scheduler fell back to the default.
    pub const SCHED_WORKERS_FALLBACK: &str = "core.sched.workers_fallback";
    /// Counter: blocks whose verdict was replayed from the campaign
    /// journal instead of being recomputed (checkpoint/resume).
    pub const JOURNAL_REPLAYED: &str = "core.journal.replayed";
    /// Counter: journal records dropped on load because their checksum
    /// failed (torn tail after a kill, or bit rot).
    pub const JOURNAL_DROPPED: &str = "core.journal.dropped";
    /// Counter: on-disk cache entries dropped on load because their
    /// per-entry checksum failed — the rest of the file was recovered.
    pub const CACHE_RECOVERED: &str = "core.cache.recovered";
    /// Counter: requests admitted by the `dfv-serve` daemon.
    pub const SERVE_ACCEPTED: &str = "serve.accepted";
    /// Counter: requests rejected with a typed `ServiceBusy` (admission
    /// queue or per-class limit full) or while draining.
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Counter: jobs that ran to completion (report produced, whether or
    /// not the client was still there to receive it).
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Counter: jobs whose cancel latch fired (client disconnect, stalled
    /// wire, or an explicit cancel frame) before or during execution.
    pub const SERVE_CANCELLED: &str = "serve.cancelled";
    /// Counter: a client vanished or stopped draining its connection
    /// with output still owed to it — a completed job's report (or
    /// another non-sheddable frame) could not be delivered.
    pub const SERVE_CLIENT_LOST: &str = "serve.client_lost";
    /// Counter: protocol frames dropped or refused (bad magic, length
    /// over the cap, checksum mismatch, malformed payload).
    pub const SERVE_BAD_FRAME: &str = "serve.bad_frame";
    /// Counter: progress frames dropped because a client's bounded
    /// outbound queue was full (slow reader; reports are never dropped
    /// this way, only progress).
    pub const SERVE_PROGRESS_DROPPED: &str = "serve.progress_dropped";
    /// Counter: `known` block refs a submission resolved to a stored
    /// verdict at admission.
    pub const SERVE_REFS_RESOLVED: &str = "serve.refs_resolved";
    /// Counter: `known` block refs a connection could not resolve
    /// (answered with `MissingRefs`, each ref once per submission).
    pub const SERVE_REFS_MISSED: &str = "serve.refs_missed";
    /// Counter: plan-delta submissions whose base was not the
    /// connection's last all-ref campaign, or whose length was not the
    /// base's (answered with an empty `MissingRefs`).
    pub const SERVE_DELTA_STALE: &str = "serve.delta_stale";
    /// Counter: block refs a connection's bounded ref table forgot to
    /// make room for newer ones.
    pub const SERVE_REFS_EVICTED: &str = "serve.refs_evicted";
    /// Counter: verdicts the daemon's bounded shared store evicted.
    pub const SERVE_STORE_EVICTED: &str = "serve.store_evicted";
}

pub use divergence::{combined_vcd, first_divergence, Divergence, WatchedTrace};
pub use json::{parse_json, Json};
pub use recorder::{MemoryRecorder, ObsEntry, ObsHook, Recorder, SharedRecorder};
pub use report::{Phase, RunReport};
pub use vcd::{parse_vcd, render_vcd, sanitize_id, ParsedVcd, VcdScope, VcdSignal};
