//! The design-for-verification methodology layer: block pairs, verification
//! plans, a campaign runner, and incremental re-verification.
//!
//! This crate is the paper's §4 turned into an API:
//!
//! * **§4.2 design partitioning** — a [`VerificationPlan`] is a list of
//!   [`BlockPair`]s, each a one-to-one SLM/RTL block correspondence with a
//!   transaction spec ("clear functional boundaries both in the SLM and the
//!   RTL at blocks that will be equivalence checked");
//! * **§4.3 model conditioning** — every block is linted against the
//!   DFV001–DFV007 rules before anything else runs;
//! * **§2 verification** — conditioned blocks are statically elaborated and
//!   sequentially equivalence-checked against their RTL;
//! * **§4.1 keep models alive & check incrementally** — a [`Campaign`]
//!   caches per-block verdicts keyed by a content hash of (SLM source, RTL
//!   netlist, spec), so re-running after an edit re-verifies only the
//!   touched blocks. "Incremental runs of sequential equivalence checking
//!   between SLM and RTL are much more effective in terms of run time and
//!   can help localize the source of any difference quickly."
//!
//! # Resource governance
//!
//! A campaign treats the proof engine as a *metered* resource: each block is
//! solved under a [`RetryPolicy`] of escalating [`Budget`]s, the whole run
//! can carry a wall-clock deadline, and a block whose budgets all exhaust
//! degrades to bounded random-simulation falsification instead of hanging —
//! its verdict is [`BlockStatus::Inconclusive`] with a summary like
//! "no counterexample in N random transactions at depth k". The incremental
//! cache can be persisted to disk ([`CampaignOptions::cache_path`]) in a
//! checksummed text format, so verdicts survive a process restart and a
//! truncated or corrupted cache file is detected and rebuilt, never trusted.
//!
//! # Fault-injection campaigns
//!
//! Next to the equivalence campaign, a [`FaultCampaign`] sweeps the
//! interface-fault taxonomy (stall, backpressure, drop, duplicate,
//! reorder, jitter — the paper's Fig 2 inconsistency sources) over each
//! block's output streams and classifies every cell as **detected** (the
//! comparator flagged it, with provenance), **tolerated** (absorbed by
//! the declared [`dfv_cosim::ComparatorPolicy`]), or **masked** (an
//! undeclared escape). The sweep is a pure function of its seed.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use dfv_core::{
//!     BlockPair, BlockStatus, Campaign, CampaignOptions, RetryPolicy, VerificationPlan,
//! };
//! use dfv_rtl::ModuleBuilder;
//! use dfv_sec::{Binding, EquivSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rb = ModuleBuilder::new("inc_rtl");
//! let x = rb.input("x", 8);
//! let one = rb.lit(8, 1);
//! let y = rb.add(x, one);
//! rb.output("y", y);
//!
//! let plan = VerificationPlan::new().block(BlockPair {
//!     name: "inc".into(),
//!     slm_source: "uint8 inc(uint8 x) { return x + 1; }".into(),
//!     slm_entry: "inc".into(),
//!     rtl: rb.finish()?,
//!     spec: EquivSpec::new(1)
//!         .bind("x", 0, Binding::Slm("x".into()))
//!         .compare("return", "y", 0),
//! });
//!
//! // Escalating proof budgets, a run deadline, and a persisted cache.
//! let path = std::env::temp_dir().join(format!("dfv-core-doc-{}.cache", std::process::id()));
//! let _ = std::fs::remove_file(&path);
//! let mut campaign = Campaign::with_options(CampaignOptions {
//!     retry: RetryPolicy::escalating(10_000, 10, 3),
//!     deadline: Some(Duration::from_secs(60)),
//!     cache_path: Some(path.clone()),
//!     ..CampaignOptions::default()
//! });
//! let report = campaign.run(&plan);
//! assert_eq!(report.blocks[0].status, BlockStatus::Pass);
//!
//! // A fresh process (here: a fresh `Campaign`) reloads the persisted
//! // verdicts, so nothing is re-proven.
//! let mut campaign2 = Campaign::with_cache_file(&path);
//! let report2 = campaign2.run(&plan);
//! assert!(report2.blocks[0].from_cache);
//! let _ = std::fs::remove_file(&path);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dfv_rtl::Module;
use dfv_sec::{check_equivalence_with, Budget, CheckOptions, EquivOutcome, EquivReport, EquivSpec};
use dfv_slmir::{lint, LintFinding, Severity};

mod cache;
pub mod chaos;
mod content;
mod faultcamp;
mod fifo;
mod journal;
pub mod lockfile;
pub mod sched;
mod sip;
mod stimsweep;

pub use cache::{CacheLoad, PersistError};
pub use chaos::{ChaosIo, ChaosPlan, ChaosWire, FailAction, IoHandle, IoShim, RealIo, WirePlan};
pub use content::{BlockDigest, ContentKey, HashSecret};
pub use faultcamp::{FaultBlock, FaultCampaign, FaultCampaignReport, FaultCase, FaultVerdict};
pub use fifo::FifoMap;
pub use journal::JournalLoad;
pub use lockfile::FileLock;
pub use sched::{
    resolve_workers, resolve_workers_with, CancelToken, DeadlineClock, MAX_WORKERS, WORKERS_ENV,
};
pub use stimsweep::{ScenarioOutcome, StimulusSweep, StimulusSweepReport};

use dfv_obs::ObsHook;

/// One SLM/RTL block correspondence (paper §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPair {
    /// Block name (unique within a plan).
    pub name: String,
    /// SLM-C source of the block's golden model.
    pub slm_source: String,
    /// Entry function within the source.
    pub slm_entry: String,
    /// The RTL implementation (flat).
    pub rtl: Module,
    /// The transaction-level equivalence spec.
    pub spec: EquivSpec,
}

impl BlockPair {
    /// A stable content hash of everything that affects this block's
    /// verdict: a structural FNV-1a walk over the SLM source and entry,
    /// the RTL module and the spec (DESIGN.md §13). Equal blocks hash
    /// equal however they were built, including after a round trip over
    /// the `dfv-serve` wire.
    pub fn content_hash(&self) -> u64 {
        content::block_hash(self)
    }

    /// The same structural walk as [`content_hash`](BlockPair::content_hash)
    /// fed to SipHash-2-4-128 under `secret`: a 128-bit key that nobody
    /// without the secret can aim at another block's content. The
    /// [`SharedStore`] is keyed by it.
    pub fn content_key(&self, secret: &HashSecret) -> ContentKey {
        content::block_key(self, secret)
    }
}

/// An ordered set of block pairs to verify.
#[derive(Debug, Clone, Default)]
pub struct VerificationPlan {
    /// The blocks.
    pub blocks: Vec<BlockPair>,
}

impl VerificationPlan {
    /// An empty plan.
    pub fn new() -> Self {
        VerificationPlan::default()
    }

    /// Adds a block.
    pub fn block(mut self, b: BlockPair) -> Self {
        self.blocks.push(b);
        self
    }
}

/// The verdict for one block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockStatus {
    /// Linted clean (errors-wise) and proven equivalent.
    Pass,
    /// Error-severity lint findings blocked elaboration.
    LintBlocked,
    /// A counterexample was found (rendered for the report).
    NotEquivalent(String),
    /// Every proof budget ran out before the solver answered, and bounded
    /// random simulation found no counterexample either. The note records
    /// the exhausted resource and (when the fallback ran) how much of the
    /// input space was sampled — quantified negative evidence, not a proof.
    /// Inconclusive verdicts are never cached: the block is retried on the
    /// next run.
    Inconclusive(String),
    /// Parse/elaboration/spec failure.
    Error(String),
    /// The block's work item panicked and was quarantined by the
    /// scheduler: the note is the canonicalized panic payload (first line,
    /// no backtrace — see [`sched::panic_text`]), every other block
    /// completed normally, and a `core.sched.panic` event was recorded.
    /// Like `Inconclusive`, a crash says nothing conclusive about the
    /// block, so it is never cached; a resumed run *does* replay it from
    /// the journal so the same run stays byte-reproducible.
    Crashed(String),
}

impl BlockStatus {
    /// The report names of the statuses [`is_storable`](BlockStatus::is_storable)
    /// accepts.
    pub const STORABLE_NAMES: [&'static str; 4] = ["PASS", "LINT", "FAIL", "ERROR"];

    /// The status's name in reports, as `Display` prints it.
    pub fn name(&self) -> &'static str {
        match self {
            BlockStatus::Pass => "PASS",
            BlockStatus::LintBlocked => "LINT",
            BlockStatus::NotEquivalent(_) => "FAIL",
            BlockStatus::Inconclusive(_) => "INCONC",
            BlockStatus::Error(_) => "ERROR",
            BlockStatus::Crashed(_) => "CRASH",
        }
    }

    /// Whether a verdict with this status is kept for reuse: by the
    /// per-campaign cache, by the [`SharedStore`], and by a `dfv-serve`
    /// client as a block it may later send by reference. Inconclusive
    /// and crashed verdicts say nothing about the block, so they are
    /// never kept.
    pub fn is_storable(&self) -> bool {
        BlockStatus::is_storable_name(self.name())
    }

    /// [`is_storable`](BlockStatus::is_storable) for a status known only
    /// by its report name; an unknown name is not storable.
    pub fn is_storable_name(name: &str) -> bool {
        BlockStatus::STORABLE_NAMES.contains(&name)
    }
}

impl fmt::Display for BlockStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Summed solver statistics for one block, in journal-survivable form.
///
/// The canonical report's `campaign.cnf_vars`/`cnf_clauses`/`conflicts`
/// counters are sums of these — kept separately from the full
/// [`EquivReport`] (which is not persisted) so a verdict replayed from
/// the checkpoint journal reproduces the same counters byte for byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTotals {
    /// CNF variables allocated by the (last) equivalence check.
    pub cnf_vars: usize,
    /// CNF clauses emitted by the (last) equivalence check.
    pub cnf_clauses: usize,
    /// CDCL conflicts spent by the (last) equivalence check.
    pub conflicts: u64,
}

impl SolverTotals {
    /// The totals of one equivalence report.
    pub fn of(report: &EquivReport) -> Self {
        SolverTotals {
            cnf_vars: report.cnf_vars,
            cnf_clauses: report.cnf_clauses,
            conflicts: report.solver_stats.conflicts,
        }
    }
}

/// The full record for one block in a campaign run.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Block name.
    pub name: String,
    /// Verdict.
    pub status: BlockStatus,
    /// All lint findings (including warnings). Empty for verdicts served
    /// from a persisted cache (findings are not persisted).
    pub lint_findings: Vec<LintFinding>,
    /// How many lint findings the block had when it was verified. Unlike
    /// [`BlockResult::lint_findings`] this *count* survives the checkpoint
    /// journal, so a resumed run's canonical report matches the original.
    pub lint_count: usize,
    /// The equivalence report, when the check ran in this run (`None` for
    /// verdicts served from a cache, the store or the journal). For an
    /// inconclusive block this is the *last* attempt's report.
    pub equiv: Option<EquivReport>,
    /// Journal-survivable solver statistics (see [`SolverTotals`]).
    pub solver: SolverTotals,
    /// Wall-clock time spent on this block in this run.
    pub duration: Duration,
    /// Whether the verdict came from the incremental cache.
    pub from_cache: bool,
    /// Whether the verdict was replayed from the checkpoint journal of an
    /// interrupted run (see [`CampaignOptions::resume`]).
    pub from_journal: bool,
    /// How many budgeted proof attempts ran (0 for cached/skipped blocks).
    pub attempts: u32,
}

/// How many verdicts a [`SharedStore`] holds before it evicts the oldest
/// one.
pub const STORE_CAPACITY: usize = 4096;

/// A cross-campaign verdict store keyed by [`ContentKey`], shared between
/// every campaign holding a clone — the "one warm cache, many clients"
/// piece of verification-as-a-service.
///
/// The per-campaign cache ([`CampaignOptions::cache_path`]) is keyed by
/// block *name* and owned by one campaign; this store is keyed purely by
/// content, so two clients submitting the same block under different
/// names (or in different plans) still dedupe: the second submission is
/// served from the store without touching a solver. The key is
/// [`BlockPair::content_key`] under a secret the store draws from the
/// operating system when it is made and never reveals, so a client
/// cannot craft a block whose key collides with another client's block,
/// as it could with the unkeyed 64-bit
/// [`content_hash`](BlockPair::content_hash).
///
/// Only [storable](BlockStatus::is_storable) verdicts proved in the
/// campaign itself enter the store, inserted post-join by the campaign's
/// single-writer merge step. A verdict replayed from a checkpoint journal
/// never does: the journal is its submitter's own file, matched only by
/// block name and the unkeyed hash, so storing its verdicts would let one
/// client plant a verdict for another. The store holds at most
/// [`STORE_CAPACITY`] verdicts; inserting past that evicts the oldest
/// one, and [`take_evictions`](SharedStore::take_evictions) counts them.
/// An evicted verdict is simply proved again the next time it is needed.
///
/// A hit is reported as [`BlockResult::from_cache`] — provenance-wise it
/// *is* a cache hit, just from the process-wide tier.
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: std::sync::Arc<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    secret: HashSecret,
    verdicts: std::sync::Mutex<FifoMap<ContentKey, StoredVerdict>>,
    evictions: std::sync::atomic::AtomicU64,
}

/// What the store keeps of a verdict: everything a hit reports, without
/// the name it was proved under or the proof's [`EquivReport`].
#[derive(Debug, Clone)]
struct StoredVerdict {
    status: BlockStatus,
    lint_findings: Vec<LintFinding>,
    lint_count: usize,
    solver: SolverTotals,
    attempts: u32,
}

impl Default for SharedStore {
    fn default() -> Self {
        SharedStore::new()
    }
}

impl SharedStore {
    /// A fresh, empty store under a fresh random secret.
    pub fn new() -> Self {
        SharedStore::with_capacity(STORE_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        SharedStore {
            inner: std::sync::Arc::new(StoreInner {
                secret: HashSecret::random(),
                verdicts: std::sync::Mutex::new(FifoMap::new(capacity)),
                evictions: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    /// The key this store files `block` under, with the block's unkeyed
    /// content hash, from one walk over it.
    pub fn digest(&self, block: &BlockPair) -> BlockDigest {
        content::block_digest(block, &self.inner.secret)
    }

    /// The verdict for `key`, if some campaign already concluded it, as
    /// a hit: [`from_cache`](BlockResult::from_cache) set, no
    /// [`equiv`](BlockResult::equiv) report, zero duration, and an empty
    /// name (a stored verdict belongs to content, not to a name).
    pub fn get(&self, key: ContentKey) -> Option<BlockResult> {
        let v = self.lock().get(&key)?.clone();
        Some(BlockResult {
            name: String::new(),
            status: v.status,
            lint_findings: v.lint_findings,
            lint_count: v.lint_count,
            equiv: None,
            solver: v.solver,
            duration: Duration::ZERO,
            from_cache: true,
            from_journal: false,
            attempts: v.attempts,
        })
    }

    /// Records a conclusive verdict for `key`. A 128-bit keyed hash makes
    /// two different contents under one key a practical impossibility,
    /// so a second writer proved the same content and the last one wins.
    /// The name, timing and [`EquivReport`] are not kept.
    pub fn insert(&self, key: ContentKey, result: BlockResult) {
        let v = StoredVerdict {
            status: result.status,
            lint_findings: result.lint_findings,
            lint_count: result.lint_count,
            solver: result.solver,
            attempts: result.attempts,
        };
        if self.lock().insert(key, v) {
            self.inner
                .evictions
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// How many verdicts the store holds.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store holds no verdicts yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Evictions since the previous call (every clone shares the count).
    pub fn take_evictions(&self) -> u64 {
        self.inner
            .evictions
            .swap(0, std::sync::atomic::Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FifoMap<ContentKey, StoredVerdict>> {
        self.inner.verdicts.lock().expect("store lock")
    }
}

/// One entry of a plan as a campaign runs it: a block to verify, or the
/// verdict the [`SharedStore`] already holds for a block a client
/// referenced instead of sending (see [`Campaign::run_entries`]). `B` is
/// the block itself or a borrow of it.
#[derive(Debug, Clone)]
pub enum PlanEntry<B = BlockPair> {
    /// Full block content, run like any [`VerificationPlan`] block.
    Block {
        /// The block.
        block: B,
        /// Its [`SharedStore::digest`] under the campaign's store, when
        /// the caller already computed it (`None`: the campaign does).
        digest: Option<BlockDigest>,
    },
    /// A block already answered by the shared store.
    Stored {
        /// The block's name in this plan.
        name: String,
        /// The stored verdict, as [`SharedStore::get`] returned it.
        verdict: Box<BlockResult>,
    },
}

impl<B: std::borrow::Borrow<BlockPair>> PlanEntry<B> {
    fn name(&self) -> &str {
        match self {
            PlanEntry::Block { block, .. } => &block.borrow().name,
            PlanEntry::Stored { name, .. } => name,
        }
    }
}

/// A progress callback, fired on the campaign's calling thread with
/// every result as it exists.
///
/// This is how a daemon streams "block finished" frames to a client while
/// the run is live. [`Campaign::run_entries`] fires it once with the
/// whole batch of store hits ([`PlanEntry::Stored`]), in plan order,
/// before any proof starts; then once per computed block, with a
/// one-element slice, from the completion-order sink (the same
/// single-threaded step that journals). Completion *order* varies with
/// worker count, so anything derived from the firing order must stay out
/// of canonical reports — the hook is observability, like
/// [`CampaignOptions::obs`].
#[derive(Clone, Default)]
pub struct ProgressHook(Option<ProgressFn>);

/// The shared callback a [`ProgressHook`] fires.
type ProgressFn = std::sync::Arc<dyn Fn(&[BlockResult]) + Send + Sync>;

impl ProgressHook {
    /// The inert default hook (no allocation, no call overhead).
    pub fn none() -> Self {
        ProgressHook::default()
    }

    /// A hook calling `f` with every batch of finished block results.
    pub fn new(f: impl Fn(&[BlockResult]) + Send + Sync + 'static) -> Self {
        ProgressHook(Some(std::sync::Arc::new(f)))
    }

    fn fire(&self, batch: &[BlockResult]) {
        if let Some(f) = &self.0 {
            f(batch);
        }
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "ProgressHook(attached)"
        } else {
            "ProgressHook(none)"
        })
    }
}

/// Escalating per-block proof budgets plus the degradation policy once the
/// last one exhausts (see [`CheckOptions::fallback_transactions`]).
///
/// Industrial SEC treats solver time as a metered resource: try cheap
/// first, escalate on exhaustion, and when proving is off the table fall
/// back to bounded falsification so the time spent still buys evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Budgets to try in order. Empty means a single unlimited attempt.
    pub budgets: Vec<Budget>,
    /// After the *last* budget exhausts, how many constraint-satisfying
    /// random transactions the simulation fallback replays looking for a
    /// concrete counterexample. `0` disables the fallback.
    pub fallback_transactions: u64,
    /// Seed for the fallback stimulus generator.
    pub fallback_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::unlimited()
    }
}

impl RetryPolicy {
    /// A single unbudgeted attempt — the solver runs to completion, so no
    /// block is ever inconclusive (but a pathological one can hang).
    pub fn unlimited() -> Self {
        RetryPolicy {
            budgets: Vec::new(),
            fallback_transactions: 256,
            fallback_seed: 0xDF5,
        }
    }

    /// Geometric escalation: `attempts` budgets starting at
    /// `initial_conflicts` conflicts, multiplying by `factor` each retry.
    pub fn escalating(initial_conflicts: u64, factor: u32, attempts: usize) -> Self {
        let mut budgets = Vec::with_capacity(attempts.max(1));
        let mut c = initial_conflicts;
        for _ in 0..attempts.max(1) {
            budgets.push(Budget::unlimited().with_conflicts(c));
            c = c.saturating_mul(factor.max(1) as u64);
        }
        RetryPolicy {
            budgets,
            ..RetryPolicy::unlimited()
        }
    }

    /// Additionally caps every attempt with a per-attempt wall-clock
    /// timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        if self.budgets.is_empty() {
            self.budgets.push(Budget::unlimited());
        }
        for b in &mut self.budgets {
            b.timeout = Some(timeout);
        }
        self
    }
}

/// Campaign-wide resource governance knobs.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Per-block retry/budget policy.
    pub retry: RetryPolicy,
    /// Wall-clock budget for one [`Campaign::run`]. Blocks reached after it
    /// passes are not started; they get [`BlockStatus::Inconclusive`], and
    /// a block in flight when it passes stops at its next budget check.
    pub deadline: Option<Duration>,
    /// Persist the incremental cache here (checksummed text format, written
    /// atomically after every run) so verdicts survive process restarts.
    pub cache_path: Option<PathBuf>,
    /// Scheduler worker threads for one run. `None` defaults to
    /// [`std::thread::available_parallelism`]; the `DFV_WORKERS`
    /// environment variable overrides either. Blocks are independent
    /// work items, so the canonical report is byte-identical for every
    /// worker count (see [`sched`]).
    pub workers: Option<usize>,
    /// Append-only checkpoint journal (see [`crate::JournalLoad`]). Each
    /// completed block's verdict is durably appended *during* the run, so
    /// a killed campaign re-run on the same path replays every journaled
    /// verdict and recomputes only what the crash lost. The canonical
    /// report of a resumed run is byte-identical to an uninterrupted one.
    pub journal_path: Option<PathBuf>,
    /// Observability hook for campaign-level events and counters
    /// (`core.sched.panic`, `core.journal.replayed`, ...). Unset by
    /// default; never feeds the canonical report.
    pub obs: ObsHook,
    /// The I/O shim all campaign persistence (cache + journal) goes
    /// through. Defaults to the real filesystem; the chaos harness
    /// ([`chaos`]) swaps in fault injection here.
    pub io: IoHandle,
    /// Cooperative cancellation. Once cancelled, blocks not yet started
    /// are skipped with [`BlockStatus::Inconclusive`] (note
    /// [`CANCELLED_NOTE`]) and never journaled — a later resume retries
    /// them — while blocks already in flight complete and checkpoint
    /// normally, so cancellation never discards finished proof work.
    pub cancel: CancelToken,
    /// Process-wide content-hash verdict store shared across campaigns
    /// (and therefore across daemon clients). Probed after the journal
    /// and the per-campaign cache; conclusive fresh verdicts are inserted
    /// post-join. `None` (default) disables the tier.
    pub shared_store: Option<SharedStore>,
    /// Progress callback (see [`ProgressHook`]): store hits as one batch,
    /// then computed blocks one by one in completion order; never part of
    /// canonical reports.
    pub progress: ProgressHook,
}

/// The [`BlockStatus::Inconclusive`] note marking a block skipped because
/// the campaign deadline had already passed when it was scheduled.
pub const DEADLINE_SKIP_NOTE: &str = "campaign deadline exceeded before block started";

/// The [`BlockStatus::Inconclusive`] note marking a block skipped because
/// the campaign's [`CancelToken`] fired before it started.
pub const CANCELLED_NOTE: &str = "request cancelled before block started";

impl CampaignOptions {
    /// Options for resuming (or starting) a journaled campaign at `path`:
    /// everything default except the checkpoint journal.
    pub fn resume(path: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            journal_path: Some(path.into()),
            ..CampaignOptions::default()
        }
    }
}

/// A campaign run over a plan.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-block results, in plan order.
    pub blocks: Vec<BlockResult>,
    /// Total wall-clock time of the run.
    pub duration: Duration,
    /// Why persisting the cache failed, if it did (the run itself is still
    /// valid; only restart-resumability is lost).
    pub cache_write_error: Option<String>,
    /// How opening the checkpoint journal went ([`JournalLoad::Disabled`]
    /// when no journal is configured). Not part of the canonical report —
    /// a resumed run must stay byte-identical to an uninterrupted one.
    pub journal_load: JournalLoad,
    /// Why journaling failed, if it did (the run still completes; only
    /// crash-resumability is lost). Not part of the canonical report.
    pub journal_error: Option<String>,
}

impl CampaignReport {
    /// Whether every block passed.
    pub fn all_pass(&self) -> bool {
        self.blocks.iter().all(|b| b.status == BlockStatus::Pass)
    }

    /// How many blocks were served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.blocks.iter().filter(|b| b.from_cache).count()
    }

    /// How many verdicts were replayed from the checkpoint journal.
    pub fn journal_replayed(&self) -> usize {
        self.blocks.iter().filter(|b| b.from_journal).count()
    }

    /// How many blocks crashed (worker panic, quarantined).
    pub fn crashed(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.status, BlockStatus::Crashed(_)))
            .count()
    }

    /// How many blocks ended inconclusive (budget/deadline exhaustion).
    pub fn inconclusive(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.status, BlockStatus::Inconclusive(_)))
            .count()
    }

    /// How many blocks were skipped (a subset of [`Self::inconclusive`])
    /// because the campaign deadline had passed before they started.
    pub fn deadline_skipped(&self) -> usize {
        self.blocks
            .iter()
            .filter(
                |b| matches!(&b.status, BlockStatus::Inconclusive(n) if n == DEADLINE_SKIP_NOTE),
            )
            .count()
    }

    /// How many blocks were skipped (a subset of [`Self::inconclusive`])
    /// because the campaign's [`CancelToken`] fired before they started.
    pub fn cancelled(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(&b.status, BlockStatus::Inconclusive(n) if n == CANCELLED_NOTE))
            .count()
    }

    /// The run as a machine-readable [`dfv_obs::RunReport`]: block
    /// tallies and solver totals as counters, per-block verdicts under
    /// `values`, and the measured per-block wall times in the timing
    /// section (only) — so [`dfv_obs::RunReport::canonical_json`] of the
    /// result depends on the verdicts, never on how long the solver took
    /// to reach them.
    pub fn to_run_report(&self) -> dfv_obs::RunReport {
        use dfv_obs::Json;
        let mut rep = dfv_obs::RunReport::new("campaign");
        rep.set_counter("campaign.blocks", self.blocks.len() as u64);
        rep.set_counter(
            "campaign.passed",
            self.blocks
                .iter()
                .filter(|b| b.status == BlockStatus::Pass)
                .count() as u64,
        );
        rep.set_counter("campaign.cache_hits", self.cache_hits() as u64);
        rep.set_counter("campaign.inconclusive", self.inconclusive() as u64);
        rep.set_counter(
            "campaign.attempts",
            self.blocks.iter().map(|b| b.attempts as u64).sum(),
        );
        let (mut vars, mut clauses, mut conflicts) = (0u64, 0u64, 0u64);
        for b in &self.blocks {
            // The journal-survivable totals, not the full EquivReport, so
            // a resumed run sums to the same counters.
            vars += b.solver.cnf_vars as u64;
            clauses += b.solver.cnf_clauses as u64;
            conflicts += b.solver.conflicts;
        }
        rep.set_counter("campaign.cnf_vars", vars);
        rep.set_counter("campaign.cnf_clauses", clauses);
        rep.set_counter("campaign.conflicts", conflicts);
        rep.set_value(
            "blocks",
            Json::Arr(
                self.blocks
                    .iter()
                    .map(|b| {
                        Json::obj(vec![
                            ("name", Json::str(&b.name)),
                            ("status", Json::Str(b.status.to_string())),
                            ("from_cache", Json::Bool(b.from_cache)),
                            ("attempts", Json::UInt(b.attempts as u64)),
                            ("lint_findings", Json::UInt(b.lint_count as u64)),
                        ])
                    })
                    .collect(),
            ),
        );
        // Crash quarantines, deadline skips, and cancellations are rare
        // enough to keep out of clean reports (and conditional counters
        // keep clean runs byte-identical to pre-existing baselines); when
        // present each count is deterministic — the same blocks crash
        // under the same chaos plan, the same tail is skipped once the
        // deadline/cancel latch is set, and a resumed run replays crashes.
        if self.crashed() > 0 {
            rep.set_counter("campaign.crashed", self.crashed() as u64);
        }
        if self.deadline_skipped() > 0 {
            rep.set_counter("campaign.deadline_skipped", self.deadline_skipped() as u64);
        }
        if self.cancelled() > 0 {
            rep.set_counter("campaign.cancelled", self.cancelled() as u64);
        }
        if let Some(e) = &self.cache_write_error {
            rep.set_value("cache_write_error", Json::str(e));
        }
        if let Some(e) = &self.journal_error {
            rep.set_value("journal_error", Json::str(e));
        }
        for b in &self.blocks {
            rep.push_phase(format!("block:{}", b.name), b.duration);
        }
        rep.push_phase("total", self.duration);
        rep
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<6} {:>6} {:>9} {:>10}  notes",
            "block", "status", "cache", "lint", "time"
        )?;
        for b in &self.blocks {
            let note = match &b.status {
                BlockStatus::NotEquivalent(cex) => cex.clone(),
                BlockStatus::Error(e) => e.clone(),
                BlockStatus::Inconclusive(why) => why.clone(),
                BlockStatus::Crashed(payload) => format!("worker panic: {payload}"),
                BlockStatus::LintBlocked => {
                    let n = b
                        .lint_findings
                        .iter()
                        .filter(|x| x.severity == Severity::Error)
                        .count();
                    format!("{n} blocking lint findings")
                }
                BlockStatus::Pass => String::new(),
            };
            writeln!(
                f,
                "{:<12} {:<6} {:>6} {:>9} {:>9.1?}  {}",
                b.name,
                b.status.to_string(),
                if b.from_journal {
                    "jrnl"
                } else if b.from_cache {
                    "hit"
                } else {
                    "-"
                },
                b.lint_count,
                b.duration,
                note
            )?;
        }
        write!(
            f,
            "total {:.1?}, {} cache hits, {} inconclusive",
            self.duration,
            self.cache_hits(),
            self.inconclusive()
        )?;
        if self.journal_replayed() > 0 {
            write!(f, ", {} replayed from journal", self.journal_replayed())?;
        }
        if self.crashed() > 0 {
            write!(f, ", {} crashed", self.crashed())?;
        }
        if self.deadline_skipped() > 0 {
            write!(f, ", {} deadline-skipped", self.deadline_skipped())?;
        }
        if self.cancelled() > 0 {
            write!(f, ", {} cancelled", self.cancelled())?;
        }
        if let Some(e) = &self.cache_write_error {
            write!(f, " (cache: disabled ({e}))")?;
        }
        if let Some(e) = &self.journal_error {
            write!(f, " (journal: disabled ({e}))")?;
        }
        Ok(())
    }
}

/// Verifies one block from scratch with a single unlimited proof attempt:
/// lint → elaborate → equivalence check.
pub fn verify_block(block: &BlockPair) -> BlockResult {
    verify_block_with(block, &RetryPolicy::unlimited(), None)
}

/// Verifies one block under escalating budgets: lint → elaborate → one
/// budgeted equivalence check per [`RetryPolicy`] budget, stopping at the
/// first conclusive answer. If every budget exhausts (or `deadline`
/// passes), the final attempt's simulation-fallback evidence is folded into
/// a [`BlockStatus::Inconclusive`] verdict — bounded time, no hang, no
/// panic.
pub fn verify_block_with(
    block: &BlockPair,
    retry: &RetryPolicy,
    deadline: Option<Instant>,
) -> BlockResult {
    let start = Instant::now();
    let mut result = BlockResult {
        name: block.name.clone(),
        status: BlockStatus::Pass,
        lint_findings: Vec::new(),
        lint_count: 0,
        equiv: None,
        solver: SolverTotals::default(),
        duration: Duration::ZERO,
        from_cache: false,
        from_journal: false,
        attempts: 0,
    };
    let finish = |mut r: BlockResult, start: Instant| {
        r.duration = start.elapsed();
        r.lint_count = r.lint_findings.len();
        if let Some(e) = &r.equiv {
            r.solver = SolverTotals::of(e);
        }
        r
    };
    let prog = match dfv_slmir::parse(&block.slm_source) {
        Ok(p) => p,
        Err(e) => {
            result.status = BlockStatus::Error(format!("parse: {e}"));
            return finish(result, start);
        }
    };
    result.lint_findings = lint(&prog, Some(&block.slm_entry));
    if result
        .lint_findings
        .iter()
        .any(|f| f.severity == Severity::Error)
    {
        result.status = BlockStatus::LintBlocked;
        return finish(result, start);
    }
    let slm = match dfv_slmir::elaborate(&prog, &block.slm_entry) {
        Ok(m) => m,
        Err(e) => {
            result.status = BlockStatus::Error(format!("elaborate: {e}"));
            return finish(result, start);
        }
    };
    let unlimited = [Budget::unlimited()];
    let budgets: &[Budget] = if retry.budgets.is_empty() {
        &unlimited
    } else {
        &retry.budgets
    };
    for (i, b) in budgets.iter().enumerate() {
        let last = i + 1 == budgets.len();
        let mut budget = *b;
        if let Some(d) = deadline {
            budget.deadline = Some(budget.deadline.map_or(d, |x| x.min(d)));
        }
        let opts = CheckOptions {
            budget,
            // Falsification is the *terminal* degradation step; while there
            // are budgets left to escalate into, skip it.
            fallback_transactions: if last { retry.fallback_transactions } else { 0 },
            fallback_seed: retry.fallback_seed,
            ..CheckOptions::default()
        };
        result.attempts += 1;
        match check_equivalence_with(&slm, &block.rtl, &block.spec, &opts) {
            Ok(report) => match &report.outcome {
                EquivOutcome::Equivalent => {
                    result.equiv = Some(report);
                    return finish(result, start);
                }
                EquivOutcome::NotEquivalent(cex) => {
                    result.status = BlockStatus::NotEquivalent(cex.to_string());
                    result.equiv = Some(report);
                    return finish(result, start);
                }
                EquivOutcome::Inconclusive {
                    reason,
                    falsification,
                } => {
                    let campaign_over = deadline.is_some_and(|d| Instant::now() >= d);
                    if last || campaign_over {
                        result.status = BlockStatus::Inconclusive(match falsification {
                            Some(f) => format!("{reason}; {f}"),
                            None => reason.to_string(),
                        });
                        result.equiv = Some(report);
                        return finish(result, start);
                    }
                    // Otherwise escalate into the next budget.
                }
            },
            Err(e) => {
                result.status = BlockStatus::Error(format!("sec: {e}"));
                return finish(result, start);
            }
        }
    }
    unreachable!("the budget loop always returns on its last iteration")
}

/// The quarantine verdict for a block whose work item panicked.
fn crashed_result(name: &str, payload: &str) -> BlockResult {
    BlockResult {
        name: name.to_string(),
        status: BlockStatus::Crashed(payload.to_string()),
        lint_findings: Vec::new(),
        lint_count: 0,
        equiv: None,
        solver: SolverTotals::default(),
        duration: Duration::ZERO,
        from_cache: false,
        from_journal: false,
        attempts: 0,
    }
}

/// A shared-store verdict served under `name`: provenance-wise a cache
/// hit, with no time spent in this run.
fn store_hit(name: &str, stored: &BlockResult) -> BlockResult {
    let mut r = stored.clone();
    r.name = name.to_string();
    r.from_cache = true;
    r.from_journal = false;
    r.duration = Duration::ZERO;
    r
}

/// One work item's outcome: its verdict, plus the content hash and store
/// key it was looked up under (`None` when the item never got that far,
/// and no key without a store).
struct Worked {
    hash: Option<u64>,
    key: Option<ContentKey>,
    result: BlockResult,
}

impl Worked {
    fn skipped(result: BlockResult) -> Self {
        Worked {
            hash: None,
            key: None,
            result,
        }
    }
}

/// A stateful campaign with an incremental result cache (paper §4.1),
/// optionally persisted across process restarts.
#[derive(Debug, Default)]
pub struct Campaign {
    cache: HashMap<String, (u64, BlockResult)>,
    opts: CampaignOptions,
    cache_load: CacheLoad,
}

impl Campaign {
    /// An empty in-memory campaign (cold cache, unlimited budgets).
    pub fn new() -> Self {
        Campaign::default()
    }

    /// A campaign with explicit resource governance. If
    /// [`CampaignOptions::cache_path`] is set, the persisted cache is loaded
    /// now; a missing file starts cold, and a corrupted one starts cold
    /// *and records why* (see [`Campaign::cache_load`]) — it never panics
    /// and never trusts damaged verdicts.
    pub fn with_options(opts: CampaignOptions) -> Self {
        let (cache, cache_load) = match &opts.cache_path {
            Some(p) => cache::load(p, &opts.io),
            None => (HashMap::new(), CacheLoad::Disabled),
        };
        if let CacheLoad::Recovered { dropped, .. } = &cache_load {
            opts.obs
                .add(dfv_obs::kinds::CACHE_RECOVERED, *dropped as u64);
        }
        Campaign {
            cache,
            opts,
            cache_load,
        }
    }

    /// A campaign persisting its cache at `path`, with default budgets.
    pub fn with_cache_file(path: impl Into<PathBuf>) -> Self {
        Campaign::with_options(CampaignOptions {
            cache_path: Some(path.into()),
            ..CampaignOptions::default()
        })
    }

    /// How loading the persisted cache went at construction time.
    pub fn cache_load(&self) -> &CacheLoad {
        &self.cache_load
    }

    /// Runs the plan, re-verifying only blocks whose content changed since
    /// the last run. Cached verdicts are returned with
    /// [`BlockResult::from_cache`] set and near-zero duration — the paper's
    /// incremental-SEC payoff. Under a campaign deadline, blocks reached
    /// after it passes are skipped with [`BlockStatus::Inconclusive`]
    /// *before* their content hash is computed, so an expired run does not
    /// pay hashing cost over a large plan; if a cache path is configured,
    /// the (conclusive) verdicts are persisted atomically before returning.
    ///
    /// With [`CampaignOptions::workers`] `> 1` the blocks are executed by
    /// the self-scheduling worker pool in [`sched`]: each block is a pure
    /// work item (the run-start cache is shared read-only, the deadline is
    /// the shared amortized [`DeadlineClock`]), results are merged back in
    /// plan order, and all cache mutation and persistence happens on this
    /// thread after the join — so the canonical report is byte-identical
    /// to the one-worker run.
    pub fn run(&mut self, plan: &VerificationPlan) -> CampaignReport {
        let entries: Vec<PlanEntry<&BlockPair>> = plan
            .blocks
            .iter()
            .map(|block| PlanEntry::Block {
                block,
                digest: None,
            })
            .collect();
        self.run_entries(&entries)
    }

    /// [`run`](Campaign::run) over a plan some of whose entries the
    /// [`SharedStore`] already answered ([`PlanEntry::Stored`]). Those are
    /// answered first, in plan order, in one pass on the calling thread
    /// before the scheduler starts: each gets the fail point, deadline and
    /// cancel checks of any entry, the progress hook sees them as one
    /// batch, and the report carries the stored verdict under the entry's
    /// name in its plan slot. They are never journaled, cached or
    /// re-stored. Answered before any proof, a stored entry is
    /// deadline-skipped only by a deadline that had already passed, never
    /// by the time a proof in the same plan took.
    pub fn run_entries<B>(&mut self, items: &[PlanEntry<B>]) -> CampaignReport
    where
        B: std::borrow::Borrow<BlockPair> + Sync,
    {
        let start = Instant::now();
        let clock = sched::DeadlineClock::new(start, self.opts.deadline);
        let deadline = clock.instant();
        let workers = sched::resolve_workers_with(self.opts.workers, &self.opts.obs);
        // Open (or create) the checkpoint journal, replaying any verdicts
        // an interrupted run already committed.
        let (mut journal_writer, replayed, journal_load) = match &self.opts.journal_path {
            Some(p) => {
                let (w, map, load) = journal::open(p, &self.opts.io);
                (Some(w), map, load)
            }
            None => (None, HashMap::new(), JournalLoad::Disabled),
        };
        if let JournalLoad::Resumed { dropped, .. } = &journal_load {
            self.opts
                .obs
                .add(dfv_obs::kinds::JOURNAL_DROPPED, *dropped as u64);
        }
        let cache = &self.cache;
        let retry = &self.opts.retry;
        let io = &self.opts.io;
        let cancel = &self.opts.cancel;
        let shared = self.opts.shared_store.as_ref();
        let replayed_ref = &replayed;
        // The per-block work item: chaos fail point (deterministic, first),
        // then the deadline (amortized, shared) and the cancel latch so an
        // expired or abandoned campaign skips even the hashing, then the
        // journal replay probe, then the per-campaign cache probe, then
        // the cross-campaign shared store, then the budgeted proof.
        // Returns the content hash and store key alongside the result so
        // the post-join cache and store writer needn't rehash.
        let work = |_i: usize, item: &PlanEntry<B>| -> Worked {
            let name = item.name();
            if io.shim().fail_point("campaign.block", name) == FailAction::Panic {
                panic!("chaos: injected panic in block {name}");
            }
            if clock.expired() {
                let mut r = crashed_result(name, "");
                r.status = BlockStatus::Inconclusive(DEADLINE_SKIP_NOTE.into());
                return Worked::skipped(r);
            }
            if cancel.is_cancelled() {
                // Skipped, not journaled (the `None` hash keeps it out of
                // the sink): a resume after cancellation recomputes these,
                // while everything already journaled replays.
                let mut r = crashed_result(name, "");
                r.status = BlockStatus::Inconclusive(CANCELLED_NOTE.into());
                return Worked::skipped(r);
            }
            let (b, digest) = match item {
                PlanEntry::Block { block, digest } => (block.borrow(), *digest),
                PlanEntry::Stored { name, verdict } => {
                    return Worked::skipped(store_hit(name, verdict))
                }
            };
            // One walk gives both hashes; the key only matters to a store.
            let (hash, key) = match (digest, shared) {
                (Some(d), _) => (d.hash, Some(d.key)),
                (None, Some(s)) => {
                    let d = s.digest(b);
                    (d.hash, Some(d.key))
                }
                (None, None) => (b.content_hash(), None),
            };
            let done = |result| Worked {
                hash: Some(hash),
                key,
                result,
            };
            if let Some((h, journaled)) = replayed_ref.get(&b.name) {
                // The journal outranks the cache: it also replays
                // inconclusive and crashed verdicts, which the cache
                // deliberately forgets, so resuming the *same* run stays
                // byte-identical.
                if *h == hash {
                    return done(journaled.clone());
                }
            }
            if let Some((h, cached)) = cache.get(&b.name) {
                if *h == hash {
                    let mut r = cached.clone();
                    r.from_cache = true;
                    r.duration = Duration::ZERO;
                    // No proof ran for this verdict in this run.
                    r.attempts = 0;
                    r.equiv = None;
                    return done(r);
                }
            }
            if let Some(hit) = shared.zip(key).and_then(|(s, key)| s.get(key)) {
                // Another campaign (another client) already proved this
                // exact content — serve it as a cache hit under *this*
                // block's name.
                return done(store_hit(&b.name, &hit));
            }
            done(verify_block_with(b, retry, deadline))
        };
        // Store hits need no worker: one pass answers them all, in plan
        // order, and the hook hears them as one batch. A panic (the chaos
        // fail point) is quarantined exactly as in the pool.
        let progress = &self.opts.progress;
        let mut stored = Vec::new();
        let mut stored_panics = Vec::new();
        for (i, item) in items.iter().enumerate() {
            if let PlanEntry::Stored { name, .. } = item {
                stored.push(match sched::quarantine(|| work(i, item)) {
                    Ok(w) => w.result,
                    Err(payload) => {
                        let r = crashed_result(name, &payload);
                        stored_panics.push((i, payload));
                        r
                    }
                });
            }
        }
        if !stored.is_empty() {
            progress.fire(&stored);
        }
        // The scheduler runs the rest. Its completion-order sink is the
        // journal's single writer: each verdict is durably appended the
        // moment it exists, so a kill between two appends loses at most
        // the in-flight blocks. Crashed items are journaled too (a
        // resumed run must replay them); replayed and deadline-skipped
        // ones are not (already journaled / not a verdict).
        let computed: Vec<usize> = (0..items.len())
            .filter(|&i| matches!(items[i], PlanEntry::Block { .. }))
            .collect();
        let work = &work;
        let run_one = |_k: usize, &i: &usize| work(i, &items[i]);
        let results = sched::run_quarantined(&computed, workers, run_one, |k, res| {
            let PlanEntry::Block { block, .. } = &items[computed[k]] else {
                unreachable!("only full blocks are scheduled");
            };
            let b = block.borrow();
            match res {
                Ok(w) => progress.fire(std::slice::from_ref(&w.result)),
                Err(payload) => progress.fire(&[crashed_result(&b.name, payload)]),
            }
            let Some(w) = journal_writer.as_mut() else {
                return;
            };
            match res {
                Ok(Worked {
                    hash: Some(hash),
                    result: r,
                    ..
                }) if !r.from_journal => w.append(&r.name, *hash, r),
                Ok(_) => {}
                Err(payload) => {
                    // Re-derive the hash defensively: if hashing is what
                    // panicked, journaling this block is hopeless — skip
                    // it (the resumed run recomputes and re-crashes).
                    if let Ok(hash) = sched::quarantine(|| b.content_hash()) {
                        w.append(&b.name, hash, &crashed_result(&b.name, payload));
                    }
                }
            }
        });
        // Single writer: the cache is only mutated here, after the join,
        // in plan order — worker count cannot change what gets cached.
        let mut blocks = Vec::with_capacity(items.len());
        let mut stored = stored.into_iter();
        let mut stored_panics = stored_panics.into_iter().peekable();
        let mut results = results.into_iter();
        for (i, item) in items.iter().enumerate() {
            let (worked, panic) = match item {
                PlanEntry::Stored { .. } => (
                    Worked::skipped(stored.next().expect("one result per stored entry")),
                    stored_panics.next_if(|(j, _)| *j == i).map(|(_, p)| p),
                ),
                PlanEntry::Block { .. } => match results.next().expect("one result per block") {
                    Ok(w) => (w, None),
                    Err(payload) => (
                        Worked::skipped(crashed_result(item.name(), &payload)),
                        Some(payload),
                    ),
                },
            };
            if let Some(payload) = panic {
                // Recorded here, post-join in plan order, so the obs
                // stream is deterministic across worker counts.
                self.opts.obs.event(dfv_obs::kinds::SCHED_PANIC, || {
                    format!("{}: {payload}", item.name())
                });
            }
            let Worked {
                hash,
                key,
                result: r,
            } = worked;
            // Inconclusive is a statement about the *budget*, not the
            // block — and a crash says even less: caching either would
            // freeze a non-verdict forever.
            if let (Some(hash), PlanEntry::Block { block, .. }) = (hash, item) {
                if !r.from_cache && r.status.is_storable() {
                    let mut cached = r.clone();
                    // A journal-replayed verdict enters the cache as a
                    // plain entry; the provenance flag is per-run. It
                    // never enters the cross-client store (see
                    // `SharedStore`): only verdicts proved here do.
                    cached.from_journal = false;
                    if let (Some(store), Some(key), false) =
                        (&self.opts.shared_store, key, r.from_journal)
                    {
                        store.insert(key, cached.clone());
                    }
                    self.cache
                        .insert(block.borrow().name.clone(), (hash, cached));
                }
            }
            blocks.push(r);
        }
        self.opts.obs.add(
            dfv_obs::kinds::JOURNAL_REPLAYED,
            blocks.iter().filter(|r| r.from_journal).count() as u64,
        );
        let journal_error = journal_writer
            .as_ref()
            .and_then(|w| w.error())
            .map(|e| e.to_string());
        let cache_write_error = match &self.opts.cache_path {
            Some(p) => cache::save(p, &self.cache, io).err().map(|e| e.to_string()),
            None => None,
        };
        CampaignReport {
            blocks,
            duration: start.elapsed(),
            cache_write_error,
            journal_load,
            journal_error,
        }
    }

    /// Drops all cached verdicts (forces a from-scratch run). Does not
    /// delete the on-disk cache file; the next [`Campaign::run`] rewrites
    /// it.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::ModuleBuilder;
    use dfv_sec::Binding;
    use std::path::Path;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn inc_rtl(bug: bool) -> Module {
        let mut b = ModuleBuilder::new("inc_rtl");
        let x = b.input("x", 8);
        let one = b.lit(8, if bug { 2 } else { 1 });
        let y = b.add(x, one);
        b.output("y", y);
        b.finish().unwrap()
    }

    fn inc_block(bug: bool) -> BlockPair {
        BlockPair {
            name: "inc".into(),
            slm_source: "uint8 inc(uint8 x) { return x + 1; }".into(),
            slm_entry: "inc".into(),
            rtl: inc_rtl(bug),
            spec: EquivSpec::new(1)
                .bind("x", 0, Binding::Slm("x".into()))
                .compare("return", "y", 0),
        }
    }

    /// A deliberately hard, genuinely-equivalent block: distributivity
    /// over 16-bit operands (`a*(b+c)` in the SLM vs `a*b + a*c` in the
    /// RTL), which CDCL cannot settle under a tiny budget.
    fn hard_block() -> BlockPair {
        let mut rb = ModuleBuilder::new("rtl_distrib");
        let a = rb.input("a", 16);
        let b = rb.input("b", 16);
        let c = rb.input("c", 16);
        let (aw, bw, cw) = (rb.zext(a, 32), rb.zext(b, 32), rb.zext(c, 32));
        let ab = rb.mul(aw, bw);
        let ac = rb.mul(aw, cw);
        let y = rb.add(ab, ac);
        rb.output("y", y);
        BlockPair {
            name: "distrib".into(),
            slm_source: "uint32 distrib(uint16 a, uint16 b, uint16 c) { \
                         return (uint32)a * ((uint32)b + (uint32)c); }"
                .into(),
            slm_entry: "distrib".into(),
            rtl: rb.finish().unwrap(),
            spec: EquivSpec::new(1)
                .bind("a", 0, Binding::Slm("a".into()))
                .bind("b", 0, Binding::Slm("b".into()))
                .bind("c", 0, Binding::Slm("c".into()))
                .compare("return", "y", 0),
        }
    }

    /// A unique temp path per test invocation (no external tempfile dep).
    fn temp_cache_path(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dfv-core-test-{}-{tag}-{n}.cache",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn passing_block() {
        let r = verify_block(&inc_block(false));
        assert_eq!(r.status, BlockStatus::Pass);
        assert_eq!(r.attempts, 1);
        assert!(r.equiv.unwrap().outcome.is_equivalent());
    }

    #[test]
    fn buggy_block_reports_counterexample() {
        let r = verify_block(&inc_block(true));
        let BlockStatus::NotEquivalent(note) = &r.status else {
            panic!("expected NotEquivalent, got {:?}", r.status);
        };
        assert!(note.contains("counterexample"));
    }

    #[test]
    fn lint_blocked_block() {
        let mut b = inc_block(false);
        b.slm_source = "uint8 inc(uint8 x) { int *p = malloc(4); return x + 1; }".into();
        let r = verify_block(&b);
        assert_eq!(r.status, BlockStatus::LintBlocked);
        assert!(!r.lint_findings.is_empty());
        assert!(r.equiv.is_none());
    }

    #[test]
    fn parse_error_block() {
        let mut b = inc_block(false);
        b.slm_source = "not even a program".into();
        let r = verify_block(&b);
        assert!(matches!(r.status, BlockStatus::Error(_)));
    }

    #[test]
    fn incremental_cache_skips_unchanged() {
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "other".into(),
                ..inc_block(false)
            });
        let mut campaign = Campaign::new();
        let r1 = campaign.run(&plan);
        assert_eq!(r1.cache_hits(), 0);
        assert!(r1.all_pass());
        let r2 = campaign.run(&plan);
        assert_eq!(r2.cache_hits(), 2);
        assert!(r2.all_pass());

        // Editing one block re-verifies only that block.
        let mut edited = plan.clone();
        edited.blocks[0].slm_source = "uint8 inc(uint8 x) { return (uint8)(x + 1); }".into();
        let r3 = campaign.run(&edited);
        assert_eq!(r3.cache_hits(), 1);
        assert!(!r3.blocks[0].from_cache);
        assert!(r3.blocks[1].from_cache);
    }

    #[test]
    fn campaign_run_report_json_separates_timing_from_verdicts() {
        use dfv_obs::Json;
        let plan = VerificationPlan::new().block(inc_block(false));
        let rep = Campaign::new().run(&plan).to_run_report();
        let canon = rep.canonical_json();
        assert!(!canon.contains("wall_us"), "{canon}");
        let parsed = dfv_obs::parse_json(&canon).unwrap();
        let counters = parsed.get("counters").unwrap();
        assert_eq!(
            counters.get("campaign.blocks").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            counters.get("campaign.passed").and_then(Json::as_u64),
            Some(1)
        );
        let blocks = parsed
            .get("values")
            .and_then(|v| v.get("blocks"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(blocks[0].get("status").and_then(Json::as_str), Some("PASS"));
        // Wall time lives only in the full report: one phase per block + total.
        let full = dfv_obs::parse_json(&rep.full_json()).unwrap();
        let phases = full
            .get("timing")
            .and_then(|t| t.get("phases"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn report_renders_a_table() {
        let plan = VerificationPlan::new().block(inc_block(true));
        let report = Campaign::new().run(&plan);
        let text = report.to_string();
        assert!(text.contains("inc"));
        assert!(text.contains("FAIL"));
        assert!(text.contains("counterexample"));
    }

    #[test]
    fn hard_block_under_tiny_budget_degrades_to_simulation() {
        // The acceptance scenario: 100 conflicts + 1ms per attempt must
        // yield Inconclusive with a falsification summary in bounded time.
        let retry = RetryPolicy {
            budgets: vec![Budget::unlimited()
                .with_conflicts(100)
                .with_timeout(Duration::from_millis(1))],
            fallback_transactions: 32,
            fallback_seed: 9,
        };
        let started = Instant::now();
        let r = verify_block_with(&hard_block(), &retry, None);
        let BlockStatus::Inconclusive(note) = &r.status else {
            panic!("expected Inconclusive, got {:?}", r.status);
        };
        assert!(
            note.contains("no counterexample in 32 random transactions"),
            "note: {note}"
        );
        assert_eq!(r.attempts, 1);
        assert!(r.equiv.is_some());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "budgeted verification must return in bounded time"
        );
    }

    #[test]
    fn escalation_retries_until_a_budget_suffices() {
        // First budget (0 conflicts) exhausts before the search can start;
        // the second (unlimited) finds the counterexample. The simulation
        // fallback is disabled, so the verdict can only come from the
        // escalated solve. (A trivially-UNSAT block won't do here: it is
        // decided during clause insertion, before any budget applies.)
        let retry = RetryPolicy {
            budgets: vec![Budget::unlimited().with_conflicts(0), Budget::unlimited()],
            fallback_transactions: 0,
            fallback_seed: 1,
        };
        let r = verify_block_with(&inc_block(true), &retry, None);
        assert!(
            matches!(r.status, BlockStatus::NotEquivalent(_)),
            "got {:?}",
            r.status
        );
        assert_eq!(r.attempts, 2);
    }

    #[test]
    fn simulation_fallback_still_finds_real_bugs() {
        // A buggy block under a zero-conflict budget: the fallback must
        // surface the divergence as NotEquivalent, not Inconclusive.
        let retry = RetryPolicy {
            budgets: vec![Budget::unlimited().with_conflicts(0)],
            fallback_transactions: 300,
            fallback_seed: 2,
        };
        let r = verify_block_with(&inc_block(true), &retry, None);
        assert!(
            matches!(r.status, BlockStatus::NotEquivalent(_)),
            "got {:?}",
            r.status
        );
    }

    #[test]
    fn campaign_deadline_skips_remaining_blocks() {
        let plan = VerificationPlan::new()
            .block(hard_block())
            .block(inc_block(false));
        let mut campaign = Campaign::with_options(CampaignOptions {
            retry: RetryPolicy {
                budgets: vec![Budget::unlimited()],
                fallback_transactions: 0,
                fallback_seed: 0,
            },
            deadline: Some(Duration::ZERO),
            ..CampaignOptions::default()
        });
        let report = campaign.run(&plan);
        assert_eq!(report.inconclusive(), 2);
        // With a zero deadline neither block gets to start a proof; a block
        // already in flight would instead stop at the solver's next budget
        // check with the deadline reason.
        let BlockStatus::Inconclusive(note) = &report.blocks[1].status else {
            panic!("expected skip, got {:?}", report.blocks[1].status);
        };
        assert!(note.contains("deadline"), "note: {note}");
        assert_eq!(report.blocks[1].attempts, 0);
    }

    #[test]
    fn zero_deadline_skips_before_hashing_or_cache_probe() {
        // Regression: the deadline used to be checked only *after*
        // `content_hash()`, so an expired campaign still paid full hashing
        // cost over the plan (and could serve cache hits). The check now
        // comes first: with a zero deadline every block — cached or not —
        // is skipped untouched.
        let path = temp_cache_path("zero-deadline");
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "other".into(),
                ..inc_block(false)
            });
        let mut warm = Campaign::with_cache_file(&path);
        assert!(warm.run(&plan).all_pass());
        drop(warm);

        let mut expired = Campaign::with_options(CampaignOptions {
            deadline: Some(Duration::ZERO),
            cache_path: Some(path.clone()),
            ..CampaignOptions::default()
        });
        assert_eq!(expired.cache_load(), &CacheLoad::Loaded { entries: 2 });
        let report = expired.run(&plan);
        assert_eq!(report.inconclusive(), 2);
        for b in &report.blocks {
            assert!(!b.from_cache, "skip must precede the cache probe");
            assert_eq!(b.attempts, 0);
            let BlockStatus::Inconclusive(note) = &b.status else {
                panic!("expected deadline skip, got {:?}", b.status);
            };
            assert!(note.contains("deadline"), "note: {note}");
        }
        cleanup(&path);
    }

    #[test]
    fn inconclusive_verdicts_are_retried_next_run() {
        let plan = VerificationPlan::new().block(hard_block());
        let mut campaign = Campaign::with_options(CampaignOptions {
            retry: RetryPolicy {
                budgets: vec![Budget::unlimited().with_conflicts(10)],
                fallback_transactions: 0,
                fallback_seed: 0,
            },
            ..CampaignOptions::default()
        });
        let r1 = campaign.run(&plan);
        assert_eq!(r1.inconclusive(), 1);
        let r2 = campaign.run(&plan);
        assert_eq!(r2.cache_hits(), 0, "inconclusive must not be cached");
        assert_eq!(r2.inconclusive(), 1);
    }

    #[test]
    fn persisted_cache_survives_process_restart() {
        let path = temp_cache_path("restart");
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "buggy".into(),
                ..inc_block(true)
            });

        let mut first = Campaign::with_cache_file(&path);
        assert_eq!(first.cache_load(), &CacheLoad::Missing);
        let r1 = first.run(&plan);
        assert_eq!(r1.cache_hits(), 0);
        assert!(r1.cache_write_error.is_none());
        drop(first); // "process exit"

        let mut second = Campaign::with_cache_file(&path);
        assert_eq!(second.cache_load(), &CacheLoad::Loaded { entries: 2 });
        let r2 = second.run(&plan);
        assert_eq!(r2.cache_hits(), 2);
        assert!(r2.blocks.iter().all(|b| b.from_cache));
        // The failing verdict (with its rendered counterexample) survived.
        let BlockStatus::NotEquivalent(note) = &r2.blocks[1].status else {
            panic!("expected persisted FAIL, got {:?}", r2.blocks[1].status);
        };
        assert!(note.contains("counterexample"));

        // An edit after restart re-verifies only the touched block.
        let mut edited = plan.clone();
        edited.blocks[0].slm_source = "uint8 inc(uint8 x) { return (uint8)(x + 1); }".into();
        let r3 = second.run(&edited);
        assert!(!r3.blocks[0].from_cache);
        assert!(r3.blocks[1].from_cache);
        cleanup(&path);
    }

    #[test]
    fn corrupted_cache_entry_is_a_miss_for_that_entry_only() {
        let path = temp_cache_path("corrupt");
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "other".into(),
                ..inc_block(false)
            });
        let mut first = Campaign::with_cache_file(&path);
        first.run(&plan);
        drop(first);

        // Truncate the file mid-entry (simulates a crash or disk fault):
        // the damaged record is dropped, the intact one is recovered.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();

        let mut second = Campaign::with_cache_file(&path);
        assert_eq!(
            second.cache_load(),
            &CacheLoad::Recovered {
                entries: 1,
                dropped: 1
            }
        );
        // One block is a hit, the damaged one is re-verified, and the
        // next save rewrites a fully valid cache file.
        let r = second.run(&plan);
        assert!(r.all_pass());
        assert_eq!(r.cache_hits(), 1);
        drop(second);

        let third = Campaign::with_cache_file(&path);
        assert_eq!(third.cache_load(), &CacheLoad::Loaded { entries: 2 });

        // Outright garbage is also survived (and rejected wholesale: a
        // file without the magic header can't be trusted record by
        // record).
        std::fs::write(&path, "!! this is not a cache file !!").unwrap();
        let fourth = Campaign::with_cache_file(&path);
        assert!(matches!(fourth.cache_load(), CacheLoad::Corrupt { .. }));
        cleanup(&path);
    }

    #[test]
    fn cache_recovery_records_a_counter() {
        let path = temp_cache_path("recover-counter");
        let plan = VerificationPlan::new().block(inc_block(false));
        let mut first = Campaign::with_cache_file(&path);
        first.run(&plan);
        drop(first);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();

        let rec = dfv_obs::MemoryRecorder::shared();
        let campaign = Campaign::with_options(CampaignOptions {
            cache_path: Some(path.clone()),
            obs: dfv_obs::ObsHook::attached(rec.clone()),
            ..CampaignOptions::default()
        });
        assert!(matches!(campaign.cache_load(), CacheLoad::Recovered { .. }));
        assert_eq!(
            rec.lock().unwrap().counter(dfv_obs::kinds::CACHE_RECOVERED),
            1
        );
        cleanup(&path);
    }

    #[test]
    fn panicking_block_is_quarantined_and_the_rest_complete() {
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "victim".into(),
                ..inc_block(false)
            })
            .block(BlockPair {
                name: "tail".into(),
                ..inc_block(false)
            });
        for workers in [1, 4] {
            let rec = dfv_obs::MemoryRecorder::shared();
            let mut campaign = Campaign::with_options(CampaignOptions {
                workers: Some(workers),
                io: IoHandle::chaos(ChaosPlan::none(0).panic_on_block("victim")),
                obs: dfv_obs::ObsHook::attached(rec.clone()),
                ..CampaignOptions::default()
            });
            let report = campaign.run(&plan);
            assert_eq!(report.crashed(), 1, "workers={workers}");
            let BlockStatus::Crashed(payload) = &report.blocks[1].status else {
                panic!("expected Crashed, got {:?}", report.blocks[1].status);
            };
            assert_eq!(payload, "chaos: injected panic in block victim");
            assert_eq!(report.blocks[0].status, BlockStatus::Pass);
            assert_eq!(report.blocks[2].status, BlockStatus::Pass);
            let guard = rec.lock().unwrap();
            assert_eq!(
                guard.events_of(dfv_obs::kinds::SCHED_PANIC),
                vec!["victim: chaos: injected panic in block victim"]
            );
            drop(guard);
            // The quarantine verdict shows up in report renderings too.
            assert!(report.to_string().contains("CRASH"));
            let canon = report.to_run_report().canonical_json();
            assert!(canon.contains("\"CRASH\""), "{canon}");
            assert!(canon.contains("campaign.crashed"), "{canon}");
        }
    }

    #[test]
    fn journaled_campaign_resumes_after_partial_run() {
        let path = temp_cache_path("journal-resume");
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "buggy".into(),
                ..inc_block(true)
            })
            .block(BlockPair {
                name: "third".into(),
                ..inc_block(false)
            });

        // Uninterrupted reference run (journaled — the journal must be
        // invisible in the canonical report).
        let mut clean = Campaign::with_options(CampaignOptions::resume(&path));
        let clean_report = clean.run(&plan);
        assert_eq!(clean_report.journal_load, JournalLoad::Fresh);
        assert!(clean_report.journal_error.is_none());
        let clean_json = clean_report.to_run_report().canonical_json();
        drop(clean);

        // Simulate a crash that lost the last record: truncate the tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text[..text.len() - 2].rfind('\n').unwrap() + 1;
        std::fs::write(&path, &text[..cut]).unwrap();

        // The resumed run replays the surviving verdicts, recomputes the
        // lost one, and its canonical report is byte-identical.
        let rec = dfv_obs::MemoryRecorder::shared();
        let mut resumed = Campaign::with_options(CampaignOptions {
            journal_path: Some(path.clone()),
            obs: dfv_obs::ObsHook::attached(rec.clone()),
            ..CampaignOptions::default()
        });
        let resumed_report = resumed.run(&plan);
        assert_eq!(
            resumed_report.journal_load,
            JournalLoad::Resumed {
                entries: 2,
                dropped: 0
            }
        );
        assert_eq!(resumed_report.journal_replayed(), 2);
        assert_eq!(
            rec.lock()
                .unwrap()
                .counter(dfv_obs::kinds::JOURNAL_REPLAYED),
            2
        );
        assert_eq!(resumed_report.to_run_report().canonical_json(), clean_json);
        // The replayed verdicts carry their provenance in the table view.
        assert!(resumed_report.to_string().contains("jrnl"));
        cleanup(&path);
    }

    #[test]
    fn journal_to_unwritable_path_degrades_not_fatal() {
        let plan = VerificationPlan::new().block(inc_block(false));
        let mut campaign =
            Campaign::with_options(CampaignOptions::resume("/nonexistent-dir/dfv.journal"));
        let report = campaign.run(&plan);
        assert!(report.all_pass(), "verdicts must not depend on the journal");
        assert!(report.journal_error.is_some());
        assert!(report.to_string().contains("journal: disabled"));
    }

    #[test]
    fn unwritable_cache_path_is_reported_not_fatal() {
        let plan = VerificationPlan::new().block(inc_block(false));
        let mut campaign = Campaign::with_options(CampaignOptions {
            cache_path: Some(PathBuf::from("/nonexistent-dir/dfv.cache")),
            ..CampaignOptions::default()
        });
        let report = campaign.run(&plan);
        assert!(report.all_pass(), "verdicts must not depend on the cache");
        assert!(report.cache_write_error.is_some());
    }

    #[test]
    fn cancelled_campaign_skips_unstarted_blocks_and_never_journals_them() {
        let path = temp_cache_path("cancel");
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "second".into(),
                ..inc_block(false)
            });
        // Pre-cancelled token: every block is skipped before hashing.
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut campaign = Campaign::with_options(CampaignOptions {
            journal_path: Some(path.clone()),
            cancel: cancel.clone(),
            ..CampaignOptions::default()
        });
        let report = campaign.run(&plan);
        assert_eq!(report.cancelled(), 2);
        assert_eq!(report.inconclusive(), 2);
        for b in &report.blocks {
            assert_eq!(b.attempts, 0);
            assert!(!b.from_cache);
        }
        assert!(report.to_string().contains("2 cancelled"));
        let canon = report.to_run_report().canonical_json();
        assert!(canon.contains("campaign.cancelled"), "{canon}");
        drop(campaign);

        // Cancelled blocks were not journaled, so a fresh (uncancelled)
        // run on the same journal recomputes them all.
        let mut resumed = Campaign::with_options(CampaignOptions::resume(&path));
        let resumed_report = resumed.run(&plan);
        assert_eq!(resumed_report.journal_load, JournalLoad::Fresh);
        assert!(resumed_report.all_pass());
        assert_eq!(resumed_report.cancelled(), 0);
        cleanup(&path);
    }

    #[test]
    fn shared_store_dedupes_identical_content_across_campaigns() {
        let store = SharedStore::new();
        // Client A and client B submit the same block content under
        // different names and in different campaigns.
        let plan_a = VerificationPlan::new().block(inc_block(false));
        let plan_b = VerificationPlan::new().block(BlockPair {
            name: "same_content_other_name".into(),
            ..inc_block(false)
        });
        let mut a = Campaign::with_options(CampaignOptions {
            shared_store: Some(store.clone()),
            ..CampaignOptions::default()
        });
        let ra = a.run(&plan_a);
        assert!(ra.all_pass());
        assert_eq!(ra.cache_hits(), 0);
        assert_eq!(store.len(), 1);

        let mut b = Campaign::with_options(CampaignOptions {
            shared_store: Some(store.clone()),
            ..CampaignOptions::default()
        });
        let rb = b.run(&plan_b);
        assert!(rb.all_pass());
        assert_eq!(rb.cache_hits(), 1, "cross-campaign dedup must hit");
        assert_eq!(rb.blocks[0].name, "same_content_other_name");
        assert_eq!(rb.blocks[0].attempts, ra.blocks[0].attempts);
        assert_eq!(store.len(), 1, "a served hit must not re-insert");
    }

    /// `n` distinct blocks whose verdict is a cheap, conclusive parse error.
    fn error_blocks(n: usize) -> Vec<BlockPair> {
        (0..n)
            .map(|i| BlockPair {
                name: format!("err{i}"),
                slm_source: format!("not a program {i}"),
                ..inc_block(false)
            })
            .collect()
    }

    #[test]
    fn shared_store_is_bounded_and_evicts_the_oldest_verdict() {
        let store = SharedStore::with_capacity(3);
        let run = |blocks: Vec<BlockPair>| {
            Campaign::with_options(CampaignOptions {
                shared_store: Some(store.clone()),
                ..CampaignOptions::default()
            })
            .run(&VerificationPlan { blocks })
        };
        let blocks = error_blocks(5);
        assert_eq!(run(blocks[..3].to_vec()).cache_hits(), 0);
        assert_eq!((store.len(), store.take_evictions()), (3, 0));
        // A hit on err0 does not keep it: it is still the oldest...
        assert_eq!(run(blocks[..1].to_vec()).cache_hits(), 1);
        run(blocks[3..4].to_vec());
        assert_eq!((store.len(), store.take_evictions()), (3, 1));
        assert!(store.get(store.digest(&blocks[0]).key).is_none());
        assert!(store.get(store.digest(&blocks[1]).key).is_some());
        // ...and an evicted verdict is simply recomputed, never wrong.
        let again = run(blocks[..1].to_vec());
        assert_eq!(again.cache_hits(), 0);
        assert!(matches!(again.blocks[0].status, BlockStatus::Error(_)));
        assert_eq!(store.take_evictions(), 1);
        assert_eq!(store.take_evictions(), 0, "taking resets the count");
    }

    #[test]
    fn stored_entries_report_exactly_like_full_blocks_that_hit_the_store() {
        let store = SharedStore::new();
        let campaign = || {
            Campaign::with_options(CampaignOptions {
                shared_store: Some(store.clone()),
                workers: Some(2),
                ..CampaignOptions::default()
            })
        };
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "bug".into(),
                ..inc_block(true)
            });
        campaign().run(&plan);
        let full = campaign().run(&plan);
        assert_eq!(full.cache_hits(), 2);
        // The same plan with the first block given as its stored verdict.
        let entries = vec![
            PlanEntry::Stored {
                name: "inc".into(),
                verdict: Box::new(
                    store
                        .get(store.digest(&plan.blocks[0]).key)
                        .expect("stored"),
                ),
            },
            PlanEntry::Block {
                block: plan.blocks[1].clone(),
                digest: None,
            },
        ];
        let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = fired.clone();
        let mut c = Campaign::with_options(CampaignOptions {
            shared_store: Some(store.clone()),
            progress: ProgressHook::new(move |batch| {
                let names = batch.iter().map(|r| r.name.clone());
                sink.lock().unwrap().push(names.collect::<Vec<_>>());
            }),
            ..CampaignOptions::default()
        });
        let mixed = c.run_entries(&entries);
        assert_eq!(
            mixed.to_run_report().canonical_json(),
            full.to_run_report().canonical_json()
        );
        // The store hit is one batch, fired before the computed block.
        assert_eq!(*fired.lock().unwrap(), [["inc"], ["bug"]]);
        assert_eq!(store.len(), 2, "stored entries are not re-stored");
        // A stored entry still honours the deadline like any block.
        let mut late = Campaign::with_options(CampaignOptions {
            deadline: Some(Duration::ZERO),
            ..CampaignOptions::default()
        });
        assert_eq!(late.run_entries(&entries).deadline_skipped(), 2);
    }

    #[test]
    fn store_hits_are_answered_in_one_batch_before_any_proof() {
        let store = SharedStore::new();
        let proved = inc_block(false);
        Campaign::with_options(CampaignOptions {
            shared_store: Some(store.clone()),
            ..CampaignOptions::default()
        })
        .run(&VerificationPlan::new().block(proved.clone()));
        let verdict = store.get(store.digest(&proved).key).expect("stored");
        let hit = |name: &str| PlanEntry::Stored {
            name: name.into(),
            verdict: Box::new(verdict.clone()),
        };
        let block = |name: &str, bug| PlanEntry::Block {
            block: BlockPair {
                name: name.into(),
                ..inc_block(bug)
            },
            digest: None,
        };
        let entries = vec![
            block("b0", true),
            hit("s1"),
            block("b2", false),
            hit("s3"),
            hit("victim"),
        ];
        for workers in [1, 4] {
            let batches = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = batches.clone();
            let rec = dfv_obs::MemoryRecorder::shared();
            let mut c = Campaign::with_options(CampaignOptions {
                workers: Some(workers),
                io: IoHandle::chaos(ChaosPlan::none(0).panic_on_block("victim")),
                obs: dfv_obs::ObsHook::attached(rec.clone()),
                progress: ProgressHook::new(move |batch| {
                    let rows = batch.iter().map(|r| (r.name.clone(), r.status.to_string()));
                    sink.lock().unwrap().push(rows.collect::<Vec<_>>());
                }),
                ..CampaignOptions::default()
            });
            let report = c.run_entries(&entries);
            let names: Vec<&str> = report.blocks.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["b0", "s1", "b2", "s3", "victim"], "plan order");
            assert_eq!(report.cache_hits(), 2);
            assert_eq!(report.crashed(), 1);
            // The store hits, the quarantined one among them, are the
            // first batch; each proof follows as a batch of its own.
            let row = |n: &str, s: &str| (n.to_string(), s.to_string());
            let mut got = batches.lock().unwrap().clone();
            assert_eq!(
                got[0],
                [row("s1", "PASS"), row("s3", "PASS"), row("victim", "CRASH")],
                "workers={workers}"
            );
            got.remove(0);
            got.sort();
            assert_eq!(got, [[row("b0", "FAIL")], [row("b2", "PASS")]]);
            assert_eq!(
                rec.lock().unwrap().events_of(dfv_obs::kinds::SCHED_PANIC),
                vec!["victim: chaos: injected panic in block victim"]
            );
        }
        // A cancelled campaign skips its store hits like any entry.
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut c = Campaign::with_options(CampaignOptions {
            cancel,
            ..CampaignOptions::default()
        });
        assert_eq!(c.run_entries(&entries).cancelled(), entries.len());
    }

    #[test]
    fn shared_store_never_holds_inconclusive_verdicts() {
        let store = SharedStore::new();
        let plan = VerificationPlan::new().block(hard_block());
        let mut campaign = Campaign::with_options(CampaignOptions {
            retry: RetryPolicy {
                budgets: vec![Budget::unlimited().with_conflicts(10)],
                fallback_transactions: 0,
                fallback_seed: 0,
            },
            shared_store: Some(store.clone()),
            ..CampaignOptions::default()
        });
        let r = campaign.run(&plan);
        assert_eq!(r.inconclusive(), 1);
        assert!(store.is_empty(), "non-verdicts must not be shared");
    }

    #[test]
    fn journal_replayed_verdicts_never_enter_the_shared_store() {
        let path = temp_cache_path("journal-store");
        let plan = VerificationPlan::new().block(inc_block(false));
        Campaign::with_options(CampaignOptions::resume(&path)).run(&plan);
        let store = SharedStore::new();
        let mut resumed = Campaign::with_options(CampaignOptions {
            journal_path: Some(path.clone()),
            shared_store: Some(store.clone()),
            ..CampaignOptions::default()
        });
        let report = resumed.run(&plan);
        assert_eq!(report.journal_replayed(), 1);
        assert!(store.is_empty(), "a replayed verdict was not proved here");
        // The submitter's own per-campaign cache still takes it.
        assert_eq!(resumed.cache.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn storable_statuses_are_exactly_the_conclusive_ones_by_value_and_by_name() {
        let all = [
            (BlockStatus::Pass, true),
            (BlockStatus::LintBlocked, true),
            (BlockStatus::NotEquivalent("cex".into()), true),
            (BlockStatus::Error("e".into()), true),
            (BlockStatus::Inconclusive("budget".into()), false),
            (BlockStatus::Crashed("panic".into()), false),
        ];
        for (status, storable) in all {
            assert_eq!(status.is_storable(), storable, "{status}");
            assert_eq!(
                BlockStatus::is_storable_name(&status.to_string()),
                storable,
                "{status}"
            );
        }
        assert!(!BlockStatus::is_storable_name("pass"));
        assert!(!BlockStatus::is_storable_name(""));
    }

    #[test]
    fn progress_hook_fires_once_per_block_at_any_worker_count() {
        use std::sync::{Arc, Mutex};
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "b2".into(),
                ..inc_block(false)
            })
            .block(BlockPair {
                name: "b3".into(),
                ..inc_block(true)
            });
        for workers in [1, 4] {
            let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            let mut campaign = Campaign::with_options(CampaignOptions {
                workers: Some(workers),
                progress: ProgressHook::new(move |batch| {
                    // No store hits here: each computed block is its own
                    // one-element batch.
                    assert_eq!(batch.len(), 1);
                    let r = &batch[0];
                    sink.lock()
                        .unwrap()
                        .push((r.name.clone(), r.status.to_string()));
                }),
                ..CampaignOptions::default()
            });
            campaign.run(&plan);
            let mut got = seen.lock().unwrap().clone();
            got.sort();
            assert_eq!(
                got,
                vec![
                    ("b2".to_string(), "PASS".to_string()),
                    ("b3".to_string(), "FAIL".to_string()),
                    ("inc".to_string(), "PASS".to_string()),
                ],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn deadline_skips_are_counted_in_the_canonical_summary() {
        let plan = VerificationPlan::new()
            .block(inc_block(false))
            .block(BlockPair {
                name: "second".into(),
                ..inc_block(false)
            });
        let mut campaign = Campaign::with_options(CampaignOptions {
            deadline: Some(Duration::ZERO),
            ..CampaignOptions::default()
        });
        let report = campaign.run(&plan);
        assert_eq!(report.deadline_skipped(), 2);
        assert!(report.to_string().contains("2 deadline-skipped"));
        let canon = report.to_run_report().canonical_json();
        assert!(canon.contains("campaign.deadline_skipped"), "{canon}");
    }
}
