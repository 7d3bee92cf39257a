//! The daemon: executor pool, connection threads, and failure containment.
//!
//! # Architecture
//!
//! ```text
//!  client A ──frames──► reader thread ──► AdmissionQueue ──► executor pool
//!           ◄─frames─── writer thread ◄── bounded outbound ◄─┘  (Campaign /
//!  client B ── ...                        channel               FaultCampaign)
//! ```
//!
//! The server is transport-agnostic: [`Server::attach`] accepts any
//! `(Read, Write)` pair — the in-process [`pipe`](mod@crate::pipe) duplex in tests,
//! split TCP or Unix-domain streams in the example binary, or either
//! wrapped in a [`dfv_core::ChaosWire`]. Each connection gets two
//! threads: a *reader* that parses frames and performs admission, and a
//! *writer* that owns the write half and drains a **bounded** outbound
//! channel, so one slow client can back-pressure only its own channel,
//! never an executor or another client.
//!
//! # Failure containment, by path
//!
//! - **Overload**: admission is bounded ([`crate::admission`]); excess
//!   submissions get a typed transient `Rejected` and are dropped, so
//!   the submission rate cannot grow the queue. What the daemon keeps
//!   between jobs is bounded too: the shared verdict store at
//!   [`dfv_core::STORE_CAPACITY`] verdicts, each connection's ref table
//!   at [`REF_TABLE_CAPACITY`] refs, both evicting the oldest entry
//!   first.
//! - **Slow client**: progress frames are sent with `try_send` and
//!   *dropped* (counted) when the outbound channel is full; final
//!   reports retry with a bounded backoff, then give up and count
//!   `serve.client_lost`. No send blocks an executor forever.
//! - **Disconnected / stalled client**: the reader thread sees EOF (or a
//!   read timeout) and fires the cancel latch of every job the
//!   connection owns; a running campaign stops starting new blocks,
//!   journals what finished, and the freed executor moves on.
//! - **Crashing work**: a panicking block is quarantined by
//!   `dfv-core::sched` inside the campaign; the job still completes with
//!   a `Crashed` verdict for that block. A panic can never take down an
//!   executor thread, let alone the daemon.
//! - **Kill -9**: accepted campaigns that name a journal checkpoint
//!   every verdict through `dfv-core`'s crash-safe journal (advisory
//!   file locks, torn-tail recovery). Resubmitting the same plan with
//!   the same journal name after a restart replays finished blocks and
//!   recomputes the rest — the canonical report is byte-identical to an
//!   uninterrupted run.
//! - **Drain**: a `Drain` request stops admission (late submitters get a
//!   typed rejection), lets in-flight and queued jobs finish, and then
//!   the executor pool exits; [`Server::wait`] returns.
//!
//! Identical submissions from different clients share verdicts through a
//! process-wide [`SharedStore`] keyed by a secret-keyed 128-bit content
//! key, so a fleet of clients verifying overlapping block sets pays for
//! each proof once. Only verdicts proved by the daemon enter it, never
//! ones replayed from a client's journal.
//!
//! # Block refs
//!
//! A warm resubmission need not resend what the daemon already proved
//! (see [`crate::proto`]'s module docs for the wire form). The reader
//! thread keeps a per-connection table from the client's ref ids to the
//! store keys the daemon computed itself from full blocks that connection
//! sent. At admission it resolves every `known` ref through that table
//! and then the store; each resolved ref joins the campaign as a
//! [`PlanEntry::Stored`] verdict and is reported like any store hit.
//! Anything unresolvable is answered with `MissingRefs` and nothing is
//! admitted. A ref only ever resolves on the connection that sent its
//! content, so refs give one client no handle on another's verdicts.
//!
//! The reader thread walks each full block once, for both its store key
//! and the unkeyed hash the campaign's journal and cache use, and hands
//! both to the campaign, so no block is walked again on the executor.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dfv_core::{
    Campaign, CampaignOptions, CancelToken, ContentKey, FaultCampaign, FifoMap, IoHandle,
    PlanEntry, ProgressHook, SharedStore,
};
use dfv_obs::{kinds, ObsHook};

use crate::admission::{AdmissionQueue, Job, Limits, QueuedJob};
use crate::frame::{read_frame, write_frame_with};
use crate::proto::{
    decode_request, encode_response, JobSpec, Request, Response, RetryClass, SubmitOptions,
    WireBlock, REF_TABLE_CAPACITY,
};

/// Outbound frames buffered per connection before progress is shed.
const OUTBOUND_QUEUE: usize = 64;
/// Bounded patience for final (non-sheddable) sends: a slow client gets
/// 2 s to make room, polled finely enough that a queue full of shed
/// progress frames, which the writer drains in microseconds, costs the
/// final answer well under a millisecond; then the client is written off.
const FINAL_SEND_PATIENCE: Duration = Duration::from_secs(2);
const FINAL_SEND_POLL: Duration = Duration::from_micros(100);

/// Monotonic named counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct Counters(Mutex<BTreeMap<String, u64>>);

impl Counters {
    /// Adds 1 to `name`.
    pub fn bump(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to `name`.
    pub fn add(&self, name: &str, delta: u64) {
        let mut m = self.0.lock().expect("counter lock");
        *m.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.0
            .lock()
            .expect("counter lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// A connection's outbound channel, safe to hand to executors.
///
/// Progress is best-effort (shed under back-pressure, counted); final
/// answers are bounded-patience: retried briefly, then abandoned with
/// `serve.client_lost` — an executor is never parked on a dead client.
#[derive(Debug, Clone)]
pub struct Outbound {
    tx: SyncSender<Response>,
    counters: Arc<Counters>,
}

impl Outbound {
    /// Sheddable send: drops (and counts) when the client is slow.
    pub fn send_progress(&self, resp: Response) {
        match self.tx.try_send(resp) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.counters.bump(kinds::SERVE_PROGRESS_DROPPED),
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// An outbound channel nobody reads, for queue tests.
    #[cfg(test)]
    pub(crate) fn detached() -> Outbound {
        Outbound {
            tx: sync_channel(1).0,
            counters: Arc::new(Counters::default()),
        }
    }

    /// Non-sheddable send with bounded patience. Returns `false` when
    /// the client is gone or would not drain its channel in time.
    pub fn send_final(&self, resp: Response) -> bool {
        let give_up = Instant::now() + FINAL_SEND_PATIENCE;
        let mut resp = resp;
        loop {
            match self.tx.try_send(resp) {
                Ok(()) => return true,
                Err(TrySendError::Full(r)) if Instant::now() < give_up => {
                    resp = r;
                    std::thread::sleep(FINAL_SEND_POLL);
                }
                Err(_) => return false,
            }
        }
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads (0 = accept-only; useful for admission tests).
    pub executors: usize,
    /// Admission queue limits.
    pub limits: Limits,
    /// Default per-campaign worker count when a submission names none.
    pub default_workers: Option<usize>,
    /// Cap applied to every submission's deadline (`None` = uncapped).
    pub max_deadline_ms: Option<u64>,
    /// Directory for journals (created at start).
    pub state_dir: PathBuf,
    /// Filesystem shim used for journals — a [`dfv_core::ChaosIo`] here
    /// puts the whole persistence path under fault injection.
    pub io: IoHandle,
    /// Observability hook passed to every campaign.
    pub obs: ObsHook,
}

impl ServeConfig {
    /// Sensible defaults over the given state directory.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            executors: 2,
            limits: Limits::default(),
            default_workers: None,
            max_deadline_ms: None,
            state_dir: state_dir.into(),
            io: IoHandle::real(),
            obs: ObsHook::none(),
        }
    }
}

struct ServerInner {
    cfg: ServeConfig,
    counters: Arc<Counters>,
    queue: AdmissionQueue,
    store: SharedStore,
    /// Cancel latches of every accepted-but-unfinished job.
    jobs: Mutex<HashMap<u64, CancelToken>>,
    next_job: AtomicU64,
}

/// A running daemon.
pub struct Server {
    inner: Arc<ServerInner>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

/// Join handles for one attached connection's two threads.
pub struct ConnHandle {
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl ConnHandle {
    /// Waits for both connection threads to exit (they do when the
    /// client closes its end and all of its jobs have reported).
    pub fn join(self) {
        let _ = self.reader.join();
        let _ = self.writer.join();
    }
}

impl Server {
    /// Starts the executor pool. Connections are added with [`attach`].
    ///
    /// [`attach`]: Server::attach
    pub fn start(cfg: ServeConfig) -> Server {
        let _ = std::fs::create_dir_all(&cfg.state_dir);
        let inner = Arc::new(ServerInner {
            queue: AdmissionQueue::new(cfg.limits),
            counters: Arc::new(Counters::default()),
            store: SharedStore::new(),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            cfg,
        });
        let executors = (0..inner.cfg.executors)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || {
                    while let Some(job) = inner.queue.pop() {
                        run_job(&inner, job);
                    }
                })
            })
            .collect();
        Server {
            inner,
            executors: Mutex::new(executors),
        }
    }

    /// Serves one connection over any byte-stream pair. Returns the
    /// connection's thread handles; the server does not track them.
    pub fn attach<R, W>(&self, reader: R, writer: W) -> ConnHandle
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let (tx, rx) = sync_channel::<Response>(OUTBOUND_QUEUE);
        let outbound = Outbound {
            tx,
            counters: self.inner.counters.clone(),
        };
        // Job ids this connection owns; both threads cancel them when
        // the client is found dead (whichever notices first wins).
        let conn_jobs: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        let writer_inner = self.inner.clone();
        let writer_jobs = conn_jobs.clone();
        let writer_handle = std::thread::spawn(move || {
            let mut w = writer;
            while let Ok(resp) = rx.recv() {
                if write_frame_with(&mut w, |out| encode_response(resp, out)).is_err() {
                    // Client gone with a frame still owed to it. Dropping
                    // rx makes every later send fail fast at the sender.
                    writer_inner.counters.bump(kinds::SERVE_CLIENT_LOST);
                    break;
                }
            }
            cancel_owned_jobs(&writer_inner, &writer_jobs);
        });

        let reader_inner = self.inner.clone();
        let reader_jobs = conn_jobs;
        let reader_handle = std::thread::spawn(move || {
            let mut r = reader;
            serve_requests(&reader_inner, &mut r, &outbound, &reader_jobs);
            cancel_owned_jobs(&reader_inner, &reader_jobs);
        });

        ConnHandle {
            reader: reader_handle,
            writer: writer_handle,
        }
    }

    /// Current counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.counters.snapshot()
    }

    /// One counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.counters.get(name)
    }

    /// Jobs currently queued (admitted, not yet picked up).
    pub fn queued(&self) -> usize {
        self.inner.queue.len()
    }

    /// Graceful drain: stop admitting, let queued and in-flight jobs
    /// finish. Combine with [`wait`](Server::wait) to block until done.
    pub fn drain(&self) {
        self.inner.queue.drain();
    }

    /// Blocks until the executor pool exits (after a drain, or a stop).
    pub fn wait(&self) {
        let handles = std::mem::take(&mut *self.executors.lock().expect("executor list lock"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Forceful stop: abandon queued jobs (each gets a typed transient
    /// error and a `serve.cancelled` count), cancel in-flight ones, and
    /// join the pool.
    pub fn stop(&self) {
        let orphans = self.inner.queue.shutdown();
        for job in orphans {
            self.inner
                .jobs
                .lock()
                .expect("job registry lock")
                .remove(&job.id);
            job.cancel.cancel();
            self.inner.counters.bump(kinds::SERVE_CANCELLED);
            let _ = job.outbound.send_final(Response::Error {
                message: format!("job {} abandoned: server shutting down", job.id),
                class: RetryClass::Transient,
            });
        }
        for tok in self.inner.jobs.lock().expect("job registry lock").values() {
            tok.cancel();
        }
        self.wait();
    }
}

/// Fires the cancel latch of every still-registered job the connection
/// owns, then purges its still-queued jobs outright — nobody is left to
/// read their answers, the freed slots take new admissions, and dropping
/// them releases their outbound senders so the writer thread can exit.
/// Idempotent: a latch is counted the first time it trips.
fn cancel_owned_jobs(inner: &Arc<ServerInner>, owned: &Mutex<Vec<u64>>) {
    let ids: Vec<u64> = owned.lock().expect("conn job lock").clone();
    {
        let registry = inner.jobs.lock().expect("job registry lock");
        for id in &ids {
            if let Some(tok) = registry.get(id) {
                if !tok.is_cancelled() {
                    tok.cancel();
                    inner.counters.bump(kinds::SERVE_CANCELLED);
                }
            }
        }
    }
    let purged = inner.queue.remove_many(&ids);
    let mut registry = inner.jobs.lock().expect("job registry lock");
    for job in purged {
        registry.remove(&job.id);
    }
}

/// The reader-thread request loop. Returns when the connection dies or
/// framing breaks (after a framing error the stream offset is unknowable,
/// so the only safe move is to answer and close).
fn serve_requests(
    inner: &Arc<ServerInner>,
    r: &mut impl Read,
    outbound: &Outbound,
    conn_jobs: &Mutex<Vec<u64>>,
) {
    // This connection's refs: the client's ref id -> the store key the
    // daemon computed from the content sent under it.
    let mut refs = FifoMap::new(REF_TABLE_CAPACITY);
    loop {
        let msg = match read_frame(r) {
            Ok(v) => v,
            Err(e) => {
                if !(e.is_disconnect() || e.is_stall()) {
                    inner.counters.bump(kinds::SERVE_BAD_FRAME);
                    let _ = outbound.send_final(Response::Error {
                        message: format!("bad frame: {e}"),
                        class: RetryClass::Permanent,
                    });
                }
                return;
            }
        };
        let req = match decode_request(&msg) {
            Ok(req) => req,
            Err(e) => {
                // The frame itself was sound, so the stream is still in
                // sync: refuse the request and keep serving.
                inner.counters.bump(kinds::SERVE_BAD_FRAME);
                if !outbound.send_final(Response::Error {
                    message: e.message,
                    class: e.class,
                }) {
                    return;
                }
                continue;
            }
        };
        // `Ok`: a job to admit. `Err`: the answer to send.
        let next = match req {
            Request::Ping => Err(Response::Pong),
            Request::Status => Err(Response::Status {
                counters: inner.counters.snapshot(),
            }),
            Request::Cancel { job } => Err(cancel(inner, job)),
            Request::Drain => {
                inner.queue.drain();
                Err(Response::DrainAck)
            }
            Request::Submit(JobSpec::FaultSweep {
                seed,
                blocks,
                options,
            }) => Ok(Job::FaultSweep {
                seed,
                blocks,
                options,
            }),
            Request::Submit(JobSpec::Campaign { blocks, options }) => {
                let blocks = blocks
                    .into_iter()
                    .map(|block| WireBlock::Full {
                        block: Box::new(block),
                        ref_id: None,
                    })
                    .collect();
                plan_campaign(inner, &mut refs, blocks, options)
            }
            Request::SubmitRefs { blocks, options } => {
                plan_campaign(inner, &mut refs, blocks, options)
            }
        };
        let reply = match next {
            Ok(job) => {
                if !admit(inner, job, outbound, conn_jobs) {
                    return;
                }
                continue;
            }
            Err(reply) => reply,
        };
        if !outbound.send_final(reply) {
            return;
        }
    }
}

/// Trips the cancel latch of job `job`.
fn cancel(inner: &ServerInner, job: u64) -> Response {
    let tok = inner
        .jobs
        .lock()
        .expect("job registry lock")
        .get(&job)
        .cloned();
    match tok {
        Some(tok) => {
            if !tok.is_cancelled() {
                tok.cancel();
                inner.counters.bump(kinds::SERVE_CANCELLED);
            }
            Response::Cancelled { job }
        }
        None => Response::Error {
            message: format!("unknown or already finished job {job}"),
            class: RetryClass::Permanent,
        },
    }
}

/// Turns a campaign submission into a job, or into the answer that
/// refuses it. Every full block is hashed under the store's secret, by
/// the daemon itself, in the same walk that gives its unkeyed hash; one
/// that carries a ref id registers it in `refs`
/// (one id naming two contents is a permanent error). Then every `known`
/// ref is resolved through `refs` and the store, in plan order.
/// Unresolvable refs make the answer `MissingRefs`.
fn plan_campaign(
    inner: &ServerInner,
    refs: &mut FifoMap<ContentKey, ContentKey>,
    blocks: Vec<WireBlock>,
    options: SubmitOptions,
) -> Result<Job, Response> {
    let mut digests = Vec::with_capacity(blocks.len());
    for b in &blocks {
        let WireBlock::Full { block, ref_id } = b else {
            continue;
        };
        let digest = inner.store.digest(block);
        digests.push(digest);
        let Some(id) = ref_id else {
            continue;
        };
        let key = digest.key;
        if refs.get(id).is_some_and(|k| *k != key) {
            return Err(Response::Error {
                message: format!("ref {id} was already sent with different content"),
                class: RetryClass::Permanent,
            });
        }
        if refs.insert(*id, key) {
            inner.counters.bump(kinds::SERVE_REFS_EVICTED);
        }
    }
    let full = digests.len();
    let mut digests = digests.into_iter();
    let mut plan = Vec::with_capacity(blocks.len());
    let mut missing = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for b in blocks {
        match b {
            WireBlock::Full { block, .. } => plan.push(PlanEntry::Block {
                block: *block,
                digest: digests.next(),
            }),
            WireBlock::Known { name, ref_id } => {
                match refs.get(&ref_id).and_then(|k| inner.store.get(*k)) {
                    Some(verdict) => plan.push(PlanEntry::Stored {
                        name,
                        verdict: Box::new(verdict),
                    }),
                    None => {
                        if seen.insert(ref_id) {
                            missing.push(ref_id);
                        }
                    }
                }
            }
        }
    }
    if !missing.is_empty() {
        inner
            .counters
            .add(kinds::SERVE_REFS_MISSED, missing.len() as u64);
        return Err(Response::MissingRefs { refs: missing });
    }
    let resolved = plan.len() - full;
    if resolved > 0 {
        inner
            .counters
            .add(kinds::SERVE_REFS_RESOLVED, resolved as u64);
    }
    Ok(Job::Campaign { plan, options })
}

/// Admission: reserve a slot, register, *answer*, then publish — in that
/// order, so the `Accepted` frame is in the outbound channel before any
/// executor can see the job, and a client can never watch progress
/// frames outrun its admission answer. Returns `false` when the client
/// vanished mid-admission (the connection should close).
fn admit(
    inner: &Arc<ServerInner>,
    job: Job,
    outbound: &Outbound,
    conn_jobs: &Mutex<Vec<u64>>,
) -> bool {
    let reservation = match inner.queue.reserve(&job) {
        Ok(r) => r,
        Err(busy) => {
            inner.counters.bump(kinds::SERVE_REJECTED);
            return outbound.send_final(Response::Rejected {
                reason: busy.reason,
                class: busy.class,
            });
        }
    };
    let id = inner.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    let token = CancelToken::new();
    // Registered before publishing so an executor finishing the job
    // instantly still finds (and removes) the registry entry.
    inner
        .jobs
        .lock()
        .expect("job registry lock")
        .insert(id, token.clone());
    conn_jobs.lock().expect("conn job lock").push(id);
    if !outbound.send_final(Response::Accepted { job: id }) {
        // Client gone before it could hear the answer: release the slot
        // (reservation drops uncommitted) and never run the job.
        inner.jobs.lock().expect("job registry lock").remove(&id);
        return false;
    }
    reservation.commit(QueuedJob {
        id,
        job,
        cancel: token,
        outbound: outbound.clone(),
    });
    inner.counters.bump(kinds::SERVE_ACCEPTED);
    true
}

/// Runs one admitted job on the calling executor thread and delivers its
/// final answer with bounded patience.
fn run_job(inner: &Arc<ServerInner>, job: QueuedJob) {
    let QueuedJob {
        id,
        job,
        cancel,
        outbound,
    } = job;
    let final_resp = match job {
        Job::Campaign { plan, options } => {
            let deadline_ms = match (options.deadline_ms, inner.cfg.max_deadline_ms) {
                (Some(d), Some(cap)) => Some(d.min(cap)),
                (Some(d), None) => Some(d),
                (None, cap) => cap,
            };
            let progress_out = outbound.clone();
            let opts = CampaignOptions {
                deadline: deadline_ms.map(Duration::from_millis),
                workers: options.workers.or(inner.cfg.default_workers),
                journal_path: options
                    .journal
                    .as_deref()
                    .map(|n| inner.cfg.state_dir.join(n)),
                obs: inner.cfg.obs.clone(),
                io: inner.cfg.io.clone(),
                cancel: cancel.clone(),
                shared_store: Some(inner.store.clone()),
                progress: ProgressHook::new(move |res| {
                    progress_out.send_progress(Response::Progress {
                        job: id,
                        block: res.name.clone(),
                        status: res.status.to_string(),
                    });
                }),
                ..CampaignOptions::default()
            };
            let report = Campaign::with_options(opts).run_entries(&plan);
            let evicted = inner.store.take_evictions();
            if evicted > 0 {
                inner.counters.add(kinds::SERVE_STORE_EVICTED, evicted);
            }
            Response::Report {
                job: id,
                report: report.to_run_report().into_json(false),
            }
        }
        Job::FaultSweep {
            seed,
            blocks,
            options,
        } => {
            if cancel.is_cancelled() {
                Response::Error {
                    message: format!("job {id} cancelled before it started"),
                    class: RetryClass::Transient,
                }
            } else {
                let mut camp = FaultCampaign::new(seed);
                if let Some(w) = options.workers.or(inner.cfg.default_workers) {
                    camp = camp.with_workers(w);
                }
                Response::Report {
                    job: id,
                    report: camp.run(&blocks).to_run_report().into_json(false),
                }
            }
        }
    };
    inner.jobs.lock().expect("job registry lock").remove(&id);
    inner.counters.bump(kinds::SERVE_COMPLETED);
    if !outbound.send_final(final_resp) {
        inner.counters.bump(kinds::SERVE_CLIENT_LOST);
    }
}
