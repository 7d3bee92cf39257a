//! A blocking client for the `dfv-serve` protocol.
//!
//! The client is deliberately thin: one request at a time over any
//! `(Read, Write)` byte-stream pair, with [`Client::submit`] blocking
//! until the final report while streaming progress to a callback. What
//! it adds is the *retry discipline*: [`Client::submit_with_retry`]
//! retries only failures the server classified as
//! [`Transient`](RetryClass::Transient), on a deterministic exponential
//! backoff schedule — a permanent rejection is surfaced immediately,
//! because resending a malformed plan can never help.
//!
//! [`Client::submit`] also sends only what the daemon lacks. The client
//! names every campaign block by its keyed content key under a secret of
//! its own (the block's *ref id*), and remembers the ids of blocks a
//! report on this connection answered conclusively. A later submission
//! sends those as `known` refs and everything else in full, tagged with
//! its ref id. If the daemon cannot resolve a ref (it restarted, evicted
//! the verdict, or never saw the content on this connection) it answers
//! `MissingRefs`; the client forgets those ids and resends the whole
//! submission in full, once. The caller never sees the miss. A
//! submission naming a journal always goes in full.
//!
//! A resubmission that keeps some slots of the last accepted campaign
//! goes as a plan delta (see [`crate::proto`]'s module docs): a slot
//! whose name and ref id are the ones that plan had there, with a known
//! verdict, is left out, and only the other slots travel, as refs or in
//! full. If the daemon answers the delta with `MissingRefs`, the client
//! forgets the refs it names and resends as a full ref submission; an
//! empty answer means the connection lost its state (its base, and with
//! it the refs), so that resend carries every block in full. Store hits
//! come back as one `Stored` frame, and [`Client::wait_report`] feeds
//! them to the progress callback one block at a time.
//!
//! Naming a block costs a structural walk of all its content, so the
//! client keeps the blocks of its last campaign submission and their ids
//! by name. A block `==` to the one last sent under its name reuses that
//! id — equal content walks to equal bytes, so it is the id a fresh walk
//! would give — and a warm resubmission walks only what changed.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::time::Duration;

use dfv_core::{BlockPair, BlockStatus, ContentKey, FifoMap, HashSecret};
use dfv_obs::Json;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{
    decode_response, encode_campaign, encode_delta, encode_request, encode_submit, BlockRef,
    JobSpec, ProtoError, Request, Response, RetryClass, SubmitOptions, REF_TABLE_CAPACITY,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The wire failed (disconnect, torn frame, checksum, timeout).
    Frame(FrameError),
    /// A message could not be encoded or decoded.
    Proto(ProtoError),
    /// The server answered with an `Error` frame.
    Server {
        /// Server-provided description.
        message: String,
        /// Whether retrying can help.
        class: RetryClass,
    },
    /// The server answered with a frame that makes no sense here.
    Unexpected(String),
}

impl ClientError {
    /// True when backing off and retrying the same call might succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Frame(e) => e.is_disconnect() || e.is_stall(),
            ClientError::Server { class, .. } => *class == RetryClass::Transient,
            ClientError::Proto(_) | ClientError::Unexpected(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { message, class } => {
                write!(f, "server error: {message} ({})", class.tag())
            }
            ClientError::Unexpected(m) => write!(f, "unexpected server reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// How admission answered a submission (before the job runs).
#[derive(Debug)]
pub enum Admission {
    /// The job was admitted under this id; its report will follow.
    Accepted(u64),
    /// Admission refused the job.
    Rejected {
        /// Why.
        reason: String,
        /// Whether retrying can help.
        class: RetryClass,
    },
}

/// How a submission ended.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The job ran; here is its canonical report.
    Report {
        /// Server-assigned job id.
        job: u64,
        /// The canonical run report.
        report: Json,
    },
    /// Admission refused the job.
    Rejected {
        /// Why.
        reason: String,
        /// Whether retrying can help.
        class: RetryClass,
    },
}

/// Deterministic exponential backoff: `base × 2^attempt`, no jitter, so
/// chaos tests replay the exact same schedule every run.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First delay.
    pub base: Duration,
    /// Retry attempts after the initial try.
    pub retries: u32,
}

impl Backoff {
    /// The delay before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        self.base.saturating_mul(1u32 << attempt.min(16))
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(10),
            retries: 4,
        }
    }
}

/// The blocks of a client's last campaign submission and their ref ids,
/// by block name.
#[derive(Debug, Default)]
struct LastSent {
    by_name: HashMap<String, Sent>,
    /// Which submission [`LastSent::ids`] is memoizing.
    round: u64,
}

/// A block as last sent under its name.
#[derive(Debug)]
struct Sent {
    block: BlockPair,
    id: ContentKey,
    /// The last round that sent a block under this name.
    round: u64,
}

impl LastSent {
    /// The ref id of each of `blocks`, in order. A block `==` to the one
    /// last sent under its name reuses that block's id; `walk` names the
    /// rest. Afterwards the memo holds exactly this submission: entries
    /// are compared and replaced in place, and names it lacks dropped.
    fn ids(
        &mut self,
        blocks: &[BlockPair],
        mut walk: impl FnMut(&BlockPair) -> ContentKey,
    ) -> Vec<ContentKey> {
        self.round += 1;
        let round = self.round;
        // Entries this submission names, each counted once.
        let mut named = 0;
        let mut ids = Vec::with_capacity(blocks.len());
        for b in blocks {
            let id = match self.by_name.get_mut(&b.name) {
                Some(sent) => {
                    if sent.round != round {
                        sent.round = round;
                        named += 1;
                    }
                    if sent.block != *b {
                        sent.block = b.clone();
                        sent.id = walk(b);
                    }
                    sent.id
                }
                None => {
                    let id = walk(b);
                    let sent = Sent {
                        block: b.clone(),
                        id,
                        round,
                    };
                    self.by_name.insert(b.name.clone(), sent);
                    named += 1;
                    id
                }
            };
            ids.push(id);
        }
        if self.by_name.len() > named {
            self.by_name.retain(|_, sent| sent.round == round);
        }
        ids
    }
}

/// The client's last accepted campaign, as a base for plan deltas.
#[derive(Debug)]
struct Base {
    /// Its job id.
    job: u64,
    /// Each slot's block name and ref id, in plan order.
    slots: Vec<(String, ContentKey)>,
}

/// How [`Client::submit`] sends a campaign, from the leanest form down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// Only the slots that differ from the base.
    Delta,
    /// Every slot, known ones as refs.
    Refs,
    /// Every slot in full.
    Full,
}

/// A blocking protocol client over any byte-stream pair.
#[derive(Debug)]
pub struct Client<R, W> {
    r: R,
    w: W,
    /// The secret this client's ref ids are keyed under.
    secret: HashSecret,
    /// Ref ids of blocks a report on this connection answered with a
    /// [storable](BlockStatus::is_storable) verdict.
    known: FifoMap<ContentKey, ()>,
    /// The last campaign submission's blocks, whose ids need no walk.
    last_sent: LastSent,
    /// The last accepted campaign that went with refs.
    base: Option<Base>,
}

impl<R: Read, W: Write> Client<R, W> {
    /// Wraps a connection's two halves.
    pub fn new(r: R, w: W) -> Self {
        Client {
            r,
            w,
            secret: HashSecret::random(),
            known: FifoMap::new(REF_TABLE_CAPACITY),
            last_sent: LastSent::default(),
            base: None,
        }
    }

    /// Sends one request message and reads the next response.
    fn exchange(&mut self, msg: &Json) -> Result<Response, ClientError> {
        write_frame(&mut self.w, msg)?;
        Ok(decode_response(read_frame(&mut self.r)?)?)
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.exchange(&encode_request(req)?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the daemon's counters, sorted by name.
    pub fn status(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.call(&Request::Status)? {
            Response::Status { counters } => Ok(counters),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to drain and shut down gracefully.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Drain)? {
            Response::DrainAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels an accepted job.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        match self.call(&Request::Cancel { job })? {
            Response::Cancelled { .. } => Ok(()),
            Response::Error { message, class } => Err(ClientError::Server { message, class }),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a job and returns as soon as admission answers, without
    /// waiting for the job to run. Pair with [`wait_report`] — or walk
    /// away, and the server's disconnect handling cancels the job.
    ///
    /// [`wait_report`]: Client::wait_report
    pub fn submit_nowait(&mut self, spec: &JobSpec) -> Result<Admission, ClientError> {
        match self.exchange(&encode_submit(spec)?)? {
            Response::Accepted { job } => Ok(Admission::Accepted(job)),
            Response::Rejected { reason, class } => Ok(Admission::Rejected { reason, class }),
            Response::Error { message, class } => Err(ClientError::Server { message, class }),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until the final report of an accepted job, feeding streamed
    /// progress to `on_progress(block, status)` once per block, store
    /// hits included.
    pub fn wait_report(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(&str, &str),
    ) -> Result<Json, ClientError> {
        loop {
            match decode_response(read_frame(&mut self.r)?)? {
                Response::Progress { block, status, .. } => on_progress(&block, &status),
                Response::Stored { blocks, .. } => {
                    for (block, status) in &blocks {
                        on_progress(block, status);
                    }
                }
                Response::Report { job: id, report } if id == job => return Ok(report),
                Response::Error { message, class } => {
                    return Err(ClientError::Server { message, class })
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Submits a job and blocks until its final report (or rejection),
    /// feeding streamed progress to `on_progress(block, status)`. A
    /// campaign without a journal sends blocks this connection already
    /// proved as refs, or leaves them out of a plan delta (see the module
    /// docs).
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        mut on_progress: impl FnMut(&str, &str),
    ) -> Result<SubmitOutcome, ClientError> {
        if let JobSpec::Campaign { blocks, options } = spec {
            if options.journal.is_none() {
                return self.submit_campaign(blocks, options, on_progress);
            }
        }
        let job = match self.submit_nowait(spec)? {
            Admission::Accepted(job) => job,
            Admission::Rejected { reason, class } => {
                return Ok(SubmitOutcome::Rejected { reason, class })
            }
        };
        let report = self.wait_report(job, &mut on_progress)?;
        Ok(SubmitOutcome::Report { job, report })
    }

    /// The ref-aware campaign path of [`submit`](Client::submit).
    fn submit_campaign(
        &mut self,
        blocks: &[BlockPair],
        options: &SubmitOptions,
        mut on_progress: impl FnMut(&str, &str),
    ) -> Result<SubmitOutcome, ClientError> {
        let ids = self.last_sent.ids(blocks, |b| b.content_key(&self.secret));
        let unchanged = self.unchanged_slots(blocks, &ids);
        let mut form = if unchanged.contains(&true) {
            Form::Delta
        } else {
            Form::Refs
        };
        let job = loop {
            let known = &self.known;
            let wire = |k: usize| {
                let (b, id) = (&blocks[k], ids[k]);
                if form != Form::Full && known.get(&id).is_some() {
                    BlockRef::Known(&b.name, id)
                } else {
                    BlockRef::Full(b, Some(id))
                }
            };
            let msg = match (form, &self.base) {
                (Form::Delta, Some(base)) => {
                    let edits: Vec<_> = (0..blocks.len())
                        .filter(|&k| !unchanged[k])
                        .map(|k| (k, wire(k)))
                        .collect();
                    encode_delta(base.job, blocks.len(), edits.into_iter(), options)?
                }
                _ => encode_campaign((0..blocks.len()).map(wire), options)?,
            };
            match self.exchange(&msg)? {
                Response::Accepted { job } => break job,
                Response::Rejected { reason, class } => {
                    return Ok(SubmitOutcome::Rejected { reason, class })
                }
                Response::MissingRefs { refs } if form != Form::Full => {
                    for id in &refs {
                        self.known.remove(id);
                    }
                    // An empty answer to a delta: the daemon holds no
                    // base for this connection, so no ref of it either.
                    form = if form == Form::Delta && !refs.is_empty() {
                        Form::Refs
                    } else {
                        Form::Full
                    };
                }
                Response::Error { message, class } => {
                    return Err(ClientError::Server { message, class })
                }
                other => return Err(unexpected(&other)),
            }
        };
        self.set_base(job, blocks, &ids);
        let report = self.wait_report(job, &mut on_progress)?;
        self.learn(&ids, &report);
        Ok(SubmitOutcome::Report { job, report })
    }

    /// Which slots of `blocks` a plan delta may leave out: the base has a
    /// slot at the same place with the same name and ref id, whose verdict
    /// the daemon holds. All `false` without a base of the same length.
    fn unchanged_slots(&self, blocks: &[BlockPair], ids: &[ContentKey]) -> Vec<bool> {
        let Some(base) = self.base.as_ref().filter(|b| b.slots.len() == blocks.len()) else {
            return vec![false; blocks.len()];
        };
        blocks
            .iter()
            .zip(ids)
            .zip(&base.slots)
            .map(|((b, id), (name, base_id))| {
                id == base_id && b.name == *name && self.known.get(id).is_some()
            })
            .collect()
    }

    /// Makes an accepted campaign the base of the next delta, updating
    /// the last one in place.
    fn set_base(&mut self, job: u64, blocks: &[BlockPair], ids: &[ContentKey]) {
        let base = self.base.get_or_insert_with(|| Base {
            job,
            slots: Vec::new(),
        });
        base.job = job;
        base.slots.truncate(blocks.len());
        for (k, (b, &id)) in blocks.iter().zip(ids).enumerate() {
            match base.slots.get_mut(k) {
                Some(slot) => {
                    if slot.0 != b.name {
                        slot.0.clone_from(&b.name);
                    }
                    slot.1 = id;
                }
                None => base.slots.push((b.name.clone(), id)),
            }
        }
    }

    /// Remembers the ref id of every block the report answered with a
    /// [storable](BlockStatus::is_storable) verdict: the daemon holds
    /// those in its store.
    fn learn(&mut self, ids: &[ContentKey], report: &Json) {
        let Some(rows) = report
            .get("values")
            .and_then(|v| v.get("blocks"))
            .and_then(Json::as_arr)
            .filter(|rows| rows.len() == ids.len())
        else {
            return;
        };
        for (row, &id) in rows.iter().zip(ids) {
            let status = row.get("status").and_then(Json::as_str);
            if status.is_some_and(BlockStatus::is_storable_name) {
                self.known.insert(id, ());
            }
        }
    }

    /// [`submit`](Client::submit), retrying **transient** failures on the
    /// backoff schedule. Permanent rejections and errors return
    /// immediately; the last transient rejection is returned when the
    /// schedule runs out.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        backoff: Backoff,
        mut on_progress: impl FnMut(&str, &str),
    ) -> Result<SubmitOutcome, ClientError> {
        let mut attempt = 0;
        loop {
            match self.submit(spec, &mut on_progress) {
                Ok(SubmitOutcome::Rejected { reason, class })
                    if class == RetryClass::Transient && attempt < backoff.retries =>
                {
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    let _ = reason;
                }
                done => return done,
            }
        }
    }
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::Unexpected(format!("{resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    use dfv_rtl::ModuleBuilder;
    use dfv_sec::{Binding, EquivSpec};

    use crate::pipe::duplex;
    use crate::proto::{decode_request, WireBlock};
    use crate::server::{ServeConfig, Server};

    /// A one-cycle `y = x + delta` block; `bug` makes the RTL add one
    /// more, so the pair is inequivalent.
    fn add_block(name: &str, delta: u64, bug: bool) -> BlockPair {
        let mut b = ModuleBuilder::new("add_rtl");
        let x = b.input("x", 8);
        let k = b.lit(8, delta + u64::from(bug));
        let y = b.add(x, k);
        b.output("y", y);
        BlockPair {
            name: name.into(),
            slm_source: format!("uint8 f(uint8 x) {{ return x + {delta}; }}"),
            slm_entry: "f".into(),
            rtl: b.finish().unwrap(),
            spec: EquivSpec::new(1)
                .bind("x", 0, Binding::Slm("x".into()))
                .compare("return", "y", 0),
        }
    }

    #[test]
    fn a_warm_resubmit_walks_only_blocks_changed_under_their_name() {
        let secret = HashSecret::from_words(3, 5);
        let plan: Vec<BlockPair> = (0..128)
            .map(|i| add_block(&format!("b{i}"), i, false))
            .collect();
        let mut last = LastSent::default();
        let mut submit = |blocks: &[BlockPair]| {
            let mut walked = Vec::new();
            let ids = last.ids(blocks, |b| {
                walked.push(b.name.clone());
                b.content_key(&secret)
            });
            let fresh: Vec<ContentKey> = blocks.iter().map(|b| b.content_key(&secret)).collect();
            assert_eq!(ids, fresh, "a reused id is the id a fresh walk gives");
            walked
        };
        assert_eq!(submit(&plan).len(), 128, "a cold plan walks every block");
        assert!(submit(&plan).is_empty(), "an unchanged plan walks nothing");
        // One edit, then the next edit elsewhere with the first reverted:
        // what the incremental workload does job after job.
        let mut edited = plan.clone();
        edited[5] = add_block("b5", 200, false);
        assert_eq!(submit(&edited), ["b5"]);
        let mut edited = plan.clone();
        edited[9] = add_block("b9", 201, true);
        assert_eq!(submit(&edited), ["b5", "b9"]);
    }

    /// A writer that keeps a copy of every byte it passes on.
    struct Tap<W> {
        inner: W,
        sent: Arc<Mutex<Vec<u8>>>,
    }

    impl<W: Write> Write for Tap<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.inner.write(buf)?;
            self.sent.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// `(name, status)` of every block row of a report.
    fn verdicts(outcome: SubmitOutcome) -> Vec<(String, String)> {
        let SubmitOutcome::Report { report, .. } = outcome else {
            panic!("unexpected {outcome:?}");
        };
        let rows = report.get("values").and_then(|v| v.get("blocks"));
        let field = |row: &Json, key| row.get(key).and_then(Json::as_str).unwrap().to_string();
        rows.and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|row| (field(row, "name"), field(row, "status")))
            .collect()
    }

    #[test]
    fn reused_ref_ids_follow_content_through_edits_swaps_and_renames() {
        let dir = std::env::temp_dir().join(format!("dfv-serve-reuse-{}", std::process::id()));
        let server = Server::start(ServeConfig::new(&dir));
        let ((cr, cw), (sr, sw)) = duplex();
        let conn = server.attach(sr, sw);
        let sent = Arc::new(Mutex::new(Vec::new()));
        let w = Tap {
            inner: cw,
            sent: sent.clone(),
        };
        let mut client = Client::new(cr, w);
        let spec = |blocks: Vec<BlockPair>| JobSpec::Campaign {
            blocks,
            options: SubmitOptions::default(),
        };
        let plan = vec![
            add_block("a", 1, false),
            add_block("b", 2, false),
            add_block("c", 3, false),
        ];
        let (a, b, c) = (plan[0].clone(), plan[1].clone(), plan[2].clone());
        let mut b_bug = b.clone();
        b_bug.rtl = add_block("b", 2, true).rtl;
        let mut a_renamed = a.clone();
        a_renamed.name = "a2".into();
        let mut a_as_c = a.clone();
        a_as_c.name = "c".into();
        let mut c_as_a = c.clone();
        c_as_a.name = "a".into();
        let variants = [
            plan.clone(),
            // The RTL changes under an unchanged name: FAIL, never the
            // stored PASS.
            vec![a.clone(), b_bug, c.clone()],
            plan.clone(),
            // Two blocks swap names.
            vec![c_as_a, b.clone(), a_as_c],
            // A block is renamed.
            vec![a_renamed, b, c],
        ];
        let mut last: Vec<BlockPair> = Vec::new();
        for (k, blocks) in variants.into_iter().enumerate() {
            let from = sent.lock().unwrap().len();
            let got = verdicts(client.submit(&spec(blocks.clone()), |_, _| {}).unwrap());
            // Every id the client sent names its block's content, exactly
            // as a fresh walk would.
            let bytes = sent.lock().unwrap()[from..].to_vec();
            let mut frames = &bytes[..];
            while !frames.is_empty() {
                let msg = crate::frame::read_frame(&mut frames).unwrap();
                // A delta leaves out slots that keep the last plan's name
                // and id there.
                let wire: Vec<Option<WireBlock>> = match decode_request(&msg).unwrap() {
                    Request::SubmitRefs { blocks: wire, .. } => {
                        wire.into_iter().map(Some).collect()
                    }
                    Request::SubmitDelta { len, edits, .. } => {
                        assert!(k > 0, "a cold plan has no base");
                        let mut wire = vec![None; len];
                        for (slot, b) in edits {
                            wire[slot] = Some(b);
                        }
                        wire
                    }
                    other => panic!("a campaign without a journal goes with refs: {other:?}"),
                };
                assert_eq!(wire.len(), blocks.len());
                for (i, (w, b)) in wire.iter().zip(&blocks).enumerate() {
                    let id = match w {
                        Some(WireBlock::Full { block, ref_id }) => {
                            assert_eq!(**block, *b);
                            ref_id.expect("a full block carries its ref id")
                        }
                        Some(WireBlock::Known { name, ref_id }) => {
                            assert_eq!(*name, b.name);
                            *ref_id
                        }
                        None => {
                            assert_eq!(last[i].name, b.name);
                            last[i].content_key(&client.secret)
                        }
                    };
                    assert_eq!(id, b.content_key(&client.secret), "variant {k}, {}", b.name);
                }
            }
            last = blocks.clone();
            // And the verdicts are a fresh client's.
            let ((fr, fw), (sr, sw)) = duplex();
            let fresh_conn = server.attach(sr, sw);
            let mut fresh = Client::new(fr, fw);
            let want = verdicts(fresh.submit(&spec(blocks), |_, _| {}).unwrap());
            drop(fresh);
            fresh_conn.join();
            assert_eq!(got, want, "variant {k}");
            if k == 1 {
                assert_eq!(got[1].1, "FAIL");
            }
        }
        drop(client);
        conn.join();
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        let b = Backoff {
            base: Duration::from_millis(3),
            retries: 5,
        };
        let delays: Vec<u64> = (0..5).map(|i| b.delay(i).as_millis() as u64).collect();
        assert_eq!(delays, vec![3, 6, 12, 24, 48]);
        // And again, identically: no hidden jitter.
        let again: Vec<u64> = (0..5).map(|i| b.delay(i).as_millis() as u64).collect();
        assert_eq!(delays, again);
    }

    #[test]
    fn retry_stops_on_transient_exhaustion_and_skips_permanent() {
        // A scripted server on the far end of a duplex pipe: rejects the
        // first submission transiently, the second permanently.
        use crate::pipe::duplex;
        use crate::proto::{encode_response, SubmitOptions};

        let ((cr, cw), (mut sr, mut sw)) = duplex();
        let script = std::thread::spawn(move || {
            for class in [RetryClass::Transient, RetryClass::Transient] {
                let _ = crate::frame::read_frame(&mut sr).unwrap();
                crate::frame::write_frame_with(&mut sw, |out| {
                    encode_response(
                        Response::Rejected {
                            reason: "busy".into(),
                            class,
                        },
                        out,
                    )
                })
                .unwrap();
            }
            // Third frame is the permanent case from the second call.
            let _ = crate::frame::read_frame(&mut sr).unwrap();
            crate::frame::write_frame_with(&mut sw, |out| {
                encode_response(
                    Response::Rejected {
                        reason: "malformed".into(),
                        class: RetryClass::Permanent,
                    },
                    out,
                )
            })
            .unwrap();
        });

        let mut client = Client::new(cr, cw);
        let spec = JobSpec::FaultSweep {
            seed: 1,
            blocks: vec![],
            options: SubmitOptions::default(),
        };
        let backoff = Backoff {
            base: Duration::from_millis(1),
            retries: 1,
        };
        // One initial try + one retry, both transient: schedule exhausts
        // and the last transient rejection comes back.
        match client.submit_with_retry(&spec, backoff, |_, _| {}).unwrap() {
            SubmitOutcome::Rejected { class, .. } => assert_eq!(class, RetryClass::Transient),
            other => panic!("unexpected {other:?}"),
        }
        // A permanent rejection is not retried: one frame, one answer.
        match client.submit_with_retry(&spec, backoff, |_, _| {}).unwrap() {
            SubmitOutcome::Rejected { class, .. } => assert_eq!(class, RetryClass::Permanent),
            other => panic!("unexpected {other:?}"),
        }
        script.join().unwrap();
    }
}
