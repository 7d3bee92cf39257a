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

use std::io::{Read, Write};
use std::time::Duration;

use dfv_core::{BlockPair, BlockStatus, ContentKey, FifoMap, HashSecret};
use dfv_obs::Json;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{
    decode_response, encode_request, JobSpec, ProtoError, Request, Response, RetryClass,
    SubmitOptions, WireBlock, REF_TABLE_CAPACITY,
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
}

impl<R: Read, W: Write> Client<R, W> {
    /// Wraps a connection's two halves.
    pub fn new(r: R, w: W) -> Self {
        Client {
            r,
            w,
            secret: HashSecret::random(),
            known: FifoMap::new(REF_TABLE_CAPACITY),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.w, &encode_request(req)?)?;
        Ok(decode_response(&read_frame(&mut self.r)?)?)
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
        write_frame(
            &mut self.w,
            &encode_request(&Request::Submit(spec.clone()))?,
        )?;
        match decode_response(&read_frame(&mut self.r)?)? {
            Response::Accepted { job } => Ok(Admission::Accepted(job)),
            Response::Rejected { reason, class } => Ok(Admission::Rejected { reason, class }),
            Response::Error { message, class } => Err(ClientError::Server { message, class }),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until the final report of an accepted job, feeding streamed
    /// progress to `on_progress(block, status)`.
    pub fn wait_report(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(&str, &str),
    ) -> Result<Json, ClientError> {
        loop {
            match decode_response(&read_frame(&mut self.r)?)? {
                Response::Progress { block, status, .. } => on_progress(&block, &status),
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
    /// proved as refs (see the module docs).
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
        let ids: Vec<ContentKey> = blocks.iter().map(|b| b.content_key(&self.secret)).collect();
        let mut use_known = true;
        let job = loop {
            let wire = blocks
                .iter()
                .zip(&ids)
                .map(|(b, &id)| {
                    if use_known && self.known.get(&id).is_some() {
                        WireBlock::Known {
                            name: b.name.clone(),
                            ref_id: id,
                        }
                    } else {
                        WireBlock::Full {
                            block: Box::new(b.clone()),
                            ref_id: Some(id),
                        }
                    }
                })
                .collect();
            let req = Request::SubmitRefs {
                blocks: wire,
                options: options.clone(),
            };
            match self.call(&req)? {
                Response::Accepted { job } => break job,
                Response::Rejected { reason, class } => {
                    return Ok(SubmitOutcome::Rejected { reason, class })
                }
                Response::MissingRefs { refs } if use_known => {
                    for id in &refs {
                        self.known.remove(id);
                    }
                    use_known = false;
                }
                Response::Error { message, class } => {
                    return Err(ClientError::Server { message, class })
                }
                other => return Err(unexpected(&other)),
            }
        };
        let report = self.wait_report(job, &mut on_progress)?;
        self.learn(&ids, &report);
        Ok(SubmitOutcome::Report { job, report })
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
                crate::frame::write_frame(
                    &mut sw,
                    &encode_response(&Response::Rejected {
                        reason: "busy".into(),
                        class,
                    }),
                )
                .unwrap();
            }
            // Third frame is the permanent case from the second call.
            let _ = crate::frame::read_frame(&mut sr).unwrap();
            crate::frame::write_frame(
                &mut sw,
                &encode_response(&Response::Rejected {
                    reason: "malformed".into(),
                    class: RetryClass::Permanent,
                }),
            )
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
