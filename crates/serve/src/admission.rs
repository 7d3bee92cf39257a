//! Admission control: a bounded job queue with per-class limits.
//!
//! The daemon's first line of defense against overload is refusing work
//! *at the door*, with a typed answer, instead of buffering unboundedly
//! and falling over later. The queue enforces three independent caps — a
//! total, plus one per job class (campaigns are expensive, fault sweeps
//! cheap; one class saturating must not starve the other's budget) — and
//! every refusal says which limit was hit and that retrying is
//! [`Transient`](crate::proto::RetryClass::Transient).
//!
//! Memory stays constant under overload by construction: a rejected job
//! is dropped on the spot; nothing about it is retained.
//!
//! Lifecycle: [`AdmissionQueue::drain`] stops admission (late submitters
//! get a typed transient rejection naming the drain) while
//! [`AdmissionQueue::pop`] keeps handing out already-admitted jobs until
//! the queue is empty — the graceful half. [`AdmissionQueue::shutdown`]
//! is the forceful half: `pop` returns `None` immediately, queued jobs
//! are abandoned (their cancel latches are the executor-side story).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use dfv_core::{CancelToken, FaultBlock, PlanEntry};

use crate::proto::{RetryClass, SubmitOptions};

/// Queue capacity limits. Every limit is inclusive ("at most N queued").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Max queued jobs of any kind.
    pub total: usize,
    /// Max queued campaigns.
    pub campaigns: usize,
    /// Max queued fault sweeps.
    pub fault_sweeps: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            total: 32,
            campaigns: 16,
            fault_sweeps: 16,
        }
    }
}

/// What an admitted job runs: a submission after admission resolved its
/// block refs.
#[derive(Debug)]
pub enum Job {
    /// A campaign, each entry a full block or a stored verdict.
    Campaign {
        /// The plan, in order.
        plan: Vec<PlanEntry>,
        /// Submission knobs.
        options: SubmitOptions,
        /// How the answer relates to the connection's last one (`None`:
        /// in full, and never a delta's base).
        answer: Option<crate::server::Answering>,
    },
    /// A seeded fault-injection sweep.
    FaultSweep {
        /// Campaign seed.
        seed: u64,
        /// The stream blocks.
        blocks: Vec<FaultBlock>,
        /// Submission knobs.
        options: SubmitOptions,
    },
}

impl Job {
    fn is_campaign(&self) -> bool {
        matches!(self, Job::Campaign { .. })
    }
}

/// One admitted job, queued for an executor.
#[derive(Debug)]
pub struct QueuedJob {
    /// Server-assigned id.
    pub id: u64,
    /// What to run.
    pub job: Job,
    /// The job's cancel latch (shared with the connection that owns it).
    pub cancel: CancelToken,
    /// Where results go: the owning connection's outbound channel.
    pub outbound: crate::server::Outbound,
}

/// A typed admission refusal.
#[derive(Debug)]
pub struct Busy {
    /// Which limit was hit, in words.
    pub reason: String,
    /// Always [`RetryClass::Transient`]: capacity frees as jobs finish.
    pub class: RetryClass,
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    /// Queued plus reserved-but-not-yet-committed jobs; the limits are
    /// enforced against these so a reservation really holds its slot.
    total: usize,
    queued_campaigns: usize,
    queued_sweeps: usize,
    draining: bool,
    shutdown: bool,
}

impl QueueState {
    /// Gives back one per-class slot.
    fn release(&mut self, is_campaign: bool) {
        if is_campaign {
            self.queued_campaigns = self.queued_campaigns.saturating_sub(1);
        } else {
            self.queued_sweeps = self.queued_sweeps.saturating_sub(1);
        }
    }
}

/// A capacity slot held between the admission check and the moment the
/// job becomes visible to executors. Sending the `Accepted` reply in
/// between guarantees a client can never see a job's progress frames
/// before its admission answer. Dropping an uncommitted reservation
/// releases the slot.
#[derive(Debug)]
#[must_use = "an unused reservation gives its slot straight back"]
pub struct Reservation<'a> {
    queue: &'a AdmissionQueue,
    is_campaign: bool,
    committed: bool,
}

impl Reservation<'_> {
    /// Publishes the job to the executor pool, consuming the slot. A
    /// commit that races a shutdown drops the job instead of parking it
    /// in a queue nobody will ever drain.
    pub fn commit(mut self, job: QueuedJob) {
        let mut st = self.queue.state.lock().expect("queue lock");
        self.committed = true;
        if st.shutdown {
            return;
        }
        st.jobs.push_back(job);
        self.queue.ready.notify_one();
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if !self.committed {
            let mut st = self.queue.state.lock().expect("queue lock");
            st.total = st.total.saturating_sub(1);
            st.release(self.is_campaign);
            // A draining pool may have been waiting on this slot.
            self.queue.ready.notify_all();
        }
    }
}

/// The bounded admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    limits: Limits,
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// An empty queue with the given limits.
    pub fn new(limits: Limits) -> Self {
        AdmissionQueue {
            limits,
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        }
    }

    /// Reserves an admission slot for a job of `job`'s class, or
    /// refuses with a typed, transient `Busy`. The caller answers the
    /// client and then [`commit`](Reservation::commit)s the job (or
    /// drops the reservation, releasing the slot).
    pub fn reserve(&self, job: &Job) -> Result<Reservation<'_>, Busy> {
        let mut st = self.state.lock().expect("queue lock");
        if st.draining || st.shutdown {
            return Err(Busy {
                reason: "service draining: no new work is admitted".into(),
                class: RetryClass::Transient,
            });
        }
        if st.total >= self.limits.total {
            return Err(Busy {
                reason: format!("service busy: queue full ({} jobs)", self.limits.total),
                class: RetryClass::Transient,
            });
        }
        let is_campaign = job.is_campaign();
        let (count, limit, what) = if is_campaign {
            (&mut st.queued_campaigns, self.limits.campaigns, "campaign")
        } else {
            (
                &mut st.queued_sweeps,
                self.limits.fault_sweeps,
                "fault sweep",
            )
        };
        if *count >= limit {
            return Err(Busy {
                reason: format!("service busy: {what} queue full ({limit} jobs)"),
                class: RetryClass::Transient,
            });
        }
        *count += 1;
        st.total += 1;
        Ok(Reservation {
            queue: self,
            is_campaign,
            committed: false,
        })
    }

    /// Blocks until a job is available, or returns `None` when the queue
    /// will never yield again (shutdown, or drained dry).
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(job) = st.jobs.pop_front() {
                st.total -= 1;
                st.release(job.job.is_campaign());
                return Some(job);
            }
            // Drained dry: nothing queued and nothing reserved. A job
            // reserved before the drain (its `Accepted` already on the
            // wire) is still owed an executor.
            if st.draining && st.total == 0 {
                return None;
            }
            st = self.ready.wait(st).expect("queue lock");
        }
    }

    /// Graceful: stop admitting, keep handing out what was admitted.
    pub fn drain(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.draining = true;
        self.ready.notify_all();
    }

    /// Forceful: `pop` returns `None` immediately; queued jobs are
    /// dropped (and returned, so the caller can fail them out loud).
    pub fn shutdown(&self) -> Vec<QueuedJob> {
        let mut st = self.state.lock().expect("queue lock");
        st.shutdown = true;
        st.total = 0;
        st.queued_campaigns = 0;
        st.queued_sweeps = 0;
        let orphans = st.jobs.drain(..).collect();
        self.ready.notify_all();
        orphans
    }

    /// Removes still-queued jobs whose ids appear in `ids`, returning
    /// them. Jobs already handed to an executor are untouched; calling
    /// again with the same ids is a no-op.
    pub fn remove_many(&self, ids: &[u64]) -> Vec<QueuedJob> {
        let mut st = self.state.lock().expect("queue lock");
        let mut removed = Vec::new();
        let mut kept = VecDeque::with_capacity(st.jobs.len());
        while let Some(job) = st.jobs.pop_front() {
            if ids.contains(&job.id) {
                st.total -= 1;
                st.release(job.job.is_campaign());
                removed.push(job);
            } else {
                kept.push_back(job);
            }
        }
        st.jobs = kept;
        removed
    }

    /// Queued job count (for tests and status).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn campaign() -> Job {
        Job::Campaign {
            plan: Vec::new(),
            options: SubmitOptions::default(),
            answer: None,
        }
    }

    #[test]
    fn a_drain_waits_for_jobs_reserved_before_it() {
        let q = AdmissionQueue::new(Limits::default());
        // Reserved (its `Accepted` on the wire), then the drain, then an
        // executor asks for work before the commit lands: the executor
        // must wait for the job, not exit and strand it.
        let r = q.reserve(&campaign()).expect("slot");
        q.drain();
        std::thread::scope(|s| {
            let exec = s.spawn(|| q.pop().map(|j| j.id));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!exec.is_finished(), "executor gave up on a reserved job");
            r.commit(QueuedJob {
                id: 7,
                job: campaign(),
                cancel: CancelToken::new(),
                outbound: crate::server::Outbound::detached(),
            });
            assert_eq!(exec.join().unwrap(), Some(7));
        });
        assert!(q.pop().is_none(), "drained dry");
        // A reservation given back uncommitted releases a waiting executor.
        let q = AdmissionQueue::new(Limits::default());
        let r = q.reserve(&campaign()).expect("slot");
        q.drain();
        std::thread::scope(|s| {
            let exec = s.spawn(|| q.pop().is_none());
            std::thread::sleep(Duration::from_millis(50));
            drop(r);
            assert!(exec.join().unwrap());
        });
    }
}
