//! `dfv-serve` — verification as a fault-tolerant service.
//!
//! The paper's methodology assumes verification runs where the designers
//! are: a shared daemon that accepts lint + sequential-equivalence
//! campaigns and fault-injection sweeps from many clients, shards them
//! across `dfv-core`'s deterministic scheduler, and deduplicates
//! identical blocks across clients through a content-keyed verdict store
//! — a fleet verifying overlapping block sets pays for each proof once.
//! A client resubmitting a plan on one connection sends only the slots
//! that changed, as a delta on its last plan, and the daemon answers all
//! the blocks its store already holds in one frame, and the whole delta
//! by reference to its last answer: the rows that changed, which the
//! client patches into the report it holds.
//!
//! The crate is organized as concentric trust layers:
//!
//! - [`frame`] — length-prefixed, checksummed JSON frames; corruption
//!   and truncation are typed errors, never accepted bytes;
//! - [`proto`] — the request/response vocabulary; every decode failure
//!   is classified transient vs. permanent, and that classification is
//!   part of the wire contract;
//! - [`admission`] — bounded queues with per-class limits; overload is
//!   refused at the door with a typed `ServiceBusy`, holding server
//!   memory constant;
//! - [`server`] — the executor pool and per-connection threads, with
//!   cancellation on disconnect, progress shedding for slow clients,
//!   panic quarantine (inherited from `dfv-core::sched`), journal-backed
//!   kill-9 recovery, and graceful drain;
//! - [`client`] — a blocking client whose retry loop honors the server's
//!   transient/permanent classification on a deterministic backoff, and
//!   which replaces blocks the connection already proved with refs;
//! - [`pipe`](mod@pipe) — an in-process duplex byte stream, so every robustness
//!   property above is tested hermetically (and composes with
//!   [`dfv_core::ChaosWire`] for wire-fault injection).
//!
//! Nothing here depends on a real network: the example binary wires the
//! same [`Server`] to TCP or Unix-domain sockets, but every guarantee is
//! proven over pipes first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod pipe;
pub mod proto;
pub mod server;

pub use admission::Limits;
pub use client::{Admission, Backoff, Client, ClientError, SubmitOutcome};
pub use frame::{read_frame, write_frame, write_frame_with, FrameError, MAX_FRAME};
pub use pipe::{duplex, pipe, PipeReader, PipeWriter};
pub use proto::{
    JobSpec, ProtoError, Request, Response, RetryClass, SubmitOptions, WireBlock,
    REF_TABLE_CAPACITY,
};
pub use server::{ConnHandle, Counters, Outbound, ServeConfig, Server, OUTBOUND_QUEUE};
