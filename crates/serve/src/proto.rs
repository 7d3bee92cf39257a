//! The `dfv-serve` request/response vocabulary and its JSON codec.
//!
//! Everything a client can ask and everything the daemon can answer is an
//! enum variant here, encoded to the dependency-free [`Json`] value type
//! and carried inside a checksummed [`crate::frame`]. The codec is the
//! trust boundary: `decode_request` validates *everything* — unknown
//! types, missing fields, out-of-range widths, journal names that try to
//! escape the state directory — and classifies each failure as
//! [`RetryClass::Permanent`], so a malformed submission is refused with a
//! typed error instead of poisoning an executor.
//!
//! Error classification is part of the protocol, not an afterthought: a
//! [`Rejected`](Response::Rejected) or [`Error`](Response::Error) frame
//! carries a [`RetryClass`] telling the client whether backing off and
//! retrying can ever help (`Transient`: admission queue full, draining
//! finished) or never will (`Permanent`: malformed plan, oversized
//! constant, unknown job).
//!
//! # Block references
//!
//! A campaign block on the wire is either full content or a reference.
//! A full block may carry `"ref": <32 hex>`, the sender's own name for
//! that content (the client's keyed [`ContentKey`] of it under the
//! client's secret). A later submission on the *same connection* may
//! then send `{"name", "known": <32 hex>}` in its place. The daemon
//! never trusts a ref: it hashes every full block itself, under its own
//! secret, and resolves a `known` ref only through the table of refs
//! that connection sent with content. What it cannot resolve it answers
//! with [`Response::MissingRefs`], and the client resends in full. A
//! submission with neither field decodes to the plain
//! [`Request::Submit`], exactly as before refs existed.
//!
//! # Plan deltas
//!
//! A warm resubmission usually changes one block of a long plan, so the
//! refs of the unchanged ones would still cost a line each on the wire.
//! A [`Request::SubmitDelta`] names only what changed:
//! `{"type":"submit","job_kind":"campaign_delta","base":<job>,"len":N,
//! "edits":[{"slot":k,"block":<wire block>}],"options":…}`. `base` is the
//! job id of the connection's last admitted campaign whose every slot
//! carried a ref id; every slot of the new `N`-slot plan that no edit
//! names is that plan's slot, sent as a `known` ref under its old name.
//! The daemon expands the delta against the base it recorded itself and
//! resolves each slot exactly as a `known` ref. A base it does not hold,
//! or an `N` that is not the base's length, is answered with an empty
//! [`Response::MissingRefs`]: the connection lost its state, and the
//! client resends in full. Edit slots are strictly ascending and below
//! `N`, and a delta never names a journal.
//!
//! # Store hits
//!
//! A campaign answers its store hits in one pass before any proof runs,
//! and the daemon sends them as one [`Response::Stored`] frame; each
//! computed block still gets its own [`Response::Progress`].

use std::fmt::Write as _;

use dfv_bits::Bv;
use dfv_core::{BlockPair, ContentKey, FaultBlock};
use dfv_cosim::{ComparatorPolicy, StreamItem};
use dfv_obs::Json;
use dfv_rtl::{parse_module, write_module};
use dfv_sec::{Binding, ComparePoint, EquivSpec, InitState};

/// Whether retrying a failed request can ever succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// The condition is load- or timing-dependent (queue full, draining
    /// peer, stalled wire): backing off and retrying is sensible.
    Transient,
    /// The request itself is unacceptable (malformed, oversized, unknown
    /// job): retrying the same bytes will fail the same way.
    Permanent,
}

impl RetryClass {
    /// Wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            RetryClass::Transient => "transient",
            RetryClass::Permanent => "permanent",
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: &str) -> Option<RetryClass> {
        match tag {
            "transient" => Some(RetryClass::Transient),
            "permanent" => Some(RetryClass::Permanent),
            _ => None,
        }
    }
}

/// A typed protocol failure: what went wrong and whether retrying helps.
#[derive(Debug)]
pub struct ProtoError {
    /// Human-readable description.
    pub message: String,
    /// Retry classification.
    pub class: RetryClass,
}

impl ProtoError {
    /// A permanent (malformed-input) error.
    pub fn permanent(message: impl Into<String>) -> ProtoError {
        ProtoError {
            message: message.into(),
            class: RetryClass::Permanent,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.class.tag())
    }
}

impl std::error::Error for ProtoError {}

/// Per-submission knobs a client may set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Worker threads for this job (bounded by the server's executor
    /// policy; `None` = server default).
    pub workers: Option<usize>,
    /// Wall-clock deadline for the whole job in milliseconds. Blocks not
    /// started when it expires are skipped with a typed verdict. `None` =
    /// the server's cap.
    pub deadline_ms: Option<u64>,
    /// Journal name inside the server's state directory. A resubmission
    /// naming the same journal resumes from whatever the journal holds —
    /// the restart-recovery path. Must be a bare file name (validated).
    pub journal: Option<String>,
}

/// What a submission asks the daemon to run.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A lint + sequential-equivalence campaign over SLM/RTL block pairs.
    Campaign {
        /// The block pairs.
        blocks: Vec<BlockPair>,
        /// Submission knobs.
        options: SubmitOptions,
    },
    /// A seeded fault-injection sweep over recorded stream pairs.
    FaultSweep {
        /// Campaign seed (the whole sweep is a pure function of it).
        seed: u64,
        /// The stream blocks.
        blocks: Vec<FaultBlock>,
        /// Submission knobs (`journal` is ignored: fault sweeps are cheap
        /// pure functions of the seed and are simply re-run on restart).
        options: SubmitOptions,
    },
}

/// How many block refs each end of a connection remembers; past that,
/// the oldest ref is forgotten and costs one resend.
pub const REF_TABLE_CAPACITY: usize = 4096;

/// One campaign block of a [`Request::SubmitRefs`].
#[derive(Debug, Clone)]
pub enum WireBlock {
    /// Full content, optionally registering `ref_id` as this
    /// connection's name for it.
    Full {
        /// The block.
        block: Box<BlockPair>,
        /// The sender's ref id for the block's content.
        ref_id: Option<ContentKey>,
    },
    /// A block this connection sent in full before, by its ref id.
    Known {
        /// The block's name in this plan.
        name: String,
        /// The ref id the content was sent under.
        ref_id: ContentKey,
    },
}

impl WireBlock {
    /// The block as [`encode_campaign`] takes it.
    fn as_ref(&self) -> BlockRef<'_> {
        match self {
            WireBlock::Full { block, ref_id } => BlockRef::Full(block, *ref_id),
            WireBlock::Known { name, ref_id } => BlockRef::Known(name, *ref_id),
        }
    }
}

/// One campaign block to encode, borrowed from wherever the caller keeps
/// it: the wire form of a [`WireBlock`] without owning its content.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockRef<'a> {
    /// Full content, optionally registering a ref id for it.
    Full(&'a BlockPair, Option<ContentKey>),
    /// A ref: the block's name and the ref id its content was sent under.
    Known(&'a str, ContentKey),
}

/// A client-to-server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask for the daemon's observability counters.
    Status,
    /// Submit a job.
    Submit(JobSpec),
    /// Submit a campaign some of whose blocks carry or are refs (see the
    /// module docs). Never names a journal when any block is `Known`.
    SubmitRefs {
        /// The plan, in order.
        blocks: Vec<WireBlock>,
        /// Submission knobs.
        options: SubmitOptions,
    },
    /// Resubmit a campaign as edits to this connection's last admitted
    /// all-ref campaign (see the module docs). Never names a journal.
    SubmitDelta {
        /// The job id of the plan this one edits.
        base: u64,
        /// The plan's length, which must be the base's.
        len: usize,
        /// `(slot, block)` for each slot that differs from the base,
        /// strictly ascending and below `len`.
        edits: Vec<(usize, WireBlock)>,
        /// Submission knobs.
        options: SubmitOptions,
    },
    /// Cancel a previously accepted job.
    Cancel {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Begin a graceful drain: stop admitting, finish in-flight work,
    /// then shut down.
    Drain,
}

/// A server-to-client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Observability counters, sorted by name.
    Status {
        /// `(counter name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
    /// The job was admitted and will run.
    Accepted {
        /// Server-assigned job id (unique per server incarnation).
        job: u64,
    },
    /// The job was refused at admission.
    Rejected {
        /// Why (e.g. `"service busy: campaign queue full"`).
        reason: String,
        /// Whether retrying can help.
        class: RetryClass,
    },
    /// A block of an accepted job finished (streamed eagerly; best-effort
    /// — a slow client loses progress frames before it loses its report).
    Progress {
        /// The job id.
        job: u64,
        /// Block name.
        block: String,
        /// Short status tag (`PASS`, `FAIL`, ...).
        status: String,
    },
    /// The blocks of an accepted job the shared store answered, all in
    /// one frame, in plan order. As sheddable as [`Response::Progress`].
    Stored {
        /// The job id.
        job: u64,
        /// `(block name, status tag)` of each store hit.
        blocks: Vec<(String, String)>,
    },
    /// The final canonical report of an accepted job.
    Report {
        /// The job id.
        job: u64,
        /// The canonical run report: `RunReport::to_json(false)`, so
        /// rendering it gives exactly `RunReport::canonical_json`'s bytes.
        report: Json,
    },
    /// A [`Request::Cancel`] was applied: the job's cancel latch is set
    /// (already-finished blocks keep their verdicts; unstarted ones are
    /// skipped).
    Cancelled {
        /// The job id.
        job: u64,
    },
    /// The drain was acknowledged; the server finishes in-flight jobs and
    /// exits.
    DrainAck,
    /// A [`Request::SubmitRefs`] or [`Request::SubmitDelta`] named refs
    /// this connection cannot resolve (never sent here, forgotten, or
    /// their verdicts evicted); nothing was admitted. Transient: resending
    /// those blocks in full succeeds.
    MissingRefs {
        /// The unresolved ref ids, each once, in plan order; empty when a
        /// delta's base is not the connection's (resend everything).
        refs: Vec<ContentKey>,
    },
    /// A request-level failure (malformed frame payload, unknown job id).
    Error {
        /// Description.
        message: String,
        /// Whether retrying can help.
        class: RetryClass,
    },
}

// ---------------------------------------------------------------------------
// Field accessors: every decode failure is a typed permanent error.
// ---------------------------------------------------------------------------

fn need<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, ProtoError> {
    v.get(key)
        .ok_or_else(|| ProtoError::permanent(format!("{ctx}: missing field '{key}'")))
}

fn need_str<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a str, ProtoError> {
    need(v, key, ctx)?
        .as_str()
        .ok_or_else(|| ProtoError::permanent(format!("{ctx}: field '{key}' must be a string")))
}

fn need_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, ProtoError> {
    need(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| ProtoError::permanent(format!("{ctx}: field '{key}' must be an integer")))
}

fn need_arr<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], ProtoError> {
    need(v, key, ctx)?
        .as_arr()
        .ok_or_else(|| ProtoError::permanent(format!("{ctx}: field '{key}' must be an array")))
}

fn opt_u64(v: &Json, key: &str, ctx: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            ProtoError::permanent(format!("{ctx}: field '{key}' must be an integer or null"))
        }),
    }
}

/// Moves the value of `key` out of an object, as [`need`] finds it.
fn take(v: &mut Json, key: &str) -> Option<Json> {
    let Json::Obj(pairs) = v else {
        return None;
    };
    let i = pairs.iter().position(|(k, _)| k == key)?;
    Some(pairs.swap_remove(i).1)
}

/// A journal name must stay inside the server's state directory: a bare,
/// non-empty file name with no separators and no `..`.
pub fn validate_journal_name(name: &str) -> Result<(), ProtoError> {
    if name.is_empty()
        || name == "."
        || name == ".."
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0')
    {
        return Err(ProtoError::permanent(format!(
            "journal name {name:?} must be a bare file name"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Spec / binding / policy codecs
// ---------------------------------------------------------------------------

fn binding_to_json(b: &Binding) -> Result<Json, ProtoError> {
    Ok(match b {
        Binding::Slm(name) => {
            Json::obj(vec![("kind", Json::str("slm")), ("name", Json::str(name))])
        }
        Binding::SlmSlice { name, hi, lo } => Json::obj(vec![
            ("kind", Json::str("slice")),
            ("name", Json::str(name)),
            ("hi", Json::UInt(u64::from(*hi))),
            ("lo", Json::UInt(u64::from(*lo))),
        ]),
        Binding::Const(bv) => {
            if bv.width() > 64 {
                return Err(ProtoError::permanent(format!(
                    "constant binding of width {} exceeds the wire limit of 64 bits",
                    bv.width()
                )));
            }
            Json::obj(vec![
                ("kind", Json::str("const")),
                ("width", Json::UInt(u64::from(bv.width()))),
                ("value", Json::UInt(bv.to_u64())),
            ])
        }
        Binding::Free => Json::obj(vec![("kind", Json::str("free"))]),
    })
}

fn binding_from_json(v: &Json) -> Result<Binding, ProtoError> {
    let ctx = "binding";
    match need_str(v, "kind", ctx)? {
        "slm" => Ok(Binding::Slm(need_str(v, "name", ctx)?.to_string())),
        "slice" => Ok(Binding::SlmSlice {
            name: need_str(v, "name", ctx)?.to_string(),
            hi: u32::try_from(need_u64(v, "hi", ctx)?)
                .map_err(|_| ProtoError::permanent("binding: 'hi' out of range"))?,
            lo: u32::try_from(need_u64(v, "lo", ctx)?)
                .map_err(|_| ProtoError::permanent("binding: 'lo' out of range"))?,
        }),
        "const" => {
            let width = need_u64(v, "width", ctx)?;
            if width == 0 || width > 64 {
                return Err(ProtoError::permanent(format!(
                    "binding: constant width {width} outside 1..=64"
                )));
            }
            let value = need_u64(v, "value", ctx)?;
            Ok(Binding::Const(Bv::from_u64(width as u32, value)))
        }
        "free" => Ok(Binding::Free),
        other => Err(ProtoError::permanent(format!(
            "binding: unknown kind {other:?}"
        ))),
    }
}

fn spec_to_json(spec: &EquivSpec) -> Result<Json, ProtoError> {
    let mut bindings = Vec::with_capacity(spec.bindings.len());
    for (port, cycle, b) in &spec.bindings {
        bindings.push(Json::Arr(vec![
            Json::str(port),
            Json::UInt(u64::from(*cycle)),
            binding_to_json(b)?,
        ]));
    }
    let compares = spec
        .compares
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("slm_output", Json::str(&c.slm_output)),
                (
                    "slm_slice",
                    match c.slm_slice {
                        Some((hi, lo)) => {
                            Json::Arr(vec![Json::UInt(u64::from(hi)), Json::UInt(u64::from(lo))])
                        }
                        None => Json::Null,
                    },
                ),
                ("rtl_output", Json::str(&c.rtl_output)),
                ("rtl_cycle", Json::UInt(u64::from(c.rtl_cycle))),
            ])
        })
        .collect();
    let constraints = spec
        .constraints
        .iter()
        .map(|m| Json::str(write_module(m)))
        .collect();
    Ok(Json::obj(vec![
        ("rtl_cycles", Json::UInt(u64::from(spec.rtl_cycles))),
        (
            "init",
            Json::str(match spec.init {
                InitState::Reset => "reset",
                InitState::Free => "free",
            }),
        ),
        ("bindings", Json::Arr(bindings)),
        ("compares", Json::Arr(compares)),
        ("constraints", Json::Arr(constraints)),
    ]))
}

fn spec_from_json(v: &Json) -> Result<EquivSpec, ProtoError> {
    let ctx = "spec";
    let rtl_cycles = u32::try_from(need_u64(v, "rtl_cycles", ctx)?)
        .map_err(|_| ProtoError::permanent("spec: 'rtl_cycles' out of range"))?;
    let init = match need_str(v, "init", ctx)? {
        "reset" => InitState::Reset,
        "free" => InitState::Free,
        other => {
            return Err(ProtoError::permanent(format!(
                "spec: unknown init state {other:?}"
            )))
        }
    };
    let mut bindings = Vec::new();
    for entry in need_arr(v, "bindings", ctx)? {
        let triple = entry
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| ProtoError::permanent("spec: each binding must be [port, cycle, b]"))?;
        let port = triple[0]
            .as_str()
            .ok_or_else(|| ProtoError::permanent("spec: binding port must be a string"))?;
        let cycle = triple[1]
            .as_u64()
            .and_then(|c| u32::try_from(c).ok())
            .ok_or_else(|| ProtoError::permanent("spec: binding cycle out of range"))?;
        bindings.push((port.to_string(), cycle, binding_from_json(&triple[2])?));
    }
    let mut compares = Vec::new();
    for entry in need_arr(v, "compares", ctx)? {
        let slm_slice = match entry.get("slm_slice") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(pair)) if pair.len() == 2 => {
                let hi = pair[0].as_u64().and_then(|x| u32::try_from(x).ok());
                let lo = pair[1].as_u64().and_then(|x| u32::try_from(x).ok());
                match (hi, lo) {
                    (Some(hi), Some(lo)) => Some((hi, lo)),
                    _ => return Err(ProtoError::permanent("spec: bad slm_slice bounds")),
                }
            }
            Some(_) => return Err(ProtoError::permanent("spec: 'slm_slice' must be [hi, lo]")),
        };
        compares.push(ComparePoint {
            slm_output: need_str(entry, "slm_output", "compare")?.to_string(),
            slm_slice,
            rtl_output: need_str(entry, "rtl_output", "compare")?.to_string(),
            rtl_cycle: u32::try_from(need_u64(entry, "rtl_cycle", "compare")?)
                .map_err(|_| ProtoError::permanent("compare: 'rtl_cycle' out of range"))?,
        });
    }
    let mut constraints = Vec::new();
    for entry in need_arr(v, "constraints", ctx)? {
        let text = entry
            .as_str()
            .ok_or_else(|| ProtoError::permanent("spec: constraints must be netlist strings"))?;
        constraints
            .push(parse_module(text).map_err(|e| {
                ProtoError::permanent(format!("spec: bad constraint netlist: {e}"))
            })?);
    }
    Ok(EquivSpec {
        rtl_cycles,
        bindings,
        compares,
        constraints,
        init,
    })
}

fn block_to_json(b: BlockRef<'_>) -> Result<Json, ProtoError> {
    match b {
        BlockRef::Full(b, ref_id) => {
            let mut fields = vec![
                ("name", Json::str(&b.name)),
                ("slm_source", Json::str(&b.slm_source)),
                ("slm_entry", Json::str(&b.slm_entry)),
                ("rtl", Json::str(write_module(&b.rtl))),
                ("spec", spec_to_json(&b.spec)?),
            ];
            if let Some(id) = ref_id {
                fields.push(("ref", Json::str(id.to_hex())));
            }
            Ok(Json::obj(fields))
        }
        BlockRef::Known(name, ref_id) => Ok(Json::obj(vec![
            ("name", Json::str(name)),
            ("known", Json::str(ref_id.to_hex())),
        ])),
    }
}

/// A ref id field: exactly 32 hex digits.
fn ref_from_json(v: &Json, key: &str) -> Result<ContentKey, ProtoError> {
    v.as_str().and_then(ContentKey::from_hex).ok_or_else(|| {
        ProtoError::permanent(format!("block: '{key}' must be a string of 32 hex digits"))
    })
}

/// The content fields a `known` block must not carry.
const CONTENT_FIELDS: [&str; 5] = ["slm_source", "slm_entry", "rtl", "spec", "ref"];

fn wire_block_from_json(v: &Json) -> Result<WireBlock, ProtoError> {
    if let Some(known) = v.get("known") {
        if let Some(field) = CONTENT_FIELDS.iter().find(|f| v.get(f).is_some()) {
            return Err(ProtoError::permanent(format!(
                "block: a 'known' block cannot also carry '{field}'"
            )));
        }
        return Ok(WireBlock::Known {
            name: need_str(v, "name", "block")?.to_string(),
            ref_id: ref_from_json(known, "known")?,
        });
    }
    Ok(WireBlock::Full {
        block: Box::new(block_pair_from_json(v)?),
        ref_id: v.get("ref").map(|r| ref_from_json(r, "ref")).transpose()?,
    })
}

fn block_pair_from_json(v: &Json) -> Result<BlockPair, ProtoError> {
    let ctx = "block";
    let rtl_text = need_str(v, "rtl", ctx)?;
    Ok(BlockPair {
        name: need_str(v, "name", ctx)?.to_string(),
        slm_source: need_str(v, "slm_source", ctx)?.to_string(),
        slm_entry: need_str(v, "slm_entry", ctx)?.to_string(),
        rtl: parse_module(rtl_text)
            .map_err(|e| ProtoError::permanent(format!("block: bad RTL netlist: {e}")))?,
        spec: spec_from_json(need(v, "spec", ctx)?)?,
    })
}

fn policy_to_json(p: &ComparatorPolicy) -> Json {
    match *p {
        ComparatorPolicy::Exact => Json::obj(vec![("kind", Json::str("exact"))]),
        ComparatorPolicy::InOrder {
            tolerance,
            max_skew,
        } => Json::obj(vec![
            ("kind", Json::str("in_order")),
            ("tolerance", Json::UInt(tolerance)),
            (
                "max_skew",
                max_skew.map_or(Json::Null, |s| Json::UInt(s as u64)),
            ),
        ]),
        ComparatorPolicy::OutOfOrder {
            tag_hi,
            tag_lo,
            window,
            max_skew,
        } => Json::obj(vec![
            ("kind", Json::str("out_of_order")),
            ("tag_hi", Json::UInt(u64::from(tag_hi))),
            ("tag_lo", Json::UInt(u64::from(tag_lo))),
            ("window", Json::UInt(window as u64)),
            (
                "max_skew",
                max_skew.map_or(Json::Null, |s| Json::UInt(s as u64)),
            ),
        ]),
    }
}

fn policy_from_json(v: &Json) -> Result<ComparatorPolicy, ProtoError> {
    let ctx = "policy";
    let usize_of = |x: u64, what: &str| {
        usize::try_from(x)
            .map_err(|_| ProtoError::permanent(format!("policy: {what} out of range")))
    };
    match need_str(v, "kind", ctx)? {
        "exact" => Ok(ComparatorPolicy::Exact),
        "in_order" => Ok(ComparatorPolicy::InOrder {
            tolerance: need_u64(v, "tolerance", ctx)?,
            max_skew: match opt_u64(v, "max_skew", ctx)? {
                Some(s) => Some(usize_of(s, "max_skew")?),
                None => None,
            },
        }),
        "out_of_order" => Ok(ComparatorPolicy::OutOfOrder {
            tag_hi: u32::try_from(need_u64(v, "tag_hi", ctx)?)
                .map_err(|_| ProtoError::permanent("policy: 'tag_hi' out of range"))?,
            tag_lo: u32::try_from(need_u64(v, "tag_lo", ctx)?)
                .map_err(|_| ProtoError::permanent("policy: 'tag_lo' out of range"))?,
            window: usize_of(need_u64(v, "window", ctx)?, "window")?,
            max_skew: match opt_u64(v, "max_skew", ctx)? {
                Some(s) => Some(usize_of(s, "max_skew")?),
                None => None,
            },
        }),
        other => Err(ProtoError::permanent(format!(
            "policy: unknown kind {other:?}"
        ))),
    }
}

fn items_to_json(items: &[StreamItem]) -> Result<Json, ProtoError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        if item.value.width() > 64 {
            return Err(ProtoError::permanent(format!(
                "stream value of width {} exceeds the wire limit of 64 bits",
                item.value.width()
            )));
        }
        out.push(Json::Arr(vec![
            Json::UInt(u64::from(item.value.width())),
            Json::UInt(item.value.to_u64()),
            Json::UInt(item.time),
        ]));
    }
    Ok(Json::Arr(out))
}

fn items_from_json(v: &Json, what: &str) -> Result<Vec<StreamItem>, ProtoError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| ProtoError::permanent(format!("{what}: must be an array")))?;
    let mut out = Vec::with_capacity(arr.len());
    for entry in arr {
        let triple = entry.as_arr().filter(|a| a.len() == 3).ok_or_else(|| {
            ProtoError::permanent(format!("{what}: each item must be [width, value, time]"))
        })?;
        let width = triple[0]
            .as_u64()
            .filter(|w| (1..=64).contains(w))
            .ok_or_else(|| ProtoError::permanent(format!("{what}: item width outside 1..=64")))?;
        let value = triple[1].as_u64().ok_or_else(|| {
            ProtoError::permanent(format!("{what}: item value must be an integer"))
        })?;
        let time = triple[2].as_u64().ok_or_else(|| {
            ProtoError::permanent(format!("{what}: item time must be an integer"))
        })?;
        out.push(StreamItem {
            value: Bv::from_u64(width as u32, value),
            time,
        });
    }
    Ok(out)
}

fn fault_block_to_json(b: &FaultBlock) -> Result<Json, ProtoError> {
    Ok(Json::obj(vec![
        ("name", Json::str(&b.name)),
        ("policy", policy_to_json(&b.policy)),
        ("expected", items_to_json(&b.expected)?),
        ("actual", items_to_json(&b.actual)?),
    ]))
}

fn fault_block_from_json(v: &Json) -> Result<FaultBlock, ProtoError> {
    let ctx = "fault block";
    if v.get("ref").is_some() || v.get("known").is_some() {
        return Err(ProtoError::permanent(
            "fault block: refs are for campaign blocks only",
        ));
    }
    Ok(FaultBlock {
        name: need_str(v, "name", ctx)?.to_string(),
        policy: policy_from_json(need(v, "policy", ctx)?)?,
        expected: items_from_json(need(v, "expected", ctx)?, "expected")?,
        actual: items_from_json(need(v, "actual", ctx)?, "actual")?,
    })
}

fn options_to_json(o: &SubmitOptions) -> Json {
    Json::obj(vec![
        (
            "workers",
            o.workers.map_or(Json::Null, |w| Json::UInt(w as u64)),
        ),
        ("deadline_ms", o.deadline_ms.map_or(Json::Null, Json::UInt)),
        (
            "journal",
            o.journal.as_deref().map_or(Json::Null, Json::str),
        ),
    ])
}

fn options_from_json(v: &Json) -> Result<SubmitOptions, ProtoError> {
    let ctx = "options";
    let workers = match opt_u64(v, "workers", ctx)? {
        Some(w) => Some(
            usize::try_from(w)
                .map_err(|_| ProtoError::permanent("options: 'workers' out of range"))?,
        ),
        None => None,
    };
    let journal = match v.get("journal") {
        None | Some(Json::Null) => None,
        Some(j) => {
            let name = j
                .as_str()
                .ok_or_else(|| ProtoError::permanent("options: 'journal' must be a string"))?;
            validate_journal_name(name)?;
            Some(name.to_string())
        }
    };
    Ok(SubmitOptions {
        workers,
        deadline_ms: opt_u64(v, "deadline_ms", ctx)?,
        journal,
    })
}

// ---------------------------------------------------------------------------
// Top-level request / response codecs
// ---------------------------------------------------------------------------

/// Encodes a request for the wire.
///
/// Fallible because some in-memory values have no wire form (constants and
/// stream values wider than 64 bits).
pub fn encode_request(req: &Request) -> Result<Json, ProtoError> {
    Ok(match req {
        Request::Ping => Json::obj(vec![("type", Json::str("ping"))]),
        Request::Status => Json::obj(vec![("type", Json::str("status"))]),
        Request::Cancel { job } => Json::obj(vec![
            ("type", Json::str("cancel")),
            ("job", Json::UInt(*job)),
        ]),
        Request::Drain => Json::obj(vec![("type", Json::str("drain"))]),
        Request::Submit(spec) => encode_submit(spec)?,
        Request::SubmitRefs { blocks, options } => {
            encode_campaign(blocks.iter().map(WireBlock::as_ref), options)?
        }
        Request::SubmitDelta {
            base,
            len,
            edits,
            options,
        } => encode_delta(
            *base,
            *len,
            edits.iter().map(|(slot, b)| (*slot, b.as_ref())),
            options,
        )?,
    })
}

/// Encodes a [`Request::Submit`] of `spec` without owning it.
pub(crate) fn encode_submit(spec: &JobSpec) -> Result<Json, ProtoError> {
    match spec {
        JobSpec::Campaign { blocks, options } => {
            encode_campaign(blocks.iter().map(|b| BlockRef::Full(b, None)), options)
        }
        JobSpec::FaultSweep {
            seed,
            blocks,
            options,
        } => {
            let mut encoded = Vec::with_capacity(blocks.len());
            for b in blocks {
                encoded.push(fault_block_to_json(b)?);
            }
            Ok(Json::obj(vec![
                ("type", Json::str("submit")),
                ("job_kind", Json::str("fault_sweep")),
                ("seed", Json::UInt(*seed)),
                ("blocks", Json::Arr(encoded)),
                ("options", options_to_json(options)),
            ]))
        }
    }
}

/// Encodes a campaign submission from borrowed blocks: a plain
/// [`Request::Submit`] when no block carries or is a ref, a
/// [`Request::SubmitRefs`] otherwise. The one campaign encoder, for both
/// [`encode_request`] and the client.
pub(crate) fn encode_campaign<'a>(
    blocks: impl ExactSizeIterator<Item = BlockRef<'a>>,
    options: &SubmitOptions,
) -> Result<Json, ProtoError> {
    let mut encoded = Vec::with_capacity(blocks.len());
    for b in blocks {
        encoded.push(block_to_json(b)?);
    }
    Ok(Json::obj(vec![
        ("type", Json::str("submit")),
        ("job_kind", Json::str("campaign")),
        ("blocks", Json::Arr(encoded)),
        ("options", options_to_json(options)),
    ]))
}

/// Encodes a [`Request::SubmitDelta`] from borrowed edits.
pub(crate) fn encode_delta<'a>(
    base: u64,
    len: usize,
    edits: impl ExactSizeIterator<Item = (usize, BlockRef<'a>)>,
    options: &SubmitOptions,
) -> Result<Json, ProtoError> {
    let mut encoded = Vec::with_capacity(edits.len());
    for (slot, b) in edits {
        encoded.push(Json::obj(vec![
            ("slot", Json::UInt(slot as u64)),
            ("block", block_to_json(b)?),
        ]));
    }
    Ok(Json::obj(vec![
        ("type", Json::str("submit")),
        ("job_kind", Json::str("campaign_delta")),
        ("base", Json::UInt(base)),
        ("len", Json::UInt(len as u64)),
        ("edits", Json::Arr(encoded)),
        ("options", options_to_json(options)),
    ]))
}

/// Decodes a [`Request::SubmitDelta`]: slots strictly ascending and below
/// `len`, no journal. Nothing is sized from `len`.
fn delta_request(v: &Json, options: SubmitOptions) -> Result<Request, ProtoError> {
    let ctx = "delta";
    if options.journal.is_some() {
        return Err(ProtoError::permanent(
            "delta: a submission naming a journal must send every block in full",
        ));
    }
    let index = |x: u64, what: &str| {
        usize::try_from(x).map_err(|_| ProtoError::permanent(format!("delta: {what} out of range")))
    };
    let len = index(need_u64(v, "len", ctx)?, "'len'")?;
    let entries = need_arr(v, "edits", ctx)?;
    let mut edits = Vec::with_capacity(entries.len());
    for entry in entries {
        let slot = index(need_u64(entry, "slot", ctx)?, "slot")?;
        if slot >= len {
            return Err(ProtoError::permanent(format!(
                "delta: slot {slot} is not below len {len}"
            )));
        }
        if edits.last().is_some_and(|(prev, _)| *prev >= slot) {
            return Err(ProtoError::permanent(
                "delta: edit slots must be strictly ascending",
            ));
        }
        edits.push((slot, wire_block_from_json(need(entry, "block", ctx)?)?));
    }
    Ok(Request::SubmitDelta {
        base: need_u64(v, "base", ctx)?,
        len,
        edits,
        options,
    })
}

/// A decoded campaign: the plain [`Request::Submit`] when no block
/// carries or is a ref, [`Request::SubmitRefs`] otherwise.
fn campaign_request(blocks: Vec<WireBlock>, options: SubmitOptions) -> Result<Request, ProtoError> {
    let plain = blocks
        .iter()
        .all(|b| matches!(b, WireBlock::Full { ref_id: None, .. }));
    if plain {
        let blocks = blocks
            .into_iter()
            .filter_map(|b| match b {
                WireBlock::Full { block, .. } => Some(*block),
                WireBlock::Known { .. } => None,
            })
            .collect();
        return Ok(Request::Submit(JobSpec::Campaign { blocks, options }));
    }
    if options.journal.is_some() && blocks.iter().any(|b| matches!(b, WireBlock::Known { .. })) {
        // Resume replays the journal by content hash, so a journaled
        // submission must carry every block's content.
        return Err(ProtoError::permanent(
            "request: a submission naming a journal must send every block in full",
        ));
    }
    Ok(Request::SubmitRefs { blocks, options })
}

/// Decodes and validates a request from the wire.
pub fn decode_request(v: &Json) -> Result<Request, ProtoError> {
    let ctx = "request";
    match need_str(v, "type", ctx)? {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "cancel" => Ok(Request::Cancel {
            job: need_u64(v, "job", ctx)?,
        }),
        "drain" => Ok(Request::Drain),
        "submit" => {
            let options = options_from_json(need(v, "options", ctx)?)?;
            match need_str(v, "job_kind", ctx)? {
                "campaign" => {
                    let mut blocks = Vec::new();
                    for entry in need_arr(v, "blocks", ctx)? {
                        blocks.push(wire_block_from_json(entry)?);
                    }
                    campaign_request(blocks, options)
                }
                "campaign_delta" => delta_request(v, options),
                "fault_sweep" => {
                    let mut blocks = Vec::new();
                    for entry in need_arr(v, "blocks", ctx)? {
                        blocks.push(fault_block_from_json(entry)?);
                    }
                    Ok(Request::Submit(JobSpec::FaultSweep {
                        seed: need_u64(v, "seed", ctx)?,
                        blocks,
                        options,
                    }))
                }
                other => Err(ProtoError::permanent(format!(
                    "request: unknown job kind {other:?}"
                ))),
            }
        }
        other => Err(ProtoError::permanent(format!(
            "request: unknown type {other:?}"
        ))),
    }
}

impl Response {
    /// The message's wire `type`.
    fn tag(&self) -> &'static str {
        match self {
            Response::Pong => "pong",
            Response::Status { .. } => "status",
            Response::Accepted { .. } => "accepted",
            Response::Rejected { .. } => "rejected",
            Response::Progress { .. } => "progress",
            Response::Stored { .. } => "stored",
            Response::Report { .. } => "report",
            Response::Cancelled { .. } => "cancelled",
            Response::DrainAck => "drain_ack",
            Response::MissingRefs { .. } => "missing_refs",
            Response::Error { .. } => "error",
        }
    }
}

/// Renders a response's JSON text onto `out`, field by field, with no
/// message tree built around it: a report is rendered where it lies.
/// [`write_frame_with`](crate::frame::write_frame_with) takes this as
/// the payload of one frame.
pub fn encode_response(resp: Response, out: &mut String) {
    out.push_str("{\"type\":\"");
    out.push_str(resp.tag());
    out.push('"');
    let key = |out: &mut String, key: &str| {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
    };
    let uint = |out: &mut String, name: &str, v: u64| {
        key(out, name);
        let _ = write!(out, "{v}");
    };
    let text = |out: &mut String, name: &str, v: &str| {
        key(out, name);
        Json::render_str_into(v, out);
    };
    match resp {
        Response::Pong | Response::DrainAck => {}
        Response::Status { counters } => {
            key(out, "counters");
            out.push('{');
            for (i, (name, v)) in counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                Json::render_str_into(name, out);
                let _ = write!(out, ":{v}");
            }
            out.push('}');
        }
        Response::Accepted { job } | Response::Cancelled { job } => uint(out, "job", job),
        Response::Rejected { reason, class } => {
            text(out, "reason", &reason);
            text(out, "class", class.tag());
        }
        Response::Progress { job, block, status } => {
            uint(out, "job", job);
            text(out, "block", &block);
            text(out, "status", &status);
        }
        Response::Stored { job, blocks } => {
            uint(out, "job", job);
            key(out, "blocks");
            out.push('[');
            for (i, (block, status)) in blocks.iter().enumerate() {
                out.push_str(if i > 0 { ",[" } else { "[" });
                Json::render_str_into(block, out);
                out.push(',');
                Json::render_str_into(status, out);
                out.push(']');
            }
            out.push(']');
        }
        Response::Report { job, report } => {
            uint(out, "job", job);
            key(out, "report");
            report.render_into(out);
        }
        Response::MissingRefs { refs } => {
            key(out, "refs");
            out.push('[');
            for (i, r) in refs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", r.to_hex());
            }
            out.push(']');
        }
        Response::Error { message, class } => {
            text(out, "message", &message);
            text(out, "class", class.tag());
        }
    }
    out.push('}');
}

/// Decodes a response from the wire, moving a report out of the message
/// rather than copying it.
pub fn decode_response(mut msg: Json) -> Result<Response, ProtoError> {
    let ctx = "response";
    let v = &msg;
    let class_of = |v: &Json| -> Result<RetryClass, ProtoError> {
        RetryClass::from_tag(need_str(v, "class", ctx)?)
            .ok_or_else(|| ProtoError::permanent("response: unknown retry class"))
    };
    match need_str(v, "type", ctx)? {
        "pong" => Ok(Response::Pong),
        "status" => {
            let counters = match need(v, "counters", ctx)? {
                Json::Obj(pairs) => {
                    let mut out = Vec::with_capacity(pairs.len());
                    for (k, val) in pairs {
                        let n = val.as_u64().ok_or_else(|| {
                            ProtoError::permanent("response: counter values must be integers")
                        })?;
                        out.push((k.clone(), n));
                    }
                    out
                }
                _ => {
                    return Err(ProtoError::permanent(
                        "response: 'counters' must be an object",
                    ))
                }
            };
            Ok(Response::Status { counters })
        }
        "accepted" => Ok(Response::Accepted {
            job: need_u64(v, "job", ctx)?,
        }),
        "rejected" => Ok(Response::Rejected {
            reason: need_str(v, "reason", ctx)?.to_string(),
            class: class_of(v)?,
        }),
        "progress" => Ok(Response::Progress {
            job: need_u64(v, "job", ctx)?,
            block: need_str(v, "block", ctx)?.to_string(),
            status: need_str(v, "status", ctx)?.to_string(),
        }),
        "stored" => {
            let mut blocks = Vec::new();
            for pair in need_arr(v, "blocks", ctx)? {
                let pair = match pair.as_arr() {
                    Some([block, status]) => block.as_str().zip(status.as_str()),
                    _ => None,
                };
                let (block, status) = pair.ok_or_else(|| {
                    ProtoError::permanent("response: each stored block must be [name, status]")
                })?;
                blocks.push((block.to_string(), status.to_string()));
            }
            Ok(Response::Stored {
                job: need_u64(v, "job", ctx)?,
                blocks,
            })
        }
        "report" => {
            let job = need_u64(v, "job", ctx)?;
            let report = take(&mut msg, "report")
                .ok_or_else(|| ProtoError::permanent("response: missing field 'report'"))?;
            Ok(Response::Report { job, report })
        }
        "cancelled" => Ok(Response::Cancelled {
            job: need_u64(v, "job", ctx)?,
        }),
        "drain_ack" => Ok(Response::DrainAck),
        "missing_refs" => {
            let mut refs = Vec::new();
            for r in need_arr(v, "refs", ctx)? {
                refs.push(
                    r.as_str()
                        .and_then(ContentKey::from_hex)
                        .ok_or_else(|| ProtoError::permanent("response: bad missing ref"))?,
                );
            }
            Ok(Response::MissingRefs { refs })
        }
        "error" => Ok(Response::Error {
            message: need_str(v, "message", ctx)?.to_string(),
            class: class_of(v)?,
        }),
        other => Err(ProtoError::permanent(format!(
            "response: unknown type {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dfv_core::HashSecret;

    fn tiny_block(name: &str) -> BlockPair {
        let rtl = parse_module(
            "module passthru\n  input a 4\n  output y 4\n  n0 = input 0 : 4\n  drive 0 n0\nend\n",
        )
        .expect("tiny netlist parses");
        BlockPair {
            name: name.to_string(),
            slm_source: "int f(int a) { return a; }".to_string(),
            slm_entry: "f".to_string(),
            rtl,
            spec: EquivSpec::new(1)
                .bind("a", 0, Binding::Slm("a".into()))
                .bind("b", 0, Binding::Const(Bv::from_u64(4, 9)))
                .compare("f", "y", 0),
        }
    }

    #[test]
    fn campaign_submission_roundtrips_with_identical_content_hash() {
        let req = Request::Submit(JobSpec::Campaign {
            blocks: vec![tiny_block("b0"), tiny_block("b1")],
            options: SubmitOptions {
                workers: Some(2),
                deadline_ms: Some(5_000),
                journal: Some("job1.journal".into()),
            },
        });
        let wire = encode_request(&req).unwrap();
        // Through a render/parse cycle, as the frame layer would do it.
        let back = decode_request(&dfv_obs::parse_json(&wire.render()).unwrap()).unwrap();
        match (req, back) {
            (
                Request::Submit(JobSpec::Campaign {
                    blocks: a,
                    options: oa,
                }),
                Request::Submit(JobSpec::Campaign {
                    blocks: b,
                    options: ob,
                }),
            ) => {
                assert_eq!(oa, ob);
                assert_eq!(a.len(), b.len());
                let secret = HashSecret::from_words(3, 5);
                for (x, y) in a.iter().zip(&b) {
                    // The content hash covers source, netlist, and spec —
                    // if it survives the wire, dedup keys are stable
                    // across client and server; so do keyed content keys.
                    assert_eq!(x.content_hash(), y.content_hash(), "block {}", x.name);
                    assert_eq!(
                        x.content_key(&secret),
                        y.content_key(&secret),
                        "block {}",
                        x.name
                    );
                }
            }
            _ => panic!("variant changed in flight"),
        }
    }

    #[test]
    fn content_hash_is_stable_across_wire_round_trips_with_named_constraint_nodes() {
        // Each decoded constraint gets a fresh `node_names` map with its
        // own random iteration order; a hash that followed that order
        // would make dedup, the cache and journal replay miss this block.
        use crate::frame::{read_frame, write_frame};
        use dfv_designs::memsys;
        let table: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(11) ^ 0x42);
        let mut spec = memsys::equiv_spec_fast();
        let constraint = &mut spec.constraints[0];
        for (id, name) in [(0, "addr_in"), (1, "eight"), (2, "in_bank0")] {
            constraint.node_names.insert(id, name.to_string());
        }
        let block = BlockPair {
            name: "memf".into(),
            slm_source: memsys::slm_source(&table),
            slm_entry: "lookup".into(),
            rtl: memsys::rtl(&table),
            spec,
        };
        let want = block.content_hash();
        let req = encode_request(&Request::Submit(JobSpec::Campaign {
            blocks: vec![block],
            options: SubmitOptions::default(),
        }))
        .unwrap();
        for round in 0..50 {
            let mut frame = Vec::new();
            write_frame(&mut frame, &req).unwrap();
            let msg = read_frame(&mut frame.as_slice()).unwrap();
            let Request::Submit(JobSpec::Campaign { blocks, .. }) = decode_request(&msg).unwrap()
            else {
                panic!("variant changed in flight");
            };
            assert_eq!(blocks[0].spec.constraints[0].node_names.len(), 3);
            assert_eq!(blocks[0].content_hash(), want, "round {round}");
        }
    }

    #[test]
    fn ref_submissions_roundtrip_with_stable_ref_ids_and_content_keys() {
        let secret = HashSecret::from_words(7, 11);
        let full = tiny_block("b0");
        let (id0, id1) = (full.content_key(&secret), ContentKey(u128::MAX - 2));
        let req = Request::SubmitRefs {
            blocks: vec![
                WireBlock::Full {
                    block: Box::new(full.clone()),
                    ref_id: Some(id0),
                },
                WireBlock::Known {
                    name: "b1".into(),
                    ref_id: id1,
                },
                WireBlock::Full {
                    block: Box::new(tiny_block("b2")),
                    ref_id: None,
                },
            ],
            options: SubmitOptions::default(),
        };
        let wire = encode_request(&req).unwrap();
        let back = decode_request(&dfv_obs::parse_json(&wire.render()).unwrap()).unwrap();
        let Request::SubmitRefs { blocks, .. } = back else {
            panic!("a submission with refs decodes as SubmitRefs");
        };
        match &blocks[..] {
            [WireBlock::Full {
                block,
                ref_id: Some(a),
            }, WireBlock::Known { name, ref_id: b }, WireBlock::Full { ref_id: None, .. }] => {
                assert_eq!((*a, *b), (id0, id1));
                assert_eq!(name, "b1");
                assert_eq!(block.content_key(&secret), id0);
            }
            other => panic!("blocks changed in flight: {other:?}"),
        }
        assert_eq!(
            encode_request(&Request::SubmitRefs {
                blocks,
                options: SubmitOptions::default()
            })
            .unwrap()
            .render(),
            wire.render()
        );
    }

    #[test]
    fn fault_sweep_submission_roundtrips() {
        let items = |n: u64| {
            (0..n)
                .map(|i| StreamItem {
                    value: Bv::from_u64(8, i),
                    time: i,
                })
                .collect::<Vec<_>>()
        };
        let req = Request::Submit(JobSpec::FaultSweep {
            seed: 0xDEAD,
            blocks: vec![FaultBlock {
                name: "s0".into(),
                expected: items(3),
                actual: items(3),
                policy: ComparatorPolicy::InOrder {
                    tolerance: 2,
                    max_skew: Some(4),
                },
            }],
            options: SubmitOptions::default(),
        });
        let wire = encode_request(&req).unwrap();
        match decode_request(&wire).unwrap() {
            Request::Submit(JobSpec::FaultSweep { seed, blocks, .. }) => {
                assert_eq!(seed, 0xDEAD);
                assert_eq!(blocks.len(), 1);
                assert_eq!(blocks[0].expected.len(), 3);
                assert_eq!(blocks[0].expected[2].value.to_u64(), 2);
                assert!(matches!(
                    blocks[0].policy,
                    ComparatorPolicy::InOrder {
                        tolerance: 2,
                        max_skew: Some(4)
                    }
                ));
            }
            _ => panic!("variant changed in flight"),
        }
    }

    #[test]
    fn every_simple_request_and_response_roundtrips() {
        for req in [
            Request::Ping,
            Request::Status,
            Request::Cancel { job: 7 },
            Request::Drain,
        ] {
            let wire = encode_request(&req).unwrap();
            let back = decode_request(&wire).unwrap();
            assert_eq!(std::mem::discriminant(&req), std::mem::discriminant(&back));
        }
        for resp in [
            Response::Pong,
            Response::Status {
                counters: vec![("serve.accepted".into(), 3)],
            },
            Response::Accepted { job: 1 },
            Response::Rejected {
                reason: "service busy: campaign queue full".into(),
                class: RetryClass::Transient,
            },
            Response::Progress {
                job: 1,
                block: "b0".into(),
                status: "PASS".into(),
            },
            Response::Report {
                job: 1,
                report: Json::obj(vec![("name", Json::str("campaign"))]),
            },
            Response::Cancelled { job: 1 },
            Response::DrainAck,
            Response::MissingRefs {
                refs: vec![ContentKey(1), ContentKey(u128::MAX)],
            },
            Response::MissingRefs { refs: vec![] },
            Response::Stored {
                job: 1,
                blocks: vec![("b0".into(), "PASS".into()), ("b1".into(), "FAIL".into())],
            },
            Response::Stored {
                job: 2,
                blocks: vec![],
            },
            Response::Error {
                message: "unknown job".into(),
                class: RetryClass::Permanent,
            },
        ] {
            let tag = std::mem::discriminant(&resp);
            let mut wire = String::new();
            encode_response(resp, &mut wire);
            let back = decode_response(dfv_obs::parse_json(&wire).unwrap()).unwrap();
            assert_eq!(tag, std::mem::discriminant(&back));
            let mut again = String::new();
            encode_response(back, &mut again);
            assert_eq!(again, wire);
        }
    }

    /// The wire format is fixed: every response variant's whole frame,
    /// header and payload, byte for byte.
    #[test]
    fn every_response_frame_matches_its_wire_golden() {
        use crate::frame::{read_frame, write_frame_with};
        let report = Json::obj(vec![
            ("report", Json::str("campaign")),
            (
                "counters",
                Json::obj(vec![("campaign.blocks", Json::UInt(2))]),
            ),
            (
                "values",
                Json::obj(vec![
                    ("neg", Json::Int(-3)),
                    ("ratio", Json::Float(0.25)),
                    ("note", Json::str("tab\there \"quoted\" \u{1}")),
                    ("none", Json::Null),
                    ("flag", Json::Bool(true)),
                    (
                        "blocks",
                        Json::Arr(vec![Json::obj(vec![
                            ("name", Json::str("b0")),
                            ("status", Json::str("PASS")),
                        ])]),
                    ),
                ]),
            ),
        ]);
        let responses = [
            Response::Pong,
            Response::Status {
                counters: vec![("serve.accepted".into(), 3), ("serve.completed".into(), 2)],
            },
            Response::Accepted { job: 1 },
            Response::Rejected {
                reason: "service busy: \"campaign\" queue full".into(),
                class: RetryClass::Transient,
            },
            Response::Progress {
                job: 7,
                block: "alu\n3".into(),
                status: "PASS".into(),
            },
            Response::Report { job: 9, report },
            Response::Cancelled { job: 4 },
            Response::DrainAck,
            Response::MissingRefs {
                refs: vec![ContentKey(1), ContentKey(u128::MAX)],
            },
            Response::Error {
                message: "unknown job 5".into(),
                class: RetryClass::Permanent,
            },
            Response::Stored {
                job: 7,
                blocks: vec![
                    ("alu\n3".into(), "PASS".into()),
                    ("fir".into(), "FAIL".into()),
                ],
            },
        ];
        // (frame header as hex, payload text)
        let goldens = [
            ("444656310000000fd2ef0ede9435d0e9", r#"{"type":"pong"}"#),
            (
                "4446563100000045c5de5ee1151aeea9",
                r#"{"type":"status","counters":{"serve.accepted":3,"serve.completed":2}}"#,
            ),
            (
                "444656310000001ba9b53531a570b2e2",
                r#"{"type":"accepted","job":1}"#,
            ),
            (
                "444656310000005818113c860d01c3e7",
                r#"{"type":"rejected","reason":"service busy: \"campaign\" queue full","class":"transient"}"#,
            ),
            (
                "444656310000003c221118ccb41579c7",
                r#"{"type":"progress","job":7,"block":"alu\n3","status":"PASS"}"#,
            ),
            (
                "44465631000000e0dcdb1abd7608b942",
                r#"{"type":"report","job":9,"report":{"report":"campaign","counters":{"campaign.blocks":2},"values":{"neg":-3,"ratio":0.25,"note":"tab\there \"quoted\" \u0001","none":null,"flag":true,"blocks":[{"name":"b0","status":"PASS"}]}}}"#,
            ),
            (
                "444656310000001c900ce78924eafb89",
                r#"{"type":"cancelled","job":4}"#,
            ),
            (
                "4446563100000014c9fa1923702eb0bf",
                r#"{"type":"drain_ack"}"#,
            ),
            (
                "44465631000000669dfe5b01f64f5207",
                r#"{"type":"missing_refs","refs":["00000000000000000000000000000001","ffffffffffffffffffffffffffffffff"]}"#,
            ),
            (
                "444656310000003e9ab94160fde86fb6",
                r#"{"type":"error","message":"unknown job 5","class":"permanent"}"#,
            ),
            (
                "4446563100000045c05468b0788a3bff",
                r#"{"type":"stored","job":7,"blocks":[["alu\n3","PASS"],["fir","FAIL"]]}"#,
            ),
        ];
        assert_eq!(responses.len(), goldens.len());
        for (resp, (header, payload)) in responses.into_iter().zip(goldens) {
            let tag = resp.tag();
            let mut frame = Vec::new();
            write_frame_with(&mut frame, |out| encode_response(resp, out)).unwrap();
            let hex: String = frame[..16].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(std::str::from_utf8(&frame[16..]).unwrap(), payload);
            assert_eq!(hex, header, "{payload}");
            let msg = read_frame(&mut frame.as_slice()).unwrap();
            assert_eq!(decode_response(msg).unwrap().tag(), tag);
        }
    }

    /// The delta request's bytes are fixed too: its field order and
    /// each edit's `{"slot", "block"}` shape.
    #[test]
    fn a_delta_request_matches_its_wire_golden_and_roundtrips() {
        let req = Request::SubmitDelta {
            base: 9,
            len: 128,
            edits: vec![
                (
                    5,
                    WireBlock::Known {
                        name: "b5".into(),
                        ref_id: ContentKey(0xab),
                    },
                ),
                (
                    127,
                    WireBlock::Full {
                        block: Box::new(tiny_block("b127")),
                        ref_id: Some(ContentKey(1)),
                    },
                ),
            ],
            options: SubmitOptions {
                deadline_ms: Some(50),
                ..SubmitOptions::default()
            },
        };
        let wire = encode_request(&req).unwrap().render();
        let golden = concat!(
            r#"{"type":"submit","job_kind":"campaign_delta","base":9,"len":128,"edits":["#,
            r#"{"slot":5,"block":{"name":"b5","known":"000000000000000000000000000000ab"}},"#,
            r#"{"slot":127,"block":{"name":"b127","slm_source":"int f(int a) { return a; }","#,
            r#""slm_entry":"f","rtl":"module passthru\n  input a 4\n  output y 4\n  n0 = input 0 : 4\n  drive 0 n0\nend\n","#,
            r#""spec":{"rtl_cycles":1,"init":"reset","bindings":[["a",0,{"kind":"slm","name":"a"}],"#,
            r#"["b",0,{"kind":"const","width":4,"value":9}]],"compares":[{"slm_output":"f","slm_slice":null,"rtl_output":"y","rtl_cycle":0}],"constraints":[]},"#,
            r#""ref":"00000000000000000000000000000001"}}],"#,
            r#""options":{"workers":null,"deadline_ms":50,"journal":null}}"#,
        );
        assert_eq!(wire, golden);
        let back = decode_request(&dfv_obs::parse_json(&wire).unwrap()).unwrap();
        let Request::SubmitDelta {
            base: 9,
            len: 128,
            ref edits,
            ..
        } = back
        else {
            panic!("a delta decodes as a delta: {back:?}");
        };
        assert_eq!(edits.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [5, 127]);
        assert_eq!(encode_request(&back).unwrap().render(), golden);
    }

    #[test]
    fn a_decoded_report_is_moved_out_of_its_message_not_copied() {
        let msg = Json::obj(vec![
            ("type", Json::str("report")),
            ("job", Json::UInt(3)),
            (
                "report",
                Json::obj(vec![("note", Json::str("a string on the heap"))]),
            ),
        ]);
        let note = |v: &Json| v.get("note").and_then(Json::as_str).unwrap().as_ptr();
        let sent = note(msg.get("report").unwrap());
        let Response::Report { job, report } = decode_response(msg).unwrap() else {
            panic!("a report decodes as a report");
        };
        assert_eq!(job, 3);
        assert_eq!(note(&report), sent, "the report's text was copied");
    }

    #[test]
    fn malformed_submissions_are_permanent_errors() {
        let cases = [
            r#"{"type":"warp"}"#,
            r#"{"type":"submit","job_kind":"campaign","options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b"}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"fault_sweep","seed":1,"blocks":[
                {"name":"s","policy":{"kind":"sorted"},"expected":[],"actual":[]}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[],"options":{"journal":"../etc/pwned"}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[],"options":{"journal":"a/b"}}"#,
            // Refs: malformed ids, a ref with content, refs in a fault
            // sweep, and a journaled submission that omits content.
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b","known":"abc"}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b","known":7}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b","known":null}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b","known":"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"known":"0000000000000000000000000000000a"}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b","known":"0000000000000000000000000000000a","rtl":""}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"fault_sweep","seed":1,"blocks":[
                {"name":"s","policy":{"kind":"exact"},"expected":[],"actual":[],"ref":"0000000000000000000000000000000a"}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign","blocks":[{"name":"b","known":"0000000000000000000000000000000a"}],"options":{"journal":"j"}}"#,
            // Deltas: missing or ill-typed fields, slots out of order, out
            // of range or repeated, a bad edit block, and a journal.
            r#"{"type":"submit","job_kind":"campaign_delta","len":2,"edits":[],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"edits":[],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":-1,"edits":[],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":1e40,"edits":[],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":2,"edits":{},"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":2,"edits":[{"slot":2,"block":{"name":"b","known":"0000000000000000000000000000000a"}}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":4,"edits":[{"slot":1,"block":{"name":"b","known":"0000000000000000000000000000000a"}},{"slot":0,"block":{"name":"c","known":"0000000000000000000000000000000a"}}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":4,"edits":[{"slot":1,"block":{"name":"b","known":"0000000000000000000000000000000a"}},{"slot":1,"block":{"name":"c","known":"0000000000000000000000000000000a"}}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":4,"edits":[{"block":{"name":"b","known":"0000000000000000000000000000000a"}}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":4,"edits":[{"slot":0}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":4,"edits":[{"slot":0,"block":{"name":"b","known":"abc"}}],"options":{}}"#,
            r#"{"type":"submit","job_kind":"campaign_delta","base":1,"len":4,"edits":[],"options":{"journal":"j"}}"#,
        ];
        for text in cases {
            let v = dfv_obs::parse_json(text).unwrap();
            let err = decode_request(&v).unwrap_err();
            assert_eq!(err.class, RetryClass::Permanent, "case {text}");
        }
    }

    #[test]
    fn oversized_constants_are_refused_at_encode_time() {
        let mut b = tiny_block("wide");
        b.spec = EquivSpec::new(1).bind("a", 0, Binding::Const(Bv::zero(65)));
        let err = encode_request(&Request::Submit(JobSpec::Campaign {
            blocks: vec![b],
            options: SubmitOptions::default(),
        }))
        .unwrap_err();
        assert_eq!(err.class, RetryClass::Permanent);
        assert!(err.message.contains("64"), "{}", err.message);
    }
}
