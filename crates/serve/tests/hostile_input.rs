//! Seeded hostile-input suite for the daemon's decode path: byte
//! mutations of RTL netlist text and of a campaign `Submit` frame must
//! come back from `parse_module`, `read_frame` and `decode_request` as a
//! value or a typed error (`RtlError`, `FrameError`, `ProtoError`), never
//! as a panic.
//!
//! Block refs are exercised against a live daemon: unknown, malformed,
//! duplicated and conflicting refs, refs where none belong, and mutated
//! ref frames must each end in `Accepted`, `MissingRefs`, or a typed
//! `Error` or `Rejected`, never in a panic or a hang.
//!
//! Uses the repo's own `SplitMix64`, so the suite runs offline; the seeds
//! are fixed, making every run reproducible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use dfv_bits::{fnv64, SplitMix64};
use dfv_core::{BlockPair, ContentKey};
use dfv_designs::{alu, fir, memsys};
use dfv_obs::Json;
use dfv_rtl::{parse_module, write_module, ModuleBuilder, RtlError, MAX_MEM_DEPTH, MAX_WIDTH};
use dfv_sec::{Binding, EquivSpec};
use dfv_serve::frame::MAGIC;
use dfv_serve::proto::{decode_request, decode_response, encode_request};
use dfv_serve::{
    duplex, read_frame, write_frame, FrameError, JobSpec, PipeReader, PipeWriter, Request,
    Response, RetryClass, ServeConfig, Server, SubmitOptions, WireBlock,
};

/// Bytes a mutation writes: half of the time one that means something to
/// the netlist or JSON grammar, otherwise any byte at all.
const GRAMMAR: &[u8] = b"0123456789nhdbo=:'_ \t\n#-\"\\{}[],";

fn pick(rng: &mut SplitMix64) -> u8 {
    if rng.next_bool() {
        GRAMMAR[(rng.next_u64() % GRAMMAR.len() as u64) as usize]
    } else {
        rng.next_u64() as u8
    }
}

/// Applies one to four seeded edits: overwrite, insert, delete, or flip
/// one bit of a byte.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.next_u64() % 4 {
        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
        match rng.next_u64() % 4 {
            0 if at < bytes.len() => bytes[at] = pick(rng),
            1 => bytes.insert(at, pick(rng)),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ if at < bytes.len() => bytes[at] ^= 1 << (rng.next_u64() % 8),
            _ => bytes.push(pick(rng)),
        }
    }
}

fn table() -> [u8; 16] {
    std::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ 0x3c)
}

fn blocks() -> Vec<BlockPair> {
    let t = table();
    vec![
        BlockPair {
            name: "alu".into(),
            slm_source: alu::slm_bit_accurate().into(),
            slm_entry: "alu".into(),
            rtl: alu::rtl(8, 8),
            spec: alu::equiv_spec(),
        },
        BlockPair {
            name: "fir".into(),
            slm_source: fir::slm_source().into(),
            slm_entry: "fir".into(),
            rtl: fir::rtl(),
            spec: fir::equiv_spec(),
        },
        BlockPair {
            name: "memf".into(),
            slm_source: memsys::slm_source(&t),
            slm_entry: "lookup".into(),
            rtl: memsys::rtl(&t),
            spec: memsys::equiv_spec_fast(),
        },
    ]
}

/// Runs `f` on one mutated input and turns a panic into a test failure
/// that names the case and shows the input.
fn no_panic<T>(case: u64, input: &[u8], f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
        panic!(
            "case {case} panicked on input:\n{}",
            String::from_utf8_lossy(input)
        )
    })
}

#[test]
fn mutated_netlists_parse_or_fail_typed() {
    let texts: Vec<String> = blocks()
        .iter()
        .flat_map(|b| {
            std::iter::once(write_module(&b.rtl)).chain(b.spec.constraints.iter().map(write_module))
        })
        .collect();
    let mut rng = SplitMix64::new(0x686f_7374);
    let (mut parse_errors, mut other_errors, mut parsed) = (0, 0, 0);
    for case in 0..3000 {
        let mut bytes = texts[(case % texts.len() as u64) as usize]
            .clone()
            .into_bytes();
        mutate(&mut rng, &mut bytes);
        let text = String::from_utf8_lossy(&bytes);
        match no_panic(case, &bytes, || parse_module(&text)) {
            Ok(_) => parsed += 1,
            Err(RtlError::Parse { .. }) => parse_errors += 1,
            Err(_) => other_errors += 1,
        }
    }
    // The mutations reach the syntax checks, the structural checks, and
    // leave some inputs valid (an edited name or constant).
    assert!(parse_errors > 0 && other_errors > 0 && parsed > 0);
}

#[test]
fn oversized_widths_are_refused_typed() {
    // A width is one number on one line, so a mutation of a few bytes
    // cannot reach the dangerous range, but a hostile client can simply
    // write it: `4000000000'h0` once made the parser allocate ~500 MB.
    // Every width field past the cap must be a typed parse error, both
    // through `parse_module` and inside a well-framed `Submit`.
    let base = write_module(&blocks()[0].rtl);
    let huge = u64::from(MAX_WIDTH) + 1;
    let edits = [
        ("n0 = input 0 : 8", format!("n0 = input 0 : {huge}")),
        ("input a 8", format!("input a {huge}")),
        ("reg tmp 8 8'h", "reg tmp 8 4000000000'h".to_string()),
    ];
    for (from, to) in &edits {
        let (at, _) = base.match_indices(from).next().expect("edit site present");
        let text = format!("{}{to}{}", &base[..at], &base[at + from.len()..]);
        match parse_module(&text) {
            Err(RtlError::Parse { message, .. }) => {
                assert!(message.contains("exceeds the maximum width"), "{message}")
            }
            other => panic!("{to}: expected a width error, got {other:?}"),
        }
        let payload = submit()
            .render()
            .replace(&json_escape(&base), &json_escape(&text));
        assert_ne!(
            payload,
            submit().render(),
            "{to}: netlist not found in the payload"
        );
        let msg = read_frame(&mut framed(payload.as_bytes()).as_slice()).expect("well framed");
        let err = decode_request(&msg).expect_err("oversized width refused");
        assert!(
            err.message.contains("exceeds the maximum width"),
            "{}",
            err.message
        );
    }
}

#[test]
fn oversized_memory_depths_are_refused_typed() {
    // A `mem` line's depth is the number of words a simulator allocates
    // up front; past the cap it must be a typed parse error, both through
    // `parse_module` and inside a well-framed `Submit`.
    let base = write_module(&blocks()[2].rtl);
    let m = &blocks()[2].rtl.mems[0];
    let line = |depth: usize| format!("mem {} {} {} {depth}", m.name, m.addr_width, m.data_width);
    let from = line(m.depth);
    let (at, _) = base.match_indices(&from).next().expect("mem line present");
    let text = format!(
        "{}{}{}",
        &base[..at],
        line(MAX_MEM_DEPTH + 1),
        &base[at + from.len()..]
    );
    match parse_module(&text) {
        Err(RtlError::Parse { message, .. }) => {
            assert!(message.contains("exceeds the maximum depth"), "{message}")
        }
        other => panic!("expected a depth error, got {other:?}"),
    }
    let payload = submit()
        .render()
        .replace(&json_escape(&base), &json_escape(&text));
    assert_ne!(
        payload,
        submit().render(),
        "netlist not found in the payload"
    );
    let msg = read_frame(&mut framed(payload.as_bytes()).as_slice()).expect("well framed");
    let err = decode_request(&msg).expect_err("oversized depth refused");
    assert!(
        err.message.contains("exceeds the maximum depth"),
        "{}",
        err.message
    );
}

/// `s` as it appears inside a rendered JSON string.
fn json_escape(s: &str) -> String {
    let quoted = Json::Str(s.to_string()).render();
    quoted[1..quoted.len() - 1].to_string()
}

/// A frame around `payload` with a correct header and checksum: what a
/// hostile client, rather than a noisy wire, would send.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut f = MAGIC.to_vec();
    f.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    f.extend_from_slice(&fnv64(payload).to_be_bytes());
    f.extend_from_slice(payload);
    f
}

fn submit() -> Json {
    encode_request(&Request::Submit(JobSpec::Campaign {
        blocks: blocks(),
        options: SubmitOptions::default(),
    }))
    .expect("submission encodes")
}

#[test]
fn mutated_submit_frames_fail_typed() {
    let mut frame = Vec::new();
    write_frame(&mut frame, &submit()).expect("frame writes");
    let mut rng = SplitMix64::new(0x6672_616d);
    let mut frame_errors = 0;
    for case in 0..300 {
        let mut bytes = frame.clone();
        mutate(&mut rng, &mut bytes);
        match no_panic(case, &bytes, || read_frame(&mut bytes.as_slice())) {
            Ok(msg) => {
                let _ = no_panic(case, &bytes, || decode_request(&msg));
            }
            Err(_) => frame_errors += 1,
        }
    }
    assert!(frame_errors > 0);
}

#[test]
fn mutated_submit_payloads_decode_or_fail_typed() {
    let payload = submit().render().into_bytes();
    let mut rng = SplitMix64::new(0x7061_796c);
    let (mut bad_json, mut refused, mut decoded) = (0, 0, 0);
    for case in 0..1500 {
        let mut bytes = payload.clone();
        mutate(&mut rng, &mut bytes);
        let frame = framed(&bytes);
        match no_panic(case, &bytes, || read_frame(&mut frame.as_slice())) {
            Err(FrameError::BadJson(_)) => bad_json += 1,
            Err(e) => panic!("case {case}: a well-framed payload failed framing: {e}"),
            Ok(msg) => match no_panic(case, &bytes, || decode_request(&msg)) {
                Ok(_) => decoded += 1,
                Err(e) => {
                    assert!(!e.message.is_empty());
                    refused += 1;
                }
            },
        }
    }
    // Every layer is reached: broken JSON, refused submissions (bad
    // netlists among them), and harmless edits that still decode.
    assert!(bad_json > 0 && refused > 0 && decoded > 0);
}

// ---------------------------------------------------------------------------
// Hostile block refs against a live daemon
// ---------------------------------------------------------------------------

/// Runs `f` on a thread of its own and fails the test if it takes more
/// than `secs` seconds: a hang is a failure, not a stuck suite.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Ok(v)) => v,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("no answer within {secs} s: the daemon hung"),
    }
}

/// How one submission ended.
#[derive(Debug, PartialEq)]
enum End {
    /// Admitted; its report's `(status, from_cache)` rows.
    Accepted(Vec<(String, bool)>),
    Missing(Vec<ContentKey>),
    Error(RetryClass),
    Rejected,
    /// The daemon closed the connection without an answer (only a torn
    /// frame, which the client then gave up on, may end this way).
    Closed,
}

/// A tiny equivalent block, `y = x + k`.
fn add_block(name: &str, k: u64) -> BlockPair {
    let mut b = ModuleBuilder::new("add_rtl");
    let x = b.input("x", 8);
    let c = b.lit(8, k);
    let y = b.add(x, c);
    b.output("y", y);
    BlockPair {
        name: name.into(),
        slm_source: format!("uint8 f(uint8 x) {{ return x + {k}; }}"),
        slm_entry: "f".into(),
        rtl: b.finish().expect("add rtl builds"),
        spec: EquivSpec::new(1)
            .bind("x", 0, Binding::Slm("x".into()))
            .compare("return", "y", 0),
    }
}

struct Conn {
    r: PipeReader,
    w: Option<PipeWriter>,
    handle: dfv_serve::ConnHandle,
}

fn open(server: &Server) -> Conn {
    let ((r, w), (sr, sw)) = duplex();
    Conn {
        r,
        w: Some(w),
        handle: server.attach(sr, sw),
    }
}

impl Conn {
    /// Sends raw frame bytes and reads how the submission ended: the
    /// first answer, and for an admitted job its report too.
    fn send_bytes(&mut self, bytes: &[u8]) -> End {
        use std::io::Write as _;
        let w = self.w.as_mut().expect("write half open");
        if w.write_all(bytes).is_err() {
            return End::Closed;
        }
        self.read_end()
    }

    /// Sends raw bytes that may be a torn frame, then closes the write
    /// half, so the daemon sees the end of the stream instead of waiting
    /// for the rest of the frame.
    fn send_bytes_and_hang_up(&mut self, bytes: &[u8]) -> End {
        use std::io::Write as _;
        let mut w = self.w.take().expect("write half open");
        let _ = w.write_all(bytes);
        drop(w);
        self.read_end()
    }

    fn read_end(&mut self) -> End {
        let mut job = None;
        loop {
            let Ok(msg) = read_frame(&mut self.r) else {
                // An admitted job of a client that hung up is cancelled,
                // and its report has nobody to go to.
                return match job {
                    Some(_) => End::Accepted(Vec::new()),
                    None => End::Closed,
                };
            };
            match decode_response(msg).expect("the daemon answers in protocol") {
                Response::Accepted { job: id } => job = Some(id),
                Response::Progress { .. } if job.is_some() => {}
                Response::Report { job: id, report } if Some(id) == job => {
                    let rows = report
                        .get("values")
                        .and_then(|v| v.get("blocks"))
                        .and_then(Json::as_arr)
                        .expect("report rows")
                        .iter()
                        .map(|b| {
                            (
                                b.get("status").and_then(Json::as_str).unwrap().to_string(),
                                b.get("from_cache") == Some(&Json::Bool(true)),
                            )
                        })
                        .collect();
                    return End::Accepted(rows);
                }
                Response::MissingRefs { refs } => return End::Missing(refs),
                Response::Error { class, .. } => return End::Error(class),
                Response::Rejected { .. } => return End::Rejected,
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }

    fn send(&mut self, msg: &Json) -> End {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, msg).expect("frame writes");
        self.send_bytes(&bytes)
    }

    fn send_text(&mut self, text: &str) -> End {
        self.send(&dfv_obs::parse_json(text).expect("test JSON parses"))
    }

    /// Closes the client end and waits for the daemon's threads.
    fn close(self) {
        drop((self.r, self.w));
        self.handle.join();
    }
}

fn refs_request(blocks: Vec<WireBlock>) -> Json {
    encode_request(&Request::SubmitRefs {
        blocks,
        options: SubmitOptions::default(),
    })
    .expect("ref request encodes")
}

fn full(block: BlockPair, id: u128) -> WireBlock {
    WireBlock::Full {
        block: Box::new(block),
        ref_id: Some(ContentKey(id)),
    }
}

fn known(name: &str, id: u128) -> WireBlock {
    WireBlock::Known {
        name: name.into(),
        ref_id: ContentKey(id),
    }
}

fn hostile_daemon(tag: &str) -> Server {
    let mut cfg = ServeConfig::new(
        std::env::temp_dir().join(format!("dfv-hostile-{tag}-{}", std::process::id())),
    );
    cfg.executors = 1;
    Server::start(cfg)
}

#[test]
fn hostile_refs_end_typed() {
    within(120, || {
        let server = hostile_daemon("refs");
        let mut c = open(&server);
        let permanent = End::Error(RetryClass::Permanent);

        // Unknown ids, each reported once however often it is named.
        let mut rng = SplitMix64::new(0x7265_6673);
        let stranger = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        assert_eq!(
            c.send(&refs_request(vec![
                known("a", stranger),
                known("b", stranger),
                known("c", 9)
            ])),
            End::Missing(vec![ContentKey(stranger), ContentKey(9)])
        );

        // Malformed `known` and `ref` values.
        let good = refs_request(vec![full(add_block("g", 1), 1)]).render();
        let hex = format!("\"{:032x}\"", 1);
        for bad in [
            "\"abc\"",
            "\"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz\"",
            "17",
            "null",
            "\"\"",
        ] {
            let text = format!(
                r#"{{"type":"submit","job_kind":"campaign","options":{{}},"blocks":[{{"name":"k","known":{bad}}}]}}"#
            );
            assert_eq!(c.send_text(&text), permanent, "known {bad}");
            assert_eq!(
                c.send_text(&good.replace(&hex, bad)),
                permanent,
                "ref {bad}"
            );
        }
        // A `known` block that also carries content.
        let both = good.replace(&format!("\"ref\":{hex}"), &format!("\"known\":{hex}"));
        assert_ne!(both, good);
        assert_eq!(c.send_text(&both), permanent);

        // Register content under ref 1, then name it twice in one plan:
        // two store hits with the same verdict.
        assert_eq!(
            c.send_text(&good),
            End::Accepted(vec![("PASS".into(), false)])
        );
        assert_eq!(
            c.send(&refs_request(vec![known("x", 1), known("y", 1)])),
            End::Accepted(vec![("PASS".into(), true), ("PASS".into(), true)])
        );

        // One ref id on two different contents, across submissions and
        // within one.
        assert_eq!(
            c.send(&refs_request(vec![full(add_block("h", 2), 1)])),
            permanent
        );
        assert_eq!(
            c.send(&refs_request(vec![
                full(add_block("p", 3), 2),
                full(add_block("q", 4), 2)
            ])),
            permanent
        );
        // The conflicts changed nothing: ref 1 still resolves.
        assert_eq!(
            c.send(&refs_request(vec![known("z", 1)])),
            End::Accepted(vec![("PASS".into(), true)])
        );

        // Refs inside a fault sweep.
        for field in ["ref", "known"] {
            let text = format!(
                r#"{{"type":"submit","job_kind":"fault_sweep","seed":1,"options":{{}},"blocks":[
                    {{"name":"s","policy":{{"kind":"exact"}},"expected":[],"actual":[],"{field}":{hex}}}]}}"#
            );
            assert_eq!(c.send_text(&text), permanent, "{field}");
        }
        c.close();

        // Another connection cannot use this one's ref.
        let mut other = open(&server);
        assert_eq!(
            other.send(&refs_request(vec![known("z", 1)])),
            End::Missing(vec![ContentKey(1)])
        );
        other.close();
        server.stop();
    });
}

#[test]
fn mutated_ref_frames_end_typed() {
    within(300, || {
        let server = hostile_daemon("mutated");
        let register = refs_request(vec![full(add_block("r", 7), 0xabc)]);
        let payload = refs_request(vec![
            full(add_block("n", 8), 0xdef),
            known("r2", 0xabc),
            known("r3", 0xabc),
        ])
        .render()
        .into_bytes();
        let mut frame = Vec::new();
        write_frame(
            &mut frame,
            &dfv_obs::parse_json(std::str::from_utf8(&payload).unwrap()).unwrap(),
        )
        .unwrap();
        let mut rng = SplitMix64::new(0x6d75_7472);
        let mut seen = std::collections::BTreeMap::<&str, u32>::new();
        for case in 0..400u64 {
            let mut c = open(&server);
            // Each case starts with ref 0xabc registered and proved.
            assert!(matches!(c.send(&register), End::Accepted(_)));
            // Even cases: a re-checksummed payload, always a whole frame,
            // so every one must be answered. Odd cases: raw frame bytes,
            // where a torn frame may leave nothing to answer.
            let mut bytes = if case % 2 == 0 {
                payload.clone()
            } else {
                frame.clone()
            };
            mutate(&mut rng, &mut bytes);
            let end = if case % 2 == 0 {
                let sent = framed(&bytes);
                no_panic(case, &sent, || c.send_bytes(&sent))
            } else {
                no_panic(case, &bytes, || c.send_bytes_and_hang_up(&bytes))
            };
            let kind = match end {
                End::Accepted(_) => "accepted",
                End::Missing(_) => "missing",
                End::Error(_) => "error",
                End::Rejected => "rejected",
                End::Closed => {
                    assert!(case % 2 == 1, "case {case}: a whole frame went unanswered");
                    "closed"
                }
            };
            *seen.entry(kind).or_default() += 1;
            c.close();
        }
        // Every ending is reached, and the daemon still serves.
        for kind in ["accepted", "missing", "error"] {
            assert!(seen.contains_key(kind), "{kind} never reached: {seen:?}");
        }
        let mut c = open(&server);
        assert!(matches!(c.send(&register), End::Accepted(_)));
        c.close();
        server.stop();
    });
}
