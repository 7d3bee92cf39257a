//! Seeded hostile-input suite for the daemon's decode path: byte
//! mutations of RTL netlist text and of a campaign `Submit` frame must
//! come back from `parse_module`, `read_frame` and `decode_request` as a
//! value or a typed error (`RtlError`, `FrameError`, `ProtoError`), never
//! as a panic.
//!
//! Uses the repo's own `SplitMix64`, so the suite runs offline; the seeds
//! are fixed, making every run reproducible.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dfv_bits::SplitMix64;
use dfv_core::BlockPair;
use dfv_designs::{alu, fir, memsys};
use dfv_obs::Json;
use dfv_rtl::{parse_module, write_module, RtlError, MAX_MEM_DEPTH, MAX_WIDTH};
use dfv_serve::frame::{fnv1a, MAGIC};
use dfv_serve::proto::{decode_request, encode_request};
use dfv_serve::{read_frame, write_frame, FrameError, JobSpec, Request, SubmitOptions};

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
    f.extend_from_slice(&fnv1a(payload).to_be_bytes());
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
