//! End-to-end robustness tests for the `dfv-serve` daemon, run entirely
//! over in-process duplex pipes (no network, no flakiness): overload,
//! disconnect cancellation, wire chaos, drain, panic quarantine,
//! cross-client dedup, block refs, and restart byte-identity.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dfv_core::{BlockPair, ChaosIo, ChaosPlan, ChaosWire, IoHandle, WirePlan, STORE_CAPACITY};
use dfv_designs::{alu, conv, fir, memsys};
use dfv_obs::{kinds, Json};
use dfv_rtl::ModuleBuilder;
use dfv_sec::{Binding, EquivSpec};
use dfv_serve::proto::{decode_request, encode_request};
use dfv_serve::{
    duplex, frame, Admission, Client, JobSpec, Limits, PipeReader, PipeWriter, Request, Response,
    RetryClass, ServeConfig, Server, SubmitOptions, SubmitOutcome, WireBlock, REF_TABLE_CAPACITY,
};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("dfv-serve-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A one-cycle `y = x + delta` block; `bug` makes the RTL add one extra,
/// so the SLM/RTL pair is inequivalent.
fn add_block(name: &str, delta: u64, bug: bool) -> BlockPair {
    let mut b = ModuleBuilder::new("add_rtl");
    let x = b.input("x", 8);
    let k = b.lit(8, if bug { delta + 1 } else { delta });
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

/// A genuinely-equivalent but SAT-expensive block: distributivity,
/// `a * (b + c)` against `a*b + a*c`, over `width`-bit operands. Slow
/// enough (hundreds of ms at 4 bits) that a test can reliably act
/// *while* an executor is inside it.
fn slow_block(name: &str, width: u32) -> BlockPair {
    let out = 2 * width;
    let mut rb = ModuleBuilder::new("rtl_distrib");
    let a = rb.input("a", width);
    let b = rb.input("b", width);
    let c = rb.input("c", width);
    let (aw, bw, cw) = (rb.zext(a, out), rb.zext(b, out), rb.zext(c, out));
    let ab = rb.mul(aw, bw);
    let ac = rb.mul(aw, cw);
    let y = rb.add(ab, ac);
    rb.output("y", y);
    BlockPair {
        name: name.into(),
        slm_source: format!(
            "uint<{out}> distrib(uint<{width}> a, uint<{width}> b, uint<{width}> c) \
             {{ return (uint<{out}>)a * ((uint<{out}>)b + (uint<{out}>)c); }}"
        ),
        slm_entry: "distrib".into(),
        rtl: rb.finish().unwrap(),
        spec: EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("return", "y", 0),
    }
}

fn campaign(blocks: Vec<BlockPair>, journal: Option<&str>) -> JobSpec {
    JobSpec::Campaign {
        blocks,
        options: SubmitOptions {
            workers: Some(2),
            deadline_ms: None,
            journal: journal.map(String::from),
        },
    }
}

fn sweep(seed: u64) -> JobSpec {
    JobSpec::FaultSweep {
        seed,
        blocks: vec![],
        options: SubmitOptions::default(),
    }
}

/// Connects a new client to the server over an in-process duplex pipe.
fn connect(server: &Server) -> (Client<PipeReader, PipeWriter>, dfv_serve::ConnHandle) {
    let ((cr, cw), (sr, sw)) = duplex();
    let handle = server.attach(sr, sw);
    (Client::new(cr, cw), handle)
}

/// Polls the server's counters directly until `pred` holds (bounded).
fn wait_for(server: &Server, what: &str, pred: impl Fn() -> bool) {
    wait_for_within(server, Duration::from_secs(10), what, pred);
}

/// [`wait_for`] with an explicit budget, for tests that must sit out a
/// deliberately slow SAT proof.
fn wait_for_within(server: &Server, budget: Duration, what: &str, pred: impl Fn() -> bool) {
    let deadline = Instant::now() + budget;
    while !pred() {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; counters: {:?}",
            server.counters()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Per-block `(name, status, from_cache)` rows from a canonical report.
fn block_rows(report: &Json) -> Vec<(String, String, bool)> {
    report
        .get("values")
        .and_then(|v| v.get("blocks"))
        .and_then(Json::as_arr)
        .expect("report carries blocks")
        .iter()
        .map(|b| {
            (
                b.get("name").and_then(Json::as_str).unwrap().to_string(),
                b.get("status").and_then(Json::as_str).unwrap().to_string(),
                b.get("from_cache") == Some(&Json::Bool(true)),
            )
        })
        .collect()
}

fn counter(report: &Json, name: &str) -> u64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Happy path
// ---------------------------------------------------------------------------

#[test]
fn end_to_end_submit_streams_progress_and_reports() {
    let server = Server::start(ServeConfig::new(temp_dir("e2e")));
    let (mut client, conn) = connect(&server);
    client.ping().unwrap();

    let mut seen = Vec::new();
    let outcome = client
        .submit(
            &campaign(
                vec![add_block("ok", 1, false), add_block("bad", 2, true)],
                None,
            ),
            |block, status| seen.push(format!("{block}:{status}")),
        )
        .unwrap();
    let report = match outcome {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(counter(&report, "campaign.blocks"), 2);
    assert_eq!(counter(&report, "campaign.passed"), 1);
    let rows = block_rows(&report);
    assert_eq!(rows[0].0, "ok");
    assert_eq!(rows[0].1, "PASS");
    assert_eq!(rows[1].1, "FAIL");
    // Progress streamed once per block (completion order may vary).
    let mut names: Vec<&str> = seen.iter().map(|s| s.split(':').next().unwrap()).collect();
    names.sort_unstable();
    assert_eq!(names, ["bad", "ok"]);

    drop(client);
    conn.join();
    server.stop();
}

// ---------------------------------------------------------------------------
// Overload / admission
// ---------------------------------------------------------------------------

#[test]
fn overload_is_refused_with_typed_transient_rejections() {
    let mut cfg = ServeConfig::new(temp_dir("overload"));
    cfg.executors = 0; // accept-only: admitted jobs stay queued
    cfg.limits = Limits {
        total: 2,
        campaigns: 1,
        fault_sweeps: 1,
    };
    let server = Server::start(cfg);
    let (mut client, _conn) = connect(&server);

    // One campaign fits, the second hits the per-class limit.
    assert!(matches!(
        client
            .submit_nowait(&campaign(vec![add_block("a", 1, false)], None))
            .unwrap(),
        Admission::Accepted(_)
    ));
    match client
        .submit_nowait(&campaign(vec![add_block("b", 2, false)], None))
        .unwrap()
    {
        Admission::Rejected { reason, class } => {
            assert_eq!(class, RetryClass::Transient);
            assert!(reason.contains("campaign"), "{reason}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The fault-sweep class has its own budget; then the total cap bites.
    assert!(matches!(
        client.submit_nowait(&sweep(1)).unwrap(),
        Admission::Accepted(_)
    ));
    for i in 0..5 {
        match client.submit_nowait(&sweep(i)).unwrap() {
            Admission::Rejected { class, .. } => assert_eq!(class, RetryClass::Transient),
            other => panic!("round {i}: unexpected {other:?}"),
        }
    }
    // Rejections are dropped on the spot: the queue never grew past its
    // cap, and the counters account for every answer.
    assert_eq!(server.queued(), 2);
    assert_eq!(server.counter(kinds::SERVE_ACCEPTED), 2);
    assert_eq!(server.counter(kinds::SERVE_REJECTED), 6);
    server.stop();
}

// ---------------------------------------------------------------------------
// Cancellation: explicit, by disconnect, by stall
// ---------------------------------------------------------------------------

#[test]
fn cancel_request_trips_a_queued_jobs_latch() {
    let mut cfg = ServeConfig::new(temp_dir("cancel"));
    cfg.executors = 0;
    let server = Server::start(cfg);
    let (mut client, _conn) = connect(&server);

    let job = match client
        .submit_nowait(&campaign(vec![add_block("a", 1, false)], None))
        .unwrap()
    {
        Admission::Accepted(job) => job,
        other => panic!("unexpected {other:?}"),
    };
    client.cancel(job).unwrap();
    assert_eq!(server.counter(kinds::SERVE_CANCELLED), 1);
    // Cancelling twice is idempotent (ack, no double count)...
    client.cancel(job).unwrap();
    assert_eq!(server.counter(kinds::SERVE_CANCELLED), 1);
    // ...and an unknown job is a typed permanent error.
    match client.cancel(9999) {
        Err(dfv_serve::ClientError::Server { class, .. }) => {
            assert_eq!(class, RetryClass::Permanent)
        }
        other => panic!("unexpected {other:?}"),
    }
    server.stop();
}

#[test]
fn client_disconnect_cancels_its_queued_jobs() {
    let mut cfg = ServeConfig::new(temp_dir("disc"));
    cfg.executors = 0;
    let server = Server::start(cfg);
    let (mut client, conn) = connect(&server);

    assert!(matches!(
        client
            .submit_nowait(&campaign(vec![add_block("a", 1, false)], None))
            .unwrap(),
        Admission::Accepted(_)
    ));
    drop(client); // both halves close: the server sees EOF
    conn.join();
    wait_for(&server, "disconnect cancellation", || {
        server.counter(kinds::SERVE_CANCELLED) == 1
    });
    server.stop();
}

#[test]
fn abandoned_job_still_completes_and_the_lost_client_is_counted() {
    let mut cfg = ServeConfig::new(temp_dir("lost"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let (mut client, conn) = connect(&server);

    // Submit, wait until an executor has the job in hand, then vanish.
    // An in-flight job always runs to completion (its cancel latch only
    // stops *future* blocks), and the report it still owes the vanished
    // client is counted lost by whichever thread notices first. The
    // block is deliberately SAT-slow so the drop lands mid-proof, not
    // after the report already reached the (still-open) pipe buffer.
    let spec = campaign(vec![slow_block("slow", 4)], None);
    let ((cr, cw), (sr, sw)) = duplex();
    let conn2 = server.attach(sr, sw);
    let mut doomed = Client::new(cr, cw);
    assert!(matches!(
        doomed.submit_nowait(&spec).unwrap(),
        Admission::Accepted(_)
    ));
    wait_for(&server, "executor pickup", || {
        server.counter(kinds::SERVE_ACCEPTED) == 1 && server.queued() == 0
    });
    drop(doomed); // the client is fully gone: nobody will ever read the report

    wait_for_within(
        &server,
        Duration::from_secs(90),
        "abandoned job completion",
        || {
            server.counter(kinds::SERVE_COMPLETED) == 1
                && server.counter(kinds::SERVE_CLIENT_LOST) >= 1
        },
    );
    conn2.join();
    drop(client.ping()); // first connection still works
    drop(conn);
    server.stop();
}

#[test]
fn stalled_connection_is_cut_loose_and_its_jobs_cancelled() {
    let mut cfg = ServeConfig::new(temp_dir("stall"));
    cfg.executors = 0;
    let server = Server::start(cfg);

    // Server-side reader wrapped in a chaos wire: one frame is 5 reads
    // (magic byte, magic rest, length, checksum, payload), so read #6 —
    // the wait for a second request — times out like a slow-loris peer.
    let ((cr, cw), (sr, sw)) = duplex();
    let wired = ChaosWire::new(sr, WirePlan::none(0).stall_nth_recv(6));
    let conn = server.attach(wired, sw);
    let mut client = Client::new(cr, cw);

    assert!(matches!(
        client
            .submit_nowait(&campaign(vec![add_block("a", 1, false)], None))
            .unwrap(),
        Admission::Accepted(_)
    ));
    wait_for(&server, "stall cancellation", || {
        server.counter(kinds::SERVE_CANCELLED) == 1
    });
    drop(client);
    conn.join();
    server.stop();
}

// ---------------------------------------------------------------------------
// Wire chaos: torn, garbage, bit-flipped frames
// ---------------------------------------------------------------------------

#[test]
fn torn_submission_is_never_admitted() {
    let server = Server::start(ServeConfig::new(temp_dir("torn")));
    let ((cr, cw), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let mut wire = ChaosWire::new(cw, WirePlan::none(0xF00D).torn_nth_send(1));

    let msg = dfv_serve::proto::encode_request(&dfv_serve::Request::Submit(campaign(
        vec![add_block("a", 1, false)],
        None,
    )))
    .unwrap();
    let err = frame::write_frame(&mut wire, &msg).unwrap_err();
    assert!(err.is_disconnect(), "torn send reads as a dead peer: {err}");
    drop(wire);
    drop(cr);
    conn.join();
    // A strict prefix of a frame admits nothing and is not even a "bad
    // frame" — the peer simply died mid-send.
    assert_eq!(server.counter(kinds::SERVE_ACCEPTED), 0);
    assert_eq!(server.counter(kinds::SERVE_BAD_FRAME), 0);
    server.stop();
}

#[test]
fn garbage_and_bitflipped_frames_get_typed_refusals() {
    use std::io::Write as _;
    let server = Server::start(ServeConfig::new(temp_dir("badframe")));

    // Garbage bytes: refused with a permanent error, connection closed.
    let ((mut cr, mut cw), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    cw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let v = frame::read_frame(&mut cr).unwrap();
    match dfv_serve::proto::decode_response(v).unwrap() {
        dfv_serve::Response::Error { class, .. } => {
            assert_eq!(class, RetryClass::Permanent)
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(cw);
    conn.join();
    assert_eq!(server.counter(kinds::SERVE_BAD_FRAME), 1);

    // A bit flipped inside a valid frame's payload: checksum refusal.
    let ((mut cr, mut cw), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let mut bytes = Vec::new();
    frame::write_frame(
        &mut bytes,
        &dfv_serve::proto::encode_request(&dfv_serve::Request::Ping).unwrap(),
    )
    .unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    cw.write_all(&bytes).unwrap();
    match dfv_serve::proto::decode_response(frame::read_frame(&mut cr).unwrap()).unwrap() {
        dfv_serve::Response::Error { message, class } => {
            assert_eq!(class, RetryClass::Permanent);
            assert!(message.contains("checksum"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(cw);
    conn.join();
    assert_eq!(server.counter(kinds::SERVE_BAD_FRAME), 2);
    assert_eq!(server.counter(kinds::SERVE_ACCEPTED), 0);
    server.stop();
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

#[test]
fn drain_finishes_accepted_work_refuses_new_and_exits() {
    let mut cfg = ServeConfig::new(temp_dir("drain"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let (mut submitter, conn_a) = connect(&server);
    let (mut drainer, conn_b) = connect(&server);

    let job = match submitter
        .submit_nowait(&campaign(vec![add_block("a", 1, false)], None))
        .unwrap()
    {
        Admission::Accepted(job) => job,
        other => panic!("unexpected {other:?}"),
    };
    drainer.drain().unwrap();
    // Late submissions are refused, typed, while in-flight work finishes.
    match drainer
        .submit_nowait(&campaign(vec![add_block("late", 3, false)], None))
        .unwrap()
    {
        Admission::Rejected { reason, class } => {
            assert_eq!(class, RetryClass::Transient);
            assert!(reason.contains("drain"), "{reason}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The accepted job's report still arrives.
    let report = submitter.wait_report(job, |_, _| {}).unwrap();
    assert_eq!(counter(&report, "campaign.passed"), 1);
    // And the executor pool exits on its own: graceful shutdown.
    server.wait();
    assert_eq!(server.counter(kinds::SERVE_COMPLETED), 1);
    drop((submitter, drainer));
    conn_a.join();
    conn_b.join();
}

// ---------------------------------------------------------------------------
// Panic quarantine behind the service boundary
// ---------------------------------------------------------------------------

#[test]
fn a_panicking_block_is_quarantined_and_the_daemon_survives() {
    let mut cfg = ServeConfig::new(temp_dir("panic"));
    cfg.executors = 1;
    cfg.io = IoHandle::new(Arc::new(ChaosIo::new(
        ChaosPlan::none(0).panic_on_block("victim"),
    )));
    let server = Server::start(cfg);
    let (mut client, conn) = connect(&server);

    let plan = vec![
        add_block("ok", 1, false),
        add_block("victim", 2, false),
        add_block("also_ok", 3, false),
    ];
    let report = match client
        .submit(&campaign(plan.clone(), None), |_, _| {})
        .unwrap()
    {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(counter(&report, "campaign.crashed"), 1);
    assert_eq!(counter(&report, "campaign.passed"), 2);
    let rows = block_rows(&report);
    assert_eq!(rows[1], ("victim".into(), "CRASH".into(), false));

    // The daemon shrugged it off: same submission, same quarantine,
    // no executor was lost along the way.
    client.ping().unwrap();
    let again = match client.submit(&campaign(plan, None), |_, _| {}).unwrap() {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(counter(&again, "campaign.crashed"), 1);
    assert_eq!(server.counter(kinds::SERVE_COMPLETED), 2);
    drop(client);
    conn.join();
    server.stop();
}

// ---------------------------------------------------------------------------
// Deadlines through the service
// ---------------------------------------------------------------------------

#[test]
fn an_expired_deadline_skips_blocks_with_typed_verdicts() {
    let mut cfg = ServeConfig::new(temp_dir("deadline"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let (mut client, conn) = connect(&server);

    let spec = JobSpec::Campaign {
        blocks: vec![add_block("a", 1, false), add_block("b", 2, false)],
        options: SubmitOptions {
            workers: Some(1),
            deadline_ms: Some(0), // expired on arrival
            journal: None,
        },
    };
    let report = match client.submit(&spec, |_, _| {}).unwrap() {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(counter(&report, "campaign.deadline_skipped"), 2);
    assert_eq!(counter(&report, "campaign.passed"), 0);
    drop(client);
    conn.join();
    server.stop();
}

// ---------------------------------------------------------------------------
// Cross-client dedup
// ---------------------------------------------------------------------------

#[test]
fn identical_plans_from_two_clients_share_verdicts() {
    let mut cfg = ServeConfig::new(temp_dir("dedup"));
    cfg.executors = 1; // sequential: the second job sees the store warm
    let server = Server::start(cfg);
    let (mut alice, conn_a) = connect(&server);
    let (mut bob, conn_b) = connect(&server);

    let plan = || vec![add_block("x", 1, false), add_block("y", 2, true)];
    let first = match alice.submit(&campaign(plan(), None), |_, _| {}).unwrap() {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    let second = match bob.submit(&campaign(plan(), None), |_, _| {}).unwrap() {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    let first_rows = block_rows(&first);
    let second_rows = block_rows(&second);
    assert!(first_rows.iter().all(|(_, _, cached)| !cached));
    // Bob paid for nothing: both verdicts came from the shared store,
    // and they match Alice's exactly.
    assert!(second_rows.iter().all(|(_, _, cached)| *cached));
    for (a, b) in first_rows.iter().zip(&second_rows) {
        assert_eq!((&a.0, &a.1), (&b.0, &b.1));
    }
    assert_eq!(counter(&second, "campaign.cache_hits"), 2);
    drop((alice, bob));
    conn_a.join();
    conn_b.join();
    server.stop();
}

// ---------------------------------------------------------------------------
// Restart recovery: resubmission after a crash is byte-identical
// ---------------------------------------------------------------------------

#[test]
fn journal_resume_across_server_incarnations_is_byte_identical() {
    let plan = || {
        vec![
            add_block("a", 1, false),
            add_block("b", 2, true),
            add_block("c", 3, false),
        ]
    };

    // Baseline: an uninterrupted run on a fresh daemon.
    let baseline_server = Server::start(ServeConfig::new(temp_dir("resume-base")));
    let (mut client, conn) = connect(&baseline_server);
    let baseline = match client
        .submit(&campaign(plan(), Some("job.journal")), |_, _| {})
        .unwrap()
    {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    drop(client);
    conn.join();
    baseline_server.stop();

    // "Crashed" daemon: a prior incarnation only got through part of the
    // plan before dying, leaving a journal with block `a` checkpointed.
    let state = temp_dir("resume-crashed");
    let server = Server::start(ServeConfig::new(state.clone()));
    let (mut client, conn) = connect(&server);
    match client
        .submit(
            &campaign(plan()[..1].to_vec(), Some("job.journal")),
            |_, _| {},
        )
        .unwrap()
    {
        SubmitOutcome::Report { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    drop(client);
    conn.join();
    server.stop();

    // Restarted daemon over the same state dir: resubmitting the full
    // plan with the same journal name replays `a` and computes the rest.
    // The canonical report must be byte-identical to the uninterrupted
    // baseline — journal replay outranks the dedup store precisely so
    // this holds.
    let server = Server::start(ServeConfig::new(state));
    let (mut client, conn) = connect(&server);
    let resumed = match client
        .submit(&campaign(plan(), Some("job.journal")), |_, _| {})
        .unwrap()
    {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(resumed.render(), baseline.render());
    drop(client);
    conn.join();
    server.stop();
}

#[test]
fn a_planted_journal_verdict_never_reaches_another_client() {
    // A journal record is matched by block name and the unkeyed 64-bit
    // content hash alone. Forge one that gives a FAIL block's name and
    // hash a PASS verdict: exactly what a found FNV collision would buy.
    let state = temp_dir("plant");
    let mut cfg = ServeConfig::new(state.clone());
    cfg.executors = 1;
    let server = Server::start(cfg);
    let honest = add_block("n", 1, false);
    let buggy = add_block("n", 1, true);
    let (mut mallory, conn_m) = connect(&server);
    let plain = report_of(
        mallory
            .submit(
                &campaign(vec![honest.clone()], Some("plant.journal")),
                |_, _| {},
            )
            .unwrap(),
    );
    assert_eq!(block_rows(&plain), [("n".into(), "PASS".into(), false)]);
    let path = state.join("plant.journal");
    let text = std::fs::read_to_string(&path).unwrap();
    let (from, to) = (
        format!("\t{:016x}\t", honest.content_hash()),
        format!("\t{:016x}\t", buggy.content_hash()),
    );
    let forged: String = text
        .lines()
        .map(|line| match line.strip_prefix("entry") {
            Some(rest) => {
                let (payload, _) = rest.rsplit_once('\t').unwrap();
                let payload = payload.replace(&from, &to);
                let payload = payload.strip_prefix('\t').unwrap();
                format!(
                    "entry\t{payload}\t{:016x}\n",
                    dfv_bits::fnv64(payload.as_bytes())
                )
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(forged, text, "the journal names the honest block's hash");
    std::fs::write(&path, forged).unwrap();

    // Resuming that journal replays the forged verdict for the buggy
    // block: the journal is its submitter's own business.
    let resumed = report_of(
        mallory
            .submit(
                &campaign(vec![buggy.clone()], Some("plant.journal")),
                |_, _| {},
            )
            .unwrap(),
    );
    assert_eq!(block_rows(&resumed), [("n".into(), "PASS".into(), false)]);
    drop(mallory);
    conn_m.join();

    // But the verdict was not proved by the daemon, so it never entered
    // the shared store: another client's plain submission of the buggy
    // block is computed, and fails.
    let (mut bob, conn_b) = connect(&server);
    let report = report_of(bob.submit(&campaign(vec![buggy], None), |_, _| {}).unwrap());
    assert_eq!(block_rows(&report), [("n".into(), "FAIL".into(), false)]);
    assert_eq!(counter(&report, "campaign.cache_hits"), 0);
    drop(bob);
    conn_b.join();
    server.stop();
}

// ---------------------------------------------------------------------------
// Block refs: warm resubmits send only what the daemon lacks
// ---------------------------------------------------------------------------

/// A writer that keeps a copy of every byte it passes on, so a test can
/// see exactly which request frames a client sent.
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

/// One half of a connection that a test can move to another daemon:
/// the client on top keeps its state, as over a reconnecting socket.
struct Swap<T>(Arc<Mutex<T>>);

impl<T: Read> Read for Swap<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().read(buf)
    }
}

impl<T: Write> Write for Swap<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().unwrap().flush()
    }
}

type TapClient = Client<Swap<PipeReader>, Tap<Swap<PipeWriter>>>;

/// A client whose connection can be re-attached and whose request bytes
/// are recorded.
struct Tapped {
    client: TapClient,
    r: Arc<Mutex<PipeReader>>,
    w: Arc<Mutex<PipeWriter>>,
    sent: Arc<Mutex<Vec<u8>>>,
    conn: Option<dfv_serve::ConnHandle>,
}

impl Tapped {
    fn connect(server: &Server) -> Tapped {
        let ((cr, cw), (sr, sw)) = duplex();
        let conn = server.attach(sr, sw);
        let (r, w) = (Arc::new(Mutex::new(cr)), Arc::new(Mutex::new(cw)));
        let sent = Arc::new(Mutex::new(Vec::new()));
        let client = Client::new(
            Swap(r.clone()),
            Tap {
                inner: Swap(w.clone()),
                sent: sent.clone(),
            },
        );
        Tapped {
            client,
            r,
            w,
            sent,
            conn: Some(conn),
        }
    }

    /// Moves the connection to `server`, closing the old one.
    fn reattach(&mut self, server: &Server) {
        let ((cr, cw), (sr, sw)) = duplex();
        let conn = server.attach(sr, sw);
        *self.r.lock().unwrap() = cr;
        *self.w.lock().unwrap() = cw;
        self.conn.replace(conn).expect("attached").join();
    }

    /// Submits `spec` and returns its report and the request frames the
    /// client sent for it.
    fn submit(&mut self, spec: &JobSpec) -> (Json, Vec<Sent>) {
        let from = self.sent.lock().unwrap().len();
        let report = match self.client.submit(spec, |_, _| {}).unwrap() {
            SubmitOutcome::Report { report, .. } => report,
            other => panic!("unexpected {other:?}"),
        };
        (report, frames(&self.sent.lock().unwrap()[from..]))
    }

    fn close(mut self) {
        drop(self.client);
        // The pipes live on in the shared halves: close them too.
        let ((cr, cw), _) = duplex();
        *self.r.lock().unwrap() = cr;
        *self.w.lock().unwrap() = cw;
        self.conn.take().expect("attached").join();
    }
}

/// One recorded request frame: its size on the wire and its request.
struct Sent {
    bytes: usize,
    request: Request,
}

fn frames(mut bytes: &[u8]) -> Vec<Sent> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let before = bytes.len();
        let msg = frame::read_frame(&mut bytes).expect("the client sends whole frames");
        out.push(Sent {
            bytes: before - bytes.len(),
            request: decode_request(&msg).expect("the client sends valid requests"),
        });
    }
    out
}

/// How many blocks of a recorded request went as `known` refs, and how
/// many in full. A plan delta's unchanged slots count as refs.
fn known_and_full(req: &Request) -> (usize, usize) {
    match req {
        Request::SubmitRefs { blocks, .. } => {
            let known = blocks
                .iter()
                .filter(|b| matches!(b, WireBlock::Known { .. }))
                .count();
            (known, blocks.len() - known)
        }
        Request::SubmitDelta { len, edits, .. } => {
            let full = edits
                .iter()
                .filter(|(_, b)| matches!(b, WireBlock::Full { .. }))
                .count();
            (len - full, full)
        }
        Request::Submit(JobSpec::Campaign { blocks, .. }) => (0, blocks.len()),
        other => panic!("not a campaign: {other:?}"),
    }
}

/// Real design blocks, a few KB of netlist each, plus one inequivalent
/// block so a warm plan carries a FAIL verdict too.
fn design_plan() -> Vec<BlockPair> {
    let table: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ 0x3c);
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
            slm_source: memsys::slm_source(&table),
            slm_entry: "lookup".into(),
            rtl: memsys::rtl(&table),
            spec: memsys::equiv_spec_fast(),
        },
        BlockPair {
            name: "blur".into(),
            slm_source: conv::slm_source().into(),
            slm_entry: "blur".into(),
            rtl: conv::rtl(),
            spec: conv::equiv_spec(),
        },
        add_block("bad", 5, true),
    ]
}

fn report_of(outcome: SubmitOutcome) -> Json {
    match outcome {
        SubmitOutcome::Report { report, .. } => report,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn warm_resubmit_over_refs_matches_a_full_submission_byte_for_byte() {
    let mut cfg = ServeConfig::new(temp_dir("refs-warm"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let spec = campaign(design_plan(), None);
    let n = design_plan().len();

    let mut alice = Tapped::connect(&server);
    let (cold, sent) = alice.submit(&spec);
    assert_eq!(sent.len(), 1);
    assert_eq!(
        known_and_full(&sent[0].request),
        (0, n),
        "a cold plan goes in full"
    );
    let full_bytes = sent[0].bytes;
    assert!(block_rows(&cold).iter().all(|(_, _, cached)| !cached));
    assert_eq!(block_rows(&cold)[4].1, "FAIL");

    // The same plan again on the same connection: every block is a ref.
    let (warm, sent) = alice.submit(&spec);
    assert_eq!(sent.len(), 1, "no miss, no resend");
    assert_eq!(known_and_full(&sent[0].request), (n, 0));
    assert!(
        sent[0].bytes * 20 < full_bytes,
        "ref frame {} B vs full frame {full_bytes} B",
        sent[0].bytes
    );
    assert_eq!(server.counter(kinds::SERVE_REFS_RESOLVED), n as u64);
    assert_eq!(server.counter(kinds::SERVE_REFS_MISSED), 0);

    // A fresh client sends the plan in full and hits the store: its
    // canonical report is the warm one, byte for byte.
    let (mut bob, conn_b) = connect(&server);
    let fresh = report_of(bob.submit(&spec, |_, _| {}).unwrap());
    assert_eq!(warm.render(), fresh.render());
    assert!(block_rows(&warm).iter().all(|(_, _, cached)| *cached));
    for (w, c) in block_rows(&warm).iter().zip(block_rows(&cold)) {
        assert_eq!((&w.0, &w.1), (&c.0, &c.1));
    }
    drop(bob);
    conn_b.join();
    alice.close();
    server.stop();
}

/// A reader that keeps a copy of every byte it hands on, so a test can
/// see exactly which frames the daemon sent.
struct TapRead<R> {
    inner: R,
    seen: Arc<Mutex<Vec<u8>>>,
}

impl<R: Read> Read for TapRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.lock().unwrap().extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

#[test]
fn a_report_frame_carries_the_campaigns_canonical_json_byte_for_byte() {
    let server = Server::start(ServeConfig::new(temp_dir("wire-report")));
    let ((cr, cw), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let r = TapRead {
        inner: cr,
        seen: seen.clone(),
    };
    let mut client = Client::new(r, cw);
    let plan = design_plan();
    let SubmitOutcome::Report { job, .. } = client
        .submit(&campaign(plan.clone(), None), |_, _| {})
        .unwrap()
    else {
        panic!("the campaign runs");
    };
    // The report is the last frame the daemon sent.
    let bytes = seen.lock().unwrap().clone();
    let mut rest = &bytes[..];
    let mut last = &bytes[..0];
    while !rest.is_empty() {
        let len = u32::from_be_bytes(rest[4..8].try_into().unwrap()) as usize;
        last = &rest[16..16 + len];
        rest = &rest[16 + len..];
    }
    let canonical = dfv_core::Campaign::new()
        .run(&dfv_core::VerificationPlan { blocks: plan })
        .to_run_report()
        .canonical_json();
    assert_eq!(
        std::str::from_utf8(last).unwrap(),
        format!(r#"{{"type":"report","job":{job},"report":{canonical}}}"#)
    );
    drop(client);
    conn.join();
    server.stop();
}

#[test]
fn another_clients_ref_ids_never_resolve() {
    let mut cfg = ServeConfig::new(temp_dir("refs-foreign"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let spec = campaign(design_plan(), None);
    let mut alice = Tapped::connect(&server);
    let (cold, sent_cold) = alice.submit(&spec);
    let (_, sent) = alice.submit(&spec);
    // Alice's warm request is a delta on her last plan; the same plan as
    // refs names her ids from the cold request.
    assert!(matches!(sent[0].request, Request::SubmitDelta { .. }));
    let Request::SubmitRefs { blocks, options } = &sent_cold[0].request else {
        panic!("a cold plan goes with refs");
    };
    let as_refs = Request::SubmitRefs {
        blocks: blocks
            .iter()
            .map(|b| match b {
                WireBlock::Full {
                    block,
                    ref_id: Some(ref_id),
                } => WireBlock::Known {
                    name: block.name.clone(),
                    ref_id: *ref_id,
                },
                other => panic!("a cold block goes in full with its id: {other:?}"),
            })
            .collect(),
        options: options.clone(),
    };

    // Bob replays both on his connection: the delta finds no base there,
    // and none of the refs resolves.
    let ((mut br, mut bw), (sr, sw)) = duplex();
    let conn_b = server.attach(sr, sw);
    let mut replay = |req: &Request| {
        frame::write_frame(&mut bw, &encode_request(req).unwrap()).unwrap();
        let answer =
            dfv_serve::proto::decode_response(frame::read_frame(&mut br).unwrap()).unwrap();
        let Response::MissingRefs { refs } = answer else {
            panic!("foreign refs must not resolve, got {answer:?}");
        };
        refs
    };
    assert_eq!(replay(&sent[0].request), []);
    assert_eq!(server.counter(kinds::SERVE_DELTA_STALE), 1);
    let refs = replay(&as_refs);
    assert_eq!(refs.len(), design_plan().len());
    assert_eq!(server.counter(kinds::SERVE_REFS_MISSED), refs.len() as u64);

    // Bob then submits the plan himself, in full, and gets the verdicts
    // Alice's proofs left in the store.
    let mut bob = Client::new(br, bw);
    let report = report_of(bob.submit(&spec, |_, _| {}).unwrap());
    for (b, a) in block_rows(&report).iter().zip(block_rows(&cold)) {
        assert_eq!((&b.0, &b.1, b.2), (&a.0, &a.1, true));
    }
    drop(bob);
    conn_b.join();
    alice.close();
    server.stop();
}

#[test]
fn a_restarted_daemon_costs_the_client_one_extra_round_trip() {
    let spec = campaign(design_plan(), None);
    let n = design_plan().len();
    let first = Server::start(ServeConfig::new(temp_dir("refs-restart-1")));
    let mut client = Tapped::connect(&first);
    let (cold, _) = client.submit(&spec);
    let (_, sent) = client.submit(&spec);
    assert_eq!(known_and_full(&sent[0].request), (n, 0));

    // The daemon restarts with an empty store; the client reconnects
    // with its ref table intact.
    let second = Server::start(ServeConfig::new(temp_dir("refs-restart-2")));
    client.reattach(&second);
    first.stop();
    let (report, sent) = client.submit(&spec);
    assert_eq!(sent.len(), 2, "one miss, one full resend");
    assert_eq!(known_and_full(&sent[0].request), (n, 0));
    assert_eq!(known_and_full(&sent[1].request), (0, n));
    // The client's plan delta names a base the new daemon never saw: an
    // empty miss, so the resend goes in full at once.
    assert!(matches!(sent[0].request, Request::SubmitDelta { .. }));
    assert_eq!(second.counter(kinds::SERVE_DELTA_STALE), 1);
    assert_eq!(second.counter(kinds::SERVE_REFS_MISSED), 0);
    // Recomputed from scratch: the first daemon's cold report exactly.
    assert_eq!(report.render(), cold.render());
    // And the connection is warm again.
    let (_, sent) = client.submit(&spec);
    assert_eq!(known_and_full(&sent[0].request), (n, 0));
    client.close();
    second.stop();
}

#[test]
fn ref_table_eviction_costs_one_extra_round_trip() {
    let mut cfg = ServeConfig::new(temp_dir("refs-table"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let plan = vec![add_block("x", 1, false), add_block("y", 2, true)];
    let spec = campaign(plan.clone(), None);
    let mut client = Tapped::connect(&server);
    client.submit(&spec);
    let (warm, _) = client.submit(&spec);

    // A flood of never-proved content (its deadline has already passed)
    // registers a table's worth of newer refs on the same connection,
    // pushing the plan's refs out. Its blocks are inconclusive, so the
    // client does not learn them.
    let flood: Vec<BlockPair> = (0..REF_TABLE_CAPACITY)
        .map(|i| BlockPair {
            slm_source: format!("flood {i}"),
            ..add_block(&format!("f{i}"), 1, false)
        })
        .collect();
    let (skipped, _) = client.submit(&JobSpec::Campaign {
        blocks: flood,
        options: SubmitOptions {
            deadline_ms: Some(0),
            ..SubmitOptions::default()
        },
    });
    assert_eq!(
        counter(&skipped, "campaign.deadline_skipped"),
        REF_TABLE_CAPACITY as u64
    );
    assert!(server.counter(kinds::SERVE_REFS_EVICTED) >= plan.len() as u64);

    let (report, sent) = client.submit(&spec);
    assert_eq!(sent.len(), 2, "one miss, one full resend");
    assert_eq!(known_and_full(&sent[1].request), (0, plan.len()));
    // The verdicts were still in the store: the report is the warm one.
    assert_eq!(report.render(), warm.render());
    client.close();
    server.stop();
}

#[test]
fn store_eviction_costs_one_extra_round_trip_and_a_recomputation() {
    let mut cfg = ServeConfig::new(temp_dir("refs-store"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let plan = vec![add_block("x", 1, false), add_block("y", 2, true)];
    let spec = campaign(plan.clone(), None);
    let mut alice = Tapped::connect(&server);
    let (cold, _) = alice.submit(&spec);

    // Another client fills the store with newer conclusive verdicts
    // (cheap ones: sources that do not parse), evicting Alice's.
    let (mut flooder, conn) = connect(&server);
    let flood: Vec<BlockPair> = (0..STORE_CAPACITY)
        .map(|i| BlockPair {
            slm_source: format!("not a program {i}"),
            ..add_block(&format!("e{i}"), 1, false)
        })
        .collect();
    let report = report_of(flooder.submit(&campaign(flood, None), |_, _| {}).unwrap());
    assert_eq!(counter(&report, "campaign.blocks"), STORE_CAPACITY as u64);
    assert!(server.counter(kinds::SERVE_STORE_EVICTED) >= plan.len() as u64);
    drop(flooder);
    conn.join();

    let (report, sent) = alice.submit(&spec);
    assert_eq!(sent.len(), 2, "one miss, one full resend");
    assert_eq!(known_and_full(&sent[0].request), (plan.len(), 0));
    assert_eq!(known_and_full(&sent[1].request), (0, plan.len()));
    // Proved again: the cold report exactly.
    assert_eq!(report.render(), cold.render());
    alice.close();
    server.stop();
}

#[test]
fn a_journaled_submission_always_goes_in_full() {
    let server = Server::start(ServeConfig::new(temp_dir("refs-journal")));
    let spec = campaign(
        vec![add_block("a", 1, false), add_block("b", 2, true)],
        Some("refs.journal"),
    );
    let mut client = Tapped::connect(&server);
    let (first, sent_first) = client.submit(&spec);
    let (second, sent_second) = client.submit(&spec);
    for sent in [&sent_first, &sent_second] {
        assert_eq!(sent.len(), 1);
        assert!(
            matches!(sent[0].request, Request::Submit(JobSpec::Campaign { .. })),
            "a journaled plan is a plain submission"
        );
    }
    assert_eq!(sent_first[0].bytes, sent_second[0].bytes);
    assert_eq!(block_rows(&first), block_rows(&second));
    client.close();
    server.stop();
}

// ---------------------------------------------------------------------------
// Plan deltas and one frame for all store hits
// ---------------------------------------------------------------------------

/// The `type` of every frame in a byte stream.
fn frame_types(mut bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let msg = frame::read_frame(&mut bytes).expect("whole frames");
        out.push(msg.get("type").and_then(Json::as_str).unwrap().to_string());
    }
    out
}

#[test]
fn a_warm_resubmit_sends_one_edit_and_gets_one_stored_frame_never_shed() {
    let mut cfg = ServeConfig::new(temp_dir("delta-stored"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let ((cr, cw), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let (sent, seen) = (
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    );
    let mut client = Client::new(
        TapRead {
            inner: cr,
            seen: seen.clone(),
        },
        Tap {
            inner: cw,
            sent: sent.clone(),
        },
    );
    // More store hits than the outbound queue holds twice over.
    let n = 2 * dfv_serve::OUTBOUND_QUEUE + 1;
    let mut plan: Vec<BlockPair> = (0..n)
        .map(|i| add_block(&format!("b{i}"), i as u64, false))
        .collect();
    let mut submit = |plan: &[BlockPair]| {
        let (from_sent, from_seen) = (sent.lock().unwrap().len(), seen.lock().unwrap().len());
        let mut heard = Vec::new();
        let outcome = client.submit(&campaign(plan.to_vec(), None), |block, status| {
            heard.push((block.to_string(), status.to_string()))
        });
        let report = report_of(outcome.unwrap());
        let requests = frames(&sent.lock().unwrap()[from_sent..]);
        let answers = frame_types(&seen.lock().unwrap()[from_seen..]);
        (report, requests, answers, heard)
    };
    submit(&plan);
    let dropped = server.counter(kinds::SERVE_PROGRESS_DROPPED);

    // One edit: one request naming one slot, one proof, one `Stored`
    // frame for the rest, and the report by reference to the last one.
    plan[7] = add_block("b7", 200, true);
    let (report, requests, answers, mut heard) = submit(&plan);
    assert_eq!(requests.len(), 1);
    match &requests[0].request {
        Request::SubmitDelta { len, edits, .. } => {
            assert_eq!(*len, n);
            assert_eq!(edits.len(), 1);
            assert_eq!(edits[0].0, 7);
        }
        other => panic!("a warm resubmit goes as a delta, not {other:?}"),
    }
    assert_eq!(answers, ["accepted", "stored", "progress", "report_delta"]);
    // Every block reaches the callback exactly once, with its verdict.
    heard.sort();
    let mut want: Vec<(String, String)> = block_rows(&report)
        .into_iter()
        .map(|(name, status, _)| (name, status))
        .collect();
    want.sort();
    assert_eq!(heard, want);
    assert_eq!(heard.len(), n);
    assert_eq!(server.counter(kinds::SERVE_PROGRESS_DROPPED), dropped);
    assert_eq!(counter(&report, "campaign.cache_hits"), n as u64 - 1);
    drop(client);
    conn.join();
    server.stop();
}

#[test]
fn every_plan_reshape_matches_a_fresh_clients_verdicts_and_report() {
    let start = || {
        let mut cfg = ServeConfig::new(temp_dir("delta-reshape"));
        cfg.executors = 1;
        Server::start(cfg)
    };
    // The warm client's daemon, and a twin that sees the same plans from
    // a fresh client each time, sent in full: both stores hold the same
    // verdicts before every submission.
    let (warm_server, fresh_server) = (start(), start());
    let base: Vec<BlockPair> = (0..6)
        .map(|i| add_block(&format!("b{i}"), i, i == 4))
        .collect();
    let with = |f: &dyn Fn(&mut Vec<BlockPair>)| {
        let mut plan = base.clone();
        f(&mut plan);
        plan
    };
    let variants: Vec<(&str, Vec<BlockPair>)> = vec![
        ("cold", base.clone()),
        ("unchanged", base.clone()),
        ("edited", with(&|p| p[0] = add_block("b0", 40, false))),
        ("renamed", with(&|p| p[2].name = "r2".into())),
        ("moved", with(&|p| p.swap(1, 3))),
        (
            "names swapped",
            with(&|p| {
                p[1].name = "b3".into();
                p[3].name = "b1".into();
            }),
        ),
        (
            "inserted",
            with(&|p| p.insert(2, add_block("new", 50, false))),
        ),
        (
            "removed",
            with(&|p| {
                p.remove(2);
            }),
        ),
        ("appended", with(&|p| p.push(add_block("tail", 60, true)))),
        ("back", base.clone()),
    ];
    let mut warm = Tapped::connect(&warm_server);
    let mut last_len = None;
    for (what, plan) in variants {
        let (report, sent) = warm.submit(&campaign(plan.clone(), None));
        let (mut fresh, conn) = connect(&fresh_server);
        let want = report_of(
            fresh
                .submit(&campaign(plan.clone(), None), |_, _| {})
                .unwrap(),
        );
        drop(fresh);
        conn.join();
        assert_eq!(report.render(), want.render(), "{what}");
        // Nothing was evicted, so no form ever misses; a plan of the last
        // plan's length keeps some slot and goes as a delta.
        assert_eq!(sent.len(), 1, "{what}");
        let delta = matches!(sent[0].request, Request::SubmitDelta { .. });
        assert_eq!(delta, last_len == Some(plan.len()), "{what}");
        last_len = Some(plan.len());
    }
    assert_eq!(warm_server.counter(kinds::SERVE_REFS_MISSED), 0);
    assert_eq!(warm_server.counter(kinds::SERVE_DELTA_STALE), 0);
    warm.close();
    warm_server.stop();
    fresh_server.stop();
}

#[test]
fn cancel_after_the_stored_frame_keeps_the_store_hits_and_skips_the_rest() {
    let mut cfg = ServeConfig::new(temp_dir("delta-cancel"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let ((mut r, mut w), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let mut send = |req: &Request| frame::write_frame(&mut w, &encode_request(req).unwrap());
    let mut next =
        || dfv_serve::proto::decode_response(frame::read_frame(&mut r).unwrap()).unwrap();
    let options = SubmitOptions {
        workers: Some(1),
        ..SubmitOptions::default()
    };
    let hits: Vec<BlockPair> = (0..4)
        .map(|i| add_block(&format!("h{i}"), i, false))
        .collect();
    let ids: Vec<dfv_core::ContentKey> = (0..4).map(|i| dfv_core::ContentKey(100 + i)).collect();
    // Prove the hits, registering a ref id for each.
    send(&Request::SubmitRefs {
        blocks: hits
            .iter()
            .zip(&ids)
            .map(|(b, id)| WireBlock::Full {
                block: Box::new(b.clone()),
                ref_id: Some(*id),
            })
            .collect(),
        options: options.clone(),
    })
    .unwrap();
    loop {
        if let Response::Report { .. } = next() {
            break;
        }
    }
    // Resubmit them as refs ahead of four slow proofs.
    let slow: Vec<BlockPair> = (0..4).map(|i| slow_block(&format!("s{i}"), 4)).collect();
    let mut blocks: Vec<WireBlock> = hits
        .iter()
        .zip(&ids)
        .map(|(b, id)| WireBlock::Known {
            name: b.name.clone(),
            ref_id: *id,
        })
        .collect();
    blocks.extend(slow.iter().map(|b| WireBlock::Full {
        block: Box::new(b.clone()),
        ref_id: None,
    }));
    send(&Request::SubmitRefs { blocks, options }).unwrap();
    let Response::Accepted { job } = next() else {
        panic!("admitted");
    };
    // The store hits go out first, in one frame; then the cancel.
    match next() {
        Response::Stored { job: id, blocks } => {
            assert_eq!(id, job);
            let names: Vec<&str> = blocks.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["h0", "h1", "h2", "h3"]);
            assert!(blocks.iter().all(|(_, status)| status == "PASS"));
        }
        other => panic!("the store hits come first, not {other:?}"),
    }
    send(&Request::Cancel { job }).unwrap();
    let report = loop {
        match next() {
            Response::Progress { .. } | Response::Cancelled { .. } => {}
            Response::Report { job: id, report } if id == job => break report,
            other => panic!("unexpected {other:?}"),
        }
    };
    // The store hits stand; the proof in flight finishes; every proof not
    // yet started is skipped as cancelled.
    let rows = block_rows(&report);
    assert_eq!(rows.len(), 8);
    for row in &rows[..4] {
        assert_eq!((row.1.as_str(), row.2), ("PASS", true), "{row:?}");
    }
    let cancelled = counter(&report, "campaign.cancelled");
    assert!((1..=4).contains(&cancelled), "{cancelled} cancelled");
    assert_eq!(counter(&report, "campaign.cache_hits"), 4);
    drop((r, w));
    conn.join();
    server.stop();
}

/// The frames a daemon sent in a byte stream: `(type, frame bytes)`.
fn answer_frames(mut bytes: &[u8]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let before = bytes.len();
        let msg = frame::read_frame(&mut bytes).expect("whole frames");
        let kind = msg.get("type").and_then(Json::as_str).unwrap().to_string();
        out.push((kind, before - bytes.len()));
    }
    out
}

/// A client whose read half records every byte the daemon sent.
type SeenClient = Client<TapRead<PipeReader>, PipeWriter>;

fn connect_seen(server: &Server) -> (SeenClient, Arc<Mutex<Vec<u8>>>, dfv_serve::ConnHandle) {
    let ((cr, cw), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let r = TapRead {
        inner: cr,
        seen: seen.clone(),
    };
    (Client::new(r, cw), seen, conn)
}

#[test]
fn a_steady_warm_answer_is_o_edit_on_the_wire() {
    // The `Stored` and report frames of the nth warm job, each job one
    // new edit with the previous one reverted, as a workload edits.
    let answer_bytes = |n: usize| -> Vec<usize> {
        let mut cfg = ServeConfig::new(temp_dir("answer-bytes"));
        cfg.executors = 1;
        let server = Server::start(cfg);
        let (mut client, seen, conn) = connect_seen(&server);
        let plan: Vec<BlockPair> = (0..n)
            .map(|i| add_block(&format!("b{i}"), i as u64, false))
            .collect();
        let mut bytes = Vec::new();
        for job in 0..5 {
            let mut blocks = plan.clone();
            if job > 0 {
                let slot = [5, 9][job % 2];
                blocks[slot] = add_block(&format!("b{slot}"), 5000 + job as u64, job == 3);
            }
            let from = seen.lock().unwrap().len();
            report_of(client.submit(&campaign(blocks, None), |_, _| {}).unwrap());
            let frames = answer_frames(&seen.lock().unwrap()[from..]);
            bytes.push(
                frames
                    .iter()
                    .filter(|(kind, _)| kind.starts_with("report") || kind == "stored")
                    .map(|(_, b)| b)
                    .sum(),
            );
            if job > 0 {
                let kinds: Vec<&str> = frames.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(kinds, ["accepted", "stored", "progress", "report_delta"]);
            }
        }
        drop(client);
        conn.join();
        server.stop();
        bytes
    };
    let (short, long) = (answer_bytes(128), answer_bytes(1024));
    // The first warm job flips every left-out row to a store hit; from
    // the second on, only the edit and the reverted slot change.
    for (job, (&s, &l)) in short.iter().zip(&long).enumerate().skip(2) {
        assert!(s < 1024, "job {job}: {s} answer bytes on 128 slots");
        // A few more counter digits, nothing per slot.
        assert!(
            l <= s + 16,
            "job {job}: {l} bytes on 1024 slots vs {s} on 128"
        );
    }
    assert!(short[0] > 8 * 1024, "the cold answer is in full: {short:?}");
}

#[test]
fn answers_by_reference_match_the_full_path_in_every_scenario() {
    // Both daemons arm one chaos fail point, on the block name `boom`.
    let start = || {
        let mut cfg = ServeConfig::new(temp_dir("by-ref"));
        cfg.executors = 1;
        cfg.io = IoHandle::chaos(ChaosPlan::none(0).panic_on_block("boom"));
        Server::start(cfg)
    };
    let (warm_server, fresh_server) = (start(), start());
    let base: Vec<BlockPair> = (0..6)
        .map(|i| add_block(&format!("b{i}"), i, i == 4))
        .collect();
    let with = |f: &dyn Fn(&mut Vec<BlockPair>)| {
        let mut plan = base.clone();
        f(&mut plan);
        plan
    };
    let expired = SubmitOptions {
        deadline_ms: Some(0),
        ..SubmitOptions::default()
    };
    let boom = with(&|p| p[2].name = "boom".into());
    let variants: Vec<(&str, Vec<BlockPair>, SubmitOptions)> = vec![
        ("cold", base.clone(), SubmitOptions::default()),
        (
            "edited",
            with(&|p| p[0] = add_block("b0", 40, false)),
            SubmitOptions::default(),
        ),
        ("reverted", base.clone(), SubmitOptions::default()),
        (
            "edited as a known ref",
            with(&|p| p[0] = add_block("b0", 40, false)),
            SubmitOptions::default(),
        ),
        (
            "a FAIL edit",
            with(&|p| p[1] = add_block("b1", 41, true)),
            SubmitOptions::default(),
        ),
        (
            "renamed",
            with(&|p| p[2].name = "r2".into()),
            SubmitOptions::default(),
        ),
        ("moved", with(&|p| p.swap(1, 3)), SubmitOptions::default()),
        (
            "fail point on an edit",
            boom.clone(),
            SubmitOptions::default(),
        ),
        ("fail point left out", boom, SubmitOptions::default()),
        ("deadline 0", base.clone(), expired),
        ("after deadline 0", base.clone(), SubmitOptions::default()),
        (
            "inserted",
            with(&|p| p.insert(2, add_block("new", 50, false))),
            SubmitOptions::default(),
        ),
        ("removed", base.clone(), SubmitOptions::default()),
        ("unchanged", base.clone(), SubmitOptions::default()),
    ];
    let (mut warm, seen, warm_conn) = connect_seen(&warm_server);
    let mut by_ref = 0;
    for (what, plan, options) in variants {
        let spec = JobSpec::Campaign {
            blocks: plan.clone(),
            options: options.clone(),
        };
        let from = seen.lock().unwrap().len();
        let mut heard = Vec::new();
        let report = report_of(
            warm.submit(&spec, |b, s| heard.push((b.to_string(), s.to_string())))
                .unwrap(),
        );
        let kinds = answer_frames(&seen.lock().unwrap()[from..]);
        by_ref += usize::from(kinds.iter().any(|(k, _)| k == "report_delta"));
        // The oracle: a fresh client on the twin daemon, answered in full.
        let (mut fresh, conn) = connect(&fresh_server);
        let mut fresh_heard = Vec::new();
        let want = report_of(
            fresh
                .submit(&spec, |b, s| {
                    fresh_heard.push((b.to_string(), s.to_string()))
                })
                .unwrap(),
        );
        drop(fresh);
        conn.join();
        assert_eq!(report.render(), want.render(), "{what}");
        // Every block reaches the callback once, with its verdict.
        heard.sort();
        fresh_heard.sort();
        assert_eq!(heard, fresh_heard, "{what}");
        assert_eq!(heard.len(), plan.len(), "{what}");
    }
    assert!(by_ref >= 9, "{by_ref} answers by reference");
    drop(warm);
    warm_conn.join();
    warm_server.stop();
    fresh_server.stop();
}

/// A reader that fails every other read with `Interrupted`, as a blocking
/// socket read does when a signal arrives.
struct Interrupting<R> {
    inner: R,
    calls: u64,
}

impl<R: Read> Read for Interrupting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls % 2 == 1 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.inner.read(buf)
    }
}

#[test]
fn an_interrupted_read_is_retried_on_both_ends() {
    let server = Server::start(ServeConfig::new(temp_dir("interrupted")));
    let ((cr, cw), (sr, sw)) = duplex();
    let conn = server.attach(
        Interrupting {
            inner: sr,
            calls: 0,
        },
        sw,
    );
    let mut client = Client::new(
        Interrupting {
            inner: cr,
            calls: 0,
        },
        cw,
    );
    client.ping().unwrap();
    let plan = vec![add_block("a", 1, false), add_block("b", 2, true)];
    let report = report_of(client.submit(&campaign(plan, None), |_, _| {}).unwrap());
    assert_eq!(counter(&report, "campaign.blocks"), 2);
    client.ping().unwrap();
    assert_eq!(server.counter(kinds::SERVE_BAD_FRAME), 0);
    drop(client);
    conn.join();
    server.stop();
}

#[test]
fn cancel_after_a_stored_frame_by_reference_patches_to_a_consistent_report() {
    let mut cfg = ServeConfig::new(temp_dir("by-ref-cancel"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let ((mut r, mut w), (sr, sw)) = duplex();
    let conn = server.attach(sr, sw);
    let mut send = |req: &Request| frame::write_frame(&mut w, &encode_request(req).unwrap());
    let mut next =
        || dfv_serve::proto::decode_response(frame::read_frame(&mut r).unwrap()).unwrap();
    let options = SubmitOptions {
        workers: Some(1),
        ..SubmitOptions::default()
    };
    let full = |b: BlockPair, id: u128| WireBlock::Full {
        block: Box::new(b),
        ref_id: Some(dfv_core::ContentKey(id)),
    };
    // Four hits and four cheap blocks, proved in full: the base.
    let blocks: Vec<WireBlock> = (0..8)
        .map(|i| full(add_block(&format!("h{i}"), i, false), 100 + u128::from(i)))
        .collect();
    send(&Request::SubmitRefs {
        blocks,
        options: options.clone(),
    })
    .unwrap();
    let Response::Accepted { job: base } = next() else {
        panic!("admitted");
    };
    let mut held = loop {
        if let Response::Report { report, .. } = next() {
            break block_rows(&report);
        }
    };
    // A delta keeping the first four and replacing the rest with slow
    // proofs; cancelled once the store pass is out.
    let edits = (4..8)
        .map(|k| (k, full(slow_block(&format!("s{k}"), 4), 200 + k as u128)))
        .collect();
    send(&Request::SubmitDelta {
        base,
        len: 8,
        edits,
        options,
    })
    .unwrap();
    let Response::Accepted { job } = next() else {
        panic!("admitted");
    };
    match next() {
        Response::StoredRef {
            job: id,
            base: b,
            slots,
        } => {
            assert_eq!((id, b), (job, base));
            assert!(slots.is_empty(), "every hit keeps its status: {slots:?}");
        }
        other => panic!("the store pass comes first, by reference, not {other:?}"),
    }
    send(&Request::Cancel { job }).unwrap();
    let (counters, rows) = loop {
        match next() {
            Response::Progress { .. } | Response::Cancelled { .. } => {}
            Response::ReportDelta {
                job: id,
                base: b,
                len,
                counters,
                rows,
            } if id == job => {
                assert_eq!((b, len), (base, 8));
                break (counters, rows);
            }
            other => panic!("unexpected {other:?}"),
        }
    };
    for (slot, row) in &rows {
        let status = row.get("status").and_then(Json::as_str).unwrap();
        let name = row.get("name").and_then(Json::as_str).unwrap();
        held[*slot] = (
            name.into(),
            status.into(),
            row.get("from_cache") == Some(&Json::Bool(true)),
        );
    }
    // The hits stand, now from the store; the counters count the
    // patched rows.
    for row in &held[..4] {
        assert_eq!((row.1.as_str(), row.2), ("PASS", true), "{row:?}");
    }
    let count = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    let inconclusive = held.iter().filter(|r| r.1 == "INCONC").count() as u64;
    assert!((1..=4).contains(&count("campaign.cancelled")));
    assert_eq!(count("campaign.cancelled"), inconclusive);
    assert_eq!(count("campaign.cache_hits"), 4);
    assert_eq!(count("campaign.blocks"), 8);
    drop((r, w));
    conn.join();
    server.stop();
}

#[test]
fn an_answer_by_reference_survives_another_client_reproving_an_evicted_verdict() {
    let mut cfg = ServeConfig::new(temp_dir("by-ref-overwrite"));
    cfg.executors = 1;
    let server = Server::start(cfg);
    let plan = vec![add_block("x", 1, false), add_block("y", 2, true)];
    let spec = campaign(plan.clone(), None);
    let (mut alice, seen, alice_conn) = connect_seen(&server);
    report_of(alice.submit(&spec, |_, _| {}).unwrap());
    report_of(alice.submit(&spec, |_, _| {}).unwrap());

    // A flood evicts Alice's verdicts; then Bob proves the same content
    // again, and the store holds his verdicts under her blocks' keys.
    let (mut flooder, conn) = connect(&server);
    let flood: Vec<BlockPair> = (0..STORE_CAPACITY)
        .map(|i| BlockPair {
            slm_source: format!("not a program {i}"),
            ..add_block(&format!("e{i}"), 1, false)
        })
        .collect();
    report_of(flooder.submit(&campaign(flood, None), |_, _| {}).unwrap());
    drop(flooder);
    conn.join();
    let (mut bob, conn) = connect(&server);
    let proved = report_of(bob.submit(&spec, |_, _| {}).unwrap());
    assert!(block_rows(&proved).iter().all(|(_, _, hit)| !hit));
    drop(bob);
    conn.join();

    // Alice's delta resolves through her refs to Bob's verdicts and is
    // answered by reference: a fresh client's report, byte for byte.
    let from = seen.lock().unwrap().len();
    let report = report_of(alice.submit(&spec, |_, _| {}).unwrap());
    let kinds: Vec<String> = answer_frames(&seen.lock().unwrap()[from..])
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(kinds, ["accepted", "stored", "report_delta"]);
    let (mut fresh, conn) = connect(&server);
    let want = report_of(fresh.submit(&spec, |_, _| {}).unwrap());
    drop(fresh);
    conn.join();
    assert_eq!(report.render(), want.render());
    drop(alice);
    alice_conn.join();
    server.stop();
}
