//! End-to-end robustness tests for the `dfv-serve` daemon, run entirely
//! over in-process duplex pipes (no network, no flakiness): overload,
//! disconnect cancellation, wire chaos, drain, panic quarantine,
//! cross-client dedup, and restart byte-identity.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfv_core::{BlockPair, ChaosIo, ChaosPlan, ChaosWire, IoHandle, WirePlan};
use dfv_obs::{kinds, Json};
use dfv_rtl::ModuleBuilder;
use dfv_sec::{Binding, EquivSpec};
use dfv_serve::{
    duplex, frame, Admission, Client, JobSpec, Limits, PipeReader, PipeWriter, RetryClass,
    ServeConfig, Server, SubmitOptions, SubmitOutcome,
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
    match dfv_serve::proto::decode_response(&v).unwrap() {
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
    match dfv_serve::proto::decode_response(&frame::read_frame(&mut cr).unwrap()).unwrap() {
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
