//! Serve-plane durability: scripted I/O faults routed through a
//! session's [`SharedFs`] must surface as **typed** protocol errors (or
//! a typed fatal for the journal itself), and the bounded outbound
//! queue must convert overflow into a single backpressure error —
//! never a panic, never silent loss.

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::faultio::{Fault, FaultFs, FaultRule, FioOp, MemFs};
use venn_serve::{
    run_lines, shared_fs, OutQueue, SchedSpec, ServeSession, SharedFs, SyncPolicy, WalWriter,
};
use venn_sim::SimConfig;
use venn_traces::Workload;

const SEED: u64 = 31;

fn session_with(fs: SharedFs) -> ServeSession {
    let config = SimConfig {
        population: 500,
        days: 1,
        seed: SEED,
        ..SimConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let workload = Workload::default_scenario(4, &mut rng);
    let spec = SchedSpec {
        name: "venn".into(),
        epsilon: 0.0,
        tiers: 3,
        seed: SEED,
    };
    ServeSession::with_fs(config, spec, &workload, fs).unwrap()
}

/// The session's checkpoint command retries transient faults; when the
/// fault persists past the retry budget it surfaces as a typed `io`
/// error response — the session stays alive and the next command works.
#[test]
fn persistent_checkpoint_fault_is_a_typed_io_error() {
    let fs = shared_fs(FaultFs::scripted(
        MemFs::new(),
        vec![
            FaultRule::on(FioOp::Write, "ckpt.vsnp", Fault::NoSpace),
            FaultRule::on(FioOp::Write, "ckpt.vsnp", Fault::NoSpace),
            FaultRule::on(FioOp::Write, "ckpt.vsnp", Fault::NoSpace),
            FaultRule::on(FioOp::Write, "ckpt.vsnp", Fault::NoSpace),
        ],
    ));
    let mut s = session_with(fs);
    let out = s.apply_line(r#"{"cmd":"advance","ms":3600000}"#);
    assert!(
        out.responses[0].contains("\"ok\":true"),
        "{:?}",
        out.responses
    );

    let out = s.apply_line(r#"{"cmd":"checkpoint","path":"ckpt.vsnp"}"#);
    assert_eq!(out.responses.len(), 1);
    assert!(
        out.responses[0].contains("\"ok\":false") && out.responses[0].contains("\"code\":\"io\""),
        "persistent ENOSPC must surface as a typed io error: {:?}",
        out.responses
    );
    assert!(
        out.journal.is_none(),
        "a failed checkpoint must not journal"
    );

    // The session survives: the same command now succeeds (faults spent).
    let out = s.apply_line(r#"{"cmd":"checkpoint","path":"ckpt.vsnp"}"#);
    assert!(
        out.responses[0].contains("\"ok\":true"),
        "{:?}",
        out.responses
    );
}

/// A *transient* fault under the retry budget is absorbed: the client
/// sees plain success.
#[test]
fn transient_checkpoint_fault_is_absorbed_by_retry() {
    let fs = shared_fs(FaultFs::scripted(
        MemFs::new(),
        vec![FaultRule::on(FioOp::Write, "ckpt.vsnp", Fault::Io)],
    ));
    let mut s = session_with(fs);
    s.apply_line(r#"{"cmd":"advance","ms":3600000}"#);
    let out = s.apply_line(r#"{"cmd":"checkpoint","path":"ckpt.vsnp"}"#);
    assert!(
        out.responses[0].contains("\"ok\":true"),
        "one transient EIO must be invisible to the client: {:?}",
        out.responses
    );
}

/// Save-workload faults surface the same way — typed, non-fatal.
#[test]
fn save_workload_fault_is_a_typed_io_error() {
    let fs = shared_fs(FaultFs::scripted(
        MemFs::new(),
        vec![FaultRule::on(FioOp::Write, "wl.json", Fault::NoSpace)],
    ));
    let mut s = session_with(fs);
    let out = s.apply_line(r#"{"cmd":"save-workload","path":"wl.json"}"#);
    assert!(
        out.responses[0].contains("\"ok\":false") && out.responses[0].contains("\"code\":\"io\""),
        "{:?}",
        out.responses
    );
}

/// An EIO on journal append is fatal to the drive loop — the WAL is the
/// replay authority; running past a hole would record a lie. The error
/// is a typed `io::Error`, not a panic, and everything already written
/// still recovers.
#[test]
fn journal_append_fault_is_fatal_and_typed() {
    let fs = shared_fs(FaultFs::scripted(
        MemFs::new(),
        vec![FaultRule::after(FioOp::Append, "journal.wal", 1, Fault::Io)],
    ));
    let mut s = session_with(fs.clone());
    let mut journal =
        Some(WalWriter::create(fs.clone(), "journal.wal", SyncPolicy::Always).unwrap());
    let script = [
        r#"{"cmd":"advance","ms":3600000}"#,
        r#"{"cmd":"advance","ms":3600000}"#, // append #2: EIO
        r#"{"cmd":"advance","ms":3600000}"#, // never reached
    ];
    let mut sink = Vec::new();
    let err = run_lines(
        &mut s,
        script.iter().map(|l| Ok(l.to_string())),
        &mut sink,
        &mut journal,
    )
    .expect_err("journal EIO must abort the drive loop");
    assert!(err.to_string().contains("journal append"), "{err}");

    // The first record survived and recovers cleanly.
    let bytes = fs.borrow_mut().read("journal.wal").unwrap();
    let recovered = venn_serve::recover_journal(&bytes).unwrap();
    assert_eq!(recovered.lines.len(), 1, "{:?}", recovered.lines);
    assert!(recovered.lines[0].contains("\"cmd\":\"advance\""));
}

/// The bounded outbound queue: under cap it FIFOs; at cap it replaces
/// the whole backlog with one overflow line, trips, closes, and reports
/// the client gone — exactly the slow-subscriber disconnect contract.
#[test]
fn out_queue_overflow_replaces_backlog_and_closes() {
    let q = OutQueue::new();
    assert!(q.push(3, "a", || unreachable!("no overflow yet")));
    assert!(q.push(3, "b", || unreachable!("no overflow yet")));
    assert!(q.push(3, "c", || unreachable!("no overflow yet")));
    assert!(!q.tripped());

    // Fourth push overflows: backlog replaced, queue closed, caller told
    // the client is gone.
    assert!(!q.push(3, "d", || "backpressure!".to_string()));
    assert!(q.tripped());

    // Further pushes are rejected without invoking the overflow line.
    assert!(!q.push(3, "e", || unreachable!("queue already closed")));

    // The writer drains exactly the overflow notice, then sees EOF.
    assert_eq!(q.pop().as_deref(), Some("backpressure!\n"));
    assert_eq!(q.pop(), None);
}

/// A normally-finished queue drains its backlog in order before EOF.
#[test]
fn out_queue_finish_drains_in_order() {
    let q = OutQueue::new();
    assert!(q.push(8, "one", || unreachable!()));
    assert!(q.push(8, "two", || unreachable!()));
    q.finish();
    assert!(
        !q.push(8, "three", || unreachable!()),
        "closed to new lines"
    );
    assert_eq!(q.pop().as_deref(), Some("one\n"));
    assert_eq!(q.pop().as_deref(), Some("two\n"));
    assert_eq!(q.pop(), None);
    assert!(!q.tripped(), "a normal finish is not an overflow trip");
}
