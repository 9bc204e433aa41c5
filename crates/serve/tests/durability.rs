//! Serve-plane durability: scripted I/O faults routed through a
//! session's [`SharedFs`] must surface as **typed** protocol errors (or
//! a typed fatal for the journal itself), and the bounded outbound
//! queue must convert overflow into a single backpressure error and
//! reach its socket one whole line per write — never a panic, never
//! silent loss, never a torn line.

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
/// still recovers. A command is journaled before it is acknowledged, so
/// the failed command's responses never reach the sink: its last line
/// is the typed `io` error.
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

    // The sink holds the first command's responses, as a session without
    // a journal writes them, then only the error.
    let mut first = Vec::new();
    let lines = script[..1].iter().map(|l| Ok(l.to_string()));
    run_lines(
        &mut session_with(shared_fs(MemFs::new())),
        lines,
        &mut first,
        &mut None,
    )
    .unwrap();
    let sink = String::from_utf8(sink).unwrap();
    let rest = sink
        .strip_prefix(std::str::from_utf8(&first).unwrap())
        .unwrap_or_else(|| panic!("the first command's responses lead the sink: {sink}"));
    assert_eq!(rest.lines().count(), 1, "only the error follows: {rest}");
    assert!(
        rest.contains("\"ok\":false")
            && rest.contains("\"code\":\"io\"")
            && rest.contains("journal append"),
        "the last line is the typed io error: {rest}"
    );

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
    let mut q = OutQueue::new();
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

    // The socket receives exactly the overflow notice, then nothing.
    let mut socket = Vec::new();
    q.write_to(&mut socket).unwrap();
    assert_eq!(socket, b"backpressure!\n");
    q.write_to(&mut socket).unwrap();
    assert_eq!(socket, b"backpressure!\n");
}

/// A test socket: records the bytes of every `write` call separately,
/// and after `budget` bytes refuses more, like a full non-blocking socket.
struct Socket {
    writes: Vec<Vec<u8>>,
    budget: usize,
}

impl Socket {
    fn new(budget: usize) -> Self {
        Socket {
            writes: Vec::new(),
            budget,
        }
    }
}

impl std::io::Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.budget);
        if n == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.budget -= n;
        self.writes.push(buf[..n].to_vec());
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn writer_sends_each_line_and_its_newline_in_one_write() {
    let mut q = OutQueue::new();
    assert!(q.push(8, "{\"ok\":true}", || unreachable!()));
    assert!(q.push(8, "{\"ok\":false}", || unreachable!()));
    q.finish();
    let mut out = Socket::new(usize::MAX);
    q.write_to(&mut out).unwrap();
    assert_eq!(
        out.writes,
        [b"{\"ok\":true}\n".to_vec(), b"{\"ok\":false}\n".to_vec()]
    );
}

/// A socket that takes half a line, then refuses: the next write resumes
/// mid-line, and a trip in between finishes that line before the
/// overflow notice, so the client never reads a torn line.
#[test]
fn out_queue_trip_mid_line_keeps_that_line_whole() {
    let mut q = OutQueue::new();
    assert!(q.push(2, "abcdef", || unreachable!()));
    assert!(q.push(2, "ghi", || unreachable!()));
    let mut socket = Socket::new(3);
    let err = q.write_to(&mut socket).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    assert!(!q.push(2, "jkl", || "backpressure!".to_string()));
    assert!(q.tripped());
    socket.budget = usize::MAX;
    q.write_to(&mut socket).unwrap();
    assert_eq!(socket.writes.concat(), b"abcdef\nbackpressure!\n");
}

/// A normally-finished queue drains its backlog in order before EOF.
#[test]
fn out_queue_finish_drains_in_order() {
    let mut q = OutQueue::new();
    assert!(q.push(8, "one", || unreachable!()));
    assert!(q.push(8, "two", || unreachable!()));
    q.finish();
    assert!(
        !q.push(8, "three", || unreachable!()),
        "closed to new lines"
    );
    let mut socket = Vec::new();
    q.write_to(&mut socket).unwrap();
    assert_eq!(socket, b"one\ntwo\n");
    q.write_to(&mut socket).unwrap();
    assert_eq!(socket, b"one\ntwo\n", "nothing after the backlog");
    assert!(!q.tripped(), "a normal finish is not an overflow trip");
}
