//! The TCP serve plane end to end over loopback: routing between
//! clients, the line bound, idle disconnects, backpressure, the journal
//! a TCP session leaves, wall-clock pacing under traffic, and an exit
//! that leaves no thread or socket behind.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::faultio::MemFs;
use venn_serve::json::{self, Value};
use venn_serve::{
    recover_journal, run_lines, serve, shared_fs, SchedSpec, ServeOpts, ServeSession, SharedFs,
    SyncPolicy,
};
use venn_sim::SimConfig;
use venn_traces::Workload;

const SEED: u64 = 23;
const JOURNAL: &str = "tcp.wal";

/// The tests count this process's threads and time wall-clock pacing,
/// so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn session(fs: SharedFs) -> ServeSession {
    let config = SimConfig {
        population: 500,
        days: 1,
        seed: SEED,
        ..SimConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let workload = Workload::default_scenario(4, &mut rng);
    let spec = SchedSpec::named("venn", SEED);
    ServeSession::with_fs(config, spec, &workload, fs).unwrap()
}

/// A session served on a free loopback port by its own thread, which
/// returns the journal the session wrote (empty without one).
struct Server {
    addr: String,
    handle: JoinHandle<Vec<u8>>,
}

impl Server {
    fn start(opts: ServeOpts) -> Server {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free loopback port")
            .to_string();
        let opts = ServeOpts {
            listen: Some(addr.clone()),
            ..opts
        };
        let handle = std::thread::spawn(move || {
            let fs = shared_fs(MemFs::new());
            let mut s = session(fs.clone());
            serve(&mut s, &opts).expect("serve");
            match &opts.journal {
                Some(path) => fs.borrow_mut().read(path).expect("journal written"),
                None => Vec::new(),
            }
        });
        Server { addr, handle }
    }

    fn connect(&self) -> Conn {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => panic!("serve never listened: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Ends the session with `quit` from a fresh client and returns the
    /// journal.
    fn quit(self) -> Vec<u8> {
        let (_, ack) = self.connect().request(r#"{"cmd":"quit"}"#);
        assert!(ack.contains("\"ok\":true"), "{ack}");
        self.handle.join().expect("serve thread")
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    /// The next line, newline included; `None` at EOF.
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("read") {
            0 => None,
            _ => Some(line),
        }
    }

    /// Sends `line`; returns the frames that arrived before the next
    /// other line, and that line.
    fn request(&mut self, line: &str) -> (Vec<String>, String) {
        self.send(line);
        let mut frames = Vec::new();
        loop {
            let resp = self.line().expect("connection closed before the ack");
            if !resp.starts_with("{\"frame\":") {
                return (frames, resp);
            }
            frames.push(resp);
        }
    }
}

fn vt(line: &str) -> u64 {
    let v = json::parse(line.trim_end()).expect("a JSON line");
    v.get("vt").and_then(Value::as_f64).expect("a vt field") as u64
}

/// Threads of this process named like the calling one. A thread started
/// without a name inherits its creator's, so this counts a test's own
/// thread plus whatever it started and is still running — and not the
/// harness threads of other tests, which come and go on their own.
///
/// A `/proc/self/task` listing taken while other threads exit can come
/// back truncated, so the listing is repeated until it holds the caller's
/// own thread (the id `/proc/thread-self` links to).
fn threads() -> usize {
    let comm = |dir: &std::path::Path| std::fs::read_to_string(dir.join("comm")).ok();
    let me = comm("/proc/thread-self".as_ref());
    let tid = std::fs::read_link("/proc/thread-self").unwrap();
    let tid = tid.file_name().unwrap();
    loop {
        let tasks: Vec<_> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(Result::ok)
            .collect();
        if tasks.iter().any(|t| t.file_name() == tid) {
            return tasks.iter().filter(|t| comm(&t.path()) == me).count();
        }
    }
}

#[test]
fn frames_go_to_every_client_acks_only_to_the_issuer() {
    let _serial = serial();
    let server = Server::start(ServeOpts::default());
    let mut a = server.connect();
    let (_, ack) = a.request(r#"{"cmd":"subscribe","every_ms":1000}"#);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    let mut b = server.connect();
    let (frames, ack) = b.request(r#"{"cmd":"stats"}"#);
    assert!(frames.is_empty() && ack.contains("\"ok\":true"), "{ack}");

    let (frames_a, ack) = a.request(r#"{"cmd":"advance","ms":3000}"#);
    assert_eq!(frames_a.len(), 3);
    assert!(ack.contains("\"events\":"), "{ack}");

    // B saw the same frames and nothing else of A's.
    let (frames_b, ack) = b.request(r#"{"cmd":"query-job","job":1}"#);
    assert_eq!(frames_b, frames_a);
    assert!(ack.contains("\"job\":1,"), "{ack}");
    // And A's next line is its own ack, not B's.
    let (frames, ack) = a.request(r#"{"cmd":"query-job","job":0}"#);
    assert!(frames.is_empty());
    assert!(ack.contains("\"job\":0,"), "{ack}");
    server.quit();
}

#[test]
fn an_over_long_line_is_a_typed_error_and_the_connection_goes_on() {
    let _serial = serial();
    let server = Server::start(ServeOpts {
        max_line_bytes: 64,
        ..ServeOpts::default()
    });
    let mut c = server.connect();
    c.send(&"x".repeat(200));
    let err = c.line().expect("an error line");
    assert!(err.contains("\"code\":\"line-too-long\""), "{err}");
    let (_, ack) = c.request(r#"{"cmd":"stats"}"#);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    server.quit();
}

#[test]
fn an_idle_client_is_disconnected() {
    let _serial = serial();
    let idle = Duration::from_millis(300);
    let server = Server::start(ServeOpts {
        idle_timeout: idle,
        ..ServeOpts::default()
    });
    let mut c = server.connect();
    let connected = Instant::now();
    assert_eq!(c.line(), None, "the server closes an idle connection");
    let waited = connected.elapsed();
    assert!(waited >= idle - Duration::from_millis(50), "{waited:?}");
    assert!(waited < Duration::from_secs(10), "{waited:?}");
    server.quit();
}

/// `quit` seals the journal with one record per accepted command, and
/// replaying it reproduces every line the client received, byte for byte.
#[test]
fn quit_seals_a_journal_that_replays_the_session() {
    let _serial = serial();
    let server = Server::start(ServeOpts {
        journal: Some(JOURNAL.into()),
        journal_sync: SyncPolicy::Always,
        ..ServeOpts::default()
    });
    let mut c = server.connect();
    let script = [
        r#"{"cmd":"subscribe","every_ms":1800000}"#,
        r#"{"cmd":"submit","category":"compute","rounds":2,"demand":20,"task_ms":60000}"#,
        r#"{"cmd":"advance","ms":7200000}"#,
        r#"{"cmd":"withdraw","job":99}"#,
        r#"{"cmd":"query-job","job":4}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"quit"}"#,
    ];
    let (mut received, mut accepted) = (String::new(), 0);
    for line in script {
        let (frames, ack) = c.request(line);
        received.extend(frames);
        if ack.contains("\"ok\":true") {
            accepted += 1;
            received.push_str(&ack);
        } else {
            assert!(ack.contains("\"code\":\"unknown-job\""), "{ack}");
        }
    }
    assert_eq!(accepted, script.len() - 1);
    assert_eq!(c.line(), None, "the session closes every connection");
    let bytes = server.handle.join().expect("serve thread");

    let recovered = recover_journal(&bytes).unwrap();
    assert!(recovered.wal && recovered.sealed && recovered.torn.is_none());
    assert_eq!(recovered.lines.len(), accepted);

    let mut replayed = Vec::new();
    let mut s = session(shared_fs(MemFs::new()));
    run_lines(
        &mut s,
        recovered.lines.into_iter().map(Ok),
        &mut replayed,
        &mut None,
    )
    .unwrap();
    assert_eq!(String::from_utf8(replayed).unwrap(), received);
}

/// A client that keeps reading keeps up with any burst: the queue only
/// trips when the socket refuses bytes.
#[test]
fn a_reading_client_takes_a_burst_larger_than_its_queue() {
    let _serial = serial();
    let server = Server::start(ServeOpts {
        frame_queue_cap: 16,
        ..ServeOpts::default()
    });
    let mut c = server.connect();
    c.request(r#"{"cmd":"subscribe","every_ms":1}"#);
    let (frames, ack) = c.request(r#"{"cmd":"advance","ms":5000}"#);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert_eq!(frames.len(), 5000);
    server.quit();
}

/// A client that stops reading trips once its socket and its queue are
/// both full: what it reads afterwards ends in exactly one
/// `backpressure` line, then EOF.
#[test]
fn a_client_that_never_reads_gets_one_backpressure_line_then_eof() {
    let _serial = serial();
    let server = Server::start(ServeOpts {
        frame_queue_cap: 4,
        ..ServeOpts::default()
    });
    let mut slow = server.connect();
    slow.send(r#"{"cmd":"subscribe","every_ms":1}"#);
    // 50 000 frames: more bytes than loopback socket buffers grow to.
    slow.send(r#"{"cmd":"advance","ms":50000}"#);

    // Another client waits until the burst has been routed.
    let mut probe = server.connect();
    while vt(&probe.request(r#"{"cmd":"stats"}"#).1) < 50_000 {
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut lines = Vec::new();
    while let Some(line) = slow.line() {
        lines.push(line);
    }
    let last = lines.pop().expect("some lines");
    assert!(last.contains("\"code\":\"backpressure\""), "{last}");
    assert!(lines[0].contains("\"every_ms\":1"), "{}", lines[0]);
    assert!(
        lines[1..].iter().all(|l| l.starts_with("{\"frame\":")),
        "only frames between the subscribe ack and the trip"
    );
    assert!(
        lines.len() < 50_000,
        "{} lines before the trip",
        lines.len()
    );
    server.quit();
}

/// A tripped client whose last command the server never read still gets
/// its `backpressure` line, then EOF. The server stops reading a client
/// once it trips, so that command stays unread; closing a socket with
/// unread input sends a reset, which would destroy the lines still in
/// flight. The server's close lingers instead.
#[test]
fn a_tripped_client_with_unread_input_still_gets_its_backpressure_line() {
    let _serial = serial();
    let server = Server::start(ServeOpts {
        frame_queue_cap: 4,
        ..ServeOpts::default()
    });
    let mut slow = server.connect();
    let (_, ack) = slow.request(r#"{"cmd":"subscribe","every_ms":1}"#);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    slow.send(r#"{"cmd":"advance","ms":50000}"#);
    // The first frame shows the server inside the burst, which it routes
    // without reading or accepting: the next line stays unread, and the
    // probe joins only after the burst.
    let first = slow.line().expect("a frame");
    assert!(first.starts_with("{\"frame\":"), "{first}");
    slow.send(r#"{"cmd":"stats"}"#);
    let (frames, ack) = server.connect().request(r#"{"cmd":"stats"}"#);
    assert!(frames.is_empty(), "the probe joined after the burst");
    assert_eq!(vt(&ack), 50_000, "{ack}");

    let mut last = first;
    while let Some(line) = slow.line() {
        last = line;
    }
    assert!(last.contains("\"code\":\"backpressure\""), "{last}");
    server.quit();
}

/// Under `--rate`, virtual time advances every tick even while a client
/// keeps the loop busy.
#[test]
fn pacing_advances_virtual_time_under_steady_traffic() {
    let _serial = serial();
    let rate = 1000.0;
    let server = Server::start(ServeOpts {
        rate: Some(rate),
        ..ServeOpts::default()
    });
    let mut c = server.connect();
    let mut vts = Vec::new();
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(1) {
        vts.push(vt(&c.request(r#"{"cmd":"stats"}"#).1));
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(vts.windows(2).all(|w| w[0] <= w[1]), "{vts:?}");
    let rises = vts.windows(2).filter(|w| w[0] < w[1]).count();
    assert!(rises >= 5, "virtual time moved in {rises} steps: {vts:?}");
    // 800 of the 1 000 wall ms, at `rate` virtual ms each.
    let risen = vts[vts.len() - 1] - vts[0];
    assert!(risen as f64 >= 800.0 * rate, "{risen} virtual ms: {vts:?}");
    server.quit();
}

/// When `serve` returns, its port is free at once and every thread it
/// ran on is gone. It returns as soon as the quitting client's ack is
/// out, not after another 100 ms wait.
#[test]
fn serve_returns_with_its_listener_and_threads_released() {
    let _serial = serial();
    let before = threads();
    let server = Server::start(ServeOpts::default());
    let (_, ack) = server.connect().request(r#"{"cmd":"stats"}"#);
    assert!(ack.contains("\"ok\":true"), "{ack}");
    let addr = server.addr.clone();
    let quit = Instant::now();
    server.quit();
    let took = quit.elapsed();
    assert!(took < Duration::from_millis(80), "quit took {took:?}");
    TcpListener::bind(&addr).expect("the listener is closed when serve returns");
    // A joined thread can linger in /proc for a moment.
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before);
}

/// An idle timeout the clock cannot add to `Instant::now()` is a typed
/// `InvalidInput` error before anything binds, not a panic once the first
/// client connects.
#[test]
fn an_idle_timeout_past_the_clock_is_invalid_input() {
    let _serial = serial();
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free loopback port")
        .to_string();
    let opts = ServeOpts {
        listen: Some(addr.clone()),
        idle_timeout: Duration::MAX,
        ..ServeOpts::default()
    };
    let handle = std::thread::spawn(move || {
        let mut s = session(shared_fs(MemFs::new()));
        serve(&mut s, &opts).map_err(|e| e.kind())
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() && Instant::now() < deadline {
        let _ = TcpStream::connect(&addr);
        std::thread::sleep(Duration::from_millis(5));
    }
    let result = handle.join().expect("serve must not panic");
    assert_eq!(result, Err(std::io::ErrorKind::InvalidInput));
}
