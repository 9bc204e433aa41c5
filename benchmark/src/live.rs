//! The serve plane driven from outside: an in-process
//! [`venn_serve::serve`] listening on a loopback port, and one closed-loop
//! TCP client (the next line is sent only after the previous ack).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use venn_core::{MemFs, RealFs};
use venn_serve::json::{self, Value};
use venn_serve::{serve, shared_fs, SchedSpec, ServeOpts, ServeSession, SyncPolicy};
use venn_sim::{SimConfig, SimResult};
use venn_traces::Workload;

use crate::stats::{median, median_each};

/// What one served session runs over.
#[derive(Clone)]
pub struct LiveSetup {
    pub config: SimConfig,
    pub spec: SchedSpec,
    pub workload: Workload,
    /// WAL path on `RealFs` (`SyncPolicy::Batch`); `None` serves over a
    /// `MemFs` with no journal.
    pub journal: Option<String>,
}

/// The scheduler arm of `kind` as the serve plane names it.
pub fn sched_spec(name: &str, seed: u64) -> SchedSpec {
    SchedSpec {
        name: name.to_string(),
        epsilon: 0.0,
        tiers: 3,
        seed,
    }
}

/// The server side of a session: a thread that owns the
/// [`ServeSession`] (it is not `Send`) and returns the run's result.
pub struct Server {
    handle: JoinHandle<Result<SimResult, String>>,
    addr: String,
}

impl Server {
    /// Waits for the session to end and returns its result.
    pub fn join(self) -> Result<SimResult, String> {
        let result = self
            .handle
            .join()
            .map_err(|_| "serve thread panicked".to_string())?;
        // `serve` leaves its accept thread blocked on the listener; one
        // last connection lets it notice the session is gone and exit.
        let _ = TcpStream::connect(&self.addr);
        set_affinity(ALL_CPUS);
        result
    }
}

/// Asks the kernel to acknowledge the next segments at once.
///
/// The serve plane's writer sends each response as two writes (the line,
/// then the newline) on a socket with Nagle's algorithm on, so the newline
/// waits for the line's ACK — which a closed-loop client that has nothing
/// to send delays by 40 ms. Every command then costs one kernel timer
/// (22.8 commands/s whatever the program does). With quick ACKs the newline
/// costs one extra loopback round trip instead, and the program's own
/// work is what the round trip measures. The flag is not sticky, so it is
/// set again on every request.
fn quick_ack(stream: &TcpStream) {
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let on: i32 = 1;
    // SAFETY: `fd` is the open socket `stream` owns for the whole call,
    // and `value`/`len` describe one live, properly aligned `i32`.
    // A failure (non-Linux kernel) only leaves the ACKs delayed.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// CPU masks for [`set_affinity`]: the first CPU, and all of them.
const ONE_CPU: u64 = 1;
const ALL_CPUS: u64 = u64::MAX;

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the CPUs in `mask` (bit n = CPU n).
fn set_affinity(mask: u64) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: pid 0 is the calling thread, and `mask`/`size` describe one
    // live `u64`. A failure (no such CPU, non-Linux kernel) leaves the
    // affinity as it was.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// The load generator's end of the connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Command lines sent / acknowledged with `"ok":false` or not at all.
    pub sent: u64,
    pub failed: u64,
    /// Streamed `{"frame":...}` lines received.
    pub frames: u64,
    /// `(cmd, start, end)` of every request, kept when tracing.
    pub record: Option<Vec<(String, Instant, Instant)>>,
}

impl Client {
    /// Sends one command line and reads up to its acknowledgment
    /// (subscription frames precede it). Returns the ack and the
    /// send→ack seconds.
    pub fn request(&mut self, line: &str) -> Result<(Value, f64), String> {
        self.sent += 1;
        let start = Instant::now();
        let sent = self
            .writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string());
        quick_ack(&self.writer);
        let ack = sent.and_then(|()| loop {
            let mut resp = String::new();
            match self.reader.read_line(&mut resp) {
                Ok(0) => break Err("connection closed before the ack".to_string()),
                Ok(_) if resp.starts_with("{\"frame\":") => self.frames += 1,
                Ok(_) => break json::parse(resp.trim_end()),
                Err(e) => break Err(e.to_string()),
            }
        });
        let end = Instant::now();
        let ack = ack.inspect_err(|_| self.failed += 1)?;
        if ack.get("ok") != Some(&Value::Bool(true)) {
            self.failed += 1;
            return Err(format!("{line} -> {}", ack.to_json()));
        }
        if let Some(record) = self.record.as_mut() {
            let cmd = json::parse(line)
                .ok()
                .and_then(|v| v.get("cmd").and_then(Value::as_str).map(str::to_string))
                .unwrap_or_default();
            record.push((cmd, start, end));
        }
        Ok((ack, end.duration_since(start).as_secs_f64()))
    }
}

/// Starts a session thread and connects to it. The seconds this takes —
/// session construction, bind, connect — are the workload's set-up time.
///
/// The client, the session and the session's reader and writer threads
/// all run on one CPU for as long as the session lasts. A closed loop has
/// one of the four runnable at a time, so nothing is lost; what is gained
/// is that no hand-off has to wake an idle virtual core. How long that
/// takes, and how warm the core's caches still are, depends on the host's
/// other tenants and changes by the quarter of an hour: unpinned, the same
/// binary served `serve-live` at 13.7 k, 7.5 k and 6.8 k commands/s within
/// one afternoon; pinned, 16.5 k with quartiles a tenth apart.
pub fn start(setup: LiveSetup) -> Result<(Server, Client), String> {
    set_affinity(ONE_CPU);
    // A free loopback port: bind to 0, note the port, release it.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("no free loopback port: {e}"))?
        .port();
    let addr = format!("127.0.0.1:{port}");
    let listen = addr.clone();
    let handle = std::thread::spawn(move || -> Result<SimResult, String> {
        let fs = match setup.journal {
            Some(_) => shared_fs(RealFs),
            None => shared_fs(MemFs::new()),
        };
        let mut session = ServeSession::with_fs(setup.config, setup.spec, &setup.workload, fs)?;
        let opts = ServeOpts {
            journal: setup.journal,
            journal_sync: SyncPolicy::Batch,
            listen: Some(listen),
            ..ServeOpts::default()
        };
        serve(&mut session, &opts).map_err(|e| e.to_string())?;
        Ok(session.into_result())
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(e) if handle.is_finished() || Instant::now() > deadline => {
                let why = match handle.join() {
                    Ok(Err(msg)) => msg,
                    _ => e.to_string(),
                };
                return Err(format!("serve on {addr} did not come up: {why}"));
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let client = Client {
        reader,
        writer: stream,
        sent: 0,
        failed: 0,
        frames: 0,
        record: None,
    };
    Ok((Server { handle, addr }, client))
}

/// Timings of the `[advance, stats, query-job]` cycles of one session,
/// served over TCP or applied in-process.
#[derive(Default)]
pub struct Cycles {
    /// Seconds of every acknowledged cycle command, in script order:
    /// `advance`, `stats`, `query-job`, `advance`, ...
    pub secs: Vec<f64>,
}

impl Cycles {
    /// Sessions that replayed one script as one: every command at its
    /// median across them (see [`median_each`]).
    pub fn typical(sessions: &[&Cycles]) -> Cycles {
        let secs: Vec<&[f64]> = sessions.iter().map(|c| c.secs.as_slice()).collect();
        Cycles {
            secs: median_each(&secs),
        }
    }

    /// Acknowledged cycle commands per second of cycle wall time.
    pub fn cmds_per_s(&self) -> f64 {
        self.secs.len() as f64 / self.secs.iter().sum::<f64>()
    }

    /// Seconds of every `advance`.
    pub fn advances(&self) -> Vec<f64> {
        self.secs.iter().copied().step_by(3).collect()
    }

    /// Median `advance` round trip, microseconds.
    pub fn advance_p50_us(&self) -> f64 {
        median(&self.advances()) * 1e6
    }
}
