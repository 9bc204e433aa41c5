//! Drivers that feed a [`ServeSession`] from the outside world.
//!
//! Three input modes, one command path:
//!
//! * **scripted** — lines arrive from stdin (or a replay file) and
//!   virtual time moves only on explicit `advance` commands. Fully
//!   deterministic; this is the mode CI exercises.
//! * **paced** (`--rate R`) — a reader thread feeds stdin lines through
//!   a channel; whenever the channel is quiet the driver materializes
//!   the elapsed wall-clock time as a synthetic `advance` command at
//!   `R` virtual ms per wall ms. Because the synthetic advances go
//!   through [`ServeSession::apply_line`] like any typed command, they
//!   are journaled, and the journal replays deterministically even
//!   though the live session was wall-clock paced.
//! * **TCP** (`--listen ADDR`) — a **multi-client** accept loop. Every
//!   connection gets its own reader thread (bounded line scanner,
//!   per-read timeout, idle disconnect) and its own writer thread
//!   draining a bounded [`OutQueue`]. Commands from all clients
//!   serialize through the single session; acks and errors return to
//!   the issuing connection, streamed metrics frames broadcast to every
//!   connection. A consumer that cannot keep up has its queue replaced
//!   by one final typed `backpressure` error and is disconnected — a
//!   slow subscriber can never stall the session or balloon memory.
//!
//! All modes append accepted commands to the WAL journal (when one is
//! configured; see [`crate::wal`]) and shut down gracefully — on
//! `quit`, end of input, or (paced/TCP modes) SIGTERM: the journal is
//! sealed, a final checkpoint is written when `--checkpoint-dir` is
//! set, and per-client queues drain before the process exits.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::CmdError;
use crate::session::ServeSession;
use crate::wal::{SyncPolicy, WalWriter};

/// Driver configuration, independent of where the world came from.
#[derive(Debug)]
pub struct ServeOpts {
    /// Append accepted commands (canonical form) to this WAL journal.
    pub journal: Option<String>,
    /// When journal appends reach the platter (`--journal-sync`).
    pub journal_sync: SyncPolicy,
    /// Virtual ms per wall-clock ms; `None` = scripted (explicit
    /// `advance` only).
    pub rate: Option<f64>,
    /// Bind address for the multi-client TCP accept loop instead of
    /// stdio.
    pub listen: Option<String>,
    /// Disconnect a TCP client after this long without a byte from it.
    pub idle_timeout: Duration,
    /// Protocol bound on one input line; longer lines are discarded
    /// with a typed `line-too-long` error.
    pub max_line_bytes: usize,
    /// Outbound lines buffered per client before the connection is
    /// dropped with a typed `backpressure` error.
    pub frame_queue_cap: usize,
    /// Write a final checkpoint into this directory on shutdown.
    pub shutdown_checkpoint_dir: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            journal: None,
            journal_sync: SyncPolicy::default(),
            rate: None,
            listen: None,
            idle_timeout: Duration::from_secs(300),
            max_line_bytes: 64 * 1024,
            frame_queue_cap: 1024,
            shutdown_checkpoint_dir: None,
        }
    }
}

/// How often the paced/TCP drivers wake up to convert wall time into
/// virtual time and poll for shutdown when no commands are arriving.
const PACE_TICK: Duration = Duration::from_millis(100);

/// Per-read timeout on TCP client sockets; idle time accumulates in
/// these increments toward [`ServeOpts::idle_timeout`].
const READ_TICK: Duration = Duration::from_millis(200);

/// SIGTERM/SIGINT handling for the paced and TCP loops, without a libc
/// dependency: a raw `signal(2)` binding flips an atomic the driver
/// loops poll every tick. The scripted stdin loop blocks in `read` and
/// cannot poll, so it keeps default signal behavior.
#[cfg(unix)]
mod shutdown_signal {
    use super::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod shutdown_signal {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// A bounded outbound line queue between the session loop and one
/// client's writer thread.
///
/// The session loop never blocks on a slow socket: [`OutQueue::push`]
/// either enqueues or — at capacity — **replaces** the backlog with one
/// final overflow line (a typed `backpressure` error), closes the
/// queue, and reports the client dead. The writer thread drains until
/// the queue closes, then shuts the socket down.
pub struct OutQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    lines: std::collections::VecDeque<String>,
    closing: bool,
    tripped: bool,
}

impl OutQueue {
    /// A fresh open queue.
    pub fn new() -> Arc<Self> {
        Arc::new(OutQueue {
            state: Mutex::new(QueueState {
                lines: std::collections::VecDeque::new(),
                closing: false,
                tripped: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Enqueues `line`, bounded by `cap`. At capacity the whole backlog
    /// is replaced by `overflow_line()` and the queue closes. Returns
    /// `false` when the client should be considered gone (queue closed,
    /// now or previously). Lines are stored newline-terminated, so the
    /// writer sends each in one write.
    pub fn push(&self, cap: usize, line: &str, overflow_line: impl FnOnce() -> String) -> bool {
        let mut s = self.state.lock().unwrap();
        if s.closing {
            return false;
        }
        if s.lines.len() >= cap.max(1) {
            s.lines.clear();
            s.lines.push_back(overflow_line() + "\n");
            s.closing = true;
            s.tripped = true;
            self.ready.notify_all();
            return false;
        }
        s.lines.push_back([line, "\n"].concat());
        self.ready.notify_all();
        true
    }

    /// Closes the queue; the writer drains what remains, then exits.
    pub fn finish(&self) {
        let mut s = self.state.lock().unwrap();
        s.closing = true;
        self.ready.notify_all();
    }

    /// Whether the queue was closed by overflow (vs a normal finish).
    pub fn tripped(&self) -> bool {
        self.state.lock().unwrap().tripped
    }

    /// Blocks for the next line, newline included; `None` once closed
    /// and drained.
    pub fn pop(&self) -> Option<String> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(line) = s.lines.pop_front() {
                return Some(line);
            }
            if s.closing {
                return None;
            }
            s = self.ready.wait(s).unwrap();
        }
    }
}

/// Feeds `lines` through the session, writing every response line to
/// `out` and every accepted command's canonical form to `journal`.
/// Returns when the input ends or the session quits. The scripted and
/// paced drivers bottom out here or in `apply_and_emit`; the TCP
/// driver runs its own multi-client loop over the same session calls.
pub fn run_lines<I>(
    session: &mut ServeSession,
    lines: I,
    out: &mut dyn Write,
    journal: &mut Option<WalWriter>,
) -> io::Result<()>
where
    I: IntoIterator<Item = io::Result<String>>,
{
    for line in lines {
        if apply_and_emit(session, &line?, out, journal)? {
            break;
        }
    }
    out.flush()
}

/// Applies one line and emits its responses/journal entry. Returns
/// `true` when the session quit. A journal append failure is fatal to
/// the loop (the WAL is the authority for replay; continuing past a
/// hole would record a lie) and surfaces as a typed I/O error.
fn apply_and_emit(
    session: &mut ServeSession,
    line: &str,
    out: &mut dyn Write,
    journal: &mut Option<WalWriter>,
) -> io::Result<bool> {
    let outcome = session.apply_line(line);
    for resp in &outcome.responses {
        writeln!(out, "{resp}")?;
    }
    out.flush()?;
    if let (Some(j), Some(entry)) = (journal.as_mut(), &outcome.journal) {
        j.append(entry)
            .map_err(|e| io::Error::other(format!("journal append: {e}")))?;
    }
    Ok(outcome.quit)
}

/// Runs the session against stdin/stdout (or the multi-client TCP loop
/// when configured), scripted or wall-clock paced per `opts`. On any
/// exit path — quit, end of input, SIGTERM — the journal is sealed and,
/// when configured, a final checkpoint is written.
pub fn serve(session: &mut ServeSession, opts: &ServeOpts) -> io::Result<()> {
    let mut journal = match &opts.journal {
        Some(path) => Some(
            WalWriter::create(session.fs(), path, opts.journal_sync)
                .map_err(|e| io::Error::other(format!("journal create: {e}")))?,
        ),
        None => None,
    };
    let result = if let Some(addr) = &opts.listen {
        serve_multi(session, addr, opts, &mut journal)
    } else {
        let stdout = io::stdout();
        let mut out: Box<dyn Write> = Box::new(stdout.lock());
        match opts.rate {
            None => {
                let stdin = io::stdin();
                run_lines(session, stdin.lock().lines(), &mut out, &mut journal)
            }
            Some(rate) => serve_paced(session, rate, &mut out, &mut journal),
        }
    };
    // Graceful epilogue, even when the loop above returned an error:
    // seal what we have and keep the final checkpoint if possible.
    if let Some(j) = journal.as_mut() {
        if let Err(e) = j.seal() {
            eprintln!("vennsim serve: journal seal failed: {e}");
        }
    }
    if let Some(dir) = &opts.shutdown_checkpoint_dir {
        match session.final_checkpoint(dir) {
            Ok(path) => eprintln!("vennsim serve: final checkpoint {path}"),
            Err(e) => eprintln!("vennsim serve: final checkpoint failed: {}", e.msg),
        }
    }
    result
}

/// The wall-clock paced loop: stdin lines interleave with synthetic
/// `advance` commands derived from elapsed wall time. SIGTERM ends the
/// loop at the next tick.
fn serve_paced(
    session: &mut ServeSession,
    rate: f64,
    out: &mut dyn Write,
    journal: &mut Option<WalWriter>,
) -> io::Result<()> {
    shutdown_signal::install();
    let (tx, rx) = mpsc::channel::<io::Result<String>>();
    std::thread::spawn(move || {
        let stdin = io::stdin();
        for line in stdin.lock().lines() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    // Wall time owed but not yet converted to virtual time; advances
    // are whole virtual milliseconds, the remainder carries over.
    let mut last_tick = Instant::now();
    let mut carry_ms = 0.0_f64;
    loop {
        if shutdown_signal::requested() {
            eprintln!("vennsim serve: SIGTERM, shutting down");
            return out.flush();
        }
        match rx.recv_timeout(PACE_TICK) {
            Ok(line) => {
                if apply_and_emit(session, &line?, out, journal)? {
                    return out.flush();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                carry_ms += now.duration_since(last_tick).as_secs_f64() * 1_000.0 * rate;
                last_tick = now;
                let whole = carry_ms.floor();
                if whole >= 1.0 {
                    carry_ms -= whole;
                    let cmd = format!("{{\"cmd\":\"advance\",\"ms\":{}}}", whole as u64);
                    if apply_and_emit(session, &cmd, out, journal)? {
                        return out.flush();
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return out.flush(),
        }
    }
}

/// What the per-connection threads report into the session loop.
enum DriverMsg {
    /// A new accepted connection.
    Conn(u64, TcpStream),
    /// One complete input line from a client.
    Line(u64, String),
    /// A client line exceeded the protocol bound and was discarded.
    TooLong(u64, usize),
    /// A client is gone (EOF, idle timeout, read error).
    Gone(u64, &'static str),
}

/// One connected client as the session loop sees it.
struct Client {
    queue: Arc<OutQueue>,
    writer: std::thread::JoinHandle<()>,
}

/// Pushes one line to a client; on queue overflow the client is
/// disconnected with a typed `backpressure` error. Returns `false`
/// (and removes the client) when it is gone.
fn push_to(clients: &mut BTreeMap<u64, Client>, id: u64, line: &str, cap: usize, vt: u64) -> bool {
    let Some(client) = clients.get(&id) else {
        return false;
    };
    let ok = client.queue.push(cap, line, || {
        CmdError::backpressure(format!(
            "outbound queue exceeded {cap} lines; disconnecting slow consumer"
        ))
        .to_response(vt)
    });
    if !ok {
        let client = clients.remove(&id).expect("client present above");
        let tripped = client.queue.tripped();
        let _ = client.writer.join();
        if tripped {
            eprintln!("vennsim serve: client {id} disconnected (backpressure)");
        }
    }
    ok
}

/// Routes one command's responses: streamed metrics frames broadcast to
/// every client, everything else goes to the issuer (`Some(id)`);
/// synthetic commands have no issuer and drop their acks.
fn route(
    clients: &mut BTreeMap<u64, Client>,
    issuer: Option<u64>,
    responses: &[String],
    cap: usize,
    vt: u64,
) {
    for resp in responses {
        if resp.starts_with("{\"frame\":") {
            for id in clients.keys().copied().collect::<Vec<_>>() {
                push_to(clients, id, resp, cap, vt);
            }
        } else if let Some(id) = issuer {
            push_to(clients, id, resp, cap, vt);
        }
    }
}

/// The multi-client TCP loop. All client commands serialize through the
/// one session; `quit` from any client, SIGTERM, or a journal append
/// failure ends the session for everyone (queues drain first).
fn serve_multi(
    session: &mut ServeSession,
    addr: &str,
    opts: &ServeOpts,
    journal: &mut Option<WalWriter>,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("vennsim serve: listening on {}", listener.local_addr()?);
    shutdown_signal::install();

    let (tx, rx) = mpsc::channel::<DriverMsg>();
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut next_id = 1u64;
            while let Ok((stream, _)) = listener.accept() {
                if tx.send(DriverMsg::Conn(next_id, stream)).is_err() {
                    return;
                }
                next_id += 1;
            }
        });
    }

    let cap = opts.frame_queue_cap;
    let mut clients: BTreeMap<u64, Client> = BTreeMap::new();
    let mut last_tick = Instant::now();
    let mut carry_ms = 0.0_f64;
    let mut result = Ok(());
    loop {
        if shutdown_signal::requested() {
            eprintln!("vennsim serve: SIGTERM, shutting down");
            break;
        }
        match rx.recv_timeout(PACE_TICK) {
            Ok(DriverMsg::Conn(id, stream)) => {
                match spawn_client(id, stream, tx.clone(), opts) {
                    Ok(client) => {
                        eprintln!("vennsim serve: client {id} connected");
                        clients.insert(id, client);
                    }
                    Err(e) => eprintln!("vennsim serve: client {id} setup failed: {e}"),
                };
            }
            Ok(DriverMsg::Line(id, line)) => {
                let outcome = session.apply_line(&line);
                if let (Some(j), Some(entry)) = (journal.as_mut(), &outcome.journal) {
                    if let Err(e) = j.append(entry) {
                        // The WAL is the replay authority; a hole in it
                        // would make every later record a lie. Tell the
                        // issuer, then shut the session down.
                        let err =
                            CmdError::io(format!("journal append: {e}")).to_response(session.vt());
                        push_to(&mut clients, id, &err, cap, session.vt());
                        eprintln!("vennsim serve: journal append failed ({e}), shutting down");
                        result = Err(io::Error::other(format!("journal append: {e}")));
                        break;
                    }
                }
                route(
                    &mut clients,
                    Some(id),
                    &outcome.responses,
                    cap,
                    session.vt(),
                );
                if outcome.quit {
                    eprintln!("vennsim serve: quit from client {id}, shutting down");
                    break;
                }
            }
            Ok(DriverMsg::TooLong(id, len)) => {
                let err = CmdError::line_too_long(format!(
                    "input line of {len}+ bytes exceeds the {}-byte bound; discarded",
                    opts.max_line_bytes
                ))
                .to_response(session.vt());
                push_to(&mut clients, id, &err, cap, session.vt());
            }
            Ok(DriverMsg::Gone(id, reason)) => {
                if let Some(client) = clients.remove(&id) {
                    client.queue.finish();
                    let _ = client.writer.join();
                    eprintln!("vennsim serve: client {id} disconnected ({reason})");
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let Some(rate) = opts.rate else { continue };
                let now = Instant::now();
                carry_ms += now.duration_since(last_tick).as_secs_f64() * 1_000.0 * rate;
                last_tick = now;
                let whole = carry_ms.floor();
                if whole >= 1.0 {
                    carry_ms -= whole;
                    let cmd = format!("{{\"cmd\":\"advance\",\"ms\":{}}}", whole as u64);
                    let outcome = session.apply_line(&cmd);
                    if let (Some(j), Some(entry)) = (journal.as_mut(), &outcome.journal) {
                        if let Err(e) = j.append(entry) {
                            eprintln!("vennsim serve: journal append failed ({e}), shutting down");
                            result = Err(io::Error::other(format!("journal append: {e}")));
                            break;
                        }
                    }
                    route(&mut clients, None, &outcome.responses, cap, session.vt());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain: every surviving client gets its buffered lines, then the
    // sockets close.
    for (_, client) in clients {
        client.queue.finish();
        let _ = client.writer.join();
    }
    result
}

/// Wires up one accepted connection: a reader thread (bounded lines,
/// read timeout, idle disconnect) and a writer thread draining the
/// client's [`OutQueue`].
fn spawn_client(
    id: u64,
    stream: TcpStream,
    tx: mpsc::Sender<DriverMsg>,
    opts: &ServeOpts,
) -> io::Result<Client> {
    let reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(Some(READ_TICK))?;
    let max_line = opts.max_line_bytes;
    let idle_timeout = opts.idle_timeout;
    std::thread::spawn(move || reader_loop(id, reader_stream, tx, max_line, idle_timeout));

    // Responses are small and latency-bound: never wait to coalesce.
    stream.set_nodelay(true)?;
    let queue = OutQueue::new();
    let writer_queue = queue.clone();
    let writer = std::thread::spawn(move || writer_loop(writer_queue, stream));
    Ok(Client { queue, writer })
}

/// Scans raw socket bytes into bounded lines. An over-long line turns
/// into one `TooLong` report and is discarded up to its newline; a
/// quiet socket accumulates idle time and eventually disconnects.
fn reader_loop(
    id: u64,
    mut stream: TcpStream,
    tx: mpsc::Sender<DriverMsg>,
    max_line: usize,
    idle_timeout: Duration,
) {
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    let mut idle = Duration::ZERO;
    let mut overlong = false;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = tx.send(DriverMsg::Gone(id, "eof"));
                return;
            }
            Ok(n) => {
                idle = Duration::ZERO;
                for &b in &buf[..n] {
                    if b == b'\n' {
                        if overlong {
                            overlong = false;
                        } else {
                            let line = String::from_utf8_lossy(&acc).into_owned();
                            if tx.send(DriverMsg::Line(id, line)).is_err() {
                                return;
                            }
                        }
                        acc.clear();
                    } else if overlong {
                        // Discarding the rest of an over-long line.
                    } else if acc.len() >= max_line {
                        overlong = true;
                        let _ = tx.send(DriverMsg::TooLong(id, acc.len() + 1));
                        acc.clear();
                    } else {
                        acc.push(b);
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                idle += READ_TICK;
                if idle >= idle_timeout {
                    let _ = tx.send(DriverMsg::Gone(id, "idle-timeout"));
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(DriverMsg::Gone(id, "read-error"));
                return;
            }
        }
    }
}

/// Drains one client's queue onto its socket, then shuts the socket
/// down. Socket errors just end the drain — the reader side reports the
/// disconnect.
fn writer_loop(queue: Arc<OutQueue>, mut stream: TcpStream) {
    write_lines(&queue, &mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One `write_all` per queued line — a line and its newline in separate
/// segments would stall a default client on Nagle + delayed ACK.
fn write_lines(queue: &OutQueue, out: &mut impl Write) {
    while let Some(line) = queue.pop() {
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the bytes of every `write` call separately.
    struct Segments(Vec<Vec<u8>>);

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_sends_each_line_and_its_newline_in_one_write() {
        let q = OutQueue::new();
        assert!(q.push(8, "{\"ok\":true}", || unreachable!()));
        assert!(q.push(8, "{\"ok\":false}", || unreachable!()));
        q.finish();
        let mut out = Segments(Vec::new());
        write_lines(&q, &mut out);
        assert_eq!(
            out.0,
            [b"{\"ok\":true}\n".to_vec(), b"{\"ok\":false}\n".to_vec()]
        );
    }
}
