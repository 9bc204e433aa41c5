//! Drivers that feed a [`ServeSession`] from the outside world.
//!
//! Three input modes, one command path:
//!
//! * **scripted** — lines arrive from stdin (or a replay file) and
//!   virtual time moves only on explicit `advance` commands. Fully
//!   deterministic; this is the mode CI exercises.
//! * **paced** (`--rate R`) — every `PACE_TICK`, however busy stdin is,
//!   the elapsed wall time becomes a synthetic `advance` of `R` virtual
//!   ms per wall ms. It goes through [`ServeSession::apply_line`] and the
//!   journal like any typed command, so the recording replays
//!   deterministically.
//! * **TCP** (`--listen ADDR`) — any number of clients, their commands
//!   serialized through the one session. Acks and errors return to the
//!   issuer; streamed metrics frames broadcast to every connection. A
//!   client whose socket refuses bytes while its bounded [`OutQueue`] is
//!   full gets the backlog replaced by one typed `backpressure` error
//!   and is disconnected — a slow subscriber can never stall the
//!   session or balloon memory. Mid-session closes linger (write half
//!   shut, input discarded until EOF): a close with unread input resets
//!   the connection and destroys the lines in flight, that error too.
//!
//! Paced and TCP sessions run on the calling thread alone, in one
//! `poll(2)` wait on stdin, or on the listener and every client socket,
//! until the next pace tick or idle deadline, or SIGTERM. A command costs
//! one wake-up into the server and one write back out. A wake-up reads
//! at most `READ_CHUNK` bytes per client, from a different first client
//! each time, so none can starve the others.
//!
//! All modes append accepted commands to the WAL journal (see
//! [`crate::wal`]) and shut down gracefully on `quit`, end of input, or
//! (paced/TCP) SIGTERM: client queues drain for at most the idle
//! timeout, the journal is sealed, and a final checkpoint is written
//! when `--checkpoint-dir` is set.

use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::protocol::CmdError;
use crate::session::ServeSession;
use crate::wal::{SyncPolicy, WalWriter};

use sys::{PollFd, POLLIN, POLLOUT};

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
    /// Bind address for the multi-client TCP loop instead of stdio.
    pub listen: Option<String>,
    /// Disconnect a TCP client after this long without a byte from it
    /// (and give a closing client's queue as long to drain).
    pub idle_timeout: Duration,
    /// Protocol bound on one input line; longer lines are discarded
    /// with a typed `line-too-long` error.
    pub max_line_bytes: usize,
    /// Outbound lines queued per client, past what its socket takes,
    /// before the connection is dropped with a typed `backpressure` error.
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

impl ServeOpts {
    /// Checks what a front end can report as a usage error: the idle
    /// timeout must be a deadline the clock can represent.
    pub fn check(&self) -> Result<(), String> {
        match Instant::now().checked_add(self.idle_timeout) {
            Some(_) => Ok(()),
            None => Err(format!(
                "idle timeout {:?} overflows the clock",
                self.idle_timeout
            )),
        }
    }
}

/// How often the paced driver converts wall time into virtual time, and
/// the longest a wait lasts (a SIGTERM just before it waits this long).
const PACE_TICK: Duration = Duration::from_millis(100);

/// Bytes read from one input per wake-up.
const READ_CHUNK: usize = 4096;

/// SIGTERM, `poll(2)` and unbuffered stdin without a libc dependency;
/// off unix, paced and TCP sessions fail at their first wait and stdin
/// is read through `Stdin`.
mod sys {
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    pub(crate) const POLLIN: i16 = 0x1;
    pub(crate) const POLLOUT: i16 = 0x4;

    static SIGTERM: AtomicBool = AtomicBool::new(false);

    /// One `struct pollfd`: the fd, the events to wait for, the events
    /// that happened.
    #[repr(C)]
    pub(crate) struct PollFd(i32, i16, i16);

    impl PollFd {
        pub(crate) fn ready(&self) -> bool {
            self.2 != 0
        }
    }

    /// From now on SIGTERM sets the flag [`sigterm`] reads instead of
    /// ending the process.
    pub(crate) fn catch_sigterm() {
        #[cfg(unix)]
        {
            extern "C" fn on_sigterm(_sig: i32) {
                SIGTERM.store(true, Ordering::SeqCst);
            }
            // SAFETY: the handler only stores to an atomic, which is
            // async-signal-safe.
            unsafe { signal(15, on_sigterm) };
        }
    }

    pub(crate) fn sigterm() -> bool {
        SIGTERM.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }

    #[cfg(unix)]
    impl PollFd {
        pub(crate) fn new(file: &impl std::os::fd::AsRawFd, events: i16) -> Self {
            PollFd(file.as_raw_fd(), events, 0)
        }
    }

    /// Waits until one of `fds` is ready or `timeout` (rounded up to
    /// whole ms) has passed. A signal ends the wait early with nothing
    /// ready: Linux never restarts `poll`, even under `SA_RESTART`.
    #[cfg(unix)]
    pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ms = i32::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(i32::MAX);
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `repr(C)` `pollfd`s and `nfds` is its length; the kernel
        // writes only their `revents`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
        let err = io::Error::last_os_error();
        if rc >= 0 || err.kind() == io::ErrorKind::Interrupted {
            return Ok(());
        }
        Err(err)
    }

    /// One `read(2)` of stdin; `Stdin` would buffer bytes where `poll`
    /// cannot see them.
    #[cfg(unix)]
    pub(crate) fn read_stdin(buf: &mut [u8]) -> io::Result<usize> {
        use std::os::fd::FromRawFd;
        // SAFETY: fd 0 is the process's standard input for its whole
        // life, and `ManuallyDrop` keeps this `File` from closing it.
        let mut stdin = std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(0) });
        io::Read::read(&mut *stdin, buf)
    }

    #[cfg(not(unix))]
    impl PollFd {
        pub(crate) fn new<T>(_file: &T, events: i16) -> Self {
            PollFd(-1, events, 0)
        }
    }

    #[cfg(not(unix))]
    pub(crate) fn wait(_fds: &mut [PollFd], _timeout: Duration) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }

    #[cfg(not(unix))]
    pub(crate) fn read_stdin(buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut io::stdin(), buf)
    }
}

/// A bounded outbound line queue for one client.
///
/// [`OutQueue::push`] either enqueues or — at capacity — **replaces**
/// the backlog with one final overflow line (a typed `backpressure`
/// error), closes the queue, and reports the client dead.
/// [`OutQueue::write_to`] drains the queue onto a socket as far as the
/// socket takes bytes; the next call resumes where it stopped.
#[derive(Debug, Default)]
pub struct OutQueue {
    lines: VecDeque<String>,
    /// Bytes of the front line already written.
    written: usize,
    closing: bool,
    tripped: bool,
}

impl OutQueue {
    /// A fresh open queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `line`, bounded by `cap`. At capacity the backlog (bar a
    /// line already partly written) gives way to `overflow_line()` and
    /// the queue closes. Returns `false` once the queue is closed, now or
    /// earlier. Lines are stored newline-terminated, one write each.
    pub fn push(&mut self, cap: usize, line: &str, overflow_line: impl FnOnce() -> String) -> bool {
        if self.closing {
            return false;
        }
        if self.lines.len() >= cap.max(1) {
            self.lines.truncate(usize::from(self.written > 0));
            self.lines.push_back(overflow_line() + "\n");
            self.closing = true;
            self.tripped = true;
            return false;
        }
        self.lines.push_back([line, "\n"].concat());
        true
    }

    /// Closes the queue to new lines; what it holds still drains.
    pub fn finish(&mut self) {
        self.closing = true;
    }

    /// Whether the queue was closed by overflow (vs a normal finish).
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Writes queued lines to `out` until the queue is empty or a write
    /// fails, `WouldBlock` from a full non-blocking socket included. One
    /// `write` per line: a line and its newline in separate segments
    /// would stall a default client on Nagle + delayed ACK.
    pub fn write_to(&mut self, out: &mut impl Write) -> io::Result<()> {
        while let Some(line) = self.lines.front() {
            match out.write(&line.as_bytes()[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    if self.written == line.len() {
                        self.lines.pop_front();
                        self.written = 0;
                    }
                }
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Feeds `lines` through the session, writing every response line to
/// `out` and every accepted command's canonical form to `journal`.
/// Returns when the input ends or the session quits. `--replay` feeds
/// a journal through here; the stdin driver bottoms out in
/// `apply_and_emit`, and the TCP driver routes the same session calls
/// to its clients.
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

/// One command, as every driver runs it: applies `line`, appends its
/// canonical form to the journal, and only then hands each response to
/// `emit` (with the virtual time), so no client holds an ack for a
/// command the journal lacks. Returns `true` when the session quit. A
/// journal append failure is fatal to the loop (the WAL is the
/// authority for replay; continuing past a hole would record a lie):
/// `emit` gets the typed `io` error instead of the responses, and the
/// error is returned.
fn step(
    session: &mut ServeSession,
    journal: &mut Option<WalWriter>,
    line: &str,
    mut emit: impl FnMut(&str, u64) -> io::Result<()>,
) -> io::Result<bool> {
    let outcome = session.apply_line(line);
    let vt = session.vt();
    if let (Some(j), Some(entry)) = (journal.as_mut(), &outcome.journal) {
        if let Err(e) = j.append(entry) {
            let err = io::Error::other(format!("journal append: {e}"));
            emit(&CmdError::io(err.to_string()).to_response(vt), vt)?;
            eprintln!("vennsim serve: journal append failed ({e}), shutting down");
            return Err(err);
        }
    }
    for resp in &outcome.responses {
        emit(resp, vt)?;
    }
    Ok(outcome.quit)
}

/// [`step`] onto one output stream, flushed after the command.
fn apply_and_emit(
    session: &mut ServeSession,
    line: &str,
    out: &mut dyn Write,
    journal: &mut Option<WalWriter>,
) -> io::Result<bool> {
    let quit = step(session, journal, line, |resp, _| writeln!(out, "{resp}"));
    out.flush()?;
    quit
}

/// Runs the session against stdin/stdout (or the multi-client TCP loop
/// when configured), scripted or wall-clock paced per `opts`. On any
/// exit path — quit, end of input, SIGTERM — the journal is sealed and,
/// when configured, a final checkpoint is written. Options that
/// [`ServeOpts::check`] rejects are an [`io::ErrorKind::InvalidInput`]
/// error, before any journal or socket is opened.
pub fn serve(session: &mut ServeSession, opts: &ServeOpts) -> io::Result<()> {
    run_session(session, opts, None)
}

/// Replays recovered journal `lines` through the session to stdout
/// (`vennsim serve --replay`), and ends the session as [`serve`] does.
pub fn replay(session: &mut ServeSession, lines: Vec<String>, opts: &ServeOpts) -> io::Result<()> {
    run_session(session, opts, Some(lines))
}

/// One session's life: its journal opened per `opts`, its input from
/// `replay` or the live drivers, then the graceful epilogue — even when
/// the input loop returned an error: seal what the journal holds and
/// keep the final checkpoint if possible.
fn run_session(
    session: &mut ServeSession,
    opts: &ServeOpts,
    replay: Option<Vec<String>>,
) -> io::Result<()> {
    opts.check()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut journal = match &opts.journal {
        Some(path) => Some(
            WalWriter::create(session.fs(), path, opts.journal_sync)
                .map_err(|e| io::Error::other(format!("journal create: {e}")))?,
        ),
        None => None,
    };
    // Stdout is locked by the stdio arms only: the TCP loop writes to
    // sockets, and an in-process caller's other threads may print.
    let result = match (replay, &opts.listen) {
        (Some(lines), _) => {
            let out = &mut io::stdout().lock();
            run_lines(session, lines.into_iter().map(Ok), out, &mut journal)
        }
        (None, Some(addr)) => serve_multi(session, addr, opts, &mut journal),
        (None, None) => {
            let pacer = opts.rate.map(Pacer::new);
            let out = &mut io::stdout().lock();
            serve_stdin(session, pacer, opts.max_line_bytes, out, &mut journal)
        }
    };
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

/// Wall-clock pacing (`--rate`): once a `PACE_TICK` has elapsed, the
/// wall time since the last tick becomes one synthetic `advance`.
struct Pacer {
    /// Virtual ms per wall ms.
    rate: f64,
    last_tick: Instant,
    /// Virtual time owed but not yet advanced; advances are whole
    /// virtual milliseconds, the remainder carries over.
    carry_ms: f64,
}

impl Pacer {
    fn new(rate: f64) -> Self {
        Pacer {
            rate,
            last_tick: Instant::now(),
            carry_ms: 0.0,
        }
    }

    fn next_tick(&self) -> Instant {
        self.last_tick + PACE_TICK
    }

    /// The synthetic `advance` owed at `now`, if a tick has elapsed.
    fn tick(&mut self, now: Instant) -> Option<String> {
        if now < self.next_tick() {
            return None;
        }
        self.carry_ms += now.duration_since(self.last_tick).as_secs_f64() * 1_000.0 * self.rate;
        self.last_tick = now;
        let whole = self.carry_ms.floor();
        self.carry_ms -= whole;
        (whole >= 1.0).then(|| format!("{{\"cmd\":\"advance\",\"ms\":{}}}", whole as u64))
    }
}

/// Splits raw input bytes into lines of at most `max` bytes. An
/// over-long line comes out once, as `None`, and is discarded up to its
/// newline.
#[derive(Default)]
struct LineScanner {
    acc: Vec<u8>,
    overlong: bool,
}

impl LineScanner {
    fn feed(&mut self, bytes: &[u8], max: usize, out: &mut Vec<Option<String>>) {
        for chunk in bytes.split_inclusive(|&b| b == b'\n') {
            let line = chunk.strip_suffix(b"\n");
            let part = line.unwrap_or(chunk);
            if !self.overlong && self.acc.len() + part.len() > max {
                self.overlong = true;
                self.acc.clear();
                out.push(None);
            } else if !self.overlong {
                self.acc.extend_from_slice(part);
            }
            if line.is_some() {
                if !std::mem::take(&mut self.overlong) {
                    out.push(Some(String::from_utf8_lossy(&self.acc).into_owned()));
                }
                self.acc.clear();
            }
        }
    }
}

fn line_too_long(max: usize, vt: u64) -> String {
    let len = max + 1;
    let msg = format!("input line of {len}+ bytes exceeds the {max}-byte bound; discarded");
    CmdError::line_too_long(msg).to_response(vt)
}

/// The stdin loop: scripted (no `pacer`), blocking in `read` until input
/// comes, or wall-clock paced, where SIGTERM ends it within one tick.
/// Both split input through one [`LineScanner`], so a line that is not
/// UTF-8 or exceeds `max_line` gets the same typed error either way.
fn serve_stdin(
    session: &mut ServeSession,
    mut pacer: Option<Pacer>,
    max_line: usize,
    out: &mut dyn Write,
    journal: &mut Option<WalWriter>,
) -> io::Result<()> {
    if pacer.is_some() {
        sys::catch_sigterm();
    }
    let (mut scanner, mut inputs, mut buf) = (LineScanner::default(), Vec::new(), [0; READ_CHUNK]);
    let mut eof = false;
    while !eof && !sys::sigterm() {
        let readable = match &pacer {
            Some(pacer) => {
                let mut fds = [PollFd::new(&io::stdin(), POLLIN)];
                let timeout = pacer.next_tick().saturating_duration_since(Instant::now());
                sys::wait(&mut fds, timeout)?;
                fds[0].ready()
            }
            None => true,
        };
        if readable {
            let n = sys::read_stdin(&mut buf)?;
            eof = n == 0;
            // End of input also ends an unterminated last line.
            let bytes = if eof { &b"\n"[..] } else { &buf[..n] };
            scanner.feed(bytes, max_line, &mut inputs);
        }
        if let Some(pacer) = pacer.as_mut() {
            inputs.extend(pacer.tick(Instant::now()).map(Some));
        }
        for input in inputs.drain(..) {
            let Some(line) = input else {
                writeln!(out, "{}", line_too_long(max_line, session.vt()))?;
                continue;
            };
            if apply_and_emit(session, &line, out, journal)? {
                return out.flush();
            }
        }
    }
    if !eof {
        eprintln!("vennsim serve: SIGTERM, shutting down");
    }
    out.flush()
}

/// One connected TCP client.
struct Client {
    id: u64,
    stream: TcpStream,
    scanner: LineScanner,
    queue: OutQueue,
    /// While the client is read: when it idles out. Once its queue is
    /// closed: when its drain gives up.
    deadline: Instant,
    /// Drained and write half shut: input is discarded until its EOF.
    lingering: bool,
}

impl Client {
    /// Writes what the socket takes of the queue. A socket that fails
    /// for any reason but being full is past draining.
    fn flush(&mut self) {
        let result = self.queue.write_to(&mut self.stream);
        if result.is_err_and(|e| e.kind() != WouldBlock) {
            self.queue = OutQueue::new();
            self.queue.finish();
        }
    }

    /// Stops reading the client; its queue may drain until `deadline`.
    fn close(&mut self, reason: &str, deadline: Instant) {
        self.queue.finish();
        self.deadline = deadline;
        eprintln!("vennsim serve: client {} disconnected ({reason})", self.id);
    }
}

/// The TCP clients in connection order, and where responses go.
struct Clients<'a> {
    list: Vec<Client>,
    opts: &'a ServeOpts,
}

impl Clients<'_> {
    /// Queues one line for client `i` and writes what its socket takes.
    /// The client trips with a typed `backpressure` error only when the
    /// socket refused bytes and `frame_queue_cap` lines already wait.
    fn push(&mut self, i: usize, line: &str, vt: u64) {
        let (cap, c) = (self.opts.frame_queue_cap, &mut self.list[i]);
        if c.queue.closing {
            return;
        }
        let overflow = || {
            let msg = format!("outbound queue exceeded {cap} lines; disconnecting slow consumer");
            CmdError::backpressure(msg).to_response(vt)
        };
        if !c.queue.push(cap, line, overflow) {
            c.close("backpressure", Instant::now() + self.opts.idle_timeout);
        }
        c.flush();
    }

    /// Applies one command through [`step`], routing metrics frames to
    /// every client and the rest to the issuer (synthetic commands drop
    /// their acks and a journal failure's error). Returns whether the
    /// session quit.
    fn command(
        &mut self,
        session: &mut ServeSession,
        journal: &mut Option<WalWriter>,
        issuer: Option<usize>,
        line: &str,
    ) -> io::Result<bool> {
        step(session, journal, line, |resp, vt| {
            if resp.starts_with("{\"frame\":") {
                for i in 0..self.list.len() {
                    self.push(i, resp, vt);
                }
            } else if let Some(i) = issuer {
                self.push(i, resp, vt);
            }
            Ok(())
        })
    }
}

/// The multi-client TCP loop. `quit` from any client, SIGTERM, or a
/// journal append failure ends the session for everyone; the loop then
/// drains the queues and returns once every socket has closed.
fn serve_multi(
    session: &mut ServeSession,
    addr: &str,
    opts: &ServeOpts,
    journal: &mut Option<WalWriter>,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    eprintln!("vennsim serve: listening on {}", listener.local_addr()?);
    sys::catch_sigterm();

    let idle = opts.idle_timeout;
    let mut clients = Clients { list: vec![], opts };
    let mut pacer = opts.rate.map(Pacer::new);
    let (mut fds, mut inputs, mut buf) = (Vec::new(), Vec::new(), [0; READ_CHUNK]);
    let (mut next_id, mut turn) = (1, 0);
    let mut ended = None; // How the session ended, once it has.
    loop {
        if ended.is_none() && sys::sigterm() {
            eprintln!("vennsim serve: SIGTERM, shutting down");
            ended = Some(Ok(()));
        }
        // Close idle clients (all, once over). A drained one lingers until
        // its EOF sets its deadline to now, or goes at once when over.
        let now = Instant::now();
        for c in clients.list.iter_mut() {
            if !c.queue.closing {
                if ended.is_some() {
                    c.close("shutdown", now + idle);
                } else if now >= c.deadline {
                    c.close("idle-timeout", now + idle);
                }
            }
            if c.queue.closing && c.queue.lines.is_empty() && !c.lingering && ended.is_none() {
                let _ = c.stream.shutdown(Shutdown::Write); // Fails once reset.
                c.lingering = true;
            }
        }
        let over = |c: &Client| now >= c.deadline || c.queue.lines.is_empty() && ended.is_some();
        clients.list.retain(|c| !(c.queue.closing && over(c)));
        match ended {
            Some(result) if clients.list.is_empty() => return result,
            _ => {}
        }
        let mut wake = pacer.as_ref().map_or(now + PACE_TICK, Pacer::next_tick);
        let accept = if ended.is_none() { POLLIN } else { 0 };
        fds.clear();
        fds.push(PollFd::new(&listener, accept));
        for c in &clients.list {
            wake = wake.min(c.deadline);
            let read = if c.queue.closing && !c.lingering {
                0
            } else {
                POLLIN
            };
            let write = if c.queue.lines.is_empty() { 0 } else { POLLOUT };
            fds.push(PollFd::new(&c.stream, read | write));
        }
        sys::wait(&mut fds, wake.saturating_duration_since(now))?;

        if fds[0].ready() {
            // Responses are small and latency-bound: never wait to coalesce.
            let setup = |s: TcpStream| s.set_nodelay(true).and(s.set_nonblocking(true)).map(|_| s);
            match listener.accept().and_then(|(stream, _)| setup(stream)) {
                Ok(stream) => {
                    eprintln!("vennsim serve: client {next_id} connected");
                    clients.list.push(Client {
                        id: next_id,
                        stream,
                        scanner: LineScanner::default(),
                        queue: OutQueue::new(),
                        deadline: Instant::now() + idle,
                        lingering: false,
                    });
                    next_id += 1;
                }
                Err(e) if e.kind() == WouldBlock => {}
                Err(e) => eprintln!("vennsim serve: accept failed: {e}"),
            }
        }

        let polled = fds.len() - 1;
        turn += 1;
        for i in (0..polled).map(|k| (turn + k) % polled) {
            let c = &mut clients.list[i];
            if !fds[i + 1].ready() {
                continue;
            }
            c.flush();
            if c.lingering {
                match c.stream.read(&mut buf) {
                    Ok(1..) => {}
                    Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                    Ok(0) | Err(_) => c.deadline = Instant::now(),
                }
                continue;
            }
            if c.queue.closing || ended.is_some() {
                continue;
            }
            match c.stream.read(&mut buf) {
                Ok(0) => c.close("eof", Instant::now() + idle),
                Ok(n) => {
                    c.deadline = Instant::now() + idle;
                    c.scanner.feed(&buf[..n], opts.max_line_bytes, &mut inputs);
                }
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                Err(_) => c.close("read-error", Instant::now() + idle),
            }
            for input in inputs.drain(..) {
                if ended.is_some() || clients.list[i].queue.closing {
                    break;
                }
                let Some(line) = input else {
                    let vt = session.vt();
                    clients.push(i, &line_too_long(opts.max_line_bytes, vt), vt);
                    continue;
                };
                match clients.command(session, journal, Some(i), &line) {
                    Ok(false) => {}
                    Ok(true) => {
                        let id = clients.list[i].id;
                        eprintln!("vennsim serve: quit from client {id}, shutting down");
                        ended = Some(Ok(()));
                    }
                    Err(e) => ended = Some(Err(e)),
                }
            }
        }

        let live_pacer = pacer.as_mut().filter(|_| ended.is_none());
        if let Some(cmd) = live_pacer.and_then(|p| p.tick(Instant::now())) {
            ended = clients.command(session, journal, None, &cmd).err().map(Err);
        }
    }
}
