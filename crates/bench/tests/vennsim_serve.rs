//! `vennsim serve` as a process: typed errors for malformed scripted
//! stdin, wall-clock pacing on stdin while lines keep arriving, SIGTERM
//! in a paced session, and a TCP session served by the process's one
//! thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORLD: [&str; 7] = ["serve", "--population", "500", "--days", "1", "--jobs", "4"];

/// A running `vennsim serve`, killed if the test ends before it does.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn vennsim(args: &[&str]) -> Serve {
    let child = Command::new(env!("CARGO_BIN_EXE_vennsim"))
        .args(WORLD)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vennsim runs");
    Serve(child)
}

/// Waits up to `secs` for the process to exit and asserts it exited 0.
fn exits_cleanly(serve: &mut Serve, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while serve.0.try_wait().unwrap().is_none() {
        assert!(Instant::now() < deadline, "still serving after {secs} s");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(serve.0.wait().unwrap().success());
}

fn vt(line: &str) -> u64 {
    let rest = &line[line.find("\"vt\":").expect("a vt field") + 5..];
    rest[..rest.find(',').unwrap()].parse().unwrap()
}

/// Scripted stdin answers a line that is not UTF-8 with `bad-json` and
/// one past the 64 KiB line bound with `line-too-long`, as paced and
/// TCP input do, and the session goes on.
#[test]
fn scripted_stdin_rejects_malformed_lines_and_goes_on() {
    let mut serve = vennsim(&[]);
    let mut stdin = serve.0.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        let mut input = b"\xff\xfe{\"cmd\":\"stats\"}\n".to_vec();
        input.extend_from_slice(b"{\"cmd\":\"stats\",\"pad\":\"");
        input.extend_from_slice(&[b'x'; 200_000]);
        input.extend_from_slice(b"\"}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"quit\"}\n");
        // A session that dies early closes the pipe; the asserts below
        // report that, not this write.
        let _ = stdin.write_all(&input);
    });
    let mut stdout = String::new();
    let mut out = serve.0.stdout.take().unwrap();
    out.read_to_string(&mut stdout).unwrap();
    writer.join().unwrap();
    let expected = [
        "\"code\":\"bad-json\"",
        "\"code\":\"line-too-long\"",
        "\"ok\":true,\"frame\"",
        "\"ok\":true}",
    ];
    assert_eq!(stdout.lines().count(), expected.len(), "{stdout}");
    for (line, want) in stdout.lines().zip(expected) {
        assert!(line.contains(want), "{line}");
    }
    exits_cleanly(&mut serve, 30);
}

/// With `stats` every 20 ms, virtual time still advances every tick; a
/// last line without a newline still applies at end of input.
#[test]
fn paced_stdin_advances_under_traffic() {
    let rate = 1000.0;
    let mut serve = vennsim(&["--rate", "1000"]);
    let mut stdin = serve.0.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(1) {
            stdin.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        stdin.write_all(b"{\"cmd\":\"quit\"}").unwrap();
    });
    let mut stdout = String::new();
    let mut out = serve.0.stdout.take().unwrap();
    out.read_to_string(&mut stdout).unwrap();
    writer.join().unwrap();
    exits_cleanly(&mut serve, 30);
    let stats: Vec<u64> = stdout
        .lines()
        .filter(|l| l.contains("\"ok\":true,\"frame\""))
        .map(vt)
        .collect();
    assert!(stats.len() >= 40, "{} stats acks", stats.len());
    assert!(stats.windows(2).all(|w| w[0] <= w[1]), "{stats:?}");
    // 800 of the 1 000 wall ms, at `rate` virtual ms each.
    let risen = stats[stats.len() - 1] - stats[0];
    assert!(
        risen as f64 >= 800.0 * rate,
        "{risen} virtual ms: {stats:?}"
    );
    let quit = stdout.lines().last().unwrap();
    assert!(quit.ends_with("\"ok\":true}"), "{quit}");
}

/// SIGTERM interrupts a paced session's wait: the process exits 0 with
/// its journal sealed and a final checkpoint written.
#[test]
fn sigterm_seals_a_paced_session() {
    let dir = format!("{}/vennsim-serve-sigterm", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = format!("{dir}/journal.wal");
    let ckpt = format!("{dir}/ckpt");
    let mut serve = vennsim(&[
        "--rate",
        "1",
        "--journal",
        &journal,
        "--checkpoint-dir",
        &ckpt,
    ]);
    let mut stdin = serve.0.stdin.take().unwrap();
    stdin.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    let mut ack = String::new();
    let mut stdout = BufReader::new(serve.0.stdout.take().unwrap());
    stdout.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"ok\":true"), "{ack}");

    let pid = serve.0.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    exits_cleanly(&mut serve, 30);
    let bytes = std::fs::read(&journal).unwrap();
    let recovered = venn_serve::recover_journal(&bytes).unwrap();
    assert!(recovered.sealed && recovered.torn.is_none());
    assert!(!recovered.lines.is_empty());
    let checkpoints = std::fs::read_dir(&ckpt).unwrap().count();
    assert!(checkpoints > 0, "no final checkpoint in {ckpt}");
    drop(stdin);
}

/// A TCP session with a connected client runs on one thread.
#[test]
fn a_tcp_session_is_one_thread() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .to_string();
    let mut serve = vennsim(&["--listen", &addr]);
    let deadline = Instant::now() + Duration::from_secs(60);
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() > deadline => panic!("vennsim never listened: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut request = |line: &str| {
        (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        ack
    };
    assert!(request("{\"cmd\":\"stats\"}").contains("\"ok\":true"));
    let tasks = std::fs::read_dir(format!("/proc/{}/task", serve.0.id()))
        .unwrap()
        .count();
    assert_eq!(tasks, 1, "threads of a serving process with one client");
    assert!(request("{\"cmd\":\"quit\"}").contains("\"ok\":true"));
    exits_cleanly(&mut serve, 30);
}

/// A replayed journal ends its session as the live one did: with a
/// final checkpoint, byte-equal to the live session's.
#[test]
fn a_replay_writes_the_live_sessions_final_checkpoint() {
    let dir = format!("{}/vennsim-serve-replay", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = format!("{dir}/journal.wal");
    let (live, replayed) = (format!("{dir}/live"), format!("{dir}/replay"));
    let mut serve = vennsim(&["--journal", &journal, "--checkpoint-dir", &live]);
    let mut stdin = serve.0.stdin.take().unwrap();
    stdin
        .write_all(b"{\"cmd\":\"advance\",\"ms\":7200000}\n{\"cmd\":\"quit\"}\n")
        .unwrap();
    drop(stdin);
    exits_cleanly(&mut serve, 60);
    let mut replay = vennsim(&["--replay", &journal, "--checkpoint-dir", &replayed]);
    drop(replay.0.stdin.take());
    exits_cleanly(&mut replay, 60);

    let name = "ckpt-0000000007200000.vsnp";
    let live = std::fs::read(format!("{live}/{name}")).expect("the live final checkpoint");
    let replayed =
        std::fs::read(format!("{replayed}/{name}")).expect("the replay's final checkpoint");
    assert!(live == replayed, "the replay's final checkpoint differs");
}
