//! `serve-live`: whole sessions against an in-process `venn_serve::serve`
//! — 10 000 lazy devices, 3 days, `venn`, WAL journal on `RealFs` under
//! `SyncPolicy::Batch` — driven by one closed-loop TCP client.
//!
//! The script: `subscribe` every 600 000 ms, 12 `submit`s, 720 cycles of
//! [`advance` 60 000 ms, `stats`, `query-job`], then at virtual 12 h one
//! `checkpoint`, one `save-workload` and one `fork` to `srsf`, 2 160 more
//! cycles with one extra `submit` every 200, `quit`. Every session of a
//! run replays the same script; one more, untimed, replays it under
//! `random` for `jct_speedup_vs_random`.

use std::time::Instant;

use venn_core::{MemFs, RealFs, SimFs};
use venn_metrics::alloc;
use venn_serve::json::Value;
use venn_serve::recover_journal;
use venn_sim::{resume_world, CheckpointStore, PopMode, SimConfig, SimResult};
use venn_traces::{io as wio, Workload};

use crate::live::{sched_spec, start, Cycles, LiveSetup};
use crate::spans::Tracer;
use crate::stats::{median_each, summarize, Reading};
use crate::{micro, scratch_path, Outcome};

const CYCLE_MS: u64 = 60_000;
const CYCLES_BEFORE: usize = 720;
const CYCLES_AFTER: usize = 2_160;
const FIRST_SUBMITS: usize = 12;
const SUBMIT_EVERY: usize = 200;

/// What a script line is, for timing and accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Prelude,
    Submit,
    Advance,
    Stats,
    Query,
    Checkpoint,
    SaveWorkload,
    Fork,
    Quit,
}

fn world_config(seed: u64) -> SimConfig {
    SimConfig {
        population: 10_000,
        days: 3,
        seed,
        pop_mode: PopMode::Lazy,
        ..SimConfig::default()
    }
}

fn setup(seed: u64, scheduler: &str, journal: Option<String>) -> LiveSetup {
    LiveSetup {
        config: world_config(seed),
        spec: sched_spec(scheduler, seed ^ 0xA5A5),
        workload: Workload { jobs: Vec::new() },
        journal,
    }
}

/// The session's command lines: the same script whatever `--seed` says
/// (the seed redraws the world). Every job is the protocol's own example
/// — 4 rounds of 50 devices, one-minute tasks — over the four categories
/// in turn: small next to 10 000 devices, so demand is open for minutes
/// at a time and the kernel stays the small part of an `advance`. With
/// trace-sized jobs one stuck round holds demand open for hours and a
/// session's wall time swung 0.66–1.30 s from seed to seed.
fn script(ckpt: &str, tsv: &str) -> Vec<(Step, String)> {
    let mut submitted = 0;
    let mut submit = move || {
        let category = ["general", "compute", "memory", "resource"][submitted % 4];
        submitted += 1;
        let line = format!(
            "{{\"cmd\":\"submit\",\"category\":\"{category}\",\"rounds\":3,\"demand\":10,\"task_ms\":60000}}"
        );
        (Step::Submit, line)
    };
    let mut lines = vec![(
        Step::Prelude,
        "{\"cmd\":\"subscribe\",\"every_ms\":600000}".to_string(),
    )];
    lines.extend((0..FIRST_SUBMITS).map(|_| submit()));
    let mut jobs = FIRST_SUBMITS;
    for c in 0..CYCLES_BEFORE + CYCLES_AFTER {
        if c == CYCLES_BEFORE {
            lines.push((
                Step::Checkpoint,
                format!("{{\"cmd\":\"checkpoint\",\"path\":\"{ckpt}\"}}"),
            ));
            lines.push((
                Step::SaveWorkload,
                format!("{{\"cmd\":\"save-workload\",\"path\":\"{tsv}\"}}"),
            ));
            lines.push((
                Step::Fork,
                "{\"cmd\":\"fork\",\"scheduler\":\"srsf\"}".to_string(),
            ));
        }
        if c >= CYCLES_BEFORE && (c - CYCLES_BEFORE).is_multiple_of(SUBMIT_EVERY) {
            lines.push(submit());
            jobs += 1;
        }
        lines.push((
            Step::Advance,
            format!("{{\"cmd\":\"advance\",\"ms\":{CYCLE_MS}}}"),
        ));
        lines.push((Step::Stats, "{\"cmd\":\"stats\"}".to_string()));
        lines.push((
            Step::Query,
            format!("{{\"cmd\":\"query-job\",\"job\":{}}}", c % jobs),
        ));
    }
    lines.push((Step::Quit, "{\"cmd\":\"quit\"}".to_string()));
    lines
}

/// One session's readings.
struct Session {
    setup_s: f64,
    /// Send→ack seconds of every script line, `quit` included.
    line_secs: Vec<f64>,
    peak_bytes: f64,
    cycles: Cycles,
    checkpoint_s: f64,
    snapshot_bytes: f64,
    fork_s: f64,
    resume_s: f64,
    result: SimResult,
    frames: u64,
    sent: u64,
    failed: u64,
    requests: Vec<(String, Instant, Instant)>,
}

/// Runs the script once over a fresh server; checks the journal and the
/// checkpoint it leaves, then removes them.
fn session(seed: u64, scheduler: &str, n: usize, record: bool) -> Result<Session, String> {
    let journal = scratch_path(&format!("session-{n}.wal"));
    let ckpt = scratch_path(&format!("session-{n}.vsnp"));
    let tsv = scratch_path(&format!("session-{n}.tsv"));
    let lines = script(&ckpt, &tsv);

    alloc::reset_peak();
    let base = alloc::current_bytes();
    let t0 = Instant::now();
    let (server, mut client) = start(setup(seed, scheduler, Some(journal.clone())))?;
    let t1 = Instant::now();
    client.record = record.then(Vec::new);

    let mut cycles = Cycles::default();
    let mut line_secs = Vec::with_capacity(lines.len());
    let (mut snapshot_bytes, mut fork_s) = (0.0, 0.0);
    for (step, line) in &lines {
        let (ack, secs) = client.request(line)?;
        line_secs.push(secs);
        match step {
            Step::Advance | Step::Stats | Step::Query => {
                cycles.secs.push(secs);
            }
            Step::Checkpoint => {
                snapshot_bytes = ack.get("bytes").and_then(Value::as_f64).unwrap_or(0.0);
            }
            Step::Fork => fork_s = secs,
            Step::Prelude | Step::Submit | Step::SaveWorkload | Step::Quit => {}
        }
    }
    let result = server.join()?;
    let peak_bytes = alloc::peak_bytes().saturating_sub(base) as f64;

    // The journal: sealed WAL, one record per accepted command.
    let mut fs = RealFs;
    let bytes = fs.read(&journal).map_err(|e| e.to_string())?;
    let recovered = recover_journal(&bytes).map_err(|e| e.to_string())?;
    let accepted = (client.sent - client.failed) as usize;
    if !(recovered.wal && recovered.sealed && recovered.torn.is_none())
        || recovered.lines.len() != accepted
    {
        return Err(format!(
            "journal {journal}: wal={} sealed={} torn={:?} records={} accepted={accepted}",
            recovered.wal,
            recovered.sealed,
            recovered.torn,
            recovered.lines.len()
        ));
    }

    // What one crash at the checkpoint costs to recover: read it back and
    // restore it over the workload the session had saved.
    let t = Instant::now();
    let snap = fs.read(&ckpt).map_err(|e| e.to_string())?;
    let text =
        String::from_utf8(fs.read(&tsv).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let workload = wio::from_tsv(&text).map_err(|e| e.to_string())?;
    let mut sched = sched_spec(scheduler, seed ^ 0xA5A5).build()?;
    let world = resume_world(&snap, world_config(seed), &workload, &mut *sched)
        .map_err(|e| format!("resume of {ckpt}: {e}"))?;
    let resume_s = t.elapsed().as_secs_f64();
    if world.now() != CYCLES_BEFORE as u64 * CYCLE_MS {
        return Err(format!("resumed world is at vt {}", world.now()));
    }
    // What checkpointing that world costs the program: as on the world
    // workloads, `CheckpointStore::write` over `MemFs`. The `checkpoint`
    // command's own round trip is that plus 8 MB written and fsynced to a
    // shared disk, 10 to 25 ms from one quarter of an hour to the next; it
    // is the `serve.driver.checkpoint` span of the traced run.
    let mut mem = MemFs::new();
    let mut store = CheckpointStore::open(&mut mem, "ckpt", 1).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let rewritten = store.write(&world, &*sched).map_err(|e| e.to_string())?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    // Snapshots are idempotent: the recovered world encodes to the file.
    if mem.get(&rewritten) != Some(&snap[..]) {
        return Err(format!("{ckpt}: the resumed world encodes differently"));
    }
    for path in [&journal, &ckpt, &tsv] {
        let _ = fs.remove(path);
    }

    Ok(Session {
        setup_s: t1.duration_since(t0).as_secs_f64(),
        line_secs,
        peak_bytes,
        cycles,
        checkpoint_s,
        snapshot_bytes,
        fork_s,
        resume_s,
        result,
        frames: client.frames,
        sent: client.sent,
        failed: client.failed,
        requests: client.record.take().unwrap_or_default(),
    })
}

/// Folds one session (or its failure) into the outcome.
fn account(out: &mut Outcome, s: &Result<Session, String>) {
    match s {
        Ok(s) => {
            out.attempted += s.sent;
            out.failed += s.failed;
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(e.clone());
        }
    }
}

/// The untraced run: one reference session under `random`, then `venn`
/// sessions until `--seconds` is used (at least two).
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let reference = session(seed, "random", 0, false);
    account(&mut out, &reference);
    let mut sessions: Vec<Session> = Vec::new();
    let mut n = 1;
    while sessions.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let s = session(seed, "venn", n, false);
        account(&mut out, &s);
        n += 1;
        match s {
            Ok(s) => sessions.push(s),
            Err(_) => break,
        }
    }
    out.reps = sessions.len();
    let Some(first) = sessions.first() else {
        return out;
    };
    // Same script, same seed: every session must end in the same state.
    for (i, s) in sessions.iter().enumerate().skip(1) {
        if s.result.records != first.result.records || s.result.events != first.result.events {
            out.fail(format!("session {i} ended unlike session 0"));
        }
    }
    let col = |f: fn(&Session) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };
    out.put("setup_s", Reading::of(&col(|s| s.setup_s)));
    // Every session replays one script over one world, so a session's
    // wall time is read line by line at the median across sessions
    // ([`median_each`]): the stalls the host deals a session (0.2 of 1.2 s
    // on a busy evening) fall on different lines each time, and the
    // sessions' own sums spread twice as wide between runs as this does.
    let lines: Vec<&[f64]> = sessions.iter().map(|s| s.line_secs.as_slice()).collect();
    out.put(
        "run_s",
        Reading {
            value: median_each(&lines).iter().sum(),
            summary: summarize(&col(|s| s.line_secs.iter().sum::<f64>())),
        },
    );
    out.put("peak_bytes", Reading::of(&col(|s| s.peak_bytes)));
    out.put("avg_jct_s", Reading::exact(first.result.avg_jct_ms() / 1e3));
    if let Ok(r) = &reference {
        out.put(
            "jct_speedup_vs_random",
            Reading::exact(r.result.avg_jct_ms() / first.result.avg_jct_ms()),
        );
    }
    out.put(
        "completion_rate",
        Reading::exact(first.result.completion_rate()),
    );
    out.put("checkpoint_s", Reading::of(&col(|s| s.checkpoint_s)));
    out.put("resume_s", Reading::of(&col(|s| s.resume_s)));
    out.put("snapshot_bytes", Reading::exact(first.snapshot_bytes));
    // The cycles likewise.
    let typical = Cycles::typical(&sessions.iter().map(|s| &s.cycles).collect::<Vec<_>>());
    out.put(
        "cmds_per_s",
        Reading {
            value: typical.cmds_per_s(),
            summary: summarize(&col(|s| s.cycles.cmds_per_s())),
        },
    );
    out.put(
        "advance_rtt_p50_us",
        Reading {
            value: typical.advance_p50_us(),
            summary: summarize(&col(|s| s.cycles.advance_p50_us())),
        },
    );
    out.put("fork_s", Reading::of(&col(|s| s.fork_s)));
    out
}

/// The traced run: one session with a span per command, the same script
/// in-process with no socket, and the WAL micro-drivers.
pub fn run_traced(seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        reps: 1,
        ..Outcome::default()
    };
    let run_span = tracer.begin("serve-live");
    let traced = session(seed, "venn", 0, true);
    account(&mut out, &traced);
    if let Ok(s) = &traced {
        for (cmd, start, end) in &s.requests {
            tracer.add(&format!("serve.driver.{cmd}"), *start, *end);
        }
        let mut sorted = s.cycles.advances();
        let rtts = summarize(&sorted).expect("the script has advances");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p99 = sorted[(sorted.len() - 1) * 99 / 100];
        out.put("serve.driver.advance_rtt_p99_us", Reading::exact(p99 * 1e6));
        out.put(
            "serve.driver.frames_received",
            Reading::exact(s.frames as f64),
        );

        let lines: Vec<String> = script("unused.vsnp", "unused.tsv")
            .into_iter()
            .map(|(_, line)| line)
            .collect();
        let in_process_us =
            micro::session_in_process(&setup(seed, "venn", None), &lines, tracer, &mut out);
        out.put(
            "serve.driver.rtt_overhead_us",
            Reading::exact(rtts.median * 1e6 - in_process_us),
        );
    }
    micro::wal(tracer, &mut out);
    tracer.end(run_span);
    out
}
