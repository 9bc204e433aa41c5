//! The repository's benchmark: seven named workloads, twelve end-to-end
//! metrics and a per-layer cost table for the Venn simulator, measured
//! from outside the program through its public items only.
//!
//! ```text
//! venn-benchmark [--seed N] [--seconds S]                  every workload, untraced + traced
//! venn-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S]
//! venn-benchmark --selftest [--seed N] [--seconds S]       two untraced sets, gaps vs bounds
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Any failed
//! output check makes the exit code non-zero. See `README.md`.

mod expect;
mod live;
mod micro;
mod serve_live;
mod spans;
mod stats;
mod traced;
mod worlds;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use venn_serve::json::{obj, Value};

use expect::Fields;
use spans::Tracer;
use stats::Reading;
use worlds::WORLD_SPECS;

#[global_allocator]
static ALLOC: venn_metrics::alloc::TrackingAlloc = venn_metrics::alloc::TrackingAlloc;

/// Seconds one run measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

/// The simulation workloads' `jct_speedup_vs_random` is read against the
/// paper's Table 1 band for the Even workload.
const PAPER_BAND: &str = "paper band 1.63-1.88x";

#[derive(Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// End-to-end metrics: name, unit, direction, and the share by which a
/// change may worsen the metric before it counts as a regression (the
/// bounds of `BENCHMARK.json`, sized for runs whose seed differs).
const END_TO_END: [(&str, &str, Better, f64); 12] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("run_s", "s", Better::Lower, 0.25),
    ("peak_bytes", "bytes", Better::Lower, 0.10),
    ("avg_jct_s", "s", Better::Lower, 0.25),
    ("jct_speedup_vs_random", "x", Better::Higher, 0.25),
    ("completion_rate", "ratio", Better::Higher, 0.05),
    ("checkpoint_s", "s", Better::Lower, 0.25),
    ("resume_s", "s", Better::Lower, 0.25),
    ("snapshot_bytes", "bytes", Better::Lower, 0.15),
    ("cmds_per_s", "1/s", Better::Higher, 0.25),
    ("advance_rtt_p50_us", "us", Better::Lower, 0.25),
    ("fork_s", "s", Better::Lower, 0.25),
];

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    match last {
        _ if name.starts_with("sim.world.step_self_ms.") => "ms",
        _ if name.starts_with("serve.wal.append_us.") => "us",
        _ if name.starts_with("serve.session.apply_us.") => "us",
        _ if name.starts_with("sim.world.events.") => "count",
        "ns_per_event" | "ns_per_call" | "ns_per_record" => "ns",
        "events_per_s" => "1/s",
        "bytes_per_device" => "bytes",
        "busy_share" | "trace_overhead" => "ratio",
        "x2_speedup" => "x",
        _ if last.ends_with("_mb_per_s") => "MB/s",
        _ if last.ends_with("_bytes") => "bytes",
        _ if last.ends_with("_ns") => "ns",
        _ if last.ends_with("_us") => "us",
        _ if last.ends_with("_ms") => "ms",
        _ if last.ends_with("_s") => "s",
        _ => "count",
    }
}

/// Every per-layer metric, in reporting order. A workload that does not
/// touch a layer reports 0 for it.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "traces.workload_gen_ms",
        "sim.world.new_ms",
        "sim.world.events",
        "sim.world.ns_per_event",
        "sim.world.events_per_s",
        "sim.world.alloc_calls",
        "sim.world.peak_queue_len",
        "sim.world.peak_live_devices",
        "sim.world.bytes_per_device",
    ]
    .map(String::from)
    .to_vec();
    for kind in traced::KINDS {
        names.push(format!("sim.world.events.{kind}"));
    }
    for kind in traced::KINDS {
        names.push(format!("sim.world.step_self_ms.{kind}"));
    }
    names.extend(["sim.event.push_ns", "sim.event.pop_ns"].map(String::from));
    for call in traced::CALLS {
        names.push(format!("core.scheduler.{call}.calls"));
        names.push(format!("core.scheduler.{call}.ns_per_call"));
    }
    names.extend(
        [
            "core.scheduler.replay_check_ins.records",
            "core.scheduler.replay_check_ins.ns_per_record",
            "core.scheduler.busy_share",
            "core.supply.record_ns",
            "core.irs.allocate_us",
            "core.matching.decide_tier_ns",
            "core.venn.avg_sched_delay_s",
            "core.matching.avg_response_s",
            "core.venn.aborted_rounds",
            "core.venn.assignments",
            "env.dropouts",
            "env.forced_offline",
            "env.storm_aborts",
            "env.retries",
            "sim.shard.x2_speedup",
            "sim.snapshot.encode_ms",
            "sim.snapshot.restore_ms",
            "sim.snapshot.encode_mb_per_s",
            "sim.snapshot.world_state_bytes",
            "sim.snapshot.scheduler_state_bytes",
            "core.snapshot.checksum_mb_per_s",
            "sim.checkpoint.publish_memfs_ms",
            "core.faultio.publish_realfs_ms",
            "core.faultio.read_realfs_ms",
            "serve.wal.append_us.always",
            "serve.wal.append_us.batch",
            "serve.wal.append_us.off",
            "serve.wal.recover_ms",
            "serve.protocol.parse_ns",
            "serve.session.apply_us.advance",
            "serve.session.apply_us.stats",
            "serve.session.apply_us.query-job",
            "serve.session.apply_us.submit",
            "metrics.frame_build_us",
            "serve.driver.rtt_overhead_us",
            "serve.driver.advance_rtt_p99_us",
            "serve.driver.frames_received",
            "trace_overhead",
        ]
        .map(String::from),
    );
    names
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked / operations whose check failed: simulation
    /// runs against their first run and the committed rows, checkpoint
    /// cycles, forks, and served command lines against their acks.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, Reading>,
    /// Timed passes (sessions for `serve-live`).
    pub reps: usize,
}

impl Outcome {
    pub fn put(&mut self, name: &str, reading: Reading) {
        self.metrics.insert(name.to_string(), reading);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Records what a comparison found: one failed operation if anything.
    pub fn check(&mut self, diffs: Vec<String>) {
        self.failed += u64::from(!diffs.is_empty());
        self.errors.extend(diffs);
    }

    /// Headline value of `name`; 0 when the run did not measure it.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |r| r.value)
    }

    /// Checks `got` against a committed row, when there is one.
    pub fn check_row(&mut self, row: Option<Result<Fields, String>>, got: &Fields, what: &str) {
        let Some(row) = row else { return };
        self.attempted += 1;
        self.check(match row {
            Ok(expected) => got.diff(&expected, &format!("{what} vs committed row")),
            Err(e) => vec![e],
        });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// `benchmark/out/`, where result and trace files go.
fn out_dir() -> String {
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    dir
}

/// A path under `benchmark/out/scratch/` for checkpoints and journals;
/// the directory is removed when the benchmark exits.
pub fn scratch_path(name: &str) -> String {
    let dir = format!("{}/scratch", out_dir());
    std::fs::create_dir_all(&dir).expect("benchmark/out/scratch is writable");
    format!("{dir}/{name}")
}

/// Every workload. `BENCHMARK.json` lists four of them for the driver
/// (see "What the driver gates" in `README.md`); the other three run by
/// name, in the full run and in `--selftest`.
const WORKLOADS: [&str; 7] = [
    "paper-5k-venn",
    "paper-5k-chaos",
    "scale-100k-random",
    "scale-100k-venn",
    "scale-100k-venn-x2",
    "durability-100k",
    "serve-live",
];

/// Runs `workload` once, untraced or traced (the traced run also writes
/// `out/trace-<workload>.json`).
fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let spec = WORLD_SPECS.iter().find(|s| s.name == workload);
    if !trace {
        return match spec {
            Some(spec) => worlds::run(spec, seed, seconds),
            None => serve_live::run(seed, seconds),
        };
    }
    let mut tracer = Tracer::new();
    let mut out = match spec {
        Some(spec) => worlds::run_traced(spec, seed, &mut tracer),
        None => serve_live::run_traced(seed, &mut tracer),
    };
    let path = format!("{}/trace-{workload}.json", out_dir());
    if let Err(e) = std::fs::write(&path, tracer.to_chrome_json()) {
        out.errors.push(format!("{path}: {e}"));
    }
    println!("{} spans -> {path}", tracer.len());
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host the numbers were taken on.
fn host_header(seed: u64, seconds: f64) -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", Value::Int(nproc as i64)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Int(seed as i64)),
        ("seconds", Value::Float(seconds)),
    ]
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map_or_else(|| layer_unit(name), |m| m.1)
}

fn reading_json(name: &str, r: &Reading) -> Value {
    let mut fields = vec![
        ("value", Value::Float(r.value)),
        ("unit", Value::Str(unit_of(name).to_string())),
    ];
    if let Some(s) = &r.summary {
        fields.extend([
            ("n", Value::Int(s.n as i64)),
            ("min", Value::Float(s.min)),
            ("q1", Value::Float(s.q1)),
            ("median", Value::Float(s.median)),
            ("q3", Value::Float(s.q3)),
            ("max", Value::Float(s.max)),
        ]);
    }
    obj(fields)
}

/// One run as it goes into `results.json`.
fn run_json(workload: &str, trace: bool, out: &Outcome) -> Value {
    obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("traced", Value::Bool(trace)),
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Int(out.attempted as i64)),
        ("failed", Value::Int(out.failed as i64)),
        ("reps", Value::Int(out.reps as i64)),
        (
            "errors",
            Value::Array(out.errors.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "metrics",
            Value::Object(
                out.metrics
                    .iter()
                    .map(|(name, r)| (name.clone(), reading_json(name, r)))
                    .collect(),
            ),
        ),
    ])
}

/// The names a run reports: every per-layer metric when traced, every
/// end-to-end metric otherwise.
fn metric_names(trace: bool) -> Vec<String> {
    if trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|m| m.0.to_string()).collect()
    }
}

fn print_table(workload: &str, trace: bool, out: &Outcome) {
    println!(
        "\n== {workload} ({}, {} reps, {} of {} operations failed)",
        if trace { "traced" } else { "untraced" },
        out.reps,
        out.failed,
        out.attempted
    );
    for name in metric_names(trace) {
        let Some(r) = out.metrics.get(&name) else {
            continue;
        };
        let mut line = format!("{name:<48} {:>16.4} {:<6}", r.value, unit_of(&name));
        if let Some(s) = &r.summary {
            line.push_str(&format!(
                " n={} q1={:.4} median={:.4} q3={:.4}",
                s.n, s.q1, s.median, s.q3
            ));
        }
        if name == "jct_speedup_vs_random" && workload == "paper-5k-venn" {
            line.push_str(&format!(" ({PAPER_BAND})"));
        }
        println!("{line}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every end-to-end (`trace` off) or
/// every per-layer (`trace` on) name.
fn result_line(trace: bool, out: &Outcome) -> String {
    let metrics = metric_names(trace)
        .into_iter()
        .map(|name| {
            let value = obj(vec![
                ("value", Value::Float(out.value(&name))),
                ("unit", Value::Str(unit_of(&name).to_string())),
            ]);
            (name, value)
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Int(out.attempted.max(1) as i64)),
        ("failed", Value::Int(out.failed as i64)),
        ("metrics", Value::Object(metrics)),
    ])
    .to_json()
}

fn write_results(seed: u64, seconds: f64, runs: Vec<Value>) {
    let mut fields = host_header(seed, seconds);
    fields.push(("runs", Value::Array(runs)));
    let path = format!("{}/results.json", out_dir());
    match std::fs::write(&path, obj(fields).to_json() + "\n") {
        Ok(()) => println!("\nresults -> {path}"),
        Err(e) => eprintln!("{path}: {e}"),
    }
}

/// Every workload, untraced then traced. Returns whether all checks held.
fn run_all(seed: u64, seconds: f64) -> bool {
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(workload, seed, seconds, trace);
            print_table(workload, trace, &out);
            ok &= out.correct();
            runs.push(run_json(workload, trace, &out));
        }
    }
    write_results(seed, seconds, runs);
    ok
}

/// Two untraced sets back to back; per end-to-end metric and workload,
/// both values, the gap and the bound. Fails when a gap exceeds its bound
/// or a check fails.
fn selftest(seed: u64, seconds: f64) -> bool {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..2 {
        sets.push(
            WORKLOADS
                .iter()
                .map(|w| run_workload(w, seed, seconds, false))
                .collect(),
        );
    }
    let mut ok = true;
    let mut runs = Vec::new();
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][w], &sets[1][w]);
        ok &= a.correct() && b.correct();
        for (name, _, better, bound) in END_TO_END {
            let (first, second) = (a.value(name), b.value(name));
            let worse = match better {
                Better::Lower => second / first - 1.0,
                Better::Higher => first / second - 1.0,
            };
            let verdict = if worse > bound { "FAIL" } else { "" };
            ok &= worse <= bound;
            println!(
                "{workload:<20} {name:<24} {first:>14.4} {second:>14.4} {:>7.1}% {:>5.0}% {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        for e in a.errors.iter().chain(&b.errors) {
            println!("CHECK FAILED: {workload}: {e}");
        }
        runs.push(run_json(workload, false, a));
        runs.push(run_json(workload, false, b));
    }
    write_results(seed, seconds, runs);
    ok
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: expect::BASELINE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: venn-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--selftest]"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let ok = match &args.workload {
        Some(workload) => {
            let out = run_workload(workload, args.seed, args.seconds, args.trace);
            print_table(workload, args.trace, &out);
            write_results(
                args.seed,
                args.seconds,
                vec![run_json(workload, args.trace, &out)],
            );
            println!("{}", result_line(args.trace, &out));
            out.correct()
        }
        None if args.selftest => selftest(args.seed, args.seconds),
        None => run_all(args.seed, args.seconds),
    };
    let _ = std::fs::remove_dir_all(format!("{}/scratch", out_dir()));
    eprintln!("wall time {:.1} s", started.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("output check failed");
        ExitCode::FAILURE
    }
}
