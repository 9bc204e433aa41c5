//! `vennsim` — command-line driver for one-off simulations.
//!
//! A downstream-user front end over the library: generate or load a
//! workload, pick a scheduler and environment, run, and print the JCT
//! report (optionally per-job CSV).
//!
//! ```text
//! USAGE:
//!   vennsim [serve] [--scheduler venn|random|random-per-device|fifo|srsf]
//!           [--jobs N] [--population N] [--days N] [--seed N]
//!           [--workload {even|small|large|low|high}]
//!           [--bias {general|compute|memory|resource}]
//!           [--epsilon F] [--tiers N] [--async] [--overcommit F]
//!           [--no-gating] [--pop eager|split-eager|lazy]
//!           [--env off|flash-crowd|straggler-heavy|mass-dropout|chaos]
//!           [--load FILE.tsv] [--save FILE.tsv] [--csv]
//!           [--checkpoint-every SIM_MS] [--checkpoint-dir DIR]
//!           [--checkpoint-keep N] [--resume] [--fork-from FILE.vsnp]
//!           [--journal FILE] [--journal-sync always|batch|off]
//!           [--replay FILE] [--listen ADDR] [--rate F]
//!           [--idle-timeout SECS] [--frame-queue N]
//!           [--fault-inject SEED[:PROB]]
//! ```
//!
//! `--checkpoint-every SIM_MS` writes a durable snapshot of the full run
//! state to `--checkpoint-dir` every `SIM_MS` of simulated time (the
//! `--checkpoint-keep` newest are retained, default 2). `--resume` picks
//! up from the newest usable checkpoint in the directory — a corrupt or
//! truncated file is skipped with a warning and the previous one is
//! tried — and the resumed run's output is byte-identical to an
//! uninterrupted run with the same parameters. Checkpoints only restore
//! under the same `(seed, population, days, workload, scheduler, env,
//! pop)` run identity.
//!
//! `--fork-from FILE.vsnp` is the what-if entry point: restore the
//! world from a snapshot but hand it to a **fresh** `--scheduler` arm
//! (open requests are resubmitted so the new arm builds its own book),
//! then run to completion. Unlike `--resume`, the scheduler may differ
//! from the one that wrote the snapshot. An offline `--fork-from` run
//! is byte-identical to the same fork executed inside a live `serve`
//! session at the same instant.
//!
//! `vennsim serve` (first positional argument) starts an online session
//! instead of a batch run: line-delimited JSON commands on stdin (or a
//! multi-client `--listen` TCP socket), responses on stdout. Virtual
//! time advances only on `advance` commands, or continuously at
//! `--rate` virtual ms per wall ms. `--journal FILE` records every
//! accepted command in a checksummed WAL (`--journal-sync` picks the
//! fsync policy); `--replay FILE` feeds a journal — WAL or legacy, even
//! one with a torn tail — back through the same code path and
//! reproduces the live session's output byte for byte. With `serve`,
//! `--checkpoint-dir DIR` writes a final checkpoint there on shutdown
//! (quit or SIGTERM). `--fault-inject SEED[:PROB]` wraps every durable
//! write in the deterministic fault injector for chaos testing. See the
//! "Online serving" and "Fault injection & durability" sections of
//! `ARCHITECTURE.md` for the protocol.
//!
//! Exit status: 0 on success, 2 on a usage error (unknown flag, bad
//! value, a configuration [`SimConfig::check`] rejects — reported before
//! any world is built, on every entry point), 1 on a run-time failure
//! (I/O, unknown scheduler, unusable snapshot).
//!
//! Run: `cargo run --release -p venn-bench --bin vennsim -- --jobs 12 --days 5`

use std::process::ExitCode;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_baselines::BaselineScheduler;
use venn_core::{FaultFs, RealFs, Scheduler, SimFs, VennConfig, VennScheduler, MINUTE_MS};
use venn_env::EnvPreset;
use venn_metrics::csv::Csv;
use venn_serve::{SyncPolicy, WalWriter};
use venn_sim::{CheckpointStore, PopMode, SimConfig, SimResult, Simulation, World};
use venn_traces::{io as wio, BiasKind, JobDemandModel, Workload, WorkloadKind};

#[derive(Debug)]
struct Args {
    scheduler: String,
    jobs: usize,
    population: usize,
    days: u32,
    seed: u64,
    workload: WorkloadKind,
    bias: Option<BiasKind>,
    epsilon: f64,
    tiers: usize,
    async_mode: bool,
    overcommit: f64,
    demand_gating: bool,
    pop_mode: PopMode,
    env: EnvPreset,
    load: Option<String>,
    save: Option<String>,
    csv: bool,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    checkpoint_keep: usize,
    resume: bool,
    fork_from: Option<String>,
    serve: bool,
    journal: Option<String>,
    journal_sync: SyncPolicy,
    replay: Option<String>,
    listen: Option<String>,
    rate: Option<f64>,
    idle_timeout_secs: u64,
    frame_queue: usize,
    fault_inject: Option<(u64, f64)>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scheduler: "venn".into(),
            jobs: 20,
            population: 3_000,
            days: 7,
            seed: 42,
            workload: WorkloadKind::Even,
            bias: None,
            epsilon: 0.0,
            tiers: 3,
            async_mode: false,
            overcommit: 0.0,
            demand_gating: true,
            pop_mode: PopMode::Eager,
            env: EnvPreset::Off,
            load: None,
            save: None,
            csv: false,
            checkpoint_every: None,
            checkpoint_dir: None,
            checkpoint_keep: 2,
            resume: false,
            fork_from: None,
            serve: false,
            journal: None,
            journal_sync: SyncPolicy::default(),
            replay: None,
            listen: None,
            rate: None,
            idle_timeout_secs: 300,
            frame_queue: 1024,
            fault_inject: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("serve") {
        args.serve = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--scheduler" => args.scheduler = value("--scheduler")?,
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--population" => {
                args.population = value("--population")?
                    .parse()
                    .map_err(|e| format!("--population: {e}"))?
            }
            "--days" => {
                args.days = value("--days")?
                    .parse()
                    .map_err(|e| format!("--days: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => {
                args.workload = match value("--workload")?.as_str() {
                    "even" => WorkloadKind::Even,
                    "small" => WorkloadKind::Small,
                    "large" => WorkloadKind::Large,
                    "low" => WorkloadKind::Low,
                    "high" => WorkloadKind::High,
                    other => {
                        return Err(format!(
                            "--workload: unknown value {other:?} (valid: even|small|large|low|high)"
                        ))
                    }
                }
            }
            "--bias" => {
                args.bias = Some(match value("--bias")?.as_str() {
                    "general" => BiasKind::General,
                    "compute" => BiasKind::ComputeHeavy,
                    "memory" => BiasKind::MemoryHeavy,
                    "resource" => BiasKind::ResourceHeavy,
                    other => {
                        return Err(format!(
                        "--bias: unknown value {other:?} (valid: general|compute|memory|resource)"
                    ))
                    }
                })
            }
            "--epsilon" => {
                args.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?
            }
            "--tiers" => {
                args.tiers = value("--tiers")?
                    .parse()
                    .map_err(|e| format!("--tiers: {e}"))?
            }
            "--async" => args.async_mode = true,
            "--no-gating" => args.demand_gating = false,
            "--pop" => {
                args.pop_mode = match value("--pop")?.as_str() {
                    "eager" => PopMode::Eager,
                    "split-eager" => PopMode::SplitEager,
                    "lazy" => PopMode::Lazy,
                    other => {
                        return Err(format!(
                            "--pop: unknown value {other:?} (valid: eager|split-eager|lazy)"
                        ))
                    }
                }
            }
            "--env" => {
                let name = value("--env")?;
                args.env = EnvPreset::parse(&name).ok_or_else(|| {
                    format!(
                        "--env: unknown value {name:?} (valid: {})",
                        EnvPreset::ALL.map(|p| p.label()).join("|")
                    )
                })?;
            }
            "--overcommit" => {
                args.overcommit = value("--overcommit")?
                    .parse()
                    .map_err(|e| format!("--overcommit: {e}"))?
            }
            "--load" => args.load = Some(value("--load")?),
            "--save" => args.save = Some(value("--save")?),
            "--csv" => args.csv = true,
            "--checkpoint-every" => {
                let every: u64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if every == 0 {
                    return Err("--checkpoint-every must be at least 1 ms".into());
                }
                args.checkpoint_every = Some(every);
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-keep" => {
                let keep: usize = value("--checkpoint-keep")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-keep: {e}"))?;
                if keep == 0 {
                    return Err("--checkpoint-keep must be at least 1".into());
                }
                args.checkpoint_keep = keep;
            }
            "--resume" => args.resume = true,
            "--fork-from" => args.fork_from = Some(value("--fork-from")?),
            "--journal" => args.journal = Some(value("--journal")?),
            "--journal-sync" => {
                let name = value("--journal-sync")?;
                args.journal_sync = SyncPolicy::parse(&name).ok_or_else(|| {
                    format!("--journal-sync: unknown value {name:?} (valid: always|batch|off)")
                })?;
            }
            "--replay" => args.replay = Some(value("--replay")?),
            "--listen" => args.listen = Some(value("--listen")?),
            "--idle-timeout" => {
                args.idle_timeout_secs = value("--idle-timeout")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout: {e}"))?;
                if args.idle_timeout_secs == 0 {
                    return Err("--idle-timeout must be at least 1 second".into());
                }
            }
            "--frame-queue" => {
                args.frame_queue = value("--frame-queue")?
                    .parse()
                    .map_err(|e| format!("--frame-queue: {e}"))?;
                if args.frame_queue == 0 {
                    return Err("--frame-queue must be at least 1".into());
                }
            }
            "--fault-inject" => {
                let spec = value("--fault-inject")?;
                let (seed, prob) = match spec.split_once(':') {
                    Some((s, p)) => (
                        s.parse().map_err(|e| format!("--fault-inject seed: {e}"))?,
                        p.parse()
                            .map_err(|e| format!("--fault-inject probability: {e}"))?,
                    ),
                    None => (
                        spec.parse()
                            .map_err(|e| format!("--fault-inject seed: {e}"))?,
                        0.02,
                    ),
                };
                if !(0.0..=1.0).contains(&prob) {
                    return Err("--fault-inject probability must be in [0,1]".into());
                }
                args.fault_inject = Some((seed, prob));
            }
            "--rate" => {
                let rate: f64 = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err("--rate must be a positive number".into());
                }
                args.rate = Some(rate);
            }
            "--help" | "-h" => {
                return Err("help".into());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if (args.checkpoint_every.is_some() || args.resume) && args.checkpoint_dir.is_none() {
        return Err("--checkpoint-every/--resume require --checkpoint-dir".into());
    }
    if !args.serve
        && (args.journal.is_some()
            || args.replay.is_some()
            || args.listen.is_some()
            || args.rate.is_some())
    {
        return Err("--journal/--replay/--listen/--rate only apply to `vennsim serve`".into());
    }
    if args.fault_inject.is_some() && !args.serve && args.checkpoint_dir.is_none() {
        return Err("--fault-inject applies to serve sessions or checkpointed runs".into());
    }
    if args.fork_from.is_some() && (args.serve || args.resume || args.checkpoint_every.is_some()) {
        return Err(
            "--fork-from is a batch mode; it excludes serve/--resume/--checkpoint-every".into(),
        );
    }
    if args.replay.is_some() && (args.listen.is_some() || args.rate.is_some()) {
        return Err("--replay is scripted; it excludes --listen/--rate".into());
    }
    Ok(args)
}

fn build_scheduler(args: &Args) -> Result<Box<dyn Scheduler>, String> {
    Ok(match args.scheduler.as_str() {
        "venn" => Box::new(VennScheduler::new(VennConfig {
            epsilon: args.epsilon,
            tiers: args.tiers,
            seed: args.seed,
            ..VennConfig::default()
        })),
        "random" => Box::new(BaselineScheduler::random_order(args.seed)),
        "random-per-device" => Box::new(BaselineScheduler::random_per_device(args.seed)),
        "fifo" => Box::new(BaselineScheduler::fifo()),
        "srsf" => Box::new(BaselineScheduler::srsf()),
        other => {
            return Err(format!(
            "--scheduler: unknown value {other:?} (valid: venn|random|random-per-device|fifo|srsf)"
        ))
        }
    })
}

/// The durable-write backend: the real filesystem, optionally wrapped
/// in the deterministic fault injector (`--fault-inject SEED[:PROB]`).
/// Random injection only throws survivable faults (ENOSPC, EIO, torn
/// writes — never crash-freezes, never read faults), so a run under it
/// must still complete correctly through retries and fallbacks.
fn make_fs(args: &Args) -> Box<dyn SimFs> {
    match args.fault_inject {
        Some((seed, prob)) => Box::new(FaultFs::random(RealFs, seed, prob)),
        None => Box::new(RealFs),
    }
}

/// The checkpoint-aware run loop: identical results to
/// [`Simulation::run`] (snapshots are pure reads of the world between
/// event dispatches), plus periodic durable snapshots and/or resume
/// through [`CheckpointStore`] — atomic publish, retry with backoff on
/// transient faults, stale-tmp hygiene, and triaged resume.
fn run_checkpointed(
    args: &Args,
    dir: &str,
    config: SimConfig,
    workload: &Workload,
) -> Result<SimResult, String> {
    let mut fs = make_fs(args);
    let mut store =
        CheckpointStore::open(&mut *fs, dir, args.checkpoint_keep).map_err(|e| e.to_string())?;
    for name in store.clean_stale_tmp().map_err(|e| e.to_string())? {
        eprintln!("removed stale checkpoint tmp {dir}/{name}");
    }
    build_scheduler(args)?; // surface a bad --scheduler before resuming
    let (mut world, mut scheduler) = match args.resume {
        true => {
            let mut build = || build_scheduler(args).expect("scheduler arm validated above");
            let outcome = store
                .resume(config, workload, &mut build)
                .map_err(|e| e.to_string())?;
            for warning in &outcome.warnings {
                eprintln!("warning: {warning}");
            }
            match outcome.run {
                Some((world, scheduler)) => {
                    eprintln!(
                        "resumed from {dir} (sim time {:.1} h, {} events in)",
                        world.now() as f64 / 3_600_000.0,
                        world.events_processed()
                    );
                    (world, scheduler)
                }
                None => {
                    eprintln!("no usable checkpoint in {dir}; starting fresh");
                    let scheduler = build_scheduler(args)?;
                    (World::new(config, workload, scheduler.name()), scheduler)
                }
            }
        }
        false => {
            let scheduler = build_scheduler(args)?;
            (World::new(config, workload, scheduler.name()), scheduler)
        }
    };
    let mut next_checkpoint = args
        .checkpoint_every
        .map(|every| world.now().saturating_add(every));
    while world.step(&mut *scheduler, &mut []) {
        if let (Some(every), Some(at)) = (args.checkpoint_every, next_checkpoint) {
            if world.now() >= at {
                store
                    .write(&world, &*scheduler)
                    .map_err(|e| e.to_string())?;
                next_checkpoint = Some(world.now().saturating_add(every));
            }
        }
    }
    Ok(world.finish(&mut []))
}

/// The what-if batch mode: restore a snapshot under a fresh
/// `--scheduler` arm (which may differ from the arm that wrote it) and
/// run the remainder of the simulation to completion. Byte-identical to
/// the same fork executed inside a live `serve` session, because both go
/// through [`venn_sim::fork_world`].
fn run_forked(
    args: &Args,
    path: &str,
    config: SimConfig,
    workload: &Workload,
) -> Result<SimResult, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut scheduler = build_scheduler(args)?;
    let mut world = venn_sim::fork_world(&bytes, config, workload, &mut *scheduler)
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "forked from {path} at sim time {:.1} h under scheduler {}",
        world.now() as f64 / 3_600_000.0,
        scheduler.name()
    );
    while world.step(&mut *scheduler, &mut []) {}
    Ok(world.finish(&mut []))
}

/// `vennsim serve`: the online session. Commands in (stdin, a replay
/// file, or multi-client TCP), responses out, optional WAL journal.
fn run_serve(args: &Args, config: SimConfig, workload: &Workload) -> Result<(), String> {
    let spec = venn_serve::SchedSpec {
        name: args.scheduler.clone(),
        epsilon: args.epsilon,
        tiers: args.tiers,
        seed: args.seed,
    };
    let fs: venn_serve::SharedFs = match args.fault_inject {
        Some((seed, prob)) => venn_serve::shared_fs(FaultFs::random(RealFs, seed, prob)),
        None => venn_serve::real_fs(),
    };
    let mut session = venn_serve::ServeSession::with_fs(config, spec, workload, fs.clone())?;
    if let Some(path) = &args.replay {
        // WAL or legacy journal; damage is a warning and the intact
        // prefix replays, never a parse or vt-mismatch failure.
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let recovered = venn_serve::recover_journal(&bytes).map_err(|e| format!("{path}: {e}"))?;
        if let Some(torn) = &recovered.torn {
            eprintln!(
                "warning: {path}: torn journal tail at byte {} ({}); replaying the {} intact line(s) before it",
                torn.offset,
                torn.reason,
                recovered.lines.len()
            );
        }
        let stdout = std::io::stdout();
        let mut out: Box<dyn std::io::Write> = Box::new(stdout.lock());
        let mut journal = match &args.journal {
            Some(p) => Some(
                WalWriter::create(fs.clone(), p, args.journal_sync)
                    .map_err(|e| format!("{p}: {e}"))?,
            ),
            None => None,
        };
        venn_serve::run_lines(
            &mut session,
            recovered.lines.into_iter().map(Ok),
            &mut out,
            &mut journal,
        )
        .map_err(|e| e.to_string())?;
        if let Some(j) = journal.as_mut() {
            j.seal().map_err(|e| e.to_string())?;
        }
        return Ok(());
    }
    let opts = venn_serve::ServeOpts {
        journal: args.journal.clone(),
        journal_sync: args.journal_sync,
        rate: args.rate,
        listen: args.listen.clone(),
        idle_timeout: Duration::from_secs(args.idle_timeout_secs),
        frame_queue_cap: args.frame_queue,
        shutdown_checkpoint_dir: args.checkpoint_dir.clone(),
        ..venn_serve::ServeOpts::default()
    };
    venn_serve::serve(&mut session, &opts).map_err(|e| e.to_string())
}

fn sim_config(args: &Args) -> SimConfig {
    SimConfig {
        population: args.population,
        days: args.days,
        seed: args.seed,
        async_mode: args.async_mode,
        overcommit: args.overcommit,
        demand_gating: args.demand_gating,
        pop_mode: args.pop_mode,
        env: args.env.config(),
        ..SimConfig::default()
    }
}

fn run(args: &Args, config: SimConfig) -> Result<(), String> {
    let workload = match &args.load {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            wio::from_tsv(&text).map_err(|e| e.to_string())?
        }
        None => {
            let mut rng = StdRng::seed_from_u64(args.seed);
            Workload::generate(
                args.workload,
                args.bias,
                args.jobs,
                &JobDemandModel::default(),
                30.0 * MINUTE_MS as f64,
                &mut rng,
            )
        }
    };
    if let Some(path) = &args.save {
        std::fs::write(path, wio::to_tsv(&workload)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("saved workload to {path}");
    }

    if args.serve {
        return run_serve(args, config, &workload);
    }

    let result = if let Some(path) = &args.fork_from {
        run_forked(args, path, config, &workload)?
    } else {
        match &args.checkpoint_dir {
            Some(dir) => run_checkpointed(args, dir, config, &workload)?,
            None => {
                let mut scheduler = build_scheduler(args)?;
                Simulation::new(config).run(&workload, &mut *scheduler)
            }
        }
    };
    let b = result.breakdown();

    if args.csv {
        let mut csv = Csv::new(&["job", "jct_ms", "sched_delay_ms", "response_ms", "aborted"]);
        for (i, rec) in result.records.iter().enumerate() {
            csv.row(&[
                i.to_string(),
                rec.jct_ms().map(|v| v.to_string()).unwrap_or_default(),
                rec.sched_delay_ms.to_string(),
                rec.response_ms.to_string(),
                rec.rounds_aborted.to_string(),
            ]);
        }
        print!("{csv}");
        return Ok(());
    }

    println!("scheduler        {}", result.scheduler_name);
    println!("jobs             {}", workload.jobs.len());
    println!(
        "finished         {} ({:.0}%)",
        b.finished(),
        result.completion_rate() * 100.0
    );
    println!("avg JCT          {:.1} min", b.avg_jct_ms() / 60_000.0);
    println!(
        "avg sched delay  {:.1} min",
        b.avg_sched_delay_ms() / 60_000.0
    );
    println!("avg response     {:.1} min", b.avg_response_ms() / 60_000.0);
    println!("aborted rounds   {}", result.aborted_rounds);
    println!(
        "assignments      {} ({} failed)",
        result.assignments, result.failures
    );
    if args.env != EnvPreset::Off {
        let e = &result.env;
        println!("env preset       {}", args.env.label());
        println!(
            "env dynamics     {} dropouts, {} forced offline, {} storm aborts, {} retries",
            e.dropouts, e.forced_offline, e.storm_aborts, e.retries
        );
        for (tier, h) in e.tier_response_ms.iter().enumerate() {
            println!("tier {tier} responses  {}", h.total());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => {
            // One gate for batch, serve, --resume and --fork-from alike.
            let config = sim_config(&args);
            if let Err(e) = config.check() {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
            match run(&args, config) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: vennsim [serve] [--scheduler venn|random|random-per-device|fifo|srsf] \
                 [--jobs N] \
                 [--population N] [--days N] [--seed N] [--workload even|small|large|low|high] \
                 [--bias general|compute|memory|resource] [--epsilon F] [--tiers N] \
                 [--async] [--overcommit F] [--no-gating] \
                 [--pop eager|split-eager|lazy] \
                 [--env off|flash-crowd|straggler-heavy|mass-dropout|chaos] \
                 [--load FILE.tsv] [--save FILE.tsv] [--csv] \
                 [--checkpoint-every SIM_MS] [--checkpoint-dir DIR] [--checkpoint-keep N] \
                 [--resume] [--fork-from FILE.vsnp] \
                 [--journal FILE] [--journal-sync always|batch|off] [--replay FILE] \
                 [--listen ADDR] [--rate F] [--idle-timeout SECS] [--frame-queue N] \
                 [--fault-inject SEED[:PROB]]"
            );
            if e == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
    }
}
