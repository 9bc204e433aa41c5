//! `vennsim` — command-line driver for one-off simulations.
//!
//! A downstream-user front end over the library: generate or load a
//! workload, pick a scheduler and environment, run, and print the JCT
//! report (optionally per-job CSV). `vennsim --help` lists every flag.
//!
//! Beyond a plain batch run, `--checkpoint-every`/`--resume` checkpoint
//! and resume byte-identically, `--fork-from` runs a snapshot out under a
//! fresh `--scheduler` arm, and `vennsim serve` is the online session
//! with a replayable WAL journal; README.md ("Checkpoint, crash, resume",
//! "Online serving") and ARCHITECTURE.md describe each.
//!
//! Exit status ([`venn_bench::cli`]): 0 on success, 2 on a usage error
//! (unknown flag, bad value, a configuration [`SimConfig::check`] or
//! [`SchedSpec::build`] rejects — reported before any world is built, on
//! every entry point), 1 on a run-time failure (I/O, unusable snapshot).
//!
//! Run: `cargo run --release -p venn-bench --bin vennsim -- --jobs 12 --days 5`

use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_bench::cli::{self, Cli};
use venn_core::{FaultFs, RealFs, MINUTE_MS};
use venn_env::EnvPreset;
use venn_serve::{result_csv, shared_fs, SchedSpec, ServeOpts, SharedFs, SyncPolicy};
use venn_sim::{CheckpointStore, PopMode, SimConfig, SimResult, Simulation, World};
use venn_traces::{io as wio, BiasKind, JobDemandModel, Workload, WorkloadKind};

const SYNOPSIS: &str = "\
[serve] [--scheduler venn|venn-wo-sched|venn-wo-match|random|random-per-device|fifo|srsf]
               [--jobs N] [--population N] [--days N] [--seed N]
               [--workload even|small|large|low|high]
               [--bias general|compute|memory|resource]
               [--epsilon F] [--tiers N] [--async] [--overcommit F]
               [--pop eager|split-eager|lazy]
               [--env off|flash-crowd|straggler-heavy|mass-dropout|chaos]
               [--load FILE.tsv] [--save FILE.tsv] [--csv]
               [--checkpoint-every SIM_MS] [--checkpoint-dir DIR] [--checkpoint-keep N]
               [--resume] [--fork-from FILE.vsnp]
               [--journal FILE] [--journal-sync always|batch|off] [--replay FILE]
               [--listen ADDR] [--rate F] [--idle-timeout SECS] [--frame-queue N]
               [--fault-inject SEED[:PROB]]";

const WORKLOADS: [(&str, WorkloadKind); 5] = [
    ("even", WorkloadKind::Even),
    ("small", WorkloadKind::Small),
    ("large", WorkloadKind::Large),
    ("low", WorkloadKind::Low),
    ("high", WorkloadKind::High),
];

const BIASES: [(&str, BiasKind); 4] = [
    ("general", BiasKind::General),
    ("compute", BiasKind::ComputeHeavy),
    ("memory", BiasKind::MemoryHeavy),
    ("resource", BiasKind::ResourceHeavy),
];

const POP_MODES: [(&str, PopMode); 3] = [
    ("eager", PopMode::Eager),
    ("split-eager", PopMode::SplitEager),
    ("lazy", PopMode::Lazy),
];

struct Args {
    serve: bool,
    config: SimConfig,
    spec: SchedSpec,
    env: EnvPreset,
    jobs: usize,
    workload: WorkloadKind,
    bias: Option<BiasKind>,
    load: Option<String>,
    save: Option<String>,
    csv: bool,
    checkpoint_every: Option<NonZeroU64>,
    checkpoint_dir: Option<String>,
    checkpoint_keep: NonZeroUsize,
    resume: bool,
    fork_from: Option<String>,
    replay: Option<String>,
    opts: ServeOpts,
    fault_inject: Option<(u64, f64)>,
}

/// Reads the command line. Every usage error — a bad flag or value, a
/// rule spanning several flags, a configuration the simulator or the
/// scheduler registry rejects — exits 2 here, before any world is built.
fn parse_args() -> Args {
    let mut a = Args {
        serve: false,
        config: SimConfig {
            population: 3_000,
            days: 7,
            ..SimConfig::default()
        },
        spec: SchedSpec::named("venn", 0),
        env: EnvPreset::Off,
        jobs: 20,
        workload: WorkloadKind::Even,
        bias: None,
        load: None,
        save: None,
        csv: false,
        checkpoint_every: None,
        checkpoint_dir: None,
        checkpoint_keep: NonZeroUsize::new(2).expect("2 is not 0"),
        resume: false,
        fork_from: None,
        replay: None,
        opts: ServeOpts::default(),
        fault_inject: None,
    };
    let envs = EnvPreset::ALL.map(|p| (p.label(), p));
    let syncs = [SyncPolicy::Always, SyncPolicy::Batch, SyncPolicy::Off].map(|p| (p.label(), p));
    let mut cli = Cli::new(SYNOPSIS);
    a.serve = cli.take("serve");
    cli.parse(|cli, flag| {
        match flag {
            "--scheduler" => a.spec.name = cli.value(flag)?,
            "--jobs" => a.jobs = cli.value(flag)?,
            "--population" => a.config.population = cli.value(flag)?,
            "--days" => a.config.days = cli.value(flag)?,
            "--seed" => a.config.seed = cli.value(flag)?,
            "--workload" => a.workload = cli.choice(flag, &WORKLOADS)?,
            "--bias" => a.bias = Some(cli.choice(flag, &BIASES)?),
            "--epsilon" => a.spec.epsilon = cli.value(flag)?,
            "--tiers" => a.spec.tiers = cli.value(flag)?,
            "--async" => a.config.async_mode = true,
            "--overcommit" => a.config.overcommit = cli.value(flag)?,
            "--pop" => a.config.pop_mode = cli.choice(flag, &POP_MODES)?,
            "--env" => a.env = cli.choice(flag, &envs)?,
            "--load" => a.load = Some(cli.value(flag)?),
            "--save" => a.save = Some(cli.value(flag)?),
            "--csv" => a.csv = true,
            "--checkpoint-every" => a.checkpoint_every = Some(cli.value(flag)?),
            "--checkpoint-dir" => a.checkpoint_dir = Some(cli.value(flag)?),
            "--checkpoint-keep" => a.checkpoint_keep = cli.value(flag)?,
            "--resume" => a.resume = true,
            "--fork-from" => a.fork_from = Some(cli.value(flag)?),
            "--journal" => a.opts.journal = Some(cli.value(flag)?),
            "--journal-sync" => a.opts.journal_sync = cli.choice(flag, &syncs)?,
            "--replay" => a.replay = Some(cli.value(flag)?),
            "--listen" => a.opts.listen = Some(cli.value(flag)?),
            "--rate" => a.opts.rate = Some(cli.value(flag)?),
            "--idle-timeout" => {
                a.opts.idle_timeout = Duration::from_secs(cli.value::<NonZeroU64>(flag)?.get())
            }
            "--frame-queue" => a.opts.frame_queue_cap = cli.value::<NonZeroUsize>(flag)?.get(),
            "--fault-inject" => a.fault_inject = Some(fault_plan(&cli.value::<String>(flag)?)?),
            _ => return Err(cli::unknown(flag)),
        }
        Ok(())
    });
    a.config.env = a.env.config();
    a.spec.seed = a.config.seed;
    a.opts.shutdown_checkpoint_dir.clone_from(&a.checkpoint_dir);
    if let Err(e) = a.check() {
        cli.fail(e);
    }
    a
}

/// `--fault-inject SEED[:PROB]`: the injector's seed and per-write
/// fault probability (default 0.02).
fn fault_plan(spec: &str) -> Result<(u64, f64), String> {
    let (seed, prob) = spec.split_once(':').unwrap_or((spec, "0.02"));
    let seed = cli::parse("--fault-inject seed", seed)?;
    let prob: f64 = cli::parse("--fault-inject probability", prob)?;
    if !(0.0..=1.0).contains(&prob) {
        return Err("--fault-inject probability must be in [0,1]".into());
    }
    Ok((seed, prob))
}

impl Args {
    /// The usage rules no single flag can check.
    fn check(&self) -> Result<(), String> {
        let ensure = |ok: bool, why: &str| if ok { Ok(()) } else { Err(why.to_string()) };
        self.opts.check()?;
        ensure(
            self.opts.rate.map_or(true, |r| r > 0.0 && r.is_finite()),
            "--rate must be a positive number",
        )?;
        ensure(
            self.checkpoint_dir.is_some() || (self.checkpoint_every.is_none() && !self.resume),
            "--checkpoint-every/--resume require --checkpoint-dir",
        )?;
        ensure(
            self.serve
                || (self.opts.journal.is_none()
                    && self.replay.is_none()
                    && self.opts.listen.is_none()
                    && self.opts.rate.is_none()),
            "--journal/--replay/--listen/--rate only apply to `vennsim serve`",
        )?;
        ensure(
            self.fault_inject.is_none() || self.serve || self.checkpoint_dir.is_some(),
            "--fault-inject applies to serve sessions or checkpointed runs",
        )?;
        ensure(
            self.fork_from.is_none()
                || !(self.serve || self.resume || self.checkpoint_every.is_some()),
            "--fork-from is a batch mode; it excludes serve/--resume/--checkpoint-every",
        )?;
        ensure(
            self.replay.is_none() || (self.opts.listen.is_none() && self.opts.rate.is_none()),
            "--replay is scripted; it excludes --listen/--rate",
        )?;
        // One gate for batch, serve, --resume and --fork-from alike.
        self.config.check()?;
        self.spec.build().map(drop)
    }
}

/// The durable-write backend: the real filesystem, optionally wrapped
/// in the deterministic fault injector (`--fault-inject SEED[:PROB]`).
/// Random injection only throws survivable faults (ENOSPC, EIO, torn
/// writes — never crash-freezes, never read faults), so a run under it
/// must still complete correctly through retries and fallbacks.
fn make_fs(args: &Args) -> SharedFs {
    match args.fault_inject {
        Some((seed, prob)) => shared_fs(FaultFs::random(RealFs, seed, prob)),
        None => shared_fs(RealFs),
    }
}

/// The checkpoint-aware run loop: identical results to
/// [`Simulation::run`] (snapshots are pure reads of the world between
/// event dispatches), plus periodic durable snapshots and/or resume
/// through [`CheckpointStore`] — atomic publish, retry with backoff on
/// transient faults, stale-tmp hygiene, and triaged resume.
fn run_checkpointed(args: &Args, dir: &str, workload: &Workload) -> Result<SimResult, String> {
    let config = args.config;
    let fs = make_fs(args);
    let mut fs = fs.borrow_mut();
    let mut store = CheckpointStore::open(&mut *fs, dir, args.checkpoint_keep.get())
        .map_err(|e| e.to_string())?;
    for name in store.clean_stale_tmp().map_err(|e| e.to_string())? {
        eprintln!("removed stale checkpoint tmp {dir}/{name}");
    }
    let resumed = match args.resume {
        true => {
            let mut build = || {
                args.spec
                    .build()
                    .expect("the arm was checked at parse time")
            };
            let started = Instant::now();
            let outcome = store
                .resume(config, workload, &mut build)
                .map_err(|e| e.to_string())?;
            let restore_ms = started.elapsed().as_secs_f64() * 1e3;
            for warning in &outcome.warnings {
                eprintln!("warning: {warning}");
            }
            match &outcome.run {
                Some((world, _)) => eprintln!(
                    "resumed from {dir} (sim time {:.1} h, {} events in, restored in {restore_ms:.1} ms)",
                    world.now() as f64 / 3_600_000.0,
                    world.events_processed()
                ),
                None => eprintln!("no usable checkpoint in {dir}; starting fresh"),
            }
            outcome.run
        }
        false => None,
    };
    let (mut world, mut scheduler) = match resumed {
        Some(run) => run,
        None => {
            let scheduler = args.spec.build()?;
            (World::new(config, workload, scheduler.name()), scheduler)
        }
    };
    let mut next_checkpoint = args
        .checkpoint_every
        .map(|every| world.now().saturating_add(every.get()));
    while world.step(&mut *scheduler, &mut []) {
        if let (Some(every), Some(at)) = (args.checkpoint_every, next_checkpoint) {
            if world.now() >= at {
                store
                    .write(&world, &*scheduler)
                    .map_err(|e| e.to_string())?;
                next_checkpoint = Some(world.now().saturating_add(every.get()));
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
fn run_forked(args: &Args, path: &str, workload: &Workload) -> Result<SimResult, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut scheduler = args.spec.build()?;
    let mut world = venn_sim::fork_world(&bytes, args.config, workload, &mut *scheduler)
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
fn run_serve(args: &Args, workload: &Workload) -> Result<(), String> {
    let mut session =
        venn_serve::ServeSession::with_fs(args.config, args.spec.clone(), workload, make_fs(args))?;
    if let Some(path) = &args.replay {
        // Damage is a warning and the intact prefix replays, never a
        // parse or vt-mismatch failure.
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
        return venn_serve::replay(&mut session, recovered.lines, &args.opts)
            .map_err(|e| e.to_string());
    }
    venn_serve::serve(&mut session, &args.opts).map_err(|e| e.to_string())
}

fn run(args: &Args) -> Result<(), String> {
    let workload = match &args.load {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            wio::from_tsv(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            let mut rng = StdRng::seed_from_u64(args.config.seed);
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
        return run_serve(args, &workload);
    }

    let result = if let Some(path) = &args.fork_from {
        run_forked(args, path, &workload)?
    } else {
        match &args.checkpoint_dir {
            Some(dir) => run_checkpointed(args, dir, &workload)?,
            None => {
                let mut scheduler = args.spec.build()?;
                Simulation::new(args.config).run(&workload, &mut *scheduler)
            }
        }
    };
    let b = result.breakdown();

    if args.csv {
        print!("{}", result_csv(&result));
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
    match run(&parse_args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => cli::failure(e),
    }
}
