//! The six workloads that drive a [`World`] in-process: the five
//! simulation workloads and `durability-100k`.
//!
//! One run of a world workload has four parts, all over the workload's
//! own world(s):
//!
//! 1. **reference runs** — untimed, and only as far as the simulated
//!    metrics need (until every job has finished): `SchedKind::Random` on
//!    every world for `jct_speedup_vs_random`, and the workload's own
//!    scheduler on the worlds that are not timed;
//! 2. **the probe**, once per timed world — advanced to a quarter of its
//!    horizon, checkpointed and resumed through [`CheckpointStore`] over
//!    [`MemFs`] (`checkpoint_s`, `resume_s`, `snapshot_bytes`), continued
//!    *from the resumed copy* to 11/12 of the horizon, forked there to
//!    `srsf` (`fork_s`), and run out — its result must equal the timed
//!    reps'. The checkpoint and the fork snapshot stay alive, and every
//!    later pass takes one more resume/write cycle and one more fork from
//!    them, so a metric's samples are spread over the whole run;
//! 3. **timed reps** — set-up and the `World::step` loop, pass after pass
//!    over the timed worlds until `--seconds` is used (`setup_s`, `run_s`,
//!    `peak_bytes`);
//! 4. **short sessions** between those parts: the serve plane's session
//!    layer applied in-process over the world (`cmds_per_s`,
//!    `advance_rtt_p50_us`).
//!
//! `durability-100k` is `scale-100k-venn`'s world with the time budget on
//! part 2 instead of part 3.

use std::time::Instant;

use venn_bench::{scale_experiment, Experiment, SchedKind};
use venn_core::{MemFs, Scheduler};
use venn_env::EnvPreset;
use venn_metrics::alloc;
use venn_serve::{shared_fs, ServeSession};
use venn_sim::{fork_world, snapshot_world, CheckpointStore, ExecMode, SimResult, World};
use venn_traces::WorkloadKind;

use crate::expect::{baseline_row, scale_row, Fields, BASELINE_SEED};
use crate::live::{sched_spec, Cycles};
use crate::spans::Tracer;
use crate::stats::{median, median_each, summarize, Reading};
use crate::traced::{step_traced, KindTable, TracedScheduler, CALLS, KINDS};
use crate::{micro, Outcome};

/// A world workload's fixed shape.
pub struct WorldSpec {
    pub name: &'static str,
    pub kind: SchedKind,
    chaos: bool,
    /// The 100k lazy world of `scale_experiment` (else the paper's 5k).
    scale: bool,
    shards: u32,
    /// `durability-100k`: checkpoint cycles get an eighth of `--seconds`
    /// (three windows of a twenty-fourth), timed reps their minimum.
    durability: bool,
}

pub const WORLD_SPECS: [WorldSpec; 6] = [
    WorldSpec {
        name: "paper-5k-venn",
        kind: SchedKind::Venn,
        chaos: false,
        scale: false,
        shards: 0,
        durability: false,
    },
    WorldSpec {
        name: "paper-5k-chaos",
        kind: SchedKind::Venn,
        chaos: true,
        scale: false,
        shards: 0,
        durability: false,
    },
    WorldSpec {
        name: "scale-100k-random",
        kind: SchedKind::Random,
        chaos: false,
        scale: true,
        shards: 0,
        durability: false,
    },
    WorldSpec {
        name: "scale-100k-venn",
        kind: SchedKind::Venn,
        chaos: false,
        scale: true,
        shards: 0,
        durability: false,
    },
    WorldSpec {
        name: "scale-100k-venn-x2",
        kind: SchedKind::Venn,
        chaos: false,
        scale: true,
        shards: 2,
        durability: false,
    },
    WorldSpec {
        name: "durability-100k",
        kind: SchedKind::Venn,
        chaos: false,
        scale: true,
        shards: 0,
        durability: true,
    },
];

/// Length of a short session, and what one of its cycles advances: a
/// virtual second at 100k devices, twenty at 5k.
const SHORT_CYCLES: usize = 2_000;
const SHORT_CYCLE_DEVICE_MS: u64 = 100_000_000;

/// Set-ups a pass times per world beside its rep's own.
const EXTRA_SETUPS: usize = 2;

/// splitmix64 — environment seeds of worlds 1.. derived from `--seed`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WorldSpec {
    /// Worlds per timed pass. Every world replays the committed job trace
    /// under its own environment seed; world 0's is `--seed` itself. The
    /// 5k worlds swing ±12 % in events and ±15 % in speed-up from one
    /// environment seed to the next, so those workloads average eight.
    fn worlds(&self) -> usize {
        if self.scale {
            1
        } else {
            8
        }
    }

    /// Further worlds that only feed the simulated metrics, run only until
    /// their jobs have finished (~10 of 48 h). One 100k world spreads
    /// `avg_jct_s` 16 % across seeds (15 jobs), and a second seeded one
    /// still 8-14 %, so the second world is an anchor instead: the same
    /// world whatever `--seed` says. It halves the seed-to-seed swing and
    /// hides nothing, because a change to the simulator moves both worlds.
    fn extra_worlds(&self) -> usize {
        usize::from(self.scale)
    }

    /// Inputs of world `i` at `seed`. The job trace is the committed one
    /// (`BASELINE_SEED`): regenerating it swings a 50-job run between
    /// 0.4 M and 5.3 M events, which no bound survives. `--seed` redraws
    /// everything else — population, availability, response noise,
    /// environment dynamics and the scheduler's own stream — of the timed
    /// worlds; an extra world's seed is derived from the committed one.
    fn inputs(&self, seed: u64, i: usize) -> Experiment {
        let mut exp = if self.scale {
            scale_experiment(100_000, BASELINE_SEED)
        } else {
            Experiment::paper_default(WorkloadKind::Even, None, BASELINE_SEED)
        };
        exp.sim.seed = match i {
            0 => seed,
            _ if i >= self.worlds() => mix(BASELINE_SEED, i as u64),
            _ => mix(seed, i as u64),
        };
        if self.chaos {
            exp.sim.env = EnvPreset::Chaos.config();
        }
        if self.shards > 0 {
            exp.sim.exec = ExecMode::Sharded {
                shards: self.shards,
            };
        }
        exp
    }

    fn sched_name(&self) -> &'static str {
        match self.kind {
            SchedKind::Random => "random",
            _ => "venn",
        }
    }

    /// The committed row world 0 must equal at the baseline seed.
    fn committed(&self, scheduler: &str, shards: u32) -> Option<Result<Fields, String>> {
        match (self.scale, self.chaos) {
            (true, _) => Some(scale_row(100_000, scheduler, shards)),
            (false, false) => Some(baseline_row(scheduler)),
            // BENCH_BASELINE.json has no chaos rows.
            (false, true) => None,
        }
    }
}

fn build(kind: SchedKind, exp: &Experiment) -> Box<dyn Scheduler> {
    kind.build(exp.sim.seed ^ 0xA5A5)
}

/// One untimed run to the horizon.
fn run_plain(exp: &Experiment, kind: SchedKind) -> (SimResult, Fields) {
    let mut sched = build(kind, exp);
    let mut world = World::new(exp.sim, &exp.workload, sched.name());
    while world.step(&mut *sched, &mut []) {}
    let live = world.devices().peak_live_devices();
    let result = world.finish(&mut []);
    let fields = Fields::of(&result, live);
    (result, fields)
}

/// Average JCT (ms) and completion rate of `exp` under `kind`, stepping
/// only until every job has finished (nothing later can change either) or
/// the horizon.
fn simulated(exp: &Experiment, kind: SchedKind) -> (f64, f64) {
    let mut sched = build(kind, exp);
    let mut world = World::new(exp.sim, &exp.workload, sched.name());
    let horizon = exp.sim.horizon_ms();
    let mut until = 0;
    while until < horizon {
        until += horizon / 16;
        world.run_until(until, &mut *sched, &mut []);
        if (0..world.jobs.len()).all(|j| world.jobs.get(j).record.is_finished()) {
            break;
        }
    }
    let result = world.finish(&mut []);
    (result.avg_jct_ms(), result.completion_rate())
}

/// Stretches of virtual time a timed step loop is read in: one clock
/// read per 96th of the horizon. A world's event stream is the same on
/// every rep, so stretch `k` of one rep did the same work as stretch `k` of
/// any other, and `run_s` takes the median stretch by stretch
/// ([`median_each`]).
const STRETCHES: u64 = 96;

/// The probe checkpoints after this many stretches (a quarter of the
/// horizon) and forks after this many (11/12 of it).
const CHECKPOINT_AFTER: usize = 24;
const FORK_AFTER: usize = 88;

/// Steps `world` until an event at or past the end of stretch `k` has
/// been dispatched. `false` when the run ended first.
fn stretch(world: &mut World, sched: &mut dyn Scheduler, horizon: u64, k: usize) -> bool {
    let until = horizon / STRETCHES * (k as u64 + 1);
    while world.now() < until {
        if !world.step(sched, &mut []) {
            return false;
        }
    }
    true
}

/// Input generation, scheduler and `World::new`: what `setup_s` times.
fn set_up(spec: &WorldSpec, seed: u64, i: usize) -> (Experiment, Box<dyn Scheduler>, World) {
    let exp = spec.inputs(seed, i);
    let sched = build(spec.kind, &exp);
    let world = World::new(exp.sim, &exp.workload, sched.name());
    (exp, sched, world)
}

/// One timed rep.
struct Rep {
    setup_s: f64,
    /// Host seconds of each stretch of the step loop; the last one ends
    /// the run and includes `finish`.
    stretches: Vec<f64>,
    peak_bytes: f64,
    result: SimResult,
    fields: Fields,
}

impl Rep {
    fn run_s(&self) -> f64 {
        self.stretches.iter().sum()
    }
}

/// Set-up, then the step loop to the horizon plus `finish`.
fn rep(spec: &WorldSpec, seed: u64, i: usize) -> Rep {
    alloc::reset_peak();
    let base = alloc::current_bytes();
    let t0 = Instant::now();
    let (exp, mut sched, mut world) = set_up(spec, seed, i);
    let mut t = Instant::now();
    let setup_s = t.duration_since(t0).as_secs_f64();
    let horizon = exp.sim.horizon_ms();
    let mut stretches = Vec::new();
    while stretch(&mut world, &mut *sched, horizon, stretches.len()) {
        let now = Instant::now();
        stretches.push(now.duration_since(t).as_secs_f64());
        t = now;
    }
    let live = world.devices().peak_live_devices();
    let result = world.finish(&mut []);
    stretches.push(t.elapsed().as_secs_f64());
    let peak = alloc::peak_bytes().saturating_sub(base);
    Rep {
        setup_s,
        stretches,
        peak_bytes: peak as f64,
        fields: Fields::of(&result, live),
        result,
    }
}

/// A world's probe: what stays alive after the first pass so that later
/// passes can take more checkpoint and fork samples, minutes apart on the
/// wall clock rather than back to back.
struct Probe {
    exp: Experiment,
    kind: SchedKind,
    /// Holds the checkpoint taken at a quarter of the horizon.
    fs: MemFs,
    /// The sealed snapshot at 11/12 of the horizon.
    fork_point: Vec<u8>,
    /// What every fork child of that snapshot must end as.
    child: Option<Fields>,
    /// The probed run's final fields; must equal the timed reps'.
    fields: Fields,
    /// Allocator high-water mark over set-up, the advance and one cycle.
    peak_bytes: f64,
    /// The probed run's stretches, as a rep's: one more `run_s` sample
    /// that costs nothing extra.
    stretches: Vec<f64>,
}

/// Where one world's checkpoint and fork timings go.
#[derive(Default)]
struct ProbeSamples {
    checkpoint_s: Vec<f64>,
    resume_s: Vec<f64>,
    fork_s: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

/// `CheckpointStore::write` of `world` into `fs`, timed.
fn timed_write(
    fs: &mut MemFs,
    world: &World,
    sched: &dyn Scheduler,
    samples: &mut ProbeSamples,
    out: &mut Outcome,
    tracer: &mut Option<&mut Tracer>,
) {
    out.attempted += 1;
    let mut store = CheckpointStore::open(fs, "ckpt", 1).expect("MemFs cannot fail");
    let t = Instant::now();
    let written = store.write(world, sched);
    samples.checkpoint_s.push(t.elapsed().as_secs_f64());
    if let Some(tracer) = tracer {
        tracer.add("sim.checkpoint.write", t, Instant::now());
    }
    match written {
        Ok(path) => samples
            .snapshot_bytes
            .push(fs.get(&path).map_or(0, <[u8]>::len) as f64),
        Err(e) => out.fail(format!("checkpoint write: {e}")),
    }
}

/// `CheckpointStore::resume` of the checkpoint in `fs`, timed.
fn timed_resume(
    fs: &mut MemFs,
    exp: &Experiment,
    kind: SchedKind,
    samples: &mut ProbeSamples,
    out: &mut Outcome,
    tracer: &mut Option<&mut Tracer>,
) -> Option<(World, Box<dyn Scheduler>)> {
    out.attempted += 1;
    let mut store = CheckpointStore::open(fs, "ckpt", 1).expect("MemFs cannot fail");
    let t = Instant::now();
    let resumed = store.resume(exp.sim, &exp.workload, &mut || build(kind, exp));
    samples.resume_s.push(t.elapsed().as_secs_f64());
    if let Some(tracer) = tracer {
        tracer.add("sim.checkpoint.resume", t, Instant::now());
    }
    let problem = match resumed {
        Ok(outcome) if outcome.warnings.is_empty() && outcome.run.is_some() => return outcome.run,
        Ok(outcome) => format!("resume degraded: {:?}", outcome.warnings),
        Err(e) => format!("resume: {e}"),
    };
    out.fail(problem);
    None
}

/// `fork_world` of `snapshot` to `srsf` plus running the child out, timed.
fn timed_fork(
    snapshot: &[u8],
    exp: &Experiment,
    samples: &mut ProbeSamples,
    out: &mut Outcome,
    tracer: &mut Option<&mut Tracer>,
) -> Option<Fields> {
    out.attempted += 1;
    let t = Instant::now();
    let mut alt = SchedKind::Srsf.build(exp.sim.seed);
    let child = fork_world(snapshot, exp.sim, &exp.workload, &mut *alt).map(|mut child| {
        while child.step(&mut *alt, &mut []) {}
        let live = child.devices().peak_live_devices();
        Fields::of(&child.finish(&mut []), live)
    });
    samples.fork_s.push(t.elapsed().as_secs_f64());
    if let Some(tracer) = tracer {
        tracer.add("sim.snapshot.fork", t, Instant::now());
    }
    child.inspect_err(|e| out.fail(format!("fork: {e}"))).ok()
}

/// Wall time one later pass spends on its worlds' checkpoint cycles, and
/// on their forks (one of each per world at least): `scale-100k-random`'s
/// 40 ms cycle gets several samples a pass, a 100k `venn` world's 0.55 s
/// cycle gets one.
const AGAIN_SECS: f64 = 0.25;

impl Probe {
    /// Part 2 of a run (see the module docs) on world `i`. `cycle_secs`
    /// keeps the checkpoint cycles going that long (`durability-100k`);
    /// otherwise one cycle runs.
    fn new(
        spec: &WorldSpec,
        seed: u64,
        i: usize,
        cycle_secs: Option<f64>,
        samples: &mut ProbeSamples,
        out: &mut Outcome,
        tracer: &mut Option<&mut Tracer>,
    ) -> Option<Probe> {
        alloc::reset_peak();
        let base = alloc::current_bytes();
        let mut exp = spec.inputs(seed, i);
        // The x2 probe runs the sequential arm, so the comparison of its
        // result with the sharded reps is the "x2 equals scale-100k-venn
        // field for field" check, at every seed.
        exp.sim.exec = ExecMode::Sequential;
        let horizon = exp.sim.horizon_ms();
        let mut sched = build(spec.kind, &exp);
        let mut world = World::new(exp.sim, &exp.workload, sched.name());
        let mut fs = MemFs::new();
        let mut peak_bytes = 0.0;
        let mut forked = None;
        let mut stretches = Vec::new();
        let mut t = Instant::now();
        // It acts between stretches, so that its stretches are a rep's.
        while stretch(&mut world, &mut *sched, horizon, stretches.len()) {
            stretches.push(t.elapsed().as_secs_f64());
            if stretches.len() == CHECKPOINT_AFTER {
                let cycling = Instant::now();
                loop {
                    timed_write(&mut fs, &world, &*sched, samples, out, tracer);
                    // Continue from the recovered copy: the run's final
                    // result then proves the round trip lossless.
                    (world, sched) = timed_resume(&mut fs, &exp, spec.kind, samples, out, tracer)?;
                    if peak_bytes == 0.0 {
                        peak_bytes = alloc::peak_bytes().saturating_sub(base) as f64;
                    }
                    if cycle_secs.is_none_or(|secs| cycling.elapsed().as_secs_f64() >= secs) {
                        break;
                    }
                }
            }
            if stretches.len() == FORK_AFTER {
                let snapshot = snapshot_world(&world, &*sched)
                    .inspect_err(|e| out.fail(format!("snapshot at the fork point: {e}")))
                    .ok()?;
                let child = timed_fork(&snapshot, &exp, samples, out, tracer);
                forked = Some((snapshot, child));
            }
            t = Instant::now();
        }
        let live = world.devices().peak_live_devices();
        let result = world.finish(&mut []);
        stretches.push(t.elapsed().as_secs_f64());
        let Some((fork_point, child)) = forked else {
            out.fail(format!("world {i} ended before its fork point"));
            return None;
        };
        Some(Probe {
            fields: Fields::of(&result, live),
            exp,
            kind: spec.kind,
            fs,
            fork_point,
            child,
            peak_bytes,
            stretches,
        })
    }

    /// More read-then-write cycles and more forks, from what the first
    /// pass left: `secs` of each.
    fn again(&mut self, secs: f64, samples: &mut ProbeSamples, out: &mut Outcome) {
        let started = Instant::now();
        while let Some((world, sched)) =
            timed_resume(&mut self.fs, &self.exp, self.kind, samples, out, &mut None)
        {
            timed_write(&mut self.fs, &world, &*sched, samples, out, &mut None);
            if started.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        let started = Instant::now();
        loop {
            let child = timed_fork(&self.fork_point, &self.exp, samples, out, &mut None);
            if child.is_some() && child != self.child {
                out.fail("fork children of one snapshot differ".into());
            }
            if child.is_none() || started.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
    }
}

/// The session layer over world `i`, in-process: one untimed `advance` to a
/// twenty-fourth of the horizon (jobs running, devices held), then
/// [`SHORT_CYCLES`] cycles of [`advance`, `stats`, `query-job`] through
/// [`ServeSession::apply_line`], for commands per second and the median
/// `advance` in microseconds. An `advance` covers
/// [`SHORT_CYCLE_DEVICE_MS`] device-milliseconds, 13 (100k) to 38 (5k)
/// events, so parse, dispatch, journal and frame are the work beside a
/// little kernel: with ten-minute advances the two numbers read the kernel
/// a second time, and on the 100k worlds followed the host's memory
/// contention (18 % between runs of one binary). No socket and no threads either: over
/// TCP they follow the host's thread wake-up latency, which moves 2x by the
/// quarter of an hour (see `live::start`); `serve-live` is the workload
/// that measures that path.
fn served(spec: &WorldSpec, seed: u64, i: usize, w: &mut WorldSamples, out: &mut Outcome) {
    let exp = spec.inputs(seed, i);
    let spec = sched_spec(spec.sched_name(), exp.sim.seed ^ 0xA5A5);
    let session = ServeSession::with_fs(exp.sim, spec, &exp.workload, shared_fs(MemFs::new()));
    let mut session = match session {
        Ok(session) => session,
        Err(e) => return out.fail(format!("session over world {i}: {e}")),
    };
    let mut apply = |line: String| -> f64 {
        out.attempted += 1;
        let t = Instant::now();
        let outcome = session.apply_line(&line);
        let secs = t.elapsed().as_secs_f64();
        if outcome.journal.is_none() {
            out.fail(format!("{line} -> {:?}", outcome.responses));
        }
        secs
    };
    apply(format!(
        "{{\"cmd\":\"advance\",\"ms\":{}}}",
        exp.sim.horizon_ms() / 24
    ));
    let ms = SHORT_CYCLE_DEVICE_MS / exp.sim.population as u64;
    let mut cycles = Cycles::default();
    for c in 0..SHORT_CYCLES {
        let job = c % exp.workload.jobs.len();
        for line in [
            format!("{{\"cmd\":\"advance\",\"ms\":{ms}}}"),
            "{\"cmd\":\"stats\"}".to_string(),
            format!("{{\"cmd\":\"query-job\",\"job\":{job}}}"),
        ] {
            cycles.secs.push(apply(line));
        }
    }
    w.sessions.push(cycles);
}

/// Every sample one timed world gave.
#[derive(Default)]
struct WorldSamples {
    setup_s: Vec<f64>,
    /// The stretches of every rep, and of the probe where it ran the
    /// reps' arm.
    runs: Vec<Vec<f64>>,
    peak_bytes: Vec<f64>,
    probe: ProbeSamples,
    sessions: Vec<Cycles>,
    first: Option<Rep>,
    probed: Option<Probe>,
}

impl WorldSamples {
    fn runs(&self) -> Vec<&[f64]> {
        self.runs.iter().map(Vec::as_slice).collect()
    }

    /// The sessions as one, command by command at the median.
    fn typical_session(&self) -> Cycles {
        Cycles::typical(&self.sessions.iter().collect::<Vec<_>>())
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The reading of one metric over the timed worlds, from each world's
/// value and samples: the values averaged, with the quartiles of all
/// samples pooled beside it.
fn over_worlds(worlds: &[WorldSamples], of: impl Fn(&WorldSamples) -> (f64, Vec<f64>)) -> Reading {
    let (values, samples): (Vec<f64>, Vec<Vec<f64>>) = worlds.iter().map(of).unzip();
    Reading {
        value: mean(&values),
        summary: summarize(&samples.concat()),
    }
}

/// [`over_worlds`] for a metric whose value in one world is the median of
/// that world's samples.
fn median_over_worlds(worlds: &[WorldSamples], of: fn(&WorldSamples) -> &Vec<f64>) -> Reading {
    over_worlds(worlds, |w| (median(of(w)), of(w).clone()))
}

/// The untraced run: every end-to-end metric. `--seconds` covers all of
/// it; the 100k workloads' fixed parts (references, probe, three passes)
/// take about 23 s whatever it says.
pub fn run(spec: &WorldSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let is_random = matches!(spec.kind, SchedKind::Random);

    // Part 1. At the baseline seed world 0's random reference runs to the
    // horizon, for its committed row.
    let (mut jct, mut random_jct, mut completion) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..spec.worlds() + spec.extra_worlds() {
        let mut exp = spec.inputs(seed, i);
        exp.sim.exec = ExecMode::Sequential;
        if i >= spec.worlds() {
            let (jct_ms, done) = simulated(&exp, spec.kind);
            out.attempted += 1;
            jct.push(jct_ms);
            completion.push(done);
        }
        if is_random {
            continue;
        }
        out.attempted += 1;
        if i == 0 && seed == BASELINE_SEED {
            let (result, fields) = run_plain(&exp, SchedKind::Random);
            out.check_row(spec.committed("random", 0), &fields, "random reference");
            random_jct.push(result.avg_jct_ms());
        } else {
            random_jct.push(simulated(&exp, SchedKind::Random).0);
        }
    }

    // Parts 2 to 4, world by world, pass after pass, for as many passes
    // as end within `--seconds`. The first pass also probes each world.
    let min_passes = if spec.scale && !spec.durability { 3 } else { 2 };
    // `durability-100k` takes its checkpoint cycles in three windows of
    // `--seconds / 24` each (two or three 0.55 s cycles at 30 s): in the
    // probe, after its second rep and at the end of the run.
    let again_secs = if spec.durability {
        seconds / 24.0
    } else {
        AGAIN_SECS / spec.worlds() as f64
    };
    let mut worlds: Vec<WorldSamples> = (0..spec.worlds())
        .map(|_| WorldSamples::default())
        .collect();
    let mut pass = 0;
    let mut longest_pass = 0.0_f64;
    while pass < min_passes
        || !spec.durability && started.elapsed().as_secs_f64() + longest_pass < seconds
    {
        let pass_started = Instant::now();
        for (i, w) in worlds.iter_mut().enumerate() {
            // A 100k world's pass is 5 s long and a run has three or four:
            // it takes a session at the start, in the middle and at the
            // end of each, a 5k world's at the end.
            if spec.scale {
                served(spec, seed, i, w, &mut out);
            }
            let r = rep(spec, seed, i);
            out.attempted += 1;
            w.setup_s.push(r.setup_s);
            w.runs.push(r.stretches.clone());
            w.peak_bytes.push(r.peak_bytes);
            for _ in 0..EXTRA_SETUPS {
                let t = Instant::now();
                let made = set_up(spec, seed, i);
                w.setup_s.push(t.elapsed().as_secs_f64());
                drop(made);
            }
            if spec.scale {
                served(spec, seed, i, w, &mut out);
            }
            if pass == 0 {
                let cycle_secs = spec.durability.then_some(again_secs);
                let (samples, tracer) = (&mut w.probe, &mut None);
                w.probed = Probe::new(spec, seed, i, cycle_secs, samples, &mut out, tracer);
                if let Some(p) = &w.probed {
                    if spec.shards == 0 {
                        w.runs.push(p.stretches.clone());
                    }
                    let what =
                        format!("world {i}: probe (checkpointed, resumed, sequential) vs rep");
                    out.check(r.fields.diff(&p.fields, &what));
                }
            } else if let Some(p) = w.probed.as_mut() {
                p.again(again_secs, &mut w.probe, &mut out);
            }
            match &w.first {
                Some(f) if f.fields == r.fields && f.result.records == r.result.records => {}
                Some(f) => out.check(r.fields.diff(&f.fields, &format!("world {i} pass {pass}"))),
                None => w.first = Some(r),
            }
            served(spec, seed, i, w, &mut out);
        }
        pass += 1;
        // The first pass, with its probes, is no guide to the later ones.
        if pass > 1 {
            longest_pass = longest_pass.max(pass_started.elapsed().as_secs_f64());
        }
    }
    let w = &mut worlds[0];
    if let (true, Some(p)) = (spec.durability, w.probed.as_mut()) {
        p.again(again_secs, &mut w.probe, &mut out);
    }
    out.reps = pass;

    // World 0 against its committed row.
    let first: Vec<&Rep> = worlds
        .iter()
        .map(|w| w.first.as_ref().expect("one pass ran"))
        .collect();
    if seed == BASELINE_SEED {
        out.check_row(
            spec.committed(spec.sched_name(), spec.shards),
            &first[0].fields,
            "world 0",
        );
    }

    // Simulated metrics: means over the worlds, timed and extra.
    jct.splice(0..0, first.iter().map(|r| r.result.avg_jct_ms()));
    completion.splice(0..0, first.iter().map(|r| r.result.completion_rate()));
    let speedups: Vec<f64> = if is_random {
        vec![1.0]
    } else {
        jct.iter().zip(&random_jct).map(|(v, r)| r / v).collect()
    };

    let setup = median_over_worlds(&worlds, |w| &w.setup_s);
    if let (true, Some(p)) = (spec.durability, &worlds[0].probed) {
        // Its set-up goes on to the checkpoint instant, and its high-water
        // mark is the one over set-up plus one cycle.
        let advance = |run: &[f64]| run.iter().take(CHECKPOINT_AFTER).sum::<f64>();
        let w = &worlds[0];
        out.put(
            "setup_s",
            Reading {
                value: setup.value + advance(&median_each(&w.runs())),
                summary: summarize(&w.runs.iter().map(|r| advance(r)).collect::<Vec<_>>()),
            },
        );
        out.put("peak_bytes", Reading::exact(p.peak_bytes));
    } else {
        out.put("setup_s", setup);
        out.put("peak_bytes", median_over_worlds(&worlds, |w| &w.peak_bytes));
    }
    out.put(
        "run_s",
        over_worlds(&worlds, |w| {
            let totals = w.runs.iter().map(|r| r.iter().sum()).collect();
            (median_each(&w.runs()).iter().sum(), totals)
        }),
    );
    out.put("avg_jct_s", Reading::exact(mean(&jct) / 1e3));
    out.put("jct_speedup_vs_random", Reading::exact(mean(&speedups)));
    out.put("completion_rate", Reading::exact(mean(&completion)));
    out.put(
        "checkpoint_s",
        median_over_worlds(&worlds, |w| &w.probe.checkpoint_s),
    );
    out.put(
        "resume_s",
        median_over_worlds(&worlds, |w| &w.probe.resume_s),
    );
    out.put(
        "snapshot_bytes",
        median_over_worlds(&worlds, |w| &w.probe.snapshot_bytes),
    );
    out.put("fork_s", median_over_worlds(&worlds, |w| &w.probe.fork_s));
    out.put(
        "cmds_per_s",
        over_worlds(&worlds, |w| {
            let each = w.sessions.iter().map(Cycles::cmds_per_s).collect();
            (w.typical_session().cmds_per_s(), each)
        }),
    );
    out.put(
        "advance_rtt_p50_us",
        over_worlds(&worlds, |w| {
            let each = w.sessions.iter().map(Cycles::advance_p50_us).collect();
            (w.typical_session().advance_p50_us(), each)
        }),
    );
    out
}

/// One pass of the traced instruments over world 0.
struct TracedRep {
    gen_s: f64,
    new_s: f64,
    traced_s: f64,
    table: KindTable,
    sched: TracedScheduler,
    result: SimResult,
    live: usize,
    alloc_calls: u64,
    peak_bytes: u64,
}

fn rep_traced(spec: &WorldSpec, seed: u64, tracer: &mut Tracer) -> TracedRep {
    // Set-up, split into its two layers.
    let (exp, gen_s) = tracer.scope("traces.workload_gen", |_| spec.inputs(seed, 0));
    let ((mut world, mut sched), new_s) = tracer.scope("sim.world.new", |_| {
        let sched = TracedScheduler::new(build(spec.kind, &exp));
        let world = World::new(exp.sim, &exp.workload, sched.name());
        (world, sched)
    });
    alloc::reset_peak();
    let base = alloc::current_bytes();
    let allocs = alloc::allocation_calls();
    let loop_span = tracer.begin("sim.world.step_loop");
    let table = step_traced(&mut world, &mut sched);
    let live = world.devices().peak_live_devices();
    let result = world.finish(&mut []);
    let traced_s = tracer.end(loop_span);
    TracedRep {
        gen_s,
        new_s,
        traced_s,
        table,
        sched,
        result,
        live,
        alloc_calls: alloc::allocation_calls() - allocs,
        peak_bytes: alloc::peak_bytes().saturating_sub(base),
    }
}

/// The traced run: every per-layer metric this workload has.
pub fn run_traced(spec: &WorldSpec, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Untraced and traced reps alternate. The fastest of each is kept for
    // the per-layer readings; `trace_overhead` is the median of the pairs'
    // own ratios, because neighbours in time share the host's speed and the
    // fastest of each kind need not (0.51 when only the untraced reps met a
    // lucky phase, against 0.11-0.17 otherwise). The 100k worlds can
    // afford one pair.
    let pairs = if spec.scale { 1 } else { 3 };
    out.reps = pairs;
    let run_span = tracer.begin(spec.name);
    let mut plain = rep(spec, seed, 0);
    let mut traced = rep_traced(spec, seed, tracer);
    let mut overheads = vec![traced.traced_s / plain.run_s() - 1.0];
    for _ in 1..pairs {
        let p = rep(spec, seed, 0);
        let t = rep_traced(spec, seed, tracer);
        overheads.push(t.traced_s / p.run_s() - 1.0);
        if p.run_s() < plain.run_s() {
            plain = p;
        }
        if t.traced_s < traced.traced_s {
            traced = t;
        }
    }
    out.attempted += 2 * pairs as u64;
    let plain_s = plain.run_s();
    let TracedRep {
        gen_s,
        new_s,
        traced_s,
        table,
        mut sched,
        result,
        live,
        alloc_calls,
        peak_bytes: peak,
    } = traced;
    for (start, end) in sched.submit_spans.drain(..) {
        tracer.add("core.scheduler.submit", start, end);
    }

    let fields = Fields::of(&result, live);
    out.check(fields.diff(&plain.fields, "traced vs untraced rep"));

    out.put("traces.workload_gen_ms", Reading::exact(gen_s * 1e3));
    out.put("sim.world.new_ms", Reading::exact(new_s * 1e3));
    out.put("sim.world.events", Reading::exact(result.events as f64));
    out.put(
        "sim.world.ns_per_event",
        Reading::exact(plain_s * 1e9 / result.events as f64),
    );
    out.put(
        "sim.world.events_per_s",
        Reading::exact(result.events as f64 / plain_s),
    );
    out.put("sim.world.alloc_calls", Reading::exact(alloc_calls as f64));
    out.put(
        "sim.world.peak_queue_len",
        Reading::exact(result.peak_queue_len as f64),
    );
    out.put("sim.world.peak_live_devices", Reading::exact(live as f64));
    out.put(
        "sim.world.bytes_per_device",
        Reading::exact(peak as f64 / live as f64),
    );
    // Scheduler time: the work each call did times the latency of one
    // unit of it. A kind's self time is its timed steps less the
    // scheduler work inside them, scaled up from the timed share and then
    // to what the loop really spent outside the scheduler — so kinds plus
    // scheduler add up to the traced loop's wall time.
    let ns_per_work = sched.ns_per_work();
    let cost = |work: &[u64; 6]| -> f64 {
        work.iter()
            .zip(&ns_per_work)
            .map(|(w, ns)| *w as f64 * ns)
            .sum()
    };
    let busy_s = cost(&sched.work()) / 1e9;
    let self_ns: Vec<f64> = (0..KINDS.len())
        .map(|k| (table.timed_step_ns[k] - cost(&table.timed_work[k])).max(0.0))
        .collect();
    let outside_ns = (traced_s - busy_s).max(0.0) * 1e9;
    let to_wall = outside_ns / self_ns.iter().sum::<f64>().max(1.0);
    for (k, kind) in KINDS.iter().enumerate() {
        out.put(
            &format!("sim.world.events.{kind}"),
            Reading::exact(table.events[k] as f64),
        );
        out.put(
            &format!("sim.world.step_self_ms.{kind}"),
            Reading::exact(self_ns[k] * to_wall / 1e6),
        );
    }
    for call in CALLS {
        let stat = sched.stat(call);
        out.put(
            &format!("core.scheduler.{call}.calls"),
            Reading::exact(stat.calls as f64),
        );
        out.put(
            &format!("core.scheduler.{call}.ns_per_call"),
            Reading::exact(stat.ns_per_call()),
        );
    }
    // For the batched call the per-unit figure above is per record.
    out.put(
        "core.scheduler.replay_check_ins.ns_per_record",
        Reading::exact(sched.stat("replay_check_ins").ns_per_call()),
    );
    out.put(
        "core.scheduler.replay_check_ins.ns_per_call",
        Reading::exact(sched.replay_ns_per_batch()),
    );
    out.put(
        "core.scheduler.replay_check_ins.records",
        Reading::exact(sched.replay_records as f64),
    );
    out.put(
        "core.scheduler.busy_share",
        Reading::exact(busy_s / traced_s),
    );
    let b = result.breakdown();
    out.put(
        "core.venn.avg_sched_delay_s",
        Reading::exact(b.avg_sched_delay_ms() / 1e3),
    );
    out.put(
        "core.matching.avg_response_s",
        Reading::exact(b.avg_response_ms() / 1e3),
    );
    out.put(
        "core.venn.aborted_rounds",
        Reading::exact(result.aborted_rounds as f64),
    );
    out.put(
        "core.venn.assignments",
        Reading::exact(result.assignments as f64),
    );
    out.put("env.dropouts", Reading::exact(result.env.dropouts as f64));
    out.put(
        "env.forced_offline",
        Reading::exact(result.env.forced_offline as f64),
    );
    out.put(
        "env.storm_aborts",
        Reading::exact(result.env.storm_aborts as f64),
    );
    out.put("env.retries", Reading::exact(result.env.retries as f64));
    out.put("trace_overhead", Reading::of(&overheads));

    // Micro-drivers over the layers this workload leans on.
    micro::event_queue(result.peak_queue_len as usize, tracer, &mut out);
    micro::scheduler_parts(tracer, &mut out);
    if spec.shards > 0 {
        // The sequential arm of the same world, for the sharded arm's
        // reason to exist.
        let mut seq = spec.inputs(seed, 0);
        seq.sim.exec = ExecMode::Sequential;
        let t = Instant::now();
        let (_, seq_fields) = run_plain(&seq, spec.kind);
        let seq_s = t.elapsed().as_secs_f64();
        tracer.add("sim.world.sequential_arm", t, Instant::now());
        out.attempted += 1;
        out.check(fields.diff(&seq_fields, "x2 vs sequential arm"));
        out.put("sim.shard.x2_speedup", Reading::exact(seq_s / plain_s));
    }
    if spec.durability {
        let mut samples = ProbeSamples::default();
        Probe::new(
            spec,
            seed,
            0,
            None,
            &mut samples,
            &mut out,
            &mut Some(tracer),
        );
        micro::snapshot_layers(&spec.inputs(seed, 0), spec.kind, tracer, &mut out);
    }
    tracer.end(run_span);
    out
}
