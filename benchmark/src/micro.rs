//! Micro-drivers: timed loops over one layer's public functions, run only
//! in the traced run and only on the workloads that lean on that layer.
//! Each reports the median of its rounds (quartiles beside it).

use std::hint::black_box;
use std::time::Instant;

use venn_bench::{Experiment, SchedKind};
use venn_core::irs::{allocate_into, AllocationPlan, GroupSummary, IrsScratch};
use venn_core::matching::{decide_tier, TierProfiler};
use venn_core::snapshot::checksum;
use venn_core::{Capacity, MemFs, RealFs, ResourceSpec, SimFs, SnapWriter, SupplyEstimator};
use venn_serve::{recover_journal, shared_fs, Command, ServeSession, SyncPolicy, WalWriter};
use venn_sim::{resume_world, snapshot_world, EventKind, EventQueue, World};

use crate::live::LiveSetup;
use crate::spans::Tracer;
use crate::stats::Reading;
use crate::{scratch_path, Outcome};

/// Rounds per micro-driver.
const ROUNDS: usize = 9;

/// A small deterministic generator for micro-driver inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn unit(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 10_000.0
    }
}

/// Runs `round` [`ROUNDS`] times inside a span named `name`; each call
/// returns how many operations it did. Returns seconds per operation, one
/// sample per round.
fn timed_rounds(name: &str, tracer: &mut Tracer, mut round: impl FnMut() -> usize) -> Vec<f64> {
    let span = tracer.begin(name);
    let samples = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            let ops = round();
            t.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    tracer.end(span);
    samples
}

/// [`timed_rounds`] reported as metric `name`, in units of `scale` seconds.
fn per_op(
    name: &'static str,
    scale: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    round: impl FnMut() -> usize,
) {
    let samples: Vec<f64> = timed_rounds(name, tracer, round)
        .iter()
        .map(|secs| secs / scale)
        .collect();
    out.put(name, Reading::of(&samples));
}

/// `sim.event.push_ns` / `sim.event.pop_ns`: the hold model on an
/// [`EventQueue`] kept at the workload's `peak_queue_len` — each round
/// pops a batch, then pushes it back one re-poll period later.
pub fn event_queue(peak_len: usize, tracer: &mut Tracer, out: &mut Outcome) {
    let len = peak_len.max(64);
    let batch = (len / 2).max(32);
    let mut rng = Lcg(7);
    let mut q = EventQueue::new();
    for d in 0..len {
        q.push(rng.next() % 60_000, EventKind::CheckIn { device: d });
    }
    let (mut pop_ns, mut push_ns) = (Vec::new(), Vec::new());
    let mut held = Vec::with_capacity(batch);
    let span = tracer.begin("sim.event.hold_model");
    for _ in 0..ROUNDS * 8 {
        let t = Instant::now();
        for _ in 0..batch {
            held.push(q.pop().expect("queue is kept full"));
        }
        pop_ns.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
        let t = Instant::now();
        for e in held.drain(..) {
            q.push(e.time + 60_000, e.kind);
        }
        push_ns.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    tracer.end(span);
    black_box(&q);
    out.put("sim.event.push_ns", Reading::of(&push_ns));
    out.put("sim.event.pop_ns", Reading::of(&pop_ns));
}

/// `core.supply.record_ns`, `core.irs.allocate_us`,
/// `core.matching.decide_tier_ns` — the parts of one Venn scheduler call,
/// in the shapes `crates/bench/benches/` uses (4 000 check-ins of supply
/// history, 20 groups, a ready 100-response profile).
pub fn scheduler_parts(tracer: &mut Tracer, out: &mut Outcome) {
    let mut rng = Lcg(11);
    let specs: Vec<ResourceSpec> = (0..20)
        .map(|g| {
            let t = g as f64 / 20.0 * 0.9;
            ResourceSpec::new(t, t * 0.8)
        })
        .collect();

    let mut supply = SupplyEstimator::with_default_window();
    for spec in &specs {
        supply.register_spec(*spec);
    }
    let mut now = 0u64;
    per_op("core.supply.record_ns", 1e-9, tracer, out, || {
        const OPS: usize = 50_000;
        for _ in 0..OPS {
            now += 1_000;
            supply.record(now, &Capacity::new(rng.unit(), rng.unit()));
        }
        // Queries are what prune the window; the scheduler asks at every
        // re-plan.
        black_box(supply.window_count(now));
        OPS
    });

    let regions = supply.region_supplies(now, &specs);
    let groups: Vec<GroupSummary> = specs
        .iter()
        .enumerate()
        .map(|(index, spec)| GroupSummary {
            index,
            eligible_supply: supply.rate(now, spec),
            queue_len: 1.0 + (index % 7) as f64,
        })
        .collect();
    let mut plan = AllocationPlan::default();
    let mut scratch = IrsScratch::default();
    per_op("core.irs.allocate_us", 1e-6, tracer, out, || {
        const OPS: usize = 2_000;
        for _ in 0..OPS {
            allocate_into(&mut plan, &groups, &regions, true, &mut scratch);
        }
        black_box(&plan);
        OPS
    });

    let mut profile = TierProfiler::new();
    for i in 0..100u64 {
        let score = rng.unit();
        profile.record_participant(score);
        profile.record_response(score, 30_000 + (60_000.0 * (1.0 - score)) as u64);
        profile.record_sched_delay(20_000 + i * 100);
    }
    let mut u = 0;
    per_op("core.matching.decide_tier_ns", 1e-9, tracer, out, || {
        const OPS: usize = 20_000;
        for _ in 0..OPS {
            u = (u + 1) % 3;
            black_box(decide_tier(&mut profile, 3, u, 10));
        }
        OPS
    });
}

/// The snapshot layer taken apart, on `exp`'s world at a quarter of its
/// horizon: encode, restore, the two halves of the state, the checksum,
/// and publishing the bytes through `MemFs` and `RealFs`.
pub fn snapshot_layers(exp: &Experiment, kind: SchedKind, tracer: &mut Tracer, out: &mut Outcome) {
    let build = || kind.build(exp.sim.seed ^ 0xA5A5);
    let mut sched = build();
    let mut world = World::new(exp.sim, &exp.workload, sched.name());
    world.run_until(exp.sim.horizon_ms() / 4, &mut *sched, &mut []);

    let mut bytes = Vec::new();
    per_op("sim.snapshot.encode_ms", 1e-3, tracer, out, || {
        bytes = snapshot_world(&world, &*sched).expect("shipped schedulers snapshot");
        1
    });
    let encode_ms = out.value("sim.snapshot.encode_ms");
    out.put(
        "sim.snapshot.encode_mb_per_s",
        Reading::exact(bytes.len() as f64 / 1e6 / (encode_ms / 1e3)),
    );
    per_op("sim.snapshot.restore_ms", 1e-3, tracer, out, || {
        let mut fresh = build();
        black_box(resume_world(&bytes, exp.sim, &exp.workload, &mut *fresh).expect("own bytes"));
        1
    });

    let mut w = SnapWriter::new();
    world.encode_state(&mut w);
    out.put(
        "sim.snapshot.world_state_bytes",
        Reading::exact(w.len() as f64),
    );
    let mut w = SnapWriter::new();
    sched
        .save_state(&mut w)
        .expect("shipped schedulers snapshot");
    out.put(
        "sim.snapshot.scheduler_state_bytes",
        Reading::exact(w.len() as f64),
    );
    drop(world);

    let mb = bytes.len() as f64 / 1e6;
    let rates: Vec<f64> = timed_rounds("core.snapshot.checksum", tracer, || {
        black_box(checksum(&bytes));
        1
    })
    .iter()
    .map(|secs| mb / secs)
    .collect();
    out.put("core.snapshot.checksum_mb_per_s", Reading::of(&rates));

    let mut mem = MemFs::new();
    per_op("sim.checkpoint.publish_memfs_ms", 1e-3, tracer, out, || {
        mem.write_atomic("ckpt/a.vsnp", &bytes)
            .expect("MemFs cannot fail");
        1
    });
    drop(mem);

    // The same bytes through the real disk: reported with its quartiles,
    // feeding no bound (0.09–2.06 s from one call to the next here).
    let path = scratch_path("publish.vsnp");
    let mut real = RealFs;
    let mut failed = false;
    per_op("core.faultio.publish_realfs_ms", 1e-3, tracer, out, || {
        failed |= real.write_atomic(&path, &bytes).is_err();
        1
    });
    per_op("core.faultio.read_realfs_ms", 1e-3, tracer, out, || {
        failed |= real.read(&path).is_err();
        1
    });
    let _ = real.remove(&path);
    out.attempted += 1;
    if failed {
        out.fail(format!("RealFs publish/read of {path}"));
    }
}

/// `serve.wal.append_us.*` over `RealFs` under each sync policy, and
/// `serve.wal.recover_ms` over a 200 k-record journal.
pub fn wal(tracer: &mut Tracer, out: &mut Outcome) {
    let line = r#"{"vt":43200000,"cmd":"advance","ms":60000}"#;
    for (name, policy, records) in [
        ("serve.wal.append_us.always", SyncPolicy::Always, 50),
        ("serve.wal.append_us.batch", SyncPolicy::Batch, 2_000),
        ("serve.wal.append_us.off", SyncPolicy::Off, 2_000),
    ] {
        let path = scratch_path("micro.wal");
        let mut failed = false;
        per_op(name, 1e-6, tracer, out, || {
            let written = WalWriter::create(shared_fs(RealFs), &path, policy).and_then(|mut w| {
                for _ in 0..records {
                    w.append(line)?;
                }
                Ok(())
            });
            failed |= written.is_err();
            records
        });
        let _ = std::fs::remove_file(&path);
        out.attempted += 1;
        if failed {
            out.fail(format!("{name}: append to {path} failed"));
        }
    }

    let fs = shared_fs(MemFs::new());
    let mut w = WalWriter::create(fs.clone(), "j.wal", SyncPolicy::Off).expect("MemFs");
    for _ in 0..200_000 {
        w.append(line).expect("MemFs");
    }
    w.seal().expect("MemFs");
    let bytes = fs.borrow_mut().read("j.wal").expect("just written");
    let mut lines = 0;
    per_op("serve.wal.recover_ms", 1e-3, tracer, out, || {
        lines = recover_journal(&bytes).map_or(0, |r| r.lines.len());
        1
    });
    out.attempted += 1;
    if lines != 200_000 {
        out.fail(format!("recover_journal kept {lines} of 200000 records"));
    }
}

/// The serve plane with no socket: `Command::parse_line`, then the
/// session script applied in-process through
/// [`ServeSession::apply_line`], timed per command, and
/// `World::metrics_frame` on the world it leaves. Returns the in-process
/// `advance` median in microseconds.
pub fn session_in_process(
    setup: &LiveSetup,
    script: &[String],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    per_op("serve.protocol.parse_ns", 1e-9, tracer, out, || {
        for line in script.iter().take(4_000) {
            black_box(Command::parse_line(line).is_ok());
        }
        script.len().min(4_000)
    });

    let span = tracer.begin("serve.session.in_process");
    let mut session = ServeSession::with_fs(
        setup.config,
        setup.spec.clone(),
        &setup.workload,
        shared_fs(MemFs::new()),
    )
    .expect("the spec the served sessions use");
    let cmds = ["advance", "stats", "query-job", "submit"];
    let mut us: [Vec<f64>; 4] = Default::default();
    for line in script {
        let Some(idx) = cmds
            .iter()
            .position(|c| line.contains(&format!("\"cmd\":\"{c}\"")))
        else {
            // checkpoint, fork and save-workload are end-to-end metrics.
            continue;
        };
        let t = Instant::now();
        let outcome = session.apply_line(line);
        us[idx].push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        if outcome.journal.is_none() {
            out.fail(format!("in-process {line} was rejected"));
        }
    }
    tracer.end(span);
    for (idx, cmd) in cmds.iter().enumerate() {
        out.put(
            &format!("serve.session.apply_us.{cmd}"),
            Reading::of(&us[idx]),
        );
    }

    let world = session.world();
    per_op("metrics.frame_build_us", 1e-6, tracer, out, || {
        const OPS: usize = 2_000;
        for _ in 0..OPS {
            black_box(world.metrics_frame());
        }
        OPS
    });
    crate::stats::median(&us[0])
}
