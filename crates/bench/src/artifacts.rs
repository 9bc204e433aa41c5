//! The paper's evaluation artifacts (§5: Tables 1–4 and Figs. 2–5 and
//! 9–14, plus one design ablation and one diagnostic) as one registry,
//! run by the `reproduce` binary: `reproduce NAME [SEEDS]`.
//!
//! Each [`Artifact`] holds its name, its seed axis (first seed and
//! default count, or none), the paper reference line printed after its
//! output, and the one function that prints it. The speed-up sweeps share
//! `sweep`: every row in one [`Matrix`], one [`run_matrix`], one
//! `speedup_summary` fold.

use std::num::NonZeroUsize;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use venn_core::fairness::fair_target_ms;
use venn_core::{
    Capacity, CategoryThresholds, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler,
    SpecCategory, VennConfig, VennScheduler, DAY_MS, HOUR_MS, MINUTE_MS,
};
use venn_fl::{FedAvg, FedAvgConfig, FederatedDataset, FlDataConfig};
use venn_metrics::{Histogram, Series, Table};
use venn_opt::{solve, Arrival, Instance};
use venn_sim::{SimConfig, SimResult, Simulation};
use venn_traces::{
    AvailabilityModel, BiasKind, CapacityModel, JobDemandModel, Workload, WorkloadKind,
};

use crate::cli::{parse, unknown};
use crate::{
    run, run_matrix, speedup_summary, subset_speedup, with_baseline, Experiment, Matrix, MatrixRun,
    ScenarioSpeedups, SchedKind,
};

/// One reproducible artifact of the paper's evaluation.
pub struct Artifact {
    /// The name `reproduce` takes.
    pub name: &'static str,
    /// `(first seed, default seed count)`, or `None` for an artifact
    /// that takes no seeds.
    seeds: Option<(u64, usize)>,
    /// The paper reference line printed after the output; `{seeds}`
    /// stands for the seed count.
    paper: Option<&'static str>,
    /// Prints the artifact over the given seeds (none if it takes none).
    run: fn(&[u64]),
}

impl Artifact {
    const fn new(name: &'static str, run: fn(&[u64])) -> Artifact {
        Artifact {
            name,
            seeds: None,
            paper: None,
            run,
        }
    }

    /// An artifact over the seeds `first ..`, `default` of them unless
    /// `SEEDS` is given.
    const fn seeded(name: &'static str, run: fn(&[u64]), first: u64, default: usize) -> Artifact {
        Artifact {
            seeds: Some((first, default)),
            ..Artifact::new(name, run)
        }
    }

    const fn paper(self, line: &'static str) -> Artifact {
        Artifact {
            paper: Some(line),
            ..self
        }
    }

    /// Prints the artifact, then its paper reference line.
    pub fn reproduce(&self, seeds: &[u64]) {
        (self.run)(seeds);
        if let Some(paper) = self.paper {
            println!("{}", paper.replace("{seeds}", &seeds.len().to_string()));
        }
    }
}

/// Every artifact, in the order `reproduce --help` lists them.
pub const ARTIFACTS: [Artifact; 16] = [
    Artifact::seeded("table1", table1, 100, 3)
        .paper("(averaged over {seeds} seeds; paper: Venn 1.63x-1.88x)"),
    Artifact::new("table2", table2)
        .paper("(paper shape: the smaller the jobs, the larger the improvement)"),
    Artifact::new("table3", table3).paper("(paper shape: scarcer-requirement jobs gain the most)"),
    Artifact::seeded("table4", table4, 800, 2)
        .paper("(paper: FIFO 1.46-1.73, SRSF 1.78-2.08, Venn 1.94-2.27)"),
    Artifact::new("fig2", fig2),
    Artifact::new("fig3", fig3).paper("(paper: Random 12, SRSF 11, optimal 9.3)"),
    Artifact::new("fig4", fig4)
        .paper("(paper Fig 4: more concurrent jobs -> slower round-to-accuracy)"),
    Artifact::new("fig5", fig5)
        .paper("(paper Fig 5: scheduling delay grows with contention and dominates)"),
    Artifact::new("fig9", fig9)
        .paper("(paper Fig 9: Venn converges fastest; final accuracy unaffected)"),
    Artifact::new("fig10", fig10).paper("(paper Fig 10: 0.2-1 ms per trigger at this scale)"),
    Artifact::seeded("fig11", fig11, 300, 3)
        .paper("(paper Low: 1.0/1.55/1.62/1.79/1.88; High: 1.0/1.42/1.42/1.63/1.63)"),
    Artifact::seeded("fig12", fig12, 900, 2)
        .paper("(paper: Venn leads at every job count; gains grow with contention)"),
    Artifact::seeded("fig13", fig13, 950, 2).paper("(paper: gains rise with V then plateau)"),
    Artifact::seeded("fig14", fig14, 980, 1)
        .paper("(paper: speed-up decreases with eps; eps=2 -> ~69% meet fair JCT)"),
    Artifact::seeded("ablation-steal", ablation_steal, 640, 2)
        .paper("(speed-ups over Random; the gap isolates Algorithm 1's steal step)"),
    Artifact::new("probe-matching", probe_matching),
];

/// The `reproduce` synopsis: the positionals, then one line per artifact.
pub fn synopsis() -> String {
    let mut text = String::from("NAME [SEEDS]\n\nNAME, and what SEEDS (a seed count) means:");
    for a in &ARTIFACTS {
        let seeds = match a.seeds {
            Some((first, default)) => format!("seeds {first}.., {default} by default"),
            None => "takes no seeds".to_string(),
        };
        text.push_str(&format!("\n  {:<16}{seeds}", a.name));
    }
    text
}

/// The artifact and seeds of the positionals `NAME [SEEDS]`; the error
/// of an unknown name lists the valid names.
pub fn select(args: &[String]) -> Result<(&'static Artifact, Vec<u64>), String> {
    let [name, count @ ..] = args else {
        return Err("missing the artifact NAME".to_string());
    };
    let artifact = ARTIFACTS.iter().find(|a| a.name == *name).ok_or_else(|| {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        format!("unknown artifact {name:?} (valid: {})", names.join("|"))
    })?;
    let seeds = match (artifact.seeds, count) {
        (None, []) => Vec::new(),
        (None, [count, ..]) => return Err(format!("{name} takes no seeds, got {count:?}")),
        (Some((first, default)), []) => (first..).take(default).collect(),
        (Some((first, _)), [count]) => {
            let n = parse::<NonZeroUsize>("seed count", count)?.get();
            (first..).take(n).collect()
        }
        (Some(_), [_, extra, ..]) => return Err(unknown(extra)),
    };
    Ok((artifact, seeds))
}

/// One speed-up sweep row per `(label, workload, bias, jobs)`: the
/// paper's default experiment with that many jobs.
fn rows<'a, L: Into<String>>(
    rows: impl IntoIterator<Item = (L, WorkloadKind, Option<BiasKind>, usize)>,
) -> Matrix<'a> {
    rows.into_iter()
        .fold(Matrix::new(), |matrix, (label, wk, bias, jobs)| {
            matrix.scenario(label, move |seed| {
                Experiment::with_jobs(wk, bias, jobs, seed)
            })
        })
}

/// The five workload scenarios (Even/Small/Large/Low/High), one row each.
fn workload_rows<'a>() -> Matrix<'a> {
    rows(WorkloadKind::ALL.map(|wk| (wk.label(), wk, None, 50)))
}

/// The one speed-up sweep: every row × `kinds` (plus the Random
/// baseline) × `seeds` runs in one [`run_matrix`], and
/// `speedup_summary` folds each row to its mean speed-ups over Random.
fn sweep(
    rows: Matrix,
    kinds: &[SchedKind],
    seeds: &[u64],
) -> (Vec<MatrixRun>, Vec<ScenarioSpeedups>) {
    let runs = run_matrix(&rows.kinds(&with_baseline(kinds)).seeds(seeds));
    let summary = speedup_summary(&runs, kinds);
    for row in &summary {
        eprintln!(
            "{}: speed-ups {:?} completion {:?}",
            row.scenario, row.speedups, row.completion
        );
    }
    (runs, summary)
}

/// [`sweep`] printed as a table with one line per row.
fn print_speedups(title: &str, columns: &[&str], rows: Matrix, kinds: &[SchedKind], seeds: &[u64]) {
    let mut table = Table::new(title, columns);
    for row in sweep(rows, kinds, seeds).1 {
        table.row(&row.scenario, &row.speedups);
    }
    println!("{table}");
}

/// [`print_speedups`] of the headline schedulers FIFO, SRSF and Venn
/// (Tables 1 and 4, Fig. 12).
fn headline(title: &str, rows: Matrix, seeds: &[u64]) {
    let kinds = [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn];
    print_speedups(title, &kinds.map(|k| k.label()), rows, &kinds, seeds);
}

/// Table 1 — average-JCT improvement over Random matching for FIFO, SRSF,
/// and Venn across the five workload scenarios (Even/Small/Large/Low/High).
///
/// Paper reference values: Venn 1.63×–1.88×, always ahead of FIFO and SRSF.
fn table1(seeds: &[u64]) {
    headline(
        "Table 1: avg JCT speed-up over Random matching",
        workload_rows(),
        seeds,
    );
}

/// Random vs Venn on every workload at `seed`; each column is the speed-up
/// over Random restricted to one of the job subsets `slices` cuts from
/// the workload.
fn sliced_speedups(
    title: &str,
    columns: &[&str],
    seed: u64,
    slices: fn(&Workload) -> Vec<Vec<usize>>,
) {
    let kinds = [SchedKind::Random, SchedKind::Venn];
    let runs = run_matrix(&workload_rows().kinds(&kinds).seeds(&[seed]));
    let mut table = Table::new(title, columns);
    // Cells come row by row, each row's kinds in order.
    for (wk, pair) in WorkloadKind::ALL.into_iter().zip(runs.chunks(kinds.len())) {
        let workload = Experiment::paper_default(wk, None, seed).workload;
        let row: Vec<f64> = slices(&workload)
            .iter()
            .map(|subset| {
                subset_speedup(&pair[0].result, &pair[1].result, subset).unwrap_or(f64::NAN)
            })
            .collect();
        table.row(wk.label(), &row);
    }
    println!("{table}");
}

/// Table 2 — Venn's average-JCT improvement over Random for the jobs with
/// the lowest 25 % / 50 % / 75 % of total demand, per workload.
///
/// Paper shape: smaller jobs benefit the most (e.g. Even: 11.5× / 7.2× /
/// 5.6× on the smallest quartile → 75 %).
fn table2(_: &[u64]) {
    sliced_speedups(
        "Table 2: Venn speed-up over Random by total-demand percentile",
        &["25th", "50th", "75th"],
        600,
        |workload| {
            // Rank jobs by total demand, ascending.
            let mut order: Vec<usize> = (0..workload.jobs.len()).collect();
            order.sort_by_key(|&i| workload.jobs[i].total_demand());
            let take =
                |pct: f64| order[..((order.len() as f64 * pct).ceil() as usize).max(1)].to_vec();
            vec![take(0.25), take(0.50), take(0.75)]
        },
    );
}

/// Table 3 — Venn's average-JCT improvement over Random broken down by the
/// jobs' device-requirement category, per workload.
///
/// Paper shape: jobs asking for scarcer resources (Compute-/Memory-rich,
/// High-Perf) benefit more than General jobs.
fn table3(_: &[u64]) {
    sliced_speedups(
        "Table 3: Venn speed-up over Random by requirement category",
        &["General", "Compute", "Memory", "High-perf"],
        700,
        |workload| {
            let in_category = |cat| {
                (0..workload.jobs.len())
                    .filter(|&i| workload.jobs[i].category == cat)
                    .collect()
            };
            SpecCategory::ALL.map(in_category).to_vec()
        },
    );
}

/// Table 4 — biased workloads case study: half of each workload's jobs ask
/// for one favored category (General / Compute / Memory / High-Perf), the
/// rest spread evenly, creating uneven queue lengths across job groups.
///
/// Paper values: FIFO 1.46-1.73×, SRSF 1.78-2.08×, Venn 1.94-2.27×.
fn table4(seeds: &[u64]) {
    let biased = BiasKind::ALL.map(|b| (b.label(), WorkloadKind::Even, Some(b), 50));
    headline(
        "Table 4: avg JCT speed-up over Random on biased workloads",
        rows(biased),
        seeds,
    );
}

/// Figures 2a, 2b/8a, and 8b — the trace statistics the evaluation rests
/// on: diurnal device availability, the capacity distribution with its
/// four eligibility regions, and the job demand marginals.
fn fig2(_: &[u64]) {
    let mut rng = StdRng::seed_from_u64(20);

    // --- Fig. 2a: % of clients online over 96 h.
    let population = 4_000;
    let sessions = AvailabilityModel::default().generate(population, 4, &mut rng);
    let curve =
        AvailabilityModel::online_fraction_curve(&sessions, population, 4 * DAY_MS, HOUR_MS);
    let mut series = Series::new("Fig 2a: % of clients online (x = hours)");
    for (t, f) in &curve {
        series.point(*t as f64 / HOUR_MS as f64, f * 100.0);
    }
    println!("{series}");
    let steady: Vec<f64> = curve
        .iter()
        .filter(|(t, _)| *t >= DAY_MS)
        .map(|(_, f)| f * 100.0)
        .collect();
    let peak = steady.iter().cloned().fold(0.0, f64::max);
    let trough = steady.iter().cloned().fold(100.0, f64::min);
    println!(
        "diurnal swing after warm-up: {trough:.1}% - {peak:.1}% \
         (paper Fig 2a: ~15-30%)\n"
    );

    // --- Fig. 2b / 8a: capacity distribution and region populations.
    let thresholds = CategoryThresholds {
        cpu: 0.55,
        mem: 0.55,
    };
    let pop = CapacityModel::default().sample_population(20_000, &mut rng);
    let fractions = CapacityModel::region_fractions(&pop, thresholds);
    let mut table = Table::new(
        "Fig 2b/8a: device eligibility regions (finest region per device)",
        &["fraction"],
    );
    for (cat, frac) in SpecCategory::ALL.iter().zip(fractions) {
        table.row(cat.label(), &[frac]);
    }
    println!("{table}");
    let show = |what: &str, hist: &Histogram| println!("{what}:\n{}", hist.render());
    let mut cpu_hist = Histogram::new(0.0, 1.0, 20);
    let mut mem_hist = Histogram::new(0.0, 1.0, 20);
    for d in &pop {
        cpu_hist.record(d.capacity.cpu());
        mem_hist.record(d.capacity.mem());
    }
    show("normalized CPU score distribution", &cpu_hist);
    show("normalized memory score distribution", &mem_hist);

    // --- Fig. 8b: job demand trace marginals.
    let model = JobDemandModel::default();
    let mut rounds_hist = Histogram::new(0.0, model.rounds_max as f64, 15);
    let mut demand_hist = Histogram::new(0.0, model.demand_max as f64, 15);
    for _ in 0..5_000 {
        let (r, d, _) = model.sample(&mut rng);
        rounds_hist.record(r as f64);
        demand_hist.record(d as f64);
    }
    show(
        "Fig 8b: # rounds per job (scaled-down marginal)",
        &rounds_hist,
    );
    show(
        "Fig 8b: # participants per round (scaled-down marginal)",
        &demand_hist,
    );
}

/// Figure 3 — the motivating toy example: one Keyboard job (3 devices, any
/// device eligible) and two Emoji jobs (4 devices each, only half the
/// devices eligible); one device checks in per time unit.
///
/// Paper values: Random ≈ 12, SRSF = 11, optimal = 9.3 average JCT.
fn fig3(_: &[u64]) {
    // Keyboard = job 0 (eligible: all); Emoji = jobs 1, 2 (odd arrivals only).
    let arrivals: Vec<Arrival> = (1..=20)
        .map(|t| Arrival {
            time: t,
            eligible: if t % 2 == 1 { 0b111 } else { 0b001 },
        })
        .collect();
    let inst = Instance::new(vec![3, 4, 4], arrivals);
    let random = random_matching_avg(&inst, 20_000, 3);

    // SRSF: smallest demand first = keyboard (3) then the emoji jobs; the
    // first eligible job in the order takes each device.
    let srsf = venn_opt::fixed_order_cost(&inst, &[0, 1, 2]).expect("feasible") as f64 / 3.0;

    // Venn's IRS insight: scarce (emoji-eligible) devices are reserved for
    // the emoji group, served one job at a time; keyboard eats the rest.
    // This is exactly the optimal schedule here.
    let optimal = solve(&inst).expect("feasible").avg_completion();

    let mut table = Table::new("Figure 3: toy example average JCT", &["avg JCT"]);
    table.row("Random matching", &[random]);
    table.row("SRSF", &[srsf]);
    table.row("Optimal (= Venn's order)", &[optimal]);
    println!("{table}");

    assert_eq!(srsf, 11.0, "SRSF trace must match the paper");
    assert!((optimal - 28.0 / 3.0).abs() < 1e-9, "optimal must be 9.33");
    assert!(random > srsf, "random must be worst");
}

/// Monte-Carlo per-device random matching (the paper's Fig. 3b baseline):
/// every arrival picks uniformly among eligible jobs with unmet demand.
fn random_matching_avg(inst: &Instance, trials: u32, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for _ in 0..trials {
        let mut remaining = inst.demands().to_vec();
        let mut sum = 0u64;
        for arrival in inst.arrivals() {
            let candidates: Vec<usize> = (0..remaining.len())
                .filter(|&j| remaining[j] > 0 && arrival.eligible & (1 << j) != 0)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let j = candidates[rng.gen_range(0..candidates.len())];
            remaining[j] -= 1;
            if remaining[j] == 0 {
                sum += arrival.time;
            }
        }
        total += sum as f64 / inst.demands().len() as f64;
    }
    total / trials as f64
}

/// Clients of the federated dataset behind Figs. 4 and 9.
const CLIENTS: usize = 200;

fn fl_dataset(rng: &mut StdRng) -> FederatedDataset {
    let config = FlDataConfig {
        clients: CLIENTS,
        ..FlDataConfig::default()
    };
    FederatedDataset::generate(config, rng)
}

/// Figure 4 — impact of resource contention on model quality: the client
/// pool is evenly partitioned among 1/5/10/20 concurrent jobs; each job
/// wants 20 participants per round but can only draw from its partition.
/// More jobs → smaller partitions → less participant diversity → worse
/// round-to-accuracy.
fn fig4(_: &[u64]) {
    const ROUNDS: usize = 40;
    const TARGET_PER_ROUND: usize = 20;
    let mut rng = StdRng::seed_from_u64(44);
    let data = fl_dataset(&mut rng);
    for jobs in [1usize, 5, 10, 20] {
        let partition = CLIENTS / jobs;
        // Train every job on its own partition; report the average curve.
        let mut runs: Vec<FedAvg> = (0..jobs)
            .map(|_| FedAvg::new(data.clone(), FedAvgConfig::default()))
            .collect();
        let mut series = Series::new(&format!("{jobs} job(s) (x = round)"));
        for round in 0..ROUNDS {
            let mut acc_sum = 0.0;
            for (j, fed) in runs.iter_mut().enumerate() {
                let base = j * partition;
                let k = TARGET_PER_ROUND.min(partition);
                let participants: Vec<usize> =
                    (0..k).map(|_| base + rng.gen_range(0..partition)).collect();
                fed.run_round(&participants);
                acc_sum += fed.test_accuracy();
            }
            series.point(round as f64, acc_sum / jobs as f64);
        }
        println!("{series}");
        println!(
            "final avg accuracy with {jobs:>2} job(s): {:.3}\n",
            series.last_y().unwrap()
        );
    }
}

/// Figure 5 — breakdown of one round's completion time under random
/// device-to-job matching: average scheduling delay vs response collection
/// time as the number of concurrent jobs grows.
///
/// Paper shape: scheduling delay grows sharply with contention and
/// dominates response time once demand outstrips supply.
fn fig5(_: &[u64]) {
    let mut table = Table::new(
        "Figure 5: per-round JCT breakdown under random matching (seconds)",
        &["sched delay", "resp. time"],
    );
    for jobs in [5usize, 10, 20, 40] {
        let exp = Experiment::with_jobs(WorkloadKind::Even, None, jobs, 500);
        let r = run(&exp, SchedKind::Random);
        // Per completed round averages across jobs.
        let (mut sched, mut resp, mut rounds) = (0.0, 0.0, 0u64);
        for rec in &r.records {
            sched += rec.sched_delay_ms as f64;
            resp += rec.response_ms as f64;
            rounds += rec.rounds_completed as u64;
        }
        let rounds = rounds.max(1) as f64;
        table.row(
            &format!("{jobs} jobs"),
            &[sched / rounds / 1000.0, resp / rounds / 1000.0],
        );
    }
    println!("{table}");
}

/// Figure 9 — end-to-end CL experiment: average test accuracy over
/// wall-clock time under FIFO, SRSF, and Venn. The scheduler decides *when*
/// each job's rounds run and *which* devices participate; FedAvg turns the
/// resulting participant sets into accuracy curves.
///
/// Paper shape: Venn converges fastest in wall-clock time; the final
/// accuracy is the same for all schedulers.
fn fig9(_: &[u64]) {
    let seed = 77;
    let demand = JobDemandModel {
        rounds_mean: 8.0,
        rounds_max: 15,
        demand_mean: 15.0,
        demand_max: 30,
        ..JobDemandModel::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let interarrival = 10.0 * MINUTE_MS as f64;
    let workload = Workload::generate(
        WorkloadKind::Even,
        None,
        16,
        &demand,
        interarrival,
        &mut rng,
    );
    let sim = SimConfig {
        seed,
        record_rounds: true,
        ..SimConfig::default()
    };
    let data = fl_dataset(&mut StdRng::seed_from_u64(seed ^ 0xF00D));

    for kind in [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn] {
        let mut scheduler = kind.build(seed);
        let result = Simulation::new(sim).run(&workload, &mut *scheduler);

        // Replay each job's rounds through FedAvg in completion order and
        // sample the accuracy averaged across jobs on a 30-minute grid.
        let mut runs: Vec<FedAvg> = (0..workload.jobs.len())
            .map(|_| FedAvg::new(data.clone(), FedAvgConfig::default()))
            .collect();
        // Every curve starts at an untrained 10-class model's accuracy.
        let mut acc = vec![0.1; runs.len()];
        let mut series = Series::new(&format!("{} (x = hours)", kind.label()));
        let mut t = 0u64;
        let mut sample_before = |end: u64, acc: &[f64]| {
            while t < end {
                let mean = acc.iter().sum::<f64>() / acc.len() as f64;
                series.point(t as f64 / 3_600_000.0, mean);
                t += 30 * MINUTE_MS;
            }
        };
        let mut rounds = result.rounds.clone();
        rounds.sort_by_key(|r| r.end_ms);
        for log in &rounds {
            sample_before(log.end_ms, &acc);
            let participants: Vec<usize> = log.participants.iter().map(|d| d % CLIENTS).collect();
            runs[log.job_idx].run_round(&participants);
            acc[log.job_idx] = runs[log.job_idx].test_accuracy();
        }
        sample_before(rounds.last().map_or(0, |r| r.end_ms) + 1, &acc);
        println!("{series}");
        println!(
            "{}: final avg accuracy {:.3}, avg JCT {:.0}s, completion {:.2}\n",
            kind.label(),
            series.last_y().unwrap_or(0.0),
            result.avg_jct_ms() / 1000.0,
            result.completion_rate()
        );
    }
}

/// Figure 10 — scheduler overhead: latency of one scheduling trigger
/// (Algorithm 1 rebuild + matching decision) as the number of jobs and job
/// groups grows.
///
/// Paper values: sub-millisecond per trigger up to 1 000 jobs / 100 groups
/// thanks to the `max(O(m log m), O(n²))` complexity. The benchmark's
/// per-layer `core.irs.allocate_us` row tracks the same quantity.
fn fig10(_: &[u64]) {
    // (label, jobs, groups, seed) per row.
    let by_jobs = [100, 250, 500, 750, 1_000].map(|n| (format!("{n} jobs"), n, 20, 1));
    let by_groups = [20, 40, 60, 80, 100].map(|n| (format!("{n} groups"), 500, n, 2));
    let left = "Figure 10 (left): trigger latency vs number of jobs (20 groups)";
    let right = "Figure 10 (right): trigger latency vs number of job groups (500 jobs)";
    for (title, cases) in [(left, by_jobs), (right, by_groups)] {
        let mut table = Table::new(title, &["latency (us)"]);
        for (label, jobs, groups, seed) in cases {
            let mut venn = loaded_scheduler(jobs, groups, seed);
            let start = Instant::now();
            for i in 0..50 {
                venn.rebuild_now(10_000 + i);
            }
            table.row(&label, &[start.elapsed().as_secs_f64() * 1e6 / 50.0]);
        }
        println!("{table}");
    }
}

/// Builds a Venn scheduler preloaded with `jobs` jobs over `groups`
/// distinct specs and a populated supply window.
fn loaded_scheduler(jobs: usize, groups: usize, seed: u64) -> VennScheduler {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut venn = VennScheduler::new(VennConfig::default());
    // Supply: 4 000 recorded check-ins across the capacity square.
    for i in 0..4_000u64 {
        let cap = Capacity::new(rng.gen(), rng.gen());
        venn.on_check_in(&DeviceInfo::new(DeviceId::new(i), cap), i);
    }
    // Distinct quadrant specs, then jobs round-robin over them.
    let specs: Vec<ResourceSpec> = (0..groups)
        .map(|g| {
            let t = g as f64 / groups as f64 * 0.9;
            ResourceSpec::new(t, t * 0.8)
        })
        .collect();
    for j in 0..jobs {
        let demand = 1 + (j % 50) as u32;
        let request = Request::new(
            JobId::new(j as u64),
            specs[j % groups],
            demand,
            100 + j as u64,
        );
        venn.submit(request, 5_000);
    }
    venn
}

/// Figure 11 — average-JCT improvement breakdown of Venn's two components
/// on the Low and High workloads.
///
/// Paper reference: Low — Random 1.0, FIFO 1.55, Venn w/o sched 1.62,
/// Venn w/o match 1.79, Venn 1.88. High — 1.0 / 1.42 / 1.42 / 1.63 / 1.63.
/// Tier matching matters most when contention is low (response collection
/// dominates); IRS matters most when contention is high.
fn fig11(seeds: &[u64]) {
    let kinds = [
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::VennWoSched,
        SchedKind::VennWoMatch,
        SchedKind::Venn,
    ];
    print_speedups(
        "Figure 11: avg JCT improvement breakdown",
        &kinds.map(|k| k.label()),
        rows([WorkloadKind::Low, WorkloadKind::High].map(|wk| (wk.label(), wk, None, 50))),
        &kinds,
        seeds,
    );
}

/// Figure 12 — average-JCT improvement of Venn / SRSF / FIFO over Random
/// as the number of concurrent jobs grows (25 / 50 / 75).
///
/// Paper shape: Venn stays ahead, and its margin grows with contention.
fn fig12(seeds: &[u64]) {
    let job_counts = [25, 50, 75].map(|n| (format!("{n} jobs"), WorkloadKind::Even, None, n));
    headline(
        "Figure 12: speed-up over Random vs number of jobs (Even workload)",
        rows(job_counts),
        seeds,
    );
}

/// Figure 13 — Venn's improvement across the number of device tiers V used
/// by the matching algorithm (1 = no tiering).
///
/// Paper shape: improvement rises with tier granularity, then plateaus —
/// finer tiers add scheduling delay without further response-time gains.
fn fig13(seeds: &[u64]) {
    let tiers = [1, 2, 3, 4];
    let kinds = tiers.map(|tiers| {
        SchedKind::VennWith(VennConfig {
            tiers,
            ..VennConfig::default()
        })
    });
    let low = rows([("Low", WorkloadKind::Low, None, 50)]);
    let mut table = Table::new(
        "Figure 13: Venn speed-up over Random vs number of tiers (Low workload)",
        &["speed-up"],
    );
    for (v, speedup) in tiers.iter().zip(&sweep(low, &kinds, seeds).1[0].speedups) {
        table.row(&format!("V = {v}"), &[*speedup]);
    }
    println!("{table}");
}

/// Figure 14 — the fairness knob ε: (a) average-JCT speed-up over Random
/// decreases as ε grows; (b) the fraction of jobs that meet their
/// fair-share JCT (`T_i = M · sd_i`) increases with ε.
///
/// `sd_i` (the job's JCT without contention) is estimated analytically from
/// the trace models: rounds × (allocation time at the uncontended eligible
/// arrival rate + straggler-weighted response time). The paper reports
/// ε = 2 putting ~69 % of jobs within their fair share.
fn fig14(seeds: &[u64]) {
    let epsilons = [0.0, 1.0, 2.0, 4.0, 6.0];
    let kinds = epsilons.map(|epsilon| {
        SchedKind::VennWith(VennConfig {
            epsilon,
            ..VennConfig::default()
        })
    });
    let even = rows([("Even", WorkloadKind::Even, None, 50)]);
    let (runs, summary) = sweep(even, &kinds, seeds);
    // Cells come seed by seed: the ε arms in order, then Random.
    let mut fair_sum = [0.0; 5];
    for (&seed, cells) in seeds.iter().zip(runs.chunks(kinds.len() + 1)) {
        let exp = Experiment::paper_default(WorkloadKind::Even, None, seed);
        let sd = uncontended_jct(&exp);
        for (sum, cell) in fair_sum.iter_mut().zip(cells) {
            *sum += fair_share_met(&cell.result, &sd, exp.sim.horizon_ms()) * 100.0;
        }
    }
    let mut table = Table::new(
        "Figure 14: fairness knob epsilon",
        &["speed-up over Random", "% jobs <= fair JCT"],
    );
    let speedups = &summary[0].speedups;
    for ((epsilon, speedup), fair) in epsilons.iter().zip(speedups).zip(fair_sum) {
        let row = [*speedup, fair / seeds.len() as f64];
        table.row(&format!("eps = {epsilon}"), &row);
    }
    println!("{table}");
}

/// The fraction of `venn`'s jobs whose JCT is within their fair share
/// `M_i · sd[i]`, where `M_i` is the number of jobs whose lifetime overlaps
/// job i's — the "simultaneous jobs" in the paper's definition.
fn fair_share_met(venn: &SimResult, sd: &[f64], horizon: u64) -> f64 {
    let windows: Vec<(u64, u64)> = venn
        .records
        .iter()
        .map(|r| (r.arrival_ms, r.finish_ms.unwrap_or(horizon)))
        .collect();
    let met = venn.records.iter().zip(&windows).zip(sd);
    let met = met.filter(|((rec, &(a, f)), &sd)| {
        let m = windows.iter().filter(|(a2, f2)| *a2 < f && *f2 > a).count();
        rec.jct_ms()
            .is_some_and(|jct| jct as f64 <= fair_target_ms(m, sd))
    });
    met.count() as f64 / venn.records.len() as f64
}

/// Analytic uncontended-JCT estimate per job, in milliseconds.
fn uncontended_jct(exp: &Experiment) -> Vec<f64> {
    // Reconstruct the device population the sim will draw (same seed and
    // sampling order as the engine) to measure eligible fractions.
    let mut rng = StdRng::seed_from_u64(exp.sim.seed);
    let pop = CapacityModel::default().sample_population(exp.sim.population, &mut rng);
    let daily_unique = (1.0 - (-1.5f64).exp()) * exp.sim.population as f64;
    exp.workload
        .jobs
        .iter()
        .map(|j| {
            let spec = j.spec(exp.sim.thresholds);
            let frac = pop.iter().filter(|d| spec.is_eligible(&d.capacity)).count() as f64
                / pop.len() as f64;
            // Uncontended, a fresh request captures the idle eligible
            // online pool within one poll interval; only demand beyond
            // that waits for the daily trickle.
            let online_eligible = 0.19 * exp.sim.population as f64 * frac.max(1e-6);
            let trickle_per_ms = (daily_unique * frac.max(1e-6)) / DAY_MS as f64;
            let excess = (j.demand as f64 - online_eligible).max(0.0);
            let alloc_ms = venn_sim::config::REPOLL_MS as f64
                * (1.0 + j.demand as f64 / online_eligible)
                + excess / trickle_per_ms;
            let resp_ms = 1.5 * j.task_ms as f64;
            j.rounds as f64 * (alloc_ms + resp_ms)
        })
        .collect()
}

/// Design-choice ablation (beyond the paper's figures): how much of IRS's
/// benefit comes from the greedy cross-group reallocation (Algorithm 1
/// lines 10–23) versus the scarcest-first seeding alone?
fn ablation_steal(seeds: &[u64]) {
    // The steal step matters most when queue lengths are uneven across
    // groups — exactly the biased workloads of Table 4.
    let biases = [None, Some(BiasKind::General), Some(BiasKind::ComputeHeavy)];
    let label = |bias: Option<BiasKind>| bias.map_or("Even (unbiased)", |b| b.label());
    let scarcity_only = SchedKind::VennWith(VennConfig {
        use_steal: false,
        ..VennConfig::default()
    });
    print_speedups(
        "Ablation: IRS without vs with cross-group reallocation",
        &["scarcity-only", "full IRS"],
        rows(biases.map(|bias| (label(bias), WorkloadKind::Even, bias, 50))),
        &[scarcity_only, SchedKind::Venn],
        seeds,
    );
}

/// Calibration probe: how often does tier-based matching engage, and what
/// cost ratios does it see? Not a paper figure — a diagnostic for the
/// matching trigger (Algorithm 2).
fn probe_matching(_: &[u64]) {
    for wk in [WorkloadKind::Low, WorkloadKind::High, WorkloadKind::Even] {
        let exp = Experiment::paper_default(wk, None, 100);
        let mut venn = VennScheduler::new(VennConfig {
            seed: 1,
            ..VennConfig::default()
        });
        let result = Simulation::new(exp.sim).run(&exp.workload, &mut venn);
        let stats = venn.matching_stats();
        let b = result.breakdown();
        println!(
            "{:>5}: considered={} fired={} not_ready={} mean_c={:.2} | \
             avg_sched={:.0}s avg_resp={:.0}s completion={:.2}",
            wk.label(),
            stats.considered,
            stats.fired,
            stats.not_ready,
            stats.mean_cost_ratio(),
            b.avg_sched_delay_ms() / 1000.0,
            b.avg_response_ms() / 1000.0,
            result.completion_rate(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_each_is_listed_in_the_help_text() {
        let help = synopsis();
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.name != a.name),
                "{}",
                a.name
            );
            let listed = help
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(a.name));
            assert_eq!(listed.count(), 1, "{} in:\n{help}", a.name);
        }
    }
}
