//! Figures 2a, 2b/8a, and 8b — the trace statistics the evaluation rests
//! on: diurnal device availability, the capacity distribution with its
//! four eligibility regions, and the job demand marginals.
//!
//! Run: `cargo run --release -p venn-bench --bin fig2_traces`

use rand::rngs::StdRng;
use rand::SeedableRng;
use venn_core::{CategoryThresholds, SpecCategory, DAY_MS, HOUR_MS};
use venn_metrics::{Histogram, Series, Table};
use venn_traces::{AvailabilityModel, CapacityModel, JobDemandModel};

fn main() {
    venn_bench::cli::no_args();
    let mut rng = StdRng::seed_from_u64(20);

    // --- Fig. 2a: % of clients online over 96 h.
    let avail = AvailabilityModel::default();
    let population = 4_000;
    let sessions = avail.generate(population, 4, &mut rng);
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
    let mut cpu_hist = Histogram::new(0.0, 1.0, 20);
    let mut mem_hist = Histogram::new(0.0, 1.0, 20);
    for d in &pop {
        cpu_hist.record(d.capacity.cpu());
        mem_hist.record(d.capacity.mem());
    }
    println!("normalized CPU score distribution:\n{}", cpu_hist.render());
    println!(
        "normalized memory score distribution:\n{}",
        mem_hist.render()
    );

    // --- Fig. 8b: job demand trace marginals.
    let model = JobDemandModel::default();
    let mut rounds_hist = Histogram::new(0.0, model.rounds_max as f64, 15);
    let mut demand_hist = Histogram::new(0.0, model.demand_max as f64, 15);
    for _ in 0..5_000 {
        let (r, d, _) = model.sample(&mut rng);
        rounds_hist.record(r as f64);
        demand_hist.record(d as f64);
    }
    println!(
        "Fig 8b: # rounds per job (scaled-down marginal):\n{}",
        rounds_hist.render()
    );
    println!(
        "Fig 8b: # participants per round (scaled-down marginal):\n{}",
        demand_hist.render()
    );
}
