//! Figure 3 — the motivating toy example: one Keyboard job (3 devices, any
//! device eligible) and two Emoji jobs (4 devices each, only half the
//! devices eligible); one device checks in per time unit.
//!
//! Paper values: Random ≈ 12, SRSF = 11, optimal = 9.3 average JCT.
//!
//! Run: `cargo run --release -p venn-bench --bin fig3_toy`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use venn_metrics::Table;
use venn_opt::{solve, Arrival, Instance};

/// Keyboard = job 0 (eligible: all); Emoji = jobs 1, 2 (odd arrivals only).
fn toy_instance(horizon: u64) -> Instance {
    let arrivals: Vec<Arrival> = (1..=horizon)
        .map(|t| Arrival {
            time: t,
            eligible: if t % 2 == 1 { 0b111 } else { 0b001 },
        })
        .collect();
    Instance::new(vec![3, 4, 4], arrivals)
}

/// Average completion of a fixed job priority order (first eligible job in
/// the order takes each device) — the schedule shape Random/SRSF produce.
fn avg_of_order(inst: &Instance, order: &[usize]) -> Option<f64> {
    venn_opt::fixed_order_cost(inst, order).map(|c| c as f64 / 3.0)
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

fn main() {
    venn_bench::cli::no_args();
    let inst = toy_instance(20);
    let random = random_matching_avg(&inst, 20_000, 3);

    // SRSF: smallest demand first = keyboard (3) then the emoji jobs.
    let srsf = avg_of_order(&inst, &[0, 1, 2]).expect("feasible");

    // Venn's IRS insight: scarce (emoji-eligible) devices are reserved for
    // the emoji group, served one job at a time; keyboard eats the rest.
    // This is exactly the optimal schedule here.
    let optimal = solve(&inst).expect("feasible").avg_completion();

    let mut table = Table::new("Figure 3: toy example average JCT", &["avg JCT"]);
    table.row("Random matching", &[random]);
    table.row("SRSF", &[srsf]);
    table.row("Optimal (= Venn's order)", &[optimal]);
    println!("{table}");
    println!("(paper: Random 12, SRSF 11, optimal 9.3)");

    assert_eq!(srsf, 11.0, "SRSF trace must match the paper");
    assert!((optimal - 28.0 / 3.0).abs() < 1e-9, "optimal must be 9.33");
    assert!(random > srsf, "random must be worst");
}
