//! Million-device scale sweep: runs the lazy-storage arm at
//! 10k / 100k / 1M devices (Random and Venn) and writes the results to
//! `BENCH_SCALE.json` — wall time, events/sec, queue pressure, the
//! materialized-device high-water mark, and the allocator high-water mark
//! (this binary installs the tracking allocator).
//!
//! `--check` re-runs the committed file's rows and diffs the
//! deterministic fields (everything except `wall_ms` / `events_per_sec` /
//! `peak_bytes`); `--max-pop N` caps which rows re-run, so CI gates drift
//! at the 100k tier without paying for the 1M rows.
//!
//! Run: `cargo run --release -p venn-bench --bin bench_scale [seed]
//!       [--json PATH] [--check] [--max-pop N]`

use venn_bench::{check_scale, run_scale_row, scale_json, SCALE_KINDS, SCALE_POPULATIONS};
use venn_metrics::Table;

// The sweep's memory axis: without this opt-in every `peak_bytes` would
// read 0 ("not measured").
#[global_allocator]
static ALLOC: venn_metrics::alloc::TrackingAlloc = venn_metrics::alloc::TrackingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 42;
    let mut path = "BENCH_SCALE.json".to_string();
    let mut check = false;
    let mut max_pop = usize::MAX;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(p) => path = p.clone(),
                None => {
                    eprintln!("error: --json needs a path");
                    std::process::exit(1);
                }
            }
        } else if arg == "--check" {
            check = true;
        } else if arg == "--max-pop" {
            max_pop = match it.next().map(|s| s.parse()) {
                Some(Ok(n)) => n,
                other => {
                    eprintln!("error: --max-pop needs a number, got {other:?}");
                    std::process::exit(1);
                }
            };
        } else {
            match arg.parse() {
                Ok(s) => seed = s,
                Err(e) => {
                    eprintln!("error: bad seed {arg:?}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    if check {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: read scale baseline {path}: {e}");
            std::process::exit(1);
        });
        match check_scale(&json, max_pop) {
            Ok(drifts) if drifts.is_empty() => {
                println!("scale baseline OK ({path}, max-pop {max_pop})");
            }
            Ok(drifts) => {
                for d in &drifts {
                    eprintln!("DRIFT: {d}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Sequential on purpose: per-run wall time and the process-global
    // allocator peak must not blend across concurrent cells.
    let mut rows = Vec::new();
    for population in SCALE_POPULATIONS {
        for kind in SCALE_KINDS {
            let row = run_scale_row(population, seed, kind);
            eprintln!(
                "{:>9} devices  {:<8} {:>7} ms  {:>9} ev/s  peak live {:>7}  peak {:>5} MiB",
                row.population,
                row.scheduler,
                row.wall_ms,
                row.events_per_sec,
                row.peak_live_devices,
                row.peak_bytes >> 20,
            );
            rows.push(row);
        }
    }

    let mut table = Table::new(
        "Scale sweep (lazy arm)",
        &[
            "scheduler",
            "wall_ms",
            "events/s",
            "peak_queue",
            "peak_live",
            "peak_MiB",
        ],
    );
    for r in &rows {
        table.row_str(
            &r.population.to_string(),
            &[
                r.scheduler.clone(),
                r.wall_ms.to_string(),
                r.events_per_sec.to_string(),
                r.peak_queue_len.to_string(),
                r.peak_live_devices.to_string(),
                (r.peak_bytes >> 20).to_string(),
            ],
        );
    }
    println!("{table}");

    std::fs::write(&path, scale_json(seed, &rows)).unwrap_or_else(|e| {
        eprintln!("error: write scale baseline {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote scale baseline to {path}");
}
