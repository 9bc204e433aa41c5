//! Million-device scale sweep: runs the lazy-storage arm at
//! 10k / 100k / 1M devices (Random and Venn) and writes the results to
//! `BENCH_SCALE.json` — wall time, events/sec, queue pressure, the
//! materialized-device high-water mark, and the allocator high-water mark
//! (this binary installs the tracking allocator).
//!
//! `--check` re-runs the committed file's rows and diffs the
//! deterministic fields (everything except `wall_ms` / `events_per_sec` /
//! `peak_bytes`); `--max-pop N` caps which rows re-run, so CI gates drift
//! at the 100k tier without paying for the 1M rows. `--max-pop` without
//! `--check` is a usage error: the sweep itself always runs every row.
//!
//! Run: `cargo run --release -p venn-bench --bin bench_scale -- --help`

use std::process::ExitCode;

use venn_bench::cli::{self, Cli};
use venn_bench::{check_scale, run_scale_row, scale_json, SCALE_KINDS, SCALE_POPULATIONS};
use venn_metrics::Table;

// The sweep's memory axis: without this opt-in every `peak_bytes` would
// read 0 ("not measured").
#[global_allocator]
static ALLOC: venn_metrics::alloc::TrackingAlloc = venn_metrics::alloc::TrackingAlloc;

fn main() -> ExitCode {
    let mut seed: u64 = 42;
    let mut path = "BENCH_SCALE.json".to_string();
    let mut check = false;
    let mut max_pop = None;
    let mut cli = Cli::new("[SEED] [--json PATH] [--check [--max-pop N]]");
    cli.parse(|cli, arg| {
        match arg {
            "--json" => path = cli.value(arg)?,
            "--check" => check = true,
            "--max-pop" => max_pop = Some(cli.value(arg)?),
            _ => seed = cli::seed(arg)?,
        }
        Ok(())
    });
    // The full sweep has no row cap: without `--check`, a `--max-pop`
    // would be ignored and the 1M rows would overwrite `--json`.
    if max_pop.is_some() && !check {
        cli.fail("--max-pop only applies to --check");
    }
    let max_pop = max_pop.unwrap_or(usize::MAX);

    if check {
        let read = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"));
        return match read.and_then(|json| check_scale(&json, max_pop)) {
            Ok(drifts) if drifts.is_empty() => {
                println!("scale baseline OK ({path}, max-pop {max_pop})");
                ExitCode::SUCCESS
            }
            Ok(drifts) => {
                for d in &drifts {
                    eprintln!("DRIFT: {d}");
                }
                ExitCode::FAILURE
            }
            Err(e) => cli::failure(e),
        };
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

    if let Err(e) = std::fs::write(&path, scale_json(seed, &rows)) {
        return cli::failure(format!("write scale baseline {path}: {e}"));
    }
    eprintln!("wrote scale baseline to {path}");
    ExitCode::SUCCESS
}
