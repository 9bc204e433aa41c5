//! Dumps per-job completion records of one experiment as CSV for external
//! plotting — every scheduler on the same workload, one file per scheduler
//! on stdout separated by headers. With `--json PATH`, also writes the
//! machine-readable benchmark baseline (avg JCT, speed-ups, events/sec,
//! queue pressure) that `check_regression` gates CI against.
//!
//! `--env <preset>` turns on a `venn-env` scenario
//! (`off|flash-crowd|straggler-heavy|mass-dropout|chaos`); the chosen arm
//! is recorded in the JSON header so baseline files are self-describing.
//!
//! `--deterministic` omits the timing telemetry (`wall_ms`,
//! `events_per_sec`) from the JSON so two runs of the same arm produce
//! byte-identical documents — the CI env-preset determinism gate diffs
//! exactly that.
//!
//! Run: `cargo run --release -p venn-bench --bin export_results -- --help`

use std::process::ExitCode;

use venn_bench::cli::{self, Cli};
use venn_bench::{baseline_json, run_baseline};
use venn_env::EnvPreset;
use venn_metrics::csv::Csv;

// Opt into allocation tracking so the emitted `peak_bytes` telemetry is a
// real per-run high-water mark (the runs are sequential, see below).
#[global_allocator]
static ALLOC: venn_metrics::alloc::TrackingAlloc = venn_metrics::alloc::TrackingAlloc;

fn main() -> ExitCode {
    let mut seed: u64 = 42;
    let mut json_path: Option<String> = None;
    let mut env = EnvPreset::Off;
    let mut timing = true;
    let envs = EnvPreset::ALL.map(|p| (p.label(), p));
    Cli::new(
        "[SEED] [--json PATH] \
         [--env off|flash-crowd|straggler-heavy|mass-dropout|chaos] [--deterministic]",
    )
    .parse(|cli, arg| {
        match arg {
            "--json" => json_path = Some(cli.value(arg)?),
            "--env" => env = cli.choice(arg, &envs)?,
            "--deterministic" => timing = false,
            _ => seed = cli::seed(arg)?,
        }
        Ok(())
    });

    // Sequential on purpose: wall_ms feeds the events/sec baseline, and
    // timing runs while sibling simulations contend for cores would make
    // the recorded numbers machine-load-dependent.
    let (exp, runs) = run_baseline(seed, env);

    for r in &runs {
        let mut csv = Csv::new(&[
            "job",
            "category",
            "rounds",
            "demand",
            "arrival_ms",
            "finish_ms",
            "jct_ms",
            "sched_delay_ms",
            "response_ms",
            "rounds_aborted",
        ]);
        for (i, (rec, plan)) in r.result.records.iter().zip(&exp.workload.jobs).enumerate() {
            csv.row(&[
                i.to_string(),
                plan.category.label().to_string(),
                plan.rounds.to_string(),
                plan.demand.to_string(),
                rec.arrival_ms.to_string(),
                rec.finish_ms.map(|v| v.to_string()).unwrap_or_default(),
                rec.jct_ms().map(|v| v.to_string()).unwrap_or_default(),
                rec.sched_delay_ms.to_string(),
                rec.response_ms.to_string(),
                rec.rounds_aborted.to_string(),
            ]);
        }
        println!("# scheduler: {}", r.result.scheduler_name);
        print!("{csv}");
        println!();
    }

    if let Some(path) = json_path {
        let json = baseline_json(&exp, &runs, seed, env, timing);
        if let Err(e) = std::fs::write(&path, json) {
            return cli::failure(format!("{path}: {e}"));
        }
        eprintln!("wrote baseline to {path}");
    }
    ExitCode::SUCCESS
}
