//! CI regression gate: re-runs the benchmark baseline matrix and fails on
//! any drift from the committed `BENCH_BASELINE.json`.
//!
//! The simulator is deterministic, so every *behavioral* field of the
//! baseline — `avg_jct_ms`, `completion_rate`, `speedup_vs_random`,
//! `aborted_rounds`, `assignments`, `events`, `peak_queue_len` — must
//! reproduce byte for byte on any machine. A mismatch means a change
//! altered scheduling behavior (or the kernel's event accounting) without
//! regenerating the baseline, and the gate fails with a field-level diff.
//! Timing telemetry (`wall_ms`, `events_per_sec`) is exempt.
//!
//! The seed and the environment arm are taken from the committed file's
//! self-describing header, so the gate always replays exactly the
//! recorded experiment — a baseline exported from an environment arm is
//! diffed against that same arm. A file without an `"env"` key falls
//! back to `off`; an unknown label fails the gate (exit 1).
//!
//! With `--crashed` every replayed cell is snapshotted at its halfway
//! point, torn down, and resumed from the snapshot bytes before
//! finishing — checkpoint recovery is pinned bit-identical, so the
//! committed baseline must reproduce with zero drift through a
//! crash as well.
//!
//! Run: `cargo run --release -p venn-bench --bin check_regression -- --help`

use std::process::ExitCode;

use venn_bench::cli::{self, Cli};
use venn_bench::{
    baseline_rows, diff_rows, parse_arm_header, parse_baseline, run_baseline, run_baseline_crashed,
};

fn main() -> ExitCode {
    let mut path = "BENCH_BASELINE.json".to_string();
    let mut crashed_replay = false;
    Cli::new("[--baseline PATH] [--crashed]").parse(|cli, arg| {
        match arg {
            "--baseline" => path = cli.value(arg)?,
            "--crashed" => crashed_replay = true,
            _ => return Err(cli::unknown(arg)),
        }
        Ok(())
    });

    let read = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    let ((seed, committed), text) = match read.and_then(|t| Ok((parse_baseline(&t)?, t))) {
        Ok(v) => v,
        Err(e) => return cli::failure(format!("{path}: {e}")),
    };

    let env = match parse_arm_header(&text) {
        Ok(env) => env,
        Err(e) => return cli::failure(format!("{path}: {e}")),
    };
    eprintln!(
        "replaying baseline matrix (seed {seed}, {} schedulers, env {}{})…",
        committed.len(),
        env.label(),
        if crashed_replay {
            ", crash+resume at halfway"
        } else {
            ""
        }
    );
    let (_, runs) = if crashed_replay {
        run_baseline_crashed(seed, env)
    } else {
        run_baseline(seed, env)
    };
    let fresh = baseline_rows(&runs);

    if committed.len() != fresh.len() {
        eprintln!(
            "DRIFT: baseline has {} scheduler rows, fresh run produced {}",
            committed.len(),
            fresh.len()
        );
        return ExitCode::FAILURE;
    }

    let mut drifted = false;
    for (c, f) in committed.iter().zip(&fresh) {
        let drift = diff_rows(c, f);
        if drift.is_empty() {
            eprintln!("  {:12} ok", c.name);
        } else {
            drifted = true;
            eprintln!("  {:12} DRIFT", c.name);
            for d in drift {
                eprintln!("    {d}");
            }
        }
    }
    if drifted {
        let flags = if env == venn_env::EnvPreset::Off {
            String::new()
        } else {
            format!(" --env {}", env.label())
        };
        eprintln!(
            "\nbenchmark baseline drifted — if the change is intentional, regenerate with:\n  \
             cargo run --release -p venn-bench --bin export_results -- {seed}{flags} --json {path}"
        );
        ExitCode::FAILURE
    } else {
        eprintln!("baseline reproduced exactly — no drift");
        ExitCode::SUCCESS
    }
}
