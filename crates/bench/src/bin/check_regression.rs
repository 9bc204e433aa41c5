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
//! The seed and the arm configuration (demand gating, env preset) are
//! taken from the committed file's self-describing header, so the gate
//! always replays exactly the recorded experiment — a baseline exported
//! from a reference or environment arm is diffed against that same arm.
//! Headerless (pre-arm-metadata) files fall back to the default arm.
//!
//! With `--crashed` every replayed cell is snapshotted at its halfway
//! point, torn down, and resumed from the snapshot bytes before
//! finishing — checkpoint recovery is pinned bit-identical, so the
//! committed baseline must reproduce with zero drift through a
//! crash as well.
//!
//! Run: `cargo run --release -p venn-bench --bin check_regression
//!       [--baseline PATH] [--crashed]`

use std::process::ExitCode;

use venn_bench::{
    baseline_rows, diff_rows, parse_arm_header, parse_baseline, run_baseline, run_baseline_crashed,
};

fn main() -> ExitCode {
    let mut path = "BENCH_BASELINE.json".to_string();
    let mut crashed_replay = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => path = p,
                None => {
                    eprintln!("error: --baseline needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--crashed" => crashed_replay = true,
            other => {
                eprintln!("error: unknown flag {other:?}");
                eprintln!("usage: check_regression [--baseline PATH] [--crashed]");
                return ExitCode::FAILURE;
            }
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (seed, committed) = match parse_baseline(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (demand_gating, env) = parse_arm_header(&text);
    eprintln!(
        "replaying baseline matrix (seed {seed}, {} schedulers, gating {demand_gating}, \
         env {}{})…",
        committed.len(),
        env.label(),
        if crashed_replay {
            ", crash+resume at halfway"
        } else {
            ""
        }
    );
    let (_, runs) = if crashed_replay {
        run_baseline_crashed(seed, demand_gating, env)
    } else {
        run_baseline(seed, demand_gating, env)
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
        let mut flags = String::new();
        if !demand_gating {
            flags.push_str(" --no-gating");
        }
        if env != venn_env::EnvPreset::Off {
            flags.push_str(&format!(" --env {}", env.label()));
        }
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
