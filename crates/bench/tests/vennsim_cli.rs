//! The exit policy of `venn_bench::cli`, held on the spawned binaries: a
//! usage error is one `error:` line, exit status 2, nothing on stdout and
//! no panic — for `vennsim`'s invalid configurations on the batch and the
//! `serve` entry point alike, and for an unknown flag on every binary.

use std::process::{Command, Stdio};

/// Runs `bin args…` and asserts the usage-error contract; the one
/// `error:` line must mention `what`.
fn assert_usage_error(bin: &str, args: &[&str], what: &str) {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    let ctx = format!("{bin} {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{ctx}: {stderr}");
    assert!(out.stdout.is_empty(), "{ctx}: answered on stdout");
    assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{ctx}: {stderr}");
    assert!(errors[0].contains(what), "{ctx}: {stderr}");
}

#[test]
fn invalid_configs_are_usage_errors_on_every_entry_point() {
    let bad: [(&[&str], &str); 8] = [
        (&["--population", "0"], "population"),
        (&["--days", "0"], "horizon"),
        (&["--overcommit", "3"], "overcommit"),
        (&["--tiers", "0"], "tier"),
        (&["--epsilon", "-1"], "epsilon"),
        (&["--epsilon", "NaN"], "epsilon"),
        (&["--scheduler", "lottery"], "scheduler"),
        (&["--idle-timeout", "18446744073709551615"], "idle timeout"),
    ];
    for entry in [&[][..], &["serve"][..]] {
        for (flags, what) in bad {
            let args = [entry, flags].concat();
            assert_usage_error(env!("CARGO_BIN_EXE_vennsim"), &args, what);
        }
    }
}

#[test]
fn every_binary_rejects_an_unknown_flag_as_a_usage_error() {
    for bin in [
        env!("CARGO_BIN_EXE_ablation_steal"),
        env!("CARGO_BIN_EXE_bench_scale"),
        env!("CARGO_BIN_EXE_check_regression"),
        env!("CARGO_BIN_EXE_export_results"),
        env!("CARGO_BIN_EXE_fig10_overhead"),
        env!("CARGO_BIN_EXE_fig11_ablation"),
        env!("CARGO_BIN_EXE_fig12_job_sweep"),
        env!("CARGO_BIN_EXE_fig13_tier_sweep"),
        env!("CARGO_BIN_EXE_fig14_fairness"),
        env!("CARGO_BIN_EXE_fig2_traces"),
        env!("CARGO_BIN_EXE_fig3_toy"),
        env!("CARGO_BIN_EXE_fig4_contention"),
        env!("CARGO_BIN_EXE_fig5_breakdown"),
        env!("CARGO_BIN_EXE_fig9_accuracy"),
        env!("CARGO_BIN_EXE_probe_matching"),
        env!("CARGO_BIN_EXE_table1_e2e"),
        env!("CARGO_BIN_EXE_table2_demand_breakdown"),
        env!("CARGO_BIN_EXE_table3_spec_breakdown"),
        env!("CARGO_BIN_EXE_table4_biased"),
        env!("CARGO_BIN_EXE_vennsim"),
    ] {
        assert_usage_error(bin, &["--bogus"], "--bogus");
    }
}
