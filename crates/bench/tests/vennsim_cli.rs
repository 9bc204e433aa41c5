//! The exit policy of `venn_bench::cli`, held on the spawned binaries: a
//! usage error is one `error:` line, exit status 2, nothing on stdout and
//! no panic — for `vennsim`'s invalid configurations on the batch and the
//! `serve` entry point alike, for an unknown flag on every binary, for
//! `bench_scale --max-pop` without `--check`, and for a bad artifact name
//! or seed count of `reproduce`. A workload file the kernel cannot run is
//! a run-time failure: one `error:` line, exit status 1.

use std::process::{Command, Stdio};

use venn_bench::artifacts::ARTIFACTS;

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
    let bad: [(&[&str], &str); 9] = [
        (&["--population", "0"], "population"),
        (&["--population", "4294967296"], "population"),
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
fn loading_a_job_the_kernel_cannot_run_is_a_run_time_error() {
    let tsv = std::env::temp_dir().join(format!("vennsim_load_{}.tsv", std::process::id()));
    std::fs::write(
        &tsv,
        "#id\tarrival_ms\tcategory\trounds\tdemand\ttask_ms\n\
         0\t0\tGeneral\t2\t5\t60000\n\
         1\t10\tGeneral\t2\t0\t60000\n",
    )
    .expect("temp file writes");
    let out = Command::new(env!("CARGO_BIN_EXE_vennsim"))
        .args(["--load", tsv.to_str().expect("temp path is UTF-8")])
        .args(["--population", "200", "--days", "1"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    std::fs::remove_file(&tsv).expect("temp file removes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "answered on stdout");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains("line 3"), "{stderr}");
    assert!(errors[0].contains("participant"), "{stderr}");
}

#[test]
fn every_binary_rejects_an_unknown_flag_as_a_usage_error() {
    for bin in [
        env!("CARGO_BIN_EXE_bench_scale"),
        env!("CARGO_BIN_EXE_check_regression"),
        env!("CARGO_BIN_EXE_export_results"),
        env!("CARGO_BIN_EXE_reproduce"),
        env!("CARGO_BIN_EXE_vennsim"),
    ] {
        assert_usage_error(bin, &["--bogus"], "--bogus");
    }
}

#[test]
fn bench_scale_rejects_max_pop_without_check() {
    // `--json` points away from the committed `BENCH_SCALE.json`, so a
    // binary that ran the sweep anyway could not overwrite it.
    let json = std::env::temp_dir().join(format!("bench_scale_{}.json", std::process::id()));
    let json = json.to_str().expect("temp path is UTF-8");
    assert_usage_error(
        env!("CARGO_BIN_EXE_bench_scale"),
        &["--max-pop", "100000", "--json", json],
        "--max-pop only applies to --check",
    );
    assert!(!std::path::Path::new(json).exists(), "the sweep ran");
}

#[test]
fn reproduce_rejects_a_bad_artifact_or_seed_count() {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    let valid = format!("(valid: {})", names.join("|"));
    let bad: [(&[&str], &str); 3] = [
        (&["fig1"], &valid),
        (&["fig3", "2"], "fig3 takes no seeds"),
        (&["table1", "0"], "seed count \"0\""),
    ];
    for (args, what) in bad {
        assert_usage_error(env!("CARGO_BIN_EXE_reproduce"), args, what);
    }
}

#[test]
fn reproduce_fig3_prints_the_toy_example_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("fig3")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let expected = "\
== Figure 3: toy example average JCT ==
                          avg JCT
---------------------------------
Random matching             11.16
SRSF                        11.00
Optimal (= Venn's order)     9.33

(paper: Random 12, SRSF 11, optimal 9.3)
";
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
