//! The exit policy of `venn_bench::cli`, held on the spawned binaries: a
//! usage error is one `error:` line, exit status 2, nothing on stdout and
//! no panic — for `vennsim`'s invalid configurations on the batch and the
//! `serve` entry point alike, for an unknown flag on every binary, for
//! `bench_scale --max-pop` without `--check`, and for a bad artifact name
//! or seed count of `reproduce`. A workload file the kernel cannot run is
//! a run-time failure: one `error:` line, exit status 1. Generated
//! command lines for `vennsim` and `vennsim serve`, each holding at least
//! one token the parser or a configuration check refuses, meet the same
//! usage-error contract.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Synopsis flags with values `vennsim` accepts on their own. The Venn
/// arms only, so a refused `--tiers` or `--epsilon` stays refused;
/// `--listen` and `--rate` only appear in refused units, so no case can
/// start a session that waits on a socket.
const VALID: [(&str, &[&str]); 27] = [
    ("--scheduler", &["venn", "venn-wo-sched", "venn-wo-match"]),
    ("--jobs", &["1", "20"]),
    ("--population", &["200", "3000"]),
    ("--days", &["1", "3"]),
    ("--seed", &["0", "42", "18446744073709551615"]),
    ("--workload", &["even", "small", "large", "low", "high"]),
    ("--bias", &["general", "compute", "memory", "resource"]),
    ("--epsilon", &["0", "2.5"]),
    ("--tiers", &["1", "3"]),
    ("--async", &[]),
    ("--overcommit", &["0", "0.3"]),
    ("--pop", &["eager", "split-eager", "lazy"]),
    (
        "--env",
        &[
            "off",
            "flash-crowd",
            "straggler-heavy",
            "mass-dropout",
            "chaos",
        ],
    ),
    ("--load", &["jobs.tsv"]),
    ("--save", &["out.tsv"]),
    ("--csv", &[]),
    ("--checkpoint-every", &["3600000"]),
    ("--checkpoint-dir", &["ck"]),
    ("--checkpoint-keep", &["3"]),
    ("--resume", &[]),
    ("--fork-from", &["snap.vsnp"]),
    ("--journal", &["j.wal"]),
    ("--journal-sync", &["always", "batch", "off"]),
    ("--replay", &["j.wal"]),
    ("--frame-queue", &["64"]),
    ("--idle-timeout", &["30"]),
    ("--fault-inject", &["7", "7:0.5"]),
];

/// Values a flag refuses whatever else the command line holds: malformed
/// and out-of-range numbers, unknown names.
const REFUSED_VALUES: [(&str, &[&str]); 18] = [
    ("--scheduler", &["lottery", "venn-disabled", ""]),
    ("--jobs", &["x", "-1", "1.5", "18446744073709551616"]),
    ("--population", &["0", "4294967296", "0x10", "-3"]),
    ("--days", &["0", "", "4294967296", "2.0"]),
    ("--seed", &["-1", "18446744073709551616", "seven"]),
    ("--workload", &["medium", "Even"]),
    ("--bias", &["none"]),
    ("--epsilon", &["-1", "NaN", "inf", "abc", "1e999"]),
    ("--tiers", &["0", "3.0", "-2"]),
    ("--overcommit", &["3", "-0.1", "1", "one"]),
    ("--pop", &["Eager", "sharded"]),
    ("--env", &["calm", ""]),
    ("--checkpoint-every", &["0", "-5", "1h"]),
    ("--checkpoint-keep", &["0", "many"]),
    ("--journal-sync", &["never"]),
    ("--frame-queue", &["0", "-3"]),
    ("--idle-timeout", &["0", "18446744073709551615", "1.5"]),
    ("--fault-inject", &["x", "7:x", "7:1.5", ":0.5", "7:-1"]),
];

/// Arguments `vennsim` does not take at all.
const UNKNOWN: [&str; 8] = [
    "--bogus", "--Jobs", "-j", "--jobs=5", "---csv", "--serve", "7", "",
];

/// Flag combinations refused on both entry points.
const CONFLICTS: [&[&str]; 3] = [
    &[
        "--fork-from",
        "snap.vsnp",
        "--resume",
        "--checkpoint-dir",
        "ck",
    ],
    &["--replay", "j.wal", "--listen", "127.0.0.1:0"],
    &["--replay", "j.wal", "--rate", "5"],
];

/// A uniformly drawn element of `items`.
fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// One generated command line: valid units around one refused unit —
/// an unknown flag, a flag missing its value, a refused value (after a
/// valid one of the same flag, for a repeated flag), or a conflict.
fn fuzz_case(rng: &mut StdRng) -> Vec<String> {
    let mut refused: Vec<&str> = Vec::new();
    let mut missing = None;
    match rng.gen_range(0..5) {
        0 => refused.push(pick(rng, &UNKNOWN)),
        1 => {
            let with_value: Vec<&str> = (VALID.iter())
                .filter(|(_, values)| !values.is_empty())
                .map(|(flag, _)| *flag)
                .collect();
            missing = Some(pick(rng, &with_value));
        }
        2 | 3 => {
            let (flag, values) = pick(rng, &REFUSED_VALUES);
            if rng.gen_bool(0.5) {
                // Repeated: the valid value first, then the refused one.
                let (_, good) = VALID.iter().find(|(f, _)| *f == flag).unwrap();
                refused.extend([flag, pick(rng, good)]);
            }
            refused.extend([flag, pick(rng, values)]);
        }
        _ => refused.extend(pick(rng, &CONFLICTS)),
    }
    // Valid units never name a flag the refused unit sets, so none can
    // override a refused value; the refused unit goes in at a random
    // unit boundary, and a flag missing its value goes last.
    let mut units: Vec<Vec<&str>> = Vec::new();
    for _ in 0..rng.gen_range(0..6) {
        let (flag, values) = pick(rng, &VALID);
        if refused.contains(&flag) || missing == Some(flag) {
            continue;
        }
        let mut unit = vec![flag];
        if !values.is_empty() {
            unit.push(pick(rng, values));
        }
        units.push(unit);
    }
    if !refused.is_empty() {
        let at = rng.gen_range(0..units.len() + 1);
        units.insert(at, refused);
    }
    units.extend(missing.map(|flag| vec![flag]));
    units.concat().into_iter().map(String::from).collect()
}

/// Waits for `child`, killing it after `limit`.
fn wait_with_timeout(mut child: Child, limit: Duration) -> std::process::Output {
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill");
            panic!("timed out after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().expect("output")
}

#[test]
fn generated_command_lines_with_a_refused_token_are_usage_errors() {
    // Any run a case started anyway would write under this directory.
    let dir = std::env::temp_dir().join(format!("vennsim_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..200 {
        let mut args = fuzz_case(&mut rng);
        if case % 2 == 1 {
            args.insert(0, "serve".into());
        }
        let child = Command::new(env!("CARGO_BIN_EXE_vennsim"))
            .args(&args)
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let out = wait_with_timeout(child, Duration::from_secs(60));
        let ctx = format!("case {case}: vennsim {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{ctx}: {stderr}");
        assert!(out.stdout.is_empty(), "{ctx}: answered on stdout");
        assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{ctx}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removes");
}
