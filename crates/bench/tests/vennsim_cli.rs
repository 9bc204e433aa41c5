//! `vennsim` rejects an invalid configuration as a usage error — one
//! `error:` line, exit status 2, no panic — on the batch and the `serve`
//! entry point alike, before any world is built.

use std::process::{Command, Stdio};

#[test]
fn invalid_configs_are_usage_errors_on_every_entry_point() {
    let bad = [
        (["--population", "0"], "population"),
        (["--days", "0"], "horizon"),
        (["--overcommit", "3"], "overcommit"),
    ];
    for entry in [&[][..], &["serve"][..]] {
        for (flags, what) in bad {
            let out = Command::new(env!("CARGO_BIN_EXE_vennsim"))
                .args(entry)
                .args(flags)
                .stdin(Stdio::null())
                .output()
                .expect("vennsim runs");
            let ctx = format!("vennsim {entry:?} {flags:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{ctx}: {stderr}");
            assert!(out.stdout.is_empty(), "{ctx}: answered on stdout");
            assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
            let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
            assert_eq!(errors.len(), 1, "{ctx}: {stderr}");
            assert!(errors[0].contains(what), "{ctx}: {stderr}");
        }
    }
}
