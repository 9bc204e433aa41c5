//! The wire bytes, pinned: one scripted session over a small lazy world
//! that reaches every command and every error code a session can produce
//! without an I/O fault, checked line for line against a committed
//! transcript.
//!
//! Transcript format, one line each:
//!
//! ```text
//! > INPUT LINE
//! < RESPONSE LINE        (streamed frames first, then the ack)
//! = JOURNAL LINE         (accepted commands only)
//! ```
//!
//! `golden/wire.txt` was written by the JSON writer this transcript was
//! introduced beside (the value-tree `to_json` path), so any change to how
//! responses, frames or journal lines are rendered shows here as a diff.
//! Regenerate it only for an intended wire change, with
//! `WIRE_GOLDEN_BLESS=1 cargo test -p venn-serve --test wire_golden`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::faultio::MemFs;
use venn_serve::{shared_fs, SchedSpec, ServeSession};
use venn_sim::{PopMode, SimConfig};
use venn_traces::Workload;

const SEED: u64 = 29;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire.txt");

fn session() -> ServeSession {
    let config = SimConfig {
        population: 2_000,
        days: 2,
        seed: SEED,
        pop_mode: PopMode::Lazy,
        ..SimConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let workload = Workload::default_scenario(4, &mut rng);
    let spec = SchedSpec::named("venn", SEED);
    ServeSession::with_fs(config, spec, &workload, shared_fs(MemFs::new())).unwrap()
}

/// Every command (job 4 is the tiny job submitted at vt 0, job 5 the
/// future submission), then every error code, then the session's end.
const SCRIPT: &[&str] = &[
    "",
    r#"{"cmd":"subscribe","every_ms":21600000}"#,
    r#"{"cmd":"submit","category":"general","rounds":1,"demand":2,"task_ms":1000}"#,
    r#"{"cmd":"submit","category":"compute","rounds":3,"demand":40,"task_ms":90000,"arrival_ms":7200000}"#,
    r#"{"cmd":"advance","ms":3600000}"#,
    r#"{"cmd":"query-job","job":4}"#,
    r#"{"cmd":"query-job","job":0}"#,
    r#"{"cmd":"query-job","job":99}"#,
    r#"{"cmd":"submit","category":"memory","rounds":1,"demand":1,"task_ms":1,"arrival_ms":0}"#,
    r#"{"cmd":"advance","ms":-5}"#,
    r#"{ "ms" : 21600000 , "cmd" : "advance" }"#,
    r#"{"cmd":"withdraw","job":5}"#,
    r#"{"cmd":"withdraw","job":5}"#,
    r#"{"cmd":"query-job","job":5}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"vt":25200000,"cmd":"stats"}"#,
    r#"{"vt":1,"cmd":"stats"}"#,
    r#"{"vt":-1,"cmd":"query-job","job":1}"#,
    r#"{"cmd":"unsubscribe"}"#,
    r#"{"cmd":"advance","ms":7200000}"#,
    r#"{"cmd":"checkpoint","path":"ck\tπ \"1\"\\\u0001\u007f.vsnp"}"#,
    r#"{"cmd":"save-workload","path":"wl.tsv"}"#,
    r#"{"cmd":"fork","scheduler":"fifo"}"#,
    r#"{"cmd":"fork","scheduler":"venn","epsilon":0.5,"tiers":2,"csv":"fork.csv"}"#,
    r#"{"cmd":"fork","scheduler":"lottery"}"#,
    r#"{not json"#,
    r#"[1,2]"#,
    r#"{"cmd":"warp"}"#,
    r#"{"cmd":"wärp\u0001\u007f"}"#,
    r#"{"nocmd":1}"#,
    r#"{"cmd":"advance"}"#,
    r#"{"cmd":"advance","ms":1.5}"#,
    r#"{"cmd":"submit","category":"quantum","rounds":1,"demand":1,"task_ms":1}"#,
    r#"{"cmd":"submit","category":"general","rounds":1,"demand":0,"task_ms":1}"#,
    r#"{"cmd":"subscribe","every_ms":0}"#,
    r#"{"cmd":"subscribe","every_ms":43200000}"#,
    r#"{"cmd":"advance","ms":200000000}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"quit"}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"quit"}"#,
];

fn transcript() -> String {
    let mut s = session();
    let mut out = String::new();
    for line in SCRIPT {
        out.push_str("> ");
        out.push_str(line);
        out.push('\n');
        let outcome = s.apply_line(line);
        for r in &outcome.responses {
            out.push_str("< ");
            out.push_str(r);
            out.push('\n');
        }
        if let Some(j) = &outcome.journal {
            out.push_str("= ");
            out.push_str(j);
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_response_and_journal_line_matches_the_committed_transcript() {
    let got = transcript();
    if std::env::var_os("WIRE_GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "transcript line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "transcript length differs"
    );
}

#[test]
fn the_transcript_reaches_every_command_and_error_code() {
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    for cmd in [
        "submit",
        "withdraw",
        "query-job",
        "stats",
        "advance",
        "subscribe",
        "unsubscribe",
        "checkpoint",
        "save-workload",
        "fork",
        "quit",
    ] {
        let journaled = format!("\"cmd\":\"{cmd}\"");
        assert!(
            want.lines()
                .any(|l| l.starts_with("= ") && l.contains(&journaled)),
            "no accepted {cmd}"
        );
    }
    for code in [
        "bad-json",
        "unknown-cmd",
        "bad-arg",
        "past-time",
        "unknown-job",
        "after-quit",
        "vt-mismatch",
    ] {
        let coded = format!("\"code\":\"{code}\"");
        assert!(
            want.lines()
                .any(|l| l.starts_with("< ") && l.contains(&coded)),
            "no {code} error"
        );
    }
    for shape in [
        r#""phase":"finished","#,
        r#""phase":"running","#,
        r#""jct_ms":null"#,
        r#"{"frame":{"#,
    ] {
        assert!(want.contains(shape), "no response with {shape}");
    }
}
