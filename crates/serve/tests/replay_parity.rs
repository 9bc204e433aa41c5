//! The tentpole guarantee: a recorded live session, replayed from its
//! journal through the same code path, is byte-identical — responses
//! and regenerated journal both — on every population arm.

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_serve::{SchedSpec, ServeSession};
use venn_sim::{PopMode, SimConfig};
use venn_traces::Workload;

const SEED: u64 = 17;

fn config(pop_mode: PopMode) -> SimConfig {
    SimConfig {
        population: 800,
        days: 2,
        seed: SEED,
        pop_mode,
        ..SimConfig::default()
    }
}

fn session(config: SimConfig) -> ServeSession {
    let mut rng = StdRng::seed_from_u64(SEED);
    let workload = Workload::default_scenario(5, &mut rng);
    let spec = SchedSpec {
        name: "venn".into(),
        epsilon: 0.0,
        tiers: 3,
        seed: SEED,
    };
    ServeSession::new(config, spec, &workload).unwrap()
}

/// Runs a script through a fresh session, returning (responses, journal).
fn run_script(config: SimConfig, script: &[String]) -> (Vec<String>, Vec<String>) {
    let mut s = session(config);
    let mut responses = Vec::new();
    let mut journal = Vec::new();
    for line in script {
        let out = s.apply_line(line);
        responses.extend(out.responses);
        journal.extend(out.journal);
        if out.quit {
            break;
        }
    }
    (responses, journal)
}

/// A session exercising the full mutation surface: mid-run submission,
/// withdrawal, telemetry subscription, and explicit time control.
fn script() -> Vec<String> {
    [
        r#"{"cmd":"subscribe","every_ms":21600000}"#,
        r#"{"cmd":"advance","ms":3600000}"#,
        r#"{"cmd":"submit","category":"compute","rounds":3,"demand":40,"task_ms":90000}"#,
        r#"{"cmd":"submit","category":"general","rounds":2,"demand":10,"task_ms":30000,"arrival_ms":7200000}"#,
        r#"{"cmd":"advance","ms":21600000}"#,
        r#"{"cmd":"withdraw","job":5}"#,
        r#"{"cmd":"query-job","job":0}"#,
        r#"{"cmd":"unsubscribe"}"#,
        r#"{"cmd":"advance","ms":43200000}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"quit"}"#,
    ]
    .map(String::from)
    .to_vec()
}

#[test]
fn replay_is_byte_identical_on_every_pop_arm() {
    for pop in [PopMode::Eager, PopMode::Lazy] {
        let cfg = config(pop);
        let (live_resp, live_journal) = run_script(cfg, &script());
        assert!(!live_journal.is_empty(), "{pop:?}: nothing journaled");

        // Replay the journal through an identical fresh session.
        let (replay_resp, replay_journal) = run_script(cfg, &live_journal);
        assert_eq!(
            live_resp, replay_resp,
            "{pop:?}: replay responses diverge from live"
        );
        assert_eq!(
            live_journal, replay_journal,
            "{pop:?}: journal is not a serialization fixed point"
        );
    }
}

#[test]
fn withdraw_then_replay_keeps_accounting_consistent() {
    // Withdrawing an Allocating job releases its held devices; the
    // session after replay must agree exactly with the live one.
    let cfg = config(PopMode::Eager);
    let script: Vec<String> = [
        r#"{"cmd":"advance","ms":600000}"#,
        r#"{"cmd":"withdraw","job":0}"#,
        r#"{"cmd":"withdraw","job":1}"#,
        r#"{"cmd":"advance","ms":86400000}"#,
        r#"{"cmd":"query-job","job":0}"#,
        r#"{"cmd":"query-job","job":2}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"quit"}"#,
    ]
    .map(String::from)
    .to_vec();
    let (live_resp, live_journal) = run_script(cfg, &script);
    let (replay_resp, _) = run_script(cfg, &live_journal);
    assert_eq!(live_resp, replay_resp);
    // The withdrawn jobs must report finished with no JCT.
    let q0 = live_resp
        .iter()
        .find(|r| r.contains("\"job\":0,\"phase\":"))
        .expect("query-job 0 response");
    assert!(q0.contains("\"phase\":\"finished\""), "{q0}");
    assert!(
        q0.contains("\"jct_ms\":null"),
        "withdrawn job has no JCT: {q0}"
    );
}
