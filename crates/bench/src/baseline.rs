//! The machine-readable benchmark baseline (`BENCH_BASELINE.json`):
//! one shared definition of its scheduler rows, JSON shape, and parser.
//!
//! `export_results --json` *writes* the file through [`baseline_json`];
//! the `check_regression` CI gate *re-runs* the same matrix through
//! [`baseline_rows`] and diffs against [`parse_baseline`]'s view of the
//! committed file. Keeping generator and checker on one code path means
//! a format change can never silently disarm the regression gate.
//!
//! Comparisons use the *formatted* field strings (the exact bytes the
//! JSON carries), so float-printing precision is part of the contract:
//! any drift in `avg_jct_ms`, `speedup_vs_random`, or the deterministic
//! counters is a hard failure, while `wall_ms` / `events_per_sec` are
//! timing telemetry and exempt.

use venn_env::EnvPreset;
use venn_traces::WorkloadKind;

use crate::{run_matrix_sequential, Experiment, Matrix, MatrixCell, MatrixRun, SchedKind};

/// Executes the baseline matrix — the Table 1 schedulers, sequentially
/// (wall times feed the events/sec telemetry and must not contend for
/// cores) — on the chosen environment arm.
pub fn run_baseline(seed: u64, env: EnvPreset) -> (Experiment, Vec<MatrixRun>) {
    let mut exp = Experiment::paper_default(WorkloadKind::Even, None, seed);
    exp.sim.env = env.config();
    let matrix = Matrix::new()
        .fixed("paper_default/even", exp.clone())
        .kinds(&SchedKind::TABLE1)
        .seeds(&[seed]);
    (exp, run_matrix_sequential(&matrix))
}

/// [`run_baseline`] with a crash injected into every cell: each run
/// is snapshotted at its halfway point, the live world and scheduler are
/// torn down, and the run finishes from the snapshot bytes in fresh
/// state (see `run_crashed`). `check_regression --crashed`
/// replays the *committed* baseline through this path and still demands
/// zero drift — recovery from a checkpoint is behaviorally invisible, so
/// no field may move.
pub fn run_baseline_crashed(seed: u64, env: EnvPreset) -> (Experiment, Vec<MatrixRun>) {
    let mut exp = Experiment::paper_default(WorkloadKind::Even, None, seed);
    exp.sim.env = env.config();
    let runs = SchedKind::TABLE1
        .into_iter()
        .map(|kind| {
            let start = std::time::Instant::now();
            let result = crate::run_crashed(&exp, kind);
            MatrixRun {
                cell: MatrixCell {
                    scenario: "paper_default/even".into(),
                    kind,
                    seed,
                },
                result,
                wall_ms: start.elapsed().as_millis() as u64,
            }
        })
        .collect();
    (exp, runs)
}

/// One scheduler row of the baseline, holding the deterministic fields in
/// their exact serialized form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRow {
    /// Scheduler name.
    pub name: String,
    /// Average JCT, formatted to 0.1 ms (`"null"` when no job finished).
    pub avg_jct_ms: String,
    /// Completion rate, formatted to 4 decimals.
    pub(crate) completion_rate: String,
    /// Speed-up vs Random, formatted to 4 decimals (`"null"` if undefined).
    pub(crate) speedup_vs_random: String,
    /// Rounds that missed their deadline.
    pub aborted_rounds: u64,
    /// Devices assigned.
    pub assignments: u64,
    /// Events dispatched.
    pub events: u64,
    /// Event-queue high-water mark.
    pub peak_queue_len: u64,
}

/// Serializes a finite float with fixed decimals, or JSON `null`.
pub(crate) fn json_num(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Folds executed runs into their deterministic baseline rows.
pub fn baseline_rows(runs: &[MatrixRun]) -> Vec<BaselineRow> {
    let base_jct = runs
        .iter()
        .find(|r| r.cell.kind == SchedKind::Random)
        .expect("baseline matrix includes Random")
        .result
        .avg_jct_ms();
    runs.iter()
        .map(|r| {
            let jct = r.result.avg_jct_ms();
            let speedup = if jct > 0.0 { base_jct / jct } else { f64::NAN };
            BaselineRow {
                name: r.result.scheduler_name.clone(),
                avg_jct_ms: json_num(jct, 1),
                completion_rate: json_num(r.result.completion_rate(), 4),
                speedup_vs_random: json_num(speedup, 4),
                aborted_rounds: r.result.aborted_rounds,
                assignments: r.result.assignments,
                events: r.result.events,
                peak_queue_len: r.result.peak_queue_len,
            }
        })
        .collect()
}

/// Renders the full baseline JSON document: the arm configuration header
/// (the environment — so baseline files are self-describing),
/// the deterministic rows, and — unless `timing` is off — the per-run
/// wall-clock telemetry. Environment arms additionally carry their
/// deterministic `venn-env` counters per scheduler.
pub fn baseline_json(
    experiment: &Experiment,
    runs: &[MatrixRun],
    seed: u64,
    env: EnvPreset,
    timing: bool,
) -> String {
    let rows = baseline_rows(runs);
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"paper_default/even\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"jobs\": {},\n",
        experiment.workload.jobs.len()
    ));
    out.push_str(&format!(
        "  \"population\": {},\n",
        experiment.sim.population
    ));
    out.push_str(&format!("  \"days\": {},\n", experiment.sim.days));
    // The one event queue; the key stays so regenerated files are
    // byte-identical to the committed baseline.
    out.push_str("  \"queue\": \"wheel\",\n");
    out.push_str(&format!("  \"env\": \"{}\",\n", env.label()));
    out.push_str("  \"schedulers\": [\n");
    for (i, (row, r)) in rows.iter().zip(runs).enumerate() {
        // Clamp to >= 1 ms so the rate stays finite.
        let events_per_sec = r.result.events as f64 * 1_000.0 / r.wall_ms.max(1) as f64;
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", row.name));
        out.push_str(&format!("      \"avg_jct_ms\": {},\n", row.avg_jct_ms));
        out.push_str(&format!(
            "      \"completion_rate\": {},\n",
            row.completion_rate
        ));
        out.push_str(&format!(
            "      \"speedup_vs_random\": {},\n",
            row.speedup_vs_random
        ));
        out.push_str(&format!(
            "      \"aborted_rounds\": {},\n",
            row.aborted_rounds
        ));
        out.push_str(&format!("      \"assignments\": {},\n", row.assignments));
        out.push_str(&format!("      \"events\": {},\n", row.events));
        out.push_str(&format!("      \"peak_queue_len\": {}", row.peak_queue_len));
        if env != EnvPreset::Off {
            let e = &r.result.env;
            out.push_str(&format!(",\n      \"dropouts\": {}", e.dropouts));
            out.push_str(&format!(
                ",\n      \"forced_offline\": {}",
                e.forced_offline
            ));
            out.push_str(&format!(",\n      \"storm_aborts\": {}", e.storm_aborts));
            out.push_str(&format!(",\n      \"retries\": {}", e.retries));
        }
        if timing {
            out.push_str(&format!(",\n      \"wall_ms\": {}", r.wall_ms));
            out.push_str(&format!(
                ",\n      \"events_per_sec\": {}",
                json_num(events_per_sec, 0)
            ));
            // Machine-dependent like wall time (and 0 unless the driving
            // binary installs the tracking allocator), so it rides the
            // same telemetry gate and deterministic documents omit it.
            out.push_str(&format!(",\n      \"peak_bytes\": {}", r.result.peak_bytes));
        }
        out.push('\n');
        out.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the arm-configuration header of a baseline document — which
/// environment arm the recording ran on — so a replay reproduces the
/// recorded arm instead of assuming the default. A file without an
/// `"env"` key (from before the header existed) falls back to `off`; an
/// unknown label is an error naming the valid ones. Other header keys
/// are ignored.
pub fn parse_arm_header(json: &str) -> Result<EnvPreset, String> {
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line == "\"schedulers\": [" {
            break; // header ends where the rows begin
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        if key.trim().trim_matches('"') == "env" {
            let value = value.trim().trim_matches('"');
            return EnvPreset::parse(value).ok_or_else(|| {
                let labels: Vec<_> = EnvPreset::ALL.iter().map(|p| p.label()).collect();
                format!(
                    "unknown env arm \"{value}\" (expected one of: {})",
                    labels.join(", ")
                )
            });
        }
    }
    Ok(EnvPreset::Off)
}

/// Parses a committed baseline file back into `(seed, rows)`.
///
/// This is a shape-specific reader for the document [`baseline_json`]
/// emits (one `"key": value` pair per line), not a general JSON parser —
/// the build environment is dependency-free by design. Unknown metadata
/// keys — the arm header (`queue`/`env`, and keys of removed arms in
/// older files), per-row
/// `venn-env` counters, timing telemetry, anything added later — are
/// ignored rather than rejected, so baselines stay forward-readable.
pub fn parse_baseline(json: &str) -> Result<(u64, Vec<BaselineRow>), String> {
    let mut seed: Option<u64> = None;
    let mut rows = Vec::new();
    let mut cur: Option<BaselineRow> = None;
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line == "{" {
            if seed.is_some() {
                cur = Some(BaselineRow {
                    name: String::new(),
                    avg_jct_ms: String::new(),
                    completion_rate: String::new(),
                    speedup_vs_random: String::new(),
                    aborted_rounds: 0,
                    assignments: 0,
                    events: 0,
                    peak_queue_len: 0,
                });
            }
            continue;
        }
        if line == "}" {
            if let Some(row) = cur.take() {
                if row.name.is_empty() {
                    return Err("scheduler row without a name".into());
                }
                rows.push(row);
            }
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        let int = |v: &str, key: &str| -> Result<u64, String> {
            v.parse().map_err(|e| format!("{key}: {e}"))
        };
        match (&mut cur, key) {
            (None, "seed") => seed = Some(int(value, key)?),
            (Some(row), "name") => row.name = value.trim_matches('"').to_string(),
            (Some(row), "avg_jct_ms") => row.avg_jct_ms = value.to_string(),
            (Some(row), "completion_rate") => row.completion_rate = value.to_string(),
            (Some(row), "speedup_vs_random") => row.speedup_vs_random = value.to_string(),
            (Some(row), "aborted_rounds") => row.aborted_rounds = int(value, key)?,
            (Some(row), "assignments") => row.assignments = int(value, key)?,
            (Some(row), "events") => row.events = int(value, key)?,
            (Some(row), "peak_queue_len") => row.peak_queue_len = int(value, key)?,
            _ => {}
        }
    }
    match seed {
        Some(seed) if !rows.is_empty() => Ok((seed, rows)),
        Some(_) => Err("baseline has no scheduler rows".into()),
        None => Err("baseline has no seed".into()),
    }
}

/// Field-by-field drift report between a committed row and a fresh run.
/// Empty means identical.
pub fn diff_rows(committed: &BaselineRow, fresh: &BaselineRow) -> Vec<String> {
    let mut drift = Vec::new();
    let mut check = |field: &str, a: &str, b: &str| {
        if a != b {
            drift.push(format!("{field}: committed {a} vs fresh {b}"));
        }
    };
    check("name", &committed.name, &fresh.name);
    check("avg_jct_ms", &committed.avg_jct_ms, &fresh.avg_jct_ms);
    check(
        "completion_rate",
        &committed.completion_rate,
        &fresh.completion_rate,
    );
    check(
        "speedup_vs_random",
        &committed.speedup_vs_random,
        &fresh.speedup_vs_random,
    );
    check(
        "aborted_rounds",
        &committed.aborted_rounds.to_string(),
        &fresh.aborted_rounds.to_string(),
    );
    check(
        "assignments",
        &committed.assignments.to_string(),
        &fresh.assignments.to_string(),
    );
    check(
        "events",
        &committed.events.to_string(),
        &fresh.events.to_string(),
    );
    check(
        "peak_queue_len",
        &committed.peak_queue_len.to_string(),
        &fresh.peak_queue_len.to_string(),
    );
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_baseline_doc() -> String {
        r#"{
  "experiment": "paper_default/even",
  "seed": 7,
  "jobs": 50,
  "queue": "wheel",
  "env": "off",
  "schedulers": [
    {
      "name": "random",
      "avg_jct_ms": 123.4,
      "completion_rate": 1.0000,
      "speedup_vs_random": 1.0000,
      "aborted_rounds": 5,
      "assignments": 10,
      "events": 1000,
      "peak_queue_len": 42,
      "wall_ms": 3,
      "events_per_sec": 333333
    }
  ]
}
"#
        .to_string()
    }

    #[test]
    fn parse_round_trips_the_emitted_shape() {
        let (seed, rows) = parse_baseline(&tiny_baseline_doc()).unwrap();
        assert_eq!(seed, 7);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "random");
        assert_eq!(rows[0].avg_jct_ms, "123.4");
        assert_eq!(rows[0].speedup_vs_random, "1.0000");
        assert_eq!(rows[0].events, 1000);
        assert_eq!(rows[0].peak_queue_len, 42);
    }

    #[test]
    fn diff_reports_each_drifted_field() {
        let (_, rows) = parse_baseline(&tiny_baseline_doc()).unwrap();
        let mut fresh = rows[0].clone();
        assert!(diff_rows(&rows[0], &fresh).is_empty());
        fresh.avg_jct_ms = "123.5".into();
        fresh.events = 999;
        let drift = diff_rows(&rows[0], &fresh);
        assert_eq!(drift.len(), 2);
        assert!(drift[0].contains("avg_jct_ms"));
        assert!(drift[1].contains("events"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("").is_err());
        assert!(parse_baseline("{\n  \"seed\": 3\n}\n").is_err());
    }

    #[test]
    fn arm_header_round_trips_and_defaults() {
        // The emitted header parses back to the arm it recorded…
        let doc = tiny_baseline_doc().replace("\"env\": \"off\"", "\"env\": \"straggler-heavy\"");
        assert_eq!(parse_arm_header(&doc), Ok(EnvPreset::StragglerHeavy));
        assert_eq!(parse_arm_header(&tiny_baseline_doc()), Ok(EnvPreset::Off));
        // …the committed file's stale keys of removed arms are skipped…
        let committed = include_str!("../../../BENCH_BASELINE.json");
        assert_eq!(parse_arm_header(committed), Ok(EnvPreset::Off));
        // …and headerless (pre-metadata) files fall back to `off`.
        let old = "{\n  \"seed\": 7\n}\n";
        assert_eq!(parse_arm_header(old), Ok(EnvPreset::Off));
    }

    #[test]
    fn arm_header_without_env_means_off() {
        let doc = tiny_baseline_doc().replace("  \"env\": \"off\",\n", "");
        assert_eq!(parse_arm_header(&doc), Ok(EnvPreset::Off));
    }

    #[test]
    fn arm_header_rejects_an_unknown_env_label() {
        let doc = tiny_baseline_doc().replace("\"env\": \"off\"", "\"env\": \"choas\"");
        let err = parse_arm_header(&doc).unwrap_err();
        assert!(err.contains("\"choas\""), "{err}");
        for preset in EnvPreset::ALL {
            assert!(err.contains(preset.label()), "{err}");
        }
    }

    #[test]
    fn parse_ignores_unknown_metadata_keys() {
        // Arm headers, env counters, and future keys must be skipped —
        // never choked on — at both the document and the row level.
        let doc = tiny_baseline_doc()
            .replace(
                "  \"env\": \"off\",\n",
                "  \"env\": \"flash-crowd\",\n  \"some_future_header\": [1, 2],\n",
            )
            .replace(
                "      \"peak_queue_len\": 42,\n",
                "      \"peak_queue_len\": 42,\n      \"dropouts\": 17,\n      \
                 \"forced_offline\": 3,\n      \"storm_aborts\": 1,\n      \
                 \"retries\": 9,\n      \"some_future_field\": \"x\",\n",
            );
        let (seed, rows) = parse_baseline(&doc).expect("unknown keys must not break parsing");
        assert_eq!(seed, 7);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].events, 1000);
        assert_eq!(rows[0].peak_queue_len, 42);
    }

    #[test]
    fn generator_and_parser_agree_on_a_real_matrix() {
        use venn_traces::WorkloadKind;
        let exp = Experiment::smoke(WorkloadKind::Even, 3);
        let matrix = Matrix::new()
            .fixed("paper_default/even", exp.clone())
            .kinds(&SchedKind::TABLE1)
            .seeds(&[3]);
        let runs = run_matrix_sequential(&matrix);
        let json = baseline_json(&exp, &runs, 3, EnvPreset::Off, true);
        assert!(json.contains("\"queue\": \"wheel\""));
        assert!(json.contains("\"env\": \"off\""));
        let (seed, rows) = parse_baseline(&json).unwrap();
        assert_eq!(seed, 3);
        assert_eq!(rows, baseline_rows(&runs));
    }

    #[test]
    fn crashed_replay_matches_uninterrupted() {
        use venn_traces::WorkloadKind;
        let exp = Experiment::smoke(WorkloadKind::Even, 5);
        for kind in [SchedKind::Venn, SchedKind::Srsf] {
            let whole = crate::run(&exp, kind);
            let crashed = crate::run_crashed(&exp, kind);
            assert_eq!(whole.records, crashed.records, "{kind:?}");
            assert_eq!(whole.events, crashed.events, "{kind:?}");
            assert_eq!(whole.assignments, crashed.assignments, "{kind:?}");
            assert_eq!(whole.aborted_rounds, crashed.aborted_rounds, "{kind:?}");
            assert_eq!(whole.peak_queue_len, crashed.peak_queue_len, "{kind:?}");
        }
    }

    #[test]
    fn env_arms_emit_their_counters_and_timing_can_be_omitted() {
        let preset = EnvPreset::MassDropout;
        let mut exp = Experiment::smoke(WorkloadKind::Even, 3);
        exp.sim.env = preset.config();
        let matrix = Matrix::new()
            .fixed("paper_default/even", exp.clone())
            .kinds(&[SchedKind::Random])
            .seeds(&[3]);
        let runs = run_matrix_sequential(&matrix);
        let json = baseline_json(&exp, &runs, 3, preset, false);
        assert!(json.contains("\"env\": \"mass-dropout\""));
        assert!(json.contains("\"forced_offline\":"));
        assert!(json.contains("\"retries\":"));
        assert!(
            !json.contains("wall_ms")
                && !json.contains("events_per_sec")
                && !json.contains("peak_bytes"),
            "deterministic documents must omit timing/memory telemetry"
        );
        let (_, rows) = parse_baseline(&json).unwrap();
        assert_eq!(rows.len(), 1, "env counters must not derail row parsing");
    }
}
