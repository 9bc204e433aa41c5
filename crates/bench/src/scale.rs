//! The million-device scale sweep behind `bench_scale`.
//!
//! Runs the lazy-storage arm ([`venn_sim::PopMode::Lazy`]) at
//! 10k / 100k / 1M devices on a fixed modest workload, recording per run:
//!
//! * the deterministic simulation outputs (events, assignments, aborts,
//!   average JCT, `peak_queue_len`, and the materialized-device high-water
//!   mark `peak_live_devices` — the "O(active)" headline), and
//! * machine-dependent telemetry (wall time, events/sec, and the
//!   allocator high-water mark `peak_bytes` when the driving binary
//!   installs [`venn_metrics::alloc::TrackingAlloc`]).
//!
//! The same code path renders and re-checks the committed
//! `BENCH_SCALE.json`: [`check_scale`] re-runs every row within a
//! population cap and diffs the *formatted* deterministic fields, so CI
//! can gate drift at the 100k tier without paying for the 1M row.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::MINUTE_MS;
use venn_sim::{PopMode, SimConfig, Simulation};
use venn_traces::{JobDemandModel, Workload, WorkloadKind};

use crate::baseline::json_num;
use crate::{Experiment, SchedKind};

/// Population tiers of the sweep.
pub const SCALE_POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Scheduler arms of the sweep (Random first: it is the JCT baseline).
pub const SCALE_KINDS: [SchedKind; 2] = [SchedKind::Random, SchedKind::Venn];

/// Simulated horizon — two days keeps the 1M tier laptop-tractable while
/// still exercising the day-boundary session regeneration.
pub(crate) const SCALE_DAYS: u32 = 2;

/// Jobs in the shared workload. Deliberately modest: the sweep measures
/// how the *world* scales with population, so demand stays fixed and
/// population-independent across tiers.
pub(crate) const SCALE_JOBS: usize = 15;

/// One (population, scheduler) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Device population of the run.
    pub population: usize,
    /// Scheduler name (`SimResult::scheduler_name`).
    pub scheduler: String,
    /// Events dispatched.
    pub(crate) events: u64,
    /// Device assignments handed out.
    pub(crate) assignments: u64,
    /// Rounds that missed their deadline.
    pub(crate) aborted_rounds: u64,
    /// Average JCT, formatted to 0.1 ms (`"null"` when no job finished).
    pub(crate) avg_jct_ms: String,
    /// Pending-event-queue high-water mark.
    pub peak_queue_len: u64,
    /// Materialized-device high-water mark — the memory-law headline.
    pub peak_live_devices: usize,
    /// Wall-clock milliseconds (telemetry).
    pub wall_ms: u64,
    /// Events per second of wall time (telemetry).
    pub events_per_sec: u64,
    /// Allocator high-water mark in bytes; 0 when the driving binary
    /// installs no tracking allocator (telemetry).
    pub peak_bytes: u64,
}

impl ScaleRow {
    /// The fields that must be byte-stable across machines and runs, as
    /// `(key, formatted value)` in emission order.
    pub(crate) fn deterministic_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("population", self.population.to_string()),
            ("scheduler", format!("\"{}\"", self.scheduler)),
            ("events", self.events.to_string()),
            ("assignments", self.assignments.to_string()),
            ("aborted_rounds", self.aborted_rounds.to_string()),
            ("avg_jct_ms", self.avg_jct_ms.clone()),
            ("peak_queue_len", self.peak_queue_len.to_string()),
            ("peak_live_devices", self.peak_live_devices.to_string()),
        ]
    }

    /// Machine-dependent telemetry fields, exempt from the drift check.
    pub(crate) fn telemetry_fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("wall_ms", self.wall_ms.to_string()),
            ("events_per_sec", self.events_per_sec.to_string()),
            ("peak_bytes", self.peak_bytes.to_string()),
        ]
    }
}

/// The sweep experiment at one population tier. The workload draws from
/// its own seed stream, independent of `population`, so every tier
/// schedules the identical job set.
pub fn scale_experiment(population: usize, seed: u64) -> Experiment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1_AB1E_0DD5_EED5);
    let workload = Workload::generate(
        WorkloadKind::Even,
        None,
        SCALE_JOBS,
        &JobDemandModel::default(),
        30.0 * MINUTE_MS as f64,
        &mut rng,
    );
    Experiment {
        sim: SimConfig {
            population,
            days: SCALE_DAYS,
            seed,
            pop_mode: PopMode::Lazy,
            ..SimConfig::default()
        },
        workload,
    }
}

/// Runs one sweep cell. Drives the world step by step (instead of
/// [`crate::run`]) so the lazy pool's materialized high-water mark can be
/// read before the world is consumed.
pub fn run_scale_row(population: usize, seed: u64, kind: SchedKind) -> ScaleRow {
    let exp = scale_experiment(population, seed);
    let mut scheduler = kind.build(seed ^ 0xA5A5);
    let name = scheduler.name().to_string();
    venn_metrics::alloc::reset_peak();
    let start = Instant::now();
    let sim = Simulation::new(exp.sim);
    let mut world = sim.world(&exp.workload, &name);
    while world.step(&mut *scheduler, &mut []) {}
    let peak_live_devices = world.devices().peak_live_devices();
    let result = world.finish(&mut []);
    let wall_ms = start.elapsed().as_millis() as u64;
    let peak_bytes = venn_metrics::alloc::peak_bytes();
    ScaleRow {
        population,
        scheduler: name,
        events: result.events,
        assignments: result.assignments,
        aborted_rounds: result.aborted_rounds,
        avg_jct_ms: if result.records.iter().any(|r| r.is_finished()) {
            json_num(result.avg_jct_ms(), 1)
        } else {
            "null".to_string()
        },
        peak_queue_len: result.peak_queue_len,
        peak_live_devices,
        wall_ms,
        events_per_sec: (result.events as f64 * 1_000.0 / wall_ms.max(1) as f64) as u64,
        peak_bytes,
    }
}

/// Renders the `BENCH_SCALE.json` document.
pub fn scale_json(seed: u64, rows: &[ScaleRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"days\": {SCALE_DAYS},\n"));
    out.push_str(&format!("  \"jobs\": {SCALE_JOBS},\n"));
    out.push_str("  \"pop_mode\": \"lazy\",\n");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        let fields: Vec<String> = row
            .deterministic_fields()
            .into_iter()
            .chain(row.telemetry_fields())
            .map(|(k, v)| format!("      \"{k}\": {v}"))
            .collect();
        out.push_str(&fields.join(",\n"));
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

/// Parses a committed scale document back into `(seed, rows)`, each row a
/// raw `key -> formatted value` map. Same shape-specific line reader
/// philosophy as [`crate::parse_baseline`]: unknown keys pass through, so
/// the checker stays forward-readable.
pub fn parse_scale(json: &str) -> Result<(u64, Vec<BTreeMap<String, String>>), String> {
    let mut seed: Option<u64> = None;
    let mut rows = Vec::new();
    let mut in_rows = false;
    let mut cur: Option<BTreeMap<String, String>> = None;
    for line in json.lines() {
        let t = line.trim();
        if !in_rows {
            if let Some(rest) = t.strip_prefix("\"seed\":") {
                let v = rest.trim().trim_end_matches(',');
                seed = Some(v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?);
            }
            if t.starts_with("\"rows\"") {
                in_rows = true;
            }
            continue;
        }
        match t {
            "{" => cur = Some(BTreeMap::new()),
            "}" | "}," => {
                if let Some(m) = cur.take() {
                    rows.push(m);
                }
            }
            _ => {
                if let (Some(m), Some((k, v))) = (cur.as_mut(), t.split_once(':')) {
                    m.insert(
                        k.trim().trim_matches('"').to_string(),
                        v.trim().trim_end_matches(',').to_string(),
                    );
                }
            }
        }
    }
    let seed = seed.ok_or("scale document has no seed")?;
    if rows.is_empty() {
        return Err("scale document has no rows".to_string());
    }
    Ok((seed, rows))
}

/// Re-runs every committed row with `population <= max_pop` and returns
/// the drift messages (empty = green). Telemetry fields are exempt;
/// deterministic fields compare as formatted strings — the exact bytes
/// the JSON carries.
pub fn check_scale(json: &str, max_pop: usize) -> Result<Vec<String>, String> {
    let (seed, rows) = parse_scale(json)?;
    let mut drifts = Vec::new();
    let mut checked = 0_usize;
    for row in &rows {
        let pop_str = row.get("population").ok_or("row missing population")?;
        let population: usize = pop_str
            .parse()
            .map_err(|e| format!("bad population {pop_str:?}: {e}"))?;
        if population > max_pop {
            continue;
        }
        let sched = row
            .get("scheduler")
            .ok_or("row missing scheduler")?
            .trim_matches('"');
        let kind = SCALE_KINDS
            .into_iter()
            .find(|kind| kind.build(seed).name() == sched)
            .ok_or_else(|| format!("unknown scheduler arm {sched:?} in baseline"))?;
        // The committed document still carries the rows of the deleted
        // sharded engine (`"shards": N`); only `0` or no key replays.
        if row.get("shards").is_some_and(|s| s != "0") {
            continue;
        }
        let fresh = run_scale_row(population, seed, kind);
        for (key, value) in fresh.deterministic_fields() {
            match row.get(key) {
                Some(old) if *old == value => {}
                Some(old) => drifts.push(format!(
                    "{population}/{sched}: {key} drifted: baseline {old} vs current {value}"
                )),
                None => drifts.push(format!("{population}/{sched}: baseline missing {key}")),
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("no rows with population <= {max_pop} to check"));
    }
    Ok(drifts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_row() -> ScaleRow {
        // A sub-tier population keeps the round-trip test fast; the row
        // machinery is population-agnostic.
        run_scale_row(2_000, 7, SchedKind::Random)
    }

    #[test]
    fn rows_round_trip_through_json_and_pass_their_own_check() {
        let row = tiny_row();
        assert_eq!(row.scheduler, "random");
        assert!(row.events > 0);
        assert!(row.peak_live_devices > 0);
        let json = scale_json(7, std::slice::from_ref(&row));
        let (seed, parsed) = parse_scale(&json).unwrap();
        assert_eq!(seed, 7);
        assert_eq!(parsed.len(), 1);
        for (k, v) in row.deterministic_fields() {
            assert_eq!(parsed[0].get(k), Some(&v), "{k}");
        }
        let drifts = check_scale(&json, usize::MAX).unwrap();
        assert!(drifts.is_empty(), "self-check must be green: {drifts:?}");
    }

    #[test]
    fn check_reports_drift_and_respects_the_population_cap() {
        let row = tiny_row();
        let mut doctored = row.clone();
        doctored.events += 1;
        let json = scale_json(7, &[doctored]);
        let drifts = check_scale(&json, usize::MAX).unwrap();
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert!(drifts[0].contains("events drifted"), "{drifts:?}");
        // Every row above the cap: the checker refuses to vacuously pass.
        assert!(check_scale(&json, 100).is_err());
    }

    #[test]
    fn lazy_scale_runs_materialize_a_fraction_of_the_population() {
        let row = tiny_row();
        assert!(
            row.peak_live_devices < row.population / 2,
            "peak live {} vs population {}",
            row.peak_live_devices,
            row.population
        );
    }

    #[test]
    fn workload_is_population_independent() {
        let a = scale_experiment(1_000, 42);
        let b = scale_experiment(100_000, 42);
        assert_eq!(a.workload, b.workload);
    }

    /// `json` with a `"shards": n` line added to every row, as the
    /// committed document labels them.
    fn with_shards(json: &str, n: u32) -> String {
        json.replace(
            "      \"events\":",
            &format!("      \"shards\": {n},\n      \"events\":"),
        )
    }

    #[test]
    fn checker_tolerates_rows_without_the_shards_key() {
        let json = scale_json(7, &[tiny_row()]);
        assert!(!json.contains("\"shards\""), "rows carry no such key now");
        assert_eq!(check_scale(&json, usize::MAX), Ok(vec![]));
        assert_eq!(check_scale(&with_shards(&json, 0), usize::MAX), Ok(vec![]));
    }

    #[test]
    fn checker_skips_rows_of_the_deleted_sharded_arm() {
        let mut doctored = tiny_row();
        doctored.events += 1;
        let sharded = with_shards(&scale_json(7, &[doctored]), 2);
        assert!(sharded.contains("\"shards\": 2"));
        // Never replayed, so never diffed — and never a vacuous pass.
        assert!(check_scale(&sharded, usize::MAX).is_err());
    }
}
