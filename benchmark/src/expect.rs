//! The deterministic fields of a run, and the committed rows they must
//! equal at the seed the repository's `BENCH_*.json` files were cut at.

use venn_bench::{parse_baseline, parse_scale};
use venn_sim::SimResult;

/// Seed of `BENCH_BASELINE.json` / `BENCH_SCALE.json`. The job traces of
/// every workload are generated from it whatever `--seed` says (see
/// `worlds::inputs`), so at `--seed 42` the runs are the committed ones.
pub const BASELINE_SEED: u64 = 42;

const BENCH_BASELINE: &str = include_str!("../../BENCH_BASELINE.json");
const BENCH_SCALE: &str = include_str!("../../BENCH_SCALE.json");

/// What must repeat exactly between two runs of the same inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields {
    pub events: u64,
    pub assignments: u64,
    pub aborted_rounds: u64,
    /// Formatted to 0.1 ms, as the committed files carry it.
    pub avg_jct_ms: String,
    pub peak_queue_len: u64,
    /// `None` where the source has no such field (`BENCH_BASELINE.json`).
    pub peak_live_devices: Option<usize>,
}

impl Fields {
    pub fn of(result: &SimResult, peak_live_devices: usize) -> Self {
        Fields {
            events: result.events,
            assignments: result.assignments,
            aborted_rounds: result.aborted_rounds,
            avg_jct_ms: format!("{:.1}", result.avg_jct_ms()),
            peak_queue_len: result.peak_queue_len,
            peak_live_devices: Some(peak_live_devices),
        }
    }

    /// Field-by-field differences against `expected`, as messages.
    pub fn diff(&self, expected: &Fields, what: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cmp = |key: &str, got: String, want: String| {
            if got != want {
                out.push(format!("{what}: {key} is {got}, expected {want}"));
            }
        };
        cmp(
            "events",
            self.events.to_string(),
            expected.events.to_string(),
        );
        cmp(
            "assignments",
            self.assignments.to_string(),
            expected.assignments.to_string(),
        );
        cmp(
            "aborted_rounds",
            self.aborted_rounds.to_string(),
            expected.aborted_rounds.to_string(),
        );
        cmp(
            "avg_jct_ms",
            self.avg_jct_ms.clone(),
            expected.avg_jct_ms.clone(),
        );
        cmp(
            "peak_queue_len",
            self.peak_queue_len.to_string(),
            expected.peak_queue_len.to_string(),
        );
        if let (Some(got), Some(want)) = (self.peak_live_devices, expected.peak_live_devices) {
            cmp("peak_live_devices", got.to_string(), want.to_string());
        }
        out
    }
}

/// The `BENCH_BASELINE.json` row of `scheduler` (paper default, 5k).
pub fn baseline_row(scheduler: &str) -> Result<Fields, String> {
    let (seed, rows) = parse_baseline(BENCH_BASELINE)?;
    if seed != BASELINE_SEED {
        return Err(format!("BENCH_BASELINE.json is at seed {seed}"));
    }
    let row = rows
        .iter()
        .find(|r| r.name == scheduler)
        .ok_or_else(|| format!("BENCH_BASELINE.json has no {scheduler} row"))?;
    Ok(Fields {
        events: row.events,
        assignments: row.assignments,
        aborted_rounds: row.aborted_rounds,
        avg_jct_ms: row.avg_jct_ms.clone(),
        peak_queue_len: row.peak_queue_len,
        peak_live_devices: None,
    })
}

/// The `BENCH_SCALE.json` row of `(population, scheduler, shards)`.
pub fn scale_row(population: usize, scheduler: &str, shards: u32) -> Result<Fields, String> {
    let (seed, rows) = parse_scale(BENCH_SCALE)?;
    if seed != BASELINE_SEED {
        return Err(format!("BENCH_SCALE.json is at seed {seed}"));
    }
    let row = rows
        .iter()
        .find(|r| {
            r.get("population").map(String::as_str) == Some(&population.to_string())
                && r.get("scheduler").map(|s| s.trim_matches('"')) == Some(scheduler)
                && r.get("shards").map(String::as_str) == Some(&shards.to_string())
        })
        .ok_or_else(|| {
            format!("BENCH_SCALE.json has no {population}/{scheduler}/shards={shards} row")
        })?;
    let num = |key: &str| -> Result<u64, String> {
        row.get(key)
            .ok_or_else(|| format!("BENCH_SCALE.json row lacks {key}"))?
            .parse()
            .map_err(|e| format!("BENCH_SCALE.json {key}: {e}"))
    };
    Ok(Fields {
        events: num("events")?,
        assignments: num("assignments")?,
        aborted_rounds: num("aborted_rounds")?,
        avg_jct_ms: row
            .get("avg_jct_ms")
            .ok_or("BENCH_SCALE.json row lacks avg_jct_ms")?
            .clone(),
        peak_queue_len: num("peak_queue_len")?,
        peak_live_devices: Some(num("peak_live_devices")? as usize),
    })
}
