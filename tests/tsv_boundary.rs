//! The workload TSV boundary, fuzzed: `from_tsv` answers any input with a
//! workload or a typed error, never a panic, and every workload it
//! accepts runs to the horizon on a tiny world.

use proptest::prelude::*;

use venn::core::{SpecCategory, VennConfig, VennScheduler};
use venn::sim::{SimConfig, Simulation};
use venn::traces::io::from_tsv;

/// The values that sit on a field's edges: zero, one, and the largest
/// `u32` (which every numeric field parses).
const EDGES: [u64; 3] = [0, 1, u32::MAX as u64];

fn edge() -> impl Strategy<Value = u64> {
    (0usize..EDGES.len()).prop_map(|i| EDGES[i])
}

/// Bytes drawn half from the TSV alphabet (digits, separators, a
/// category name, comment marks) and half from anywhere.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"0123456789\t\t\n\n#-. General";
    proptest::collection::vec((0u8..255, 0usize..2), 0..96).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(b, raw)| {
                if raw == 1 {
                    b
                } else {
                    ALPHABET[b as usize % ALPHABET.len()]
                }
            })
            .collect()
    })
}

/// One six-field record: id, arrival, category, rounds, demand, task cost.
fn record() -> impl Strategy<Value = String> {
    let numbers = (edge(), edge(), edge(), (edge(), edge()));
    ((0usize..SpecCategory::ALL.len()), numbers).prop_map(
        |(category, (id, arrival, rounds, (demand, task_ms)))| {
            let label = SpecCategory::ALL[category].label();
            format!("{id}\t{arrival}\t{label}\t{rounds}\t{demand}\t{task_ms}\n")
        },
    )
}

/// Runs an accepted document on 200 devices for one day under Venn.
fn runs_to_completion(text: &str) {
    let Ok(workload) = from_tsv(text) else {
        return;
    };
    let config = SimConfig {
        population: 200,
        days: 1,
        ..SimConfig::default()
    };
    let mut scheduler = VennScheduler::new(VennConfig::default());
    let result = Simulation::new(config).run(&workload, &mut scheduler);
    assert_eq!(result.records.len(), workload.jobs.len());
}

proptest! {
    #[test]
    fn random_bytes_parse_or_fail_typed(bytes in bytes()) {
        runs_to_completion(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn edge_valued_records_parse_or_fail_typed_and_accepted_ones_run(
        lines in proptest::collection::vec(record(), 1..4),
    ) {
        let text = lines.concat();
        if let Err(err) = from_tsv(&text) {
            prop_assert!(err.to_string().starts_with("invalid workload record on line"));
        }
        runs_to_completion(&text);
    }
}
