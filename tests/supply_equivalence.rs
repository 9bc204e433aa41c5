//! The supply estimator's packed ring must answer every query exactly as a
//! plain list of check-ins would: for any interleaving of records, batched
//! records, spec registrations, queries and snapshot round trips,
//! `window_count`, `rate`, `region_supplies`, `registered_rates` and
//! `registered_regions` equal the reference [`Model`] below, bit for bit.
//!
//! The generated streams cover the ring's hard cases: same-millisecond
//! ties, steps at and around the longest step one word carries
//! ([`MAX_DT`]), gaps of up to three such steps (bridged by filler words,
//! or by a restart once the window has emptied), windows shorter and
//! longer than one step, and an encode → decode at any point of the
//! stream. Two estimators run side by side: one takes each batch through
//! `record_batch`, the other record by record through `record`, and they
//! must encode to the same bytes after every operation.
//!
//! Separately, a damaged encoding — truncated, or with one bit flipped —
//! must decode to an error or to an estimator that encodes back to exactly
//! the damaged bytes: never a panic, never a silent reinterpretation. The
//! damage hits every byte of the encoding: the window, the ring and the
//! registered specs.

use std::collections::BTreeMap;

use proptest::prelude::*;

use venn::core::supply::RegionSupply;
use venn::core::{
    Capacity, CheckInRecord, DeviceId, DeviceInfo, ResourceSpec, SnapReader, SnapWriter, Snapshot,
    SupplyEstimator, DAY_MS,
};

/// Longest step one ring word carries: its 19 step bits.
const MAX_DT: u64 = (1 << 19) - 1;

/// Cells per axis of the estimator's capacity grid.
const GRID: usize = 64;

/// Capacity scores the streams draw from: grid edges, a value just past
/// an edge, and both ends of the unit interval.
const SCORES: [f64; 11] = [0.0, 0.1, 0.25, 0.3, 0.5, 0.505, 0.51, 0.75, 0.9, 0.99, 1.0];

/// Spec thresholds, on and off the grid edges.
const THRESHOLDS: [f64; 6] = [0.0, 0.25, 0.5, 0.505, 0.75, 0.99];

fn score(i: u8) -> f64 {
    SCORES[i as usize % SCORES.len()]
}

/// The grid cell a score falls in, as the estimator quantizes it.
fn grid(v: f64) -> usize {
    (v * GRID as f64).min((GRID - 1) as f64).max(0.0) as usize
}

/// The reference the estimator is held to: every check-in ever recorded,
/// as `(time, cpu cell, mem cell)`, and a fresh walk per query.
struct Model {
    window_ms: u64,
    records: Vec<(u64, usize, usize)>,
    specs: Vec<ResourceSpec>,
}

impl Model {
    fn record(&mut self, time: u64, capacity: &Capacity) {
        self.records
            .push((time, grid(capacity.cpu()), grid(capacity.mem())));
    }

    /// Low corners of the cells of the check-ins inside the window.
    fn in_window(&self, now: u64) -> impl Iterator<Item = Capacity> + '_ {
        let cutoff = now.saturating_sub(self.window_ms);
        self.records
            .iter()
            .filter(move |r| r.0 >= cutoff)
            .map(|&(_, cpu, mem)| Capacity::new(cpu as f64 / GRID as f64, mem as f64 / GRID as f64))
    }

    fn span(&self, now: u64) -> f64 {
        self.window_ms.min(now.max(1)) as f64
    }

    fn window_count(&self, now: u64) -> usize {
        self.in_window(now).count()
    }

    fn rate(&self, now: u64, spec: &ResourceSpec) -> f64 {
        self.in_window(now).filter(|c| spec.is_eligible(c)).count() as f64 / self.span(now)
    }

    fn regions(&self, now: u64, specs: &[ResourceSpec]) -> Vec<RegionSupply> {
        let mut by_mask: BTreeMap<u128, u64> = BTreeMap::new();
        for c in self.in_window(now) {
            let mask = specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_eligible(&c))
                .fold(0u128, |m, (j, _)| m | 1 << j);
            if mask != 0 {
                *by_mask.entry(mask).or_default() += 1;
            }
        }
        by_mask
            .into_iter()
            .map(|(mask, n)| RegionSupply {
                mask,
                rate: n as f64 / self.span(now),
            })
            .collect()
    }
}

/// One scripted operation. Every gap moves the shared clock forward, so
/// records and queries never go back in time (the simulator never does).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// One check-in `gap` after the clock.
    Record { gap: u64, cpu: u8, mem: u8 },
    /// `len` check-ins, the first `gap` after the clock, the rest with
    /// alternating ties and shrinking steps.
    Batch { gap: u64, len: u8, cpu: u8 },
    /// Every query, `gap` after the clock.
    Query { gap: u64 },
    /// A spec joins the mask index.
    Register { cpu: u8, mem: u8 },
    /// Both estimators go through encode → decode.
    Restore,
}

fn device(cpu: u8, mem: u8) -> DeviceInfo {
    DeviceInfo::new(DeviceId::new(0), Capacity::new(score(cpu), score(mem)))
}

/// The estimators under test, driven in lock-step with the [`Model`].
struct Harness {
    /// Takes batches through `record_batch`.
    batched: SupplyEstimator,
    /// Takes batches one `record` at a time.
    single: SupplyEstimator,
    model: Model,
    now: u64,
}

impl Harness {
    fn new(window_ms: u64) -> Self {
        Harness {
            batched: SupplyEstimator::new(window_ms),
            single: SupplyEstimator::new(window_ms),
            model: Model {
                window_ms,
                records: Vec::new(),
                specs: Vec::new(),
            },
            now: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Record { gap, cpu, mem } => {
                self.now += gap;
                let d = device(cpu, mem);
                self.batched.record(self.now, d.capacity());
                self.single.record(self.now, d.capacity());
                self.model.record(self.now, d.capacity());
            }
            Op::Batch { gap, len, cpu } => {
                let mut batch = Vec::new();
                for i in 0..len as u64 {
                    self.now += match i {
                        0 => gap,
                        _ => gap / (i + 1) * (i % 2),
                    };
                    let d = device(cpu.wrapping_add(i as u8), cpu.wrapping_add(3 * i as u8));
                    batch.push(CheckInRecord {
                        time: self.now,
                        device: d,
                    });
                }
                self.batched.record_batch(&batch);
                for r in &batch {
                    self.single.record(r.time, r.device.capacity());
                    self.model.record(r.time, r.device.capacity());
                }
            }
            Op::Query { gap } => {
                self.now += gap;
                self.assert_queries();
            }
            Op::Register { cpu, mem } => {
                let spec = ResourceSpec::new(
                    THRESHOLDS[cpu as usize % THRESHOLDS.len()],
                    THRESHOLDS[mem as usize % THRESHOLDS.len()],
                );
                let j = self.model.specs.len();
                assert_eq!(self.batched.register_spec(spec), j);
                assert_eq!(self.single.register_spec(spec), j);
                self.model.specs.push(spec);
            }
            Op::Restore => {
                self.batched = restored(&self.batched);
                self.single = restored(&self.single);
            }
        }
        assert!(
            encode(&self.batched) == encode(&self.single),
            "record_batch left other bytes than per-record record after {op:?}"
        );
    }

    fn assert_queries(&mut self) {
        let now = self.now;
        let model = &self.model;
        for s in [&mut self.batched, &mut self.single] {
            assert_eq!(s.window_count(now), model.window_count(now), "window_count");
            let mut rates = Vec::new();
            s.registered_rates(now, &mut rates);
            let expected: Vec<f64> = model.specs.iter().map(|sp| model.rate(now, sp)).collect();
            assert_eq!(bits(&rates), bits(&expected), "registered_rates");
            for spec in &model.specs {
                assert_eq!(s.rate(now, spec).to_bits(), model.rate(now, spec).to_bits());
            }
            let mut regions = Vec::new();
            s.registered_regions(now, &mut regions);
            assert_eq!(
                regions,
                model.regions(now, &model.specs),
                "registered_regions"
            );
            let probe = [ResourceSpec::any(), ResourceSpec::new(0.5, 0.25)];
            assert_eq!(
                s.region_supplies(now, &probe),
                model.regions(now, &probe),
                "region_supplies"
            );
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn encode(s: &SupplyEstimator) -> Vec<u8> {
    let mut w = SnapWriter::new();
    s.encode(&mut w);
    w.into_bytes()
}

/// Decodes the whole of `bytes` as one estimator.
fn decode(bytes: &[u8]) -> Result<SupplyEstimator, venn::core::SnapError> {
    let mut r = SnapReader::new(bytes);
    let s = SupplyEstimator::decode(&mut r)?;
    r.finish()?;
    Ok(s)
}

/// Encode → decode, which must re-encode to the same bytes.
fn restored(s: &SupplyEstimator) -> SupplyEstimator {
    let bytes = encode(s);
    let back = decode(&bytes).expect("an encoded estimator decodes");
    assert!(
        encode(&back) == bytes,
        "decode is not the inverse of encode"
    );
    back
}

/// Gaps: ties, small steps, the one-word limit ± 1, two limits ± 1, and
/// anything up to three limits.
fn gap() -> impl Strategy<Value = u64> {
    (0u32..6, 0u64..3 * MAX_DT + 1).prop_map(|(kind, x)| match kind {
        0 => 0,
        1 => x % 16,
        2 => MAX_DT - 1 + x % 3,
        3 => 2 * MAX_DT - 1 + x % 3,
        _ => x,
    })
}

/// Windows shorter than, around, and longer than one word's step.
fn window() -> impl Strategy<Value = u64> {
    (0usize..6).prop_map(|i| {
        [
            1_000,
            MAX_DT - 1,
            MAX_DT,
            MAX_DT + 1,
            2 * MAX_DT + 7,
            DAY_MS,
        ][i]
    })
}

/// Records and batches dominate; registrations, queries and restores ride
/// along.
fn op((which, gap, a, b): (u32, u64, u8, u8)) -> Op {
    match which {
        0..=3 => Op::Record {
            gap,
            cpu: a,
            mem: b,
        },
        4 | 5 => Op::Batch {
            gap,
            len: b % 12,
            cpu: a,
        },
        6 | 7 => Op::Query { gap },
        8 => Op::Register { cpu: a, mem: b },
        _ => Op::Restore,
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u32..10, gap(), 0u8..255, 0u8..255).prop_map(op), 1..80)
}

proptest! {
    /// Random interleavings answer every query as the model does.
    #[test]
    fn packed_ring_matches_the_model(window in window(), ops in ops()) {
        let mut h = Harness::new(window);
        for &op in &ops {
            h.apply(op);
        }
        h.apply(Op::Query { gap: 0 });
        h.apply(Op::Query { gap: window });
    }
}

#[test]
fn long_gaps_bridge_with_fillers_and_expire_them() {
    // A window three steps long keeps fillers between in-window records;
    // the final query expires everything, fillers included.
    let mut h = Harness::new(3 * MAX_DT);
    let ops = [
        Op::Register { cpu: 0, mem: 0 },
        Op::Record {
            gap: 5,
            cpu: 4,
            mem: 4,
        },
        Op::Record {
            gap: 2 * MAX_DT + 1,
            cpu: 10,
            mem: 1,
        },
        Op::Record {
            gap: 0,
            cpu: 10,
            mem: 1,
        },
        Op::Batch {
            gap: MAX_DT + 1,
            len: 5,
            cpu: 3,
        },
        Op::Query { gap: MAX_DT },
        Op::Restore,
        Op::Query { gap: 4 * MAX_DT },
        Op::Record {
            gap: 1,
            cpu: 2,
            mem: 2,
        },
        Op::Query { gap: 0 },
    ];
    for op in ops {
        h.apply(op);
    }
}

/// An estimator whose encoding exercises every ring field: fillers in the
/// window, same-millisecond ties, and two registered specs.
fn crafted() -> SupplyEstimator {
    let mut s = SupplyEstimator::new(3 * MAX_DT);
    s.register_spec(ResourceSpec::new(0.5, 0.25));
    s.record(7, &Capacity::new(0.9, 0.1));
    s.record(7, &Capacity::new(0.3, 0.6));
    s.record(MAX_DT + 20, &Capacity::new(0.6, 0.6));
    s.record(3 * MAX_DT, &Capacity::new(0.1, 0.9));
    s.register_spec(ResourceSpec::any());
    s.record(3 * MAX_DT + 2, &Capacity::new(1.0, 1.0));
    s
}

/// Truncating the encoding at `site` must be refused; flipping any bit
/// of byte `site` must be refused or decode to an estimator that encodes
/// back to exactly the damaged bytes.
fn assert_damage_refused_or_canonical(bytes: &[u8], site: usize) {
    assert!(
        decode(&bytes[..site]).is_err(),
        "truncation to {site} bytes decoded"
    );
    let mut damaged = bytes.to_vec();
    for bit in 0..8 {
        damaged[site] ^= 1 << bit;
        let ok = decode(&damaged).map_or(true, |s| encode(&s) == damaged);
        assert!(
            ok,
            "flipping bit {bit} of byte {site} decoded into another estimator"
        );
        damaged[site] ^= 1 << bit;
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_crafted_estimator_is_refused_or_canonical() {
    let bytes = encode(&crafted());
    for site in 0..bytes.len() {
        assert_damage_refused_or_canonical(&bytes, site);
    }
}

proptest! {
    /// Random estimators, damaged at random sites.
    #[test]
    fn damaged_encodings_are_refused_or_canonical(
        window in window(),
        ops in ops(),
        picks in proptest::collection::vec(0usize..usize::MAX, 8),
    ) {
        let mut h = Harness::new(window);
        for &op in &ops {
            h.apply(op);
        }
        let bytes = encode(&h.batched);
        for pick in picks {
            assert_damage_refused_or_canonical(&bytes, pick % bytes.len());
        }
    }
}
