//! Property-based tests over the core invariants of the Venn stack.

use proptest::prelude::*;

use venn::baselines::BaselineScheduler;
use venn::core::irs::{allocate, GroupSummary};
use venn::core::matching::TierProfiler;
use venn::core::supply::RegionSupply;
use venn::core::{
    Capacity, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler, SupplyEstimator,
    VennConfig, VennScheduler,
};
use venn::opt::{fixed_order_cost, solve, Arrival, Instance};

// --- IRS allocation invariants -------------------------------------------

/// Strategy: up to 6 groups with random supplies/queues plus the atomic
/// regions induced by random nesting.
fn irs_inputs() -> impl Strategy<Value = (Vec<GroupSummary>, Vec<RegionSupply>)> {
    (2usize..6).prop_flat_map(|n| {
        let groups =
            proptest::collection::vec((0.01f64..10.0, 0.0f64..20.0), n).prop_map(move |params| {
                params
                    .iter()
                    .enumerate()
                    .map(|(index, (supply, queue))| GroupSummary {
                        index,
                        eligible_supply: *supply,
                        queue_len: *queue,
                    })
                    .collect::<Vec<_>>()
            });
        // Regions: a handful of non-empty masks over n bits.
        let regions =
            proptest::collection::vec((1u128..(1 << n), 0.01f64..5.0), 1..8).prop_map(|rs| {
                rs.into_iter()
                    .map(|(mask, rate)| RegionSupply { mask, rate })
                    .collect::<Vec<_>>()
            });
        (groups, regions)
    })
}

proptest! {
    /// Every owned region's owner is eligible for it, and every region with
    /// at least one eligible group gets an owner.
    #[test]
    fn irs_owners_are_eligible_and_complete((groups, regions) in irs_inputs()) {
        let plan = allocate(&groups, &regions);
        for r in &regions {
            match plan.owner_of(r.mask) {
                Some(owner) => prop_assert!(r.mask & (1u128 << owner) != 0),
                None => {
                    // Only regions no group is eligible for may be unowned.
                    let any_eligible = groups.iter().any(|g| r.mask & (1u128 << g.index) != 0);
                    prop_assert!(!any_eligible);
                }
            }
        }
    }

    /// The offer order never proposes an ineligible group and never repeats.
    #[test]
    fn irs_offer_order_is_sound((groups, regions) in irs_inputs()) {
        let plan = allocate(&groups, &regions);
        for r in &regions {
            let order: Vec<usize> = plan.offer_order(r.mask).collect();
            let mut seen = std::collections::HashSet::new();
            for g in order {
                prop_assert!(r.mask & (1u128 << g) != 0, "ineligible group offered");
                prop_assert!(seen.insert(g), "group offered twice");
            }
        }
    }
}

// --- Supply estimator invariants ------------------------------------------

proptest! {
    /// Region supplies always partition the total eligible rate.
    #[test]
    fn region_supplies_partition_total(
        caps in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..100),
        t1 in 0.0f64..0.8, t2 in 0.0f64..0.8,
    ) {
        let mut s = SupplyEstimator::new(10_000);
        for (cpu, mem) in &caps {
            s.record(100, &Capacity::new(*cpu, *mem));
        }
        let specs = [
            ResourceSpec::any(),
            ResourceSpec::new(t1, 0.0),
            ResourceSpec::new(0.0, t2),
            ResourceSpec::new(t1, t2),
        ];
        let regions = s.region_supplies(200, &specs);
        let total: f64 = regions.iter().map(|r| r.rate).sum();
        let any = s.rate(200, &ResourceSpec::any());
        prop_assert!((total - any).abs() < 1e-9);
        // Masks are unique.
        let mut masks = std::collections::HashSet::new();
        for r in &regions {
            prop_assert!(masks.insert(r.mask));
        }
    }

    /// A stricter spec never has a higher rate than a weaker one.
    #[test]
    fn rates_are_monotone_in_spec(
        caps in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        a in 0.0f64..1.0, b in 0.0f64..1.0,
    ) {
        let mut s = SupplyEstimator::new(10_000);
        for (cpu, mem) in &caps {
            s.record(0, &Capacity::new(*cpu, *mem));
        }
        let weak = ResourceSpec::new(a * 0.5, b * 0.5);
        let strong = ResourceSpec::new(a * 0.5 + 0.3, b * 0.5 + 0.3);
        prop_assert!(s.rate(100, &strong) <= s.rate(100, &weak) + 1e-12);
    }
}

// --- Scheduler conservation ------------------------------------------------

proptest! {
    /// The Venn scheduler never over-assigns: the number of assignments per
    /// request never exceeds its demand plus restored failures, and devices
    /// failing eligibility are never matched.
    #[test]
    fn venn_never_overassigns(
        demands in proptest::collection::vec(1u32..8, 1..5),
        devices in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..80),
    ) {
        let mut venn = VennScheduler::new(VennConfig::default());
        let spec = ResourceSpec::new(0.4, 0.4);
        for (i, d) in demands.iter().enumerate() {
            venn.submit(
                Request::new(JobId::new(i as u64), spec, *d, *d as u64),
                i as u64,
            );
        }
        let mut assigned = vec![0u32; demands.len()];
        for (i, (cpu, mem)) in devices.iter().enumerate() {
            let dev = DeviceInfo::new(
                DeviceId::new(i as u64),
                Capacity::new(*cpu, *mem),
            );
            venn.on_check_in(&dev, 1_000 + i as u64);
            if let Some(job) = venn.assign(&dev, 1_000 + i as u64) {
                prop_assert!(spec.is_eligible(dev.capacity()), "ineligible assignment");
                assigned[job.as_u64() as usize] += 1;
            }
        }
        for (a, d) in assigned.iter().zip(&demands) {
            prop_assert!(a <= d, "assigned {a} > demand {d}");
        }
    }
}

// --- Dense data plane: spec registry and id-indexed job state -------------

proptest! {
    /// The supply estimator's spec registry is the Venn scheduler's group
    /// interner: looking a spec up and registering it on a miss gives
    /// equal specs the same bit at any point of an interleaved
    /// submit/complete/churn stream, bits are dense in first-seen order,
    /// and lookup inverts registration.
    #[test]
    fn interner_round_trips_across_churn(
        ops in proptest::collection::vec((0u8..8, 0u8..8), 1..120),
    ) {
        let mut registry = SupplyEstimator::with_default_window();
        let mut seen: Vec<(ResourceSpec, usize)> = Vec::new();
        for &(c, m) in &ops {
            let spec = ResourceSpec::new(c as f64 / 8.0, m as f64 / 8.0);
            let found = registry.lookup_spec(spec);
            let j = found.unwrap_or_else(|| registry.register_spec(spec));
            // Registration → spec list is the identity.
            prop_assert_eq!(registry.specs()[j], spec);
            match seen.iter().find(|(s, _)| *s == spec) {
                Some(&(_, prev)) => {
                    prop_assert_eq!(found, Some(prev), "same spec must find its bit again");
                }
                None => {
                    prop_assert_eq!(found, None);
                    prop_assert_eq!(j, seen.len(), "bits are dense, first-seen order");
                    seen.push((spec, j));
                }
            }
        }
        // The full mapping survives the stream intact.
        prop_assert_eq!(registry.specs().len(), seen.len());
        for (spec, j) in seen {
            prop_assert_eq!(registry.lookup_spec(spec), Some(j));
            prop_assert_eq!(registry.specs()[j], spec);
        }
    }

    /// Id-indexed job state: over any submit/withdraw stream, in both
    /// schedulers, every job with an open request reports its own pending
    /// demand, and a withdrawn job resolves to nothing — also after its
    /// id, or a neighbouring one, was withdrawn and resubmitted.
    #[test]
    fn withdrawn_jobs_never_resolve(
        ops in proptest::collection::vec((0u8..2, 0u64..12, 1u32..5), 1..150),
    ) {
        let mut scheds: [Box<dyn Scheduler>; 2] = [
            Box::new(BaselineScheduler::fifo()),
            Box::new(VennScheduler::new(VennConfig::default())),
        ];
        let mut model: Vec<Option<u32>> = vec![None; 12];
        for (t, &(withdraw, job, demand)) in ops.iter().enumerate() {
            let id = JobId::new(job);
            for s in &mut scheds {
                if withdraw == 1 {
                    s.withdraw(id, t as u64);
                } else {
                    let request = Request::new(id, ResourceSpec::any(), demand, demand as u64);
                    s.submit(request, t as u64);
                }
            }
            model[job as usize] = (withdraw == 0).then_some(demand);
            for s in &scheds {
                for (j, &want) in model.iter().enumerate() {
                    prop_assert_eq!(s.pending_demand(JobId::new(j as u64)), want, "job {}", j);
                }
                prop_assert_eq!(s.has_open_demand(), model.iter().any(Option::is_some));
            }
        }
    }
}

// --- Exact solver vs fixed orders ------------------------------------------

proptest! {
    /// The exact optimum is a lower bound on every feasible fixed order —
    /// including the order Venn would pick.
    #[test]
    fn optimal_lower_bounds_all_orders(
        demands in proptest::collection::vec(1u32..4, 2..4),
        elig_bits in proptest::collection::vec(1u64..8, 12..20),
    ) {
        let n = demands.len();
        let mask_cap = (1u64 << n) - 1;
        let arrivals: Vec<Arrival> = elig_bits
            .iter()
            .enumerate()
            .map(|(i, e)| Arrival { time: i as u64 + 1, eligible: (e & mask_cap).max(1) })
            .collect();
        let inst = Instance::new(demands.clone(), arrivals);
        if let Some(sol) = solve(&inst) {
            // Try all permutations of up to 3 jobs.
            let mut orders: Vec<Vec<usize>> = Vec::new();
            let idx: Vec<usize> = (0..n).collect();
            permute(&idx, &mut Vec::new(), &mut orders);
            for order in orders {
                if let Some(cost) = fixed_order_cost(&inst, &order) {
                    prop_assert!(sol.total_completion() <= cost);
                }
            }
        }
    }
}

fn permute(rest: &[usize], acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if rest.is_empty() {
        out.push(acc.clone());
        return;
    }
    for (i, &x) in rest.iter().enumerate() {
        let mut next: Vec<usize> = rest.to_vec();
        next.remove(i);
        acc.push(x);
        permute(&next, acc, out);
        acc.pop();
    }
}

// --- Tier profiler invariants -----------------------------------------------

proptest! {
    /// Tier edges are monotone and cover the real line for any profile.
    #[test]
    fn tier_edges_monotone(
        scores in proptest::collection::vec(0.0f64..1.0, 0..40),
        v in 1usize..6,
    ) {
        let mut p = TierProfiler::new();
        for s in &scores {
            p.record_participant(*s);
        }
        let edges = p.tier_edges(v);
        prop_assert_eq!(edges.len(), v + 1);
        prop_assert_eq!(edges[0], f64::NEG_INFINITY);
        prop_assert_eq!(edges[v], f64::INFINITY);
        for w in edges.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Speed-up factors are positive and the trigger never fires for V = 1.
    #[test]
    fn speedups_positive(
        responses in proptest::collection::vec((0.0f64..1.0, 1_000u64..600_000), 1..60),
        v in 1usize..5,
    ) {
        let mut p = TierProfiler::new();
        for (s, r) in &responses {
            p.record_participant(*s);
            p.record_response(*s, *r);
        }
        p.record_sched_delay(30_000);
        for u in 0..v {
            prop_assert!(p.speedup(v, u) > 0.0);
        }
        prop_assert!(venn::core::matching::decide_tier(&mut p, 1, 0, 1).is_none());
    }
}
