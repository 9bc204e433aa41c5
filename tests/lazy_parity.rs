//! `SplitEager` ⇄ `Lazy` storage parity.
//!
//! The lazy arm materializes a `DeviceState` only when a device is first
//! touched (session start, hold, environment disturbance) and retires it
//! once the device is idle past its session end. These tests pin the
//! tentpole claim: that storage choice is *invisible* — every record,
//! assignment, event, and environment counter is byte-identical to the
//! dense `SplitEager` reference arm, across schedulers, seeds, and the
//! kitchen-sink chaos environment (whose mass-offline waves and scripted
//! faults hit devices that were never otherwise touched, exercising the
//! absent-device fast paths).
//!
//! Built on the shared differential harness in `tests/common/parity.rs`.

mod common;

use common::parity::{assert_run_parity, observe, Observed, SCHED_SEED_SALT};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use venn::env::EnvPreset;
use venn::serve::SchedSpec;
use venn::sim::{PopMode, SimConfig, Simulation};
use venn::traces::Workload;

fn config(seed: u64, population: usize, days: u32, env: EnvPreset) -> SimConfig {
    SimConfig {
        population,
        days,
        seed,
        env: env.config(),
        // Round participant lists are the finest-grained output; compare
        // them too.
        record_rounds: true,
        ..SimConfig::small()
    }
}

/// Runs one (config, workload, scheduler) cell under the given storage
/// mode, capturing the full observable surface.
fn run_mode(base: SimConfig, pop_mode: PopMode, workload: &Workload, sched: &str) -> Observed {
    let cfg = SimConfig { pop_mode, ..base };
    let mut scheduler = SchedSpec::named(sched, cfg.seed ^ SCHED_SEED_SALT)
        .build()
        .unwrap();
    observe(cfg, workload, &mut *scheduler)
}

#[test]
fn lazy_matches_split_eager_across_seeds_schedulers_and_envs() {
    for seed in [11_u64, 42, 1303] {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = Workload::default_scenario(8, &mut rng);
        for env in [EnvPreset::Off, EnvPreset::Chaos] {
            for sched in ["random", "venn"] {
                let base = config(seed, 600, 3, env);
                let dense = run_mode(base, PopMode::SplitEager, &workload, sched);
                let lazy = run_mode(base, PopMode::Lazy, &workload, sched);
                assert_run_parity(
                    &dense,
                    &lazy,
                    &format!("seed {seed} env {env:?} sched {sched}"),
                );
            }
        }
    }
}

/// The O(active) claim itself: on a population far larger than the
/// workload needs, the lazy pool's materialized high-water mark stays a
/// small fraction of the population.
#[test]
fn lazy_arm_materializes_a_fraction_of_the_population() {
    let seed = 42_u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = Workload::default_scenario(6, &mut rng);
    let cfg = SimConfig {
        population: 4_000,
        days: 2,
        seed,
        pop_mode: PopMode::Lazy,
        ..SimConfig::default()
    };
    let mut scheduler = SchedSpec::named("venn", seed ^ SCHED_SEED_SALT)
        .build()
        .unwrap();
    let name = scheduler.name().to_string();
    let sim = Simulation::new(cfg);
    let mut world = sim.world(&workload, &name);
    while world.step(&mut *scheduler, &mut []) {}
    let pool = world.devices();
    assert!(pool.is_lazy());
    let peak = pool.peak_live_devices();
    assert!(peak > 0, "some devices must have materialized");
    assert!(
        peak < cfg.population / 2,
        "peak live {peak} should stay far below population {}",
        cfg.population
    );
}

proptest! {
    /// Random corners of (seed, population, days, env, scheduler): every
    /// touch-order interleaving the simulation produces — including env
    /// faults landing on never-touched devices — leaves the lazy arm byte-
    /// identical to the dense split arm.
    #[test]
    fn lazy_parity_holds_on_random_corners(
        seed in 0_u64..1_000_000,
        population in 120_usize..280,
        days in 2_u32..4,
        env_pick in 0_u8..2,
        sched_pick in 0_u8..2,
    ) {
        let env = if env_pick == 0 { EnvPreset::Off } else { EnvPreset::Chaos };
        let sched = if sched_pick == 0 { "random" } else { "venn" };
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = Workload::default_scenario(4, &mut rng);
        let base = config(seed, population, days, env);
        let dense = run_mode(base, PopMode::SplitEager, &workload, sched);
        let lazy = run_mode(base, PopMode::Lazy, &workload, sched);
        prop_assert_eq!(&dense.result.records, &lazy.result.records);
        prop_assert_eq!(&dense.result.rounds, &lazy.result.rounds);
        prop_assert_eq!(dense.result.events, lazy.result.events);
        prop_assert_eq!(dense.result.peak_queue_len, lazy.result.peak_queue_len);
        prop_assert_eq!(&dense.result.env, &lazy.result.env);
        prop_assert_eq!(&dense.log, &lazy.log);
        prop_assert_eq!(&dense.trace, &lazy.trace);
    }
}
