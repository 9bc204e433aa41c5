//! Scenario presets: named (workload × environment) compositions.
//!
//! The paper's evaluation crosses workload slices (§5.1) with one static
//! environment; the `venn-env` subsystem adds environment dynamics as a
//! second axis. A [`ScenarioPreset`] names one point of that product so
//! the sweep harness, CLIs, and CI smoke jobs can iterate "scenarios"
//! without re-deriving the combinations — and so a scenario name in a
//! results file pins both axes at once.

use venn_env::EnvPreset;

use crate::workload::{BiasKind, WorkloadKind};

/// One named (workload kind, bias, environment preset) composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioPreset {
    /// Stable scenario name (`<workload>/<env>`), used as row label and
    /// in results metadata.
    pub name: &'static str,
    /// Which slice of the job-demand trace the workload samples.
    pub(crate) workload: WorkloadKind,
    /// Optional category bias (Table 4 case study).
    pub(crate) bias: Option<BiasKind>,
    /// Environment-dynamics preset.
    pub env: EnvPreset,
}

impl ScenarioPreset {
    /// The baseline scenario plus every environment preset over the
    /// workload slice it stresses most, in sweep order: flash crowds
    /// shake the default mix, stragglers hurt high per-round demand, and
    /// mass dropouts hit large total demand hardest.
    pub const ALL: [ScenarioPreset; 5] = [
        ScenarioPreset {
            name: "even/off",
            workload: WorkloadKind::Even,
            bias: None,
            env: EnvPreset::Off,
        },
        ScenarioPreset {
            name: "even/flash-crowd",
            workload: WorkloadKind::Even,
            bias: None,
            env: EnvPreset::FlashCrowd,
        },
        ScenarioPreset {
            name: "high/straggler-heavy",
            workload: WorkloadKind::High,
            bias: None,
            env: EnvPreset::StragglerHeavy,
        },
        ScenarioPreset {
            name: "large/mass-dropout",
            workload: WorkloadKind::Large,
            bias: None,
            env: EnvPreset::MassDropout,
        },
        ScenarioPreset {
            name: "even/chaos",
            workload: WorkloadKind::Even,
            bias: None,
            env: EnvPreset::Chaos,
        },
    ];

    /// Looks a preset up by its stable name.
    pub fn by_name(name: &str) -> Option<ScenarioPreset> {
        ScenarioPreset::ALL.into_iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for p in ScenarioPreset::ALL {
            assert_eq!(ScenarioPreset::by_name(p.name), Some(p));
            let (workload, env) = p.name.split_once('/').expect("name is workload/env");
            assert_eq!(env, p.env.label());
            assert_eq!(workload, p.workload.label().to_lowercase());
        }
        let mut names: Vec<_> = ScenarioPreset::ALL.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ScenarioPreset::ALL.len());
    }

    #[test]
    fn every_env_preset_appears() {
        for env in EnvPreset::ALL {
            assert!(
                ScenarioPreset::ALL.iter().any(|p| p.env == env),
                "{env:?} missing from the sweep"
            );
        }
    }
}
