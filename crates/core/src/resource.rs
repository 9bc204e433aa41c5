//! Device capacities, job resource specifications, and the eligibility
//! lattice between them.
//!
//! The paper stratifies devices by normalized CPU and memory scores
//! (Fig. 2b / Fig. 8a) and expresses each job's device requirement as
//! minimum thresholds on those scores. Requirements of this shape form
//! upper-right quadrants of the capacity square, so eligible device sets
//! naturally *nest, overlap, or contain* one another — the structure the
//! Intersection Resource Scheduling problem is about.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Normalized hardware capacity of one device.
///
/// Scores are non-negative and typically in `[0, 1]`, following the
/// AI-Benchmark normalization used by the paper.
///
/// # Examples
///
/// ```
/// use venn_core::{Capacity, ResourceSpec};
///
/// let dev = Capacity::new(0.8, 0.3);
/// assert!(ResourceSpec::new(0.5, 0.0).is_eligible(&dev)); // compute-rich
/// assert!(!ResourceSpec::new(0.0, 0.5).is_eligible(&dev)); // memory-rich
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacity {
    cpu: f64,
    mem: f64,
}

impl Capacity {
    /// Creates a capacity from normalized CPU and memory scores.
    ///
    /// # Panics
    ///
    /// Panics if either score is negative or non-finite.
    pub fn new(cpu: f64, mem: f64) -> Self {
        assert!(
            cpu.is_finite() && mem.is_finite() && cpu >= 0.0 && mem >= 0.0,
            "capacity scores must be finite and non-negative (got cpu={cpu}, mem={mem})"
        );
        Capacity { cpu, mem }
    }

    /// Normalized CPU score.
    pub fn cpu(&self) -> f64 {
        self.cpu
    }

    /// Normalized memory score.
    pub fn mem(&self) -> f64 {
        self.mem
    }

    /// Scalar hardware score used for tier partitioning (Algorithm 2):
    /// the mean of the CPU and memory scores.
    pub fn score(&self) -> f64 {
        (self.cpu + self.mem) / 2.0
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(cpu={:.2}, mem={:.2})", self.cpu, self.mem)
    }
}

/// A job's device requirement: minimum CPU and memory scores.
///
/// Specs are compared, hashed, and grouped — two jobs with equal specs land
/// in the same resource-homogeneous job group.
#[derive(Debug, Clone, Copy)]
pub struct ResourceSpec {
    min_cpu: f64,
    min_mem: f64,
}

impl ResourceSpec {
    /// Creates a requirement with the given minimum scores.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is negative or non-finite.
    pub fn new(min_cpu: f64, min_mem: f64) -> Self {
        assert!(
            min_cpu.is_finite() && min_mem.is_finite() && min_cpu >= 0.0 && min_mem >= 0.0,
            "spec thresholds must be finite and non-negative"
        );
        // Normalize -0.0 so Eq/Hash treat it as 0.0.
        ResourceSpec {
            min_cpu: min_cpu + 0.0,
            min_mem: min_mem + 0.0,
        }
    }

    /// The requirement every device satisfies (the paper's "General"
    /// resources).
    pub fn any() -> Self {
        ResourceSpec::new(0.0, 0.0)
    }

    /// Minimum CPU score.
    pub(crate) fn min_cpu(&self) -> f64 {
        self.min_cpu
    }

    /// Minimum memory score.
    pub(crate) fn min_mem(&self) -> f64 {
        self.min_mem
    }

    /// Whether `device` satisfies this requirement.
    pub fn is_eligible(&self, device: &Capacity) -> bool {
        device.cpu >= self.min_cpu && device.mem >= self.min_mem
    }
}

impl Default for ResourceSpec {
    fn default() -> Self {
        ResourceSpec::any()
    }
}

impl PartialEq for ResourceSpec {
    fn eq(&self, other: &Self) -> bool {
        self.min_cpu.to_bits() == other.min_cpu.to_bits()
            && self.min_mem.to_bits() == other.min_mem.to_bits()
    }
}

impl Eq for ResourceSpec {}

impl Hash for ResourceSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.min_cpu.to_bits().hash(state);
        self.min_mem.to_bits().hash(state);
    }
}

impl fmt::Display for ResourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec(cpu>={:.2}, mem>={:.2})",
            self.min_cpu, self.min_mem
        )
    }
}

/// Threshold pair defining the paper's four eligibility regions (Fig. 8a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryThresholds {
    /// CPU score at or above which a device counts as compute-rich.
    pub cpu: f64,
    /// Memory score at or above which a device counts as memory-rich.
    pub mem: f64,
}

impl Default for CategoryThresholds {
    fn default() -> Self {
        CategoryThresholds { cpu: 0.5, mem: 0.5 }
    }
}

/// The paper's four device-requirement categories (Fig. 8a).
///
/// `HighPerf ⊂ ComputeRich ⊂ General` and `HighPerf ⊂ MemoryRich ⊂ General`;
/// `ComputeRich ∩ MemoryRich = HighPerf` — the canonical intersection
/// pattern the evaluation stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecCategory {
    /// Any device qualifies.
    General,
    /// Devices with a high CPU score.
    ComputeRich,
    /// Devices with a high memory score.
    MemoryRich,
    /// Devices high on both axes.
    HighPerf,
}

impl SpecCategory {
    /// All four categories in a fixed order.
    pub const ALL: [SpecCategory; 4] = [
        SpecCategory::General,
        SpecCategory::ComputeRich,
        SpecCategory::MemoryRich,
        SpecCategory::HighPerf,
    ];

    /// The [`ResourceSpec`] this category denotes under `thresholds`.
    pub fn spec(&self, thresholds: CategoryThresholds) -> ResourceSpec {
        match self {
            SpecCategory::General => ResourceSpec::any(),
            SpecCategory::ComputeRich => ResourceSpec::new(thresholds.cpu, 0.0),
            SpecCategory::MemoryRich => ResourceSpec::new(0.0, thresholds.mem),
            SpecCategory::HighPerf => ResourceSpec::new(thresholds.cpu, thresholds.mem),
        }
    }

    /// The category a device falls into under `thresholds` — the *finest*
    /// region it belongs to.
    pub fn of_device(device: &Capacity, thresholds: CategoryThresholds) -> SpecCategory {
        match (
            device.cpu() >= thresholds.cpu,
            device.mem() >= thresholds.mem,
        ) {
            (true, true) => SpecCategory::HighPerf,
            (true, false) => SpecCategory::ComputeRich,
            (false, true) => SpecCategory::MemoryRich,
            (false, false) => SpecCategory::General,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SpecCategory::General => "General",
            SpecCategory::ComputeRich => "Compute-Rich",
            SpecCategory::MemoryRich => "Memory-Rich",
            SpecCategory::HighPerf => "High-Perf",
        }
    }
}

impl fmt::Display for SpecCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The set algebra the tests check the category lattice against.
    impl ResourceSpec {
        /// Whether this spec's eligible set contains `other`'s eligible set
        /// (i.e. this spec is *weaker*: lower or equal thresholds on both axes).
        fn contains(&self, other: &ResourceSpec) -> bool {
            self.min_cpu <= other.min_cpu && self.min_mem <= other.min_mem
        }

        /// The spec whose eligible set is the intersection of the two
        /// (component-wise maximum of the thresholds).
        fn intersection(&self, other: &ResourceSpec) -> ResourceSpec {
            ResourceSpec::new(
                self.min_cpu.max(other.min_cpu),
                self.min_mem.max(other.min_mem),
            )
        }
    }

    #[test]
    fn eligibility_is_componentwise() {
        let spec = ResourceSpec::new(0.5, 0.3);
        assert!(spec.is_eligible(&Capacity::new(0.5, 0.3)));
        assert!(spec.is_eligible(&Capacity::new(0.9, 0.9)));
        assert!(!spec.is_eligible(&Capacity::new(0.4, 0.9)));
        assert!(!spec.is_eligible(&Capacity::new(0.9, 0.2)));
    }

    #[test]
    fn any_spec_accepts_everything() {
        let any = ResourceSpec::any();
        assert!(any.is_eligible(&Capacity::new(0.0, 0.0)));
        assert!(any.is_eligible(&Capacity::new(1.0, 1.0)));
    }

    #[test]
    fn containment_matches_set_semantics() {
        let general = ResourceSpec::any();
        let compute = ResourceSpec::new(0.5, 0.0);
        let high = ResourceSpec::new(0.5, 0.5);
        assert!(general.contains(&compute));
        assert!(compute.contains(&high));
        assert!(general.contains(&high));
        assert!(!high.contains(&compute));
        // Overlapping but not nested:
        let memory = ResourceSpec::new(0.0, 0.5);
        assert!(!compute.contains(&memory));
        assert!(!memory.contains(&compute));
    }

    #[test]
    fn intersection_is_componentwise_max() {
        let compute = ResourceSpec::new(0.5, 0.0);
        let memory = ResourceSpec::new(0.0, 0.5);
        let both = compute.intersection(&memory);
        assert_eq!(both, ResourceSpec::new(0.5, 0.5));
    }

    #[test]
    fn specs_hash_and_group() {
        let mut groups: HashMap<ResourceSpec, u32> = HashMap::new();
        *groups.entry(ResourceSpec::new(0.5, 0.0)).or_default() += 1;
        *groups.entry(ResourceSpec::new(0.5, 0.0)).or_default() += 1;
        *groups
            .entry(ResourceSpec::new(0.5, -0.0_f64.abs()))
            .or_default() += 1;
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[&ResourceSpec::new(0.5, 0.0)], 3);
    }

    #[test]
    fn score_is_mean_of_axes() {
        assert_eq!(Capacity::new(0.2, 0.8).score(), 0.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_capacity_panics() {
        Capacity::new(-0.1, 0.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_spec_panics() {
        ResourceSpec::new(f64::NAN, 0.0);
    }

    #[test]
    fn categories_form_the_paper_lattice() {
        let th = CategoryThresholds::default();
        let general = SpecCategory::General.spec(th);
        let compute = SpecCategory::ComputeRich.spec(th);
        let memory = SpecCategory::MemoryRich.spec(th);
        let high = SpecCategory::HighPerf.spec(th);
        assert!(general.contains(&compute) && general.contains(&memory));
        assert!(compute.contains(&high) && memory.contains(&high));
        assert_eq!(compute.intersection(&memory), high);
    }

    #[test]
    fn device_category_is_finest_region() {
        let th = CategoryThresholds::default();
        assert_eq!(
            SpecCategory::of_device(&Capacity::new(0.9, 0.9), th),
            SpecCategory::HighPerf
        );
        assert_eq!(
            SpecCategory::of_device(&Capacity::new(0.9, 0.1), th),
            SpecCategory::ComputeRich
        );
        assert_eq!(
            SpecCategory::of_device(&Capacity::new(0.1, 0.9), th),
            SpecCategory::MemoryRich
        );
        assert_eq!(
            SpecCategory::of_device(&Capacity::new(0.1, 0.1), th),
            SpecCategory::General
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            ResourceSpec::new(0.5, 0.25).to_string(),
            "spec(cpu>=0.50, mem>=0.25)"
        );
        assert_eq!(Capacity::new(0.5, 0.25).to_string(), "(cpu=0.50, mem=0.25)");
        assert_eq!(SpecCategory::HighPerf.to_string(), "High-Perf");
    }
}
