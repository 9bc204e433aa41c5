//! Machine-checkable version of the paper's Lemma 2 (Appendix D).
//!
//! Lemma 2: *given two job groups with arbitrary resource contention
//! patterns, Venn's Algorithm 1 minimizes the average scheduling delay (if
//! the future resource allocation plan is set).* The proof compares, for
//! the head job of the abundant group (size `l`), the queuing-delay change
//! of prioritizing it over the scarce group:
//!
//! ```text
//! Δt = l · m'_B − (l / (1 − x) − l) · m'_A
//! ```
//!
//! where `x` is the scarce fraction of the supply and `m'_A`, `m'_B` the
//! affected queue lengths. Prioritize iff `Δt < 0 ⇔ m'_A / (1 − x) >
//! m'_B / x` — the line-15 ratio test of Algorithm 1.
//!
//! This test-only module states both sides so its tests can check the
//! equivalence exhaustively on a grid of two-group instances.

/// The Lemma 2 instance: two nested job groups sharing a device stream.
///
/// Group A asks for the *general* resource (all devices); group B asks for
/// the *scarce* resource (a fraction `x` of devices). Each group holds a
/// queue of equal-demand jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TwoGroupInstance {
    /// Scarce fraction of the device stream eligible for group B, in (0,1).
    x: f64,
    /// Jobs queued in the general group A.
    m_a: u32,
    /// Jobs queued in the scarce group B.
    m_b: u32,
    /// Demand of the head job of group A.
    head_demand: u32,
}

impl TwoGroupInstance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `(0, 1)`.
    fn new(x: f64, m_a: u32, m_b: u32, head_demand: u32) -> Self {
        assert!(x > 0.0 && x < 1.0, "scarce fraction must be in (0,1)");
        TwoGroupInstance {
            x,
            m_a,
            m_b,
            head_demand,
        }
    }

    /// Queuing-delay change `Δt` from prioritizing group A's head job over
    /// group B on the intersected (scarce) resource — Appendix D.
    fn delta_t(&self) -> f64 {
        let l = self.head_demand as f64;
        l * self.m_b as f64 - (l / (1.0 - self.x) - l) * self.m_a as f64
    }

    /// Algorithm 1's line-15 ratio test in the two-group setting:
    /// prioritize A iff `m'_A / (1 − x) > m'_B / x`.
    fn ratio_test_prioritizes_a(&self) -> bool {
        self.m_a as f64 / (1.0 - self.x) > self.m_b as f64 / self.x
    }

    /// The Δt rule: prioritize A iff `Δt < 0`.
    fn delta_rule_prioritizes_a(&self) -> bool {
        self.delta_t() < 0.0
    }
}

/// Checks the Lemma 2 equivalence (`Δt < 0 ⇔ ratio test`) on one instance.
///
/// The two predicates agree except exactly on the boundary
/// (`Δt == 0`), where either choice yields the same average delay.
fn lemma2_holds(inst: &TwoGroupInstance) -> bool {
    let boundary = inst.delta_t().abs() < 1e-9;
    boundary || (inst.delta_rule_prioritizes_a() == inst.ratio_test_prioritizes_a())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_on_a_grid() {
        for xi in 1..20 {
            let x = xi as f64 / 20.0;
            for m_a in 1..12u32 {
                for m_b in 1..12u32 {
                    for l in [1u32, 3, 10] {
                        let inst = TwoGroupInstance::new(x, m_a, m_b, l);
                        assert!(
                            lemma2_holds(&inst),
                            "lemma 2 violated at x={x} m_a={m_a} m_b={m_b} l={l}: \
                             dt={} ratio_a={}",
                            inst.delta_t(),
                            inst.ratio_test_prioritizes_a()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn huge_general_queue_prioritizes_general() {
        // Many general jobs waiting, one scarce job: the general group's
        // queue pressure wins the intersected resource.
        let inst = TwoGroupInstance::new(0.5, 20, 1, 4);
        assert!(inst.delta_rule_prioritizes_a());
        assert!(inst.ratio_test_prioritizes_a());
    }

    #[test]
    fn scarce_queue_keeps_its_resource() {
        // Symmetric queues on a half-scarce stream: prioritizing the
        // general head delays group B more than it saves.
        let inst = TwoGroupInstance::new(0.2, 1, 5, 4);
        assert!(!inst.delta_rule_prioritizes_a());
        assert!(!inst.ratio_test_prioritizes_a());
    }

    #[test]
    fn head_demand_does_not_affect_the_decision() {
        // Δt scales linearly in l, so the sign (the decision) is
        // l-invariant — exactly why Algorithm 1 can decide per group.
        for l in [1u32, 2, 8, 100] {
            let inst = TwoGroupInstance::new(0.3, 4, 3, l);
            assert_eq!(
                inst.delta_rule_prioritizes_a(),
                TwoGroupInstance::new(0.3, 4, 3, 1).delta_rule_prioritizes_a(),
                "l={l}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scarce fraction")]
    fn degenerate_fraction_panics() {
        TwoGroupInstance::new(1.0, 1, 1, 1);
    }
}
