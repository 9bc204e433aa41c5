//! Exact solver for small Intersection Resource Scheduling instances.
//!
//! The paper formulates IRS as an integer program (Appendix B): devices
//! arrive at known times, each device may serve at most one eligible job,
//! each job `j` needs `D_j` devices, and the objective is the average of
//! the jobs' *completion times* (the arrival time of the last device each
//! job receives).
//!
//! [`solve`] computes the exact optimum by dynamic programming over the
//! vector of remaining demands — exponential in the number of jobs but
//! instant for the toy-scale instances used to validate Venn's heuristic
//! (Fig. 3) and in property tests.
//!
//! # Examples
//!
//! The paper's Fig. 3 toy: a Keyboard job (3 devices, anything works) and
//! two Emoji jobs (4 devices each, only alternating devices qualify) with
//! one device arriving per time unit. The optimum averages 9.33 time units:
//!
//! ```
//! use venn_opt::{Arrival, Instance};
//!
//! let arrivals: Vec<Arrival> = (1..=18)
//!     .map(|t| Arrival {
//!         time: t,
//!         eligible: if t % 2 == 1 { 0b111 } else { 0b001 },
//!     })
//!     .collect();
//! let inst = Instance::new(vec![3, 4, 4], arrivals);
//! let sol = venn_opt::solve(&inst).expect("feasible");
//! assert!((sol.avg_completion() - 28.0 / 3.0).abs() < 1e-9);
//! ```

#[cfg(test)]
mod lemma2;

use std::collections::HashMap;

/// One device arrival: when it checks in and which jobs it may serve
/// (bit `j` set ⇔ job `j` eligible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Check-in time.
    pub time: u64,
    /// Eligibility bitmask over jobs.
    pub eligible: u64,
}

/// A small IRS instance: per-job demands plus the device arrival sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    demands: Vec<u32>,
    arrivals: Vec<Arrival>,
}

impl Instance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 16 jobs or any demand exceeds 15
    /// (the exact solver packs remaining demands into a `u64` state) or
    /// arrivals are not sorted by time.
    pub fn new(demands: Vec<u32>, arrivals: Vec<Arrival>) -> Self {
        assert!(demands.len() <= 16, "exact solver supports at most 16 jobs");
        assert!(
            demands.iter().all(|&d| d <= 15),
            "exact solver supports demands up to 15"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0].time <= w[1].time),
            "arrivals must be sorted by time"
        );
        Instance { demands, arrivals }
    }

    /// Per-job demands.
    pub fn demands(&self) -> &[u32] {
        &self.demands
    }

    /// Device arrival sequence.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    fn pack(state: &[u32]) -> u64 {
        state
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &d)| acc | ((d as u64) << (4 * i)))
    }
}

/// An optimal solution: total completion time and per-device assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    total_completion: u64,
    jobs: usize,
    /// `assignment[i]` is the job device `i` serves, or `None` if idle.
    pub(crate) assignment: Vec<Option<usize>>,
}

impl Solution {
    /// Sum of job completion times.
    pub fn total_completion(&self) -> u64 {
        self.total_completion
    }

    /// Average job completion time — the Appendix B objective.
    pub fn avg_completion(&self) -> f64 {
        self.total_completion as f64 / self.jobs.max(1) as f64
    }
}

/// Evaluates a *given* assignment against an instance, returning the total
/// completion time, or `None` if it is infeasible (ineligible device, more
/// devices than demanded, or unmet demand).
pub(crate) fn evaluate(inst: &Instance, assignment: &[Option<usize>]) -> Option<u64> {
    if assignment.len() != inst.arrivals.len() {
        return None;
    }
    let mut remaining = inst.demands.clone();
    let mut completion = vec![0u64; inst.demands.len()];
    for (arrival, choice) in inst.arrivals.iter().zip(assignment) {
        if let Some(j) = *choice {
            if j >= inst.demands.len() || arrival.eligible & (1 << j) == 0 || remaining[j] == 0 {
                return None;
            }
            remaining[j] -= 1;
            if remaining[j] == 0 {
                completion[j] = arrival.time;
            }
        }
    }
    if remaining.iter().any(|&r| r > 0) {
        return None;
    }
    Some(completion.iter().sum())
}

/// Computes the exact minimum total completion time.
///
/// Returns `None` when the instance is infeasible (not enough eligible
/// devices for some job).
pub fn solve(inst: &Instance) -> Option<Solution> {
    let n = inst.demands.len();
    if n == 0 {
        return Some(Solution {
            total_completion: 0,
            jobs: 0,
            assignment: vec![None; inst.arrivals.len()],
        });
    }
    // memo: (arrival index, packed remaining demands) -> best cost from here
    // (u64::MAX = infeasible), plus the best choice for reconstruction.
    let mut memo: HashMap<(usize, u64), (u64, Option<usize>)> = HashMap::new();

    fn best(
        inst: &Instance,
        i: usize,
        state: &mut Vec<u32>,
        memo: &mut HashMap<(usize, u64), (u64, Option<usize>)>,
    ) -> u64 {
        if state.iter().all(|&d| d == 0) {
            return 0;
        }
        if i == inst.arrivals.len() {
            return u64::MAX; // some job never finishes
        }
        let key = (i, Instance::pack(state));
        if let Some(&(cost, _)) = memo.get(&key) {
            return cost;
        }
        // Option 1: leave the device idle.
        let mut best_cost = best(inst, i + 1, state, memo);
        let mut best_choice: Option<usize> = None;
        // Option 2: assign to each eligible job with remaining demand.
        let arrival = inst.arrivals[i];
        for j in 0..state.len() {
            if arrival.eligible & (1 << j) == 0 || state[j] == 0 {
                continue;
            }
            state[j] -= 1;
            let tail = best(inst, i + 1, state, memo);
            state[j] += 1;
            if tail == u64::MAX {
                continue;
            }
            // Completing job j here contributes its completion time.
            let contrib = if state[j] == 1 { arrival.time } else { 0 };
            let cost = tail.saturating_add(contrib);
            if cost < best_cost {
                best_cost = cost;
                best_choice = Some(j);
            }
        }
        memo.insert(key, (best_cost, best_choice));
        best_cost
    }

    let mut state = inst.demands.clone();
    let total = best(inst, 0, &mut state, &mut memo);
    if total == u64::MAX {
        return None;
    }

    // Reconstruct the assignment by replaying the memoized choices.
    let mut assignment = vec![None; inst.arrivals.len()];
    let mut state = inst.demands.clone();
    let mut i = 0;
    while i < inst.arrivals.len() && state.iter().any(|&d| d > 0) {
        let key = (i, Instance::pack(&state));
        let choice = memo.get(&key).and_then(|&(_, c)| c);
        if let Some(j) = choice {
            // Verify the memoized choice is still the best from this state
            // (it is, by construction of the DP).
            assignment[i] = Some(j);
            state[j] -= 1;
        }
        i += 1;
    }

    let solution = Solution {
        total_completion: total,
        jobs: n,
        assignment,
    };
    debug_assert_eq!(evaluate(inst, &solution.assignment), Some(total));
    Some(solution)
}

/// Total completion time of serving jobs in a *fixed priority order*
/// (first eligible job in `order` takes each device) — the schedule shape
/// all the heuristics produce. Useful for comparing a heuristic order
/// against [`solve`].
pub fn fixed_order_cost(inst: &Instance, order: &[usize]) -> Option<u64> {
    let mut remaining = inst.demands.clone();
    let mut total = 0u64;
    for arrival in &inst.arrivals {
        for &j in order {
            if remaining[j] > 0 && arrival.eligible & (1 << j) != 0 {
                remaining[j] -= 1;
                if remaining[j] == 0 {
                    total += arrival.time;
                }
                break;
            }
        }
    }
    remaining.iter().all(|&r| r == 0).then_some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_arrivals(n: u64, eligible: impl Fn(u64) -> u64) -> Vec<Arrival> {
        (1..=n)
            .map(|t| Arrival {
                time: t,
                eligible: eligible(t),
            })
            .collect()
    }

    #[test]
    fn single_job_takes_earliest_devices() {
        let inst = Instance::new(vec![3], uniform_arrivals(10, |_| 1));
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.total_completion(), 3);
        assert_eq!(sol.assignment[..3], [Some(0), Some(0), Some(0)]);
    }

    #[test]
    fn infeasible_returns_none() {
        let inst = Instance::new(vec![5], uniform_arrivals(3, |_| 1));
        assert!(solve(&inst).is_none());
    }

    #[test]
    fn srpt_order_for_identical_eligibility() {
        // Two jobs on the same pool: serving the smaller first is optimal.
        let inst = Instance::new(vec![4, 2], uniform_arrivals(10, |_| 0b11));
        let sol = solve(&inst).unwrap();
        // Small job done at t=2, large at t=6. Total 8.
        assert_eq!(sol.total_completion(), 8);
    }

    #[test]
    fn fig3_toy_optimal_is_9_33() {
        // Job 0 = Keyboard (3, all devices), jobs 1,2 = Emoji (4 each, odd
        // devices only).
        let arrivals = uniform_arrivals(18, |t| if t % 2 == 1 { 0b111 } else { 0b001 });
        let inst = Instance::new(vec![3, 4, 4], arrivals);
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.total_completion(), 28); // 6 + 7 + 15
        assert!((sol.avg_completion() - 9.333333).abs() < 1e-5);
    }

    #[test]
    fn fig3_srsf_is_11() {
        // SRSF order: keyboard (demand 3) first, then the two emoji jobs.
        // Keyboard takes t=1,2,3 (done 3) — wasting the scarce emoji-capable
        // devices at t=1,3; emoji job 1 takes odd 5,7,9,11 (done 11); emoji
        // job 2 takes 13,15,17,19 (done 19). Average (3+11+19)/3 = 11, the
        // paper's Fig. 3c value.
        let arrivals = uniform_arrivals(20, |t| if t % 2 == 1 { 0b111 } else { 0b001 });
        let inst = Instance::new(vec![3, 4, 4], arrivals);
        let cost = fixed_order_cost(&inst, &[0, 1, 2]).unwrap();
        assert_eq!(cost, 33);
        // And the optimum on the same horizon is still 28 (avg 9.33).
        assert_eq!(solve(&inst).unwrap().total_completion(), 28);
    }

    #[test]
    fn evaluate_rejects_ineligible_assignment() {
        let inst = Instance::new(
            vec![1],
            vec![Arrival {
                time: 1,
                eligible: 0,
            }],
        );
        assert_eq!(evaluate(&inst, &[Some(0)]), None);
    }

    #[test]
    fn evaluate_accepts_solver_output() {
        let inst = Instance::new(
            vec![2, 1],
            uniform_arrivals(6, |t| if t <= 3 { 0b11 } else { 0b01 }),
        );
        let sol = solve(&inst).unwrap();
        assert_eq!(
            evaluate(&inst, &sol.assignment),
            Some(sol.total_completion())
        );
    }

    #[test]
    fn empty_instance_trivially_optimal() {
        let inst = Instance::new(vec![], uniform_arrivals(3, |_| 0));
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.total_completion(), 0);
        assert_eq!(sol.avg_completion(), 0.0);
    }

    #[test]
    fn fixed_order_matches_manual_trace() {
        let inst = Instance::new(vec![2, 2], uniform_arrivals(4, |_| 0b11));
        // Order [1, 0]: job1 gets t=1,2 (done 2); job0 t=3,4 (done 4).
        assert_eq!(fixed_order_cost(&inst, &[1, 0]), Some(6));
        assert_eq!(fixed_order_cost(&inst, &[0, 1]), Some(6));
    }

    #[test]
    fn fixed_order_infeasible_when_demand_unmet() {
        let inst = Instance::new(vec![3], uniform_arrivals(2, |_| 1));
        assert_eq!(fixed_order_cost(&inst, &[0]), None);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_arrivals_panic() {
        Instance::new(
            vec![1],
            vec![
                Arrival {
                    time: 5,
                    eligible: 1,
                },
                Arrival {
                    time: 1,
                    eligible: 1,
                },
            ],
        );
    }

    #[test]
    fn optimal_beats_or_ties_every_fixed_order() {
        let arrivals = uniform_arrivals(12, |t| match t % 3 {
            0 => 0b001,
            1 => 0b011,
            _ => 0b111,
        });
        let inst = Instance::new(vec![2, 2, 2], arrivals);
        let opt = solve(&inst).unwrap().total_completion();
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            if let Some(cost) = fixed_order_cost(&inst, &order) {
                assert!(opt <= cost, "opt {opt} > order {order:?} cost {cost}");
            }
        }
    }
}
