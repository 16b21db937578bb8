//! Anytime (budgeted) solving: graceful degradation for the solvers.
//!
//! [`BranchBound`](crate::algorithms::BranchBound) and
//! [`ScaledDp`](crate::algorithms::ScaledDp) normally run to completion —
//! worst-case exponential and `O(n²·(n/ε))` respectively. A real admission
//! controller cannot block on them: it needs the best answer available
//! within a bounded amount of work. A [`SolveBudget`] caps the work (search
//! nodes / DP cell updates); on expiry [`BudgetedPolicy::solve_within`]
//! returns the best incumbent found so far
//! — never worse than the [`MarginalGreedy`](crate::algorithms::MarginalGreedy)
//! seed — flagged [`SolveQuality::Degraded`] instead of running unbounded.
//!
//! The budget counts work, never time, so every budgeted solve is
//! deterministic: the same instance and budget always return the same
//! solution and the same work count. The node budget is also the only guard
//! on exact search — [`BranchBound`](crate::algorithms::BranchBound) takes
//! instances of any size.
//!
//! # Examples
//!
//! ```
//! use dvs_power::presets::cubic_ideal;
//! use reject_sched::algorithms::{BranchBound, MarginalGreedy};
//! use reject_sched::anytime::{BudgetedPolicy, SolveBudget};
//! use reject_sched::{Instance, RejectionPolicy};
//! use rt_model::generator::WorkloadSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inst = Instance::new(WorkloadSpec::new(30, 2.0).seed(7).generate()?, cubic_ideal())?;
//! let greedy = MarginalGreedy.solve(&inst)?;
//! let out = BranchBound.solve_within(&inst, &SolveBudget::nodes(50))?;
//! // Whether or not 50 nodes suffice to finish the search, the incumbent
//! // is a valid solution no worse than the greedy seed (`out.quality`
//! // reports `Degraded` when the budget expired mid-search).
//! assert!(out.solution.cost() <= greedy.cost() + 1e-9);
//! out.solution.verify(&inst)?;
//! # Ok(())
//! # }
//! ```

use crate::{Instance, SchedError, Solution};

/// A work allowance for a budgeted solve.
///
/// The unit is solver-specific but monotone in real work: search-tree
/// nodes for branch & bound, DP cell updates for the scaled dynamic
/// program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    max_nodes: Option<u64>,
}

impl SolveBudget {
    /// No limit: the budgeted solve behaves like the plain solver.
    #[must_use]
    pub const fn unlimited() -> Self {
        SolveBudget { max_nodes: None }
    }

    /// A cap of `max_nodes` work units.
    #[must_use]
    pub const fn nodes(max_nodes: u64) -> Self {
        SolveBudget {
            max_nodes: Some(max_nodes),
        }
    }
}

/// Whether a budgeted solve ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveQuality {
    /// The solver finished within the budget: the result carries the
    /// solver's full guarantee (optimal for branch & bound, `ε`-approximate
    /// for the scaled DP).
    Exact,
    /// The budget expired: the result is the best incumbent found, which is
    /// never worse than the greedy seed.
    Degraded,
}

/// Result of a budgeted solve. `S` is what the solve returns: a
/// [`Solution`], or whatever a caller of
/// [`BranchBound::search`](crate::algorithms::BranchBound::search) prices
/// its accepted sets as.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeSolution<S = Solution> {
    /// The (always valid, verified-compatible) solution.
    pub solution: S,
    /// Whether the solver completed within the budget.
    pub quality: SolveQuality,
    /// Work units actually spent (search nodes / DP cell updates).
    pub nodes_used: u64,
}

/// Solvers that honor a [`SolveBudget`].
pub trait BudgetedPolicy {
    /// Solves `instance`, spending at most (approximately) `budget` work.
    ///
    /// On budget expiry the best incumbent is returned with
    /// [`SolveQuality::Degraded`]; its cost is never worse than the
    /// [`MarginalGreedy`](crate::algorithms::MarginalGreedy) seed's.
    ///
    /// # Errors
    ///
    /// Solver-specific configuration errors ([`SchedError`]); budget expiry
    /// is *not* an error.
    fn solve_within(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
    ) -> Result<AnytimeSolution, SchedError>;
}

/// Internal work meter threaded through the budgeted solvers.
#[derive(Debug, Clone)]
pub(crate) struct BudgetMeter {
    max_nodes: Option<u64>,
    used: u64,
    expired: bool,
}

impl BudgetMeter {
    pub(crate) fn new(budget: &SolveBudget) -> Self {
        BudgetMeter {
            max_nodes: budget.max_nodes,
            used: 0,
            expired: false,
        }
    }

    /// Charges `n` work units; returns `false` once the budget is spent
    /// (and keeps returning `false`, charging nothing more).
    pub(crate) fn charge(&mut self, n: u64) -> bool {
        if self.expired {
            return false;
        }
        self.used = self.used.saturating_add(n);
        if let Some(m) = self.max_nodes {
            if self.used > m {
                self.expired = true;
                return false;
            }
        }
        true
    }

    pub(crate) fn expired(&self) -> bool {
        self.expired
    }

    pub(crate) fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BranchBound, MarginalGreedy, ScaledDp};
    use crate::RejectionPolicy;
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::WorkloadSpec;

    fn instance(n: usize, seed: u64) -> Instance {
        let tasks = WorkloadSpec::new(n, 2.0).seed(seed).generate().unwrap();
        Instance::new(tasks, cubic_ideal()).unwrap()
    }

    #[test]
    fn meter_charges_and_expires() {
        let mut m = BudgetMeter::new(&SolveBudget::nodes(3));
        assert!(m.charge(1));
        assert!(m.charge(2));
        assert!(!m.charge(1), "fourth unit exceeds the cap");
        assert!(!m.charge(1), "stays expired");
        assert!(m.expired());
        assert!(BudgetMeter::new(&SolveBudget::unlimited()).charge(u64::MAX >> 1));
    }

    #[test]
    fn branch_bound_exact_within_generous_budget() {
        let inst = instance(12, 3);
        let full = BranchBound.solve(&inst).unwrap();
        let out = BranchBound
            .solve_within(&inst, &SolveBudget::nodes(1_000_000))
            .unwrap();
        assert_eq!(out.quality, SolveQuality::Exact);
        assert!((out.solution.cost() - full.cost()).abs() < 1e-9);
        assert!(out.nodes_used > 0);
    }

    #[test]
    fn branch_bound_degrades_to_at_least_the_greedy_seed() {
        for seed in 0..5 {
            let inst = instance(30, seed);
            let greedy = MarginalGreedy.solve(&inst).unwrap().cost();
            for budget in [0, 1, 10, 100] {
                let out = BranchBound
                    .solve_within(&inst, &SolveBudget::nodes(budget))
                    .unwrap();
                out.solution.verify(&inst).unwrap();
                assert!(
                    out.solution.cost() <= greedy + 1e-9,
                    "seed {seed} budget {budget}: {} vs greedy {greedy}",
                    out.solution.cost()
                );
            }
        }
    }

    #[test]
    fn branch_bound_node_budget_is_deterministic() {
        let inst = instance(25, 9);
        let a = BranchBound
            .solve_within(&inst, &SolveBudget::nodes(500))
            .unwrap();
        let b = BranchBound
            .solve_within(&inst, &SolveBudget::nodes(500))
            .unwrap();
        assert_eq!(a, b);
        assert!(a.nodes_used <= 501, "meter overshoot: {}", a.nodes_used);
    }

    #[test]
    fn scaled_dp_exact_within_generous_budget() {
        let inst = instance(20, 4);
        let full = ScaledDp::new(0.05).unwrap().solve(&inst).unwrap();
        let out = ScaledDp::new(0.05)
            .unwrap()
            .solve_within(&inst, &SolveBudget::nodes(u64::MAX >> 1))
            .unwrap();
        assert_eq!(out.quality, SolveQuality::Exact);
        assert!((out.solution.cost() - full.cost()).abs() < 1e-9);
    }

    #[test]
    fn scaled_dp_degrades_to_at_least_the_greedy_seed() {
        for seed in 0..5 {
            let inst = instance(40, seed);
            let greedy = MarginalGreedy.solve(&inst).unwrap().cost();
            for budget in [0, 50, 5_000] {
                let out = ScaledDp::new(0.05)
                    .unwrap()
                    .solve_within(&inst, &SolveBudget::nodes(budget))
                    .unwrap();
                out.solution.verify(&inst).unwrap();
                assert!(
                    out.solution.cost() <= greedy + 1e-9,
                    "seed {seed} budget {budget}: {} vs greedy {greedy}",
                    out.solution.cost()
                );
                if budget == 0 {
                    assert_eq!(out.quality, SolveQuality::Degraded);
                }
            }
        }
    }

    #[test]
    fn scaled_dp_absurd_table_degrades_instead_of_erroring() {
        // The unbudgeted solver refuses this table size; the anytime path
        // degrades to the greedy seed instead of failing.
        let tasks = WorkloadSpec::new(200, 10.0).seed(1).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let dp = ScaledDp::new(1e-7).unwrap();
        assert!(dp.solve(&inst).is_err());
        let out = dp.solve_within(&inst, &SolveBudget::nodes(1000)).unwrap();
        assert_eq!(out.quality, SolveQuality::Degraded);
        out.solution.verify(&inst).unwrap();
    }
}
