//! Executable NP-hardness: the reduction **0/1 KNAPSACK ≤ₚ task rejection**.
//!
//! The target paper accompanies its heuristics with a hardness analysis;
//! this module makes that analysis *runnable*. Given a knapsack instance
//! (items with weight `wᵢ`, profit `qᵢ`, capacity `W`), build one periodic
//! task per item with
//!
//! * utilization `uᵢ = wᵢ / W` (period `W`, execution cycles `wᵢ`) so the
//!   capacity constraint `Σ wᵢ ≤ W` becomes EDF feasibility `U(A) ≤ 1`, and
//! * rejection penalty `vᵢ = qᵢ`,
//!
//! on a processor whose power function is scaled so small that energy is
//! negligible against any profit (`β₂ = ε → 0`). Then
//!
//! ```text
//! min cost(A) = Σ qᵢ − max { Σ_{i∈A} qᵢ : Σ_{i∈A} wᵢ ≤ W }  (± O(ε))
//! ```
//!
//! i.e. an optimal rejection schedule reads off an optimal knapsack
//! selection. Since 0/1 knapsack is NP-hard, so is energy-efficient
//! scheduling with task rejection — even with a single processor, ideal
//! speeds, and no leakage.
//!
//! The tests in this module draw random knapsacks, solve them exactly by
//! dynamic programming, solve the reduced scheduling instance exactly by
//! [`BranchBound`](crate::algorithms::BranchBound), and assert the
//! correspondence.

use dvs_power::{PowerFunction, Processor, SpeedDomain};
use rt_model::{Task, TaskSet};

use crate::{Instance, SchedError};

/// Energy-scale coefficient used by the reduction: small enough that total
/// energy can never amount to one unit of profit on sane instances.
pub const ENERGY_EPSILON: f64 = 1e-9;

/// A 0/1 knapsack item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Item weight (must be ≤ capacity to be usable).
    pub weight: u64,
    /// Item profit.
    pub profit: f64,
}

/// A 0/1 knapsack instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Knapsack {
    items: Vec<KnapsackItem>,
    capacity: u64,
}

impl Knapsack {
    /// Creates a knapsack instance.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `capacity == 0` or any profit is
    /// negative/non-finite.
    pub fn new(items: Vec<KnapsackItem>, capacity: u64) -> Result<Self, SchedError> {
        if capacity == 0 {
            return Err(SchedError::InvalidParameter {
                name: "capacity",
                value: 0.0,
            });
        }
        if let Some(bad) = items
            .iter()
            .find(|i| !i.profit.is_finite() || i.profit < 0.0)
        {
            return Err(SchedError::InvalidParameter {
                name: "profit",
                value: bad.profit,
            });
        }
        Ok(Knapsack { items, capacity })
    }

    /// The items.
    #[must_use]
    pub fn items(&self) -> &[KnapsackItem] {
        &self.items
    }

    /// The capacity `W`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total profit of all items.
    #[must_use]
    pub fn total_profit(&self) -> f64 {
        self.items.iter().map(|i| i.profit).sum()
    }

    /// Exact optimum by textbook weight-indexed dynamic programming
    /// (`O(n·W)`): the maximum total profit of a subset with
    /// `Σ weight ≤ capacity`.
    #[must_use]
    pub fn solve_exact(&self) -> f64 {
        let w = self.capacity as usize;
        let mut best = vec![0.0f64; w + 1];
        for item in &self.items {
            let iw = item.weight as usize;
            if iw > w {
                continue;
            }
            for cap in (iw..=w).rev() {
                let cand = best[cap - iw] + item.profit;
                if cand > best[cap] {
                    best[cap] = cand;
                }
            }
        }
        best[w]
    }

    /// The polynomial-time reduction: builds the rejection-scheduling
    /// instance whose optimal cost is `total_profit − knapsack_opt` up to
    /// `O(ENERGY_EPSILON)`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for validated knapsacks).
    pub fn to_rejection_instance(&self) -> Result<Instance, SchedError> {
        let tasks = TaskSet::try_from_tasks(
            self.items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    Task::new(i, item.weight as f64, self.capacity)
                        .map(|t| t.with_penalty(item.profit))
                })
                .collect::<Result<Vec<_>, _>>()?,
        )?;
        let cpu = Processor::new(
            PowerFunction::polynomial(0.0, ENERGY_EPSILON, 2.0)?,
            SpeedDomain::continuous(0.0, 1.0)?,
        );
        Instance::new(tasks, cpu)
    }

    /// Recovers the knapsack objective from a scheduling cost:
    /// `profit ≈ total_profit − cost` (exact up to the energy epsilon).
    #[must_use]
    pub fn profit_from_cost(&self, cost: f64) -> f64 {
        self.total_profit() - cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BranchBound, Exhaustive};
    use crate::RejectionPolicy;
    use rt_model::rng::Rng;

    fn random_knapsack(seed: u64, n: usize) -> Knapsack {
        let mut rng = Rng::seed_from_u64(seed);
        let capacity = 100;
        let items: Vec<KnapsackItem> = (0..n)
            .map(|_| KnapsackItem {
                weight: rng.gen_u64(5, 60),
                profit: rng.gen_f64(1.0, 20.0),
            })
            .collect();
        Knapsack::new(items, capacity).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Knapsack::new(vec![], 0).is_err());
        assert!(Knapsack::new(
            vec![KnapsackItem {
                weight: 1,
                profit: -1.0
            }],
            10
        )
        .is_err());
    }

    #[test]
    fn exact_dp_on_known_instance() {
        // Classic: capacity 10, items (w,q): (5,10),(4,40),(6,30),(3,50).
        let ks = Knapsack::new(
            vec![
                KnapsackItem {
                    weight: 5,
                    profit: 10.0,
                },
                KnapsackItem {
                    weight: 4,
                    profit: 40.0,
                },
                KnapsackItem {
                    weight: 6,
                    profit: 30.0,
                },
                KnapsackItem {
                    weight: 3,
                    profit: 50.0,
                },
            ],
            10,
        )
        .unwrap();
        assert!((ks.solve_exact() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_preserves_optimum_small() {
        for seed in 0..6 {
            let ks = random_knapsack(seed, 10);
            let opt_profit = ks.solve_exact();
            let inst = ks.to_rejection_instance().unwrap();
            let sched = Exhaustive::default().solve(&inst).unwrap();
            let recovered = ks.profit_from_cost(sched.cost());
            assert!(
                (recovered - opt_profit).abs() < 1e-3,
                "seed {seed}: recovered {recovered} vs knapsack OPT {opt_profit}"
            );
        }
    }

    #[test]
    fn reduction_preserves_optimum_branch_bound() {
        for seed in 10..14 {
            let ks = random_knapsack(seed, 18);
            let opt_profit = ks.solve_exact();
            let inst = ks.to_rejection_instance().unwrap();
            let sched = BranchBound.solve(&inst).unwrap();
            let recovered = ks.profit_from_cost(sched.cost());
            assert!(
                (recovered - opt_profit).abs() < 1e-3,
                "seed {seed}: recovered {recovered} vs knapsack OPT {opt_profit}"
            );
        }
    }

    #[test]
    fn accepted_set_is_a_feasible_packing() {
        let ks = random_knapsack(42, 12);
        let inst = ks.to_rejection_instance().unwrap();
        let sched = Exhaustive::default().solve(&inst).unwrap();
        let total_weight: u64 = sched
            .accepted()
            .iter()
            .map(|id| ks.items()[id.index()].weight)
            .sum();
        assert!(total_weight <= ks.capacity());
    }

    #[test]
    fn oversized_items_never_packed() {
        let ks = Knapsack::new(
            vec![
                KnapsackItem {
                    weight: 150,
                    profit: 1000.0,
                }, // exceeds W=100
                KnapsackItem {
                    weight: 10,
                    profit: 1.0,
                },
            ],
            100,
        )
        .unwrap();
        let inst = ks.to_rejection_instance().unwrap();
        let sched = Exhaustive::default().solve(&inst).unwrap();
        assert!(!sched.accepts(0.into()));
        assert!(sched.accepts(1.into()));
    }
}
