//! Randomized property tests for the task model.
//!
//! Formerly expressed with `proptest`; rewritten on the vendored
//! [`rt_model::rng::Rng`] so the suite runs fully offline. Each property is
//! checked over a deterministic batch of randomized cases.

use rt_model::generator::{uunifast, uunifast_discard};
use rt_model::io::{
    format_event, format_task_set, parse_event_line, parse_task_set, EventKind, EventRecord,
};
use rt_model::rng::Rng;
use rt_model::{feasibility, gcd, lcm, Task, TaskSet};

const CASES: u64 = 64;

/// Periods from a divisor-friendly set so hyper-periods stay ≤ 48 and
/// whole-hyper-period analyses (demand criterion) remain cheap.
fn random_task_set(rng: &mut Rng) -> TaskSet {
    const PERIODS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 48];
    let n = 1 + rng.gen_index(11);
    TaskSet::try_from_tasks((0..n).map(|i| {
        let c = rng.gen_f64(0.0, 5.0);
        let p = PERIODS[rng.gen_index(PERIODS.len())];
        let v = rng.gen_f64(0.0, 10.0);
        Task::new(i, c, p).unwrap().with_penalty(v)
    }))
    .unwrap()
}

/// The task-set file, the trace `arrive` line and the admission engine's
/// snapshot ledgers share one task-column codec; every task must come back
/// from it bit for bit — implicit and constrained deadlines, zero and
/// arbitrary penalties, pinned (traces only) and unpinned.
#[test]
fn task_columns_round_trip_bit_identically_through_task_sets_and_traces() {
    let mut rng = Rng::seed_from_u64(10);
    let same = |a: &Task, b: &Task| {
        assert_eq!(a, b);
        assert_eq!(a.wcec().to_bits(), b.wcec().to_bits());
        assert_eq!(a.penalty().to_bits(), b.penalty().to_bits());
        assert_eq!(a.is_implicit_deadline(), b.is_implicit_deadline());
    };
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let variants: Vec<Task> = ts
            .iter()
            .map(|t| {
                let t = match rng.gen_index(3) {
                    0 => *t,
                    1 => t.with_penalty(0.0),
                    _ => t.with_penalty(rng.gen_f64(0.0, 1.0) / 3.0),
                };
                if rng.gen_index(2) == 0 {
                    t
                } else {
                    t.with_deadline(rng.gen_u64(1, t.period())).unwrap()
                }
            })
            .collect();
        let set = TaskSet::try_from_tasks(variants.iter().copied()).unwrap();
        let back = parse_task_set(&format_task_set(&set)).unwrap();
        assert_eq!(back.len(), set.len());
        for (a, b) in set.iter().zip(back.iter()) {
            same(a, b);
        }
        for t in variants {
            let at = rng.gen_f64(0.0, 1e4);
            for task in [t, t.with_domain(rng.gen_index(8))] {
                let event = EventRecord::new(at, EventKind::Arrive(task));
                let again = parse_event_line(&format_event(&event)).unwrap();
                assert_eq!(again.at.to_bits(), at.to_bits());
                let EventKind::Arrive(back) = again.kind else {
                    panic!("arrive came back as {:?}", again.kind)
                };
                same(&task, &back);
                assert_eq!(back.domain(), task.domain());
            }
        }
    }
}

#[test]
fn gcd_divides_both() {
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let a = rng.gen_u64(1, 10_000);
        let b = rng.gen_u64(1, 10_000);
        let g = gcd(a, b);
        assert!(g > 0);
        assert_eq!(a % g, 0);
        assert_eq!(b % g, 0);
    }
}

#[test]
fn lcm_is_common_multiple() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let a = rng.gen_u64(1, 1_000);
        let b = rng.gen_u64(1, 1_000);
        let l = lcm(a, b);
        assert_eq!(l % a, 0);
        assert_eq!(l % b, 0);
        assert_eq!(l * gcd(a, b), a * b);
    }
}

#[test]
fn hyper_period_divisible_by_every_period() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let l = ts.hyper_period();
        for t in ts.iter() {
            assert_eq!(l % t.period(), 0);
        }
    }
}

#[test]
fn utilization_is_sum_of_parts() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let direct: f64 = ts.iter().map(Task::utilization).sum();
        assert!((ts.utilization() - direct).abs() < 1e-9);
    }
}

#[test]
fn job_count_matches_ceiling_formula() {
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let horizon = rng.gen_u64(1, 500);
        let count = ts.jobs_in(horizon).count() as u64;
        let expect: u64 = ts.iter().map(|t| horizon.div_ceil(t.period())).sum();
        assert_eq!(count, expect);
    }
}

#[test]
fn jobs_meet_their_window_invariants() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        for job in ts.jobs_in_hyper_period() {
            assert_eq!(
                job.deadline() - job.release(),
                ts.get(job.task()).unwrap().period()
            );
            assert!(job.release() < ts.hyper_period());
        }
    }
}

#[test]
fn uunifast_sums_and_is_non_negative() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let n = 1 + rng.gen_index(39);
        let total = rng.gen_f64(0.0, 8.0);
        let mut stream = Rng::seed_from_u64(seed);
        let u = uunifast(&mut stream, n, total);
        assert_eq!(u.len(), n);
        assert!(u.iter().all(|&x| x >= 0.0));
        let sum: f64 = u.iter().sum();
        assert!((sum - total).abs() < 1e-8 * total.max(1.0));
    }
}

#[test]
fn uunifast_discard_caps_each_item() {
    let mut rng = Rng::seed_from_u64(8);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let n = 2 + rng.gen_index(18);
        let total = 0.8 * n as f64 * 0.5;
        let mut stream = Rng::seed_from_u64(seed);
        let u = uunifast_discard(&mut stream, n, total, 0.5);
        assert!(u.iter().all(|&x| x <= 0.5 + 1e-6));
        let sum: f64 = u.iter().sum();
        assert!((sum - total).abs() < 1e-6 * total.max(1.0));
    }
}

#[test]
fn demand_criterion_agrees_with_utilization_test() {
    let mut rng = Rng::seed_from_u64(9);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let speed = rng.gen_f64(0.05, 4.0);
        // Exact for implicit-deadline periodic sets; allow disagreement only
        // within the float tolerance band around U == s.
        let u = ts.utilization();
        if (u - speed).abs() > 1e-6 * u.max(1.0) {
            assert_eq!(
                feasibility::is_feasible_at_speed(&ts, speed),
                feasibility::is_feasible_by_demand(&ts, speed)
            );
        }
    }
}

#[test]
fn demand_bound_is_monotone() {
    let mut rng = Rng::seed_from_u64(10);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let a = rng.gen_u64(0, 300);
        let b = rng.gen_u64(0, 300);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(feasibility::demand_bound(&ts, lo) <= feasibility::demand_bound(&ts, hi) + 1e-9);
    }
}

#[test]
fn subset_preserves_membership() {
    let mut rng = Rng::seed_from_u64(11);
    for _ in 0..CASES {
        let ts = random_task_set(&mut rng);
        let ids: Vec<_> = ts.iter().map(Task::id).step_by(2).collect();
        let sub = ts.subset(&ids).unwrap();
        assert_eq!(sub.len(), ids.len());
        for id in ids {
            assert!(sub.get(id).is_some());
        }
    }
}
