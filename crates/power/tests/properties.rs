//! Randomized property tests for the power/speed models.
//!
//! Formerly expressed with `proptest`; rewritten on the vendored
//! [`rt_model::rng::Rng`] so the suite runs fully offline.

use dvs_power::{DormantMode, IdleMode, PowerFunction, Processor, SpeedDomain};
use rt_model::rng::Rng;

const CASES: u64 = 64;

fn random_poly(rng: &mut Rng) -> PowerFunction {
    PowerFunction::polynomial(
        rng.gen_f64(0.0, 0.8),
        rng.gen_f64(0.1, 4.0),
        rng.gen_f64(1.2, 3.5),
    )
    .unwrap()
}

fn random_levels(rng: &mut Rng) -> SpeedDomain {
    let k = 1 + rng.gen_index(7);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_u64(1, 100) as u32);
    }
    SpeedDomain::discrete(
        set.into_iter()
            .map(|l| f64::from(l) / 100.0)
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

#[test]
fn power_is_increasing() {
    let mut rng = Rng::seed_from_u64(0x2001);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let a = rng.next_f64();
        let b = rng.next_f64();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(p.power(lo) <= p.power(hi) + 1e-12);
    }
}

#[test]
fn power_is_convex_on_grid() {
    let mut rng = Rng::seed_from_u64(0x2002);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        for k in 1..50 {
            let s = f64::from(k) / 50.0;
            let mid = p.power(s);
            let chord = 0.5 * (p.power(s - 0.02) + p.power(s + 0.02));
            assert!(mid <= chord + 1e-9, "not convex at s = {s}");
        }
    }
}

#[test]
fn critical_speed_minimizes_energy_per_cycle() {
    let mut rng = Rng::seed_from_u64(0x2003);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let s_star = p.critical_speed(1.0);
        if s_star > 0.0 {
            let e = p.energy_per_cycle(s_star.clamp(1e-6, 1.0));
            for k in 1..=100 {
                let s = f64::from(k) / 100.0;
                assert!(e <= p.energy_per_cycle(s) + 1e-9, "beaten at {s}");
            }
        }
    }
}

#[test]
fn uplifted_critical_speed_is_monotone_in_lambda() {
    let mut rng = Rng::seed_from_u64(0x2004);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let l1 = rng.gen_f64(0.0, 5.0);
        let l2 = rng.gen_f64(0.0, 5.0);
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        assert!(
            p.critical_speed_with_uplift(lo, 1.0) <= p.critical_speed_with_uplift(hi, 1.0) + 1e-12
        );
    }
}

/// Marginal prices from 0 past the steepest slope any model here reaches
/// (`P′(1) ≤ 14`), ascending.
fn marginal_prices(rng: &mut Rng) -> Vec<f64> {
    let mut prices: Vec<f64> = (0..40).map(|_| rng.gen_f64(0.0, 20.0)).collect();
    prices.extend([0.0, 1e-9, 0.5, 1.0, 3.0, 1e3, f64::INFINITY]);
    prices.sort_by(f64::total_cmp);
    prices
}

/// `utilization_at_marginal(λ)` lies in `[0, s_max]`, is non-decreasing in
/// `λ`, and minimises `energy_rate(u) − λ·u` over a 1e-3 grid of `u` — on
/// every preset, both idle modes, CMOS (also with a positive minimum speed)
/// and a measured table on a continuous domain.
#[test]
fn utilization_at_marginal_minimises_rate_minus_price() {
    use dvs_power::presets::{
        cubic_ideal, leaky_with_overhead, uniform_levels, xscale_ideal, xscale_levels,
        xscale_measured,
    };
    let cmos = PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap();
    let table = *xscale_measured().power();
    let mut cpus = vec![
        cubic_ideal(),
        xscale_ideal(),
        xscale_levels(),
        xscale_measured(),
        leaky_with_overhead(0.4, 4.0),
        uniform_levels(1),
        uniform_levels(4),
        uniform_levels(16),
        Processor::new(cmos, SpeedDomain::continuous(0.0, 1.0).unwrap()),
        Processor::new(cmos, SpeedDomain::continuous(0.3, 1.0).unwrap()),
        Processor::new(table, SpeedDomain::continuous(0.0, 1.0).unwrap()),
        Processor::new(table, SpeedDomain::continuous(0.5, 1.0).unwrap()),
    ];
    let on: Vec<Processor> = cpus
        .iter()
        .map(|c| c.clone().with_idle_mode(IdleMode::AlwaysOn))
        .collect();
    cpus.extend(on);
    let mut rng = Rng::seed_from_u64(0x2010);
    for cpu in &cpus {
        let s_max = cpu.max_speed();
        let mut last = 0.0;
        for lambda in marginal_prices(&mut rng) {
            let u = cpu.utilization_at_marginal(lambda);
            assert!((0.0..=s_max).contains(&u), "{cpu}: {u} at {lambda}");
            assert!(u >= last, "{cpu}: not monotone at {lambda}");
            last = u;
            if !lambda.is_finite() {
                assert_eq!(u, s_max);
                continue;
            }
            let g = |x: f64| cpu.energy_rate(x).unwrap() - lambda * x;
            let best = g(u);
            for k in 0..=1000 {
                let x = s_max * f64::from(k) / 1000.0;
                let r = cpu.energy_rate(x).unwrap();
                assert!(
                    best <= g(x) + 1e-12 * (1.0 + r.abs()),
                    "{cpu}: λ {lambda} u* {u} beaten at {x}"
                );
            }
        }
    }
}

/// On a polynomial processor with a continuous domain the inverse is the
/// closed form `(λ/(α·β₂))^{1/(α−1)}` clamped to `[s_lo, s_max]`, or 0 at
/// or below the run-and-sleep slope under `s_lo`, bit for bit.
#[test]
fn utilization_at_marginal_is_the_polynomial_closed_form() {
    let mut rng = Rng::seed_from_u64(0x2011);
    for case in 0..CASES {
        let (beta1, beta2, alpha) = (
            rng.gen_f64(0.0, 0.8),
            rng.gen_f64(0.1, 4.0),
            rng.gen_f64(1.2, 3.5),
        );
        let min = if case % 2 == 0 {
            0.0
        } else {
            rng.gen_f64(0.0, 0.6)
        };
        let p = PowerFunction::polynomial(beta1, beta2, alpha).unwrap();
        let mut cpu = Processor::new(p, SpeedDomain::continuous(min, 1.0).unwrap());
        if case % 3 == 0 {
            cpu = cpu.with_idle_mode(IdleMode::AlwaysOn);
        }
        let lo = cpu.critical_speed();
        let idle = cpu.idle_power();
        for lambda in marginal_prices(&mut rng) {
            let want = if lo > 0.0 && lambda <= (p.power(lo) - idle) / lo {
                0.0
            } else {
                (lambda / (alpha * beta2))
                    .powf(1.0 / (alpha - 1.0))
                    .max(lo)
                    .min(1.0)
            };
            let got = cpu.utilization_at_marginal(lambda);
            assert_eq!(got.to_bits(), want.to_bits(), "{cpu} at {lambda}");
        }
    }
}

#[test]
fn continuous_energy_rate_is_monotone_and_feasible() {
    let mut rng = Rng::seed_from_u64(0x2005);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let u = rng.next_f64();
        let cpu = Processor::new(p, SpeedDomain::continuous(0.0, 1.0).unwrap());
        let r1 = cpu.energy_rate(u).unwrap();
        let r2 = cpu.energy_rate((u + 0.05).min(1.0)).unwrap();
        assert!(r1 <= r2 + 1e-12);
        assert!(r1 >= 0.0);
    }
}

#[test]
fn plan_delivers_exactly_the_demand() {
    let mut rng = Rng::seed_from_u64(0x2006);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let levels = random_levels(&mut rng);
        let cpu = Processor::new(p, levels);
        let u = cpu.max_speed() * 0.7;
        let plan = cpu.plan(u).unwrap();
        assert!((plan.throughput() - u).abs() < 1e-9);
        assert!(plan.busy_fraction() <= 1.0 + 1e-9);
        assert!((plan.energy_rate() - cpu.energy_rate(u).unwrap()).abs() < 1e-9);
    }
}

#[test]
fn discrete_never_cheaper_than_continuous() {
    let mut rng = Rng::seed_from_u64(0x2007);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let levels = random_levels(&mut rng);
        let frac = rng.gen_f64(0.01, 1.0);
        let disc = Processor::new(p, levels);
        let cont = Processor::new(p, SpeedDomain::continuous(0.0, disc.max_speed()).unwrap());
        let u = disc.max_speed() * frac;
        let e_disc = disc.energy_rate(u).unwrap();
        let e_cont = cont.energy_rate(u).unwrap();
        assert!(
            e_disc >= e_cont - 1e-9,
            "discrete {e_disc} beat continuous {e_cont}"
        );
    }
}

#[test]
fn infeasible_demand_always_rejected() {
    let mut rng = Rng::seed_from_u64(0x2008);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let over = rng.gen_f64(1.0001, 5.0);
        let cpu = Processor::new(p, SpeedDomain::continuous(0.0, 1.0).unwrap());
        assert!(cpu.plan(over).is_err());
        assert!(cpu.energy_rate(over).is_err());
    }
}

#[test]
fn always_on_rate_at_least_idle_floor() {
    let mut rng = Rng::seed_from_u64(0x2009);
    for _ in 0..CASES {
        let p = random_poly(&mut rng);
        let u = rng.next_f64();
        let cpu = Processor::new(p, SpeedDomain::continuous(0.0, 1.0).unwrap())
            .with_idle_mode(IdleMode::AlwaysOn);
        let rate = cpu.energy_rate(u).unwrap();
        assert!(rate >= p.idle_power() - 1e-12);
    }
}

#[test]
fn idle_energy_never_exceeds_staying_awake() {
    let mut rng = Rng::seed_from_u64(0x200A);
    for _ in 0..CASES {
        let t = rng.gen_f64(0.0, 200.0);
        let p0 = rng.next_f64();
        let tsw = rng.gen_f64(0.0, 10.0);
        let esw = rng.gen_f64(0.0, 20.0);
        let dm = DormantMode::new(tsw, esw).unwrap();
        assert!(dm.idle_energy(t, p0) <= t * p0 + 1e-12);
    }
}

#[test]
fn bracket_sandwiches_the_demand() {
    let mut rng = Rng::seed_from_u64(0x200B);
    for _ in 0..CASES {
        let levels = random_levels(&mut rng);
        let frac = rng.gen_f64(0.0, 1.2);
        let s = frac * levels.max_speed();
        let (below, above) = levels.bracket(s);
        if let Some(b) = below {
            assert!(b <= s + 1e-9);
        }
        if let Some(a) = above {
            assert!(a >= s - 1e-9);
        }
        assert!(below.is_some() || above.is_some());
    }
}
