use std::cell::OnceCell;
use std::fmt;

use crate::function;
use crate::plan::{ExecutionPlan, SpeedSegment};
use crate::{DormantMode, PowerError, PowerFunction, SpeedDomain};

/// Relative tolerance for feasibility of a utilization demand against
/// `s_max` (mirrors `rt_model::feasibility::FEASIBILITY_TOLERANCE`).
const DEMAND_TOLERANCE: f64 = 1e-9;

/// How the processor behaves while idle.
///
/// * [`IdleMode::Sleep`] — **dormant-enable**: the processor can enter a
///   zero-power dormant mode, paying the [`DormantMode`] overheads per
///   sleep/wake round-trip. Steady-state planning treats idle power as zero
///   (the overheads are charged per idle interval by the simulator and by
///   the procrastination analysis); this is what makes the **critical
///   speed** bind — running below `s*` is wasteful because idling is free.
/// * [`IdleMode::AlwaysOn`] — **dormant-disable**: the speed-independent
///   power `P(0)` burns during idle time too, so the only lever is slowing
///   down, and the optimal speed is the demand itself (clamped to the
///   domain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdleMode {
    /// Dormant-enable processor with the given switch overheads.
    Sleep(DormantMode),
    /// Dormant-disable processor: idle burns `P(0)`.
    AlwaysOn,
}

impl Default for IdleMode {
    /// Dormant-enable with negligible overheads.
    fn default() -> Self {
        IdleMode::Sleep(DormantMode::free())
    }
}

/// A DVS processor: a power function, a speed domain, and an idle mode.
///
/// The central operation is [`Processor::plan`], the minimum-energy
/// execution oracle `u ↦ E*(u)` used by every rejection algorithm: given a
/// utilization demand `u` (cycles per tick), it returns the optimal
/// steady-state speed schedule and its energy rate.
///
/// # Examples
///
/// ```
/// use dvs_power::{IdleMode, PowerFunction, Processor, SpeedDomain};
///
/// # fn main() -> Result<(), dvs_power::PowerError> {
/// let cpu = Processor::new(
///     PowerFunction::polynomial(0.08, 1.52, 3.0)?,
///     SpeedDomain::discrete(vec![0.15, 0.4, 0.6, 0.8, 1.0])?,
/// );
/// let plan = cpu.plan(0.5)?;                    // between levels 0.4 and 0.6
/// assert!(plan.max_speed() <= 1.0);
/// assert!((plan.throughput() - 0.5).abs() < 1e-9);
/// assert!(cpu.plan(1.5).is_err());              // beyond s_max: infeasible
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    power: PowerFunction,
    domain: SpeedDomain,
    idle: IdleMode,
    /// Lazily cached [`Processor::critical_speed`]. For table/CMOS power
    /// functions the uncached path runs a 200-iteration golden-section
    /// search, and `energy_rate` — the admission hot path — needs `s*` on
    /// every call. The cell is filled once with exactly the value the
    /// uncached path computes and replayed thereafter, so results are
    /// bit-identical.
    crit_cache: OnceCell<f64>,
}

/// Equality ignores the lazily filled critical-speed cache — two processors
/// are equal iff their power functions, domains, and idle modes are.
impl PartialEq for Processor {
    fn eq(&self, other: &Self) -> bool {
        self.power == other.power && self.domain == other.domain && self.idle == other.idle
    }
}

impl Processor {
    /// Creates a dormant-enable processor with negligible switch overheads.
    #[must_use]
    pub fn new(power: PowerFunction, domain: SpeedDomain) -> Self {
        Processor {
            power,
            domain,
            idle: IdleMode::Sleep(DormantMode::free()),
            crit_cache: OnceCell::new(),
        }
    }

    /// Returns a copy with the idle mode replaced.
    #[must_use]
    pub fn with_idle_mode(mut self, idle: IdleMode) -> Self {
        self.idle = idle;
        // The critical speed depends on the idle mode; drop any cached value.
        self.crit_cache = OnceCell::new();
        self
    }

    /// The power function.
    #[must_use]
    pub fn power(&self) -> &PowerFunction {
        &self.power
    }

    /// The speed domain.
    #[must_use]
    pub fn domain(&self) -> &SpeedDomain {
        &self.domain
    }

    /// The idle mode.
    #[must_use]
    pub fn idle_mode(&self) -> IdleMode {
        self.idle
    }

    /// Maximum sustainable speed `s_max`.
    #[must_use]
    pub fn max_speed(&self) -> f64 {
        self.domain.max_speed()
    }

    /// Power burnt while idle (0 for dormant-enable in steady state,
    /// `P(0)` for dormant-disable).
    #[must_use]
    pub fn idle_power(&self) -> f64 {
        match self.idle {
            IdleMode::Sleep(_) => 0.0,
            IdleMode::AlwaysOn => self.power.idle_power(),
        }
    }

    /// The critical speed `s*` relevant to this processor's idle mode:
    /// `argmin P(s)/s` for dormant-enable processors, and the domain minimum
    /// for dormant-disable processors (where slowing down always helps).
    #[must_use]
    pub fn critical_speed(&self) -> f64 {
        *self.crit_cache.get_or_init(|| match self.idle {
            IdleMode::Sleep(_) => self
                .power
                .critical_speed(self.domain.max_speed())
                .max(self.domain.min_speed()),
            IdleMode::AlwaysOn => self.domain.min_speed(),
        })
    }

    /// Whether a utilization demand is feasible (`u ≤ s_max`).
    #[must_use]
    pub fn is_feasible(&self, utilization: f64) -> bool {
        utilization <= self.max_speed() * (1.0 + DEMAND_TOLERANCE)
    }

    /// Minimum-energy steady-state execution plan for demand `u`
    /// (cycles per tick).
    ///
    /// For ideal (continuous) domains the optimal speed is
    /// `clamp(u, s_lo, s_max)` with `s_lo` the [critical
    /// speed](Processor::critical_speed); for non-ideal (discrete) domains
    /// the planner evaluates every single-level run-and-idle strategy and
    /// every two-level split that spans the demand, returning the cheapest —
    /// which is optimal by convexity of `P` (Ishihara–Yasuura).
    ///
    /// # Errors
    ///
    /// * [`PowerError::InvalidDemand`] if `u` is negative or not finite.
    /// * [`PowerError::InfeasibleDemand`] if `u > s_max`.
    pub fn plan(&self, utilization: f64) -> Result<ExecutionPlan, PowerError> {
        if !utilization.is_finite() || utilization < 0.0 {
            return Err(PowerError::InvalidDemand { utilization });
        }
        if !self.is_feasible(utilization) {
            return Err(PowerError::InfeasibleDemand {
                utilization,
                max_speed: self.max_speed(),
            });
        }
        let u = utilization.min(self.max_speed());
        if u == 0.0 {
            return Ok(ExecutionPlan::new(Vec::new(), self.idle_power(), 0.0));
        }
        match &self.domain {
            SpeedDomain::Continuous { .. } => Ok(self.plan_continuous(u)),
            SpeedDomain::Discrete { levels } => Ok(self.plan_discrete(u, levels)),
        }
    }

    /// The energy rate (energy per tick) of the optimal plan, computed
    /// without materialising the plan — this is the hot path of the
    /// rejection algorithms (exhaustive search evaluates it millions of
    /// times).
    ///
    /// # Errors
    ///
    /// Same as [`Processor::plan`].
    pub fn energy_rate(&self, utilization: f64) -> Result<f64, PowerError> {
        if !utilization.is_finite() || utilization < 0.0 {
            return Err(PowerError::InvalidDemand { utilization });
        }
        if !self.is_feasible(utilization) {
            return Err(PowerError::InfeasibleDemand {
                utilization,
                max_speed: self.max_speed(),
            });
        }
        let u = utilization.min(self.max_speed());
        if u == 0.0 {
            return Ok(self.idle_power());
        }
        match &self.domain {
            SpeedDomain::Continuous { .. } => {
                let lo = self.critical_speed();
                let s = u.max(lo).min(self.max_speed()).max(f64::MIN_POSITIVE);
                Ok(self.energy_rate_at_speed(u, s))
            }
            SpeedDomain::Discrete { levels } => {
                let mut best = f64::INFINITY;
                for &s in levels.iter().filter(|&&s| s >= u - DEMAND_TOLERANCE) {
                    best = best.min(self.energy_rate_at_speed(u, s));
                }
                for (i, &s1) in levels.iter().enumerate() {
                    if s1 > u {
                        continue;
                    }
                    for &s2 in &levels[i + 1..] {
                        if s2 < u {
                            continue;
                        }
                        let f2 = (u - s1) / (s2 - s1);
                        let rate = (1.0 - f2) * self.power.power(s1) + f2 * self.power.power(s2);
                        best = best.min(rate);
                    }
                }
                Ok(best)
            }
        }
    }

    /// The inverse of the marginal energy rate: the smallest utilization
    /// `u ∈ [0, s_max]` that minimises `energy_rate(u) − λ·u`.
    ///
    /// `energy_rate` is convex, so this is where its slope first reaches
    /// `λ` — the utilization at which one more unit of demand costs `λ`.
    /// With `λ = v/(u·L)`, a task's penalty density per hyper-period, it is
    /// the break-even load up to which accepting that task pays
    /// (docs/THEORY.md §6).
    ///
    /// * Ideal (continuous) domains: below `s_lo` = [critical
    ///   speed](Processor::critical_speed) the plan runs at `s_lo` and
    ///   idles, a straight segment of slope `(rate(s_lo) − rate(0))/s_lo`;
    ///   at or below that slope the answer is 0. Above it the rate is
    ///   `P(u)`, so the answer is `P′⁻¹(λ)` clamped to `[s_lo, s_max]`: a
    ///   closed form for polynomials, a table vertex for measured tables,
    ///   a bisection for CMOS.
    /// * Discrete domains: the rate is piecewise linear between `0` and the
    ///   levels, so the answer is the first of those vertices from which
    ///   the chord slope is at least `λ`.
    #[must_use]
    pub fn utilization_at_marginal(&self, lambda: f64) -> f64 {
        self.utilization_at_marginal_fn()(lambda)
    }

    /// [`Processor::utilization_at_marginal`] for many prices: the
    /// run-and-sleep slope below `s_lo` (continuous domains) or the chord
    /// slope from each vertex to the next (discrete domains) is computed
    /// once, and the returned function answers each `λ` with the bits of
    /// the scalar call.
    #[must_use]
    pub fn utilization_at_marginal_fn(&self) -> Box<dyn Fn(f64) -> f64 + '_> {
        let rate = |u: f64| self.energy_rate(u).expect("vertices lie in [0, s_max]");
        match &self.domain {
            SpeedDomain::Continuous { max, .. } => {
                let lo = self.critical_speed();
                let flat = (lo > 0.0).then(|| (rate(lo) - rate(0.0)) / lo);
                Box::new(move |lambda| {
                    if flat.is_some_and(|slope| lambda <= slope) {
                        0.0
                    } else {
                        self.power.speed_at_slope(lambda, lo, *max)
                    }
                })
            }
            SpeedDomain::Discrete { levels } => {
                let (mut u, mut r) = (0.0, rate(0.0));
                let mut chords = Vec::with_capacity(levels.len());
                for &s in levels {
                    let next = rate(s);
                    chords.push((u, (next - r) / (s - u)));
                    (u, r) = (s, next);
                }
                Box::new(move |lambda| {
                    chords
                        .iter()
                        .find(|&&(_, slope)| slope >= lambda)
                        .map_or(u, |&(vertex, _)| vertex)
                })
            }
        }
    }

    /// Energy rate of running a demand `u` at one fixed speed `s ≥ u` and
    /// idling the rest of the time. Exposed for analysis and testing.
    #[must_use]
    pub fn energy_rate_at_speed(&self, u: f64, s: f64) -> f64 {
        debug_assert!(
            s > 0.0 && u <= s * (1.0 + 1e-6) + DEMAND_TOLERANCE,
            "demand {u} cannot be served at speed {s}"
        );
        let busy = (u / s).min(1.0);
        busy * self.power.power(s) + (1.0 - busy) * self.idle_power()
    }

    /// Serializes this processor as a single-line, space-separated spec
    /// (floats as IEEE-754 bit hex), decodable by
    /// [`Processor::decode_spec`] into a bit-identical processor — same
    /// power values, same plans, same critical-speed bits. This is the
    /// wire format a sharded deployment uses to move a power domain
    /// between engines without losing exactness.
    #[must_use]
    pub fn encode_spec(&self) -> String {
        let mut out: Vec<String> = vec!["pf".to_string()];
        self.power.encode_spec_tokens(&mut out);
        match &self.domain {
            SpeedDomain::Continuous { min, max } => {
                out.push("dom".to_string());
                out.push("cont".to_string());
                out.push(function::bits_token(*min));
                out.push(function::bits_token(*max));
            }
            SpeedDomain::Discrete { levels } => {
                out.push("dom".to_string());
                out.push("disc".to_string());
                out.push(levels.len().to_string());
                for &s in levels {
                    out.push(function::bits_token(s));
                }
            }
        }
        match self.idle {
            IdleMode::Sleep(dm) => {
                out.push("idle".to_string());
                out.push("sleep".to_string());
                out.push(function::bits_token(dm.switch_time()));
                out.push(function::bits_token(dm.switch_energy()));
            }
            IdleMode::AlwaysOn => {
                out.push("idle".to_string());
                out.push("on".to_string());
            }
        }
        out.join(" ")
    }

    /// Decodes a spec produced by [`Processor::encode_spec`]. Every
    /// component is rebuilt through its public constructor, so the decoded
    /// processor re-validates the model *and* reproduces the exact bits of
    /// the original (the polynomial critical-speed constant is recomputed
    /// from the identical coefficient bits).
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidSpec`] for malformed specs; constructor errors
    /// for specs whose values fail model validation.
    pub fn decode_spec(spec: &str) -> Result<Self, PowerError> {
        let mut tokens = spec.split_ascii_whitespace();
        let expect = |tokens: &mut std::str::SplitAsciiWhitespace<'_>,
                      tag: &str|
         -> Result<(), PowerError> {
            match function::next_token(tokens, tag)? {
                t if t == tag => Ok(()),
                other => Err(function::spec_err(&format!(
                    "expected {tag:?}, found {other:?}"
                ))),
            }
        };
        expect(&mut tokens, "pf")?;
        let power = PowerFunction::decode_spec_tokens(&mut tokens)?;
        expect(&mut tokens, "dom")?;
        let domain = match function::next_token(&mut tokens, "domain tag")? {
            "cont" => {
                let min = function::bits_value(&mut tokens, "domain min bits")?;
                let max = function::bits_value(&mut tokens, "domain max bits")?;
                SpeedDomain::continuous(min, max)?
            }
            "disc" => {
                let n: usize = function::next_token(&mut tokens, "level count")?
                    .parse()
                    .map_err(|_| function::spec_err("unparseable level count"))?;
                if n > 4096 {
                    return Err(function::spec_err("level count out of range"));
                }
                let mut levels = Vec::with_capacity(n);
                for _ in 0..n {
                    levels.push(function::bits_value(&mut tokens, "level bits")?);
                }
                SpeedDomain::discrete(levels)?
            }
            other => return Err(function::spec_err(&format!("unknown domain tag {other:?}"))),
        };
        expect(&mut tokens, "idle")?;
        let idle = match function::next_token(&mut tokens, "idle tag")? {
            "sleep" => {
                let t_sw = function::bits_value(&mut tokens, "switch time bits")?;
                let e_sw = function::bits_value(&mut tokens, "switch energy bits")?;
                IdleMode::Sleep(DormantMode::new(t_sw, e_sw)?)
            }
            "on" => IdleMode::AlwaysOn,
            other => return Err(function::spec_err(&format!("unknown idle tag {other:?}"))),
        };
        if let Some(extra) = tokens.next() {
            return Err(function::spec_err(&format!(
                "trailing token {extra:?} after spec"
            )));
        }
        Ok(Processor::new(power, domain).with_idle_mode(idle))
    }

    fn plan_continuous(&self, u: f64) -> ExecutionPlan {
        let lo = self.critical_speed();
        let s = u.max(lo).min(self.max_speed()).max(f64::MIN_POSITIVE);
        let busy = (u / s).min(1.0);
        let rate = self.energy_rate_at_speed(u, s);
        ExecutionPlan::new(
            vec![SpeedSegment {
                speed: s,
                fraction: busy,
            }],
            rate,
            u,
        )
    }

    fn plan_discrete(&self, u: f64, levels: &[f64]) -> ExecutionPlan {
        let mut best: Option<(f64, Vec<SpeedSegment>)> = None;
        let mut consider = |rate: f64, segs: Vec<SpeedSegment>| {
            if best.as_ref().is_none_or(|(r, _)| rate < *r) {
                best = Some((rate, segs));
            }
        };
        // Strategy A: one level ≥ u, run-and-idle.
        for &s in levels.iter().filter(|&&s| s >= u - DEMAND_TOLERANCE) {
            let busy = (u / s).min(1.0);
            consider(
                self.energy_rate_at_speed(u, s),
                vec![SpeedSegment {
                    speed: s,
                    fraction: busy,
                }],
            );
        }
        // Strategy B: a two-level split spanning u, fully busy.
        for (i, &s1) in levels.iter().enumerate() {
            if s1 > u {
                continue;
            }
            for &s2 in &levels[i + 1..] {
                if s2 < u {
                    continue;
                }
                let f2 = (u - s1) / (s2 - s1);
                let f1 = 1.0 - f2;
                let rate = f1 * self.power.power(s1) + f2 * self.power.power(s2);
                consider(
                    rate,
                    vec![
                        SpeedSegment {
                            speed: s1,
                            fraction: f1,
                        },
                        SpeedSegment {
                            speed: s2,
                            fraction: f2,
                        },
                    ],
                );
            }
        }
        let (rate, segs) = best.expect("feasible demand has at least one strategy");
        ExecutionPlan::new(segs, rate, u)
    }
}

impl fmt::Display for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idle = match self.idle {
            IdleMode::Sleep(dm) => format!("sleep {dm}"),
            IdleMode::AlwaysOn => "always-on".to_string(),
        };
        write!(f, "processor[{}; s ∈ {}; {idle}]", self.power, self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_cubic() -> Processor {
        Processor::new(
            PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap(),
            SpeedDomain::continuous(0.0, 1.0).unwrap(),
        )
    }

    fn xscale() -> Processor {
        Processor::new(
            PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap(),
            SpeedDomain::continuous(0.0, 1.0).unwrap(),
        )
    }

    #[test]
    fn pure_cubic_runs_at_demand() {
        let cpu = ideal_cubic();
        for &u in &[0.1, 0.5, 0.9, 1.0] {
            let plan = cpu.plan(u).unwrap();
            assert!((plan.max_speed() - u).abs() < 1e-12);
            assert!((plan.energy_rate() - u * u * u).abs() < 1e-12);
            assert!((plan.throughput() - u).abs() < 1e-12);
        }
    }

    #[test]
    fn leaky_processor_clamps_to_critical_speed() {
        let cpu = xscale();
        let s_crit = cpu.critical_speed();
        let plan = cpu.plan(s_crit / 2.0).unwrap();
        assert!((plan.max_speed() - s_crit).abs() < 1e-9);
        assert!(plan.idle_fraction() > 0.0);
        // Above the critical speed the demand itself is optimal.
        let plan = cpu.plan(0.9).unwrap();
        assert!((plan.max_speed() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn always_on_runs_as_slow_as_possible() {
        let cpu = xscale().with_idle_mode(IdleMode::AlwaysOn);
        let plan = cpu.plan(0.1).unwrap();
        assert!((plan.max_speed() - 0.1).abs() < 1e-12);
        assert!((plan.busy_fraction() - 1.0).abs() < 1e-12);
        // Energy rate includes the unavoidable leakage.
        assert!(plan.energy_rate() > 0.08);
    }

    #[test]
    fn infeasible_demand_rejected() {
        let cpu = ideal_cubic();
        assert!(matches!(
            cpu.plan(1.5),
            Err(PowerError::InfeasibleDemand { .. })
        ));
        assert!(matches!(
            cpu.plan(-0.1),
            Err(PowerError::InvalidDemand { .. })
        ));
        assert!(matches!(
            cpu.plan(f64::NAN),
            Err(PowerError::InvalidDemand { .. })
        ));
    }

    #[test]
    fn zero_demand_plans_pure_idle() {
        let sleepy = xscale();
        assert_eq!(sleepy.plan(0.0).unwrap().energy_rate(), 0.0);
        let on = xscale().with_idle_mode(IdleMode::AlwaysOn);
        assert!((on.plan(0.0).unwrap().energy_rate() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn discrete_split_delivers_demand() {
        let cpu = Processor::new(
            PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap(),
            SpeedDomain::discrete(vec![0.4, 0.8]).unwrap(),
        );
        let plan = cpu.plan(0.6).unwrap();
        assert!((plan.throughput() - 0.6).abs() < 1e-12);
        assert_eq!(plan.segments().len(), 2);
        // Split beats running everything at 0.8 with idle:
        let single = cpu.energy_rate_at_speed(0.6, 0.8);
        assert!(plan.energy_rate() < single);
    }

    #[test]
    fn discrete_exact_level_uses_single_speed() {
        let cpu = Processor::new(
            PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap(),
            SpeedDomain::discrete(vec![0.4, 0.8]).unwrap(),
        );
        let plan = cpu.plan(0.8).unwrap();
        assert!((plan.energy_rate() - 0.8f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn discrete_with_leakage_prefers_sleeping_at_low_demand() {
        // Levels far below s* are never worth using for a sleeping CPU.
        let cpu = Processor::new(
            PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap(),
            SpeedDomain::discrete(vec![0.05, 0.4, 1.0]).unwrap(),
        );
        let plan = cpu.plan(0.02).unwrap();
        // Running at 0.05 costs P(0.05)/0.05 ≈ 1.6 per cycle; at 0.4 it is
        // ~0.44 per cycle. The planner must pick the higher level and idle.
        assert!(plan.max_speed() >= 0.4 - 1e-12);
    }

    #[test]
    fn discrete_matches_continuous_envelope() {
        // A dense level grid must approach the continuous optimum.
        let levels: Vec<f64> = (1..=100).map(|k| k as f64 / 100.0).collect();
        let cont = xscale();
        let disc = Processor::new(
            PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap(),
            SpeedDomain::discrete(levels).unwrap(),
        );
        for &u in &[0.1, 0.3, 0.55, 0.92] {
            let e_cont = cont.energy_rate(u).unwrap();
            let e_disc = disc.energy_rate(u).unwrap();
            assert!(e_disc >= e_cont - 1e-9, "discrete cannot beat continuous");
            assert!(
                e_disc <= e_cont * 1.01,
                "1% grid should be near-optimal at u={u}"
            );
        }
    }

    #[test]
    fn energy_rate_monotone_in_utilization() {
        for cpu in [
            ideal_cubic(),
            xscale(),
            xscale().with_idle_mode(IdleMode::AlwaysOn),
        ] {
            let mut last = 0.0;
            for k in 0..=100 {
                let u = k as f64 / 100.0;
                let e = cpu.energy_rate(u).unwrap();
                assert!(e + 1e-12 >= last, "not monotone at u={u}");
                last = e;
            }
        }
    }

    #[test]
    fn min_speed_floor_respected() {
        let cpu = Processor::new(
            PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap(),
            SpeedDomain::continuous(0.25, 1.0).unwrap(),
        );
        let plan = cpu.plan(0.1).unwrap();
        assert!((plan.max_speed() - 0.25).abs() < 1e-12);
        assert!(plan.idle_fraction() > 0.0);
    }

    #[test]
    fn display_mentions_domain() {
        let s = ideal_cubic().to_string();
        assert!(s.contains("[0, 1]"));
    }

    #[test]
    fn cached_critical_speed_replays_uncached_bits() {
        // Cached value must be exactly what the uncached expression yields,
        // for every power-function family and both idle modes.
        let table = PowerFunction::table(&[
            (0.15, 0.08),
            (0.4, 0.17),
            (0.6, 0.4),
            (0.8, 0.9),
            (1.0, 1.6),
        ])
        .unwrap();
        let cmos = PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap();
        let poly = PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap();
        for pf in [table, cmos, poly] {
            let cpu = Processor::new(pf, SpeedDomain::continuous(0.1, 1.0).unwrap());
            let naive = pf.critical_speed(1.0).max(0.1);
            assert_eq!(cpu.critical_speed().to_bits(), naive.to_bits());
            // Stable across repeated calls and clones.
            assert_eq!(cpu.critical_speed().to_bits(), naive.to_bits());
            assert_eq!(cpu.clone().critical_speed().to_bits(), naive.to_bits());
            // Changing the idle mode invalidates the cache.
            let on = cpu.with_idle_mode(IdleMode::AlwaysOn);
            assert_eq!(on.critical_speed(), 0.1);
        }
    }

    #[test]
    fn equality_ignores_critical_speed_cache() {
        let a = xscale();
        let _ = a.critical_speed(); // warm one side only
        assert_eq!(a, xscale());
    }

    fn assert_spec_round_trip(cpu: &Processor) {
        let spec = cpu.encode_spec();
        let back = Processor::decode_spec(&spec).expect("spec must decode");
        assert_eq!(&back, cpu, "round-trip must preserve the model: {spec}");
        assert_eq!(
            back.critical_speed().to_bits(),
            cpu.critical_speed().to_bits(),
            "critical speed must survive bit-exactly"
        );
        for &u in &[0.0, 0.1, 0.37, 0.8, 1.0] {
            if !cpu.is_feasible(u) {
                continue;
            }
            assert_eq!(
                back.energy_rate(u).unwrap().to_bits(),
                cpu.energy_rate(u).unwrap().to_bits(),
                "energy rate at u={u} must survive bit-exactly"
            );
        }
        // Encoding is canonical: a decoded processor re-encodes identically.
        assert_eq!(back.encode_spec(), spec);
    }

    #[test]
    fn spec_round_trips_every_family() {
        let table = PowerFunction::table(&[
            (0.15, 0.08),
            (0.4, 0.17),
            (0.6, 0.4),
            (0.8, 0.9),
            (1.0, 1.6),
        ])
        .unwrap();
        let cmos = PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap();
        let cpus = [
            ideal_cubic(),
            xscale(),
            xscale().with_idle_mode(IdleMode::AlwaysOn),
            xscale().with_idle_mode(IdleMode::Sleep(DormantMode::new(0.5, 0.2).unwrap())),
            Processor::new(
                table,
                SpeedDomain::discrete(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap(),
            ),
            Processor::new(cmos, SpeedDomain::continuous(0.1, 1.0).unwrap()),
        ];
        for cpu in &cpus {
            assert_spec_round_trip(cpu);
        }
    }

    #[test]
    fn spec_round_trips_awkward_float_bits() {
        // Values whose shortest decimal printing loses bits — the hex
        // encoding must not.
        let cpu = Processor::new(
            PowerFunction::polynomial(0.1 + 0.2, 1.0 / 3.0, 2.0 + 1e-12).unwrap(),
            SpeedDomain::continuous(1e-300, 0.3 + 0.3 + 0.3).unwrap(),
        );
        assert_spec_round_trip(&cpu);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        let spec = ideal_cubic().encode_spec();
        let truncated = spec.rsplit_once(' ').unwrap().0;
        for bad in [
            "",
            "pf",
            "pf nope",
            "pf poly zz 0 0", // non-hex bits
            truncated,        // final token missing
            &format!("{spec} extra"),
        ] {
            let err = Processor::decode_spec(bad).unwrap_err();
            assert!(
                matches!(err, PowerError::InvalidSpec { .. }),
                "{bad:?} must yield InvalidSpec, got {err:?}"
            );
        }
        // Structurally valid but semantically invalid specs surface the
        // constructor's own error, not InvalidSpec.
        let bad_alpha = format!(
            "pf poly {} {} {} dom cont {} {} idle on",
            function::bits_token(0.1),
            function::bits_token(1.0),
            function::bits_token(0.5), // α ≤ 1
            function::bits_token(0.0),
            function::bits_token(1.0),
        );
        assert!(matches!(
            Processor::decode_spec(&bad_alpha).unwrap_err(),
            PowerError::InvalidCoefficient { .. }
        ));
    }
}
