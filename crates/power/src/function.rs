use std::fmt;

use crate::PowerError;

/// Number of iterations of golden-section search used by the numeric
/// critical-speed fallback; gives ~1e-12 relative bracketing on `[0, s]`.
const GOLDEN_ITERS: usize = 200;

/// A convex, increasing processor power function `P(s)`.
///
/// Two families are provided:
///
/// * [`PowerFunction::polynomial`] — `P(s) = β₁ + β₂·s^α` with `β₁ ≥ 0`,
///   `β₂ > 0`, `α > 1`. This covers the evaluation models of the paper's
///   research line (`s³`, `ρᵢ·s^αᵢ`, and the normalised Intel XScale
///   `0.08 + 1.52·s³`).
/// * [`PowerFunction::cmos`] — derived from CMOS first principles,
///   `P_switch(s) = C_ef·V_dd²·s` with `s = κ(V_dd − V_t)²/V_dd`; the
///   resulting `P(s)` is evaluated by inverting the speed/voltage relation.
///
/// The *energy per cycle* at speed `s` is `P(s)/s`; its minimiser is the
/// **critical speed** used by leakage-aware scheduling.
///
/// # Examples
///
/// ```
/// use dvs_power::PowerFunction;
///
/// # fn main() -> Result<(), dvs_power::PowerError> {
/// let p = PowerFunction::polynomial(0.0, 1.0, 3.0)?;   // P(s) = s³
/// assert!((p.power(0.5) - 0.125).abs() < 1e-12);
/// assert!((p.energy_per_cycle(0.5) - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFunction {
    kind: Kind,
}

/// Maximum number of points a measured table may hold (keeps the type
/// `Copy`-friendly via a fixed-size array).
const TABLE_CAPACITY: usize = 16;

// The table variant dominates the size on purpose: a fixed-size inline
// array keeps `PowerFunction` `Copy`, which the planner relies on.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// `β₁ + β₂ s^α`, with the uncapped critical speed precomputed at
    /// construction (`crit_raw`): the closed form costs a `powf` tower,
    /// and the admission hot path asks for it on every pricing call. The
    /// stored value holds the *exact bits* the closed-form expression
    /// produces, so capping it at call time is bit-identical to the old
    /// compute-then-cap path.
    Polynomial {
        beta1: f64,
        beta2: f64,
        alpha: f64,
        crit_raw: f64,
    },
    /// CMOS model: speed `s(V) = κ (V − V_t)² / V`, power
    /// `P(V) = C_ef V² s(V) + P_ind`. Stored with the voltage bounds implied
    /// by `s ∈ [0, s(V_max)]`.
    Cmos {
        cef: f64,
        vt: f64,
        kappa: f64,
        pind: f64,
    },
    /// A measured `(speed, power)` table, linearly interpolated. Points are
    /// sorted by speed; `len` of the fixed-size buffer are valid.
    Table {
        points: [(f64, f64); TABLE_CAPACITY],
        len: usize,
    },
}

impl Kind {
    /// Builds the polynomial variant, precomputing the uncapped critical
    /// speed with the same expression the on-demand path used, so replaying
    /// the stored value is bit-identical.
    fn polynomial(beta1: f64, beta2: f64, alpha: f64) -> Self {
        let crit_raw = if beta1 == 0.0 {
            // Pure dynamic power: P(s)/s = β₂ s^(α−1) is increasing,
            // so the slowest speed is best; the infimum is 0.
            0.0
        } else {
            (beta1 / ((alpha - 1.0) * beta2)).powf(1.0 / alpha)
        };
        Kind::Polynomial {
            beta1,
            beta2,
            alpha,
            crit_raw,
        }
    }
}

impl PowerFunction {
    /// Creates the polynomial model `P(s) = β₁ + β₂·s^α`.
    ///
    /// `β₁` is the speed-independent part `P_ind` (leakage); `β₂·s^α` is the
    /// speed-dependent part `P_d(s)`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidCoefficient`] unless `β₁ ≥ 0`, `β₂ > 0`, and
    /// `α > 1` (convexity of both `P_d` and `P_d(s)/s` requires `α > 1`;
    /// the literature uses `α ∈ [2, 3]`).
    pub fn polynomial(beta1: f64, beta2: f64, alpha: f64) -> Result<Self, PowerError> {
        if !beta1.is_finite() || beta1 < 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "β₁",
                value: beta1,
            });
        }
        if !beta2.is_finite() || beta2 <= 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "β₂",
                value: beta2,
            });
        }
        if !alpha.is_finite() || alpha <= 1.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "α",
                value: alpha,
            });
        }
        Ok(PowerFunction {
            kind: Kind::polynomial(beta1, beta2, alpha),
        })
    }

    /// Creates the CMOS model with effective switched capacitance `cef`,
    /// threshold voltage `vt`, hardware constant `kappa`, and
    /// speed-independent power `pind`.
    ///
    /// Speed and supply voltage are related by `s = κ·(V_dd − V_t)²/V_dd`;
    /// the dynamic power at that operating point is `C_ef·V_dd²·s`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidCoefficient`] unless `cef > 0`, `vt ≥ 0`,
    /// `kappa > 0`, `pind ≥ 0`.
    pub fn cmos(cef: f64, vt: f64, kappa: f64, pind: f64) -> Result<Self, PowerError> {
        if !cef.is_finite() || cef <= 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "C_ef",
                value: cef,
            });
        }
        if !vt.is_finite() || vt < 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "V_t",
                value: vt,
            });
        }
        if !kappa.is_finite() || kappa <= 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "κ",
                value: kappa,
            });
        }
        if !pind.is_finite() || pind < 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "P_ind",
                value: pind,
            });
        }
        Ok(PowerFunction {
            kind: Kind::Cmos {
                cef,
                vt,
                kappa,
                pind,
            },
        })
    }

    /// Creates a power function from a **measured table** of
    /// `(speed, power)` points, linearly interpolated between points and
    /// extrapolated by the boundary segments outside them.
    ///
    /// The convexity assumptions of the scheduling theory are *checked*:
    /// speeds must be strictly increasing, powers non-decreasing, and the
    /// chord slopes non-decreasing (convexity); measured tables that
    /// violate this should be replaced by their lower convex envelope by
    /// the caller.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidCoefficient`] if fewer than 2 or more than 16
    /// points are given, or monotonicity/convexity fails.
    pub fn table(points: &[(f64, f64)]) -> Result<Self, PowerError> {
        if points.len() < 2 || points.len() > TABLE_CAPACITY {
            return Err(PowerError::InvalidCoefficient {
                name: "table length",
                value: points.len() as f64,
            });
        }
        if points
            .iter()
            .any(|&(s, p)| !s.is_finite() || !p.is_finite() || s < 0.0 || p < 0.0)
        {
            return Err(PowerError::InvalidCoefficient {
                name: "table point",
                value: f64::NAN,
            });
        }
        let mut buf = [(0.0, 0.0); TABLE_CAPACITY];
        buf[..points.len()].copy_from_slice(points);
        let pts = &mut buf[..points.len()];
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finiteness validated above"));
        let mut last_slope = f64::NEG_INFINITY;
        for w in pts.windows(2) {
            let ((s0, p0), (s1, p1)) = (w[0], w[1]);
            if s1 <= s0 {
                return Err(PowerError::InvalidCoefficient {
                    name: "table speeds",
                    value: s1,
                });
            }
            if p1 < p0 {
                return Err(PowerError::InvalidCoefficient {
                    name: "table powers",
                    value: p1,
                });
            }
            let slope = (p1 - p0) / (s1 - s0);
            if slope < last_slope - 1e-9 {
                return Err(PowerError::InvalidCoefficient {
                    name: "table convexity",
                    value: slope,
                });
            }
            last_slope = slope;
        }
        Ok(PowerFunction {
            kind: Kind::Table {
                points: buf,
                len: points.len(),
            },
        })
    }

    /// Builds a measured-style table from CMOS **operating points**
    /// `(V_dd, normalised speed)` — the voltage/frequency ladder of a data
    /// sheet: each point contributes `P = C_ef·V_dd²·s + P_ind`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidCoefficient`] for invalid `cef`/`pind`, for
    /// non-finite/non-positive voltages, or when the resulting table
    /// violates the monotone-convex requirements of
    /// [`PowerFunction::table`] (a physically sensible ladder — voltage
    /// non-decreasing in speed — always satisfies them).
    ///
    /// # Examples
    ///
    /// ```
    /// use dvs_power::PowerFunction;
    ///
    /// # fn main() -> Result<(), dvs_power::PowerError> {
    /// // An XScale-style ladder: (V_dd, speed), speeds normalised to 1.
    /// let p = PowerFunction::from_operating_points(
    ///     &[(0.75, 0.15), (1.0, 0.4), (1.3, 0.6), (1.6, 0.8), (1.8, 1.0)],
    ///     0.5,
    ///     0.05,
    /// )?;
    /// assert!((p.power(1.0) - (0.5 * 1.8 * 1.8 + 0.05)).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_operating_points(
        points: &[(f64, f64)],
        cef: f64,
        pind: f64,
    ) -> Result<Self, PowerError> {
        if !cef.is_finite() || cef <= 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "C_ef",
                value: cef,
            });
        }
        if !pind.is_finite() || pind < 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "P_ind",
                value: pind,
            });
        }
        if points.iter().any(|&(v, _)| !v.is_finite() || v <= 0.0) {
            return Err(PowerError::InvalidCoefficient {
                name: "V_dd",
                value: f64::NAN,
            });
        }
        let table: Vec<(f64, f64)> = points
            .iter()
            .map(|&(v, s)| (s, cef * v * v * s + pind))
            .collect();
        Self::table(&table)
    }

    /// Power drawn at speed `s` (non-negative; `s = 0` yields the
    /// speed-independent part).
    #[must_use]
    pub fn power(&self, s: f64) -> f64 {
        debug_assert!(s >= 0.0, "speed must be non-negative");
        match self.kind {
            Kind::Polynomial {
                beta1,
                beta2,
                alpha,
                ..
            } => beta1 + beta2 * s.powf(alpha),
            Kind::Cmos {
                cef,
                vt,
                kappa,
                pind,
            } => {
                if s == 0.0 {
                    pind
                } else {
                    let vdd = Self::voltage_for_speed(s, vt, kappa);
                    pind + cef * vdd * vdd * s
                }
            }
            Kind::Table { points, len } => {
                let pts = &points[..len];
                // Find the segment containing s; extrapolate at the edges.
                let seg = pts
                    .windows(2)
                    .find(|w| s <= w[1].0)
                    .unwrap_or(&pts[len - 2..len]);
                let ((s0, p0), (s1, p1)) = (seg[0], seg[1]);
                let t = (s - s0) / (s1 - s0);
                (p0 + t * (p1 - p0)).max(0.0)
            }
        }
    }

    /// Speed-independent part `P_ind = P(0)` (leakage floor).
    #[must_use]
    pub fn idle_power(&self) -> f64 {
        self.power(0.0)
    }

    /// Energy consumed per cycle at speed `s`: `P(s)/s`.
    ///
    /// Returns `f64::INFINITY` at `s = 0` when `P(0) > 0`, and `0` when both
    /// are zero (the `β₁ = 0` limit).
    #[must_use]
    pub fn energy_per_cycle(&self, s: f64) -> f64 {
        if s <= 0.0 {
            return if self.idle_power() > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.power(s) / s
    }

    /// The **critical speed** `s* = argmin_{s ∈ (0, s_max]} P(s)/s`.
    ///
    /// Executing a cycle below `s*` costs more energy than executing it at
    /// `s*` and sleeping, so leakage-aware schedulers never run slower.
    ///
    /// For `P(s) = β₁ + β₂·s^α` the minimiser is the closed form
    /// `s* = (β₁ / ((α−1)·β₂))^(1/α)`; other models use golden-section
    /// search (valid because `P(s)/s` is unimodal for convex increasing `P`).
    /// The result is capped at `s_max`.
    #[must_use]
    pub fn critical_speed(&self, s_max: f64) -> f64 {
        match self.kind {
            // Replays the precomputed closed-form bits; `min` with a
            // positive `s_max` maps 0.0 to 0.0, so the `β₁ = 0` special
            // case folds into the same expression.
            Kind::Polynomial { crit_raw, .. } => crit_raw.min(s_max),
            Kind::Cmos { .. } | Kind::Table { .. } => {
                golden_section_min(|s| self.energy_per_cycle(s), 1e-12, s_max)
            }
        }
    }

    /// The minimiser of the *uplifted* energy per cycle `(P(s) + λ)/s`
    /// over `(0, s_max]`, for `λ ≥ 0`.
    ///
    /// This is the KKT stationary point of per-task speed assignment under
    /// a shared time budget (the Lagrange multiplier `λ` prices processor
    /// time); `λ = 0` recovers [`PowerFunction::critical_speed`]. Used by
    /// the heterogeneous-power scheduling extension.
    ///
    /// # Panics
    ///
    /// Panics if `λ` is negative or not finite (debug assertion).
    #[must_use]
    pub fn critical_speed_with_uplift(&self, lambda: f64, s_max: f64) -> f64 {
        debug_assert!(lambda.is_finite() && lambda >= 0.0);
        match self.kind {
            Kind::Polynomial {
                beta1,
                beta2,
                alpha,
                ..
            } => {
                let numer = beta1 + lambda;
                if numer == 0.0 {
                    return 0.0;
                }
                (numer / ((alpha - 1.0) * beta2))
                    .powf(1.0 / alpha)
                    .min(s_max)
            }
            Kind::Cmos { .. } | Kind::Table { .. } => {
                golden_section_min(|s| (self.power(s) + lambda) / s.max(1e-300), 1e-12, s_max)
            }
        }
    }

    /// The smallest speed `s ∈ [lo, hi]` at which the marginal power
    /// `P′(s)` (right derivative) reaches `λ`, or `hi` if it never does —
    /// the inverse of `P′`, clamped.
    ///
    /// * Polynomial: the closed form `(λ/(α·β₂))^{1/(α−1)}`, clamped.
    /// * Table: the first table speed from which the segment slope is at
    ///   least `λ` (`P` is linear between them).
    /// * CMOS: `P′(s) = C_ef·V²·(3V − V_t)/(V + V_t)` with `V = V(s)`,
    ///   bisected on its sign against `λ` until the midpoint stops moving.
    pub(crate) fn speed_at_slope(&self, lambda: f64, lo: f64, hi: f64) -> f64 {
        match self.kind {
            Kind::Polynomial { beta2, alpha, .. } => (lambda / (alpha * beta2))
                .powf(1.0 / (alpha - 1.0))
                .max(lo)
                .min(hi),
            Kind::Cmos { cef, vt, kappa, .. } => {
                let slope = |s: f64| {
                    let v = Self::voltage_for_speed(s, vt, kappa);
                    cef * v * v * (3.0 * v - vt) / (v + vt)
                };
                if slope(lo) >= lambda {
                    return lo;
                }
                if slope(hi) < lambda {
                    return hi;
                }
                // Invariant: slope(a) < λ ≤ slope(b).
                let (mut a, mut b) = (lo, hi);
                loop {
                    let mid = 0.5 * (a + b);
                    if mid <= a || mid >= b {
                        return b;
                    }
                    if slope(mid) >= lambda {
                        b = mid;
                    } else {
                        a = mid;
                    }
                }
            }
            Kind::Table { points, len } => {
                let pts = &points[..len];
                // Segment `i` joins points `i` and `i + 1`; the boundary
                // segments extend past the table.
                let mut s = lo;
                for (i, w) in pts.windows(2).enumerate() {
                    let ((s0, p0), (s1, p1)) = (w[0], w[1]);
                    if s >= s1 && i + 2 < len {
                        continue;
                    }
                    if (p1 - p0) / (s1 - s0) >= lambda {
                        return s;
                    }
                    if s1 >= hi || i + 2 == len {
                        break;
                    }
                    s = s1;
                }
                hi
            }
        }
    }

    /// Scales the whole function by `rho ≥ 0` — used for per-task power
    /// characteristics `ρᵢ·P(s)` in the heterogeneous model.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidCoefficient`] if `rho` is not finite and positive.
    pub fn scaled(&self, rho: f64) -> Result<Self, PowerError> {
        if !rho.is_finite() || rho <= 0.0 {
            return Err(PowerError::InvalidCoefficient {
                name: "ρ",
                value: rho,
            });
        }
        Ok(match self.kind {
            Kind::Polynomial {
                beta1,
                beta2,
                alpha,
                ..
            } => PowerFunction {
                kind: Kind::polynomial(beta1 * rho, beta2 * rho, alpha),
            },
            Kind::Cmos {
                cef,
                vt,
                kappa,
                pind,
            } => PowerFunction {
                kind: Kind::Cmos {
                    cef: cef * rho,
                    vt,
                    kappa,
                    pind: pind * rho,
                },
            },
            Kind::Table { mut points, len } => {
                for p in points.iter_mut().take(len) {
                    p.1 *= rho;
                }
                PowerFunction {
                    kind: Kind::Table { points, len },
                }
            }
        })
    }

    /// Appends this function's spec tokens to `out` (space-separated,
    /// floats as `to_bits` hex) — the power-function slice of
    /// [`crate::Processor::encode_spec`].
    pub(crate) fn encode_spec_tokens(&self, out: &mut Vec<String>) {
        match self.kind {
            Kind::Polynomial {
                beta1,
                beta2,
                alpha,
                ..
            } => {
                out.push("poly".to_string());
                for v in [beta1, beta2, alpha] {
                    out.push(bits_token(v));
                }
            }
            Kind::Cmos {
                cef,
                vt,
                kappa,
                pind,
            } => {
                out.push("cmos".to_string());
                for v in [cef, vt, kappa, pind] {
                    out.push(bits_token(v));
                }
            }
            Kind::Table { points, len } => {
                out.push("tbl".to_string());
                out.push(len.to_string());
                for &(s, p) in &points[..len] {
                    out.push(bits_token(s));
                    out.push(bits_token(p));
                }
            }
        }
    }

    /// Decodes the power-function tokens written by
    /// [`PowerFunction::encode_spec_tokens`], re-validating through the
    /// public constructors (so the polynomial critical-speed constant is
    /// recomputed bit-identically from the decoded coefficient bits).
    pub(crate) fn decode_spec_tokens<'a, I>(tokens: &mut I) -> Result<Self, PowerError>
    where
        I: Iterator<Item = &'a str>,
    {
        let tag = next_token(tokens, "power function tag")?;
        match tag {
            "poly" => {
                let b1 = bits_value(tokens, "β₁ bits")?;
                let b2 = bits_value(tokens, "β₂ bits")?;
                let a = bits_value(tokens, "α bits")?;
                Self::polynomial(b1, b2, a)
            }
            "cmos" => {
                let cef = bits_value(tokens, "C_ef bits")?;
                let vt = bits_value(tokens, "V_t bits")?;
                let kappa = bits_value(tokens, "κ bits")?;
                let pind = bits_value(tokens, "P_ind bits")?;
                Self::cmos(cef, vt, kappa, pind)
            }
            "tbl" => {
                let len: usize = next_token(tokens, "table length")?
                    .parse()
                    .map_err(|_| spec_err("unparseable table length"))?;
                if len > TABLE_CAPACITY {
                    return Err(spec_err("table length exceeds capacity"));
                }
                let mut points = Vec::with_capacity(len);
                for _ in 0..len {
                    let s = bits_value(tokens, "table speed bits")?;
                    let p = bits_value(tokens, "table power bits")?;
                    points.push((s, p));
                }
                Self::table(&points)
            }
            other => Err(spec_err(&format!("unknown power function tag {other:?}"))),
        }
    }

    /// Inverts `s = κ (V − V_t)² / V` for `V ≥ V_t` (the physically
    /// meaningful branch).
    fn voltage_for_speed(s: f64, vt: f64, kappa: f64) -> f64 {
        // κV² − (2κV_t + s)V + κV_t² = 0, take the larger root.
        let b = 2.0 * kappa * vt + s;
        let disc = (b * b - 4.0 * kappa * kappa * vt * vt).max(0.0);
        (b + disc.sqrt()) / (2.0 * kappa)
    }
}

impl fmt::Display for PowerFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Kind::Polynomial {
                beta1,
                beta2,
                alpha,
                ..
            } => {
                write!(f, "P(s) = {beta1} + {beta2}·s^{alpha}")
            }
            Kind::Cmos {
                cef,
                vt,
                kappa,
                pind,
            } => write!(
                f,
                "P(s) = {pind} + {cef}·V(s)²·s, V from s = {kappa}(V−{vt})²/V"
            ),
            Kind::Table { points, len } => {
                write!(f, "P(s) = table[")?;
                for (i, (s, p)) in points[..len].iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "({s}, {p})")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Renders a float for a spec string: its IEEE-754 bits as fixed-width
/// hex, so decode reproduces the exact value.
pub(crate) fn bits_token(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

pub(crate) fn spec_err(reason: &str) -> PowerError {
    PowerError::InvalidSpec {
        reason: reason.to_string(),
    }
}

pub(crate) fn next_token<'a, I>(tokens: &mut I, what: &str) -> Result<&'a str, PowerError>
where
    I: Iterator<Item = &'a str>,
{
    tokens
        .next()
        .ok_or_else(|| spec_err(&format!("missing {what}")))
}

/// Parses one bits-hex token back to the float it encodes.
pub(crate) fn bits_value<'a, I>(tokens: &mut I, what: &str) -> Result<f64, PowerError>
where
    I: Iterator<Item = &'a str>,
{
    let tok = next_token(tokens, what)?;
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| spec_err(&format!("unparseable {what}")))
}

/// Golden-section search for the minimiser of a unimodal function on `[lo, hi]`.
fn golden_section_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - PHI * (b - a);
    let mut d = a + PHI * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..GOLDEN_ITERS {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + PHI * (b - a);
            fd = f(d);
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_validation() {
        assert!(PowerFunction::polynomial(-0.1, 1.0, 3.0).is_err());
        assert!(PowerFunction::polynomial(0.0, 0.0, 3.0).is_err());
        assert!(PowerFunction::polynomial(0.0, 1.0, 1.0).is_err());
        assert!(PowerFunction::polynomial(0.0, 1.0, f64::NAN).is_err());
        assert!(PowerFunction::polynomial(0.08, 1.52, 3.0).is_ok());
    }

    #[test]
    fn cubic_power_values() {
        let p = PowerFunction::polynomial(0.0, 2.0, 3.0).unwrap();
        assert!((p.power(1.0) - 2.0).abs() < 1e-12);
        assert!((p.power(0.5) - 0.25).abs() < 1e-12);
        assert_eq!(p.idle_power(), 0.0);
    }

    #[test]
    fn xscale_critical_speed_closed_form() {
        let p = PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap();
        let expect = (0.08f64 / (2.0 * 1.52)).powf(1.0 / 3.0);
        assert!((p.critical_speed(1.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn precomputed_critical_speed_replays_exact_bits() {
        // The stored constant must hold exactly the bits of the closed-form
        // expression, including after scaling (which rebuilds the constant
        // from the scaled coefficients).
        for (b1, b2, a) in [(0.08, 1.52, 3.0), (0.2, 1.0, 2.5), (3.0, 0.7, 2.0)] {
            let p = PowerFunction::polynomial(b1, b2, a).unwrap();
            let naive = (b1 / ((a - 1.0) * b2)).powf(1.0 / a);
            for s_max in [0.5, 1.0, 4.0] {
                assert_eq!(
                    p.critical_speed(s_max).to_bits(),
                    naive.min(s_max).to_bits()
                );
            }
            let q = p.scaled(2.5).unwrap();
            let naive_scaled = ((b1 * 2.5) / ((a - 1.0) * (b2 * 2.5))).powf(1.0 / a);
            assert_eq!(
                q.critical_speed(1.0).to_bits(),
                naive_scaled.min(1.0).to_bits()
            );
        }
    }

    #[test]
    fn critical_speed_capped_at_smax() {
        // Huge leakage pushes s* above s_max; it must be capped.
        let p = PowerFunction::polynomial(100.0, 1.0, 3.0).unwrap();
        assert_eq!(p.critical_speed(1.0), 1.0);
    }

    #[test]
    fn critical_speed_zero_without_leakage() {
        let p = PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap();
        assert_eq!(p.critical_speed(1.0), 0.0);
    }

    #[test]
    fn critical_speed_is_argmin_of_energy_per_cycle() {
        let p = PowerFunction::polynomial(0.2, 1.0, 2.5).unwrap();
        let s = p.critical_speed(1.0);
        let e = p.energy_per_cycle(s);
        for k in 1..100 {
            let other = k as f64 / 100.0;
            assert!(e <= p.energy_per_cycle(other) + 1e-9, "beaten at {other}");
        }
    }

    #[test]
    fn energy_per_cycle_edge_cases() {
        let leaky = PowerFunction::polynomial(0.1, 1.0, 3.0).unwrap();
        assert_eq!(leaky.energy_per_cycle(0.0), f64::INFINITY);
        let pure = PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap();
        assert_eq!(pure.energy_per_cycle(0.0), 0.0);
    }

    #[test]
    fn cmos_speed_voltage_roundtrip() {
        // With κ = 1, V_t = 0.4: s(V) = (V − 0.4)²/V.
        let vt = 0.4;
        let v = 1.2;
        let s = (v - vt) * (v - vt) / v;
        let v_back = PowerFunction::voltage_for_speed(s, vt, 1.0);
        assert!((v - v_back).abs() < 1e-9);
    }

    #[test]
    fn cmos_power_is_increasing_and_convexish() {
        let p = PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap();
        let mut last = p.power(0.0);
        for k in 1..=40 {
            let s = k as f64 / 40.0;
            let now = p.power(s);
            assert!(now >= last, "power not increasing at s={s}");
            last = now;
        }
    }

    #[test]
    fn cmos_critical_speed_is_minimizer() {
        let p = PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap();
        let s = p.critical_speed(1.0);
        assert!(s > 0.0 && s < 1.0);
        let e = p.energy_per_cycle(s);
        for k in 1..200 {
            let other = k as f64 / 200.0;
            assert!(e <= p.energy_per_cycle(other) + 1e-9);
        }
    }

    #[test]
    fn scaling_multiplies_power() {
        let p = PowerFunction::polynomial(0.1, 1.0, 3.0).unwrap();
        let q = p.scaled(2.5).unwrap();
        assert!((q.power(0.7) - 2.5 * p.power(0.7)).abs() < 1e-12);
        assert!(p.scaled(0.0).is_err());
        assert!(p.scaled(f64::NAN).is_err());
    }

    #[test]
    fn scaling_preserves_critical_speed() {
        // s* depends on β₁/β₂ only, so uniform scaling keeps it.
        let p = PowerFunction::polynomial(0.1, 1.0, 3.0).unwrap();
        let q = p.scaled(7.0).unwrap();
        assert!((p.critical_speed(1.0) - q.critical_speed(1.0)).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_coefficients() {
        let p = PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap();
        assert_eq!(p.to_string(), "P(s) = 0.08 + 1.52·s^3");
    }

    fn measured() -> PowerFunction {
        PowerFunction::table(&[
            (0.15, 0.08),
            (0.4, 0.17),
            (0.6, 0.4),
            (0.8, 0.9),
            (1.0, 1.6),
        ])
        .unwrap()
    }

    #[test]
    fn table_validation() {
        assert!(PowerFunction::table(&[(0.5, 1.0)]).is_err()); // too short
        assert!(PowerFunction::table(&[(0.5, 1.0), (0.5, 2.0)]).is_err()); // dup speed
        assert!(PowerFunction::table(&[(0.2, 2.0), (0.5, 1.0)]).is_err()); // decreasing power
                                                                           // Concave (decreasing slopes) rejected: slopes 10 then 2.
        assert!(PowerFunction::table(&[(0.0, 0.0), (0.1, 1.0), (0.6, 2.0)]).is_err());
        assert!(PowerFunction::table(&[(0.1, f64::NAN), (0.5, 1.0)]).is_err());
        assert!(measured().power(0.0) >= 0.0);
    }

    #[test]
    fn table_interpolates_and_extrapolates() {
        let p = measured();
        // Exact at the points.
        assert!((p.power(0.4) - 0.17).abs() < 1e-12);
        assert!((p.power(1.0) - 1.6).abs() < 1e-12);
        // Midpoint of (0.6, 0.4)–(0.8, 0.9).
        assert!((p.power(0.7) - 0.65).abs() < 1e-12);
        // Extrapolation below the first point follows the first segment
        // (clamped at zero).
        assert!(p.power(0.0) >= 0.0);
        assert!(p.power(0.05) <= 0.08);
    }

    #[test]
    fn table_is_increasing_and_convex() {
        let p = measured();
        let mut last = p.power(0.15);
        for k in 16..=100 {
            let s = k as f64 / 100.0;
            let now = p.power(s);
            assert!(now >= last - 1e-12, "not increasing at {s}");
            last = now;
        }
        for k in 20..95 {
            let s = k as f64 / 100.0;
            let mid = p.power(s);
            let chord = 0.5 * (p.power(s - 0.03) + p.power(s + 0.03));
            assert!(mid <= chord + 1e-9, "not convex at {s}");
        }
    }

    #[test]
    fn table_critical_speed_is_minimizer() {
        let p = measured();
        let s_star = p.critical_speed(1.0);
        let e = p.energy_per_cycle(s_star.max(1e-6));
        for k in 2..=100 {
            let s = k as f64 / 100.0;
            assert!(e <= p.energy_per_cycle(s) + 1e-6, "beaten at {s}");
        }
    }

    #[test]
    fn table_scaling() {
        let p = measured();
        let q = p.scaled(2.0).unwrap();
        assert!((q.power(0.7) - 2.0 * p.power(0.7)).abs() < 1e-12);
    }

    #[test]
    fn operating_points_build_a_valid_ladder() {
        let ladder = [(0.75, 0.15), (1.0, 0.4), (1.3, 0.6), (1.6, 0.8), (1.8, 1.0)];
        let p = PowerFunction::from_operating_points(&ladder, 0.5, 0.05).unwrap();
        // Exact at each point.
        for &(v, s) in &ladder {
            assert!(
                (p.power(s) - (0.5 * v * v * s + 0.05)).abs() < 1e-12,
                "at s = {s}"
            );
        }
        // Convex in between (checked at construction, spot-check here).
        let mid = p.power(0.7);
        let chord = 0.5 * (p.power(0.6) + p.power(0.8));
        assert!(mid <= chord + 1e-12);
        // Critical speed exists and minimises energy per cycle.
        let s_star = p.critical_speed(1.0);
        assert!(s_star > 0.0);
    }

    #[test]
    fn operating_points_validation() {
        let ladder = [(1.0, 0.5), (1.5, 1.0)];
        assert!(PowerFunction::from_operating_points(&ladder, 0.0, 0.0).is_err());
        assert!(PowerFunction::from_operating_points(&ladder, 1.0, -0.1).is_err());
        assert!(PowerFunction::from_operating_points(&[(0.0, 0.5), (1.0, 1.0)], 1.0, 0.0).is_err());
        // A physically nonsensical ladder (voltage dropping with speed)
        // produces a concave table and is rejected.
        assert!(PowerFunction::from_operating_points(
            &[(2.0, 0.2), (1.0, 0.6), (0.9, 1.0)],
            1.0,
            0.0
        )
        .is_err());
    }

    #[test]
    fn table_tracks_polynomial_fit() {
        // The measured table and its 0.08 + 1.52·s³ fit agree within ~25%
        // over the fitted range (sanity for the presets' story).
        let table = measured();
        let poly = PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap();
        for k in 15..=100 {
            let s = k as f64 / 100.0;
            let ratio = table.power(s) / poly.power(s);
            assert!((0.7..=1.35).contains(&ratio), "ratio {ratio} at s = {s}");
        }
    }
}
