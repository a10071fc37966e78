//! The dynamic power model.
//!
//! Paper §II-B: "The dynamic power is a (convex) function of the core's
//! speed … we adopt a well-established model `P_dynamic = a·s^β` where
//! `a > 0` is a scaling factor and `β > 1` an exponent parameter." Static
//! power is a constant offset common to every algorithm and is omitted
//! (§IV-B), exactly as in the paper.

/// A convex speed→power model for one core.
pub trait PowerModel: Send + Sync {
    /// Dynamic power (watts) at `speed` (GHz). Must be convex and
    /// increasing with `power(0) = 0`.
    fn power(&self, speed_ghz: f64) -> f64;

    /// Inverse: the speed (GHz) sustainable at `power` watts.
    fn speed_for_power(&self, power_w: f64) -> f64;

    /// Energy (joules) of running at constant `speed` for `secs`.
    ///
    /// The execution engine meters `power(speed) * secs` on a per-segment
    /// cached `power(speed)`, which is this default bit for bit; an
    /// override would change only direct callers, not metered energy.
    fn energy(&self, speed_ghz: f64, secs: f64) -> f64 {
        self.power(speed_ghz) * secs
    }
}

/// The paper's polynomial model `P = a·s^β`.
#[derive(Debug, Clone, Copy)]
pub struct PolynomialPower {
    a: f64,
    beta: f64,
}

impl PolynomialPower {
    /// Creates `P = a·s^β`.
    ///
    /// # Panics
    /// Panics unless `a > 0` and `β > 1` (convexity), both finite.
    pub fn new(a: f64, beta: f64) -> Self {
        assert!(a.is_finite() && a > 0.0, "scale must be positive, got {a}");
        assert!(
            beta.is_finite() && beta > 1.0,
            "exponent must exceed 1 for convexity, got {beta}"
        );
        PolynomialPower { a, beta }
    }

    /// The paper's §IV-B constants: `a = 5`, `β = 2`.
    pub fn paper_default() -> Self {
        Self::new(5.0, 2.0)
    }

    /// The scaling factor `a`.
    pub fn scale(&self) -> f64 {
        self.a
    }

    /// The exponent `β`.
    pub fn exponent(&self) -> f64 {
        self.beta
    }
}

impl PowerModel for PolynomialPower {
    fn power(&self, speed_ghz: f64) -> f64 {
        debug_assert!(speed_ghz >= 0.0, "negative speed {speed_ghz}");
        self.a * speed_ghz.max(0.0).powf(self.beta)
    }

    fn speed_for_power(&self, power_w: f64) -> f64 {
        debug_assert!(power_w >= 0.0, "negative power {power_w}");
        (power_w.max(0.0) / self.a).powf(1.0 / self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = PolynomialPower::paper_default();
        // 2 GHz at a=5, β=2 → 20 W per core; 16 cores → the 320 W budget.
        assert!((m.power(2.0) - 20.0).abs() < 1e-12);
        assert!((m.power(2.0) * 16.0 - 320.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_round_trip() {
        let m = PolynomialPower::paper_default();
        for s in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let p = m.power(s);
            assert!((m.speed_for_power(p) - s).abs() < 1e-9, "at {s} GHz");
        }
    }

    #[test]
    fn zero_speed_zero_power() {
        let m = PolynomialPower::new(3.0, 2.5);
        assert_eq!(m.power(0.0), 0.0);
        assert_eq!(m.speed_for_power(0.0), 0.0);
    }

    #[test]
    fn convexity_on_grid() {
        let m = PolynomialPower::paper_default();
        for i in 0..50 {
            let s = 0.2 * i as f64;
            let mid = m.power(s + 0.1);
            let avg = 0.5 * (m.power(s) + m.power(s + 0.2));
            assert!(mid <= avg + 1e-12, "not convex at {s}");
        }
    }

    #[test]
    fn running_average_speed_beats_split_speeds() {
        // The thrashing argument (§III-D): for the same volume, constant
        // average speed consumes less than alternating high/low.
        let m = PolynomialPower::paper_default();
        let avg = m.energy(2.0, 2.0); // 2 GHz for 2 s
        let split = m.energy(3.0, 1.0) + m.energy(1.0, 1.0); // same volume
        assert!(avg < split);
    }

    #[test]
    fn energy_scales_linearly_with_time() {
        let m = PolynomialPower::paper_default();
        assert!((m.energy(2.0, 3.0) - 3.0 * m.power(2.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn non_convex_exponent_panics() {
        let _ = PolynomialPower::new(5.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_scale_panics() {
        let _ = PolynomialPower::new(0.0, 2.0);
    }

    #[test]
    fn non_integer_beta() {
        let m = PolynomialPower::new(2.0, 2.7);
        let p = m.power(1.7);
        assert!((m.speed_for_power(p) - 1.7).abs() < 1e-9);
    }
}
