//! Performance specifications and evaluated amplifier performances.
//!
//! Both benchmark circuits are specified on the same set of figures of merit
//! (DC gain, GBW, phase margin, output swing, power, and for example 2 also
//! area and input offset), plus the blanket requirement that every transistor
//! operates in saturation.

/// The figures of merit produced by one circuit evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplifierPerformance {
    /// Low-frequency differential gain (dB).
    pub a0_db: f64,
    /// Gain–bandwidth product / unity-gain frequency (Hz).
    pub gbw_hz: f64,
    /// Phase margin (degrees).
    pub pm_deg: f64,
    /// Differential peak-to-peak output swing (V).
    pub output_swing_v: f64,
    /// Total power consumption (W).
    pub power_w: f64,
    /// Active (gate) area (µm²).
    pub area_um2: f64,
    /// Input-referred offset magnitude (V).
    pub offset_v: f64,
    /// `true` when every transistor is in saturation with adequate headroom.
    pub all_saturated: bool,
}

impl AmplifierPerformance {
    /// A performance record representing a completely failed evaluation
    /// (used when the bias solver cannot find a valid operating point).
    pub fn failed() -> Self {
        Self {
            a0_db: 0.0,
            gbw_hz: 0.0,
            pm_deg: 0.0,
            output_swing_v: 0.0,
            power_w: f64::INFINITY,
            area_um2: f64::INFINITY,
            offset_v: f64::INFINITY,
            all_saturated: false,
        }
    }
}

/// Direction of a specification bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// The performance must be at least the bound (e.g. gain, GBW).
    AtLeast,
    /// The performance must be at most the bound (e.g. power, area, offset).
    AtMost,
}

/// Which performance a specification applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecTarget {
    /// DC gain in dB.
    GainDb,
    /// Gain–bandwidth product in Hz.
    GbwHz,
    /// Phase margin in degrees.
    PhaseMarginDeg,
    /// Differential output swing in volts.
    OutputSwingV,
    /// Power in watts.
    PowerW,
    /// Active area in µm².
    AreaUm2,
    /// Input offset in volts.
    OffsetV,
}

impl SpecTarget {
    /// Whether the value comes out of the AC sweep (A0, GBW, PM) rather than
    /// the analytic figures computed before it.
    pub fn from_sweep(self) -> bool {
        matches!(
            self,
            SpecTarget::GainDb | SpecTarget::GbwHz | SpecTarget::PhaseMarginDeg
        )
    }
}

/// One performance specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Specification {
    /// Human-readable name (e.g. `"A0"`).
    pub name: String,
    /// The performance the spec constrains.
    pub target: SpecTarget,
    /// Bound direction.
    pub kind: SpecKind,
    /// The bound value, in the units of the target.
    pub bound: f64,
    /// Normalisation scale used when computing margins (same units).
    pub scale: f64,
}

impl Specification {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn new(
        name: impl Into<String>,
        target: SpecTarget,
        kind: SpecKind,
        bound: f64,
        scale: f64,
    ) -> Self {
        assert!(scale > 0.0, "specification scale must be positive");
        Self {
            name: name.into(),
            target,
            kind,
            bound,
            scale,
        }
    }

    /// Extracts the constrained performance value.
    pub fn value_of(&self, perf: &AmplifierPerformance) -> f64 {
        match self.target {
            SpecTarget::GainDb => perf.a0_db,
            SpecTarget::GbwHz => perf.gbw_hz,
            SpecTarget::PhaseMarginDeg => perf.pm_deg,
            SpecTarget::OutputSwingV => perf.output_swing_v,
            SpecTarget::PowerW => perf.power_w,
            SpecTarget::AreaUm2 => perf.area_um2,
            SpecTarget::OffsetV => perf.offset_v,
        }
    }

    /// Normalised margin: positive when the spec is met, negative otherwise.
    pub fn margin(&self, perf: &AmplifierPerformance) -> f64 {
        let v = self.value_of(perf);
        let raw = match self.kind {
            SpecKind::AtLeast => v - self.bound,
            SpecKind::AtMost => self.bound - v,
        };
        if raw.is_nan() {
            f64::NEG_INFINITY
        } else {
            raw / self.scale
        }
    }

    /// Returns `true` when the spec is met.
    pub fn is_met(&self, perf: &AmplifierPerformance) -> bool {
        self.margin(perf) >= 0.0
    }
}

/// A complete set of specifications for one circuit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecSet {
    /// The specifications.
    pub specs: Vec<Specification>,
    /// Whether the "all transistors saturated" requirement applies.
    pub require_saturation: bool,
}

impl SpecSet {
    /// Creates a spec set from a list of specifications with the saturation
    /// requirement enabled.
    pub fn new(specs: Vec<Specification>) -> Self {
        Self {
            specs,
            require_saturation: true,
        }
    }

    /// Number of specifications (excluding the saturation requirement).
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` when the set contains no specifications.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Normalised margins of every specification; the saturation requirement,
    /// if enabled, contributes a final entry of ±1.
    pub fn margins(&self, perf: &AmplifierPerformance) -> Vec<f64> {
        let mut m: Vec<f64> = self.specs.iter().map(|s| s.margin(perf)).collect();
        if self.require_saturation {
            m.push(if perf.all_saturated { 1.0 } else { -1.0 });
        }
        m
    }

    /// Returns `true` when every specification (and saturation, if required)
    /// is met: the verdict of [`Self::margins`], without building them.
    pub fn all_met(&self, perf: &AmplifierPerformance) -> bool {
        (!self.require_saturation || perf.all_saturated)
            && self.specs.iter().all(|s| s.is_met(perf))
    }

    /// [`Self::all_met`] restricted to saturation and the specifications
    /// whose target is not [from the sweep](SpecTarget::from_sweep); `perf`'s
    /// A0, GBW and PM are not read. `all_met` implies it.
    pub fn analytic_met(&self, perf: &AmplifierPerformance) -> bool {
        (!self.require_saturation || perf.all_saturated)
            && self
                .specs
                .iter()
                .all(|s| s.target.from_sweep() || s.is_met(perf))
    }

    /// Aggregate constraint violation: the sum of negative margins, negated
    /// (0 when all specs are met). This is the scalar fed to the
    /// selection-based constraint handler.
    pub fn violation(&self, perf: &AmplifierPerformance) -> f64 {
        self.margins(perf)
            .iter()
            .filter(|&&m| m < 0.0)
            .map(|&m| -m)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_perf() -> AmplifierPerformance {
        AmplifierPerformance {
            a0_db: 75.0,
            gbw_hz: 50e6,
            pm_deg: 65.0,
            output_swing_v: 4.8,
            power_w: 0.9e-3,
            area_um2: 150.0,
            offset_v: 0.4e-3,
            all_saturated: true,
        }
    }

    fn gain_spec() -> Specification {
        Specification::new("A0", SpecTarget::GainDb, SpecKind::AtLeast, 70.0, 5.0)
    }

    fn power_spec() -> Specification {
        Specification::new(
            "power",
            SpecTarget::PowerW,
            SpecKind::AtMost,
            1.07e-3,
            0.1e-3,
        )
    }

    #[test]
    fn margins_have_expected_sign() {
        let p = sample_perf();
        assert!(gain_spec().margin(&p) > 0.0);
        assert!(power_spec().margin(&p) > 0.0);
        let mut bad = p;
        bad.a0_db = 65.0;
        assert!(gain_spec().margin(&bad) < 0.0);
        assert!(!gain_spec().is_met(&bad));
        let mut hot = p;
        hot.power_w = 2e-3;
        assert!(power_spec().margin(&hot) < 0.0);
    }

    #[test]
    fn margin_is_normalised_by_scale() {
        let p = sample_perf();
        let s = gain_spec();
        assert!((s.margin(&p) - 1.0).abs() < 1e-12); // (75 - 70) / 5
    }

    #[test]
    fn nan_performance_gives_negative_margin() {
        let mut p = sample_perf();
        p.gbw_hz = f64::NAN;
        let s = Specification::new("GBW", SpecTarget::GbwHz, SpecKind::AtLeast, 40e6, 10e6);
        assert!(s.margin(&p) < 0.0);
    }

    #[test]
    fn spec_set_margins_and_violation() {
        let set = SpecSet::new(vec![gain_spec(), power_spec()]);
        let p = sample_perf();
        assert!(set.all_met(&p));
        assert_eq!(set.violation(&p), 0.0);
        assert_eq!(set.margins(&p).len(), 3); // 2 specs + saturation
        let mut bad = p;
        bad.a0_db = 60.0;
        bad.all_saturated = false;
        assert!(!set.all_met(&bad));
        assert!(set.violation(&bad) > 0.0);
    }

    #[test]
    fn all_met_is_the_verdict_of_the_margins() {
        let nan_field = |mut p: AmplifierPerformance, k: usize| {
            match k {
                0 => p.a0_db = f64::NAN,
                1 => p.gbw_hz = f64::NAN,
                2 => p.power_w = f64::NAN,
                _ => {}
            }
            p
        };
        let gbw = Specification::new("GBW", SpecTarget::GbwHz, SpecKind::AtLeast, 40e6, 10e6);
        let specs = [gain_spec(), power_spec(), gbw];
        // A bound met exactly gives a zero margin, which counts as met.
        let mut edge = sample_perf();
        edge.a0_db = 70.0;
        let mut perfs = vec![AmplifierPerformance::failed(), edge];
        for base in [sample_perf(), edge] {
            for k in 0..4 {
                for saturated in [true, false] {
                    let mut p = nan_field(base, k);
                    p.all_saturated = saturated;
                    perfs.push(p);
                    let mut low = p;
                    low.a0_db -= 10.0;
                    perfs.push(low);
                }
            }
        }
        for require_saturation in [true, false] {
            for n_specs in 0..=specs.len() {
                let set = SpecSet {
                    specs: specs[..n_specs].to_vec(),
                    require_saturation,
                };
                for (i, p) in perfs.iter().enumerate() {
                    let want = set.margins(p).iter().all(|&m| m >= 0.0);
                    assert_eq!(
                        set.all_met(p),
                        want,
                        "perf {i}, {n_specs} specs, saturation required: {require_saturation}"
                    );
                    // The analytic verdict is implied, and ignores the AC
                    // figures.
                    assert!(!want || set.analytic_met(p), "perf {i}");
                    let mut no_ac = *p;
                    (no_ac.a0_db, no_ac.gbw_hz, no_ac.pm_deg) = (f64::NAN, -1.0, -1.0);
                    assert_eq!(set.analytic_met(&no_ac), set.analytic_met(p), "perf {i}");
                }
            }
        }
    }

    #[test]
    fn failed_performance_fails_everything() {
        let set = SpecSet::new(vec![gain_spec(), power_spec()]);
        let p = AmplifierPerformance::failed();
        assert!(!set.all_met(&p));
        assert!(set.violation(&p) > 0.0);
    }

    #[test]
    fn every_target_is_extractable() {
        let p = sample_perf();
        let targets = [
            (SpecTarget::GainDb, 75.0),
            (SpecTarget::GbwHz, 50e6),
            (SpecTarget::PhaseMarginDeg, 65.0),
            (SpecTarget::OutputSwingV, 4.8),
            (SpecTarget::PowerW, 0.9e-3),
            (SpecTarget::AreaUm2, 150.0),
            (SpecTarget::OffsetV, 0.4e-3),
        ];
        for (t, expected) in targets {
            let s = Specification::new("x", t, SpecKind::AtLeast, 0.0, 1.0);
            assert_eq!(s.value_of(&p), expected);
        }
    }

    #[test]
    #[should_panic]
    fn zero_scale_panics() {
        let _ = Specification::new("bad", SpecTarget::GainDb, SpecKind::AtLeast, 1.0, 0.0);
    }
}
