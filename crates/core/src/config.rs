//! Configuration of the MOHECO algorithm and its baselines.

/// Which yield-estimation strategy a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YieldStrategy {
    /// Every feasible candidate receives the same fixed number of Monte-Carlo
    /// samples (the "AS + LHS with N simulations" baselines of the paper).
    FixedBudget {
        /// Samples per feasible candidate.
        sims_per_candidate: usize,
    },
    /// The two-stage MOHECO scheme: ordinal-optimization budget allocation in
    /// stage 1, maximum-sample estimation for candidates promoted to stage 2.
    TwoStageOo,
}

/// Full configuration of a yield-optimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MohecoConfig {
    /// Population size (paper: 50).
    pub population_size: usize,
    /// DE differential weight `F` (paper: 0.8).
    pub de_f: f64,
    /// DE crossover rate `CR` (paper: 0.8).
    pub de_cr: f64,
    /// Initial samples per feasible candidate in stage 1 (`n0`, paper: 15).
    pub n0: usize,
    /// Average stage-1 budget per feasible candidate (`sim_ave`, paper: 35).
    pub sim_ave: usize,
    /// Increment of the sequential OCBA loop (`Δ`).
    pub delta: usize,
    /// Samples for stage-2 / final yield estimates (`n_max`, paper: 500).
    pub n_max: usize,
    /// Estimated-yield threshold above which a candidate enters stage 2
    /// (paper: 0.97).
    pub stage2_threshold: f64,
    /// Stagnant generations before the Nelder–Mead local search fires
    /// (paper: 5).
    pub memetic_trigger: usize,
    /// Whether the memetic (Nelder–Mead) operator is enabled at all.
    pub memetic_enabled: bool,
    /// Number of Nelder–Mead iterations per local search (paper: ≈10).
    pub nm_iterations: usize,
    /// Yield-estimation strategy.
    pub strategy: YieldStrategy,
    /// Stop when the best stage-2 yield estimate reaches this value
    /// (paper: 1.0, i.e. a reported 100 % yield).
    pub target_yield: f64,
    /// Stop when the best yield has not improved for this many generations
    /// (paper: 20).
    pub stop_stagnation: usize,
    /// Hard cap on the number of generations.
    pub max_generations: usize,
}

impl Default for MohecoConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl MohecoConfig {
    /// The paper's parameter settings (population 50, `n0 = 15`,
    /// `sim_ave = 35`, `n_max = 500`, CR = F = 0.8). The paper's LHS sampling
    /// is the engines' sampling plan (`EngineConfig::plan`).
    pub fn paper() -> Self {
        Self {
            population_size: 50,
            de_f: 0.8,
            de_cr: 0.8,
            n0: 15,
            sim_ave: 35,
            delta: 20,
            n_max: 500,
            stage2_threshold: 0.97,
            memetic_trigger: 5,
            memetic_enabled: true,
            nm_iterations: 10,
            strategy: YieldStrategy::TwoStageOo,
            target_yield: 1.0,
            stop_stagnation: 20,
            max_generations: 100,
        }
    }

    /// A scaled-down configuration that finishes quickly; used by the default
    /// experiment binaries, integration tests and examples. `--paper` in the
    /// experiment binaries switches back to [`MohecoConfig::paper`].
    pub fn fast() -> Self {
        Self {
            population_size: 16,
            n0: 8,
            sim_ave: 20,
            delta: 12,
            n_max: 150,
            stop_stagnation: 8,
            max_generations: 25,
            ..Self::paper()
        }
    }

    /// Converts this configuration into the AS+LHS fixed-budget baseline with
    /// `sims` simulations per feasible candidate and no memetic operator.
    pub fn as_fixed_budget(mut self, sims: usize) -> Self {
        self.strategy = YieldStrategy::FixedBudget {
            sims_per_candidate: sims,
        };
        self.memetic_enabled = false;
        self
    }

    /// Converts this configuration into the OO+AS+LHS variant (two-stage
    /// estimation but no memetic operator).
    pub fn as_oo_without_memetic(mut self) -> Self {
        self.strategy = YieldStrategy::TwoStageOo;
        self.memetic_enabled = false;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of its sensible range.
    pub fn validate(&self) {
        assert!(self.population_size >= 4, "population must be >= 4");
        assert!(self.de_f > 0.0 && self.de_f <= 2.0, "F out of range");
        assert!((0.0..=1.0).contains(&self.de_cr), "CR out of range");
        assert!(self.n0 >= 2, "n0 must be >= 2");
        assert!(self.sim_ave >= self.n0, "sim_ave must be >= n0");
        assert!(self.n_max >= self.sim_ave, "n_max must be >= sim_ave");
        assert!(
            (0.0..=1.0).contains(&self.stage2_threshold),
            "stage-2 threshold out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.target_yield),
            "target yield out of range"
        );
        assert!(self.max_generations >= 1, "need at least one generation");
        if let YieldStrategy::FixedBudget { sims_per_candidate } = self.strategy {
            assert!(sims_per_candidate >= 1, "fixed budget must be >= 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_paper() {
        let c = MohecoConfig::paper();
        assert_eq!(c.population_size, 50);
        assert_eq!(c.n0, 15);
        assert_eq!(c.sim_ave, 35);
        assert_eq!(c.n_max, 500);
        assert!((c.de_cr - 0.8).abs() < 1e-12);
        assert!((c.de_f - 0.8).abs() < 1e-12);
        assert_eq!(c.memetic_trigger, 5);
        assert_eq!(c.stop_stagnation, 20);
        assert!(c.memetic_enabled);
        assert_eq!(c.strategy, YieldStrategy::TwoStageOo);
        c.validate();
    }

    #[test]
    fn fast_config_is_valid_and_smaller() {
        let c = MohecoConfig::fast();
        c.validate();
        assert!(c.population_size < MohecoConfig::paper().population_size);
        assert!(c.n_max < MohecoConfig::paper().n_max);
    }

    #[test]
    fn baseline_conversions() {
        let fixed = MohecoConfig::fast().as_fixed_budget(300);
        assert_eq!(
            fixed.strategy,
            YieldStrategy::FixedBudget {
                sims_per_candidate: 300
            }
        );
        assert!(!fixed.memetic_enabled);
        fixed.validate();

        let oo = MohecoConfig::fast().as_oo_without_memetic();
        assert_eq!(oo.strategy, YieldStrategy::TwoStageOo);
        assert!(!oo.memetic_enabled);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let mut c = MohecoConfig::paper();
        c.n_max = 1;
        c.validate();
    }
}
