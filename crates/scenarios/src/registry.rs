//! The built-in scenario registry.
//!
//! Nine scenarios ship by default: the paper's two amplifiers at graded
//! process-corner severities (via `Testbench::with_corner`) plus five
//! synthetic analytic benchmarks whose true yield is known in closed form.
//! `moheco-campaign --scenario all` iterates exactly this list; CI gates each
//! entry's multi-seed aggregate against a committed baseline.

use crate::synthetic::{rotated_spd_matrix, MarginForm, SyntheticBench, SyntheticSpec};
use crate::Scenario;
use moheco::{Benchmark, CircuitBench};
use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
use std::sync::Arc;

/// A registry entry: a prebuilt benchmark plus its registry metadata.
pub struct RegisteredScenario {
    name: &'static str,
    description: &'static str,
    spec_names: Vec<String>,
    bench: Arc<dyn Benchmark>,
    warm_start: bool,
}

impl Scenario for RegisteredScenario {
    fn name(&self) -> &str {
        self.name
    }

    fn description(&self) -> &str {
        self.description
    }

    fn spec_names(&self) -> Vec<String> {
        self.spec_names.clone()
    }

    fn bench(&self) -> Arc<dyn Benchmark> {
        Arc::clone(&self.bench)
    }

    fn warm_start(&self) -> Vec<Vec<f64>> {
        if self.warm_start {
            vec![self.bench.reference_design()]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Scenarios built on this thread, so tests can see what a lookup builds.
    static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn count_build() {
    #[cfg(test)]
    BUILT.with(|n| n.set(n.get() + 1));
}

fn circuit<T: Testbench + 'static>(entry: &Entry, testbench: T) -> Arc<dyn Scenario> {
    count_build();
    let mut spec_names: Vec<String> = testbench
        .specs()
        .specs
        .iter()
        .map(|s| s.name.clone())
        .collect();
    if testbench.specs().require_saturation {
        spec_names.push("saturation".into());
    }
    Arc::new(RegisteredScenario {
        name: entry.name,
        description: entry.description,
        spec_names,
        bench: Arc::new(CircuitBench::new(testbench)),
        warm_start: true,
    })
}

fn synthetic(entry: &Entry, bench: SyntheticBench) -> Arc<dyn Scenario> {
    count_build();
    let spec_names = bench.specs().iter().map(|s| s.name.clone()).collect();
    Arc::new(RegisteredScenario {
        name: entry.name,
        description: entry.description,
        spec_names,
        bench: Arc::new(bench),
        warm_start: false,
    })
}

fn quadratic_feasibility() -> SyntheticBench {
    let d = 6;
    SyntheticBench::new(
        "quadratic_feasibility",
        vec![(-1.5, 1.5); d],
        vec![0.0; d],
        vec![
            SyntheticSpec {
                name: "sphere".into(),
                form: MarginForm::Quadratic {
                    center: vec![0.0; d],
                    weights: vec![1.0; d],
                    threshold: 3.0,
                },
                noise_offset: 0,
                noise_weights: vec![0.8, 0.6],
            },
            SyntheticSpec {
                name: "tilt".into(),
                form: MarginForm::Linear {
                    weights: vec![0.25, -0.25, 0.25, 0.0, 0.0, 0.0],
                    offset: 1.0,
                },
                noise_offset: 2,
                noise_weights: vec![0.5, 0.5, 0.5],
            },
        ],
    )
}

fn rotated_ellipsoid() -> SyntheticBench {
    let d = 8;
    SyntheticBench::new(
        "rotated_ellipsoid",
        vec![(-2.0, 2.0); d],
        vec![0.25; d],
        vec![SyntheticSpec {
            name: "ellipsoid".into(),
            form: MarginForm::Ellipsoid {
                center: vec![0.0; d],
                matrix: rotated_spd_matrix(d, 0.3, 3.0),
                threshold: 3.5,
            },
            noise_offset: 0,
            noise_weights: vec![0.9, 0.45],
        }],
    )
}

fn two_basin() -> SyntheticBench {
    let d = 5;
    SyntheticBench::new(
        "two_basin",
        vec![(-3.0, 3.0); d],
        vec![1.5, 1.5, 0.0, 0.0, 0.0],
        vec![SyntheticSpec {
            name: "basins".into(),
            form: MarginForm::TwoBasin {
                // Basin 1 is narrow, basin 2 (the global optimum) is wide:
                // a local-search trap for population optimizers.
                centers: [
                    vec![-1.5, -1.5, 0.0, 0.0, 0.0],
                    vec![1.5, 1.5, 0.0, 0.0, 0.0],
                ],
                weights: [vec![1.0; 5], vec![0.45; 5]],
                threshold: 2.5,
            },
            noise_offset: 0,
            noise_weights: vec![1.0],
        }],
    )
}

fn margin_wall() -> SyntheticBench {
    let d = 4;
    SyntheticBench::new(
        "margin_wall",
        vec![(-2.0, 2.0); d],
        vec![0.0; d],
        vec![SyntheticSpec {
            name: "wall".into(),
            form: MarginForm::Linear {
                weights: vec![0.4, -0.3, 0.2, -0.1],
                offset: 0.8,
            },
            noise_offset: 0,
            noise_weights: vec![1.2],
        }],
    )
}

fn stress_24d() -> SyntheticBench {
    let d = 24;
    let weights: Vec<f64> = (0..d).map(|i| 0.15 + 0.01 * i as f64).collect();
    SyntheticBench::new(
        "stress_24d",
        vec![(-1.0, 1.0); d],
        vec![0.0; d],
        vec![
            SyntheticSpec {
                name: "bowl".into(),
                form: MarginForm::Quadratic {
                    center: vec![0.0; d],
                    weights,
                    threshold: 3.0,
                },
                noise_offset: 0,
                noise_weights: vec![0.3; 6],
            },
            SyntheticSpec {
                name: "drift".into(),
                form: MarginForm::Linear {
                    weights: (0..d)
                        .map(|i| if i % 3 == 0 { 0.1 } else { -0.05 })
                        .collect(),
                    offset: 1.2,
                },
                noise_offset: 6,
                noise_weights: vec![0.35; 4],
            },
        ],
    )
}

/// One registry entry: its name, its description and the builder of its
/// scenario. A lookup builds only the entries it returns.
struct Entry {
    name: &'static str,
    description: &'static str,
    build: fn(&Entry) -> Arc<dyn Scenario>,
}

/// The registry, in registry order.
const REGISTRY: [Entry; 9] = [
    Entry {
        name: "folded_cascode",
        description: "Paper example 1: folded-cascode OTA, 0.35um, nominal corner",
        build: |e| circuit(e, FoldedCascode::new()),
    },
    Entry {
        name: "folded_cascode_harsh",
        description: "Example 1 at a harsh corner: all statistical spreads x1.5",
        build: |e| circuit(e, FoldedCascode::with_corner(1.5)),
    },
    Entry {
        name: "telescopic",
        description: "Paper example 2: two-stage telescopic cascode, 90nm, nominal corner",
        build: |e| circuit(e, TelescopicTwoStage::new()),
    },
    Entry {
        name: "telescopic_mild",
        description: "Example 2 at a mild corner: all statistical spreads x0.7",
        build: |e| circuit(e, TelescopicTwoStage::with_corner(0.7)),
    },
    Entry {
        name: "quadratic_feasibility",
        description: "6-d sphere + tilted plane, 2 independent Gaussian specs, closed-form yield",
        build: |e| synthetic(e, quadratic_feasibility()),
    },
    Entry {
        name: "rotated_ellipsoid",
        description: "8-d rotated ill-conditioned ellipsoid, 1 Gaussian spec, closed-form yield",
        build: |e| synthetic(e, rotated_ellipsoid()),
    },
    Entry {
        name: "two_basin",
        description:
            "5-d bimodal acceptance region (narrow trap + wide optimum), closed-form yield",
        build: |e| synthetic(e, two_basin()),
    },
    Entry {
        name: "margin_wall",
        description: "4-d flat acceptance boundary in the moderate-yield regime, closed-form yield",
        build: |e| synthetic(e, margin_wall()),
    },
    Entry {
        name: "stress_24d",
        description:
            "24-d high-dimensional stress case, 2 independent Gaussian specs, closed-form yield",
        build: |e| synthetic(e, stress_24d()),
    },
];

/// All built-in scenarios, in registry order, each built afresh.
pub fn all_scenarios() -> Vec<Arc<dyn Scenario>> {
    REGISTRY.iter().map(|e| (e.build)(e)).collect()
}

/// Looks a scenario up by its registry name, building only that scenario.
pub fn find_scenario(name: &str) -> Option<Arc<dyn Scenario>> {
    REGISTRY
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.build)(e))
}

/// The names of all registered scenarios, in registry order; builds none.
pub fn scenario_names() -> Vec<String> {
    REGISTRY.iter().map(|e| e.name.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` and returns how many scenarios it built on this thread.
    fn builds<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = BUILT.with(|n| n.get());
        let out = f();
        (out, BUILT.with(|n| n.get()) - before)
    }

    #[test]
    fn lookups_build_only_the_scenarios_they_return() {
        for name in ["margin_wall", "telescopic"] {
            let (found, built) = builds(|| find_scenario(name));
            assert_eq!(found.expect("registered").name(), name);
            assert_eq!(built, 1, "find_scenario({name:?})");
        }
        let (missing, built) = builds(|| find_scenario("no_such_scenario"));
        assert!(missing.is_none());
        assert_eq!(built, 0);
        let (names, built) = builds(scenario_names);
        assert_eq!(built, 0, "scenario_names");
        let (all, built) = builds(all_scenarios);
        assert_eq!(built, 9, "all_scenarios");
        let all_names: Vec<String> = all.iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, all_names);
    }
}
