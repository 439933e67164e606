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

fn circuit<T: Testbench + 'static>(
    name: &'static str,
    description: &'static str,
    testbench: T,
) -> Arc<dyn Scenario> {
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
        name,
        description,
        spec_names,
        bench: Arc::new(CircuitBench::new(testbench)),
        warm_start: true,
    })
}

fn synthetic(
    name: &'static str,
    description: &'static str,
    bench: SyntheticBench,
) -> Arc<dyn Scenario> {
    let spec_names = bench.specs().iter().map(|s| s.name.clone()).collect();
    Arc::new(RegisteredScenario {
        name,
        description,
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

/// All built-in scenarios, in registry order.
pub fn all_scenarios() -> Vec<Arc<dyn Scenario>> {
    vec![
        circuit(
            "folded_cascode",
            "Paper example 1: folded-cascode OTA, 0.35um, nominal corner",
            FoldedCascode::new(),
        ),
        circuit(
            "folded_cascode_harsh",
            "Example 1 at a harsh corner: all statistical spreads x1.5",
            FoldedCascode::with_corner(1.5),
        ),
        circuit(
            "telescopic",
            "Paper example 2: two-stage telescopic cascode, 90nm, nominal corner",
            TelescopicTwoStage::new(),
        ),
        circuit(
            "telescopic_mild",
            "Example 2 at a mild corner: all statistical spreads x0.7",
            TelescopicTwoStage::with_corner(0.7),
        ),
        synthetic(
            "quadratic_feasibility",
            "6-d sphere + tilted plane, 2 independent Gaussian specs, closed-form yield",
            quadratic_feasibility(),
        ),
        synthetic(
            "rotated_ellipsoid",
            "8-d rotated ill-conditioned ellipsoid, 1 Gaussian spec, closed-form yield",
            rotated_ellipsoid(),
        ),
        synthetic(
            "two_basin",
            "5-d bimodal acceptance region (narrow trap + wide optimum), closed-form yield",
            two_basin(),
        ),
        synthetic(
            "margin_wall",
            "4-d flat acceptance boundary in the moderate-yield regime, closed-form yield",
            margin_wall(),
        ),
        synthetic(
            "stress_24d",
            "24-d high-dimensional stress case, 2 independent Gaussian specs, closed-form yield",
            stress_24d(),
        ),
    ]
}

/// Looks a scenario up by its registry name.
pub fn find_scenario(name: &str) -> Option<Arc<dyn Scenario>> {
    all_scenarios().into_iter().find(|s| s.name() == name)
}

/// The names of all registered scenarios, in registry order.
pub fn scenario_names() -> Vec<String> {
    all_scenarios()
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}
