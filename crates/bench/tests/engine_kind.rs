//! `EngineKind` is the only place the `serial` / `parallel` choice is made
//! for the binaries, the campaign layer and the service. A `Serial` build
//! must stay thread-free even when the configuration carries a larger worker
//! count (long-lived campaign engines are configured that way), and a
//! `Parallel` build keeps its label whatever the host's core count.

use moheco_bench::EngineKind;
use moheco_runtime::{EngineConfig, McRequest, SimulationModel};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

/// Records the thread of every block and nominal evaluation.
#[derive(Default)]
struct ThreadRecorder {
    threads: Mutex<HashSet<ThreadId>>,
}

impl ThreadRecorder {
    fn record(&self) {
        let id = std::thread::current().id();
        self.threads.lock().unwrap().insert(id);
    }

    fn seen(&self) -> HashSet<ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

impl SimulationModel for ThreadRecorder {
    fn unit_dimension(&self) -> usize {
        2
    }

    fn simulate_point(&self, _x: &[f64], u: &[f64]) -> f64 {
        u[0]
    }

    fn simulate_block(&self, x: &[f64], us: &[Vec<f64>], out: &mut [f64]) {
        self.record();
        for (o, u) in out.iter_mut().zip(us) {
            *o = self.simulate_point(x, u);
        }
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        self.record();
        x.to_vec()
    }
}

/// Eight designs over three blocks each: enough tasks for a pool to fan out.
fn designs() -> Vec<Vec<f64>> {
    (0..8).map(|i| vec![0.1 * i as f64, 0.5]).collect()
}

fn run(kind: EngineKind, config: EngineConfig, model: &ThreadRecorder) -> Vec<Vec<f64>> {
    let engine = kind.build_with(config);
    let requests: Vec<McRequest> = designs()
        .into_iter()
        .map(|x| McRequest::new(x, 0, 3 * config.block_size))
        .collect();
    let outcomes = engine.mc_outcomes(model, &requests);
    engine.nominal_batch(model, &designs());
    outcomes
}

#[test]
fn serial_kind_ignores_the_configured_worker_count() {
    let config = EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    };
    let engine = EngineKind::Serial.build_with(config);
    assert_eq!(engine.name(), "serial");
    assert_eq!(engine.config().workers, 1);

    let serial = ThreadRecorder::default();
    let serial_outcomes = run(EngineKind::Serial, config, &serial);
    let caller = std::thread::current().id();
    assert_eq!(serial.seen(), HashSet::from([caller]));

    // The same configuration on the parallel kind does fan out, so the
    // recorder can tell the two apart; the outcomes stay bit-identical.
    let parallel = ThreadRecorder::default();
    let parallel_outcomes = run(EngineKind::Parallel, config, &parallel);
    assert!(!parallel.seen().contains(&caller));
    assert_eq!(serial_outcomes, parallel_outcomes);
}

#[test]
fn parallel_kind_is_labelled_parallel_on_any_host() {
    let engine = EngineKind::Parallel.build_with(EngineConfig::default());
    assert_eq!(engine.config().workers, 0, "0 = all available cores");
    assert_eq!(engine.name(), "parallel");
    assert_eq!(engine.name(), EngineKind::Parallel.label());
}
