//! Quickstart: optimize the yield of the folded-cascode amplifier with MOHECO.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use moheco::{MohecoConfig, YieldOptimizer, YieldProblem};
use moheco_analog::{FoldedCascode, Testbench};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. The benchmark circuit: a fully differential folded-cascode OTA in a
    //    0.35 um / 3.3 V technology, specified on gain, GBW, phase margin,
    //    output swing and power (example 1 of the paper).
    let testbench = FoldedCascode::new();
    println!("circuit: {}", testbench.name());
    println!(
        "design variables: {}   statistical variables: {}",
        testbench.dimension(),
        testbench
            .technology()
            .num_variables(testbench.num_devices())
    );

    // 2. Wrap it into a yield problem (Latin Hypercube sampling, acceptance
    //    sampling screen and a shared simulation counter).
    let problem = YieldProblem::new(testbench);

    // 3. Run MOHECO with scaled-down settings so this example finishes in
    //    seconds; `MohecoConfig::paper()` gives the paper's full settings.
    let optimizer = YieldOptimizer::new(MohecoConfig::fast());
    let mut rng = StdRng::seed_from_u64(42);
    let result = optimizer.run(&problem, &mut rng);

    println!("\n=== MOHECO result ===");
    println!(
        "reported yield      : {:.1}%",
        100.0 * result.reported_yield
    );
    println!("total simulations   : {}", result.total_simulations);
    println!("generations         : {}", result.generations);
    println!("local searches (NM) : {}", result.local_searches);
    println!("best sizing:");
    for (var, value) in problem
        .testbench()
        .design_variables()
        .iter()
        .zip(&result.best_x)
    {
        println!("  {:<8} = {:>9.3} {}", var.name, value, var.unit);
    }

    println!("\nbest-yield history per generation:");
    for (g, y) in result.history().iter().enumerate() {
        println!("  gen {:>3}: {:>6.1}%", g, 100.0 * y);
    }
}
