//! Reproduces the §3.4 PSWCD (performance-specific worst-case design)
//! over-design discussion of the MOHECO paper.
//!
//! For a set of designs of example 1, the binary reports the Monte-Carlo
//! yield next to the PSWCD accept/reject decision obtained by checking every
//! specification at its own worst-case process point. Designs with high MC
//! yield that PSWCD rejects illustrate the over-design the paper describes.

use moheco_analog::{FoldedCascode, Testbench};
use moheco_bench::BudgetClass;
use moheco_surrogate::{overdesign_comparison, PswcdConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Runs no engine: `--parallel` is accepted and ignored.
    let (budget, _) = moheco_bench::cli::figure_binary_scale();
    let paper = budget == BudgetClass::Paper;
    let tb = FoldedCascode::new();
    let mc_samples = if paper { 2_000 } else { 400 };
    let config = PswcdConfig {
        k_sigma: 3.0,
        probes: if paper { 200 } else { 60 },
    };

    // Designs of decreasing robustness: the reference sizing, a power-tight
    // variant and a starved variant.
    let reference = tb.reference_design();
    let mut tight = reference.clone();
    tight[8] = 168.0;
    let mut generous = reference.clone();
    generous[8] = 140.0;
    generous[4] = 100.0;
    let designs = [
        ("reference sizing", reference),
        ("power-tight sizing", tight),
        ("relaxed sizing", generous),
    ];

    println!("Section 3.4: PSWCD accept/reject vs Monte-Carlo yield (example 1)");
    println!(
        "{:<22} {:>14} {:>18}",
        "design", "MC yield", "PSWCD decision"
    );
    let mut rng = StdRng::seed_from_u64(0x95CD);
    for (label, x) in designs {
        let (accepted, mc_yield) = overdesign_comparison(&tb, &x, mc_samples, &config, &mut rng);
        println!(
            "{:<22} {:>13.1}% {:>18}",
            label,
            100.0 * mc_yield,
            if accepted {
                "accept"
            } else {
                "reject (over-design)"
            }
        );
    }
    println!("\nA rejection of a design whose MC yield is high demonstrates the over-design of");
    println!("spec-wise worst-case methods: the per-spec worst-case process points cannot occur");
    println!("simultaneously, so their combination is overly pessimistic (paper, section 3.4).");
}
