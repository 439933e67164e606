//! Generative differential suite for the batched AC path.
//!
//! [`FactorizedCircuit::sweep`] promises to be bit-for-bit identical to
//! [`spicelite::ac::sweep`] on any structurally matching circuit — including
//! which frequency fails first and with which pivot on singular systems — on
//! every compiled kernel. The named-circuit tests inside `batch.rs` cover the
//! benchmark amplifier topologies; this suite generates random linear
//! circuits from seeds so the contract is exercised over arbitrary stamp
//! patterns, element mixes, lane tails (sweep lengths that are not a
//! multiple of the SIMD width) and factorization reuse across value-perturbed
//! clones. Every case runs on each kernel in [`Kernel::available`].
//!
//! The sparse cases aim at the lane LU's structural skips: circuits that do
//! not ground every node leave whole columns zero, fill in during
//! elimination, swap rows and let the lanes of one chunk pick different
//! pivots; infinite and NaN element values reach the guards that keep those
//! skips exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spicelite::ac::{log_space, sweep, FrequencyResponse};
use spicelite::simd::Kernel;
use spicelite::{CMatrix, Complex, FactorizedCircuit, LinearCircuit, NodeId, SpiceError};

/// The elements of a generated circuit, recorded in insertion order so the
/// oracle test can re-stamp the MNA system without access to the netlist's
/// internals.
#[derive(Default)]
struct Spec {
    num_nodes: usize,
    conductances: Vec<(NodeId, NodeId, f64)>,
    capacitances: Vec<(NodeId, NodeId, f64)>,
    vccs: Vec<(NodeId, NodeId, NodeId, NodeId, f64)>,
    isources: Vec<(NodeId, NodeId, f64)>,
    vsources: Vec<(NodeId, NodeId, f64)>,
}

/// Builds a random linear circuit whose *topology* is decided by
/// `struct_seed` and whose element *values* are decided by `value_seed`.
/// Circuits sharing a `struct_seed` structurally match each other, so one
/// [`FactorizedCircuit`] plan serves all of them.
fn random_circuit(struct_seed: u64, value_seed: u64) -> (LinearCircuit, NodeId, Spec) {
    let mut st = StdRng::seed_from_u64(struct_seed);
    let mut vl = StdRng::seed_from_u64(value_seed);
    let mut ckt = LinearCircuit::new();
    let mut spec = Spec::default();
    let n_nodes = st.gen_range(2..6);
    let nodes: Vec<NodeId> = (0..n_nodes).map(|_| ckt.node()).collect();
    spec.num_nodes = ckt.num_nodes();
    // Unit-ish AC stimulus into the first node.
    let ac = vl.gen_range(0.5..2.0);
    ckt.add_vsource(nodes[0], 0, ac);
    spec.vsources.push((nodes[0], 0, ac));
    // Ground every node so the nominal system is non-singular.
    for &nd in &nodes {
        let g = vl.gen_range(1e-6..1e-2);
        ckt.add_conductance(nd, 0, g);
        spec.conductances.push((nd, 0, g));
    }
    // A random mix of extra elements, ground included as a terminal.
    let n_extra = st.gen_range(4..12);
    for _ in 0..n_extra {
        let pick = |s: &mut StdRng| -> NodeId {
            let k = s.gen_range(0..=n_nodes);
            if k == n_nodes {
                0
            } else {
                nodes[k]
            }
        };
        let a = pick(&mut st);
        let b = pick(&mut st);
        match st.gen_range(0..4u32) {
            0 => {
                let g = vl.gen_range(1e-6..1e-1);
                ckt.add_conductance(a, b, g);
                spec.conductances.push((a, b, g));
            }
            1 => {
                let c = vl.gen_range(1e-15..1e-9);
                ckt.add_capacitance(a, b, c);
                spec.capacitances.push((a, b, c));
            }
            2 => {
                let (ip, in_) = (pick(&mut st), pick(&mut st));
                let gm = vl.gen_range(-1e-2..1e-2);
                ckt.add_vccs(a, b, ip, in_, gm);
                spec.vccs.push((a, b, ip, in_, gm));
            }
            _ => {
                let i = vl.gen_range(-1e-3..1e-3);
                ckt.add_isource(a, b, i);
                spec.isources.push((a, b, i));
            }
        }
    }
    let out = nodes[st.gen_range(0..n_nodes)];
    (ckt, out, spec)
}

/// How two swept values must agree.
#[derive(Clone, Copy)]
enum Agree {
    /// Bit for bit.
    Bits,
    /// Bit for bit, except that any two NaNs agree: Rust leaves the sign
    /// and payload of a NaN that arithmetic produces unspecified, so when
    /// NaN element values meet generated NaNs, which one an operation
    /// passes on may differ between two compilations of the same formula.
    BitsOrBothNan,
}

impl Agree {
    fn holds(self, a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
            || matches!(self, Agree::BitsOrBothNan) && a.is_nan() && b.is_nan()
    }
}

/// Asserts that a batched sweep agrees with the scalar one at every point,
/// errors included.
fn assert_same_sweep(
    scalar: &Result<FrequencyResponse, SpiceError>,
    batched: &Result<FrequencyResponse, SpiceError>,
    agree: Agree,
    ctx: &str,
) {
    match (scalar, batched) {
        (Ok(s), Ok(b)) => {
            assert_eq!(s.values.len(), b.values.len(), "{ctx}: length");
            for (i, (vs, vb)) in s.values.iter().zip(&b.values).enumerate() {
                assert!(
                    agree.holds(vs.re, vb.re) && agree.holds(vs.im, vb.im),
                    "{ctx}: diverged at point {i}: {vs:?} ({:x}, {:x}) vs {vb:?} ({:x}, {:x})",
                    vs.re.to_bits(),
                    vs.im.to_bits(),
                    vb.re.to_bits(),
                    vb.im.to_bits()
                );
            }
        }
        (Err(es), Err(eb)) => assert_eq!(es, eb, "{ctx}: errors must match exactly"),
        (s, b) => panic!("{ctx}: scalar {s:?} vs batched {b:?}"),
    }
}

/// Sweeps `ckt` at `out` on every compiled kernel and compares each result
/// with the scalar sweep.
fn assert_sweeps_agree(ckt: &LinearCircuit, out: NodeId, freqs: &[f64], agree: Agree, ctx: &str) {
    let scalar = sweep(ckt, out, freqs);
    for kernel in Kernel::available() {
        let mut fac = FactorizedCircuit::new_on(ckt, kernel);
        assert!(fac.matches(ckt), "{ctx}: plan must match its own template");
        let batched = fac.sweep(ckt, out, freqs);
        assert_same_sweep(&scalar, &batched, agree, &format!("{ctx} on {kernel:?}"));
    }
}

fn assert_sweeps_bit_equal(ckt: &LinearCircuit, out: NodeId, freqs: &[f64], ctx: &str) {
    assert_sweeps_agree(ckt, out, freqs, Agree::Bits, ctx);
}

#[test]
fn random_circuits_sweep_bit_identically() {
    // Sweep lengths straddle the lane width (8): shorter than one chunk,
    // exactly one chunk, ragged tails and multi-chunk grids.
    let grids = [2usize, 5, 8, 9, 23, 50];
    for seed in 0..30u64 {
        let (ckt, out, _) = random_circuit(seed, 1000 + seed);
        let points = grids[seed as usize % grids.len()];
        let freqs = log_space(1e2, 1e9, points);
        assert_sweeps_bit_equal(&ckt, out, &freqs, &format!("seed {seed} ({points} pts)"));
    }
}

#[test]
fn one_factorization_serves_value_perturbed_clones() {
    // The engine's usage pattern: one plan per design, re-loaded with the
    // element values of every process sample.
    for kernel in Kernel::available() {
        for struct_seed in 0..8u64 {
            let (template, out, _) = random_circuit(struct_seed, 0);
            let mut fac = FactorizedCircuit::new_on(&template, kernel);
            let freqs = log_space(1e3, 1e8, 13);
            for value_seed in 1..6u64 {
                let (variant, _, _) = random_circuit(struct_seed, 7000 + value_seed);
                assert!(
                    fac.matches(&variant),
                    "struct {struct_seed}: variant must structurally match"
                );
                let scalar = sweep(&variant, out, &freqs);
                assert!(scalar.is_ok(), "struct {struct_seed}: variant must solve");
                let batched = fac.sweep(&variant, out, &freqs);
                let ctx = format!("s{struct_seed} v{value_seed} on {kernel:?}");
                assert_same_sweep(&scalar, &batched, Agree::Bits, &ctx);
            }
        }
    }
}

#[test]
fn structural_mismatch_is_detected() {
    let (ckt, _, _) = random_circuit(3, 3);
    let fac = FactorizedCircuit::new(&ckt);
    let mut other = ckt.clone();
    other.add_conductance(0, 0, 1.0); // one extra element changes the signature
    assert!(!fac.matches(&other));
}

#[test]
fn singular_circuits_fail_with_matching_errors() {
    // A floating node pair (resistor between two nodes, no path to ground)
    // makes the MNA matrix singular at every frequency; both paths must
    // return the exact same pivot.
    let mut ckt = LinearCircuit::new();
    let vin = ckt.node();
    let a = ckt.node();
    let b = ckt.node();
    ckt.add_vsource(vin, 0, 1.0);
    ckt.add_conductance(vin, 0, 1e-3);
    ckt.add_conductance(a, b, 1e-3); // floating island
    let freqs = log_space(1e2, 1e6, 11);
    let scalar = sweep(&ckt, a, &freqs);
    assert!(
        matches!(scalar, Err(SpiceError::SingularMatrix { .. })),
        "floating island must be singular"
    );
    assert_sweeps_bit_equal(&ckt, a, &freqs, "floating island");
}

#[test]
fn batched_sweep_is_pinned_to_the_scalar_complex_solver() {
    // Independent oracle: assemble the complex MNA system exactly the way
    // `ac::solve_at` documents it — from the recorded element list, in
    // insertion order — and solve with `CMatrix::solve`, the scalar LU the
    // committed yield baselines were produced with. The batched sweep must
    // reproduce those solutions bit-for-bit.
    for seed in 40..52u64 {
        let (ckt, out, spec) = random_circuit(seed, 4000 + seed);
        let freqs = log_space(1e3, 1e9, 9);
        let n = spec.num_nodes;
        let m = spec.vsources.len();
        let dim = (n - 1) + m;
        let idx = |node: NodeId| -> Option<usize> {
            if node == 0 {
                None
            } else {
                Some(node - 1)
            }
        };

        let batched: Vec<FrequencyResponse> = Kernel::available()
            .into_iter()
            .map(|kernel| {
                FactorizedCircuit::new_on(&ckt, kernel)
                    .sweep(&ckt, out, &freqs)
                    .unwrap()
            })
            .collect();

        for (fi, &f) in freqs.iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            let mut a = CMatrix::zeros(dim, dim);
            let mut rhs = vec![Complex::ZERO; dim];
            let stamp = |a: &mut CMatrix, p: NodeId, q: NodeId, y: Complex| {
                if let Some(i) = idx(p) {
                    a[(i, i)] += y;
                }
                if let Some(j) = idx(q) {
                    a[(j, j)] += y;
                }
                if let (Some(i), Some(j)) = (idx(p), idx(q)) {
                    a[(i, j)] -= y;
                    a[(j, i)] -= y;
                }
            };
            for &(p, q, g) in &spec.conductances {
                stamp(&mut a, p, q, Complex::from_real(g));
            }
            for &(p, q, c) in &spec.capacitances {
                stamp(&mut a, p, q, Complex::from_imag(omega * c));
            }
            for &(op, on, ip, in_, gm) in &spec.vccs {
                for (out_node, sign_out) in [(op, 1.0), (on, -1.0)] {
                    if let Some(i) = idx(out_node) {
                        if let Some(j) = idx(ip) {
                            a[(i, j)] += Complex::from_real(sign_out * gm);
                        }
                        if let Some(j) = idx(in_) {
                            a[(i, j)] -= Complex::from_real(sign_out * gm);
                        }
                    }
                }
            }
            for &(from, to, amps) in &spec.isources {
                if let Some(i) = idx(from) {
                    rhs[i] -= Complex::from_real(amps);
                }
                if let Some(i) = idx(to) {
                    rhs[i] += Complex::from_real(amps);
                }
            }
            for (k, &(p, nn, ac)) in spec.vsources.iter().enumerate() {
                let row = (n - 1) + k;
                if let Some(i) = idx(p) {
                    a[(i, row)] += Complex::ONE;
                    a[(row, i)] += Complex::ONE;
                }
                if let Some(i) = idx(nn) {
                    a[(i, row)] -= Complex::ONE;
                    a[(row, i)] -= Complex::ONE;
                }
                rhs[row] = Complex::from_real(ac);
            }
            let x = a.solve(&rhs).unwrap();
            let want = if out == 0 { Complex::ZERO } else { x[out - 1] };
            for got in batched.iter().map(|b| b.values[fi]) {
                assert_eq!(
                    got.re.to_bits(),
                    want.re.to_bits(),
                    "seed {seed} f[{fi}]: re {got:?} vs oracle {want:?}"
                );
                assert_eq!(
                    got.im.to_bits(),
                    want.im.to_bits(),
                    "seed {seed} f[{fi}]: im {got:?} vs oracle {want:?}"
                );
            }
        }
    }
}

/// Element values that only an edge case produces.
const NONE: &[f64] = &[];
const INFINITE: &[f64] = &[f64::INFINITY, f64::NEG_INFINITY, 0.0];
const INFINITE_OR_NAN: &[f64] = &[f64::INFINITY, f64::NEG_INFINITY, 0.0, f64::NAN];

/// A log-uniform magnitude in `10^lo..10^hi`, or with probability 1/12 one
/// of `special` (if any).
fn draw(vl: &mut StdRng, lo: f64, hi: f64, special: &[f64]) -> f64 {
    if !special.is_empty() && vl.gen_bool(1.0 / 12.0) {
        special[vl.gen_range(0..special.len())]
    } else {
        10f64.powf(vl.gen_range(lo..hi))
    }
}

/// A random circuit that, unlike [`random_circuit`], grounds only the nodes
/// its random elements happen to ground: columns stay zero, entries fill in
/// during elimination and conductances that span eight decades against
/// capacitances that span nine move the pivot choice across the sweep.
/// Topology comes from `struct_seed`, values from `value_seed`.
fn sparse_circuit(struct_seed: u64, value_seed: u64, special: &[f64]) -> LinearCircuit {
    let mut st = StdRng::seed_from_u64(struct_seed);
    let mut vl = StdRng::seed_from_u64(value_seed);
    let mut ckt = LinearCircuit::new();
    let n_nodes = st.gen_range(2..8);
    let nodes: Vec<NodeId> = (0..n_nodes).map(|_| ckt.node()).collect();
    let pick = |s: &mut StdRng| -> NodeId {
        let k = s.gen_range(0..=n_nodes);
        if k == n_nodes {
            0
        } else {
            nodes[k]
        }
    };
    // A stimulus on the first node, sometimes a second source anywhere.
    ckt.add_vsource(nodes[0], 0, draw(&mut vl, -1.0, 1.0, special));
    if st.gen_bool(0.3) {
        let (p, q) = (pick(&mut st), pick(&mut st));
        ckt.add_vsource(p, q, draw(&mut vl, -1.0, 1.0, special));
    }
    for _ in 0..st.gen_range(n_nodes..3 * n_nodes + 2) {
        let (a, b) = (pick(&mut st), pick(&mut st));
        match st.gen_range(0..4u32) {
            0 => ckt.add_conductance(a, b, draw(&mut vl, -6.0, 2.0, special)),
            1 => ckt.add_capacitance(a, b, draw(&mut vl, -15.0, -6.0, special)),
            2 => {
                let (ip, in_) = (pick(&mut st), pick(&mut st));
                let sign = if vl.gen_bool(0.5) { 1.0 } else { -1.0 };
                ckt.add_vccs(a, b, ip, in_, sign * draw(&mut vl, -6.0, -1.0, special));
            }
            _ => ckt.add_isource(a, b, draw(&mut vl, -6.0, -3.0, special)),
        }
    }
    ckt
}

/// Sweeps a circuit at every node, ground included.
fn assert_every_output_agrees(ckt: &LinearCircuit, freqs: &[f64], agree: Agree, ctx: &str) {
    for out in 0..ckt.num_nodes() {
        assert_sweeps_agree(ckt, out, freqs, agree, &format!("{ctx} out {out}"));
    }
}

#[test]
fn sparse_circuits_sweep_bit_identically_on_every_kernel() {
    let grids = [50usize, 50, 2, 7, 9, 17];
    for seed in 0..120u64 {
        let ckt = sparse_circuit(seed, 500 + seed, NONE);
        let points = grids[seed as usize % grids.len()];
        let freqs = log_space(1e2, 1e10, points);
        assert_every_output_agrees(&ckt, &freqs, Agree::Bits, &format!("sparse seed {seed}"));
    }
}

/// Sweeps sparse and half circuits whose element values include `special`.
fn assert_special_values_agree(special: &[f64], agree: Agree) {
    let freqs = log_space(1e2, 1e10, 50);
    for seed in 0..120u64 {
        let ckt = sparse_circuit(seed, 9000 + seed, special);
        assert_every_output_agrees(&ckt, &freqs, agree, &format!("sparse seed {seed}"));
    }
    for seed in 0..40u64 {
        for (name, ckt) in half_circuits(seed, special) {
            assert_every_output_agrees(&ckt, &freqs, agree, &format!("{name} seed {seed}"));
        }
    }
}

#[test]
fn infinite_element_values_sweep_bit_identically() {
    // Infinite pivots and multipliers reach the guards of the structural
    // skips; every NaN they breed is generated, so the bits still match.
    assert_special_values_agree(INFINITE, Agree::Bits);
}

#[test]
fn nan_element_values_sweep_to_the_same_values() {
    assert_special_values_agree(INFINITE_OR_NAN, Agree::BitsOrBothNan);
}

/// One small-signal MOS stamp's values: gm, gds, gmb, cgs, cgd, cdb, csb.
fn mos_values(vl: &mut StdRng, special: &[f64]) -> [f64; 7] {
    [
        draw(vl, -4.0, -2.5, special),
        draw(vl, -6.0, -4.5, special),
        draw(vl, -5.0, -3.5, special),
        draw(vl, -14.0, -12.0, special),
        draw(vl, -15.0, -13.0, special),
        draw(vl, -15.0, -13.0, special),
        draw(vl, -15.0, -13.0, special),
    ]
}

/// The half circuits the two testbenches stamp — the telescopic two-stage
/// (five nodes, six unknowns) and the folded cascode (four nodes, five
/// unknowns) — with random device values.
fn half_circuits(value_seed: u64, special: &[f64]) -> [(&'static str, LinearCircuit); 2] {
    let mut vl = StdRng::seed_from_u64(value_seed);
    let mut mos = |c: &mut LinearCircuit, d, g, s, b, body: bool| {
        let [gm, gds, gmb, cgs, cgd, cdb, csb] = mos_values(&mut vl, special);
        let gmb = if body { gmb } else { 0.0 };
        c.add_mos_small_signal(d, g, s, b, gm, gds, gmb, cgs, cgd, cdb, csb);
    };
    let mut tel = LinearCircuit::new();
    let (vin, s3, o1, sp, out) = (tel.node(), tel.node(), tel.node(), tel.node(), tel.node());
    tel.add_vsource(vin, 0, 1.0);
    mos(&mut tel, s3, vin, 0, 0, false);
    mos(&mut tel, o1, 0, s3, 0, true);
    mos(&mut tel, o1, 0, sp, 0, true);
    tel.add_conductance(sp, 0, 1.4e-5);
    tel.add_capacitance(sp, 0, 3.1e-14);
    mos(&mut tel, out, o1, 0, 0, false);
    tel.add_conductance(out, 0, 1.5e-5);
    tel.add_capacitance(out, 0, 5e-14);
    tel.add_capacitance(o1, out, 1e-12);
    tel.add_capacitance(out, 0, 2e-12);

    let mut fc = LinearCircuit::new();
    let (vin, fold, out, casn) = (fc.node(), fc.node(), fc.node(), fc.node());
    fc.add_vsource(vin, 0, 1.0);
    mos(&mut fc, fold, vin, 0, 0, false);
    fc.add_conductance(fold, 0, 1.2e-5);
    fc.add_capacitance(fold, 0, 3.4e-14);
    mos(&mut fc, out, 0, fold, 0, true);
    mos(&mut fc, out, 0, casn, 0, true);
    fc.add_conductance(casn, 0, 1.4e-5);
    fc.add_capacitance(casn, 0, 3.1e-14);
    fc.add_capacitance(out, 0, 2e-12);
    [("telescopic", tel), ("folded cascode", fc)]
}

#[test]
fn half_circuit_shapes_sweep_bit_identically_at_every_output() {
    // The testbenches' own sweep grid.
    let freqs = log_space(1e3, 3e10, 50);
    for seed in 0..40u64 {
        for (name, ckt) in half_circuits(seed, NONE) {
            assert_every_output_agrees(&ckt, &freqs, Agree::Bits, &format!("{name} seed {seed}"));
        }
    }
}

#[test]
fn pivot_choice_flips_inside_a_chunk() {
    // Column 0 holds `g + jωC` on row `a` and `gm - g` on row `b`; row `b`
    // is the larger below about 280 MHz and row `a` above it, so one chunk
    // of the grid holds lanes that pick different pivot rows.
    let mut ckt = LinearCircuit::new();
    let (a, b) = (ckt.node(), ckt.node());
    ckt.add_isource(0, a, 1e-3);
    ckt.add_conductance(a, b, 1e-3);
    ckt.add_capacitance(a, 0, 1e-12);
    ckt.add_vccs(b, 0, a, 0, 3e-3);
    ckt.add_conductance(b, 0, 1e-4);
    let freqs = log_space(1e6, 1e10, 50);
    assert_every_output_agrees(&ckt, &freqs, Agree::Bits, "pivot flip");
}

#[test]
fn columns_past_the_mask_width_sweep_bit_identically() {
    // 70 unknowns: the zero masks hold 64 columns, so the last six are
    // never claimed zero and always take the full update.
    let mut ckt = LinearCircuit::new();
    let nodes: Vec<NodeId> = (0..69).map(|_| ckt.node()).collect();
    ckt.add_vsource(nodes[0], 0, 1.0);
    for (k, w) in nodes.windows(2).enumerate() {
        ckt.add_conductance(w[0], w[1], 1e-3 * (1.0 + k as f64 / 7.0));
        if k % 3 == 0 {
            ckt.add_capacitance(w[1], 0, 1e-12 * (1.0 + k as f64));
        }
    }
    ckt.add_vccs(nodes[68], 0, nodes[2], 0, 2e-3);
    ckt.add_conductance(nodes[68], 0, 1e-4);
    let freqs = log_space(1e3, 1e10, 11);
    assert!(sweep(&ckt, 69, &freqs).is_ok(), "the ladder must solve");
    for out in [0, 1, 40, 64, 66, 69] {
        assert_sweeps_bit_equal(&ckt, out, &freqs, &format!("wide out {out}"));
    }
}
