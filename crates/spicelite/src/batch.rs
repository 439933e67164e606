//! Batched AC analysis: factorize a circuit's *structure* once, then sweep
//! many samples of the same topology with lane-vectorized inner loops.
//!
//! Within one Monte-Carlo block only process-variation parameters change, so
//! every sample of a design produces a [`LinearCircuit`] with the identical
//! element pattern (same nodes, same element order) and different element
//! *values*. [`FactorizedCircuit`] exploits that: it compiles the MNA stamping
//! of [`crate::ac::solve_at`] into a flat index program once (the structural
//! analysis), then per sample re-reads only the element values and solves the
//! whole frequency sweep in chunks of [`LANES`] frequencies laid out
//! structure-of-arrays, so the complex LU elimination runs over contiguous
//! per-frequency lanes and auto-vectorizes.
//!
//! # Bit-identity contract
//!
//! `FactorizedCircuit::sweep` is **bit-for-bit identical** to
//! [`crate::ac::sweep`], including error cases. This is not a tolerance claim:
//! the batched path performs the exact same IEEE-754 operation sequence per
//! frequency lane as the scalar path, relying only on value-preserving
//! transformations:
//!
//! * The scalar assembly interleaves real stamps (conductances, VCCS, voltage
//!   sources) with imaginary stamps (capacitances), but a `Complex` `+=` of a
//!   purely real (or purely imaginary) value adds `+0.0` to the other
//!   component. Accumulated MNA entries never hold `-0.0` (they start at
//!   `+0.0` and only accumulate finite stamps), and `x + 0.0 == x` bitwise for
//!   every `x != -0.0`, so splitting the assembly into a frequency-independent
//!   real plane and a per-frequency imaginary plane is exact.
//! * `x -= t` is IEEE-defined as `x + (-t)`, and negation/multiplication by
//!   `±1.0` are exact, so signed stamp programs reproduce `+=`/`-=` chains.
//! * The per-lane LU replicates [`crate::linalg::clu_solve_in_place`]
//!   literally: `norm_sqr` pivoting, the `f == Complex::ZERO` elimination
//!   skip (replicated with a per-lane mask and select, which also protects
//!   skipped lanes from spurious updates), and Smith's complex division with
//!   the `|re| >= |im|` branch selected per lane. The divisor-only half of
//!   Smith's division is computed once per pivot (see `SmithDivisor`); the
//!   scalar `0/0` early-NaN return needs no replica, since a zero pivot has
//!   already marked its lane singular.
//! * Entries never hold `-0.0` during elimination either: the eliminated
//!   entry is stored as `+0.0`, and `t - u` is `-0.0` only for `t == -0.0`.
//!   So an entry that is zero is `+0.0`, and per-row bit masks record the
//!   entries known to be `+0.0` in every lane. They start from the stamp
//!   pattern, move with row swaps, merge when the lanes pick different
//!   pivot rows, and lose a bit when an update may fill it in. Three kinds
//!   of work they prove to be no-ops are skipped:
//!   - A row whose entry in the pivot column is zero in every lane, when
//!     every lane's pivot is finite and nonzero. Smith's division of `±0`
//!     by such a pivot is `±0`, so the scalar kernel takes its `f == 0`
//!     skip in every lane. For the same reason the pivot search does not
//!     read the row: `0` never beats the running maximum.
//!   - An update column whose pivot-row entry is zero in every lane, when
//!     the row's multiplier `f` is finite in every lane. `f * (+0.0)` is
//!     `±0` and `t - (±0) == t` for every `t != -0.0`.
//!   - Row-swap columns left of the pivot, which are eliminated and never
//!     read again.
//! * Back-substitution solves only the rows from the output unknown down:
//!   row `i` reads rows `> i` alone, and the sweep reads only the output.
//!   A ground output needs no back-substitution at all.
//! * A lane whose pivot underflows is marked singular with the failing
//!   elimination step and keeps computing garbage; lanes never interact, so
//!   healthy lanes are unaffected and the first failing frequency reports the
//!   identical [`SpiceError::SingularMatrix`] as the scalar sweep.
//!
//! A NaN result is the one exception to identical bits. Rust leaves the
//! sign and payload of a NaN that arithmetic produces unspecified, so when
//! NaN element values meet NaNs the sweep generates itself, the two paths
//! may return NaNs that differ in those bits. Every non-NaN result, and
//! every NaN bred from finite or infinite values alone, matches bit for bit.
//!
//! The inner kernel is compiled three times — generic, AVX2 and AVX-512F via
//! `#[target_feature]` — and dispatched once per `FactorizedCircuit` from
//! runtime CPU detection ([`Kernel::detect`]). All versions run the same
//! per-lane operation sequence; Rust never contracts `a*b + c` into FMA or
//! reassociates floats, so the wider builds change throughput, not values.
//!
//! # Loading values without a netlist
//!
//! [`FactorizedCircuit::sweep`] takes a [`LinearCircuit`] and checks its
//! structure against the template element by element. A caller that
//! assembles one netlist per sample can skip building it altogether:
//! [`FactorizedCircuit::writer`] returns a [`ValueWriter`], an
//! [`ElementSink`] that writes each element's value straight into the
//! compiled plan while confirming its nodes match the template's, and
//! [`FactorizedCircuit::sweep_loaded`] then solves into a reused buffer.

use crate::ac::FrequencyResponse;
use crate::complex::Complex;
use crate::error::SpiceError;
use crate::netlist::{ElementSink, LinearCircuit, NodeId};
use crate::simd::{Kernel, LANES};

/// Sentinel for "lane not singular" in the per-lane failure tracker.
const NOT_SINGULAR: usize = usize::MAX;

/// Value source of one real-plane stamp.
#[derive(Debug, Clone, Copy)]
enum ReSrc {
    /// The value of conductance `i`.
    Conductance(usize),
    /// The transconductance of VCCS `i`.
    Vccs(usize),
    /// The constant `1.0` (voltage-source incidence entries).
    Unit,
}

/// One accumulation into the frequency-independent real plane:
/// `re_base[flat] += sign * value(src)`.
#[derive(Debug, Clone, Copy)]
struct ReOp {
    flat: usize,
    sign: f64,
    src: ReSrc,
}

/// One accumulation into the per-frequency imaginary plane:
/// `a_im[flat] += omega * (sign * value of capacitance src)`.
#[derive(Debug, Clone, Copy)]
struct CapOp {
    flat: usize,
    sign: f64,
    src: usize,
}

/// Structural fingerprint of the template circuit; every loaded circuit must
/// match it exactly (values may differ, topology may not).
#[derive(Debug, Clone)]
struct StructSig {
    num_nodes: usize,
    conductances: Vec<(NodeId, NodeId)>,
    capacitances: Vec<(NodeId, NodeId)>,
    vccs: Vec<(NodeId, NodeId, NodeId, NodeId)>,
    isources: Vec<(NodeId, NodeId)>,
    vsources: Vec<(NodeId, NodeId)>,
}

impl StructSig {
    fn of(circuit: &LinearCircuit) -> Self {
        Self {
            num_nodes: circuit.num_nodes(),
            conductances: circuit
                .conductances
                .iter()
                .map(|&(p, q, _)| (p, q))
                .collect(),
            capacitances: circuit
                .capacitances
                .iter()
                .map(|&(p, q, _)| (p, q))
                .collect(),
            vccs: circuit
                .vccs
                .iter()
                .map(|g| (g.out_p, g.out_n, g.in_p, g.in_n))
                .collect(),
            isources: circuit.isources.iter().map(|s| (s.from, s.to)).collect(),
            vsources: circuit.vsources.iter().map(|v| (v.p, v.n)).collect(),
        }
    }

    /// Element-by-element comparison with `circuit`, allocation-free.
    fn matches(&self, circuit: &LinearCircuit) -> bool {
        fn same<T: PartialEq, E>(sig: &[T], elems: &[E], key: impl Fn(&E) -> T) -> bool {
            sig.len() == elems.len() && sig.iter().zip(elems).all(|(s, e)| *s == key(e))
        }
        self.num_nodes == circuit.num_nodes()
            && same(&self.conductances, &circuit.conductances, |&(p, q, _)| {
                (p, q)
            })
            && same(&self.capacitances, &circuit.capacitances, |&(p, q, _)| {
                (p, q)
            })
            && same(&self.vccs, &circuit.vccs, |g| {
                (g.out_p, g.out_n, g.in_p, g.in_n)
            })
            && same(&self.isources, &circuit.isources, |s| (s.from, s.to))
            && same(&self.vsources, &circuit.vsources, |v| (v.p, v.n))
    }
}

/// A structurally factorized linear circuit: assembly plan, loaded sample
/// values and lane-solver scratch, reusable across all samples of a design.
///
/// Build it once from a template circuit, then call
/// [`FactorizedCircuit::sweep`] for every sample sharing that structure. No
/// allocation happens per sweep.
#[derive(Debug, Clone)]
pub struct FactorizedCircuit {
    num_nodes: usize,
    dim: usize,
    sig: StructSig,
    kernel: Kernel,
    re_prog: Vec<ReOp>,
    cap_prog: Vec<CapOp>,
    /// `(rhs index, sign, isource index)` accumulations.
    rhs_add: Vec<(usize, f64, usize)>,
    /// `(rhs row, vsource index)` assignments (after the accumulations).
    rhs_set: Vec<(usize, usize)>,
    // Element values of the loaded sample, indexed like the template's
    // element lists; `loaded` says whether they form a complete sample.
    conductance_vals: Vec<f64>,
    capacitance_vals: Vec<f64>,
    vccs_vals: Vec<f64>,
    isource_vals: Vec<f64>,
    vsource_vals: Vec<f64>,
    loaded: bool,
    // Stamped planes of the loaded sample.
    re_base: Vec<f64>,
    cap_vals: Vec<(usize, f64)>,
    rhs_re: Vec<f64>,
    // Lane-broadcast copies of `re_base` / `rhs_re`, built once per sample so
    // each frequency chunk starts from a single memcpy instead of per-element
    // fills.
    re_bcast: Vec<f64>,
    rhs_bcast: Vec<f64>,
    /// Per-row masks of the entries no stamp program writes: bit `j` of row
    /// `i` is set when `(i, j)` is `+0.0` in both planes of every sample.
    zero_init: Vec<u64>,
    lanes: LaneSystem,
    /// Output phasors of the last [`Self::sweep_loaded`].
    response: Vec<Complex>,
}

impl FactorizedCircuit {
    /// Performs the structural analysis of `circuit`: compiles the MNA stamp
    /// pattern into flat index programs and sizes the lane scratch. The
    /// template's element values are irrelevant; only its topology is kept.
    pub fn new(circuit: &LinearCircuit) -> Self {
        Self::new_on(circuit, Kernel::detect())
    }

    /// [`Self::new`] sweeping on an explicitly chosen compiled kernel — every
    /// kernel returns the same bits; this exists so tests can cover each one.
    ///
    /// # Panics
    ///
    /// Panics if the running CPU does not support `kernel`.
    pub fn new_on(circuit: &LinearCircuit, kernel: Kernel) -> Self {
        assert!(kernel.is_supported(), "kernel {kernel:?} unsupported here");
        let n = circuit.num_nodes();
        let m = circuit.num_vsources();
        let dim = (n - 1) + m;
        let idx = |node: NodeId| -> Option<usize> {
            if node == 0 {
                None
            } else {
                Some(node - 1)
            }
        };
        let flat = |i: usize, j: usize| i * dim + j;

        let mut re_prog = Vec::new();
        let mut cap_prog = Vec::new();
        // Admittance stamp pattern, in the exact emission order of
        // `ac::solve_at`'s `stamp_adm`: (i,i) +, (j,j) +, (i,j) -, (j,i) -.
        for (t, &(p, q, _)) in circuit.conductances.iter().enumerate() {
            let src = ReSrc::Conductance(t);
            if let Some(i) = idx(p) {
                re_prog.push(ReOp {
                    flat: flat(i, i),
                    sign: 1.0,
                    src,
                });
            }
            if let Some(j) = idx(q) {
                re_prog.push(ReOp {
                    flat: flat(j, j),
                    sign: 1.0,
                    src,
                });
            }
            if let (Some(i), Some(j)) = (idx(p), idx(q)) {
                re_prog.push(ReOp {
                    flat: flat(i, j),
                    sign: -1.0,
                    src,
                });
                re_prog.push(ReOp {
                    flat: flat(j, i),
                    sign: -1.0,
                    src,
                });
            }
        }
        for (t, &(p, q, _)) in circuit.capacitances.iter().enumerate() {
            if let Some(i) = idx(p) {
                cap_prog.push(CapOp {
                    flat: flat(i, i),
                    sign: 1.0,
                    src: t,
                });
            }
            if let Some(j) = idx(q) {
                cap_prog.push(CapOp {
                    flat: flat(j, j),
                    sign: 1.0,
                    src: t,
                });
            }
            if let (Some(i), Some(j)) = (idx(p), idx(q)) {
                cap_prog.push(CapOp {
                    flat: flat(i, j),
                    sign: -1.0,
                    src: t,
                });
                cap_prog.push(CapOp {
                    flat: flat(j, i),
                    sign: -1.0,
                    src: t,
                });
            }
        }
        for (t, g) in circuit.vccs.iter().enumerate() {
            for (out_node, sign_out) in [(g.out_p, 1.0), (g.out_n, -1.0)] {
                if let Some(i) = idx(out_node) {
                    if let Some(j) = idx(g.in_p) {
                        re_prog.push(ReOp {
                            flat: flat(i, j),
                            sign: sign_out,
                            src: ReSrc::Vccs(t),
                        });
                    }
                    if let Some(j) = idx(g.in_n) {
                        re_prog.push(ReOp {
                            flat: flat(i, j),
                            sign: -sign_out,
                            src: ReSrc::Vccs(t),
                        });
                    }
                }
            }
        }
        let mut rhs_add = Vec::new();
        for (t, s) in circuit.isources.iter().enumerate() {
            if let Some(i) = idx(s.from) {
                rhs_add.push((i, -1.0, t));
            }
            if let Some(i) = idx(s.to) {
                rhs_add.push((i, 1.0, t));
            }
        }
        let mut rhs_set = Vec::new();
        for (k, vs) in circuit.vsources.iter().enumerate() {
            let row = (n - 1) + k;
            if let Some(i) = idx(vs.p) {
                re_prog.push(ReOp {
                    flat: flat(i, row),
                    sign: 1.0,
                    src: ReSrc::Unit,
                });
                re_prog.push(ReOp {
                    flat: flat(row, i),
                    sign: 1.0,
                    src: ReSrc::Unit,
                });
            }
            if let Some(i) = idx(vs.n) {
                re_prog.push(ReOp {
                    flat: flat(i, row),
                    sign: -1.0,
                    src: ReSrc::Unit,
                });
                re_prog.push(ReOp {
                    flat: flat(row, i),
                    sign: -1.0,
                    src: ReSrc::Unit,
                });
            }
            rhs_set.push((row, k));
        }

        // Every entry starts known zero and each stamped one loses its bit.
        let mut zero_init = vec![!0u64; dim];
        for f in re_prog
            .iter()
            .map(|op| op.flat)
            .chain(cap_prog.iter().map(|op| op.flat))
        {
            let (i, j) = (f / dim, f % dim);
            if j < 64 {
                zero_init[i] &= !(1 << j);
            }
        }
        let n_caps = cap_prog.len();
        Self {
            num_nodes: n,
            dim,
            sig: StructSig::of(circuit),
            kernel,
            re_prog,
            cap_prog,
            rhs_add,
            rhs_set,
            conductance_vals: vec![0.0; circuit.conductances.len()],
            capacitance_vals: vec![0.0; circuit.capacitances.len()],
            vccs_vals: vec![0.0; circuit.vccs.len()],
            isource_vals: vec![0.0; circuit.isources.len()],
            vsource_vals: vec![0.0; circuit.vsources.len()],
            loaded: false,
            re_base: vec![0.0; dim * dim],
            cap_vals: vec![(0, 0.0); n_caps],
            rhs_re: vec![0.0; dim],
            re_bcast: vec![0.0; dim * dim * LANES],
            rhs_bcast: vec![0.0; dim * LANES],
            zero_init,
            lanes: LaneSystem::new(dim),
            response: Vec::new(),
        }
    }

    /// Returns `true` when `circuit` has exactly the structure this plan was
    /// compiled from (same nodes, same elements in the same order).
    pub fn matches(&self, circuit: &LinearCircuit) -> bool {
        self.sig.matches(circuit)
    }

    /// Loads the element values of `circuit` for [`Self::sweep_loaded`].
    ///
    /// # Panics
    ///
    /// Panics if `circuit` does not structurally match the template.
    pub fn load(&mut self, circuit: &LinearCircuit) {
        assert!(
            self.matches(circuit),
            "circuit structure differs from the factorized template"
        );
        for (d, e) in self.conductance_vals.iter_mut().zip(&circuit.conductances) {
            *d = e.2;
        }
        for (d, e) in self.capacitance_vals.iter_mut().zip(&circuit.capacitances) {
            *d = e.2;
        }
        for (d, g) in self.vccs_vals.iter_mut().zip(&circuit.vccs) {
            *d = g.gm;
        }
        for (d, src) in self.isource_vals.iter_mut().zip(&circuit.isources) {
            *d = src.amps;
        }
        for (d, v) in self.vsource_vals.iter_mut().zip(&circuit.vsources) {
            *d = v.ac;
        }
        self.loaded = true;
    }

    /// Starts loading a sample's element values without building its
    /// netlist: stamp the sample's elements into the returned writer, in the
    /// template's order, then call [`ValueWriter::finish`].
    pub fn writer(&mut self) -> ValueWriter<'_> {
        self.loaded = false;
        ValueWriter {
            fac: self,
            num_nodes: 1,
            next: [0; 5],
            matched: true,
        }
    }

    /// Runs the loaded element values through the precomputed stamp
    /// programs: real plane, signed capacitances and right-hand side.
    fn stamp(&mut self) {
        self.re_base.iter_mut().for_each(|v| *v = 0.0);
        for op in &self.re_prog {
            let val = match op.src {
                ReSrc::Conductance(t) => self.conductance_vals[t],
                ReSrc::Vccs(t) => self.vccs_vals[t],
                ReSrc::Unit => 1.0,
            };
            self.re_base[op.flat] += op.sign * val;
        }
        for (slot, op) in self.cap_vals.iter_mut().zip(&self.cap_prog) {
            *slot = (op.flat, op.sign * self.capacitance_vals[op.src]);
        }
        self.rhs_re.iter_mut().for_each(|v| *v = 0.0);
        for &(i, sign, t) in &self.rhs_add {
            self.rhs_re[i] += sign * self.isource_vals[t];
        }
        for &(row, k) in &self.rhs_set {
            self.rhs_re[row] = self.vsource_vals[k];
        }
        for (e, &v) in self.re_base.iter().enumerate() {
            self.re_bcast[e * LANES..(e + 1) * LANES].fill(v);
        }
        for (i, &v) in self.rhs_re.iter().enumerate() {
            self.rhs_bcast[i * LANES..(i + 1) * LANES].fill(v);
        }
    }

    /// Sweeps `circuit` over `freqs`, recording the phasor at `output` —
    /// bit-for-bit identical to [`crate::ac::sweep`] on the same circuit,
    /// including which frequency fails first and with which pivot on singular
    /// systems.
    ///
    /// # Errors
    ///
    /// Returns the same [`SpiceError::SingularMatrix`] the scalar sweep would.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` does not structurally match the template.
    pub fn sweep(
        &mut self,
        circuit: &LinearCircuit,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<FrequencyResponse, SpiceError> {
        self.load(circuit);
        let values = self.sweep_loaded(output, freqs)?.to_vec();
        Ok(FrequencyResponse {
            freqs: freqs.to_vec(),
            values,
        })
    }

    /// [`Self::sweep`] of the values last loaded by [`Self::load`] or a
    /// finished [`ValueWriter`], into a buffer reused across calls: no
    /// allocation once the buffer has grown to `freqs.len()`.
    ///
    /// # Errors
    ///
    /// Returns the same [`SpiceError::SingularMatrix`] the scalar sweep would.
    ///
    /// # Panics
    ///
    /// Panics if no complete sample is loaded.
    pub fn sweep_loaded(
        &mut self,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<&[Complex], SpiceError> {
        assert!(
            self.loaded,
            "no complete sample loaded into the factorized circuit"
        );
        self.stamp();
        let mut values = std::mem::take(&mut self.response);
        values.clear();
        let result = self.solve_sweep(output, freqs, &mut values);
        self.response = values;
        result.map(|()| self.response.as_slice())
    }

    /// The lane-chunked sweep of the stamped planes, pushing one phasor per
    /// frequency onto `values`.
    fn solve_sweep(
        &mut self,
        output: NodeId,
        freqs: &[f64],
        values: &mut Vec<Complex>,
    ) -> Result<(), SpiceError> {
        let dim = self.dim;
        if dim == 0 {
            values.resize(freqs.len(), Complex::ZERO);
            return Ok(());
        }
        debug_assert!(output < self.num_nodes, "output node out of range");
        let out_idx = if output == 0 { None } else { Some(output - 1) };
        // Back-substitution solves rows `first_row..dim`, all the output
        // unknown depends on; a ground output reads none of them.
        let first_row = out_idx.unwrap_or(dim);

        let n_freqs = freqs.len();
        let mut start = 0;
        while start < n_freqs {
            // Tail chunks repeat the last frequency in the padding lanes; the
            // duplicate results are discarded.
            let real_lanes = (n_freqs - start).min(LANES);
            let mut omegas = [0.0f64; LANES];
            for (l, omega) in omegas.iter_mut().enumerate() {
                let fi = (start + l).min(n_freqs - 1);
                *omega = 2.0 * std::f64::consts::PI * freqs[fi];
            }

            // Broadcast the real plane and right-hand side into the lanes,
            // then accumulate the per-frequency imaginary plane.
            let sys = &mut self.lanes;
            sys.a_re.copy_from_slice(&self.re_bcast);
            sys.a_im.iter_mut().for_each(|v| *v = 0.0);
            for &(fl, c) in &self.cap_vals {
                let lanes = &mut sys.a_im[fl * LANES..(fl + 1) * LANES];
                for (l, v) in lanes.iter_mut().enumerate() {
                    *v += omegas[l] * c;
                }
            }
            sys.x_re.copy_from_slice(&self.rhs_bcast);
            sys.x_im.iter_mut().for_each(|v| *v = 0.0);
            sys.zero.copy_from_slice(&self.zero_init);

            let mut sing = [NOT_SINGULAR; LANES];
            match self.kernel {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `new_on` accepted this variant only after
                // `is_x86_feature_detected!("avx512f")` returned true.
                Kernel::Avx512 => unsafe { solve_lanes_avx512(sys, first_row, &mut sing) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: gated on `is_x86_feature_detected!("avx2")`.
                Kernel::Avx2 => unsafe { solve_lanes_avx2(sys, first_row, &mut sing) },
                Kernel::Generic => solve_lanes_impl(sys, first_row, &mut sing),
            }

            // Frequencies are processed in ascending order, so the first
            // singular real lane is the first failing frequency overall —
            // matching the scalar sweep's early return.
            for &s in sing.iter().take(real_lanes) {
                if s != NOT_SINGULAR {
                    return Err(SpiceError::SingularMatrix { pivot: s });
                }
            }
            match out_idx {
                None => values.extend((0..real_lanes).map(|_| Complex::ZERO)),
                Some(oi) => {
                    let re = &self.lanes.x_re[oi * LANES..][..real_lanes];
                    let im = &self.lanes.x_im[oi * LANES..][..real_lanes];
                    values.extend(re.iter().zip(im).map(|(&r, &i)| Complex::new(r, i)));
                }
            }
            start += LANES;
        }
        Ok(())
    }
}

/// Writes one sample's element values into a [`FactorizedCircuit`] through
/// the [`ElementSink`] surface, checking as it goes that every element lands
/// on the template's nodes — an integer comparison per element, no netlist
/// and no allocation. Obtained from [`FactorizedCircuit::writer`].
#[derive(Debug)]
pub struct ValueWriter<'a> {
    fac: &'a mut FactorizedCircuit,
    num_nodes: usize,
    /// Next element index per kind, indexed by the `ValueWriter` kind
    /// constants.
    next: [usize; 5],
    matched: bool,
}

impl ValueWriter<'_> {
    const CONDUCTANCE: usize = 0;
    const CAPACITANCE: usize = 1;
    const VCCS: usize = 2;
    const ISOURCE: usize = 3;
    const VSOURCE: usize = 4;

    /// Completes the sample. Returns `true` — and makes the values available
    /// to [`FactorizedCircuit::sweep_loaded`] — when the written elements had
    /// exactly the template's structure, as [`FactorizedCircuit::matches`]
    /// would judge the same netlist built as a [`LinearCircuit`] from
    /// [`LinearCircuit::new`]. On `false` nothing is loaded and the caller
    /// must fall back to a freshly built netlist.
    pub fn finish(self) -> bool {
        let sig = &self.fac.sig;
        let complete = self.next
            == [
                sig.conductances.len(),
                sig.capacitances.len(),
                sig.vccs.len(),
                sig.isources.len(),
                sig.vsources.len(),
            ];
        self.fac.loaded = self.matched && complete && self.num_nodes == sig.num_nodes;
        self.fac.loaded
    }

    /// Mirrors [`LinearCircuit`]'s node-count growth.
    fn grow(&mut self, max_node: NodeId) {
        if max_node >= self.num_nodes {
            self.num_nodes = max_node + 1;
        }
    }

    /// Claims the next element index of `kind`.
    fn slot(&mut self, kind: usize) -> usize {
        let t = self.next[kind];
        self.next[kind] += 1;
        t
    }
}

impl ElementSink for ValueWriter<'_> {
    fn node(&mut self) -> NodeId {
        let id = self.num_nodes;
        self.num_nodes += 1;
        id
    }

    fn add_conductance(&mut self, a: NodeId, b: NodeId, siemens: f64) {
        self.grow(a.max(b));
        let t = self.slot(Self::CONDUCTANCE);
        if self.fac.sig.conductances.get(t) == Some(&(a, b)) {
            self.fac.conductance_vals[t] = siemens;
        } else {
            self.matched = false;
        }
    }

    fn add_capacitance(&mut self, a: NodeId, b: NodeId, farads: f64) {
        self.grow(a.max(b));
        let t = self.slot(Self::CAPACITANCE);
        if self.fac.sig.capacitances.get(t) == Some(&(a, b)) {
            self.fac.capacitance_vals[t] = farads;
        } else {
            self.matched = false;
        }
    }

    fn add_vccs(&mut self, out_p: NodeId, out_n: NodeId, in_p: NodeId, in_n: NodeId, gm: f64) {
        self.grow(out_p.max(out_n).max(in_p).max(in_n));
        let t = self.slot(Self::VCCS);
        if self.fac.sig.vccs.get(t) == Some(&(out_p, out_n, in_p, in_n)) {
            self.fac.vccs_vals[t] = gm;
        } else {
            self.matched = false;
        }
    }

    fn add_isource(&mut self, from: NodeId, to: NodeId, amps: f64) {
        self.grow(from.max(to));
        let t = self.slot(Self::ISOURCE);
        if self.fac.sig.isources.get(t) == Some(&(from, to)) {
            self.fac.isource_vals[t] = amps;
        } else {
            self.matched = false;
        }
    }

    fn add_vsource(&mut self, p: NodeId, n: NodeId, ac: f64) {
        self.grow(p.max(n));
        let t = self.slot(Self::VSOURCE);
        if self.fac.sig.vsources.get(t) == Some(&(p, n)) {
            self.fac.vsource_vals[t] = ac;
        } else {
            self.matched = false;
        }
    }
}

/// One SIMD-friendly group of [`LANES`] doubles.
type Lane = [f64; LANES];

#[inline(always)]
fn load(s: &[f64], off: usize) -> Lane {
    let mut v = [0.0f64; LANES];
    v.copy_from_slice(&s[off..off + LANES]);
    v
}

#[inline(always)]
fn store(s: &mut [f64], off: usize, v: &Lane) {
    s[off..off + LANES].copy_from_slice(v);
}

/// Swaps two disjoint [`LANES`]-wide blocks of `s`.
#[inline(always)]
fn swap_blocks(s: &mut [f64], a: usize, b: usize) {
    let ta = load(s, a);
    let tb = load(s, b);
    store(s, a, &tb);
    store(s, b, &ta);
}

/// One flag per lane.
type Mask = [bool; LANES];

/// The lanes where `pred` holds.
#[inline(always)]
fn lane_mask(pred: impl Fn(usize) -> bool) -> Mask {
    let mut m = [false; LANES];
    for (l, v) in m.iter_mut().enumerate() {
        *v = pred(l);
    }
    m
}

// Non-short-circuiting folds, which vectorize into mask reductions.
#[inline(always)]
fn all(m: &Mask) -> bool {
    m.iter().fold(true, |a, &b| a & b)
}

#[inline(always)]
fn any(m: &Mask) -> bool {
    m.iter().fold(false, |a, &b| a | b)
}

/// One complex divisor per lane, prepared for Smith's division — the
/// branchless (and therefore vectorizable) replica of [`Complex`]'s `Div`.
///
/// Smith's `|br| >= |bi|` branch divides `a` by `b` as
/// `((ar + ai*r) / d, (ai - ar*r) / d)` with `r = bi/br`, `d = br + bi*r`,
/// and the other branch as `((ar*r + ai) / d, (ai*r - ar) / d)` with
/// `r = br/bi`, `d = br*r + bi`. Both are `((ar*ca + ai*cb) / d,
/// (ai*ca - ar*cb) / d)` with `(ca, cb)` = `(1, r)` or `(r, 1)`, since
/// multiplying by `1.0` is exact and IEEE addition commutes. `ca`, `cb` and
/// `d` depend on the divisor alone, so one pivot's are computed once for all
/// the rows it eliminates and for the back-substitution through its row.
/// The scalar `0/0 -> NaN` early return needs no replica: a zero pivot marks
/// its lane singular before any division result is used.
#[derive(Debug, Clone, Copy)]
struct SmithDivisor {
    ca: Lane,
    cb: Lane,
    d: Lane,
}

impl SmithDivisor {
    #[inline(always)]
    fn new(br: &Lane, bi: &Lane) -> Self {
        let first = lane_mask(|l| br[l].abs() >= bi[l].abs());
        let mut s = Self {
            ca: [1.0; LANES],
            cb: [1.0; LANES],
            d: [0.0; LANES],
        };
        // The branch is usually uniform across a chunk of adjacent
        // frequencies; evaluating only the taken side halves the divisions
        // and stores the bits the per-lane select would pick.
        if all(&first) {
            for l in 0..LANES {
                let r = bi[l] / br[l];
                s.cb[l] = r;
                s.d[l] = br[l] + bi[l] * r;
            }
        } else if !any(&first) {
            for l in 0..LANES {
                let r = br[l] / bi[l];
                s.ca[l] = r;
                s.d[l] = br[l] * r + bi[l];
            }
        } else {
            for l in 0..LANES {
                let r1 = bi[l] / br[l];
                let d1 = br[l] + bi[l] * r1;
                let r2 = br[l] / bi[l];
                let d2 = br[l] * r2 + bi[l];
                s.ca[l] = if first[l] { 1.0 } else { r2 };
                s.cb[l] = if first[l] { r1 } else { 1.0 };
                s.d[l] = if first[l] { d1 } else { d2 };
            }
        }
        s
    }

    /// `(ar + i*ai) / divisor`, lane by lane.
    #[inline(always)]
    fn div(&self, ar: &Lane, ai: &Lane) -> (Lane, Lane) {
        let mut qr = [0.0f64; LANES];
        let mut qi = [0.0f64; LANES];
        for l in 0..LANES {
            qr[l] = (ar[l] * self.ca[l] + ai[l] * self.cb[l]) / self.d[l];
            qi[l] = (ai[l] * self.ca[l] - ar[l] * self.cb[l]) / self.d[l];
        }
        (qr, qi)
    }
}

/// The lane scratch of one frequency chunk: `dim*dim*LANES` matrix planes,
/// `dim*LANES` right-hand-side/solution planes, each step's prepared pivot
/// divisor, and per-row masks of the entries known to be `+0.0` in every
/// lane.
#[derive(Debug, Clone)]
struct LaneSystem {
    n: usize,
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    pivots: Vec<SmithDivisor>,
    /// Bit `j` of `zero[i]` set: entry `(i, j)` is `+0.0` in both planes of
    /// every lane. Cleared bits claim nothing; columns `>= 64` have no bit.
    zero: Vec<u64>,
}

impl LaneSystem {
    fn new(n: usize) -> Self {
        let none = SmithDivisor {
            ca: [0.0; LANES],
            cb: [0.0; LANES],
            d: [0.0; LANES],
        };
        Self {
            n,
            a_re: vec![0.0; n * n * LANES],
            a_im: vec![0.0; n * n * LANES],
            x_re: vec![0.0; n * LANES],
            x_im: vec![0.0; n * LANES],
            pivots: vec![none; n],
            zero: vec![0; n],
        }
    }
}

/// Whether `mask` records column `j` as zero in every lane.
#[inline(always)]
fn known_zero(mask: u64, j: usize) -> bool {
    j < 64 && (mask >> j) & 1 == 1
}

/// Per-lane complex LU with partial pivoting: [`crate::linalg::clu_solve_in_place`]
/// replicated over [`LANES`] independent systems in SoA layout
/// (`plane[element * LANES + lane]`). Lanes never exchange data; a lane whose
/// pivot underflows records the failing step in `sing` and keeps running on
/// garbage, which cannot leak into other lanes. Work the zero masks prove a
/// no-op is skipped, and back-substitution solves only rows `first_row..n`.
#[inline(always)]
fn solve_lanes_impl(sys: &mut LaneSystem, first_row: usize, sing: &mut [usize; LANES]) {
    // A compile-time size unrolls the index arithmetic and drops most bounds
    // checks. The two testbench half circuits have 5 and 6 unknowns; other
    // sizes run the same body with the size read at run time.
    match sys.n {
        5 => solve_lanes_sized::<5>(sys, first_row, sing),
        6 => solve_lanes_sized::<6>(sys, first_row, sing),
        _ => solve_lanes_sized::<0>(sys, first_row, sing),
    }
}

/// [`solve_lanes_impl`] for `N` unknowns, or `sys.n` unknowns when `N == 0`.
#[inline(always)]
fn solve_lanes_sized<const N: usize>(
    sys: &mut LaneSystem,
    first_row: usize,
    sing: &mut [usize; LANES],
) {
    const L: usize = LANES;
    let n = if N == 0 { sys.n } else { N };
    let LaneSystem {
        a_re,
        a_im,
        x_re,
        x_im,
        pivots,
        zero,
        ..
    } = sys;
    for k in 0..n {
        let d = (k * n + k) * L;
        // Per-lane pivot search on |.|^2, exactly as the scalar kernel. A row
        // whose entry is zero in every lane has |.|^2 == 0, which never
        // beats `max` (a sum of squares, or NaN), so it is not read.
        let mut p = [k; L];
        let dr = load(a_re, d);
        let di = load(a_im, d);
        let mut max = [0.0f64; L];
        for l in 0..L {
            max[l] = dr[l] * dr[l] + di[l] * di[l];
        }
        #[allow(clippy::needless_range_loop)] // `i` also strides the planes
        for i in (k + 1)..n {
            if known_zero(zero[i], k) {
                continue;
            }
            let er = load(a_re, (i * n + k) * L);
            let ei = load(a_im, (i * n + k) * L);
            for l in 0..L {
                let v = er[l] * er[l] + ei[l] * ei[l];
                let gt = v > max[l];
                max[l] = if gt { v } else { max[l] };
                p[l] = if gt { i } else { p[l] };
            }
        }
        for l in 0..L {
            let fails = (max[l] < 1e-300) & (sing[l] == NOT_SINGULAR);
            sing[l] = if fails { k } else { sing[l] };
        }
        // Row swap. Adjacent frequencies almost always pick the same pivot
        // row, so a whole-lane-block swap is the common case; fall back to
        // per-lane swaps when the lanes disagree. Columns `< k` of rows
        // `>= k` are eliminated and never read again, so they are not moved.
        if p.iter().fold(0, |acc, &v| acc | (v ^ p[0])) == 0 {
            let pl = p[0];
            if pl != k {
                for j in k..n {
                    let ko = (k * n + j) * L;
                    let po = (pl * n + j) * L;
                    swap_blocks(a_re, ko, po);
                    swap_blocks(a_im, ko, po);
                }
                swap_blocks(x_re, k * L, pl * L);
                swap_blocks(x_im, k * L, pl * L);
                zero.swap(k, pl);
            }
        } else {
            // Every row touched now mixes lanes of row `k` and of the
            // lanes' pivot rows: only a zero common to all of them stays.
            let mut common = zero[k];
            #[allow(clippy::needless_range_loop)] // `l` also strides the planes
            for l in 0..L {
                let pl = p[l];
                common &= zero[pl];
                if pl != k {
                    for j in k..n {
                        a_re.swap((k * n + j) * L + l, (pl * n + j) * L + l);
                        a_im.swap((k * n + j) * L + l, (pl * n + j) * L + l);
                    }
                    x_re.swap(k * L + l, pl * L + l);
                    x_im.swap(k * L + l, pl * L + l);
                }
            }
            zero[k] = common;
            for &pl in &p {
                zero[pl] = common;
            }
        }
        let piv_re = load(a_re, d);
        let piv_im = load(a_im, d);
        let piv = SmithDivisor::new(&piv_re, &piv_im);
        pivots[k] = piv;
        // With a finite, nonzero pivot in every lane, Smith's division of a
        // zero entry yields `±0` in every lane: the scalar `f == 0` skip.
        let piv_ok = all(&lane_mask(|l| {
            piv_re[l].is_finite()
                & piv_im[l].is_finite()
                & ((piv_re[l] != 0.0) | (piv_im[l] != 0.0))
        }));
        let zk = zero[k];
        let xk_re = load(x_re, k * L);
        let xk_im = load(x_im, k * L);

        #[allow(clippy::needless_range_loop)] // `i` also strides the planes
        for i in (k + 1)..n {
            if piv_ok && known_zero(zero[i], k) {
                continue;
            }
            let e = (i * n + k) * L;
            let er = load(a_re, e);
            let ei = load(a_im, e);
            let (f_re, f_im) = piv.div(&er, &ei);
            // Lanes outside `live` replicate the scalar `f == Complex::ZERO`
            // continue: they keep their old values through the selects below.
            let live = lane_mask(|l| (f_re[l] != 0.0) | (f_im[l] != 0.0));
            // MNA matrices are sparse: an all-lanes skip makes the whole row
            // update a no-op (each select keeps the old value), so skipping
            // it outright changes no stored bit.
            if !any(&live) {
                continue;
            }
            // A finite `f` times a pivot-row zero is `±0`, and `t - (±0)` is
            // `t` for every `t != -0.0`: such columns keep their bits and
            // their zero bits. Other columns may fill in; a non-finite `f`
            // may turn any column into NaN.
            let f_finite = all(&lane_mask(|l| f_re[l].is_finite() & f_im[l].is_finite()));
            let skip_col = |j: usize| f_finite && known_zero(zk, j);
            zero[i] = if f_finite { zero[i] & zk } else { 0 };
            if all(&live) {
                // No lane skips (the common case for structurally non-zero
                // entries): every select below would pick the freshly computed
                // value, so the select-free loops store the identical bits.
                store(a_re, e, &[0.0; L]);
                store(a_im, e, &[0.0; L]);
                for j in (k + 1)..n {
                    if skip_col(j) {
                        continue;
                    }
                    let sr = load(a_re, (k * n + j) * L);
                    let si = load(a_im, (k * n + j) * L);
                    let t = (i * n + j) * L;
                    let mut tr = load(a_re, t);
                    let mut ti = load(a_im, t);
                    for l in 0..L {
                        tr[l] -= f_re[l] * sr[l] - f_im[l] * si[l];
                        ti[l] -= f_re[l] * si[l] + f_im[l] * sr[l];
                    }
                    store(a_re, t, &tr);
                    store(a_im, t, &ti);
                }
                let t = i * L;
                let mut tr = load(x_re, t);
                let mut ti = load(x_im, t);
                for l in 0..L {
                    tr[l] -= f_re[l] * xk_re[l] - f_im[l] * xk_im[l];
                    ti[l] -= f_re[l] * xk_im[l] + f_im[l] * xk_re[l];
                }
                store(x_re, t, &tr);
                store(x_im, t, &ti);
                continue;
            }
            let mut zr = [0.0f64; L];
            let mut zi = [0.0f64; L];
            for l in 0..L {
                zr[l] = if !live[l] { er[l] } else { 0.0 };
                zi[l] = if !live[l] { ei[l] } else { 0.0 };
            }
            store(a_re, e, &zr);
            store(a_im, e, &zi);
            for j in (k + 1)..n {
                if skip_col(j) {
                    continue;
                }
                let sr = load(a_re, (k * n + j) * L);
                let si = load(a_im, (k * n + j) * L);
                let t = (i * n + j) * L;
                let tr = load(a_re, t);
                let ti = load(a_im, t);
                let mut or = [0.0f64; L];
                let mut oi = [0.0f64; L];
                for l in 0..L {
                    let ur = f_re[l] * sr[l] - f_im[l] * si[l];
                    let ui = f_re[l] * si[l] + f_im[l] * sr[l];
                    let nr = tr[l] - ur;
                    let ni = ti[l] - ui;
                    or[l] = if !live[l] { tr[l] } else { nr };
                    oi[l] = if !live[l] { ti[l] } else { ni };
                }
                store(a_re, t, &or);
                store(a_im, t, &oi);
            }
            let t = i * L;
            let tr = load(x_re, t);
            let ti = load(x_im, t);
            let mut or = [0.0f64; L];
            let mut oi = [0.0f64; L];
            for l in 0..L {
                let ur = f_re[l] * xk_re[l] - f_im[l] * xk_im[l];
                let ui = f_re[l] * xk_im[l] + f_im[l] * xk_re[l];
                let nr = tr[l] - ur;
                let ni = ti[l] - ui;
                or[l] = if !live[l] { tr[l] } else { nr };
                oi[l] = if !live[l] { ti[l] } else { ni };
            }
            store(x_re, t, &or);
            store(x_im, t, &oi);
        }
    }
    // Back substitution, lane-parallel. Row `i` reads only rows `> i`, so
    // the rows the caller reads need no row below `first_row`; row `i`'s
    // diagonal is step `i`'s pivot, whose divisor is already prepared.
    for i in (first_row..n).rev() {
        let mut acc_re = load(x_re, i * L);
        let mut acc_im = load(x_im, i * L);
        for j in (i + 1)..n {
            let sr = load(a_re, (i * n + j) * L);
            let si = load(a_im, (i * n + j) * L);
            let tr = load(x_re, j * L);
            let ti = load(x_im, j * L);
            for l in 0..L {
                let mr = sr[l] * tr[l] - si[l] * ti[l];
                let mi = sr[l] * ti[l] + si[l] * tr[l];
                acc_re[l] -= mr;
                acc_im[l] -= mi;
            }
        }
        let (qr, qi) = pivots[i].div(&acc_re, &acc_im);
        store(x_re, i * L, &qr);
        store(x_im, i * L, &qi);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn solve_lanes_avx512(sys: &mut LaneSystem, first_row: usize, sing: &mut [usize; LANES]) {
    solve_lanes_impl(sys, first_row, sing);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn solve_lanes_avx2(sys: &mut LaneSystem, first_row: usize, sing: &mut [usize; LANES]) {
    solve_lanes_impl(sys, first_row, sing);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{log_space, sweep};

    fn bits(c: Complex) -> (u64, u64) {
        (c.re.to_bits(), c.im.to_bits())
    }

    fn amplifier(gm: f64, r: f64, c: f64) -> (LinearCircuit, NodeId) {
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_vccs(vout, 0, vin, 0, gm);
        ckt.add_resistor(vout, 0, r);
        ckt.add_capacitance(vout, 0, c);
        (ckt, vout)
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar() {
        let (ckt, out) = amplifier(1e-3, 1e6, 1e-12);
        let freqs = log_space(1.0, 1e12, 50);
        let scalar = sweep(&ckt, out, &freqs).unwrap();
        let mut fac = FactorizedCircuit::new(&ckt);
        let batched = fac.sweep(&ckt, out, &freqs).unwrap();
        assert_eq!(scalar.freqs, batched.freqs);
        for (i, (s, b)) in scalar.values.iter().zip(&batched.values).enumerate() {
            assert_eq!(bits(*s), bits(*b), "mismatch at sweep point {i}");
        }
    }

    #[test]
    fn reloading_new_values_matches_fresh_scalar_sweeps() {
        let freqs = log_space(10.0, 1e11, 23); // deliberately not a LANES multiple
        let (template, out) = amplifier(1e-3, 1e6, 1e-12);
        let mut fac = FactorizedCircuit::new(&template);
        for (gm, r, c) in [(2e-3, 5e5, 2e-12), (5e-4, 2e6, 4e-13), (1e-5, 1e4, 1e-15)] {
            let (ckt, out2) = amplifier(gm, r, c);
            assert_eq!(out, out2);
            let scalar = sweep(&ckt, out, &freqs).unwrap();
            let batched = fac.sweep(&ckt, out, &freqs).unwrap();
            for (s, b) in scalar.values.iter().zip(&batched.values) {
                assert_eq!(bits(*s), bits(*b));
            }
        }
    }

    #[test]
    fn singular_circuit_reports_identical_error() {
        // A floating node (no DC path, no element at all on `mid`'s row once
        // its only capacitor is zero-valued) makes the MNA matrix singular.
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_capacitance(mid, 0, 0.0);
        let freqs = log_space(1.0, 1e6, 11);
        let scalar_err = sweep(&ckt, mid, &freqs).unwrap_err();
        let mut fac = FactorizedCircuit::new(&ckt);
        let batched_err = fac.sweep(&ckt, mid, &freqs).unwrap_err();
        assert_eq!(scalar_err, batched_err);
    }

    #[test]
    #[should_panic(expected = "structure differs")]
    fn structure_mismatch_panics() {
        let (a, out) = amplifier(1e-3, 1e6, 1e-12);
        let mut b = LinearCircuit::new();
        let n1 = b.node();
        b.add_resistor(n1, 0, 1.0);
        let mut fac = FactorizedCircuit::new(&b);
        let _ = fac.sweep(&a, out, &[1.0]);
    }

    /// The `amplifier` topology stamped into any sink.
    fn stamp_amplifier<S: ElementSink>(s: &mut S, gm: f64, r: f64, c: f64) -> NodeId {
        let vin = s.node();
        let vout = s.node();
        s.add_vsource(vin, 0, 1.0);
        s.add_vccs(vout, 0, vin, 0, gm);
        s.add_resistor(vout, 0, r);
        s.add_capacitance(vout, 0, c);
        vout
    }

    #[test]
    fn written_values_sweep_bit_identically_to_scalar() {
        let freqs = log_space(10.0, 1e11, 23);
        let (template, _) = amplifier(1e-3, 1e6, 1e-12);
        let mut fac = FactorizedCircuit::new(&template);
        for (gm, r, c) in [(2e-3, 5e5, 2e-12), (5e-4, 2e6, 4e-13), (1e-5, 1e4, 1e-15)] {
            let mut ckt = LinearCircuit::new();
            let out = stamp_amplifier(&mut ckt, gm, r, c);
            let scalar = sweep(&ckt, out, &freqs).unwrap();
            let mut w = fac.writer();
            assert_eq!(stamp_amplifier(&mut w, gm, r, c), out);
            assert!(w.finish(), "same structure must load");
            let batched = fac.sweep_loaded(out, &freqs).unwrap();
            assert_eq!(batched.len(), scalar.values.len());
            for (s, b) in scalar.values.iter().zip(batched) {
                assert_eq!(bits(*s), bits(*b));
            }
        }
    }

    #[test]
    fn writer_rejects_every_structural_departure() {
        let (template, _) = amplifier(1e-3, 1e6, 1e-12);
        let mut fac = FactorizedCircuit::new(&template);
        let departures: [&dyn Fn(&mut ValueWriter<'_>); 5] = [
            // An extra element.
            &|w| {
                stamp_amplifier(w, 1e-3, 1e6, 1e-12);
                w.add_conductance(2, 0, 1.0);
            },
            // A missing element.
            &|w| {
                let vin = w.node();
                let vout = w.node();
                w.add_vsource(vin, 0, 1.0);
                w.add_vccs(vout, 0, vin, 0, 1e-3);
                w.add_resistor(vout, 0, 1e6);
            },
            // An element on other nodes.
            &|w| {
                let vin = w.node();
                let vout = w.node();
                w.add_vsource(vin, 0, 1.0);
                w.add_vccs(vout, 0, vin, 0, 1e-3);
                w.add_resistor(vout, 0, 1e6);
                w.add_capacitance(vout, vin, 1e-12);
            },
            // An extra, unused node.
            &|w| {
                stamp_amplifier(w, 1e-3, 1e6, 1e-12);
                w.node();
            },
            // An element kind the template lacks.
            &|w| {
                stamp_amplifier(w, 1e-3, 1e6, 1e-12);
                w.add_isource(0, 1, 1e-6);
            },
        ];
        for (k, stamp) in departures.iter().enumerate() {
            let mut w = fac.writer();
            stamp(&mut w);
            assert!(!w.finish(), "departure {k} must not load");
        }
        let mut w = fac.writer();
        stamp_amplifier(&mut w, 1e-3, 1e6, 1e-12);
        assert!(w.finish());
    }

    #[test]
    #[should_panic(expected = "no complete sample loaded")]
    fn sweeping_a_rejected_sample_panics() {
        let (template, out) = amplifier(1e-3, 1e6, 1e-12);
        let mut fac = FactorizedCircuit::new(&template);
        let mut w = fac.writer();
        w.add_conductance(1, 0, 1.0);
        assert!(!w.finish());
        let _ = fac.sweep_loaded(out, &[1.0]);
    }

    #[test]
    fn empty_circuit_sweeps_to_zero() {
        let ckt = LinearCircuit::new();
        let mut fac = FactorizedCircuit::new(&ckt);
        let resp = fac.sweep(&ckt, 0, &[1.0, 10.0, 100.0]).unwrap();
        assert!(resp.values.iter().all(|v| *v == Complex::ZERO));
    }
}
