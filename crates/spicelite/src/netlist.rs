//! Netlist description and modified nodal analysis (MNA) stamping.
//!
//! Two circuit representations are provided:
//!
//! * [`Circuit`] — a nonlinear netlist (linear elements plus [`Mosfet`]
//!   devices) consumed by the Newton–Raphson DC operating-point solver in
//!   [`crate::dc`].
//! * [`LinearCircuit`] — a purely linear small-signal netlist (conductances,
//!   capacitances, VCCSs, independent sources) consumed by the AC solver in
//!   [`crate::ac`]. It can be built directly, or derived from a [`Circuit`]
//!   and a DC solution via [`Circuit::linearize`].
//!
//! Node 0 is always ground.

use crate::error::SpiceError;
use crate::mosfet::{MosType, Mosfet};

/// Identifier of a circuit node. Node `0` is ground.
pub type NodeId = usize;

/// A two-terminal resistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resistor {
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Resistance in ohms (strictly positive).
    pub ohms: f64,
}

/// A two-terminal capacitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Capacitance in farads (non-negative).
    pub farads: f64,
}

/// A voltage-controlled current source: `i(out_p -> out_n) = gm * (v(in_p) - v(in_n))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vccs {
    /// Current exits this node.
    pub out_p: NodeId,
    /// Current enters this node.
    pub out_n: NodeId,
    /// Positive controlling node.
    pub in_p: NodeId,
    /// Negative controlling node.
    pub in_n: NodeId,
    /// Transconductance in siemens.
    pub gm: f64,
}

/// An independent DC current source pushing `amps` from `from` into `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSource {
    /// Node the current is pulled from.
    pub from: NodeId,
    /// Node the current is pushed into.
    pub to: NodeId,
    /// Source current in amperes.
    pub amps: f64,
}

/// An independent voltage source `v(p) - v(n) = volts` (adds an MNA branch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSource {
    /// Positive terminal.
    pub p: NodeId,
    /// Negative terminal.
    pub n: NodeId,
    /// Source voltage in volts.
    pub volts: f64,
    /// Small-signal (AC) amplitude; usually 0 except for the stimulus source.
    pub ac: f64,
}

/// A MOSFET instance in a nonlinear netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct MosInstance {
    /// Instance name, used in diagnostics.
    pub name: String,
    /// Drain node.
    pub d: NodeId,
    /// Gate node.
    pub g: NodeId,
    /// Source node.
    pub s: NodeId,
    /// Bulk node.
    pub b: NodeId,
    /// The device (model card + geometry).
    pub device: Mosfet,
}

/// A nonlinear netlist for DC operating-point analysis.
///
/// # Examples
///
/// ```
/// use spicelite::netlist::Circuit;
///
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node();
/// let out = ckt.node();
/// ckt.add_vsource(vdd, 0, 3.3)?;
/// ckt.add_resistor(vdd, out, 10_000.0)?;
/// ckt.add_resistor(out, 0, 10_000.0)?;
/// let sol = spicelite::dc::solve_dc(&ckt)?;
/// assert!((sol.voltage(out) - 1.65).abs() < 1e-6);
/// # Ok::<(), spicelite::error::SpiceError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    num_nodes: usize,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) vccs: Vec<Vccs>,
    pub(crate) isources: Vec<CurrentSource>,
    pub(crate) vsources: Vec<VoltageSource>,
    pub(crate) mosfets: Vec<MosInstance>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            num_nodes: 1,
            ..Default::default()
        }
    }

    /// Allocates and returns a fresh node id.
    pub fn node(&mut self) -> NodeId {
        let id = self.num_nodes;
        self.num_nodes += 1;
        id
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of independent voltage sources (MNA branch count).
    pub fn num_vsources(&self) -> usize {
        self.vsources.len()
    }

    /// Number of MOSFET instances.
    pub fn num_mosfets(&self) -> usize {
        self.mosfets.len()
    }

    fn check_node(&self, n: NodeId) -> Result<(), SpiceError> {
        if n < self.num_nodes {
            Ok(())
        } else {
            Err(SpiceError::UnknownNode { node: n })
        }
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] for a non-positive resistance and
    /// [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<(), SpiceError> {
        self.check_node(a)?;
        self.check_node(b)?;
        // NaN must be rejected too, hence the negated comparison spelled out.
        if ohms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SpiceError::InvalidElement {
                reason: format!("resistance must be positive, got {ohms}"),
            });
        }
        self.resistors.push(Resistor { a, b, ohms });
        Ok(())
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] for a negative capacitance and
    /// [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> Result<(), SpiceError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if farads < 0.0 {
            return Err(SpiceError::InvalidElement {
                reason: format!("capacitance must be non-negative, got {farads}"),
            });
        }
        self.capacitors.push(Capacitor { a, b, farads });
        Ok(())
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_vccs(
        &mut self,
        out_p: NodeId,
        out_n: NodeId,
        in_p: NodeId,
        in_n: NodeId,
        gm: f64,
    ) -> Result<(), SpiceError> {
        for n in [out_p, out_n, in_p, in_n] {
            self.check_node(n)?;
        }
        self.vccs.push(Vccs {
            out_p,
            out_n,
            in_p,
            in_n,
            gm,
        });
        Ok(())
    }

    /// Adds an independent current source pushing `amps` from `from` into `to`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_isource(&mut self, from: NodeId, to: NodeId, amps: f64) -> Result<(), SpiceError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.isources.push(CurrentSource { from, to, amps });
        Ok(())
    }

    /// Adds an independent voltage source and returns its branch index.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_vsource(&mut self, p: NodeId, n: NodeId, volts: f64) -> Result<usize, SpiceError> {
        self.check_node(p)?;
        self.check_node(n)?;
        self.vsources.push(VoltageSource {
            p,
            n,
            volts,
            ac: 0.0,
        });
        Ok(self.vsources.len() - 1)
    }

    /// Adds an independent voltage source with an AC stimulus amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_vsource_ac(
        &mut self,
        p: NodeId,
        n: NodeId,
        volts: f64,
        ac: f64,
    ) -> Result<usize, SpiceError> {
        let idx = self.add_vsource(p, n, volts)?;
        self.vsources[idx].ac = ac;
        Ok(idx)
    }

    /// Adds a MOSFET instance.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown nodes.
    pub fn add_mosfet(
        &mut self,
        name: impl Into<String>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        device: Mosfet,
    ) -> Result<(), SpiceError> {
        for n in [d, g, s, b] {
            self.check_node(n)?;
        }
        self.mosfets.push(MosInstance {
            name: name.into(),
            d,
            g,
            s,
            b,
            device,
        });
        Ok(())
    }

    /// MOSFET instances in insertion order.
    pub fn mosfets(&self) -> &[MosInstance] {
        &self.mosfets
    }

    /// Voltage sources in insertion order.
    pub fn vsources(&self) -> &[VoltageSource] {
        &self.vsources
    }

    /// Builds the small-signal [`LinearCircuit`] at the operating point
    /// described by `node_voltages` (one entry per node, ground included).
    ///
    /// Every MOSFET is replaced by its small-signal model: a gate-source
    /// controlled `gm` VCCS, a drain-source conductance `gds`, a bulk-source
    /// controlled `gmb` VCCS and the capacitances `cgs`, `cgd`, `cdb`, `csb`.
    /// DC voltage sources become AC shorts (their branches are kept so a
    /// stimulus can be applied through them).
    ///
    /// # Panics
    ///
    /// Panics if `node_voltages.len() != self.num_nodes()`.
    pub fn linearize(&self, node_voltages: &[f64]) -> LinearCircuit {
        assert_eq!(
            node_voltages.len(),
            self.num_nodes,
            "node voltage vector must cover every node"
        );
        let mut lin = LinearCircuit::with_nodes(self.num_nodes);
        for r in &self.resistors {
            lin.add_conductance(r.a, r.b, 1.0 / r.ohms);
        }
        for c in &self.capacitors {
            lin.add_capacitance(c.a, c.b, c.farads);
        }
        for g in &self.vccs {
            lin.add_vccs(g.out_p, g.out_n, g.in_p, g.in_n, g.gm);
        }
        for v in &self.vsources {
            lin.add_vsource(v.p, v.n, v.ac);
        }
        for m in &self.mosfets {
            let vd = node_voltages[m.d];
            let vg = node_voltages[m.g];
            let vs = node_voltages[m.s];
            let vb = node_voltages[m.b];
            let sign = m.device.model.mos_type.sign();
            let vgs = sign * (vg - vs);
            let vds = sign * (vd - vs);
            let vsb = sign * (vs - vb);
            let op = m.device.operating_point(vgs, vds.max(0.0), vsb.max(0.0));
            lin.add_mos_small_signal(
                m.d, m.g, m.s, m.b, op.gm, op.gds, op.gmb, op.cgs, op.cgd, op.cdb, op.csb,
            );
        }
        lin
    }
}

/// A purely linear small-signal netlist for AC analysis.
#[derive(Debug, Clone, Default)]
pub struct LinearCircuit {
    num_nodes: usize,
    pub(crate) conductances: Vec<(NodeId, NodeId, f64)>,
    pub(crate) capacitances: Vec<(NodeId, NodeId, f64)>,
    pub(crate) vccs: Vec<Vccs>,
    pub(crate) isources: Vec<CurrentSource>,
    pub(crate) vsources: Vec<VoltageSource>,
}

impl LinearCircuit {
    /// Creates an empty linear circuit containing only ground.
    pub fn new() -> Self {
        Self::with_nodes(1)
    }

    /// Creates a linear circuit with `num_nodes` pre-allocated nodes
    /// (including ground).
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self {
            num_nodes: num_nodes.max(1),
            ..Default::default()
        }
    }

    /// Allocates and returns a fresh node id.
    pub fn node(&mut self) -> NodeId {
        let id = self.num_nodes;
        self.num_nodes += 1;
        id
    }

    /// Total number of nodes, including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of voltage-source branches.
    pub fn num_vsources(&self) -> usize {
        self.vsources.len()
    }

    /// Adds a conductance (1/R) between `a` and `b`.
    pub fn add_conductance(&mut self, a: NodeId, b: NodeId, siemens: f64) {
        self.grow(a.max(b));
        self.conductances.push((a, b, siemens));
    }

    /// Adds a resistor between `a` and `b` (convenience wrapper).
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        self.add_conductance(a, b, 1.0 / ohms);
    }

    /// Adds a capacitance between `a` and `b`.
    pub fn add_capacitance(&mut self, a: NodeId, b: NodeId, farads: f64) {
        self.grow(a.max(b));
        self.capacitances.push((a, b, farads));
    }

    /// Adds a voltage-controlled current source.
    pub fn add_vccs(&mut self, out_p: NodeId, out_n: NodeId, in_p: NodeId, in_n: NodeId, gm: f64) {
        self.grow(out_p.max(out_n).max(in_p).max(in_n));
        self.vccs.push(Vccs {
            out_p,
            out_n,
            in_p,
            in_n,
            gm,
        });
    }

    /// Adds an AC current source pushing current from `from` into `to`.
    pub fn add_isource(&mut self, from: NodeId, to: NodeId, amps: f64) {
        self.grow(from.max(to));
        self.isources.push(CurrentSource { from, to, amps });
    }

    /// Adds a voltage-source branch with the given AC amplitude and returns its index.
    pub fn add_vsource(&mut self, p: NodeId, n: NodeId, ac: f64) -> usize {
        self.grow(p.max(n));
        self.vsources.push(VoltageSource {
            p,
            n,
            volts: 0.0,
            ac,
        });
        self.vsources.len() - 1
    }

    /// Adds the full small-signal expansion of a MOSFET.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mos_small_signal(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        gm: f64,
        gds: f64,
        gmb: f64,
        cgs: f64,
        cgd: f64,
        cdb: f64,
        csb: f64,
    ) {
        ElementSink::add_mos_small_signal(self, d, g, s, b, gm, gds, gmb, cgs, cgd, cdb, csb);
    }

    fn grow(&mut self, max_node: NodeId) {
        if max_node >= self.num_nodes {
            self.num_nodes = max_node + 1;
        }
    }
}

/// The element-adding surface of a small-signal netlist.
///
/// [`LinearCircuit`] implements it by recording elements; the value writer of
/// a [`FactorizedCircuit`](crate::batch::FactorizedCircuit) implements it by
/// writing element values into a compiled structure. A netlist written once
/// against this trait therefore serves both the scalar AC path and the
/// factorized one, with no circuit built per sample on the latter.
pub trait ElementSink {
    /// Allocates and returns a fresh node id.
    fn node(&mut self) -> NodeId;
    /// Adds a conductance (siemens) between `a` and `b`.
    fn add_conductance(&mut self, a: NodeId, b: NodeId, siemens: f64);
    /// Adds a capacitance (farads) between `a` and `b`.
    fn add_capacitance(&mut self, a: NodeId, b: NodeId, farads: f64);
    /// Adds a voltage-controlled current source.
    fn add_vccs(&mut self, out_p: NodeId, out_n: NodeId, in_p: NodeId, in_n: NodeId, gm: f64);
    /// Adds an AC current source pushing current from `from` into `to`.
    fn add_isource(&mut self, from: NodeId, to: NodeId, amps: f64);
    /// Adds a voltage-source branch with the given AC amplitude.
    fn add_vsource(&mut self, p: NodeId, n: NodeId, ac: f64);

    /// Adds a resistor (ohms) between `a` and `b` as its conductance.
    fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        self.add_conductance(a, b, 1.0 / ohms);
    }

    /// Adds the full small-signal expansion of a MOSFET: the `gm` VCCS, the
    /// `gds` conductance, the `gmb` VCCS when `gmb > 0`, and the four
    /// capacitances.
    #[allow(clippy::too_many_arguments)]
    fn add_mos_small_signal(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        gm: f64,
        gds: f64,
        gmb: f64,
        cgs: f64,
        cgd: f64,
        cdb: f64,
        csb: f64,
    ) {
        self.add_vccs(d, s, g, s, gm);
        self.add_conductance(d, s, gds);
        if gmb > 0.0 {
            self.add_vccs(d, s, b, s, gmb);
        }
        self.add_capacitance(g, s, cgs);
        self.add_capacitance(g, d, cgd);
        self.add_capacitance(d, b, cdb);
        self.add_capacitance(s, b, csb);
    }
}

impl ElementSink for LinearCircuit {
    fn node(&mut self) -> NodeId {
        LinearCircuit::node(self)
    }
    fn add_conductance(&mut self, a: NodeId, b: NodeId, siemens: f64) {
        LinearCircuit::add_conductance(self, a, b, siemens);
    }
    fn add_capacitance(&mut self, a: NodeId, b: NodeId, farads: f64) {
        LinearCircuit::add_capacitance(self, a, b, farads);
    }
    fn add_vccs(&mut self, out_p: NodeId, out_n: NodeId, in_p: NodeId, in_n: NodeId, gm: f64) {
        LinearCircuit::add_vccs(self, out_p, out_n, in_p, in_n, gm);
    }
    fn add_isource(&mut self, from: NodeId, to: NodeId, amps: f64) {
        LinearCircuit::add_isource(self, from, to, amps);
    }
    fn add_vsource(&mut self, p: NodeId, n: NodeId, ac: f64) {
        LinearCircuit::add_vsource(self, p, n, ac);
    }
}

/// Returns `true` when the device polarity means the source terminal is the
/// higher-potential terminal (PMOS), used by netlist builders.
pub fn source_is_high(t: MosType) -> bool {
    matches!(t, MosType::Pmos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{model_035um, MosGeometry, MosType, Mosfet};

    #[test]
    fn node_allocation_is_sequential() {
        let mut c = Circuit::new();
        assert_eq!(c.num_nodes(), 1);
        assert_eq!(c.node(), 1);
        assert_eq!(c.node(), 2);
        assert_eq!(c.num_nodes(), 3);
    }

    #[test]
    fn element_validation() {
        let mut c = Circuit::new();
        let n1 = c.node();
        assert!(c.add_resistor(n1, 0, 1000.0).is_ok());
        assert!(c.add_resistor(n1, 0, 0.0).is_err());
        assert!(c.add_resistor(n1, 99, 1000.0).is_err());
        assert!(c.add_capacitor(n1, 0, -1e-12).is_err());
        assert!(c.add_capacitor(n1, 0, 1e-12).is_ok());
        assert!(c.add_isource(n1, 0, 1e-3).is_ok());
        assert!(c.add_vsource(99, 0, 1.0).is_err());
        assert!(c.add_vccs(n1, 0, n1, 0, 1e-3).is_ok());
    }

    #[test]
    fn vsource_indices_increment() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let n2 = c.node();
        assert_eq!(c.add_vsource(n1, 0, 1.0).unwrap(), 0);
        assert_eq!(c.add_vsource(n2, 0, 2.0).unwrap(), 1);
        assert_eq!(c.num_vsources(), 2);
    }

    #[test]
    fn mosfet_addition_and_lookup() {
        let mut c = Circuit::new();
        let d = c.node();
        let g = c.node();
        let dev = Mosfet::new(
            model_035um(MosType::Nmos),
            MosGeometry::new(10e-6, 0.35e-6, 1.0).unwrap(),
        );
        c.add_mosfet("M1", d, g, 0, 0, dev).unwrap();
        assert_eq!(c.num_mosfets(), 1);
        assert_eq!(c.mosfets()[0].name, "M1");
        assert!(c.add_mosfet("M2", 42, g, 0, 0, dev).is_err());
    }

    #[test]
    fn linear_circuit_grows_nodes_on_demand() {
        let mut lc = LinearCircuit::new();
        lc.add_conductance(3, 0, 1e-3);
        assert_eq!(lc.num_nodes(), 4);
        lc.add_capacitance(5, 2, 1e-12);
        assert_eq!(lc.num_nodes(), 6);
        let b = lc.add_vsource(1, 0, 1.0);
        assert_eq!(b, 0);
    }

    #[test]
    fn linearize_produces_expected_element_counts() {
        let mut c = Circuit::new();
        let vdd = c.node();
        let out = c.node();
        let gate = c.node();
        c.add_vsource(vdd, 0, 3.3).unwrap();
        c.add_vsource(gate, 0, 1.0).unwrap();
        c.add_resistor(vdd, out, 10e3).unwrap();
        let dev = Mosfet::new(
            model_035um(MosType::Nmos),
            MosGeometry::new(20e-6, 0.7e-6, 1.0).unwrap(),
        );
        c.add_mosfet("M1", out, gate, 0, 0, dev).unwrap();
        let v = vec![0.0, 3.3, 2.0, 1.0];
        let lin = c.linearize(&v);
        // resistor -> 1 conductance, mosfet -> gds conductance
        assert_eq!(lin.conductances.len(), 2);
        // mosfet: gm + gmb (gmb>0 since vsb=0 -> still >0? gmb = gm*gamma/(2 sqrt(phi)) > 0)
        assert!(!lin.vccs.is_empty());
        // mosfet caps: cgs, cgd, cdb, csb
        assert_eq!(lin.capacitances.len(), 4);
        // both DC sources become branches
        assert_eq!(lin.num_vsources(), 2);
    }

    #[test]
    fn source_is_high_only_for_pmos() {
        assert!(source_is_high(MosType::Pmos));
        assert!(!source_is_high(MosType::Nmos));
    }
}
