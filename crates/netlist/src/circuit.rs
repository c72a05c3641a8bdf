//! The core circuit data structure.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a functional unit within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(pub u32);

impl UnitId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a net within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The role of a functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// Primary input (no fanin inside the circuit).
    Input,
    /// Primary output (no fanout inside the circuit).
    Output,
    /// Combinational RT-level functional unit (register file ports, ALUs,
    /// multiplexers, or — as in the paper's experiments — gates treated as
    /// units).
    Logic,
}

/// One RT-level functional unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Human-readable name (unique within a circuit).
    pub name: String,
    /// Role of the unit.
    pub kind: UnitKind,
    /// Raw propagation delay in picoseconds (before RT-level scaling).
    pub delay_ps: f64,
    /// Raw area in µm² (before RT-level scaling).
    pub area: f64,
}

impl Unit {
    /// Creates a logic unit.
    pub fn logic(name: impl Into<String>, delay_ps: f64, area: f64) -> Self {
        Self {
            name: name.into(),
            kind: UnitKind::Logic,
            delay_ps,
            area,
        }
    }

    /// Creates a primary input (zero delay and area).
    pub fn input(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: UnitKind::Input,
            delay_ps: 0.0,
            area: 0.0,
        }
    }

    /// Creates a primary output (zero delay and area).
    pub fn output(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            kind: UnitKind::Output,
            delay_ps: 0.0,
            area: 0.0,
        }
    }
}

/// One sink of a net: the receiving unit and the number of flip-flops on
/// the connection from the net's driver to this sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sink {
    /// Receiving unit.
    pub unit: UnitId,
    /// Flip-flops on the driver→sink connection.
    pub flops: u32,
}

impl Sink {
    /// Creates a sink.
    pub fn new(unit: UnitId, flops: u32) -> Self {
        Self { unit, flops }
    }
}

/// A multi-pin net: one driver, one or more sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Driving unit.
    pub driver: UnitId,
    /// Sinks with per-connection flip-flop counts.
    pub sinks: Vec<Sink>,
}

impl Net {
    /// Creates a net.
    pub fn new(driver: UnitId, sinks: Vec<Sink>) -> Self {
        Self { driver, sinks }
    }
}

/// A flattened driver→sink connection, as iterated by [`Circuit::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Net the connection belongs to.
    pub net: NetId,
    /// Driving unit.
    pub from: UnitId,
    /// Receiving unit.
    pub to: UnitId,
    /// Flip-flops on the connection.
    pub flops: u32,
}

/// A sequential circuit of RT-level functional units.
///
/// # Examples
///
/// ```
/// use lacr_netlist::{Circuit, Sink, Unit};
///
/// let mut c = Circuit::new("tiny");
/// let a = c.add_unit(Unit::input("a"));
/// let g = c.add_unit(Unit::logic("g", 10.0, 1.0));
/// let z = c.add_unit(Unit::output("z"));
/// c.add_net(a, vec![Sink::new(g, 0)]);
/// c.add_net(g, vec![Sink::new(z, 1)]);
/// assert_eq!(c.num_units(), 3);
/// assert_eq!(c.num_flops(), 1);
/// assert!(c.validate().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    units: Vec<Unit>,
    nets: Vec<Net>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            units: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a unit and returns its id.
    pub fn add_unit(&mut self, unit: Unit) -> UnitId {
        self.units.push(unit);
        UnitId((self.units.len() - 1) as u32)
    }

    /// Adds a net and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the driver or a sink references a unit that does not
    /// exist, or if the sink list is empty.
    pub fn add_net(&mut self, driver: UnitId, sinks: Vec<Sink>) -> NetId {
        assert!(!sinks.is_empty(), "a net needs at least one sink");
        assert!(driver.index() < self.units.len(), "bad driver {driver}");
        for s in &sinks {
            assert!(s.unit.index() < self.units.len(), "bad sink {}", s.unit);
        }
        self.nets.push(Net::new(driver, sinks));
        NetId((self.nets.len() - 1) as u32)
    }

    /// Number of functional units (including primary inputs/outputs).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Total flip-flops across all connections.
    pub fn num_flops(&self) -> u64 {
        self.nets
            .iter()
            .flat_map(|n| &n.sinks)
            .map(|s| u64::from(s.flops))
            .sum()
    }

    /// The unit with the given id.
    pub fn unit(&self, id: UnitId) -> &Unit {
        &self.units[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Mutable access to a net (used by retiming to write back new
    /// flip-flop counts).
    pub fn net_mut(&mut self, id: NetId) -> &mut Net {
        &mut self.nets[id.index()]
    }

    /// All units, indexable by [`UnitId::index`].
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Ids of all units.
    pub fn unit_ids(&self) -> impl Iterator<Item = UnitId> + '_ {
        (0..self.units.len() as u32).map(UnitId)
    }

    /// Iterates every flattened driver→sink connection.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nets.iter().enumerate().flat_map(|(ni, net)| {
            net.sinks.iter().map(move |s| Edge {
                net: NetId(ni as u32),
                from: net.driver,
                to: s.unit,
                flops: s.flops,
            })
        })
    }

    /// Units of the given kind.
    pub fn units_of_kind(&self, kind: UnitKind) -> impl Iterator<Item = UnitId> + '_ {
        self.units
            .iter()
            .enumerate()
            .filter(move |(_, u)| u.kind == kind)
            .map(|(i, _)| UnitId(i as u32))
    }

    /// Looks a unit up by name (linear scan; intended for tests and I/O).
    pub fn unit_by_name(&self, name: &str) -> Option<UnitId> {
        self.units
            .iter()
            .position(|u| u.name == name)
            .map(|i| UnitId(i as u32))
    }

    /// Structural validation. Returns human-readable problems; an empty
    /// vector means the circuit is well-formed:
    ///
    /// * unit names are unique and non-empty;
    /// * primary inputs have no fanin, primary outputs no fanout;
    /// * each unit drives at most one net;
    /// * the zero-flip-flop subgraph is acyclic (no combinational loops) —
    ///   equivalently, every directed cycle carries at least one flip-flop,
    ///   which retiming requires.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen = HashMap::new();
        for (i, u) in self.units.iter().enumerate() {
            if u.name.is_empty() {
                problems.push(format!("unit {i} has an empty name"));
            }
            if let Some(prev) = seen.insert(u.name.as_str(), i) {
                problems.push(format!("duplicate unit name {:?} ({prev} and {i})", u.name));
            }
            if !u.delay_ps.is_finite() || u.delay_ps < 0.0 {
                problems.push(format!("unit {:?} has bad delay {}", u.name, u.delay_ps));
            }
            if !u.area.is_finite() || u.area < 0.0 {
                problems.push(format!("unit {:?} has bad area {}", u.name, u.area));
            }
        }
        let mut drives = vec![0usize; self.units.len()];
        for net in &self.nets {
            drives[net.driver.index()] += 1;
            if self.units[net.driver.index()].kind == UnitKind::Output {
                problems.push(format!(
                    "primary output {:?} drives a net",
                    self.units[net.driver.index()].name
                ));
            }
            for s in &net.sinks {
                if self.units[s.unit.index()].kind == UnitKind::Input {
                    problems.push(format!(
                        "primary input {:?} is a net sink",
                        self.units[s.unit.index()].name
                    ));
                }
            }
        }
        for (i, &d) in drives.iter().enumerate() {
            if d > 1 {
                problems.push(format!(
                    "unit {:?} drives {d} nets (expected at most 1)",
                    self.units[i].name
                ));
            }
        }
        if let Some(cycle_unit) = self.find_combinational_cycle() {
            problems.push(format!(
                "combinational cycle through unit {:?} (a directed cycle with zero flip-flops)",
                self.units[cycle_unit.index()].name
            ));
        }
        problems
    }

    /// Returns a unit on some zero-flop directed cycle, if one exists.
    fn find_combinational_cycle(&self) -> Option<UnitId> {
        // Kahn's algorithm on the zero-flop subgraph.
        let n = self.units.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in self.edges() {
            if e.flops == 0 {
                adj[e.from.index()].push(e.to.index());
                indeg[e.to.index()] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &w in &adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if seen == n {
            None
        } else {
            (0..n).find(|&v| indeg[v] > 0).map(|v| UnitId(v as u32))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate_loop(flops_on_back: u32) -> Circuit {
        let mut c = Circuit::new("loop");
        let g1 = c.add_unit(Unit::logic("g1", 1.0, 1.0));
        let g2 = c.add_unit(Unit::logic("g2", 1.0, 1.0));
        c.add_net(g1, vec![Sink::new(g2, 0)]);
        c.add_net(g2, vec![Sink::new(g1, flops_on_back)]);
        c
    }

    #[test]
    fn sequential_loop_is_valid() {
        assert!(two_gate_loop(1).validate().is_empty());
    }

    #[test]
    fn combinational_loop_is_flagged() {
        let problems = two_gate_loop(0).validate();
        assert!(problems.iter().any(|p| p.contains("combinational cycle")));
    }

    #[test]
    fn duplicate_names_flagged() {
        let mut c = Circuit::new("dup");
        c.add_unit(Unit::logic("g", 1.0, 1.0));
        c.add_unit(Unit::logic("g", 1.0, 1.0));
        assert!(c.validate().iter().any(|p| p.contains("duplicate")));
    }

    #[test]
    fn input_as_sink_flagged() {
        let mut c = Circuit::new("bad");
        let a = c.add_unit(Unit::input("a"));
        let g = c.add_unit(Unit::logic("g", 1.0, 1.0));
        c.add_net(g, vec![Sink::new(a, 0)]);
        assert!(c.validate().iter().any(|p| p.contains("is a net sink")));
    }

    #[test]
    fn output_as_driver_flagged() {
        let mut c = Circuit::new("bad");
        let z = c.add_unit(Unit::output("z"));
        let g = c.add_unit(Unit::logic("g", 1.0, 1.0));
        c.add_net(z, vec![Sink::new(g, 0)]);
        assert!(c.validate().iter().any(|p| p.contains("drives a net")));
    }

    #[test]
    fn multiple_nets_per_driver_flagged() {
        let mut c = Circuit::new("bad");
        let g = c.add_unit(Unit::logic("g", 1.0, 1.0));
        let h = c.add_unit(Unit::logic("h", 1.0, 1.0));
        c.add_net(g, vec![Sink::new(h, 0)]);
        c.add_net(g, vec![Sink::new(h, 1)]);
        assert!(c.validate().iter().any(|p| p.contains("drives 2 nets")));
    }

    #[test]
    fn edge_iteration_flattens_nets() {
        let mut c = Circuit::new("fan");
        let g = c.add_unit(Unit::logic("g", 1.0, 1.0));
        let a = c.add_unit(Unit::logic("a", 1.0, 1.0));
        let b = c.add_unit(Unit::logic("b", 1.0, 1.0));
        c.add_net(g, vec![Sink::new(a, 0), Sink::new(b, 2)]);
        c.add_net(a, vec![Sink::new(g, 1)]);
        c.add_net(b, vec![Sink::new(g, 1)]);
        let edges: Vec<Edge> = c.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(c.num_flops(), 4);
    }

    #[test]
    fn unit_by_name_finds() {
        let mut c = Circuit::new("t");
        let g = c.add_unit(Unit::logic("gate_x", 1.0, 1.0));
        assert_eq!(c.unit_by_name("gate_x"), Some(g));
        assert_eq!(c.unit_by_name("missing"), None);
    }

    #[test]
    #[should_panic]
    fn empty_sink_list_panics() {
        let mut c = Circuit::new("t");
        let g = c.add_unit(Unit::logic("g", 1.0, 1.0));
        c.add_net(g, vec![]);
    }

    #[test]
    fn bad_delay_flagged() {
        let mut c = Circuit::new("t");
        c.add_unit(Unit::logic("g", f64::NAN, 1.0));
        assert!(c.validate().iter().any(|p| p.contains("bad delay")));
    }
}
