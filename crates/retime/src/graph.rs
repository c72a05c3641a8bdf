//! The retiming graph `G(V, E)`.
//!
//! Vertices are functional units (and, in interconnect retiming,
//! *interconnect units*) with fixed propagation delays; edge weights are
//! flip-flop counts. A retiming is a vertex labelling `r : V → ℤ` that
//! transforms each edge weight to `w_r(e) = w(e) + r(head) − r(tail)`.

use crate::minarea::RetimeError;
use lacr_netlist::{Circuit, UnitKind};
use std::collections::HashMap;

/// Identifier of a retiming-graph vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a retiming-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One edge of the retiming graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphEdge {
    /// Tail (driving vertex).
    pub from: VertexId,
    /// Head (receiving vertex).
    pub to: VertexId,
    /// Flip-flop count.
    pub weight: i64,
}

/// What a vertex models; interconnect units are the paper's §3.2 addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexKind {
    /// An RT-level functional unit.
    Functional,
    /// A repeater-driven wire segment (delay, no logic).
    Interconnect,
    /// The host vertex modelling the environment (primary I/O).
    Host,
}

/// A retiming graph.
///
/// # Examples
///
/// ```
/// use lacr_retime::{RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// g.add_edge(a, b, 1);
/// g.add_edge(b, a, 0);
/// assert_eq!(g.total_flops(), 1);
/// assert_eq!(g.try_clock_period(&g.weights()), Ok(10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RetimeGraph {
    kinds: Vec<VertexKind>,
    delays: Vec<u64>,
    /// Area weight `A(v)` of the flip-flops charged to this vertex's tile
    /// (weighted min-area retiming, §4.2). 1.0 reproduces plain min-area.
    areas: Vec<f64>,
    /// Tile each vertex lives in, if the floorplan is known.
    tiles: Vec<Option<usize>>,
    edges: Vec<GraphEdge>,
    out_edges: Vec<Vec<u32>>,
    in_edges: Vec<Vec<u32>>,
    host: Option<VertexId>,
}

impl RetimeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex with the given kind, delay (integer picoseconds), FF
    /// area weight and optional tile.
    pub fn add_vertex(
        &mut self,
        kind: VertexKind,
        delay_ps: u64,
        area: f64,
        tile: Option<usize>,
    ) -> VertexId {
        self.kinds.push(kind);
        self.delays.push(delay_ps);
        self.areas.push(area);
        self.tiles.push(tile);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        VertexId((self.kinds.len() - 1) as u32)
    }

    /// Adds an edge with `weight` flip-flops.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `weight < 0`.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, weight: i64) -> EdgeId {
        assert!(from.index() < self.kinds.len() && to.index() < self.kinds.len());
        assert!(weight >= 0, "initial edge weight must be non-negative");
        let id = self.edges.len() as u32;
        self.edges.push(GraphEdge { from, to, weight });
        self.out_edges[from.index()].push(id);
        self.in_edges[to.index()].push(id);
        EdgeId(id)
    }

    /// Marks `v` as the host vertex. The host models the environment; LAC
    /// retiming charges flip-flops on host fanout to the pad ring (no tile
    /// capacity limit).
    pub fn set_host(&mut self, v: VertexId) {
        self.host = Some(v);
    }

    /// The host vertex, if one was designated.
    pub fn host(&self) -> Option<VertexId> {
        self.host
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.kinds.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex kind.
    pub fn kind(&self, v: VertexId) -> VertexKind {
        self.kinds[v.index()]
    }

    /// Vertex delay in integer picoseconds.
    pub fn delay(&self, v: VertexId) -> u64 {
        self.delays[v.index()]
    }

    /// FF area weight `A(v)`.
    pub fn area(&self, v: VertexId) -> f64 {
        self.areas[v.index()]
    }

    /// Tile of a vertex.
    pub fn tile(&self, v: VertexId) -> Option<usize> {
        self.tiles[v.index()]
    }

    /// All edges, indexable by [`EdgeId::index`].
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// The edge with the given id.
    pub fn edge(&self, e: EdgeId) -> GraphEdge {
        self.edges[e.index()]
    }

    /// Ids of vertices.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.kinds.len() as u32).map(VertexId)
    }

    /// Outgoing edge ids of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges[v.index()].iter().map(|&i| EdgeId(i))
    }

    /// Incoming edge ids of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_edges[v.index()].iter().map(|&i| EdgeId(i))
    }

    /// The original edge weights, as a vector parallel to [`Self::edges`].
    pub fn weights(&self) -> Vec<i64> {
        self.edges.iter().map(|e| e.weight).collect()
    }

    /// Total flip-flops on the original weights.
    pub fn total_flops(&self) -> i64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Edge weights after applying retiming `r`:
    /// `w_r(e) = w(e) + r(head) − r(tail)`.
    ///
    /// # Panics
    ///
    /// Panics if `r.len() != num_vertices()`.
    pub fn retimed_weights(&self, r: &[i64]) -> Vec<i64> {
        assert_eq!(r.len(), self.num_vertices());
        self.edges
            .iter()
            .map(|e| e.weight + r[e.to.index()] - r[e.from.index()])
            .collect()
    }

    /// Checks that `weights` is a legal assignment (non-negative
    /// everywhere).
    pub fn weights_legal(&self, weights: &[i64]) -> bool {
        weights.len() == self.edges.len() && weights.iter().all(|&w| w >= 0)
    }

    /// Clock period achieved by the given edge weights: the longest
    /// vertex-delay path through zero-weight edges.
    ///
    /// # Errors
    ///
    /// * [`RetimeError::CombinationalCycle`] — the zero-weight subgraph is
    ///   cyclic.
    /// * [`RetimeError::DelayOverflow`] — a path-delay sum overflowed
    ///   `u64` (million-cell synthetic graphs can chain enough delay to
    ///   wrap silently in release builds without this check).
    pub fn try_clock_period(&self, weights: &[i64]) -> Result<u64, RetimeError> {
        self.try_arrival_times(weights)
            .map(|arr| arr.into_iter().max().unwrap_or(0))
    }

    /// Combinational arrival time `Δ(v)` of every vertex under the given
    /// edge weights: `Δ(v) = d(v) + max(0, max {Δ(u) : e_{u,v}, w(e)=0})`.
    ///
    /// The host vertex does not propagate combinational signals — the
    /// environment registers primary outputs before they can influence
    /// primary inputs — so zero-weight edges *into* the host terminate
    /// there (their arrival is still checked at the driving vertex), and
    /// apparent combinational cycles through the host are not cycles.
    ///
    /// # Errors
    ///
    /// * [`RetimeError::CombinationalCycle`] — the zero-weight subgraph is
    ///   cyclic.
    /// * [`RetimeError::DelayOverflow`] — a path-delay sum overflowed
    ///   `u64`.
    pub fn try_arrival_times(&self, weights: &[i64]) -> Result<Vec<u64>, RetimeError> {
        assert_eq!(weights.len(), self.edges.len());
        let n = self.num_vertices();
        let host = self.host.map(|h| h.index());
        let mut indeg = vec![0usize; n];
        for (i, e) in self.edges.iter().enumerate() {
            if weights[i] == 0 && Some(e.to.index()) != host {
                indeg[e.to.index()] += 1;
            }
        }
        let mut arr: Vec<u64> = self.delays.clone();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &ei in &self.out_edges[v] {
                if weights[ei as usize] != 0 {
                    continue;
                }
                let to = self.edges[ei as usize].to.index();
                if Some(to) == host {
                    continue;
                }
                let cand = arr[v]
                    .checked_add(self.delays[to])
                    .ok_or(RetimeError::DelayOverflow)?;
                arr[to] = arr[to].max(cand);
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        if seen == n {
            Ok(arr)
        } else {
            Err(RetimeError::CombinationalCycle)
        }
    }

    /// Builds a retiming graph from a [`Circuit`].
    ///
    /// Primary inputs and outputs are merged into a single *host* vertex of
    /// zero delay, the classic Leiserson–Saxe construction that pins I/O
    /// latency: any flip-flops borrowed from input connections must be
    /// repaid on output connections. `delay_of` maps a unit's raw delay to
    /// integer picoseconds (typically technology scaling plus
    /// quantisation).
    ///
    /// Returns the graph and a map from circuit units to graph vertices
    /// (PIs and POs all map to the host).
    pub fn from_circuit_with(
        circuit: &Circuit,
        mut delay_of: impl FnMut(&lacr_netlist::Unit) -> u64,
    ) -> (Self, HashMap<lacr_netlist::UnitId, VertexId>) {
        let mut g = RetimeGraph::new();
        let host = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(host);
        let mut map = HashMap::new();
        for uid in circuit.unit_ids() {
            let unit = circuit.unit(uid);
            let v = match unit.kind {
                UnitKind::Input | UnitKind::Output => host,
                UnitKind::Logic => g.add_vertex(VertexKind::Functional, delay_of(unit), 1.0, None),
            };
            map.insert(uid, v);
        }
        for e in circuit.edges() {
            let from = map[&e.from];
            let to = map[&e.to];
            g.add_edge(from, to, i64::from(e.flops));
        }
        (g, map)
    }

    /// Builds a retiming graph from a circuit using raw unit delays rounded
    /// up to whole picoseconds.
    pub fn from_circuit(circuit: &Circuit) -> (Self, HashMap<lacr_netlist::UnitId, VertexId>) {
        Self::from_circuit_with(circuit, |u| u.delay_ps.ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_netlist::{Sink, Unit};

    fn ring3() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let c = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 0);
        g.add_edge(c, a, 0);
        g
    }

    #[test]
    fn period_of_ring() {
        let g = ring3();
        // zero-weight chain b→c→a: delay 1+1+1 = 3.
        assert_eq!(g.try_clock_period(&g.weights()), Ok(3));
    }

    #[test]
    fn retiming_shifts_weights() {
        let g = ring3();
        // r = (0, -1, -1): w(a→b)=1-1-0=0, w(b→c)=0-1+1=0, w(c→a)=0+0+1=1
        let w = g.retimed_weights(&[0, -1, -1]);
        assert_eq!(w, vec![0, 0, 1]);
        assert!(g.weights_legal(&w));
        assert_eq!(g.try_clock_period(&w), Ok(3)); // a→b→c chain
    }

    #[test]
    fn cycle_weight_is_invariant() {
        let g = ring3();
        for r in [[0, 0, 0], [1, -2, 3], [-5, -5, -5]] {
            let w = g.retimed_weights(&r);
            assert_eq!(w.iter().sum::<i64>(), 1);
        }
    }

    #[test]
    fn illegal_weights_detected() {
        let g = ring3();
        let w = g.retimed_weights(&[0, 2, 0]); // a→b weight 3, b→c −2
        assert!(!g.weights_legal(&w));
    }

    #[test]
    fn zero_weight_cycle_has_no_period() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        assert_eq!(
            g.try_arrival_times(&g.weights()),
            Err(RetimeError::CombinationalCycle)
        );
    }

    #[test]
    fn try_clock_period_reports_cycle_as_typed_error() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        assert_eq!(
            g.try_clock_period(&g.weights()),
            Err(RetimeError::CombinationalCycle)
        );
    }

    #[test]
    fn overflowing_delay_chain_is_a_typed_error() {
        // Two near-max delays on one zero-weight edge: the arrival sum
        // wraps u64, which must surface as DelayOverflow, not a silent
        // wrap in release builds.
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, u64::MAX - 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, u64::MAX - 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 1);
        assert_eq!(
            g.try_arrival_times(&g.weights()).unwrap_err(),
            RetimeError::DelayOverflow
        );
        assert_eq!(
            g.try_clock_period(&g.weights()),
            Err(RetimeError::DelayOverflow)
        );
    }

    #[test]
    fn arrival_times_accumulate() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 2, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        let c = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 0);
        let arr = g.try_arrival_times(&g.weights()).unwrap();
        assert_eq!(arr, vec![2, 5, 9]);
    }

    #[test]
    fn from_circuit_merges_io_into_host() {
        let mut c = Circuit::new("t");
        let a = c.add_unit(Unit::input("a"));
        let g1 = c.add_unit(Unit::logic("g1", 3.0, 1.0));
        let z = c.add_unit(Unit::output("z"));
        c.add_net(a, vec![Sink::new(g1, 0)]);
        c.add_net(g1, vec![Sink::new(z, 2)]);
        let (g, map) = RetimeGraph::from_circuit(&c);
        assert_eq!(g.num_vertices(), 2); // host + g1
        assert_eq!(map[&a], map[&z]);
        assert_eq!(map[&a], g.host().unwrap());
        assert_eq!(g.total_flops(), 2);
        assert_eq!(g.delay(map[&g1]), 3);
    }

    #[test]
    fn from_circuit_with_scaling() {
        let mut c = Circuit::new("t");
        let a = c.add_unit(Unit::input("a"));
        let g1 = c.add_unit(Unit::logic("g1", 3.0, 1.0));
        let z = c.add_unit(Unit::output("z"));
        c.add_net(a, vec![Sink::new(g1, 0)]);
        c.add_net(g1, vec![Sink::new(z, 0)]);
        let (g, map) = RetimeGraph::from_circuit_with(&c, |u| (u.delay_ps * 10.0) as u64);
        assert_eq!(g.delay(map[&g1]), 30);
    }

    #[test]
    fn interconnect_vertices_carry_kind() {
        let mut g = RetimeGraph::new();
        let v = g.add_vertex(VertexKind::Interconnect, 50, 1.0, Some(3));
        assert_eq!(g.kind(v), VertexKind::Interconnect);
        assert_eq!(g.tile(v), Some(3));
    }

    #[test]
    #[should_panic]
    fn negative_initial_weight_panics() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, -1);
    }
}
