//! Static timing analysis over a retiming graph.
//!
//! The planner's purpose is "to provide more accurate interconnect delay
//! information to early design steps" (§1) — this module is that
//! reporting surface: combinational arrival and required times, per-vertex
//! slacks against a target period, and extraction of the critical path,
//! all under a given edge-weight assignment (registers cut the
//! combinational graph exactly where their weights are non-zero).

use crate::graph::{RetimeGraph, VertexId};
use crate::minarea::RetimeError;

/// A full timing report for one edge-weight assignment and target period.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Target clock period (ps).
    pub target: u64,
    /// Arrival time of each vertex (ps): worst launch-to-here delay,
    /// including the vertex's own delay.
    pub arrival: Vec<u64>,
    /// Required time of each vertex (ps): the latest arrival that still
    /// meets the target at every downstream register/output boundary.
    pub required: Vec<i64>,
    /// Slack of each vertex: `required − arrival` (negative = violating).
    pub slack: Vec<i64>,
    /// Achieved period: the largest arrival time.
    pub period: u64,
}

impl TimingReport {
    /// Worst (most negative) slack in the design.
    pub fn worst_slack(&self) -> i64 {
        self.slack.iter().copied().min().unwrap_or(0)
    }

    /// Whether every vertex meets the target.
    pub fn meets_target(&self) -> bool {
        self.period <= self.target
    }

    /// Vertices with negative slack, worst first.
    pub fn violating_vertices(&self) -> Vec<VertexId> {
        let mut v: Vec<(i64, usize)> = self
            .slack
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, s)| s < 0)
            .map(|(i, s)| (s, i))
            .collect();
        v.sort();
        v.into_iter().map(|(_, i)| VertexId(i as u32)).collect()
    }
}

/// Computes a timing report for `weights` against `target`.
///
/// Returns `None` when the zero-weight subgraph is cyclic (no valid
/// timing exists).
///
/// # Panics
///
/// Panics if `weights` is not parallel to the graph's edges or path
/// delays overflow `u64`.
///
/// # Examples
///
/// ```
/// use lacr_retime::{analyze_timing, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
/// g.add_edge(a, b, 0);
/// g.add_edge(b, a, 1);
/// let report = analyze_timing(&g, &g.weights(), 10).expect("acyclic");
/// assert_eq!(report.period, 7);
/// assert!(report.meets_target());
/// assert_eq!(report.worst_slack(), 3);
/// ```
pub fn analyze_timing(graph: &RetimeGraph, weights: &[i64], target: u64) -> Option<TimingReport> {
    assert_eq!(weights.len(), graph.num_edges());
    let arrival = match graph.try_arrival_times(weights) {
        Err(RetimeError::CombinationalCycle) => return None,
        r => r.expect("path delay accumulation overflowed u64"),
    };
    let period = arrival.iter().copied().max().unwrap_or(0);
    let n = graph.num_vertices();
    let host = graph.host();

    // Required times, computed backwards over the zero-weight subgraph:
    // a vertex that launches into a register (or has no zero-weight
    // fanout) must settle by `target`; otherwise by the minimum over
    // fanouts of `required(f) − d(f)`.
    //
    // Reverse-topological order = reverse of a forward Kahn order.
    let mut indeg = vec![0usize; n];
    for (i, e) in graph.edges().iter().enumerate() {
        if weights[i] == 0 && Some(e.to) != host {
            indeg[e.to.index()] += 1;
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    while let Some(v) = queue.pop() {
        order.push(v);
        for e in graph.out_edges(VertexId(v as u32)) {
            let i = e.index();
            if weights[i] != 0 {
                continue;
            }
            let to = graph.edge(e).to;
            if Some(to) == host {
                continue;
            }
            indeg[to.index()] -= 1;
            if indeg[to.index()] == 0 {
                queue.push(to.index());
            }
        }
    }
    if order.len() != n {
        return None;
    }
    let mut required = vec![target as i64; n];
    for &v in order.iter().rev() {
        if Some(VertexId(v as u32)) == host {
            continue;
        }
        let mut req = i64::MAX;
        let mut has_comb_fanout = false;
        for e in graph.out_edges(VertexId(v as u32)) {
            let edge = graph.edge(e);
            if weights[e.index()] != 0 || Some(edge.to) == host {
                continue;
            }
            has_comb_fanout = true;
            req = req.min(required[edge.to.index()] - graph.delay(edge.to) as i64);
        }
        if has_comb_fanout {
            required[v] = req.min(target as i64);
        }
    }
    let slack: Vec<i64> = (0..n).map(|v| required[v] - arrival[v] as i64).collect();
    Some(TimingReport {
        target,
        arrival,
        required,
        slack,
        period,
    })
}

/// Extracts one critical path (a longest zero-weight delay path) as a
/// vertex sequence, ending at a vertex whose arrival equals the achieved
/// period. Returns an empty vector for an empty graph.
///
/// # Panics
///
/// Panics if `weights` is not parallel to the graph's edges or the
/// zero-weight subgraph is cyclic.
pub fn critical_path(graph: &RetimeGraph, weights: &[i64]) -> Vec<VertexId> {
    let arrival = graph
        .try_arrival_times(weights)
        .expect("zero-weight subgraph must be acyclic");
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let host = graph.host();
    // End at a maximum-arrival vertex, walk backwards greedily.
    let end = (0..n).max_by_key(|&v| arrival[v]).expect("non-empty");
    let mut path = vec![VertexId(end as u32)];
    let mut cur = VertexId(end as u32);
    loop {
        let need = arrival[cur.index()].saturating_sub(graph.delay(cur));
        if need == 0 {
            break;
        }
        let mut pred = None;
        for e in graph.in_edges(cur) {
            let edge = graph.edge(e);
            if weights[e.index()] != 0 || Some(edge.from) == host {
                continue;
            }
            if arrival[edge.from.index()] == need {
                pred = Some(edge.from);
                break;
            }
        }
        match pred {
            Some(p) => {
                path.push(p);
                cur = p;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;

    /// a(2) → b(3) → c(4), registered back-edge c→a.
    fn chain() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 2, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        let c = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, c, 0);
        g.add_edge(c, a, 1);
        g
    }

    #[test]
    fn arrivals_and_requireds() {
        let g = chain();
        let r = analyze_timing(&g, &g.weights(), 10).expect("acyclic");
        assert_eq!(r.arrival, vec![2, 5, 9]);
        assert_eq!(r.period, 9);
        // required(c) = 10, required(b) = 10 − 4 = 6, required(a) = 6 − 3 = 3.
        assert_eq!(r.required, vec![3, 6, 10]);
        assert_eq!(r.slack, vec![1, 1, 1]);
        assert_eq!(r.worst_slack(), 1);
        assert!(r.meets_target());
        assert!(r.violating_vertices().is_empty());
    }

    #[test]
    fn negative_slack_reported() {
        let g = chain();
        let r = analyze_timing(&g, &g.weights(), 7).expect("acyclic");
        assert!(!r.meets_target());
        assert_eq!(r.worst_slack(), -2);
        let viol = r.violating_vertices();
        assert!(!viol.is_empty());
        // the worst vertex is on the critical path
        let cp = critical_path(&g, &g.weights());
        assert!(cp.contains(&viol[0]));
    }

    #[test]
    fn critical_path_is_the_chain() {
        let g = chain();
        let cp = critical_path(&g, &g.weights());
        assert_eq!(cp.len(), 3);
        assert_eq!(cp[0].index(), 0);
        assert_eq!(cp[2].index(), 2);
    }

    #[test]
    fn registers_cut_the_path() {
        let g = chain();
        // Move the register from c→a to a→b: the zero-weight chain is now
        // b→c→a with delay 3+4+2 = 9.
        let w = vec![1, 0, 0];
        let r = analyze_timing(&g, &w, 10).expect("acyclic");
        assert_eq!(r.period, 9);
        let cp = critical_path(&g, &w);
        assert_eq!(cp.len(), 3);
        assert_eq!(cp[0].index(), 1);
        assert_eq!(cp[2].index(), 0);
    }

    #[test]
    fn host_does_not_constrain_required_times() {
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 1);
        g.add_edge(a, h, 0);
        let r = analyze_timing(&g, &g.weights(), 9).expect("acyclic");
        // a's only zero-weight fanout is the host: treated as a capture
        // boundary, so required(a) = target.
        assert_eq!(r.required[a.index()], 9);
        assert_eq!(r.slack[a.index()], 4);
    }

    #[test]
    fn cyclic_zero_weights_yield_none() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        assert!(analyze_timing(&g, &g.weights(), 5).is_none());
    }

    #[test]
    fn empty_graph() {
        let g = RetimeGraph::new();
        let r = analyze_timing(&g, &[], 5).expect("vacuously acyclic");
        assert_eq!(r.period, 0);
        assert!(critical_path(&g, &[]).is_empty());
    }
}
