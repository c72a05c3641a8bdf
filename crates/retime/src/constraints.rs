//! Clock-period constraint generation (the W/D computation).
//!
//! For a target period `T`, minimum-area retiming needs, for every vertex
//! pair with `D(u, v) > T`, the constraint `r(u) − r(v) ≤ W(u, v) − 1`
//! (Eqn. (2) of the paper), where `W(u, v)` is the minimum flip-flop count
//! over `u⇝v` paths and `D(u, v)` the maximum delay among the
//! minimum-weight paths.
//!
//! Implementation: one Dijkstra per source `u` over the non-negative edge
//! weights gives `W(u, ·)`; the *tight subgraph* (edges on some
//! minimum-weight path) is then a DAG — any tight cycle would be a
//! zero-weight cycle, which valid circuits exclude — so a longest-path DP
//! over it gives `D(u, ·)`. Constraints are emitted per row, never storing
//! the full `|V|²` matrices.
//!
//! *Pruning* (in the spirit of Maheshwari & Sapatnekar's constraint
//! reduction, cited in §5) drops `(u, v)` whenever some tight-DAG ancestor
//! `x` of `v` already violates (`D(u, x) > T`): the emitted constraint
//! `r(u) − r(x) ≤ W(u, x) − 1` plus the edge constraints along the tight
//! path `x ⇝ v` (total weight `W(u, v) − W(u, v) + W(u, v) − W(u, x)`)
//! imply the dropped one. Pruning is exact — the pruned system has the
//! same solution set as the full one — and is the *only* emission path.
//!
//! # The reusable W/D substrate
//!
//! `W` and `D` do not depend on the target period; only which pairs
//! violate does. Define, per source `u`,
//!
//! ```text
//! A(u, v) = max { D(u, x) : x a proper tight-DAG ancestor of v, x ≠ u }
//! ```
//!
//! (0 when there is none). Then `v` survives pruning at target `T`
//! **exactly** when `D(u, v) > T ≥ A(u, v)` — each candidate has an
//! emission interval `[A, D)` in target space. [`WdSubstrate`] runs the
//! per-source computation **once** for a whole bracket `[lo, hi]` of
//! candidate periods, keeping only candidates whose interval intersects
//! the bracket (`D > lo` and `A ≤ hi` — a thin band around the emission
//! frontier, not the `O(|V|²)` violating-pair set), and
//! [`WdSubstrate::constraints_for`] re-emits the exact pruned constraint
//! set for any target in the bracket with a linear scan. This is what
//! makes the min-period binary search build its W/D system once instead
//! of once per feasibility probe.

use crate::graph::{RetimeGraph, VertexId};
use crate::minarea::RetimeError;
use lacr_mcmf::Constraint;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The period constraints for one target period, generated once and reused
/// across the weighted min-area retimings of a LAC run (the paper's §4.2
/// efficiency argument).
#[derive(Debug, Clone)]
pub struct PeriodConstraints {
    /// The target clock period (integer picoseconds).
    pub target: u64,
    /// Period constraints `r(u) − r(v) ≤ bound` over vertex indices.
    pub constraints: Vec<Constraint>,
    /// Violating pairs (`D(u, v) > lo`) at the floor of the substrate
    /// bracket these constraints were emitted from. For a one-shot
    /// generation the floor *is* the target, so this is exactly the
    /// violating-pair count before pruning; for a probe inside a wider
    /// bracket it is an upper bound.
    pub pairs_before_pruning: usize,
}

/// One pruning candidate of a substrate row: head vertex, constraint
/// bound `W − 1`, and the emission interval `[a, d)` in target space.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    v: u32,
    bound: i64,
    d: u64,
    a: u64,
}

/// The target-independent part of the W/D computation for one graph and
/// one bracket `[lo, hi]` of candidate periods.
///
/// Built once (one `retime.wd_build` span, parallel per-source rows);
/// [`Self::constraints_for`] then emits the exact pruned constraint set of
/// any target in the bracket — bit-identical, values and order, to a
/// fresh [`generate_period_constraints`] at that target.
///
/// # Examples
///
/// ```
/// use lacr_retime::{generate_period_constraints, RetimeGraph, VertexKind, WdSubstrate};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
/// g.add_edge(a, b, 1);
/// g.add_edge(b, a, 1);
/// let sub = WdSubstrate::build(&g, 4, 10)?;
/// for t in 4..=10 {
///     let probe = sub.constraints_for(t);
///     let fresh = generate_period_constraints(&g, t)?;
///     assert_eq!(probe.constraints, fresh.constraints);
/// }
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WdSubstrate {
    lo: u64,
    hi: u64,
    num_vertices: usize,
    /// CSR rows: candidates of source `u` are
    /// `cands[row_start[u]..row_start[u + 1]]`, in ascending head-vertex
    /// index (the canonical emission order).
    row_start: Vec<usize>,
    cands: Vec<Candidate>,
    /// `#{(u, v) : D(u, v) > lo}` — the violating pairs at the bracket
    /// floor, counted during the build without storing them.
    pairs_at_floor: usize,
}

impl WdSubstrate {
    /// Runs the per-source W/D computation for every target in
    /// `[lo, hi]`, under one `retime.wd_build` span.
    ///
    /// # Errors
    ///
    /// [`RetimeError::DelayOverflow`] when accumulating path delays
    /// overflows `u64` (adversarially large vertex delays).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn build(graph: &RetimeGraph, lo: u64, hi: u64) -> Result<Self, RetimeError> {
        assert!(lo <= hi, "bracket [{lo}, {hi}] is empty");
        let n = graph.num_vertices();
        let _span = lacr_obs::span!("retime.wd_build", vertices = n, lo = lo, hi = hi);
        // Each source's row of the W/D computation is independent of every
        // other's, so the per-source loop fans out across the deterministic
        // pool; the ordered merge below restores the canonical
        // (source-major) constraint order regardless of scheduling.
        let sources: Vec<VertexId> = graph.vertex_ids().collect();
        let rows = lacr_par::Region::new("retime.wd_sources").map_indexed_with(
            &sources,
            || SourceScratch::new(n),
            |scratch, _, &u| source_row(graph, lo, hi, u, scratch),
        );
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0usize);
        let mut cands = Vec::new();
        let mut pairs_at_floor = 0usize;
        for row in rows {
            let (row_pairs, row_cands) = row?;
            pairs_at_floor += row_pairs;
            cands.extend(row_cands);
            row_start.push(cands.len());
        }
        lacr_obs::counter!("retime.period_pairs", pairs_at_floor);
        lacr_obs::counter!("retime.wd_candidates", cands.len());
        Ok(Self {
            lo,
            hi,
            num_vertices: n,
            row_start,
            cands,
            pairs_at_floor,
        })
    }

    /// The bracket `[lo, hi]` this substrate covers.
    pub fn bracket(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Whether `target` can be served by [`Self::constraints_for`].
    pub fn covers(&self, target: u64) -> bool {
        self.lo <= target && target <= self.hi
    }

    /// Number of vertices of the graph this substrate was built from.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of candidates retained in the band.
    pub fn num_candidates(&self) -> usize {
        self.cands.len()
    }

    /// Emits the pruned period constraints for `target` — bit-identical to
    /// a fresh generation at that target.
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside the bracket (see [`Self::covers`]).
    pub fn constraints_for(&self, target: u64) -> PeriodConstraints {
        assert!(
            self.covers(target),
            "target {target} outside substrate bracket [{}, {}]",
            self.lo,
            self.hi
        );
        let mut constraints = Vec::new();
        for u in 0..self.num_vertices {
            for c in &self.cands[self.row_start[u]..self.row_start[u + 1]] {
                // Emission interval: violating (D > T) and not covered by
                // a violating tight ancestor (A ≤ T).
                if c.d > target && c.a <= target {
                    constraints.push(Constraint::new(u, c.v as usize, c.bound));
                }
            }
        }
        lacr_obs::counter!("retime.constraints_emitted", constraints.len());
        PeriodConstraints {
            target,
            constraints,
            pairs_before_pruning: self.pairs_at_floor,
        }
    }
}

/// Generates the clock-period constraints for `target` (a one-shot
/// substrate covering only `[target, target]`).
///
/// # Errors
///
/// [`RetimeError::DelayOverflow`] when accumulating path delays overflows
/// `u64`.
///
/// # Examples
///
/// ```
/// use lacr_retime::{generate_period_constraints, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
/// g.add_edge(a, b, 1);
/// g.add_edge(b, a, 1);
/// // Period 4 fits each vertex alone: no pair path may stay unregistered,
/// // but W(a,b) = 1 already ≥ 1 so the constraint bound is 0.
/// let pc = generate_period_constraints(&g, 7)?;
/// assert_eq!(pc.constraints.len(), 2); // a⇝b and b⇝a both have D = 8 > 7
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
pub fn generate_period_constraints(
    graph: &RetimeGraph,
    target: u64,
) -> Result<PeriodConstraints, RetimeError> {
    Ok(WdSubstrate::build(graph, target, target)?.constraints_for(target))
}

/// Reusable per-worker scratch for [`source_row`].
#[derive(Debug)]
struct SourceScratch {
    w: Vec<i64>,
    d: Vec<u64>,
    a: Vec<u64>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
}

impl SourceScratch {
    fn new(n: usize) -> Self {
        Self {
            w: vec![i64::MAX; n],
            d: vec![0; n],
            a: vec![0; n],
            heap: BinaryHeap::new(),
        }
    }
}

/// One source's W/D/A row: Dijkstra for `W(u, ·)`, longest-delay DP over
/// the tight DAG for `D(u, ·)` and the ancestor maximum `A(u, ·)`, then
/// the band candidates, **in ascending head-vertex index**. The emission
/// order is part of the determinism contract: `W`, `D` and `A` are
/// invariant under adjacency-list order (Dijkstra's heap orders ties by
/// `(distance, vertex)`, both DPs take maxima over incoming tight edges —
/// all order-free), so index-ordered emission makes the whole row, and
/// with it [`WdSubstrate`] and [`PeriodConstraints`], independent of edge
/// insertion order and of scheduling.
///
/// `A(u, v) > T` is exactly the classic `covered` condition at target `T`
/// (some proper tight ancestor `x ≠ u` of `v` violates `D(u, x) > T`):
/// coverage is an OR over ancestor chains, which in threshold space is a
/// max over the same chains.
fn source_row(
    graph: &RetimeGraph,
    band_lo: u64,
    band_hi: u64,
    u: VertexId,
    scratch: &mut SourceScratch,
) -> Result<(usize, Vec<Candidate>), RetimeError> {
    // Paths must not pass *through* the host: the environment registers
    // primary outputs before they can influence primary inputs, so a
    // `u ⇝ host ⇝ v` chain is not a real signal path (pairs ending or
    // starting at the host are still considered).
    let host = graph.host();
    let SourceScratch { w, d, a, heap } = scratch;
    w.iter_mut().for_each(|x| *x = i64::MAX);
    a.iter_mut().for_each(|x| *x = 0);
    // Dijkstra for W(u, ·).
    w[u.index()] = 0;
    heap.clear();
    heap.push(Reverse((0, u.0)));
    let mut reached = 0usize;
    while let Some(Reverse((dist, v))) = heap.pop() {
        if dist > w[v as usize] {
            continue;
        }
        reached += 1;
        if host == Some(VertexId(v)) && u != VertexId(v) {
            continue; // terminate paths at the host
        }
        for e in graph.out_edges(VertexId(v)) {
            let edge = graph.edge(e);
            let nd = dist
                .checked_add(edge.weight)
                .ok_or(RetimeError::DelayOverflow)?;
            if nd < w[edge.to.index()] {
                w[edge.to.index()] = nd;
                heap.push(Reverse((nd, edge.to.0)));
            }
        }
    }
    // Dijkstra pops are in W order, but equal-W pops are not DAG-ordered
    // in general (a tight zero-weight edge may point between two vertices
    // popped in either order), so do an explicit Kahn pass for the tight
    // DAG's topological order.
    let topo = tight_dag_topo(graph, w, host.filter(|&h| h != u), u);
    debug_assert_eq!(
        topo.len(),
        reached,
        "tight subgraph had a zero-weight cycle (invalid circuit)"
    );
    // Longest-delay DP over the tight DAG, with the ancestor maximum `A`
    // computed alongside it.
    d.iter_mut().for_each(|x| *x = 0);
    d[u.index()] = graph.delay(u);
    for &v in &topo {
        let vi = v as usize;
        if host == Some(VertexId(v)) && u != VertexId(v) {
            continue; // terminate paths at the host
        }
        let base = d[vi];
        // A tight ancestor that itself violates the period makes every
        // descendant's constraint redundant (see module docs); in target
        // space that is a running max of ancestor D values, where the
        // source itself never counts.
        let threshold = if vi == u.index() {
            a[vi]
        } else {
            a[vi].max(base)
        };
        for e in graph.out_edges(VertexId(v)) {
            let edge = graph.edge(e);
            let ti = edge.to.index();
            if w[vi] + edge.weight == w[ti] {
                let cand = base
                    .checked_add(graph.delay(edge.to))
                    .ok_or(RetimeError::DelayOverflow)?;
                if cand > d[ti] {
                    d[ti] = cand;
                }
                if threshold > a[ti] {
                    a[ti] = threshold;
                }
            }
        }
    }
    let mut pairs = 0usize;
    let mut cands = Vec::new();
    for vi in 0..w.len() {
        if vi == u.index() || w[vi] == i64::MAX {
            continue;
        }
        if d[vi] > band_lo {
            pairs += 1;
            // Keep the candidate when its emission interval [a, d)
            // intersects the bracket; `a > band_hi` means it is covered
            // at every target the substrate can serve.
            if a[vi] <= band_hi {
                cands.push(Candidate {
                    v: vi as u32,
                    bound: w[vi] - 1,
                    d: d[vi],
                    a: a[vi],
                });
            }
        }
    }
    Ok((pairs, cands))
}

/// Kahn topological order of the tight DAG induced by `w`. Vertices with
/// `w == MAX` (unreachable) never join the order; `blocked` (the host when
/// it is not the source) contributes no outgoing tight edges, and edges
/// back into the `source` are ignored (a tight edge into the source would
/// close a zero-weight cycle — only possible through the host, where paths
/// must terminate anyway).
fn tight_dag_topo(
    graph: &RetimeGraph,
    w: &[i64],
    blocked: Option<VertexId>,
    source: VertexId,
) -> Vec<u32> {
    let n = graph.num_vertices();
    let tight = |edge: &crate::graph::GraphEdge| -> bool {
        let fi = edge.from.index();
        Some(edge.from) != blocked
            && edge.to != source
            && w[fi] != i64::MAX
            && w[fi] + edge.weight == w[edge.to.index()]
    };
    let mut indeg = vec![0u32; n];
    for edge in graph.edges() {
        if tight(edge) {
            indeg[edge.to.index()] += 1;
        }
    }
    let mut topo = Vec::with_capacity(n);
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&v| w[v as usize] != i64::MAX && indeg[v as usize] == 0)
        .collect();
    while let Some(v) = queue.pop() {
        topo.push(v);
        for e in graph.out_edges(VertexId(v)) {
            let edge = graph.edge(e);
            if tight(&edge) {
                indeg[edge.to.index()] -= 1;
                if indeg[edge.to.index()] == 0 {
                    queue.push(edge.to.0);
                }
            }
        }
    }
    topo
}

/// The edge-weight (non-negativity) constraints `r(tail) − r(head) ≤ w(e)`
/// (Eqn. (1) of the paper), over vertex indices.
pub fn edge_constraints(graph: &RetimeGraph) -> Vec<Constraint> {
    graph
        .edges()
        .iter()
        .map(|e| Constraint::new(e.from.index(), e.to.index(), e.weight))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;
    use lacr_mcmf::DifferenceConstraints;

    /// host→a→b→host pipeline: delays 5 each, two flops at the front.
    fn pipeline() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        g
    }

    #[test]
    fn constraints_make_target_feasible_iff_feas_agrees() {
        let g = pipeline();
        for t in 4..=12u64 {
            let pc = generate_period_constraints(&g, t).unwrap();
            let mut all = edge_constraints(&g);
            all.extend(pc.constraints.iter().copied());
            let sys = DifferenceConstraints::new(g.num_vertices(), all);
            let feasible = sys.is_feasible() && t >= 5; // single-vertex delay bound
            let feas = crate::feas::try_feasible_retiming(&g, t).unwrap().is_some();
            assert_eq!(feasible, feas, "target {t}");
        }
    }

    #[test]
    fn bellman_ford_solution_of_constraints_is_valid_retiming() {
        let g = pipeline();
        let t = 5;
        let pc = generate_period_constraints(&g, t).unwrap();
        let mut all = edge_constraints(&g);
        all.extend(pc.constraints.iter().copied());
        let sys = DifferenceConstraints::new(g.num_vertices(), all);
        let r = sys.solve().expect("feasible at 5");
        let w = g.retimed_weights(&r);
        assert!(g.weights_legal(&w));
        assert!(g.try_clock_period(&w).unwrap() <= t);
    }

    #[test]
    fn pruned_solutions_meet_the_target_period() {
        // Pruning is exact: any solution of the pruned system (plus edge
        // constraints) must already achieve the target period, i.e. no
        // dropped constraint was load-bearing.
        let g = pipeline();
        for t in 5..=10u64 {
            let pruned = generate_period_constraints(&g, t).unwrap();
            assert!(pruned.constraints.len() <= pruned.pairs_before_pruning);
            let mut base = edge_constraints(&g);
            base.extend(pruned.constraints.iter().copied());
            let sys = DifferenceConstraints::new(g.num_vertices(), base);
            if let Some(r) = sys.solve() {
                let w = g.retimed_weights(&r);
                assert!(g.weights_legal(&w), "t={t}");
                assert!(
                    g.try_clock_period(&w).unwrap() <= t,
                    "t={t}: pruned solution misses the period"
                );
            }
        }
    }

    #[test]
    fn substrate_probe_matches_one_shot_generation() {
        let g = pipeline();
        let sub = WdSubstrate::build(&g, 4, 12).unwrap();
        for t in 4..=12u64 {
            let probe = sub.constraints_for(t);
            let fresh = generate_period_constraints(&g, t).unwrap();
            assert_eq!(probe.constraints, fresh.constraints, "target {t}");
        }
    }

    #[test]
    #[should_panic]
    fn substrate_rejects_targets_outside_bracket() {
        let g = pipeline();
        let sub = WdSubstrate::build(&g, 5, 8).unwrap();
        let _ = sub.constraints_for(9);
    }

    #[test]
    fn one_shot_pairs_count_is_exact() {
        let g = pipeline();
        for t in 4..=12u64 {
            let pc = generate_period_constraints(&g, t).unwrap();
            // Brute-force the violating-pair count from a substrate wide
            // enough to keep everything: at the floor the band filter
            // (`d > lo`) is exactly the violating condition.
            let sub = WdSubstrate::build(&g, t, t).unwrap();
            assert_eq!(pc.pairs_before_pruning, sub.pairs_at_floor, "t={t}");
        }
    }

    #[test]
    fn delay_overflow_is_a_typed_error() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, u64::MAX - 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, u64::MAX - 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 1);
        assert_eq!(
            generate_period_constraints(&g, 10).unwrap_err(),
            RetimeError::DelayOverflow
        );
        assert_eq!(
            WdSubstrate::build(&g, 5, 10).unwrap_err(),
            RetimeError::DelayOverflow
        );
    }

    #[test]
    fn tight_dag_longest_path_matches_hand_computation() {
        // u → x (w=0, d=2) → v (w=0, d=3); also u → v direct (w=1).
        // W(u,v) = 0 via x; D(u,v) = d(u)+2+3.
        let mut g = RetimeGraph::new();
        let u = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let x = g.add_vertex(VertexKind::Functional, 2, 1.0, None);
        let v = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        g.add_edge(u, x, 0);
        g.add_edge(x, v, 0);
        g.add_edge(u, v, 1);
        g.add_edge(v, u, 1); // close the loop legally
        let pc = generate_period_constraints(&g, 5).unwrap();
        // D(u,v) = 6 > 5 → constraint r(u) − r(v) ≤ W−1 = −1; the x
        // ancestor (D = 3 ≤ 5) does not cover it.
        let c = pc
            .constraints
            .iter()
            .find(|c| c.u == u.index() && c.v == v.index())
            .expect("u,v constraint present");
        assert_eq!(c.bound, -1);
    }

    #[test]
    fn no_constraints_when_period_is_loose() {
        let g = pipeline();
        let pc = generate_period_constraints(&g, 1_000).unwrap();
        assert!(pc.constraints.is_empty());
        assert_eq!(pc.pairs_before_pruning, 0);
    }

    #[test]
    fn multi_edges_are_handled() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(a, b, 2);
        g.add_edge(b, a, 1);
        let pc = generate_period_constraints(&g, 7).unwrap();
        // W(a,b) = 0 (via the first edge), D = 8 > 7 → bound −1.
        let c = pc
            .constraints
            .iter()
            .find(|c| c.u == a.index() && c.v == b.index())
            .expect("constraint");
        assert_eq!(c.bound, -1);
    }

    lacr_prng::properties! {
        cases = 48;

        /// The generated constraint list — values *and* order — is
        /// invariant under the order edges are inserted into the graph
        /// (adjacency-list order). This enforces the tie-breaking
        /// discussion in [`source_row`]: W, D and A are
        /// adjacency-order-free and emission is in vertex-index order, so
        /// two graphs that differ only in edge insertion order must
        /// produce byte-identical [`PeriodConstraints`].
        fn constraints_invariant_under_adjacency_order(rng) {
            let n = rng.gen_range(3..10usize);
            // Forward edges may carry weight 0 (they cannot close a
            // cycle); back edges carry weight ≥ 1 so every cycle has
            // positive weight, which valid circuits require.
            let mut edges: Vec<(u32, u32, i64)> = Vec::new();
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i == j || !rng.gen_bool(0.4) {
                        continue;
                    }
                    let w = if i < j {
                        rng.gen_range(0..=2i64)
                    } else {
                        rng.gen_range(1..=3i64)
                    };
                    edges.push((i, j, w));
                }
            }
            let delays: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=5u64)).collect();
            let build = |order: &[(u32, u32, i64)]| {
                let mut g = RetimeGraph::new();
                let vs: Vec<VertexId> = delays
                    .iter()
                    .map(|&d| g.add_vertex(VertexKind::Functional, d, 1.0, None))
                    .collect();
                for &(a, b, w) in order {
                    g.add_edge(vs[a as usize], vs[b as usize], w);
                }
                g
            };
            let canonical = build(&edges);
            let mut shuffled = edges.clone();
            rng.shuffle(&mut shuffled);
            let permuted = build(&shuffled);
            let target = rng.gen_range(2..8u64);
            let a = generate_period_constraints(&canonical, target).unwrap();
            let b = generate_period_constraints(&permuted, target).unwrap();
            lacr_prng::prop_assert_eq!(a.constraints, b.constraints);
            lacr_prng::prop_assert_eq!(a.pairs_before_pruning, b.pairs_before_pruning);
        }

        /// A substrate built for a random bracket serves every target in
        /// the bracket with constraints bit-identical to a one-shot
        /// generation — the cache-correctness invariant of the min-period
        /// binary search.
        fn substrate_probes_match_one_shot_on_random_graphs(rng) {
            let n = rng.gen_range(2..8usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<VertexId> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..=6u64), 1.0, None))
                .collect();
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], rng.gen_range(1..3i64));
            }
            for _ in 0..rng.gen_range(0..4usize) {
                let x = rng.gen_range(0..n);
                let y = rng.gen_range(0..n);
                if x != y {
                    g.add_edge(vs[x], vs[y], rng.gen_range(if x < y {0..3i64} else {1..3i64}));
                }
            }
            let lo = rng.gen_range(1..6u64);
            let hi = lo + rng.gen_range(0..12u64);
            let sub = WdSubstrate::build(&g, lo, hi).unwrap();
            for t in lo..=hi {
                let probe = sub.constraints_for(t);
                let fresh = generate_period_constraints(&g, t).unwrap();
                lacr_prng::prop_assert_eq!(&probe.constraints, &fresh.constraints);
            }
        }
    }

    #[test]
    fn unreachable_pairs_produce_no_constraints() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 9, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 9, 1.0, None);
        // b → a only; nothing reaches b.
        g.add_edge(b, a, 0);
        let pc = generate_period_constraints(&g, 10).unwrap();
        assert!(pc
            .constraints
            .iter()
            .all(|c| !(c.u == a.index() && c.v == b.index())));
    }
}
