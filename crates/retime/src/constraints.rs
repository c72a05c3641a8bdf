//! Clock-period constraint generation (the W/D computation).
//!
//! For a target period `T`, minimum-area retiming needs, for every vertex
//! pair with `D(u, v) > T`, the constraint `r(u) − r(v) ≤ W(u, v) − 1`
//! (Eqn. (2) of the paper), where `W(u, v)` is the minimum flip-flop count
//! over `u⇝v` paths and `D(u, v)` the maximum delay among the
//! minimum-weight paths.
//!
//! Implementation: one Dijkstra per source `u` over the non-negative edge
//! weights gives `W(u, ·)`. The *tight subgraph* (edges on some
//! minimum-weight path) is a DAG — any tight cycle would be a zero-weight
//! cycle, which valid circuits exclude — and `D(u, ·)` is the longest
//! delay over it. Keying the heap by `(W, ρ(v))`, with ρ a topological
//! order of the zero-weight subgraph, pops every vertex after its tight
//! parents, so `D` folds in at relaxation and no second pass runs.
//! Constraints are emitted per row, never storing the full `|V|²`
//! matrices.
//!
//! *Pruning* (in the spirit of Maheshwari & Sapatnekar's constraint
//! reduction, cited in §5) drops `(u, v)` whenever some tight-DAG ancestor
//! `x ≠ u` of `v` already violates (`D(u, x) > T`; `v` is *covered*): the
//! emitted constraint `r(u) − r(x) ≤ W(u, x) − 1` plus the edge
//! constraints along the tight path `x ⇝ v` (total weight
//! `W(u, v) − W(u, x)`) imply the dropped one. Pruning is exact — the
//! pruned system has the same solution set as the full one — and is the
//! *only* emission path.
//!
//! A row stops as soon as every reached, unpopped vertex is covered:
//! everything left is reached only through covered vertices and is
//! covered too. So a row costs what it reaches before its frontier is
//! covered, not `Θ(V + E)`. The violating-pair count stays exact through
//! the reach sizes `Σ_u |R(u)|`, counted once per build (see
//! `reach_total`).
//!
//! **One build per target.** The min-period search needs no W/D system
//! (its probes run FEAS), so a planning run builds the constraints once,
//! at `T_clk`, and every weighted min-area solve of LAC reuses them (the
//! paper's §4.2).

use crate::graph::{GraphEdge, RetimeGraph, VertexId};
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
    /// Violating pairs (`D(u, v) > target`) before pruning.
    pub pairs_before_pruning: usize,
}

/// One emitted constraint of a row, in 8 bytes while the rows are
/// gathered: head vertex and bound `W − 1`.
#[derive(Debug, Clone, Copy)]
struct RowConstraint {
    v: u32,
    bound: i32,
}

/// Generates the pruned clock-period constraints for `target`, in
/// source-major order with heads in ascending index (one
/// `retime.wd_build` span; the per-source rows run in parallel).
///
/// # Errors
///
/// * [`RetimeError::CombinationalCycle`] — a zero-weight cycle avoids
///   the host.
/// * [`RetimeError::DelayOverflow`] — a path delay a row accumulates
///   overflows `u64` (adversarially large vertex delays), or an emitted
///   bound `W − 1` falls outside `i32`. Graphs built from netlists stay
///   far from the latter: their `W` counts flip-flops.
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
    let n = graph.num_vertices();
    let _span = lacr_obs::span!("retime.wd_build", vertices = n, target = target);
    let shared = Rows::new(graph, target)?;
    // Each source's row of the W/D computation is independent of every
    // other's, so the per-source loop fans out across the deterministic
    // pool, which returns the rows in source order regardless of
    // scheduling.
    let sources: Vec<VertexId> = graph.vertex_ids().collect();
    let searched = lacr_par::Region::new("retime.wd_sources").map_indexed_with(
        &sources,
        || RowSearch::new(n),
        |search, _, &u| search.run(&shared, u),
    );
    // Every reached `v ≠ u` violates unless its row popped it with
    // `D ≤ target`.
    let mut pairs = reach_total(graph) - n;
    let mut rows = Vec::with_capacity(n);
    for row in searched {
        let (low, row) = row?;
        pairs -= low;
        rows.push(row);
    }
    let mut constraints = Vec::with_capacity(rows.iter().map(|row| row.len()).sum());
    for (u, row) in rows.into_iter().enumerate() {
        constraints.extend(
            row.iter()
                .map(|c| Constraint::new(u, c.v as usize, i64::from(c.bound))),
        );
    }
    lacr_obs::counter!("retime.period_pairs", pairs);
    lacr_obs::counter!("retime.constraints_emitted", constraints.len());
    Ok(PeriodConstraints {
        target,
        constraints,
        pairs_before_pruning: pairs,
    })
}

/// What every row of one build shares: the graph, the target, and the tie
/// order ρ — a topological order of the zero-weight subgraph with the
/// host's out-edges removed.
struct Rows<'g> {
    graph: &'g RetimeGraph,
    target: u64,
    /// `rank[v]` = ρ(v); `by_rank` is its inverse.
    rank: Vec<u32>,
    by_rank: Vec<u32>,
}

impl<'g> Rows<'g> {
    /// Computes ρ.
    ///
    /// # Errors
    ///
    /// [`RetimeError::CombinationalCycle`] when a zero-weight cycle avoids
    /// the host.
    fn new(graph: &'g RetimeGraph, target: u64) -> Result<Self, RetimeError> {
        let n = graph.num_vertices();
        let host = graph.host();
        let zero = |e: &GraphEdge| e.weight == 0 && Some(e.from) != host;
        let mut indeg = vec![0u32; n];
        for e in graph.edges().iter().filter(|e| zero(e)) {
            indeg[e.to.index()] += 1;
        }
        let mut by_rank = Vec::with_capacity(n);
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        while let Some(v) = queue.pop() {
            by_rank.push(v);
            for e in graph.out_edges(VertexId(v)) {
                let e = graph.edge(e);
                if zero(&e) {
                    indeg[e.to.index()] -= 1;
                    if indeg[e.to.index()] == 0 {
                        queue.push(e.to.0);
                    }
                }
            }
        }
        if by_rank.len() < n {
            return Err(RetimeError::CombinationalCycle);
        }
        let mut rank = vec![0u32; n];
        for (i, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        Ok(Self {
            graph,
            target,
            rank,
            by_rank,
        })
    }
}

/// Per-worker state of the row search. `w == i64::MAX` marks a vertex the
/// current row has not reached; `touched` lists the ones it has, so the
/// reset costs what the row reached.
#[derive(Debug)]
struct RowSearch {
    w: Vec<i64>,
    d: Vec<u64>,
    covered: Vec<bool>,
    touched: Vec<u32>,
    /// Keyed by `(W, ρ(v))`.
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// The current row's constraints, reused across rows so that a row
    /// costs one exact-size allocation when it is copied out.
    row: Vec<RowConstraint>,
}

impl RowSearch {
    fn new(n: usize) -> Self {
        Self {
            w: vec![i64::MAX; n],
            d: vec![0; n],
            covered: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            row: Vec::new(),
        }
    }

    /// One source's row: a Dijkstra for `W(u, ·)` that folds in `D(u, ·)`
    /// and coverage as it relaxes, returning how many popped vertices
    /// `v ≠ u` have `D ≤ T` and the row's constraints as one exact-size
    /// slice, **in ascending head-vertex index** (the canonical emission
    /// order; `W`, `D` and coverage do not depend on adjacency order).
    ///
    /// * **Order.** The heap key `(W, ρ(v))` pops every vertex after all
    ///   its tight parents: a positive-weight tight edge raises `W`, a
    ///   zero-weight one raises ρ. (A `(W, index)` key is wrong: vertices
    ///   of equal `W` joined by zero-weight edges are not index-ordered.)
    ///   So `D` and coverage are final at the pop: a strict `W`
    ///   improvement resets them to that parent's contribution, an equal
    ///   `W` takes the max of `D` and the or of coverage.
    /// * **Host.** Paths must not pass *through* the host: the
    ///   environment registers primary outputs before they can influence
    ///   primary inputs. The host relays only as the source, and no edge
    ///   into the source is followed.
    /// * **Stop.** `pending` counts the reached, unpopped vertices that
    ///   are not covered. At 0, every unpopped vertex is reached only
    ///   through covered vertices, so it is covered too and emits
    ///   nothing. A vertex with `D ≤ T` is never covered (`D` grows along
    ///   tight paths), so it is always popped and the count is exact.
    fn run(
        &mut self,
        rows: &Rows<'_>,
        u: VertexId,
    ) -> Result<(usize, Box<[RowConstraint]>), RetimeError> {
        let low = self.search(rows, u);
        for &t in &self.touched {
            self.w[t as usize] = i64::MAX;
        }
        self.touched.clear();
        self.heap.clear();
        self.row.sort_unstable_by_key(|c| c.v);
        let row = Box::from(self.row.as_slice());
        self.row.clear();
        Ok((low?, row))
    }

    /// The search behind [`Self::run`], filling `row` and leaving its
    /// scratch to reset.
    fn search(&mut self, rows: &Rows<'_>, u: VertexId) -> Result<usize, RetimeError> {
        let (graph, target) = (rows.graph, rows.target);
        let Self {
            w,
            d,
            covered,
            touched,
            heap,
            row,
        } = self;
        let ui = u.index();
        w[ui] = 0;
        d[ui] = graph.delay(u);
        covered[ui] = false;
        touched.push(u.0);
        heap.push(Reverse((0, rows.rank[ui])));
        let mut pending = 1usize;
        let mut low = 0usize;
        while pending > 0 {
            let Some(Reverse((dist, rank))) = heap.pop() else {
                break;
            };
            let v = VertexId(rows.by_rank[rank as usize]);
            let vi = v.index();
            if dist > w[vi] {
                continue; // stale entry
            }
            let (dv, cv) = (d[vi], covered[vi]);
            if !cv {
                pending -= 1;
            }
            if v != u {
                if dv <= target {
                    low += 1;
                } else if !cv {
                    row.push(RowConstraint {
                        v: v.0,
                        bound: i32::try_from(dist - 1).map_err(|_| RetimeError::DelayOverflow)?,
                    });
                }
            }
            if graph.host() == Some(v) && v != u {
                continue;
            }
            // A violating tight ancestor makes every descendant's
            // constraint redundant (see module docs); the source itself
            // never counts.
            let covers = cv || (v != u && dv > target);
            for e in graph.out_edges(v) {
                let edge = graph.edge(e);
                let t = edge.to.index();
                if edge.to == u {
                    continue;
                }
                let nd = dist
                    .checked_add(edge.weight)
                    .ok_or(RetimeError::DelayOverflow)?;
                if nd > w[t] {
                    continue;
                }
                let dt = dv
                    .checked_add(graph.delay(edge.to))
                    .ok_or(RetimeError::DelayOverflow)?;
                let was_pending = w[t] != i64::MAX && !covered[t];
                if nd < w[t] {
                    if w[t] == i64::MAX {
                        touched.push(edge.to.0);
                    }
                    w[t] = nd;
                    d[t] = dt;
                    covered[t] = covers;
                    heap.push(Reverse((nd, rows.rank[t])));
                } else {
                    d[t] = d[t].max(dt);
                    covered[t] |= covers;
                }
                pending = pending + usize::from(!covered[t]) - usize::from(was_pending);
            }
        }
        Ok(low)
    }
}

/// `Σ_u |R(u)|`, where `R(u)` is every vertex a row search from `u`
/// reaches without its stop: what `u` reaches with the host's out-edges
/// cut, or, for the host itself, the host plus what its successors reach.
///
/// One bit-parallel pass per 64 sources over the strongly connected
/// components of the cut graph (Tarjan numbers them so every arc runs to
/// a lower number): each component's mask collects the sources that
/// reach it, in topological order.
fn reach_total(graph: &RetimeGraph) -> usize {
    const UNSEEN: u32 = u32::MAX;
    let n = graph.num_vertices();
    let host = graph.host();
    // The cut graph in CSR form.
    let mut start = Vec::with_capacity(n + 1);
    let mut arcs = Vec::with_capacity(graph.num_edges());
    start.push(0u32);
    for v in graph.vertex_ids() {
        if host != Some(v) {
            arcs.extend(graph.out_edges(v).map(|e| graph.edge(e).to.0));
        }
        start.push(arcs.len() as u32);
    }
    let succ = |v: usize| &arcs[start[v] as usize..start[v + 1] as usize];
    // Tarjan's algorithm without recursion.
    let (mut index, mut low, mut comp) = (vec![UNSEEN; n], vec![0u32; n], vec![UNSEEN; n]);
    let mut size: Vec<usize> = Vec::new();
    let (mut stack, mut frames) = (Vec::new(), Vec::<(u32, u32)>::new());
    let mut next = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v as u32);
                frames.push((v as u32, start[v]));
            }
            let Some(&(v, at)) = frames.last() else {
                break;
            };
            let v = v as usize;
            if at < start[v + 1] {
                frames.last_mut().expect("a frame is open").1 += 1;
                let x = arcs[at as usize] as usize;
                if index[x] == UNSEEN {
                    enter = Some(x);
                } else if comp[x] == UNSEEN {
                    low[v] = low[v].min(index[x]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(p, _)) = frames.last() {
                low[p as usize] = low[p as usize].min(low[v]);
            }
            if low[v] == index[v] {
                let c = size.len() as u32;
                let mut members = 0;
                loop {
                    let x = stack.pop().expect("v is on the stack") as usize;
                    comp[x] = c;
                    members += 1;
                    if x == v {
                        break;
                    }
                }
                size.push(members);
            }
        }
    }
    // Component arcs, grouped by tail component.
    let comps = size.len();
    let mut cstart = vec![0u32; comps + 1];
    for v in 0..n {
        for &x in succ(v) {
            if comp[x as usize] != comp[v] {
                cstart[comp[v] as usize + 1] += 1;
            }
        }
    }
    for c in 0..comps {
        cstart[c + 1] += cstart[c];
    }
    let mut fill = cstart.clone();
    let mut carcs = vec![0u32; cstart[comps] as usize];
    for v in 0..n {
        for &x in succ(v) {
            let (cv, cx) = (comp[v] as usize, comp[x as usize]);
            if cx != cv as u32 {
                carcs[fill[cv] as usize] = cx;
                fill[cv] += 1;
            }
        }
    }
    // Sources in topological order, so a batch spans few components.
    let mut sources: Vec<u32> = (0..n as u32).collect();
    sources.sort_unstable_by_key(|&v| Reverse(comp[v as usize]));
    let mut mask = vec![0u64; comps];
    let mut total = 0usize;
    for batch in sources.chunks(64) {
        let mut top = 0usize;
        for (i, &v) in batch.iter().enumerate() {
            let mut seed = |c: u32| {
                mask[c as usize] |= 1 << i;
                top = top.max(c as usize);
            };
            seed(comp[v as usize]);
            if host == Some(VertexId(v)) {
                for e in graph.out_edges(VertexId(v)) {
                    seed(comp[graph.edge(e).to.index()]);
                }
            }
        }
        for c in (0..=top).rev() {
            let m = std::mem::take(&mut mask[c]);
            if m != 0 {
                total += m.count_ones() as usize * size[c];
                for &x in &carcs[cstart[c] as usize..cstart[c + 1] as usize] {
                    mask[x as usize] |= m;
                }
            }
        }
    }
    total
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
    fn delay_overflow_is_a_typed_error() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, u64::MAX - 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, u64::MAX - 1, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 1);
        for t in [5, 10] {
            assert_eq!(
                generate_period_constraints(&g, t).unwrap_err(),
                RetimeError::DelayOverflow
            );
        }
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
        /// discussion in [`RowSearch::run`]: W, D and A are
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
    }

    /// All-pairs `(W, D)` by Floyd–Warshall over the lexicographic order
    /// (min `W`, then max `D`), the host never an intermediate vertex.
    /// `None` marks an unreachable pair.
    fn all_pairs_wd(g: &RetimeGraph) -> Vec<Vec<Option<(i64, u64)>>> {
        let n = g.num_vertices();
        let better = |c: (i64, u64), old: Option<(i64, u64)>| {
            old.is_none_or(|o| c.0 < o.0 || (c.0 == o.0 && c.1 > o.1))
        };
        let mut m = vec![vec![None; n]; n];
        for v in g.vertex_ids() {
            m[v.index()][v.index()] = Some((0, g.delay(v)));
        }
        for e in g.edges() {
            let (x, y) = (e.from.index(), e.to.index());
            let c = (e.weight, g.delay(e.from) + g.delay(e.to));
            if x != y && better(c, m[x][y]) {
                m[x][y] = Some(c);
            }
        }
        for k in g.vertex_ids().filter(|&k| Some(k) != g.host()) {
            // Row `k` does not change in round `k` (`m[k][k]` is `(0, d(k))`).
            let via = m[k.index()].clone();
            for (i, row) in m.iter_mut().enumerate() {
                let Some((wik, dik)) = row[k.index()] else {
                    continue;
                };
                for (j, (cell, kj)) in row.iter_mut().zip(&via).enumerate() {
                    if let Some((wkj, dkj)) = *kj {
                        let c = (wik + wkj, dik + dkj - g.delay(k));
                        if i != j && better(c, *cell) {
                            *cell = Some(c);
                        }
                    }
                }
            }
        }
        m
    }

    /// The reference constraint list at `target` (source-major, heads in
    /// index order) and its violating-pair count. `(u, v)` is
    /// covered when some `x ∉ {u, v}` lies on a minimum-weight `u ⇝ v`
    /// path (`W(u,x) + W(x,v) = W(u,v)`) and already violates; as an
    /// intermediate vertex, `x` is never the host.
    fn reference(g: &RetimeGraph, target: u64) -> (Vec<Constraint>, usize) {
        let m = all_pairs_wd(g);
        let n = g.num_vertices();
        let host = g.host().map(VertexId::index);
        let mut cons = Vec::new();
        let mut pairs = 0;
        for u in 0..n {
            for v in (0..n).filter(|&v| v != u) {
                let Some((w, d)) = m[u][v] else { continue };
                pairs += usize::from(d > target);
                let covered = (0..n)
                    .filter(|&x| x != u && x != v && Some(x) != host)
                    .any(|x| {
                        matches!((m[u][x], m[x][v]),
                        (Some((wux, dux)), Some((wxv, _))) if wux + wxv == w && dux > target)
                    });
                if d > target && !covered {
                    cons.push(Constraint::new(u, v, w - 1));
                }
            }
        }
        (cons, pairs)
    }

    lacr_prng::properties! {
        cases = 200;

        /// [`generate_period_constraints`] emits, at every target of a
        /// random range, exactly the reference's constraints (values and
        /// order), and counts exactly its violating pairs.
        fn substrate_matches_the_all_pairs_reference(rng) {
            let n = rng.gen_range(1..13usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<VertexId> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(0..7u64), 1.0, None))
                .collect();
            // Zero-weight edges follow a random order, not the index order,
            // so equal-`W` vertices are not index-ordered; edges against
            // it close cycles and carry a register.
            let order = rng.permutation(n);
            for _ in 0..rng.gen_range(0..3 * n) {
                let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let w = if order[x] < order[y] { rng.gen_range(0..3i64) } else { rng.gen_range(1..3i64) };
                g.add_edge(vs[x], vs[y], w);
            }
            if rng.gen_bool(0.5) {
                let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
                g.set_host(h);
                for _ in 0..rng.gen_range(1..5usize) {
                    g.add_edge(h, vs[rng.gen_range(0..n)], rng.gen_range(0..3i64));
                    g.add_edge(vs[rng.gen_range(0..n)], h, rng.gen_range(0..3i64));
                }
            }
            let lo = rng.gen_range(0..16u64);
            let hi = if rng.gen_bool(0.5) { lo } else { lo + rng.gen_range(0..24u64) };
            for t in lo..=hi {
                let (cons, pairs) = reference(&g, t);
                let pc = generate_period_constraints(&g, t).unwrap();
                lacr_prng::prop_assert_eq!(&pc.constraints, &cons);
                lacr_prng::prop_assert_eq!(pc.pairs_before_pruning, pairs);
            }
        }
    }

    #[test]
    fn zero_weight_cycle_off_the_host_is_a_typed_error() {
        for with_host in [false, true] {
            let mut g = RetimeGraph::new();
            let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
            let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
            g.add_edge(a, b, 0);
            g.add_edge(b, a, 0);
            if with_host {
                let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
                g.set_host(h);
                g.add_edge(h, a, 0);
                g.add_edge(b, h, 0);
            }
            assert_eq!(
                generate_period_constraints(&g, 3).unwrap_err(),
                RetimeError::CombinationalCycle
            );
        }
        // Through the host, a zero-weight cycle is no cycle.
        let g = {
            let mut g = RetimeGraph::new();
            let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
            g.set_host(h);
            let a = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
            g.add_edge(h, a, 0);
            g.add_edge(a, h, 0);
            g
        };
        assert!(generate_period_constraints(&g, 3).is_ok());
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

    #[test]
    fn out_of_range_bounds_are_typed_errors() {
        use crate::feas::try_min_period_retiming;
        // With `w(b → a) = 2^32`, `W(b, a) − 1` does not fit `i32`, and
        // `(b, a)` violates at 5.
        let back_edge = |flops: i64| {
            let mut g = RetimeGraph::new();
            let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
            g.set_host(h);
            let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
            let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
            g.add_edge(h, a, 0);
            g.add_edge(a, b, 0);
            g.add_edge(b, h, 0);
            g.add_edge(b, a, flops);
            g
        };
        let g = back_edge(1 << 32);
        assert_eq!(
            generate_period_constraints(&g, 5).unwrap_err(),
            RetimeError::DelayOverflow
        );
        // One flip-flop fewer fits: the bound is `i32::MAX` exactly.
        let g = back_edge(1 << 31);
        assert!(generate_period_constraints(&g, 5)
            .unwrap()
            .constraints
            .contains(&Constraint::new(2, 1, i64::from(i32::MAX))));
        // Periods far beyond `u32` picoseconds are no overflow: the search
        // over `[d_max, T_init] = [2^33, 2^34]` moves the output register
        // back over `b`.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 1 << 33, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1 << 33, 1.0, None);
        g.add_edge(h, a, 1);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 1);
        assert_eq!(
            try_min_period_retiming(&g, 0).map(|out| out.result.period),
            Ok(1 << 33)
        );
    }
}
