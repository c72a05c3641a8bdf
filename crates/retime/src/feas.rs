//! Min-period retiming: binary search over integer candidate periods with
//! two feasibility oracles.
//!
//! * Host-free graphs use the Leiserson–Saxe **FEAS** relaxation — fast,
//!   and sound because every violating vertex can be incremented.
//! * Graphs with a host vertex use the **constraint oracle**: emit the W/D
//!   period constraints for the candidate period and solve the
//!   difference-constraint system with Bellman–Ford. FEAS is unsound
//!   there: the host must not be incremented (it pins I/O latency and
//!   does not propagate combinational signals), so a violating primary
//!   output driver cannot legally be incremented past a zero-weight host
//!   edge.
//!
//! The constraint oracle is **incremental across probes**: the W/D
//! substrate ([`WdSubstrate`]) is built once for the whole search bracket
//! (one `retime.wd_build` span per [`try_min_period_retiming`] call, counted
//! by `retime.probe` / `retime.wd_cache_hits`), each probe re-emits its
//! constraint set with a linear scan, and Bellman–Ford warm-starts from
//! the previous feasible probe's potentials
//! ([`DifferenceConstraints::solve_warm`]). The surviving substrate is
//! returned in [`MinPeriodOutcome`] so callers probing a *derived* period
//! in the same bracket (the planner's `t_clk`) reuse it too.

use crate::constraints::{edge_constraints, generate_period_constraints, WdSubstrate};
use crate::graph::RetimeGraph;
use crate::minarea::RetimeError;
use lacr_mcmf::{Constraint, DifferenceConstraints};

/// The minimum period found by [`try_min_period_retiming`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinPeriodResult {
    /// The minimum feasible clock period (integer picoseconds).
    pub period: u64,
    /// A retiming vector achieving it.
    pub retiming: Vec<i64>,
}

/// Result of [`try_min_period_retiming`]: the period/retiming pair plus
/// the W/D substrate the search built, when it built one.
#[derive(Debug, Clone)]
pub struct MinPeriodOutcome {
    /// The minimum feasible period and a retiming achieving it.
    pub result: MinPeriodResult,
    /// The W/D substrate covering the search bracket
    /// `[max single-vertex delay, unretimed period]`. `None` when no
    /// constraint-oracle probe ran (host-free graphs, empty graphs, or a
    /// bracket that was already collapsed). Any target in the bracket —
    /// in particular every period between the returned optimum and the
    /// unretimed period — can be served by
    /// [`WdSubstrate::constraints_for`] without another W/D build.
    pub substrate: Option<WdSubstrate>,
}

/// Returns a retiming achieving clock period `≤ target`: `Ok(None)` means
/// no retiming can.
///
/// # Errors
///
/// [`RetimeError::DelayOverflow`] when accumulating path delays overflows
/// `u64`.
///
/// # Examples
///
/// ```
/// use lacr_retime::{try_feasible_retiming, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// g.add_edge(a, b, 0);
/// g.add_edge(b, a, 2);
/// // Unretimed period is 10; one flop can move to cut the a→b path.
/// let r = try_feasible_retiming(&g, 5)?.expect("5 is achievable");
/// let w = g.retimed_weights(&r);
/// assert_eq!(g.try_clock_period(&w), Ok(5));
/// assert!(try_feasible_retiming(&g, 4)?.is_none());
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
pub fn try_feasible_retiming(
    graph: &RetimeGraph,
    target: u64,
) -> Result<Option<Vec<i64>>, RetimeError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(Some(Vec::new()));
    }
    // No retiming helps a single vertex slower than the target.
    if graph.vertex_ids().any(|v| graph.delay(v) > target) {
        return Ok(None);
    }
    let r = if graph.host().is_some() {
        constraint_feasible(graph, target)?
    } else {
        feas_loop(graph, target)?
    };
    if let Some(r) = &r {
        debug_assert!({
            let w = graph.retimed_weights(r);
            graph.weights_legal(&w) && graph.try_clock_period(&w).is_ok_and(|p| p <= target)
        });
    }
    Ok(r)
}

/// The classic FEAS loop (host-free graphs only).
fn feas_loop(graph: &RetimeGraph, target: u64) -> Result<Option<Vec<i64>>, RetimeError> {
    let n = graph.num_vertices();
    let mut r = vec![0i64; n];
    // |V| rounds: the classic bound is |V| − 1 increments; one extra round
    // performs the final check.
    for _ in 0..=n {
        let weights = graph.retimed_weights(&r);
        debug_assert!(graph.weights_legal(&weights), "FEAS lost legality");
        let arrivals = graph.try_arrival_times(&weights).map_err(|e| match e {
            RetimeError::CombinationalCycle => {
                unreachable!("legal retiming keeps the zero-weight subgraph acyclic")
            }
            other => other,
        })?;
        let mut ok = true;
        for (v, &a) in arrivals.iter().enumerate() {
            if a > target {
                r[v] += 1;
                ok = false;
            }
        }
        if ok {
            return Ok(Some(r));
        }
    }
    Ok(None)
}

/// One-shot feasibility via the W/D constraint system (sound for host
/// graphs).
fn constraint_feasible(graph: &RetimeGraph, target: u64) -> Result<Option<Vec<i64>>, RetimeError> {
    let pc = generate_period_constraints(graph, target)?;
    let mut cons = edge_constraints(graph);
    cons.extend(pc.constraints.iter().copied());
    Ok(DifferenceConstraints::new(graph.num_vertices(), cons).solve())
}

/// The incremental constraint oracle: one substrate for the whole search
/// bracket, warm-started Bellman–Ford across probes.
struct SubstrateOracle<'g> {
    graph: &'g RetimeGraph,
    band_lo: u64,
    band_hi: u64,
    substrate: Option<WdSubstrate>,
    edge_cons: Vec<Constraint>,
    /// Potentials of the last feasible probe — the warm start. Probes walk
    /// a shrinking bracket, so consecutive constraint sets differ by a few
    /// tightened rows and the previous solution nearly satisfies the next
    /// system (see [`DifferenceConstraints::solve_warm`] for soundness).
    prev: Option<Vec<i64>>,
}

impl<'g> SubstrateOracle<'g> {
    fn new(graph: &'g RetimeGraph, band_lo: u64, band_hi: u64) -> Self {
        Self {
            graph,
            band_lo,
            band_hi,
            substrate: None,
            edge_cons: edge_constraints(graph),
            prev: None,
        }
    }

    /// Probes feasibility of `target`, building the substrate on first
    /// use. Counter contract: every probe bumps `retime.probe`; probes
    /// served from an already-built substrate bump `retime.wd_cache_hits`,
    /// so within one `retime.min_period` span
    /// `Σ retime.probe == Σ retime.wd_cache_hits + #(retime.wd_build)`.
    fn probe(&mut self, target: u64) -> Result<Option<Vec<i64>>, RetimeError> {
        lacr_obs::counter!("retime.probe", 1);
        if self.substrate.is_some() {
            lacr_obs::counter!("retime.wd_cache_hits", 1);
        } else {
            self.substrate = Some(WdSubstrate::build(self.graph, self.band_lo, self.band_hi)?);
        }
        let pc = self
            .substrate
            .as_ref()
            .expect("substrate built above")
            .constraints_for(target);
        let mut cons = self.edge_cons.clone();
        cons.extend(pc.constraints);
        let sys = DifferenceConstraints::new(self.graph.num_vertices(), cons);
        let sol = match &self.prev {
            Some(p) => sys.solve_warm(p),
            None => sys.solve(),
        };
        if let Some(r) = &sol {
            debug_assert!({
                let w = self.graph.retimed_weights(r);
                self.graph.weights_legal(&w)
                    && self.graph.try_clock_period(&w).is_ok_and(|p| p <= target)
            });
            self.prev = Some(r.clone());
        }
        Ok(sol)
    }
}

/// Computes the minimum feasible clock period and a retiming achieving
/// it, returning the search's W/D substrate for reuse.
///
/// Binary-searches integer periods between the largest single-vertex delay
/// (no retiming can beat it) and the unretimed period. A positive
/// `tolerance_ps` stops the search once the bracket `[infeasible,
/// feasible]` is narrower than it, returning the feasible end after one
/// final downward probe at the bracket floor. The result is at most
/// `tolerance_ps` above the true optimum — and *exact* whenever the floor
/// itself is feasible, whatever the tolerance.
///
/// # Errors
///
/// * [`RetimeError::CombinationalCycle`] — some directed cycle carries no
///   flip-flop (the unretimed period is undefined).
/// * [`RetimeError::DelayOverflow`] — path-delay accumulation overflowed
///   `u64`.
pub fn try_min_period_retiming(
    graph: &RetimeGraph,
    tolerance_ps: u64,
) -> Result<MinPeriodOutcome, RetimeError> {
    if graph.num_vertices() == 0 {
        return Ok(MinPeriodOutcome {
            result: MinPeriodResult {
                period: 0,
                retiming: Vec::new(),
            },
            substrate: None,
        });
    }
    let _span = lacr_obs::span!(
        "retime.min_period",
        vertices = graph.num_vertices(),
        tolerance_ps = tolerance_ps,
    );
    let start = graph.try_clock_period(&graph.weights())?;
    let mut lo = graph
        .vertex_ids()
        .map(|v| graph.delay(v))
        .max()
        .unwrap_or(0);
    let mut hi = start;
    let mut best = (hi, vec![0i64; graph.num_vertices()]);
    let host = graph.host().is_some();
    // One substrate serves every probe of the search: all candidates lie
    // in [lo, start] and the bracket only shrinks.
    let mut oracle = SubstrateOracle::new(graph, lo, start);
    let probe = |target: u64, oracle: &mut SubstrateOracle| {
        if host {
            oracle.probe(target)
        } else {
            try_feasible_retiming(graph, target)
        }
    };
    while lo < hi && hi - lo > tolerance_ps {
        let mid = lo + (hi - lo) / 2;
        match probe(mid, &mut oracle)? {
            Some(r) => {
                best = (mid, r);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    // Final downward probe at the bracket floor. With tolerance 0 the
    // loop above ends with lo == hi == best.0 except when the floor was
    // never probed; with a positive tolerance the bracket may stop wide.
    // Either way the floor is the only candidate that can still beat
    // `best` exactly — probe it whenever it is strictly better, whatever
    // the tolerance (a collapsed bracket in particular must not be
    // skipped just because tolerance_ps > 0).
    if lo < best.0 {
        if let Some(r) = probe(lo, &mut oracle)? {
            best = (lo, r);
        }
    }
    Ok(MinPeriodOutcome {
        result: MinPeriodResult {
            period: best.0,
            retiming: best.1,
        },
        substrate: oracle.substrate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;
    use lacr_prng::Rng;

    fn two_vertex_loop() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 2);
        g
    }

    #[test]
    fn feas_balances_two_vertex_loop() {
        let g = two_vertex_loop();
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 5);
        let w = g.retimed_weights(&res.retiming);
        assert_eq!(g.try_clock_period(&w), Ok(5));
    }

    #[test]
    fn feas_rejects_sub_delay_target() {
        let g = two_vertex_loop();
        assert!(try_feasible_retiming(&g, 4).unwrap().is_none());
    }

    #[test]
    fn min_period_of_already_optimal_is_identity_grade() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 3, 1.0, None);
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 1);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 3);
    }

    #[test]
    fn min_period_bounded_by_cycle_ratio() {
        // Cycle of 4 vertices, delays 2 each, 2 flops total: the max
        // delay-to-register ratio forces period ≥ ceil(8 / 2) = 4.
        let mut g = RetimeGraph::new();
        let vs: Vec<_> = (0..4)
            .map(|_| g.add_vertex(VertexKind::Functional, 2, 1.0, None))
            .collect();
        g.add_edge(vs[0], vs[1], 2);
        g.add_edge(vs[1], vs[2], 0);
        g.add_edge(vs[2], vs[3], 0);
        g.add_edge(vs[3], vs[0], 0);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 4);
    }

    #[test]
    fn pipeline_with_host_keeps_latency() {
        // host --2--> a --0--> b --0--> host, d(a)=d(b)=5.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 5);
        let w = g.retimed_weights(&res.retiming);
        // Retiming preserves the h→a→b→h path-weight sum because both
        // endpoints are the host.
        assert_eq!(w.iter().sum::<i64>(), 2);
    }

    #[test]
    fn combinational_io_path_bounds_period() {
        // host →0→ a →0→ host with d(a) = 9: no register may be inserted
        // without changing I/O latency, so the min period is 9 even though
        // a registered side path exists.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 9, 1.0, None);
        g.add_edge(h, a, 0);
        g.add_edge(a, h, 0);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 9);
        assert!(try_feasible_retiming(&g, 8).unwrap().is_none());
    }

    #[test]
    fn host_graph_with_io_registers_can_pipeline() {
        // host →1→ a →0→ b →1→ host: the two I/O registers can slide
        // inward to cut the a→b path.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 4, 1.0, None);
        g.add_edge(h, a, 1);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 1);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 4);
    }

    #[test]
    fn empty_graph() {
        let g = RetimeGraph::new();
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 0);
    }

    #[test]
    fn single_vertex_self_loop() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 7, 1.0, None);
        g.add_edge(a, a, 1);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        assert_eq!(res.period, 7);
    }

    /// Regression (issue 6 satellite): with a positive tolerance and the
    /// optimum sitting exactly at the bracket floor, the search used to
    /// return the last feasible *midpoint* instead of probing the floor —
    /// the final downward probe was gated on `tolerance_ps == 0`.
    #[test]
    fn positive_tolerance_still_probes_the_bracket_floor() {
        // two_vertex_loop: unretimed period 10, max single delay 5, and 5
        // is feasible — the optimum is exactly the floor. A tolerance as
        // wide as the initial bracket means the loop body never runs.
        let g = two_vertex_loop();
        for tol in [1, 3, 5, 10, 100] {
            let res = try_min_period_retiming(&g, tol).unwrap().result;
            assert_eq!(res.period, 5, "tolerance {tol}");
            let w = g.retimed_weights(&res.retiming);
            assert_eq!(g.try_clock_period(&w), Ok(5), "tolerance {tol}");
        }
    }

    /// The substrate returned by the checked entry point covers the whole
    /// search bracket on host graphs, and matches one-shot generation.
    #[test]
    fn outcome_substrate_covers_bracket_and_matches_one_shot() {
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
        g.add_edge(h, a, 2);
        g.add_edge(a, b, 0);
        g.add_edge(b, h, 0);
        let out = try_min_period_retiming(&g, 0).unwrap();
        assert_eq!(out.result.period, 5);
        let sub = out.substrate.expect("host search builds a substrate");
        let (lo, hi) = sub.bracket();
        assert_eq!((lo, hi), (5, 10), "bracket [max delay, unretimed]");
        for t in lo..=hi {
            let probe = sub.constraints_for(t);
            let fresh = generate_period_constraints(&g, t).unwrap();
            assert_eq!(probe.constraints, fresh.constraints, "t={t}");
        }
    }

    /// Host-free graphs take the FEAS path and return no substrate.
    #[test]
    fn host_free_search_returns_no_substrate() {
        let g = two_vertex_loop();
        let out = try_min_period_retiming(&g, 0).unwrap();
        assert_eq!(out.result.period, 5);
        assert!(out.substrate.is_none());
    }

    /// Reference check on random small graphs: FEAS feasibility must agree
    /// with a brute-force search over retiming vectors in a small box.
    #[test]
    fn feas_agrees_with_brute_force_on_random_graphs() {
        let mut rng = Rng::seed_from_u64(42);
        for case in 0..40 {
            let n = rng.gen_range(2..5usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..6), 1.0, None))
                .collect();
            // Ring to guarantee every vertex is on a registered cycle.
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], 1);
            }
            for _ in 0..rng.gen_range(0..4) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                g.add_edge(vs[a], vs[b], rng.gen_range(1..3));
            }
            let unretimed = g.try_clock_period(&g.weights()).expect("valid");
            for t in 1..=unretimed {
                let feas = try_feasible_retiming(&g, t).unwrap().is_some();
                let brute = brute_force_feasible(&g, t);
                assert_eq!(feas, brute, "case {case}: target {t}");
            }
        }
    }

    /// The two oracles agree on random *host* graphs (the constraint
    /// oracle versus brute force).
    #[test]
    fn constraint_oracle_agrees_with_brute_force_on_host_graphs() {
        let mut rng = Rng::seed_from_u64(99);
        for case in 0..30 {
            let n = rng.gen_range(2..4usize);
            let mut g = RetimeGraph::new();
            let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
            g.set_host(h);
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..5), 1.0, None))
                .collect();
            g.add_edge(h, vs[0], rng.gen_range(0..3));
            for i in 0..n - 1 {
                g.add_edge(vs[i], vs[i + 1], rng.gen_range(0..2));
            }
            g.add_edge(vs[n - 1], h, rng.gen_range(0..2));
            let unretimed = g.try_clock_period(&g.weights()).expect("valid");
            for t in 1..=unretimed {
                let feas = try_feasible_retiming(&g, t).unwrap().is_some();
                let brute = brute_force_feasible(&g, t);
                assert_eq!(feas, brute, "case {case}: target {t}, graph {g:?}");
            }
        }
    }

    lacr_prng::properties! {
        cases = 40;

        /// The incremental substrate-backed search (warm starts, cached
        /// W/D) must find the same minimum period as a slow reference
        /// oracle that re-derives feasibility from scratch — linear scan
        /// over every candidate period with a cold one-shot constraint
        /// system per candidate. Replayable via `LACR_PROP_REPLAY`.
        fn min_period_matches_slow_reference_oracle(rng) {
            let n = rng.gen_range(2..16usize);
            let mut g = RetimeGraph::new();
            let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
            g.set_host(h);
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..8u64), 1.0, None))
                .collect();
            // Registered I/O ring plus random internal wiring.
            g.add_edge(h, vs[0], rng.gen_range(1..3i64));
            for i in 0..n - 1 {
                g.add_edge(vs[i], vs[i + 1], rng.gen_range(0..2i64));
            }
            g.add_edge(vs[n - 1], h, rng.gen_range(0..2i64));
            for _ in 0..rng.gen_range(0..2 * n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    let w = if a < b { rng.gen_range(0..2i64) } else { rng.gen_range(1..3i64) };
                    g.add_edge(vs[a], vs[b], w);
                }
            }
            let fast = try_min_period_retiming(&g, 0).unwrap().result.period;
            // Slow oracle: smallest T whose cold constraint system is
            // feasible (scanning up from the max single-vertex delay).
            let unretimed = g.try_clock_period(&g.weights()).expect("valid circuit");
            let floor = (0..=n).map(|i| g.delay(crate::graph::VertexId(i as u32))).max().unwrap();
            let slow = (floor..=unretimed)
                .find(|&t| {
                    let pc = generate_period_constraints(&g, t).unwrap();
                    let mut cons = edge_constraints(&g);
                    cons.extend(pc.constraints.iter().copied());
                    DifferenceConstraints::new(g.num_vertices(), cons).is_feasible()
                })
                .expect("unretimed period is always feasible");
            lacr_prng::prop_assert_eq!(fast, slow);
        }
    }

    fn brute_force_feasible(g: &RetimeGraph, t: u64) -> bool {
        // Search r ∈ [−4, 4]^(n−1) with r[0] = 0 (differences matter).
        let n = g.num_vertices();
        let mut r = vec![0i64; n];
        fn rec(g: &RetimeGraph, t: u64, r: &mut Vec<i64>, i: usize) -> bool {
            if i == r.len() {
                let w = g.retimed_weights(r);
                return g.weights_legal(&w) && matches!(g.try_clock_period(&w), Ok(p) if p <= t);
            }
            for v in -4..=4 {
                r[i] = v;
                if rec(g, t, r, i + 1) {
                    return true;
                }
            }
            r[i] = 0;
            false
        }
        rec(g, t, &mut r, 1)
    }
}
