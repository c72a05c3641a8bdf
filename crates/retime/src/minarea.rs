//! Minimum-area and weighted minimum-area retiming via min-cost flow.
//!
//! Plain min-area retiming (§3.1) minimises the total flip-flop count
//! `N(G_r) = Σ_e w_r(e)` under the clock-period constraint. Weighted
//! min-area retiming (§4.2) scores the flip-flops on edge `e` by the area
//! weight `A(tail(e))` of the driving unit — the unit whose tile the
//! flip-flops will be charged to — so the objective becomes
//! `N'(G_r) = Σ_e A(tail(e)) · w_r(e)`, with vertex coefficients
//! `fi(v) − fo(v)` exactly as the paper derives. Both reduce to the same
//! LP dual, solved by [`lacr_mcmf::DualSolver`], which LAC's re-weighted
//! rounds warm-start from the previous optimum.

use crate::constraints::{edge_constraints, generate_period_constraints, PeriodConstraints};
use crate::graph::RetimeGraph;
use lacr_mcmf::{Constraint, DualError, DualSolver};
use std::fmt;

/// Fixed-point scale (2^22) used to quantise real-valued area weights to
/// integer units of 2^-22 so the flow problem stays integral. A unit-area
/// flip-flop costs 2^22 units and the interconnect ε premium (1/1024)
/// exactly 2^12. Register-sharing retiming quantises with it too.
pub(crate) const AREA_SCALE: f64 = 4194304.0;

/// Error from the min-area retiming entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetimeError {
    /// The target clock period cannot be met by any retiming.
    PeriodInfeasible {
        /// The requested period (ps).
        target: u64,
    },
    /// A path-delay sum overflowed `u64` (adversarially large vertex
    /// delays on very long combinational chains).
    DelayOverflow,
    /// The zero-weight subgraph is cyclic: some directed cycle carries no
    /// flip-flop, so the circuit has no defined clock period.
    CombinationalCycle,
    /// The underlying LP solve failed in an unexpected way (indicates an
    /// internal inconsistency; should not occur for valid circuits).
    Internal(String),
}

impl fmt::Display for RetimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetimeError::PeriodInfeasible { target } => {
                write!(f, "no retiming achieves a clock period of {target} ps")
            }
            RetimeError::DelayOverflow => {
                write!(f, "path delay accumulation overflowed u64 picoseconds")
            }
            RetimeError::CombinationalCycle => {
                write!(
                    f,
                    "a directed cycle carries no flip-flop (no valid clock period)"
                )
            }
            RetimeError::Internal(msg) => write!(f, "internal retiming error: {msg}"),
        }
    }
}

impl std::error::Error for RetimeError {}

/// The outcome of a (weighted) min-area retiming.
#[derive(Debug, Clone, PartialEq)]
pub struct RetimingOutcome {
    /// The retiming vector (one label per vertex).
    pub retiming: Vec<i64>,
    /// The retimed edge weights, parallel to [`RetimeGraph::edges`].
    pub weights: Vec<i64>,
    /// Total flip-flops after retiming.
    pub total_flops: i64,
    /// Clock period achieved (ps); always `≤` the requested target.
    pub period: u64,
}

/// Minimum-area retiming: minimise the total number of flip-flops subject
/// to the clock-period constraint, assuming unit flip-flop area.
///
/// # Errors
///
/// [`RetimeError::PeriodInfeasible`] when `target` is unattainable.
///
/// # Examples
///
/// ```
/// use lacr_retime::{min_area_retiming, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
/// g.add_edge(a, b, 1);
/// g.add_edge(b, a, 1);
/// let out = min_area_retiming(&g, 10)?;
/// assert_eq!(out.total_flops, 2); // cycle weight is invariant
/// assert!(out.period <= 10);
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
pub fn min_area_retiming(graph: &RetimeGraph, target: u64) -> Result<RetimingOutcome, RetimeError> {
    let pc = generate_period_constraints(graph, target)?;
    let areas = vec![1.0; graph.num_vertices()];
    weighted_min_area_retiming(graph, &pc, &areas)
}

/// Weighted minimum-area retiming with per-vertex flip-flop area weights
/// `areas[v] = A(v)` and pre-generated period constraints.
///
/// Generating [`PeriodConstraints`] once and re-solving with updated
/// weights is exactly how the paper keeps LAC-retiming's run time in the
/// same order as a single min-area retiming (§4.2).
///
/// # Errors
///
/// [`RetimeError::PeriodInfeasible`] when the constraint system is
/// infeasible.
///
/// # Panics
///
/// Panics if `areas.len() != graph.num_vertices()` or any weight is not a
/// positive finite number.
pub fn weighted_min_area_retiming(
    graph: &RetimeGraph,
    period_constraints: &PeriodConstraints,
    areas: &[f64],
) -> Result<RetimingOutcome, RetimeError> {
    MinAreaSolver::new(graph, period_constraints)?.solve(areas)
}

/// A reusable weighted min-area solver for one graph and one target
/// period.
///
/// LAC-retiming re-solves the same constraint system with slowly changing
/// area weights; this solver keeps the min-cost-flow residual network warm
/// between rounds ([`lacr_mcmf::DualSolver`]), so each round after the
/// first only routes the imbalance *deltas*. This is what keeps the whole
/// LAC loop "in the same order as that of min-area retiming" (§4.2).
///
/// # Examples
///
/// ```
/// use lacr_retime::{generate_period_constraints, MinAreaSolver, RetimeGraph, VertexKind};
///
/// let mut g = RetimeGraph::new();
/// let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
/// g.add_edge(a, b, 1);
/// g.add_edge(b, a, 0);
/// let pc = generate_period_constraints(&g, 10)?;
/// let mut solver = MinAreaSolver::new(&g, &pc)?;
/// let cheap_b = solver.solve(&[10.0, 1.0])?;
/// let cheap_a = solver.solve(&[1.0, 10.0])?;
/// assert_eq!(cheap_b.total_flops, 1);
/// assert_ne!(cheap_b.weights, cheap_a.weights);
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
#[derive(Debug)]
pub struct MinAreaSolver<'g> {
    graph: &'g RetimeGraph,
    target: u64,
    dual: DualSolver,
}

impl<'g> MinAreaSolver<'g> {
    /// Builds the solver from pre-generated period constraints.
    ///
    /// # Errors
    ///
    /// [`RetimeError::PeriodInfeasible`] when the combined constraint
    /// system has no solution.
    pub fn new(
        graph: &'g RetimeGraph,
        period_constraints: &PeriodConstraints,
    ) -> Result<Self, RetimeError> {
        // A single vertex slower than the target is not expressible as a
        // pairwise W/D constraint; reject it here.
        if graph
            .vertex_ids()
            .any(|v| graph.delay(v) > period_constraints.target)
        {
            return Err(RetimeError::PeriodInfeasible {
                target: period_constraints.target,
            });
        }
        let mut cons: Vec<Constraint> = edge_constraints(graph);
        cons.extend(period_constraints.constraints.iter().copied());
        let dual = match DualSolver::new(graph.num_vertices(), &cons) {
            Ok(d) => d,
            Err(DualError::Infeasible) => {
                return Err(RetimeError::PeriodInfeasible {
                    target: period_constraints.target,
                })
            }
            Err(e) => return Err(RetimeError::Internal(e.to_string())),
        };
        Ok(Self {
            graph,
            target: period_constraints.target,
            dual,
        })
    }

    /// Solves the weighted min-area retiming for the given area weights.
    ///
    /// # Errors
    ///
    /// [`RetimeError::Internal`] on an unexpected solver failure.
    ///
    /// # Panics
    ///
    /// Panics if `areas.len()` mismatches the graph or a weight is not a
    /// positive finite number.
    pub fn solve(&mut self, areas: &[f64]) -> Result<RetimingOutcome, RetimeError> {
        let graph = self.graph;
        let n = graph.num_vertices();
        let _span = lacr_obs::span!("retime.minarea_solve", vertices = n);
        assert_eq!(areas.len(), n);
        assert!(
            areas.iter().all(|a| *a > 0.0 && a.is_finite()),
            "area weights must be positive and finite"
        );
        // Quantise A(v) first so fi/fo sums cancel exactly (Σ cost = 0).
        let qa: Vec<i64> = areas
            .iter()
            .map(|a| (a * AREA_SCALE).round().max(1.0) as i64)
            .collect();
        // cost[v] = fi(v) − fo(v): fi sums the quantised areas of fanin
        // tails, fo charges A(v) per fanout edge.
        let mut cost = vec![0i64; n];
        for e in graph.edges() {
            cost[e.to.index()] += qa[e.from.index()];
            cost[e.from.index()] -= qa[e.from.index()];
        }
        let r = self
            .dual
            .solve(&cost)
            .map_err(|e| RetimeError::Internal(e.to_string()))?;

        let weights = graph.retimed_weights(&r);
        debug_assert!(graph.weights_legal(&weights));
        let period = solved_period(graph, &weights)?;
        debug_assert!(
            period <= self.target,
            "period {period} exceeds target {}",
            self.target
        );
        Ok(RetimingOutcome {
            total_flops: weights.iter().sum(),
            retiming: r,
            weights,
            period,
        })
    }
}

/// The period of the weights a min-cost-flow solve returned. A
/// zero-weight cycle there is a solver fault: it maps to
/// [`RetimeError::Internal`], so the planner's fallback takes over.
pub(crate) fn solved_period(graph: &RetimeGraph, weights: &[i64]) -> Result<u64, RetimeError> {
    match graph.try_clock_period(weights) {
        Err(RetimeError::CombinationalCycle) => Err(RetimeError::Internal(
            "retimed zero-weight subgraph cyclic".into(),
        )),
        r => Ok(r.expect("path delay accumulation overflowed u64")),
    }
}

/// Degradation-ladder fallback: a *feasible* (not area-minimal) retiming
/// at `target`, computed by the Bellman-Ford-based FEAS solver instead of
/// min-cost flow. Used when the dual solve fails unexpectedly — the plan
/// keeps a legal, period-meeting retiming rather than aborting.
///
/// Returns `None` when no retiming meets `target` (the caller should then
/// surface [`RetimeError::PeriodInfeasible`]).
pub fn feasible_min_area_fallback(graph: &RetimeGraph, target: u64) -> Option<RetimingOutcome> {
    let retiming = crate::feas::try_feasible_retiming(graph, target)
        .expect("path delay accumulation overflowed u64")?;
    let weights = graph.retimed_weights(&retiming);
    let period = match graph.try_clock_period(&weights) {
        Err(RetimeError::CombinationalCycle) => return None,
        r => r.expect("path delay accumulation overflowed u64"),
    };
    Some(RetimingOutcome {
        total_flops: weights.iter().sum(),
        retiming,
        weights,
        period,
    })
}

/// The weighted flip-flop cost `Σ_e A(tail(e)) · w(e)` of an edge-weight
/// assignment — the objective the weighted retiming minimises.
pub fn weighted_flop_cost(graph: &RetimeGraph, weights: &[i64], areas: &[f64]) -> f64 {
    assert_eq!(weights.len(), graph.num_edges());
    graph
        .edges()
        .iter()
        .zip(weights)
        .map(|(e, &w)| areas[e.from.index()] * w as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;
    use lacr_prng::Rng;

    /// host→a→b→host pipeline, two flops on the front edge.
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
    fn min_area_meets_period() {
        let g = pipeline();
        let out = min_area_retiming(&g, 5).expect("5 feasible");
        assert!(out.period <= 5);
        assert_eq!(out.total_flops, 2, "host path weight is conserved");
    }

    #[test]
    fn min_area_reports_infeasible() {
        let g = pipeline();
        assert_eq!(
            min_area_retiming(&g, 4),
            Err(RetimeError::PeriodInfeasible { target: 4 })
        );
    }

    #[test]
    fn min_area_reduces_flop_count_when_possible() {
        // Fork-join: h →(1) a →(1) b →(0) h and a →(1) c →(0) h... use a
        // shape where moving a flop from two fanout edges back to the
        // shared fanin edge saves one flop.
        let mut g = RetimeGraph::new();
        let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        g.set_host(h);
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let c = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(h, a, 0);
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 1);
        g.add_edge(b, h, 0);
        g.add_edge(c, h, 0);
        // Loose period: both fanout flops can retreat onto h→a (one flop).
        let out = min_area_retiming(&g, 100).expect("loose period feasible");
        assert_eq!(out.total_flops, 1, "weights {:?}", out.weights);
    }

    #[test]
    fn weighted_retiming_avoids_expensive_tiles() {
        // a ring a→b→a. One flop must live somewhere on the cycle. With
        // A(a) ≫ A(b), the flop should sit on the edge driven by b.
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let e_ab = g.add_edge(a, b, 1);
        let e_ba = g.add_edge(b, a, 0);
        let pc = generate_period_constraints(&g, 100).unwrap();
        let areas = vec![10.0, 1.0];
        let out = weighted_min_area_retiming(&g, &pc, &areas).expect("feasible");
        assert_eq!(out.weights[e_ba.index()], 1, "flop moved to cheap tail b");
        assert_eq!(out.weights[e_ab.index()], 0);
        // And the opposite weighting keeps it in place.
        let areas = vec![1.0, 10.0];
        let out = weighted_min_area_retiming(&g, &pc, &areas).expect("feasible");
        assert_eq!(out.weights[e_ab.index()], 1);
    }

    #[test]
    fn weighted_cost_helper_matches_definition() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, b, 2);
        g.add_edge(b, a, 1);
        let cost = weighted_flop_cost(&g, &[2, 1], &[3.0, 5.0]);
        assert!((cost - (3.0 * 2.0 + 5.0 * 1.0)).abs() < 1e-12);
    }

    /// Optimality cross-check against brute force on random small graphs.
    #[test]
    fn min_area_is_optimal_on_random_small_graphs() {
        let mut rng = Rng::seed_from_u64(7);
        for case in 0..60 {
            let n = rng.gen_range(2..5usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..5), 1.0, None))
                .collect();
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], rng.gen_range(1..3));
            }
            for _ in 0..rng.gen_range(0..3) {
                let x = rng.gen_range(0..n);
                let y = rng.gen_range(0..n);
                g.add_edge(vs[x], vs[y], rng.gen_range(1..3));
            }
            let t0 = g.try_clock_period(&g.weights()).expect("valid");
            let target = t0; // always feasible
            let out = min_area_retiming(&g, target).expect("feasible at t0");
            let best = brute_force_min_flops(&g, target);
            assert_eq!(
                out.total_flops, best,
                "case {case}: solver {} vs brute {best}",
                out.total_flops
            );
        }
    }

    fn brute_force_min_flops(g: &RetimeGraph, t: u64) -> i64 {
        let n = g.num_vertices();
        let mut r = vec![0i64; n];
        let mut best = i64::MAX;
        fn rec(g: &RetimeGraph, t: u64, r: &mut Vec<i64>, i: usize, best: &mut i64) {
            if i == r.len() {
                let w = g.retimed_weights(r);
                if g.weights_legal(&w) {
                    if let Ok(p) = g.try_clock_period(&w) {
                        if p <= t {
                            *best = (*best).min(w.iter().sum());
                        }
                    }
                }
                return;
            }
            for v in -4..=4 {
                r[i] = v;
                rec(g, t, r, i + 1, best);
            }
            r[i] = 0;
        }
        rec(g, t, &mut r, 1, &mut best);
        best
    }

    /// Weighted optimality cross-check with random positive weights.
    #[test]
    fn weighted_min_area_is_optimal_on_random_small_graphs() {
        let mut rng = Rng::seed_from_u64(11);
        for case in 0..40 {
            let n = rng.gen_range(2..4usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..4), 1.0, None))
                .collect();
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], rng.gen_range(1..3));
            }
            let areas: Vec<f64> = (0..n).map(|_| rng.gen_range(1..8) as f64).collect();
            let t0 = g.try_clock_period(&g.weights()).expect("valid");
            let pc = generate_period_constraints(&g, t0).unwrap();
            let out = weighted_min_area_retiming(&g, &pc, &areas).expect("feasible");
            let got = weighted_flop_cost(&g, &out.weights, &areas);
            let best = brute_force_weighted(&g, t0, &areas);
            assert!(
                (got - best).abs() < 1e-6,
                "case {case}: solver {got} vs brute {best}"
            );
        }
    }

    fn brute_force_weighted(g: &RetimeGraph, t: u64, areas: &[f64]) -> f64 {
        let n = g.num_vertices();
        let mut r = vec![0i64; n];
        let mut best = f64::INFINITY;
        fn rec(g: &RetimeGraph, t: u64, areas: &[f64], r: &mut Vec<i64>, i: usize, best: &mut f64) {
            if i == r.len() {
                let w = g.retimed_weights(r);
                if g.weights_legal(&w) {
                    if let Ok(p) = g.try_clock_period(&w) {
                        if p <= t {
                            let c = weighted_flop_cost(g, &w, areas);
                            if c < *best {
                                *best = c;
                            }
                        }
                    }
                }
                return;
            }
            for v in -4..=4 {
                r[i] = v;
                rec(g, t, areas, r, i + 1, best);
            }
            r[i] = 0;
        }
        rec(g, t, areas, &mut r, 1, &mut best);
        best
    }

    #[test]
    fn fallback_matches_feasibility_and_verifies() {
        let g = pipeline();
        let out = feasible_min_area_fallback(&g, 5).expect("5 feasible");
        assert!(out.period <= 5);
        assert!(g.weights_legal(&out.weights));
        assert_eq!(out.weights, g.retimed_weights(&out.retiming));
        assert!(feasible_min_area_fallback(&g, 4).is_none());
    }

    #[test]
    #[should_panic]
    fn non_positive_area_weight_panics() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(a, a, 1);
        let pc = generate_period_constraints(&g, 10).unwrap();
        let _ = weighted_min_area_retiming(&g, &pc, &[0.0]);
    }
}
