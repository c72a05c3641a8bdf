//! Register-sharing-aware minimum-area retiming (the Leiserson–Saxe §8
//! "mirror vertex" model).
//!
//! The paper (and [`crate::min_area_retiming`]) counts flip-flops per
//! *connection*: `N(G_r) = Σ_e w_r(e)`. Physically, a multi-fanout unit
//! can drive all its fanouts from one shared register chain, so the
//! registers actually needed at `u`'s output are
//! `max_i w_r(u, v_i)`, not the sum. Minimising
//!
//! ```text
//! Σ_u A(u) · max_i w_r(u, v_i)
//! ```
//!
//! is still an LP over difference constraints: for every multi-fanout
//! vertex `u`, introduce a *mirror* variable `û` encoding the chain length
//! via `m_u = w_max(u) + r(û) − r(u)`; then `m_u ≥ w_r(u, v_i)` becomes
//! the difference constraint `r(v_i) − r(û) ≤ w_max(u) − w(u, v_i)`, and
//! `m_u ≥ 0` becomes `r(u) − r(û) ≤ w_max(u)`. The objective swaps the
//! per-edge fanout terms of `u` for one `A(u)·m_u` term. Everything else
//! (edge non-negativity, clock-period constraints) is untouched, so the
//! same [`lacr_mcmf::DualSolver`] machinery applies.

use crate::constraints::{edge_constraints, PeriodConstraints};
use crate::graph::RetimeGraph;
use crate::minarea::{solved_period, RetimeError, RetimingOutcome, AREA_SCALE};
use lacr_mcmf::{Constraint, DualError, DualSolver};

/// Outcome of a sharing-aware min-area retiming.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRetimingOutcome {
    /// The retiming itself (weights, period, per-connection flip-flops).
    pub outcome: RetimingOutcome,
    /// Registers needed under the sharing model:
    /// `Σ_u max_i w_r(u, v_i)` (what the optimiser minimised).
    pub shared_registers: i64,
}

/// Registers needed by an edge-weight assignment under maximal fanout
/// sharing: `Σ_u max over u's out-edges of w(e)`.
///
/// # Panics
///
/// Panics if `weights` is not parallel to the graph's edges.
pub fn shared_register_count(graph: &RetimeGraph, weights: &[i64]) -> i64 {
    assert_eq!(weights.len(), graph.num_edges());
    graph
        .vertex_ids()
        .map(|u| {
            graph
                .out_edges(u)
                .map(|e| weights[e.index()])
                .max()
                .unwrap_or(0)
        })
        .sum()
}

/// Sharing-aware weighted minimum-area retiming.
///
/// Minimises `Σ_u A(u) · max_i w_r(u, v_i)` subject to the usual edge and
/// clock-period constraints. Compared with [`crate::weighted_min_area_retiming`],
/// this can pick a retiming with a *larger* per-connection sum when that
/// lets multi-fanout registers be shared.
///
/// # Errors
///
/// [`RetimeError::PeriodInfeasible`] when the constraint system has no
/// solution; [`RetimeError::Internal`] on unexpected solver failures.
///
/// # Panics
///
/// Panics if `areas` mismatches the graph or a weight is not positive and
/// finite.
///
/// # Examples
///
/// ```
/// use lacr_retime::{
///     generate_period_constraints, min_area_retiming, shared_min_area_retiming,
///     shared_register_count, RetimeGraph, VertexKind,
/// };
///
/// // One driver with two registered fanouts closing back to it.
/// let mut g = RetimeGraph::new();
/// let u = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
/// let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
/// let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
/// g.add_edge(u, a, 2);
/// g.add_edge(u, b, 2);
/// g.add_edge(a, u, 0);
/// g.add_edge(b, u, 0);
/// let pc = generate_period_constraints(&g, 100).unwrap();
/// let shared = shared_min_area_retiming(&g, &pc, &[1.0; 3])?;
/// // Two parallel 2-register chains share into one chain of 2.
/// assert_eq!(shared.shared_registers, 2);
/// # Ok::<(), lacr_retime::RetimeError>(())
/// ```
pub fn shared_min_area_retiming(
    graph: &RetimeGraph,
    period_constraints: &PeriodConstraints,
    areas: &[f64],
) -> Result<SharedRetimingOutcome, RetimeError> {
    let n = graph.num_vertices();
    let _span = lacr_obs::span!("retime.sharing_solve", vertices = n);
    assert_eq!(areas.len(), n);
    assert!(
        areas.iter().all(|a| *a > 0.0 && a.is_finite()),
        "area weights must be positive and finite"
    );
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

    // Mirror variables for multi-fanout vertices.
    let mut mirror_of = vec![usize::MAX; n];
    let mut num_vars = n;
    let mut w_max = vec![0i64; n];
    for u in graph.vertex_ids() {
        let fanout = graph.out_edges(u).count();
        if fanout >= 2 {
            mirror_of[u.index()] = num_vars;
            num_vars += 1;
            w_max[u.index()] = graph
                .out_edges(u)
                .map(|e| graph.edge(e).weight)
                .max()
                .unwrap_or(0);
        }
    }

    let mut cons: Vec<Constraint> = edge_constraints(graph);
    cons.extend(period_constraints.constraints.iter().copied());
    for u in graph.vertex_ids() {
        let ui = u.index();
        let m = mirror_of[ui];
        if m == usize::MAX {
            continue;
        }
        // m_u ≥ 0  ⇔  r(u) − r(û) ≤ w_max(u)
        cons.push(Constraint::new(ui, m, w_max[ui]));
        // m_u ≥ w_r(u, v_i)  ⇔  r(v_i) − r(û) ≤ w_max(u) − w(u, v_i)
        for e in graph.out_edges(u) {
            let edge = graph.edge(e);
            cons.push(Constraint::new(edge.to.index(), m, w_max[ui] - edge.weight));
        }
    }

    let qa: Vec<i64> = areas
        .iter()
        .map(|a| (a * AREA_SCALE).round().max(1.0) as i64)
        .collect();
    let mut cost = vec![0i64; num_vars];
    for u in graph.vertex_ids() {
        let ui = u.index();
        match mirror_of[ui] {
            usize::MAX => {
                // Single-fanout (or sink): the classic per-edge terms.
                for e in graph.out_edges(u) {
                    let edge = graph.edge(e);
                    cost[edge.to.index()] += qa[ui];
                    cost[ui] -= qa[ui];
                }
            }
            m => {
                // One A(u)·m_u term: +A(u) on û, −A(u) on u.
                cost[m] += qa[ui];
                cost[ui] -= qa[ui];
            }
        }
    }

    let mut solver = match DualSolver::new(num_vars, &cons) {
        Ok(s) => s,
        Err(DualError::Infeasible) => {
            return Err(RetimeError::PeriodInfeasible {
                target: period_constraints.target,
            })
        }
        Err(e) => return Err(RetimeError::Internal(e.to_string())),
    };
    let r_all = solver
        .solve(&cost)
        .map_err(|e| RetimeError::Internal(e.to_string()))?;

    let r = r_all[..n].to_vec();
    let weights = graph.retimed_weights(&r);
    debug_assert!(graph.weights_legal(&weights));
    let period = solved_period(graph, &weights)?;
    debug_assert!(period <= period_constraints.target);
    let shared = shared_register_count(graph, &weights);
    Ok(SharedRetimingOutcome {
        outcome: RetimingOutcome {
            total_flops: weights.iter().sum(),
            retiming: r,
            weights,
            period,
        },
        shared_registers: shared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::generate_period_constraints;
    use crate::graph::VertexKind;
    use crate::minarea::weighted_min_area_retiming;
    use lacr_prng::Rng;

    /// Fork where sharing matters: u drives a and b, both paths carry two
    /// registers back to u.
    fn fork() -> RetimeGraph {
        let mut g = RetimeGraph::new();
        let u = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, None);
        g.add_edge(u, a, 2);
        g.add_edge(u, b, 2);
        g.add_edge(a, u, 0);
        g.add_edge(b, u, 0);
        g
    }

    #[test]
    fn sharing_halves_the_fork_cost() {
        let g = fork();
        let pc = generate_period_constraints(&g, 100).unwrap();
        let unshared = weighted_min_area_retiming(&g, &pc, &[1.0; 3]).unwrap();
        let shared = shared_min_area_retiming(&g, &pc, &[1.0; 3]).unwrap();
        // Sum model cannot beat 4 (cycle sums are invariant: each of the
        // two u→x→u cycles carries 2).
        assert_eq!(unshared.total_flops, 4);
        assert_eq!(shared.shared_registers, 2);
        // And the sharing-aware solution is one chain of 2 at u's output.
        assert_eq!(shared.outcome.weights[0], shared.outcome.weights[1]);
    }

    #[test]
    fn shared_count_helper() {
        let g = fork();
        assert_eq!(shared_register_count(&g, &[2, 2, 0, 0]), 2);
        assert_eq!(shared_register_count(&g, &[2, 0, 0, 2]), 4);
        assert_eq!(shared_register_count(&g, &[0, 0, 1, 1]), 2);
    }

    #[test]
    fn sharing_never_worse_than_sum_model() {
        // The sharing optimum is ≤ the shared cost of the sum-model
        // optimum (it optimises that metric directly).
        let mut rng = Rng::seed_from_u64(23);
        for case in 0..40 {
            let n = rng.gen_range(3..6usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..4), 1.0, None))
                .collect();
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], rng.gen_range(1..3));
            }
            for _ in 0..rng.gen_range(1..4) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                g.add_edge(vs[a], vs[b], rng.gen_range(1..3));
            }
            let t = g.try_clock_period(&g.weights()).expect("valid");
            let pc = generate_period_constraints(&g, t).unwrap();
            let unshared = weighted_min_area_retiming(&g, &pc, &vec![1.0; n]).unwrap();
            let shared = shared_min_area_retiming(&g, &pc, &vec![1.0; n]).unwrap();
            assert!(
                shared.shared_registers <= shared_register_count(&g, &unshared.weights),
                "case {case}"
            );
            assert!(shared.outcome.period <= t, "case {case}");
        }
    }

    #[test]
    fn sharing_optimum_matches_brute_force() {
        let mut rng = Rng::seed_from_u64(31);
        for case in 0..30 {
            let n = rng.gen_range(2..4usize);
            let mut g = RetimeGraph::new();
            let vs: Vec<_> = (0..n)
                .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1..4), 1.0, None))
                .collect();
            for i in 0..n {
                g.add_edge(vs[i], vs[(i + 1) % n], rng.gen_range(1..3));
            }
            for _ in 0..rng.gen_range(1..3) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                g.add_edge(vs[a], vs[b], rng.gen_range(0..2));
            }
            if g.try_clock_period(&g.weights()).is_err() {
                continue; // chord created a zero-weight cycle
            }
            let t = g.try_clock_period(&g.weights()).expect("valid");
            let pc = generate_period_constraints(&g, t).unwrap();
            let shared = match shared_min_area_retiming(&g, &pc, &vec![1.0; n]) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let best = brute_force_shared(&g, t);
            assert_eq!(shared.shared_registers, best, "case {case}");
        }
    }

    fn brute_force_shared(g: &RetimeGraph, t: u64) -> i64 {
        let n = g.num_vertices();
        let mut r = vec![0i64; n];
        let mut best = i64::MAX;
        fn rec(g: &RetimeGraph, t: u64, r: &mut Vec<i64>, i: usize, best: &mut i64) {
            if i == r.len() {
                let w = g.retimed_weights(r);
                if g.weights_legal(&w) {
                    if let Ok(p) = g.try_clock_period(&w) {
                        if p <= t {
                            *best = (*best).min(shared_register_count(g, &w));
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

    #[test]
    fn infeasible_period_reported() {
        let g = fork();
        let pc = generate_period_constraints(&g, 0).unwrap();
        assert!(matches!(
            shared_min_area_retiming(&g, &pc, &[1.0; 3]),
            Err(RetimeError::PeriodInfeasible { .. })
        ));
    }
}
