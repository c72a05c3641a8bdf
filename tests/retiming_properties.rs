//! Property-based tests of the retiming stack: legality, optimality and
//! invariance properties on randomly generated graphs.
//!
//! Driven by the in-repo seeded property harness ([`lacr_prng::properties!`]):
//! every case is deterministic and a failure reports its replay seed.

use lacr::mcmf::{Constraint, DifferenceConstraints, DualSolver};
use lacr::retime::{
    generate_period_constraints, min_area_retiming, try_feasible_retiming, try_min_period_retiming,
    RetimeGraph, VertexKind,
};
use lacr_prng::{prop_assert, prop_assert_eq, Rng};

/// A random strongly-registered graph: a ring with ≥1 flop per edge plus
/// random chords. Every cycle is registered by construction.
fn arb_graph(rng: &mut Rng) -> RetimeGraph {
    let n = rng.gen_range(2usize..6);
    let mut g = RetimeGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|_| g.add_vertex(VertexKind::Functional, rng.gen_range(1u64..8), 1.0, None))
        .collect();
    for i in 0..n {
        g.add_edge(vs[i], vs[(i + 1) % n], rng.gen_range(1i64..3));
    }
    for _ in 0..rng.gen_range(0..6usize) {
        let a = rng.gen_range(0..6usize);
        let b = rng.gen_range(0..6usize);
        let w = rng.gen_range(1i64..3);
        if a < n && b < n {
            g.add_edge(vs[a], vs[b], w);
        }
    }
    g
}

lacr_prng::properties! {
    cases = 64;

    /// Any retiming vector keeps every cycle's total weight unchanged
    /// (checked on the ring, whose weight is directly computable).
    fn cycle_weight_invariance(rng) {
        let g = arb_graph(rng);
        let n = g.num_vertices();
        let r: Vec<i64> = (0..n).map(|_| rng.gen_range(-3i64..=3)).collect();
        let w0 = g.weights();
        let w1 = g.retimed_weights(&r);
        // ring edges are the first n edges
        let ring0: i64 = w0[..n].iter().sum();
        let ring1: i64 = w1[..n].iter().sum();
        prop_assert_eq!(ring0, ring1);
    }

    /// `try_min_period_retiming` returns a feasible retiming, and one below
    /// its reported optimum does not exist.
    fn min_period_is_tight(rng) {
        let g = arb_graph(rng);
        let res = try_min_period_retiming(&g, 0).unwrap().result;
        let w = g.retimed_weights(&res.retiming);
        prop_assert!(g.weights_legal(&w));
        let p = g.try_clock_period(&w).expect("legal");
        prop_assert!(p <= res.period);
        if res.period > 0 {
            prop_assert!(try_feasible_retiming(&g, res.period - 1).unwrap().is_none());
        }
    }

    /// Min-area retiming achieves the target and never increases the
    /// flip-flop count beyond the unretimed circuit when the target equals
    /// the unretimed period (r = 0 is a candidate).
    fn min_area_never_worse_than_identity(rng) {
        let g = arb_graph(rng);
        let t0 = g.try_clock_period(&g.weights()).expect("valid");
        let out = min_area_retiming(&g, t0).expect("t0 feasible");
        prop_assert!(out.period <= t0);
        prop_assert!(out.total_flops <= g.total_flops());
    }

    /// Constraint generation is sound and complete versus the oracle: a
    /// target is Bellman-Ford-feasible exactly when some retiming meets it
    /// (verified against the retimed clock period).
    fn constraints_characterise_feasibility(rng) {
        let g = arb_graph(rng);
        let slack = rng.gen_range(0u64..6);
        let mp = try_min_period_retiming(&g, 0).unwrap().result;
        let t = mp.period + slack;
        let pc = generate_period_constraints(&g, t).unwrap();
        let mut cons = lacr::retime::edge_constraints(&g);
        cons.extend(pc.constraints.iter().copied());
        let sys = DifferenceConstraints::new(g.num_vertices(), cons);
        let r = sys.solve().expect("t >= minimum period must be feasible");
        let w = g.retimed_weights(&r);
        prop_assert!(g.weights_legal(&w));
        prop_assert!(g.try_clock_period(&w).expect("legal") <= t);
    }

    /// Pruning is exact: a solution of the pruned constraint system (plus
    /// edge constraints) already satisfies every dropped constraint — its
    /// retimed clock period meets the target, so no violating pair was
    /// lost (on these small graphs, via end-to-end cross-checking).
    fn pruning_is_equivalence_preserving(rng) {
        let g = arb_graph(rng);
        let slack = rng.gen_range(0u64..4);
        let t = try_min_period_retiming(&g, 0).unwrap().result.period + slack;
        let pruned = generate_period_constraints(&g, t).unwrap();
        prop_assert!(pruned.constraints.len() <= pruned.pairs_before_pruning);
        let mut cons = lacr::retime::edge_constraints(&g);
        cons.extend(pruned.constraints.iter().copied());
        let sys = DifferenceConstraints::new(g.num_vertices(), cons);
        let r = sys.solve().expect("t >= minimum period must be feasible");
        let w = g.retimed_weights(&r);
        prop_assert!(g.weights_legal(&w));
        prop_assert!(
            g.try_clock_period(&w).expect("legal") <= t,
            "pruned solution misses the target period"
        );
    }
}

lacr_prng::properties! {
    cases = 48;

    /// The LP-dual solver agrees with brute force on random bounded
    /// difference-constraint programs.
    fn dual_solver_is_optimal(rng) {
        let n = rng.gen_range(2usize..5);
        let ring_bounds: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..4)).collect();
        let mut cons = Vec::new();
        for (i, &b) in ring_bounds.iter().enumerate() {
            cons.push(Constraint::new(i, (i + 1) % n, b));
        }
        let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-4i64..=4)).collect();
        let s: i64 = cost.iter().sum();
        cost[0] -= s;
        let r = DualSolver::new(n, &cons)
            .and_then(|mut solver| solver.solve(&cost))
            .expect("ring is bounded");
        for c in &cons {
            prop_assert!(r[c.u] - r[c.v] <= c.bound);
        }
        let obj: i64 = cost.iter().zip(&r).map(|(&c, &y)| c * y).sum();
        // brute force over a box that surely contains an optimum
        let mut best = i64::MAX;
        let bound: i64 = ring_bounds.iter().sum::<i64>() + 1;
        let mut x = vec![0i64; n];
        fn rec(
            i: usize,
            n: usize,
            bound: i64,
            x: &mut Vec<i64>,
            cons: &[Constraint],
            cost: &[i64],
            best: &mut i64,
        ) {
            if i == n {
                if cons.iter().all(|c| x[c.u] - x[c.v] <= c.bound) {
                    let v: i64 = cost.iter().zip(x.iter()).map(|(&c, &y)| c * y).sum();
                    *best = (*best).min(v);
                }
                return;
            }
            for v in -bound..=bound {
                x[i] = v;
                rec(i + 1, n, bound, x, cons, cost, best);
            }
            x[i] = 0;
        }
        // x[0] can stay 0: shifting all variables is objective-neutral
        // because the costs sum to zero.
        rec(1, n, bound, &mut x, &cons, &cost, &mut best);
        prop_assert_eq!(obj, best);
    }
}

lacr_prng::properties! {
    cases = 64;

    /// Classic STA identity: the worst slack equals `target − period`
    /// whenever the graph is non-empty (some path realises the period).
    fn worst_slack_is_target_minus_period(rng) {
        use lacr::retime::analyze_timing;
        let g = arb_graph(rng);
        let slack = rng.gen_range(0u64..10);
        let w = g.weights();
        let period = g.try_clock_period(&w).expect("valid circuit");
        let target = period + slack;
        let report = analyze_timing(&g, &w, target).expect("acyclic");
        prop_assert_eq!(report.period, period);
        prop_assert_eq!(report.worst_slack(), target as i64 - period as i64);
        prop_assert!(report.meets_target());
    }

    /// The critical path's delays sum to the period and its edges are
    /// unregistered.
    fn critical_path_realises_the_period(rng) {
        use lacr::retime::critical_path;
        let g = arb_graph(rng);
        let w = g.weights();
        let period = g.try_clock_period(&w).expect("valid circuit");
        let cp = critical_path(&g, &w);
        let sum: u64 = cp.iter().map(|&v| g.delay(v)).sum();
        prop_assert_eq!(sum, period);
    }

    /// Sharing-aware retiming never reports more shared registers than
    /// the per-connection total of the same solution, and its optimum is
    /// at most the shared score of the sum-model optimum.
    fn sharing_bounds(rng) {
        use lacr::retime::{
            generate_period_constraints, shared_min_area_retiming, shared_register_count,
            weighted_min_area_retiming,
        };
        let g = arb_graph(rng);
        let t = g.try_clock_period(&g.weights()).expect("valid circuit");
        let pc = generate_period_constraints(&g, t).unwrap();
        let ones = vec![1.0; g.num_vertices()];
        let sum_opt = weighted_min_area_retiming(&g, &pc, &ones).expect("t feasible");
        let shared = shared_min_area_retiming(&g, &pc, &ones).expect("t feasible");
        prop_assert!(shared.shared_registers <= shared.outcome.total_flops);
        prop_assert!(
            shared.shared_registers <= shared_register_count(&g, &sum_opt.weights)
        );
        prop_assert!(shared.outcome.period <= t);
    }
}
