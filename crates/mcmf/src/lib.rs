//! Minimum-cost flow and difference-constraint solvers.
//!
//! This crate is the mathematical substrate for minimum-area retiming
//! (Leiserson & Saxe, *Retiming Synchronous Circuitry*, Algorithmica 1991):
//! the linear program
//!
//! ```text
//! minimise   Σ_v a_v · r_v
//! subject to r_u − r_v ≤ b_uv          for every constraint (u, v, b)
//! ```
//!
//! is the LP dual of a transshipment (min-cost flow) problem.
//! [`DualSolver`] is the solver the planner runs: primal–dual phases of one
//! Dijkstra over reduced costs followed by a blocking-flow DFS, with the
//! residual network and Johnson potentials kept between solves so LAC's
//! re-weighted rounds warm-start. [`DifferenceConstraints`] solves pure
//! feasibility (no objective) with Bellman–Ford, as used by min-period
//! retiming.
//!
//! [`MinCostFlow`] (successive shortest paths, SSP) and
//! [`solve_dual_program`], which wraps the whole reduction around it, are
//! the stateless SSP reference that `DualSolver`'s property test checks
//! every warm-started solve against; the planner itself never calls them.
//!
//! All quantities are integers (`i64`); callers quantise real-valued data.

mod difference;
mod dual;
mod flow;

pub use difference::DifferenceConstraints;
pub use dual::DualSolver;
pub use flow::{FlowError, FlowSolution, MinCostFlow, NodeId};

use std::fmt;

/// A single difference constraint `r[u] − r[v] ≤ bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Index of the variable on the positive side.
    pub u: usize,
    /// Index of the variable on the negative side.
    pub v: usize,
    /// Upper bound on `r[u] − r[v]`.
    pub bound: i64,
}

impl Constraint {
    /// Creates a constraint `r[u] − r[v] ≤ bound`.
    pub fn new(u: usize, v: usize, bound: i64) -> Self {
        Self { u, v, bound }
    }
}

/// Error returned by [`solve_dual_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DualError {
    /// The constraint system itself is infeasible (negative cycle).
    Infeasible,
    /// The objective is unbounded below (the dual flow problem is
    /// infeasible: some imbalance cannot be routed).
    Unbounded,
    /// A variable index in a constraint or cost vector was out of range.
    VariableOutOfRange(usize),
}

impl fmt::Display for DualError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DualError::Infeasible => write!(f, "constraint system is infeasible"),
            DualError::Unbounded => write!(f, "objective is unbounded below"),
            DualError::VariableOutOfRange(i) => {
                write!(f, "variable index {i} out of range")
            }
        }
    }
}

impl std::error::Error for DualError {}

/// Solves `min Σ cost[v]·r[v]  s.t.  r[u] − r[v] ≤ bound` over integers.
///
/// `num_vars` is the number of `r` variables; every constraint and cost
/// index must be `< num_vars`. Duplicate `(u, v)` constraints are merged by
/// keeping the tightest bound. For retiming objectives the costs always sum
/// to zero; if they do not, a uniform shift of every variable changes the
/// objective while keeping every difference constraint satisfied, so the
/// program is unbounded and this function reports it as such.
///
/// Returns the optimal assignment `r` (anchored so `min r = 0`; only the
/// differences matter to retiming) and the optimal objective value.
///
/// # Errors
///
/// * [`DualError::Infeasible`] if the constraints admit no solution.
/// * [`DualError::Unbounded`] if the objective has no finite minimum.
/// * [`DualError::VariableOutOfRange`] for a bad index.
///
/// # Examples
///
/// ```
/// use lacr_mcmf::{solve_dual_program, Constraint};
///
/// // minimise r0 - r1  with  r0 - r1 <= 3  and  r1 - r0 <= 0
/// let (r, obj) = solve_dual_program(
///     2,
///     &[1, -1],
///     &[Constraint::new(0, 1, 3), Constraint::new(1, 0, 0)],
/// )?;
/// assert_eq!(obj, 0);
/// assert!(r[0] - r[1] <= 3 && r[1] - r[0] <= 0);
/// # Ok::<(), lacr_mcmf::DualError>(())
/// ```
pub fn solve_dual_program(
    num_vars: usize,
    cost: &[i64],
    constraints: &[Constraint],
) -> Result<(Vec<i64>, i64), DualError> {
    if cost.len() != num_vars {
        return Err(DualError::VariableOutOfRange(cost.len()));
    }
    for c in constraints {
        if c.u >= num_vars {
            return Err(DualError::VariableOutOfRange(c.u));
        }
        if c.v >= num_vars {
            return Err(DualError::VariableOutOfRange(c.v));
        }
    }
    // Feasibility first: an infeasible system must be reported as such, not
    // as an unroutable flow.
    let feas = DifferenceConstraints::new(num_vars, constraints.iter().copied());
    if feas.solve().is_none() {
        return Err(DualError::Infeasible);
    }
    if cost.iter().sum::<i64>() != 0 {
        return Err(DualError::Unbounded);
    }

    // Merge duplicate (u, v) arcs, keeping the minimum bound: only the
    // tightest constraint binds, and the dual flow may route any amount
    // through it.
    let mut merged: std::collections::HashMap<(usize, usize), i64> =
        std::collections::HashMap::with_capacity(constraints.len());
    for c in constraints {
        if c.u == c.v {
            // bound < 0 was already rejected by the feasibility check.
            continue;
        }
        merged
            .entry((c.u, c.v))
            .and_modify(|b| *b = (*b).min(c.bound))
            .or_insert(c.bound);
    }

    // Dual transshipment: one flow node per variable, one arc per merged
    // constraint (u -> v) with cost `bound` and infinite capacity; node v
    // must have (inflow − outflow) = cost[v].
    let mut flow = MinCostFlow::new();
    let nodes: Vec<NodeId> = (0..num_vars).map(|_| flow.add_node()).collect();
    for (&(u, v), &b) in &merged {
        flow.add_arc(nodes[u], nodes[v], i64::MAX / 4, b);
    }
    for (v, &c) in cost.iter().enumerate() {
        flow.set_imbalance(nodes[v], c);
    }
    let sol = match flow.solve() {
        Ok(s) => s,
        Err(FlowError::Infeasible | FlowError::NegativeCycle) => return Err(DualError::Unbounded),
    };

    // Complementary slackness: with potentials π from the final shortest
    // path computation, every residual arc has non-negative reduced cost
    // `b + π_u − π_v ≥ 0`, i.e. r = −π satisfies `r_u − r_v ≤ b`.
    let mut r: Vec<i64> = nodes.iter().map(|&n| -sol.potential(n)).collect();
    // Anchor: shift so the minimum is zero (differences are what matter).
    if let Some(&m) = r.iter().min() {
        for x in &mut r {
            *x -= m;
        }
    }
    let obj = cost.iter().zip(&r).map(|(&c, &x)| c * x).sum();
    debug_assert!(
        constraints.iter().all(|c| r[c.u] - r[c.v] <= c.bound),
        "dual potentials violate a primal constraint"
    );
    Ok((r, obj))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_program_simple_chain() {
        let cons = [
            Constraint::new(0, 1, 2),
            Constraint::new(1, 2, 2),
            Constraint::new(2, 0, 0),
        ];
        let (r, obj) = solve_dual_program(3, &[1, 0, -1], &cons).unwrap();
        for c in &cons {
            assert!(r[c.u] - r[c.v] <= c.bound);
        }
        // minimise r0 − r2 subject to r2 − r0 ≤ 0, so the optimum is 0.
        assert_eq!(obj, 0);
    }

    #[test]
    fn dual_program_forced_positive() {
        // r0 − r1 ≥ 1 encoded as r1 − r0 ≤ −1; minimise r0 − r1 → optimum 1.
        let cons = [Constraint::new(1, 0, -1), Constraint::new(0, 1, 5)];
        let (r, obj) = solve_dual_program(2, &[1, -1], &cons).unwrap();
        assert!(r[1] - r[0] <= -1);
        assert_eq!(obj, 1);
    }

    #[test]
    fn dual_program_detects_infeasible() {
        let cons = [Constraint::new(0, 1, -1), Constraint::new(1, 0, -1)];
        assert_eq!(
            solve_dual_program(2, &[1, -1], &cons),
            Err(DualError::Infeasible)
        );
    }

    #[test]
    fn dual_program_detects_unbounded_cost_sum() {
        let cons = [Constraint::new(0, 1, 1)];
        assert_eq!(
            solve_dual_program(2, &[1, 0], &cons),
            Err(DualError::Unbounded)
        );
    }

    #[test]
    fn dual_program_unbounded_direction() {
        // minimise r0 − r1 with only r0 − r1 ≤ 3: can push to −∞.
        let cons = [Constraint::new(0, 1, 3)];
        assert_eq!(
            solve_dual_program(2, &[1, -1], &cons),
            Err(DualError::Unbounded)
        );
    }

    #[test]
    fn dual_program_rejects_bad_index() {
        let cons = [Constraint::new(0, 7, 3)];
        assert_eq!(
            solve_dual_program(2, &[1, -1], &cons),
            Err(DualError::VariableOutOfRange(7))
        );
    }

    #[test]
    fn dual_program_merges_parallel_constraints() {
        // Two parallel (0,1) constraints: the tighter (bound 1) governs.
        let cons = [
            Constraint::new(0, 1, 5),
            Constraint::new(0, 1, 1),
            Constraint::new(1, 0, 0),
        ];
        let (r, _) = solve_dual_program(2, &[-1, 1], &cons).unwrap();
        assert!(r[0] - r[1] <= 1);
        // maximise r0 − r1 (cost −1,1) → hit the tight bound exactly.
        assert_eq!(r[0] - r[1], 1);
    }

    #[test]
    fn dual_program_self_loop_nonnegative_ok() {
        let cons = [
            Constraint::new(0, 0, 0),
            Constraint::new(0, 1, 1),
            Constraint::new(1, 0, 0),
        ];
        let (r, _) = solve_dual_program(2, &[1, -1], &cons).unwrap();
        assert!(r[0] - r[1] <= 1);
    }

    #[test]
    fn dual_program_self_loop_negative_infeasible() {
        let cons = [Constraint::new(0, 0, -1)];
        assert_eq!(
            solve_dual_program(1, &[0], &cons),
            Err(DualError::Infeasible)
        );
    }

    #[test]
    fn dual_program_diamond_prefers_cheap_side() {
        // Diamond 0→{1,2}→3 with a cycle closure; minimise r1 − r2 pressure.
        let cons = [
            Constraint::new(0, 1, 1),
            Constraint::new(1, 0, 0),
            Constraint::new(0, 2, 4),
            Constraint::new(2, 0, 0),
            Constraint::new(1, 3, 2),
            Constraint::new(3, 1, 0),
            Constraint::new(2, 3, 2),
            Constraint::new(3, 2, 0),
        ];
        // objective: maximise r0 − r3 → cost (−1, 0, 0, 1)
        let (r, obj) = solve_dual_program(4, &[-1, 0, 0, 1], &cons).unwrap();
        for c in &cons {
            assert!(r[c.u] - r[c.v] <= c.bound, "violated {c:?} with r={r:?}");
        }
        // r0 − r3 ≤ min(1 + 2, 4 + 2) = 3, and achievable.
        assert_eq!(obj, -3);
    }

    #[test]
    fn dual_program_zero_cost_returns_feasible() {
        let cons = [Constraint::new(0, 1, 1), Constraint::new(1, 0, 2)];
        let (r, obj) = solve_dual_program(2, &[0, 0], &cons).unwrap();
        assert_eq!(obj, 0);
        assert!(r[0] - r[1] <= 1 && r[1] - r[0] <= 2);
    }
}
