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
//! [`DualSolver`] solves it primal–dual: each phase is one Dijkstra
//! repricing over reduced costs, then one exact maximum flow (ISAP) over
//! the arcs of zero reduced cost. The residual network and Johnson
//! potentials are kept between solves, so LAC's re-weighted rounds
//! warm-start. [`check_optimal`] certifies a solution by LP duality from
//! the caller's constraint list and the solver's flow
//! ([`DualSolver::flows`]); in a debug build every successful solve
//! passes it before it returns. [`DifferenceConstraints`] solves pure
//! feasibility (no objective) with Bellman–Ford: the dual solver's
//! starting potentials, and the W/D reference oracle that tests check
//! min-period retiming against. An infeasible system ends at the
//! negative cycle that proves it.
//!
//! All quantities are integers (`i64`); callers quantise real-valued data.

mod certificate;
mod difference;
mod dual;

pub use certificate::check_optimal;
pub use difference::DifferenceConstraints;
pub use dual::DualSolver;

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

/// Error returned by [`DualSolver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DualError {
    /// The constraint system itself is infeasible (negative cycle).
    Infeasible,
    /// The objective is unbounded below (the dual flow problem is
    /// infeasible: some imbalance cannot be routed).
    Unbounded,
    /// A variable index in a constraint was out of range.
    VariableOutOfRange(usize),
    /// The supplies are too large for the solver's `i64` flow: their sum
    /// overflows, or the flow fills a constraint arc's finite stand-in for
    /// infinite capacity. The program itself may well be bounded.
    Overflow,
}

impl fmt::Display for DualError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DualError::Infeasible => write!(f, "constraint system is infeasible"),
            DualError::Unbounded => write!(f, "objective is unbounded below"),
            DualError::VariableOutOfRange(i) => {
                write!(f, "variable index {i} out of range")
            }
            DualError::Overflow => write!(f, "supplies overflow the i64 flow network"),
        }
    }
}

impl std::error::Error for DualError {}
