//! Retiming of logic and interconnects (§3 of the paper).
//!
//! This crate implements the full classical retiming stack the paper's
//! LAC-retiming heuristic is built on:
//!
//! * [`RetimeGraph`] — the weighted graph `G(V, E)` with vertex delays,
//!   per-vertex flip-flop area weights and tile assignments, including
//!   *interconnect units* (repeater-driven wire segments modelled as
//!   zero-logic vertices, §3.2);
//! * [`try_min_period_retiming`] / [`try_feasible_retiming`] —
//!   Leiserson–Saxe FEAS with binary search, producing the paper's `T_min`
//!   (on host graphs with a legality closure, so every probe ends at a
//!   retiming or a certificate);
//! * [`generate_period_constraints`] — the W/D computation with
//!   Maheshwari–Sapatnekar-style constraint pruning, built **once** per
//!   target period;
//! * [`min_area_retiming`] / [`weighted_min_area_retiming`] — the LP dual /
//!   min-cost-flow solve (§3.1, §4.2).
//!
//! # Examples
//!
//! Retiming a two-stage pipeline to its optimum:
//!
//! ```
//! use lacr_retime::{min_area_retiming, try_min_period_retiming, RetimeGraph, VertexKind};
//!
//! let mut g = RetimeGraph::new();
//! let h = g.add_vertex(VertexKind::Host, 0, 1.0, None);
//! g.set_host(h);
//! let a = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
//! let b = g.add_vertex(VertexKind::Functional, 5, 1.0, None);
//! g.add_edge(h, a, 2);
//! g.add_edge(a, b, 0);
//! g.add_edge(b, h, 0);
//!
//! let mp = try_min_period_retiming(&g, 0)?.result;
//! assert_eq!(mp.period, 5);
//! let out = min_area_retiming(&g, mp.period)?;
//! assert_eq!(out.total_flops, 2);
//! # Ok::<(), lacr_retime::RetimeError>(())
//! ```

mod constraints;
mod feas;
mod graph;
mod minarea;
mod sharing;
mod sta;
mod verify;

pub use constraints::{edge_constraints, generate_period_constraints, PeriodConstraints};
pub use feas::{try_feasible_retiming, try_min_period_retiming, MinPeriodOutcome, MinPeriodResult};
pub use graph::{EdgeId, GraphEdge, RetimeGraph, VertexId, VertexKind};
pub use minarea::{
    feasible_min_area_fallback, min_area_retiming, weighted_flop_cost, weighted_min_area_retiming,
    MinAreaSolver, RetimeError, RetimingOutcome,
};
pub use sharing::{shared_min_area_retiming, shared_register_count, SharedRetimingOutcome};
pub use sta::{analyze_timing, critical_path, TimingReport};
pub use verify::{verify_retiming, VerifyError};
