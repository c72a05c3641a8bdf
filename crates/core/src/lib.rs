//! LAC-retiming and the interconnect-planning pipeline — the paper's
//! primary contribution (Lu & Koh, DATE 2003).
//!
//! * [`expand`](mod@expand) — interconnect retiming-graph expansion (§3.2): routed
//!   connections become chains of interconnect units;
//! * [`lac`] — local area constrained retiming (§4.2): the adaptive
//!   weighted min-area loop, plus per-tile violation accounting;
//! * [`planner`] — the full Figure-1 pipeline (partition → floorplan →
//!   route → repeaters → retime) with the floorplan-expansion feedback
//!   iteration;
//! * [`experiment`] — the Table-1 driver: `T_init`, `T_min`,
//!   `T_clk = T_min + 0.2 (T_init − T_min)`, both retimers, formatted rows.
//!
//! # Examples
//!
//! Plan a benchmark circuit end to end:
//!
//! ```no_run
//! use lacr_core::experiment::run_circuit;
//! use lacr_core::planner::PlannerConfig;
//!
//! let row = run_circuit("s344", &PlannerConfig::default())?;
//! println!(
//!     "{}: baseline N_FOA {} vs LAC {}",
//!     row.circuit, row.min_area.n_foa, row.lac.n_foa
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod budget;
pub mod error;
pub mod expand;
pub mod experiment;
pub mod lac;
pub mod planner;
pub mod render;
pub mod summary;
pub mod writeback;

pub use budget::Budget;
pub use error::{Degradation, PlanError, PlanErrorKind, Stage};
pub use expand::{try_expand, ExpandOptions, ExpandedDesign};
pub use lac::{lac_retiming, score_outcome, LacConfig, LacResult, TileOccupancy};
pub use planner::{
    growth_from_violations, try_build_physical_plan, try_plan_retimings, try_plan_retimings_at,
    try_plan_with_iterations, IteratedPlan, PhysicalPlan, PlanReport, PlannerConfig, TimedRun,
};
pub use summary::{summarize, PlanSummary};
pub use writeback::try_retimed_circuit;
