//! The workspace error taxonomy: every fallible planning stage reports a
//! typed error with *stage provenance*, and recoverable trouble is
//! reported as a [`Degradation`] attached to the plan instead of an
//! abort.
//!
//! The planning pipeline is an *early-planning* loop (§5 of the paper
//! runs it on first-iteration floorplans "without any physical
//! information"), so it must fail soft: malformed inputs come back as a
//! [`PlanError`] naming the stage that rejected them, and budget
//! expiry / legalization failure / routing overflow degrade the plan
//! (best-so-far results plus a [`Degradation`] note) rather than
//! crashing the caller.

use lacr_floorplan::FloorplanError;
use lacr_repeater::RepeaterError;
use lacr_retime::RetimeError;
use lacr_route::RouteError;
use std::fmt;

/// The pipeline stage an error or degradation originated from, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Input validation (circuit, technology, configuration).
    Validate,
    /// Partitioning units into soft blocks.
    Partition,
    /// Sequence-pair floorplanning.
    Floorplan,
    /// Tile-grid construction over the floorplan.
    TileGrid,
    /// Congestion-aware global routing.
    Route,
    /// `L_max` repeater planning.
    Repeater,
    /// Netlist expansion into interconnect units.
    Expand,
    /// Clock-period characterisation (T_init / T_min).
    Timing,
    /// Period-constraint generation.
    Constraints,
    /// (Weighted) min-area retiming.
    MinArea,
    /// Local-area-constrained retiming rounds.
    Lac,
    /// Writing the retimed netlist back.
    Writeback,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Validate => "validate",
            Stage::Partition => "partition",
            Stage::Floorplan => "floorplan",
            Stage::TileGrid => "tile-grid",
            Stage::Route => "route",
            Stage::Repeater => "repeater",
            Stage::Expand => "expand",
            Stage::Timing => "timing",
            Stage::Constraints => "constraints",
            Stage::MinArea => "min-area",
            Stage::Lac => "lac",
            Stage::Writeback => "writeback",
        };
        f.write_str(name)
    }
}

/// What went wrong, independent of where.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanErrorKind {
    /// The circuit fails [`lacr_netlist::Circuit::validate`]; carries the
    /// full list of problems.
    InvalidCircuit(Vec<String>),
    /// The technology fails `Technology::validate`.
    InvalidTechnology(Vec<String>),
    /// The planner configuration itself is unusable.
    InvalidConfig(Vec<String>),
    /// The per-block growth vector does not match the block count.
    GrowthMismatch {
        /// Blocks in the partitioning.
        expected: usize,
        /// Entries in the supplied growth vector.
        got: usize,
    },
    /// Floorplanning rejected the block specs.
    Floorplan(FloorplanError),
    /// Routing rejected the net list.
    Route(RouteError),
    /// Repeater planning could not satisfy `L_max`.
    Repeater(RepeaterError),
    /// Graph expansion found an inconsistency between the routing and the
    /// circuit (mismatched nets, cells, or options).
    Expand(String),
    /// The expanded graph has a combinational (zero-weight) cycle, so no
    /// clock period exists.
    CombinationalCycle,
    /// Retiming failed (period infeasible, or an internal solver failure
    /// that survived the whole degradation ladder).
    Retime(RetimeError),
    /// Writing the retimed circuit back failed.
    Writeback(String),
}

impl fmt::Display for PlanErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidCircuit(problems) => {
                write!(f, "invalid circuit: {}", problems.join("; "))
            }
            Self::InvalidTechnology(problems) => {
                write!(f, "invalid technology: {}", problems.join("; "))
            }
            Self::InvalidConfig(problems) => {
                write!(f, "invalid planner config: {}", problems.join("; "))
            }
            Self::GrowthMismatch { expected, got } => {
                write!(f, "growth vector has {got} entries for {expected} blocks")
            }
            Self::Floorplan(e) => write!(f, "{e}"),
            Self::Route(e) => write!(f, "{e}"),
            Self::Repeater(e) => write!(f, "{e}"),
            Self::Expand(msg) => write!(f, "{msg}"),
            Self::CombinationalCycle => {
                write!(f, "expanded graph has a cycle with no flip-flop")
            }
            Self::Retime(e) => write!(f, "{e}"),
            Self::Writeback(msg) => write!(f, "{msg}"),
        }
    }
}

/// A typed, stage-tagged planning error — the unified error type of the
/// whole pipeline (re-exported as `lacr::PlanError`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// The pipeline stage that failed.
    pub stage: Stage,
    /// What went wrong.
    pub kind: PlanErrorKind,
}

impl PlanError {
    /// Builds an error tagged with its originating stage.
    pub fn new(stage: Stage, kind: PlanErrorKind) -> Self {
        Self { stage, kind }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.kind)
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            PlanErrorKind::Floorplan(e) => Some(e),
            PlanErrorKind::Route(e) => Some(e),
            PlanErrorKind::Repeater(e) => Some(e),
            PlanErrorKind::Retime(e) => Some(e),
            _ => None,
        }
    }
}

/// A recoverable quality loss the pipeline absorbed instead of failing:
/// an expired budget, a fallback solver, residual overflow. Plans carry
/// these so callers (and the CLI, which maps them to exit code 3) can
/// tell a pristine result from a degraded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The stage that degraded.
    pub stage: Stage,
    /// Human-readable reason (deadline expiry, fallback taken, residual
    /// overflow, …).
    pub reason: String,
}

impl Degradation {
    /// Builds a degradation note. Every rung of the degradation ladder
    /// passes through here, so construction doubles as the structured
    /// `degradation` observability event.
    pub fn new(stage: Stage, reason: impl Into<String>) -> Self {
        let d = Self {
            stage,
            reason: reason.into(),
        };
        lacr_obs::event!(
            "degradation",
            stage = d.stage.to_string(),
            reason = d.reason.as_str()
        );
        d
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_detail() {
        let e = PlanError::new(
            Stage::Validate,
            PlanErrorKind::InvalidCircuit(vec!["unit 3: area is NaN".into()]),
        );
        let s = e.to_string();
        assert!(s.contains("validate"), "{s}");
        assert!(s.contains("NaN"), "{s}");
    }

    #[test]
    fn degradation_displays_stage() {
        let d = Degradation::new(Stage::Lac, "2 tiles still overflow");
        assert_eq!(d.to_string(), "[lac] 2 tiles still overflow");
    }

    #[test]
    fn stages_order_follows_pipeline() {
        assert!(Stage::Validate < Stage::Floorplan);
        assert!(Stage::Route < Stage::Lac);
        assert!(Stage::Lac < Stage::Writeback);
    }
}
