//! # lacr — Interconnect Planning with Local Area Constrained Retiming
//!
//! A reproduction of Lu & Koh, *"Interconnect Planning with Local Area
//! Constrained Retiming"*, DATE 2003, as a workspace of focused crates.
//!
//! This facade crate re-exports every sub-crate so downstream users can
//! depend on a single package:
//!
//! ```
//! use lacr::netlist::bench89;
//! use lacr::core::planner::PlannerConfig;
//!
//! let circuit = bench89::generate("s344").expect("known benchmark");
//! assert!(circuit.num_units() > 0);
//! let _cfg = PlannerConfig::default();
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`netlist`] | sequential circuit model, `.bench` I/O, ISCAS89-class generators |
//! | [`mcmf`] | min-cost flow and difference-constraint solvers |
//! | [`timing`] | technology parameters and Elmore delay models |
//! | [`partition`] | recursive Fiduccia–Mattheyses partitioning |
//! | [`floorplan`] | sequence-pair floorplanner and the tile graph |
//! | [`route`] | rectilinear Steiner trees and congestion-aware global routing |
//! | [`repeater`] | `L_max`-constrained repeater planning, interconnect units |
//! | [`retime`] | retiming graphs, W/D matrices, min-period / min-area retiming |
//! | [`core`] | LAC-retiming, the planning pipeline, the experiment driver |
//! | [`obs`] | zero-dependency tracing, metrics and perf reports |
//! | [`par`] | deterministic scoped thread pool and ordered parallel map |
//! | [`bench`](mod@bench) | run artifacts, validators and the regression gate |
//! | [`serve`] | the `lacr serve` daemon: line-JSON protocol, worker pool, fault isolation |

pub use lacr_bench as bench;
pub use lacr_core as core;
pub use lacr_floorplan as floorplan;
pub use lacr_mcmf as mcmf;
pub use lacr_netlist as netlist;
pub use lacr_obs as obs;
pub use lacr_par as par;
pub use lacr_partition as partition;
pub use lacr_repeater as repeater;
pub use lacr_retime as retime;
pub use lacr_route as route;
pub use lacr_serve as serve;
pub use lacr_timing as timing;
