//! Sequential netlist model, `.bench` I/O and ISCAS89-class benchmark
//! generators.
//!
//! The paper's input is "a register-transfer level netlist that describes
//! the interconnections of RT level functional units" (§2), where the
//! number of flip-flops on each connection is an *edge property* — exactly
//! the representation retiming wants. [`Circuit`] therefore stores
//! functional units ([`Unit`]) and multi-pin nets ([`Net`]) whose sinks
//! each carry a flip-flop count.
//!
//! * [`bench_format`] parses and writes ISCAS89 `.bench` files,
//!   collapsing explicit `DFF` elements into edge weights.
//! * [`bench89`] generates deterministic synthetic circuits with the same
//!   names and size classes as the ISCAS89 benchmarks used in the paper's
//!   Table 1 (see `DESIGN.md`, substitution 1).
//! * [`stats`] summarises circuits (unit/flop counts, sequential depth).
//!
//! # Examples
//!
//! ```
//! use lacr_netlist::bench89;
//!
//! let c = bench89::generate("s344")?;
//! assert_eq!(c.name(), "s344");
//! assert!(c.validate().is_empty());
//! # Ok::<(), lacr_netlist::UnknownBenchmarkError>(())
//! ```

pub mod bench89;
pub mod bench_format;
pub mod builder;
pub mod stats;

mod circuit;

pub use bench89::UnknownBenchmarkError;
pub use circuit::{Circuit, Edge, Net, NetId, Sink, Unit, UnitId, UnitKind};
