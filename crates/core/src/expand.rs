//! Interconnect retiming graph expansion (§3.2).
//!
//! "We represent each interconnect as a series of interconnect units,
//! which have delay but perform no logic function. Repeater insertion
//! provides a natural segmentation of an interconnect into interconnect
//! units, with the delay of each unit being the sum of the repeater delay
//! and the delay of the interconnect segment driven by the repeater."
//!
//! [`try_expand`] turns a circuit plus its routing into the expanded
//! [`RetimeGraph`]: every routed driver→sink connection becomes a chain
//! `u → s₁ → … → s_k → v` of interconnect-unit vertices, with the
//! connection's original flip-flops on the first chain edge (they start in
//! the driver's block) and each unit mapped to the tile of the cell its
//! driver (repeater) occupies — the paper's `P(v)` function and
//! fanin-placement rule (§4).
//!
//! The optional finer sub-segmentation the paper discusses ("even more
//! flexibility can be introduced if we further divide the interconnect
//! segment between two repeaters into several interconnect units", at the
//! cost of conservative fixed delays) is exposed through
//! [`ExpandOptions::units_per_span`], and
//! [`ExpandOptions::tile_crossing_units`] additionally splits each span
//! at tile boundaries so every tile a route traverses is a usable
//! flip-flop site under the fanin-placement rule.

use crate::error::{PlanError, PlanErrorKind, Stage};
use lacr_floorplan::tiles::{CapacityLedger, TileGrid};
use lacr_netlist::{Circuit, UnitId, UnitKind};
use lacr_repeater::try_insert_repeaters;
use lacr_retime::{RetimeGraph, VertexId, VertexKind};
use lacr_route::Routing;
use lacr_timing::{quantize_ps, Technology};
use std::collections::BTreeMap;

/// Options controlling the graph expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpandOptions {
    /// Interconnect units per repeater span. 1 reproduces the paper's
    /// natural segmentation; larger values add retiming flexibility.
    pub units_per_span: usize,
    /// With sub-segmentation, assign every sub-unit the *maximum* delay of
    /// its span ("find out the maximum delay of an interconnect segment
    /// under all possible ways of inserting flip-flops and assign that
    /// delay to the segment") instead of the proportional share.
    pub conservative_delays: bool,
    /// Additionally split every repeater span at tile boundaries, so each
    /// tile a route passes through contributes at least one interconnect
    /// unit. Without this, a span's single unit sits at its driving
    /// repeater and — under the fanin-placement rule — every flip-flop on
    /// a short wire is chargeable only to the *driver's* tile, even when
    /// the wire crosses into tiles with spare capacity. Splitting at
    /// crossings exposes every traversed tile as a flip-flop site, which
    /// is what lets LAC retiming relocate flip-flops along the wire.
    pub tile_crossing_units: bool,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        Self {
            units_per_span: 1,
            conservative_delays: false,
            tile_crossing_units: false,
        }
    }
}

/// The expanded design: the retiming graph plus its tile capacities.
#[derive(Debug, Clone)]
pub struct ExpandedDesign {
    /// The retiming graph with functional and interconnect units.
    pub graph: RetimeGraph,
    /// Graph vertex of every circuit unit (I/O maps to the host). A
    /// `BTreeMap` so any serialisation of the design (debug dumps, the
    /// determinism suite's plan comparison) iterates in key order rather
    /// than hash order.
    pub unit_vertex: BTreeMap<UnitId, VertexId>,
    /// Interconnect-unit vertices created.
    pub num_interconnect_units: usize,
    /// Repeaters committed during expansion.
    pub num_repeaters: usize,
    /// Index of the virtual pad-ring tile that hosts flip-flops retimed
    /// onto primary I/O connections.
    pub pad_tile: usize,
    /// Flip-flop capacity per tile (in flip-flops, fractional), indexed by
    /// tile id with the pad tile last. Computed from the capacity left
    /// after repeater insertion — the paper's "remaining capacity after
    /// repeater insertion" (§4).
    pub caps_ff: Vec<f64>,
    /// For every circuit connection (in [`Circuit::edges`] order): the
    /// chain of graph edges it expanded into (one edge for same-cell
    /// connections). Summing retimed weights over a chain gives the
    /// connection's new flip-flop count, which
    /// [`crate::writeback::try_retimed_circuit`] uses.
    pub connection_chains: Vec<Vec<lacr_retime::EdgeId>>,
}

/// Expands `circuit` into the interconnect retiming graph.
///
/// `unit_cell[u]` is the routing-grid cell of unit `u` (its position in
/// its block); `routing.nets` must be parallel to `circuit.nets()`. The
/// `ledger` carries capacities already reduced by anything committed
/// earlier; repeater insertion debits it further, and the remaining
/// capacity becomes the flip-flop budget `C(t)`.
///
/// # Errors
///
/// A [`PlanError`] at [`Stage::Expand`] when `routing` or `unit_cell` is
/// not parallel to the circuit or `options.units_per_span == 0`, and one
/// at [`Stage::Repeater`] when repeater insertion fails for some routed
/// path.
#[allow(clippy::too_many_arguments)] // the planner's one assembly point
pub fn try_expand(
    circuit: &Circuit,
    technology: &Technology,
    grid: &TileGrid,
    ledger: &mut CapacityLedger,
    unit_cell: &[usize],
    routing: &Routing,
    pad_ff_capacity: f64,
    options: &ExpandOptions,
) -> Result<ExpandedDesign, PlanError> {
    let mismatch = |msg: String| PlanError::new(Stage::Expand, PlanErrorKind::Expand(msg));
    if routing.nets.len() != circuit.num_nets() {
        return Err(mismatch(format!(
            "routing has {} nets for a circuit with {}",
            routing.nets.len(),
            circuit.num_nets()
        )));
    }
    if options.units_per_span == 0 {
        return Err(mismatch("units_per_span must be >= 1".into()));
    }
    if unit_cell.len() != circuit.num_units() {
        return Err(mismatch(format!(
            "unit_cell has {} entries for {} units",
            unit_cell.len(),
            circuit.num_units()
        )));
    }

    let pad_tile = grid.num_tiles();
    let mut graph = RetimeGraph::new();
    let host = graph.add_vertex(VertexKind::Host, 0, 1.0, Some(pad_tile));
    graph.set_host(host);

    let mut unit_vertex: BTreeMap<UnitId, VertexId> = BTreeMap::new();
    for uid in circuit.unit_ids() {
        let unit = circuit.unit(uid);
        let v = match unit.kind {
            UnitKind::Input | UnitKind::Output => host,
            UnitKind::Logic => {
                let delay = quantize_ps(technology.unit_delay_ps(unit.delay_ps));
                let tile = grid.tile_of_cell(unit_cell[uid.index()]);
                graph.add_vertex(VertexKind::Functional, delay, 1.0, Some(tile.index()))
            }
        };
        unit_vertex.insert(uid, v);
    }

    let mut num_interconnect_units = 0usize;
    let mut num_repeaters = 0usize;
    let mut connection_chains = Vec::new();

    for (ni, net) in circuit.nets().iter().enumerate() {
        let routed = &routing.nets[ni];
        if routed.sink_paths.len() != net.sinks.len() {
            return Err(mismatch(format!(
                "net {ni}: routing has {} sink paths for {} sinks",
                routed.sink_paths.len(),
                net.sinks.len()
            )));
        }
        let from_v = unit_vertex[&net.driver];
        for (si, sink) in net.sinks.iter().enumerate() {
            let to_v = unit_vertex[&sink.unit];
            let path = &routed.sink_paths[si];
            let ins = try_insert_repeaters(path, grid, ledger, technology)
                .map_err(|e| PlanError::new(Stage::Repeater, PlanErrorKind::Repeater(e)))?;
            num_repeaters += ins.repeater_cells.len();
            if ins.segments.is_empty() {
                // Same-cell connection: negligible wire, direct edge.
                let e = graph.add_edge(from_v, to_v, i64::from(sink.flops));
                connection_chains.push(vec![e]);
                continue;
            }
            let mut chain = Vec::new();
            let mut prev = from_v;
            let mut first = true;
            for seg in &ins.segments {
                let span_delay = technology.segment_delay_ps(seg.length_um);
                let span_cells = ((seg.length_um / grid.tile_size()).round() as usize).max(1);
                let end = (seg.start_index + span_cells).min(path.len() - 1);
                // The span's cells, `path[start..=end]`, split into runs of
                // cells sharing a tile (a single run when tile-crossing
                // segmentation is off), each run then sub-segmented
                // `units_per_span` ways.
                let mut runs: Vec<(usize, usize)> = Vec::new();
                if options.tile_crossing_units {
                    let mut run_start = seg.start_index;
                    let mut run_tile = grid.tile_of_cell(path[run_start]);
                    for (i, &cell) in path[..=end].iter().enumerate().skip(seg.start_index + 1) {
                        let t = grid.tile_of_cell(cell);
                        if t != run_tile {
                            runs.push((run_start, i - run_start));
                            run_start = i;
                            run_tile = t;
                        }
                    }
                    runs.push((run_start, end + 1 - run_start));
                } else {
                    runs.push((seg.start_index, span_cells));
                }
                let total_cells: usize = runs.iter().map(|&(_, n)| n).sum();
                for &(run_start, run_cells) in &runs {
                    let run_delay = span_delay * run_cells as f64 / total_cells as f64;
                    let subs = options.units_per_span;
                    for k in 0..subs {
                        // Tile of the sub-unit: the cell at its
                        // proportional position along the run.
                        let offset = run_cells * k / subs;
                        let idx = (run_start + offset).min(path.len() - 1);
                        let tile = grid.tile_of_cell(path[idx]);
                        let delay = if options.conservative_delays {
                            quantize_ps(span_delay)
                        } else if subs == 1 {
                            quantize_ps(run_delay)
                        } else {
                            quantize_ps(run_delay / subs as f64)
                        };
                        // The ε area premium (1/1024: fewer than 1024
                        // flip-flops in wires cost less than one more
                        // flip-flop) makes min-area retiming break
                        // its ties lexicographically: first minimise the
                        // flip-flop count, then prefer flip-flops at
                        // functional-unit outputs over flip-flops parked in
                        // wires, which is where a physical design would put
                        // them when timing does not force otherwise.
                        let v = graph.add_vertex(
                            VertexKind::Interconnect,
                            delay,
                            1.0 + 1.0 / 1024.0,
                            Some(tile.index()),
                        );
                        num_interconnect_units += 1;
                        let w = if first { i64::from(sink.flops) } else { 0 };
                        chain.push(graph.add_edge(prev, v, w));
                        first = false;
                        prev = v;
                    }
                }
            }
            chain.push(graph.add_edge(prev, to_v, 0));
            connection_chains.push(chain);
        }
    }

    let mut caps_ff: Vec<f64> = grid
        .tile_ids()
        .map(|t| (ledger.remaining(t).max(0.0)) / technology.ff_area)
        .collect();
    caps_ff.push(pad_ff_capacity);

    Ok(ExpandedDesign {
        graph,
        unit_vertex,
        num_interconnect_units,
        num_repeaters,
        pad_tile,
        caps_ff,
        connection_chains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_floorplan::tiles::TileGridConfig;
    use lacr_floorplan::Floorplan;
    use lacr_netlist::{Sink, Unit};
    use lacr_route::{try_route, NetPins, RouteConfig};

    /// A 10×1 open grid; two logic units at opposite ends plus host I/O.
    fn setup() -> (Circuit, TileGrid, Vec<usize>, Routing) {
        let mut c = Circuit::new("t");
        let a = c.add_unit(Unit::input("a"));
        let g1 = c.add_unit(Unit::logic("g1", 1.0, 1.0));
        let g2 = c.add_unit(Unit::logic("g2", 1.0, 1.0));
        let z = c.add_unit(Unit::output("z"));
        c.add_net(a, vec![Sink::new(g1, 0)]);
        c.add_net(g1, vec![Sink::new(g2, 2)]);
        c.add_net(g2, vec![Sink::new(z, 0)]);
        let fp = Floorplan {
            blocks: vec![],
            chip_w: 5_000.0,
            chip_h: 500.0,
        };
        let grid = TileGrid::build(&fp, &[], &TileGridConfig::default());
        // a,g1 at cell 0; g2,z at cell 9.
        let unit_cell = vec![0, 0, 9, 9];
        let nets = vec![
            NetPins {
                driver: 0,
                sinks: vec![0],
            },
            NetPins {
                driver: 0,
                sinks: vec![9],
            },
            NetPins {
                driver: 9,
                sinks: vec![9],
            },
        ];
        let routing = try_route(grid.nx(), grid.ny(), &nets, &RouteConfig::default()).unwrap();
        (c, grid, unit_cell, routing)
    }

    #[test]
    fn long_connection_becomes_chain() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();
        let mut ledger = CapacityLedger::new(&grid);
        let ed = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions::default(),
        )
        .unwrap();
        // 4500 µm connection with l_max 2000 → ≥ 2 repeaters → ≥ 3 units.
        assert!(ed.num_repeaters >= 2, "repeaters {}", ed.num_repeaters);
        assert_eq!(ed.num_interconnect_units, ed.num_repeaters + 1);
        // host + 2 logic + units
        assert_eq!(ed.graph.num_vertices(), 3 + ed.num_interconnect_units);
        // flops preserved
        assert_eq!(ed.graph.total_flops(), 2);
        // the two original flops sit on the first chain edge
        let host = ed.graph.host().unwrap();
        let g1 = ed.unit_vertex[&c.unit_by_name("g1").unwrap()];
        let first_chain_edge = ed
            .graph
            .out_edges(g1)
            .map(|e| ed.graph.edge(e))
            .find(|e| e.weight == 2)
            .expect("initial flops on first chain edge");
        assert_eq!(ed.graph.kind(first_chain_edge.to), VertexKind::Interconnect);
        assert_ne!(first_chain_edge.to, host);
    }

    #[test]
    fn same_cell_connection_stays_direct() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();
        let mut ledger = CapacityLedger::new(&grid);
        let ed = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions::default(),
        )
        .unwrap();
        // a→g1 and g2→z are same-cell: direct edges to/from host.
        let host = ed.graph.host().unwrap();
        let direct: Vec<_> = ed.graph.out_edges(host).map(|e| ed.graph.edge(e)).collect();
        assert_eq!(direct.len(), 1);
        assert_eq!(ed.graph.kind(direct[0].to), VertexKind::Functional);
    }

    #[test]
    fn sub_segmentation_multiplies_units() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();
        let mut ledger1 = CapacityLedger::new(&grid);
        let base = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger1,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions::default(),
        )
        .unwrap();
        let mut ledger2 = CapacityLedger::new(&grid);
        let fine = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger2,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions {
                units_per_span: 2,
                conservative_delays: true,
                ..ExpandOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fine.num_interconnect_units, 2 * base.num_interconnect_units);
        // Conservative delays: total chain delay at least the exact one.
        let sum = |g: &RetimeGraph| -> u64 {
            g.vertex_ids()
                .filter(|&v| g.kind(v) == VertexKind::Interconnect)
                .map(|v| g.delay(v))
                .sum()
        };
        assert!(sum(&fine.graph) >= sum(&base.graph));
    }

    #[test]
    fn tile_crossing_units_cover_every_traversed_tile() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();
        let mut ledger = CapacityLedger::new(&grid);
        let ed = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions {
                tile_crossing_units: true,
                ..ExpandOptions::default()
            },
        )
        .unwrap();
        // On the open 10×1 grid every cell is its own channel tile, so the
        // g1→g2 route (cells 0..=9) must yield a unit in every tile of
        // cells 0..9 — each one a flip-flop site for LAC retiming.
        let unit_tiles: std::collections::HashSet<usize> = ed
            .graph
            .vertex_ids()
            .filter(|&v| ed.graph.kind(v) == VertexKind::Interconnect)
            .filter_map(|v| ed.graph.tile(v))
            .collect();
        for cell in 0..9 {
            let t = grid.tile_of_cell(cell).index();
            assert!(unit_tiles.contains(&t), "no unit in tile of cell {cell}");
        }
        // Segmentation refines the chain but conserves wire delay: the
        // total interconnect delay matches the unsplit expansion's up to
        // one quantisation unit per extra vertex.
        let mut ledger2 = CapacityLedger::new(&grid);
        let base = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger2,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions::default(),
        )
        .unwrap();
        let sum = |g: &RetimeGraph| -> u64 {
            g.vertex_ids()
                .filter(|&v| g.kind(v) == VertexKind::Interconnect)
                .map(|v| g.delay(v))
                .sum()
        };
        let extra = (ed.num_interconnect_units - base.num_interconnect_units) as u64;
        assert!(sum(&ed.graph).abs_diff(sum(&base.graph)) <= extra);
        // Flip-flops and repeater commitments are unchanged.
        assert_eq!(ed.graph.total_flops(), base.graph.total_flops());
        assert_eq!(ed.num_repeaters, base.num_repeaters);
    }

    #[test]
    fn try_expand_reports_mismatches_as_typed_errors() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();

        let mut ledger = CapacityLedger::new(&grid);
        let empty_routing = lacr_route::Routing {
            nets: vec![],
            wirelength: 0,
            overflow: 0,
            max_usage: 0,
            edge_usage: vec![],
        };
        let err = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell,
            &empty_routing,
            10.0,
            &ExpandOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.stage, Stage::Expand);
        assert!(err.to_string().contains("0 nets"), "{err}");

        let err = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell,
            &routing,
            10.0,
            &ExpandOptions {
                units_per_span: 0,
                ..ExpandOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("units_per_span"), "{err}");

        let err = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell[..2],
            &routing,
            10.0,
            &ExpandOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("2 entries"), "{err}");
    }

    #[test]
    fn caps_include_pad_tile() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();
        let mut ledger = CapacityLedger::new(&grid);
        let ed = try_expand(
            &c,
            &tech,
            &grid,
            &mut ledger,
            &unit_cell,
            &routing,
            7.5,
            &ExpandOptions::default(),
        )
        .unwrap();
        assert_eq!(ed.caps_ff.len(), grid.num_tiles() + 1);
        assert_eq!(ed.caps_ff[ed.pad_tile], 7.5);
        assert_eq!(ed.graph.tile(ed.graph.host().unwrap()), Some(ed.pad_tile));
    }

    #[test]
    fn repeaters_reduce_ff_capacity() {
        let (c, grid, unit_cell, routing) = setup();
        let tech = Technology::default();
        let mut with_ledger = CapacityLedger::new(&grid);
        let ed = try_expand(
            &c,
            &tech,
            &grid,
            &mut with_ledger,
            &unit_cell,
            &routing,
            0.0,
            &ExpandOptions::default(),
        )
        .unwrap();
        let fresh = CapacityLedger::new(&grid);
        let before: f64 = grid.tile_ids().map(|t| fresh.remaining(t)).sum();
        let after: f64 = grid.tile_ids().map(|t| with_ledger.remaining(t)).sum();
        assert!((before - after - ed.num_repeaters as f64 * tech.repeater_area).abs() < 1e-6);
    }
}
