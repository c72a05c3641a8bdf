//! `L_max`-constrained repeater planning (§4.1).
//!
//! The paper performs "repeater planning based on the maximum interval
//! length constraint `L_max` ... defined based on a desirable signal
//! integrity level", using the dynamic-programming insertion of Alpert et
//! al. This crate implements that step on the routed cell paths:
//!
//! * [`plan_positions`] — the DP: choose repeater cells along a path such
//!   that no interval between consecutive drivers exceeds `L_max`,
//!   minimising a per-site cost (tile congestion / remaining capacity);
//! * [`try_insert_repeaters`] — applies the DP to a routed driver→sink path,
//!   reserves repeater area in the [`CapacityLedger`], and returns the
//!   *interconnect units* (§3.2): one wire span per driver, each with its
//!   starting cell and length.
//!
//! Repeater insertion "provides a natural segmentation of an interconnect
//! into interconnect units, with the delay of each unit being the sum of
//! the repeater delay and the delay of the interconnect segment driven by
//! the repeater" — the returned [`Segment`]s are exactly those units.

use lacr_floorplan::tiles::{CapacityLedger, TileGrid};
use lacr_timing::Technology;

/// Typed failure of repeater insertion.
#[derive(Debug, Clone, PartialEq)]
pub enum RepeaterError {
    /// The routed path has no cells at all.
    EmptyPath,
    /// `L_max` is shorter than one tile, so no spacing of repeaters can
    /// satisfy the interval constraint.
    IntervalUnsatisfiable {
        /// The technology's maximum unbuffered interval (µm).
        l_max: f64,
        /// The grid's tile size (µm).
        tile_size: f64,
    },
}

impl std::fmt::Display for RepeaterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyPath => write!(f, "routed path is empty"),
            Self::IntervalUnsatisfiable { l_max, tile_size } => write!(
                f,
                "l_max {l_max} µm is below one tile ({tile_size} µm): \
                 no repeater spacing can satisfy the interval constraint"
            ),
        }
    }
}

impl std::error::Error for RepeaterError {}

/// One interconnect unit: a wire span and the cell of the driver (source
/// unit or repeater) that drives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Cell where the span's driver sits.
    pub start_cell: usize,
    /// Index of the driver cell within the routed path.
    pub start_index: usize,
    /// Span length in µm.
    pub length_um: f64,
    /// `false` only for the first span, which the source functional unit
    /// drives itself.
    pub driven_by_repeater: bool,
}

/// Result of [`try_insert_repeaters`] for one driver→sink connection.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionResult {
    /// Cells where repeaters were committed (in path order).
    pub repeater_cells: Vec<usize>,
    /// The interconnect units covering the whole connection, in order from
    /// the driver to the sink. Empty when the connection stays within one
    /// cell.
    pub segments: Vec<Segment>,
}

/// Chooses repeater positions along a path of `len` cells so that no
/// interval between consecutive drivers (position `0`, every repeater, and
/// the sink at `len - 1`) exceeds `max_interval` cell steps, minimising
/// `Σ site_cost(position)` by dynamic programming.
///
/// Returns the chosen interior positions (strictly between `0` and
/// `len - 1`), or `None` when `max_interval == 0` makes the problem
/// unsatisfiable for `len > 1`.
///
/// # Examples
///
/// ```
/// use lacr_repeater::plan_positions;
///
/// // 9 cells, interval ≤ 3 steps: two repeaters needed; with uniform
/// // costs any {i, j} with gaps ≤ 3 works.
/// let pos = plan_positions(9, 3, |_| 1.0).expect("satisfiable");
/// assert_eq!(pos.len(), 2);
/// let mut drivers = vec![0];
/// drivers.extend(&pos);
/// drivers.push(8);
/// for w in drivers.windows(2) {
///     assert!(w[1] - w[0] <= 3);
/// }
/// ```
pub fn plan_positions(
    len: usize,
    max_interval: usize,
    mut site_cost: impl FnMut(usize) -> f64,
) -> Option<Vec<usize>> {
    if len <= 1 {
        return Some(Vec::new());
    }
    let last = len - 1;
    if max_interval == 0 {
        return None;
    }
    if last <= max_interval {
        return Some(Vec::new());
    }
    // cost[i] = min cost with a driver at position i (0 = the source).
    let mut cost = vec![f64::INFINITY; len];
    let mut prev = vec![usize::MAX; len];
    cost[0] = 0.0;
    for i in 1..len {
        let lo = i.saturating_sub(max_interval);
        let mut best = f64::INFINITY;
        let mut arg = usize::MAX;
        for (j, &cj) in cost.iter().enumerate().take(i).skip(lo) {
            if cj < best {
                best = cj;
                arg = j;
            }
        }
        if arg == usize::MAX {
            continue;
        }
        let site = if i == last { 0.0 } else { site_cost(i) };
        cost[i] = best + site;
        prev[i] = arg;
    }
    if !cost[last].is_finite() {
        return None;
    }
    let mut positions = Vec::new();
    let mut c = prev[last];
    while c != 0 && c != usize::MAX {
        positions.push(c);
        c = prev[c];
    }
    positions.reverse();
    Some(positions)
}

/// Applies repeater planning to one routed driver→sink cell `path`
/// (inclusive ends), reserving `technology.repeater_area` per repeater in
/// the `ledger` and returning the resulting interconnect units.
///
/// The per-site DP cost prefers tiles with plenty of remaining capacity;
/// a full tile costs heavily but is not forbidden (repeaters must be
/// placed to honour `L_max`; any resulting overdraw is visible through
/// [`CapacityLedger::total_overflow`]).
///
/// # Errors
///
/// [`RepeaterError::EmptyPath`] when `path` is empty, and
/// [`RepeaterError::IntervalUnsatisfiable`] when `technology.l_max` is
/// below one tile (such a technology fails [`Technology::validate`]).
pub fn try_insert_repeaters(
    path: &[usize],
    grid: &TileGrid,
    ledger: &mut CapacityLedger,
    technology: &Technology,
) -> Result<InsertionResult, RepeaterError> {
    if path.is_empty() {
        return Err(RepeaterError::EmptyPath);
    }
    let ts = grid.tile_size();
    let max_interval = if technology.l_max.is_finite() && technology.l_max >= ts {
        (technology.l_max / ts).floor() as usize
    } else {
        return Err(RepeaterError::IntervalUnsatisfiable {
            l_max: technology.l_max,
            tile_size: ts,
        });
    };
    if path.len() == 1 {
        return Ok(InsertionResult {
            repeater_cells: Vec::new(),
            segments: Vec::new(),
        });
    }

    let positions = {
        let site_cost = |i: usize| -> f64 {
            let tile = grid.tile_of_cell(path[i]);
            let remaining = ledger.remaining(tile);
            if remaining >= technology.repeater_area {
                // Mild preference for roomy tiles.
                1.0 + technology.repeater_area / remaining.max(1e-9)
            } else {
                1_000.0
            }
        };
        plan_positions(path.len(), max_interval, site_cost).expect("max_interval >= 1")
    };

    let mut repeater_cells = Vec::with_capacity(positions.len());
    for &p in &positions {
        let tile = grid.tile_of_cell(path[p]);
        if !ledger.try_consume(tile, technology.repeater_area) {
            ledger.consume_forced(tile, technology.repeater_area);
        }
        repeater_cells.push(path[p]);
    }

    // Drivers: source, repeaters, then the sink terminates the last span.
    let mut drivers = vec![0usize];
    drivers.extend(&positions);
    let last = path.len() - 1;
    let mut segments = Vec::with_capacity(drivers.len());
    for (k, &d) in drivers.iter().enumerate() {
        let end = if k + 1 < drivers.len() {
            drivers[k + 1]
        } else {
            last
        };
        segments.push(Segment {
            start_cell: path[d],
            start_index: d,
            length_um: (end - d) as f64 * ts,
            driven_by_repeater: k > 0,
        });
    }
    Ok(InsertionResult {
        repeater_cells,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_floorplan::Floorplan;

    fn open_grid(nx: usize, ny: usize) -> TileGrid {
        // No blocks: every cell is a channel tile.
        let fp = Floorplan {
            blocks: vec![],
            chip_w: nx as f64 * 500.0,
            chip_h: ny as f64 * 500.0,
        };
        TileGrid::build(&fp, &[], &Default::default())
    }

    #[test]
    fn no_repeaters_for_short_paths() {
        let grid = open_grid(8, 1);
        let mut ledger = CapacityLedger::new(&grid);
        let tech = Technology::default(); // l_max 2000 → 4 cells
        let res = try_insert_repeaters(&[0, 1, 2, 3], &grid, &mut ledger, &tech).unwrap();
        assert!(res.repeater_cells.is_empty());
        assert_eq!(res.segments.len(), 1);
        assert_eq!(res.segments[0].length_um, 1500.0);
        assert!(!res.segments[0].driven_by_repeater);
    }

    #[test]
    fn long_path_gets_repeaters_within_lmax() {
        let grid = open_grid(12, 1);
        let mut ledger = CapacityLedger::new(&grid);
        let tech = Technology::default();
        let path: Vec<usize> = (0..12).collect();
        let res = try_insert_repeaters(&path, &grid, &mut ledger, &tech).unwrap();
        assert!(!res.repeater_cells.is_empty());
        // All spans ≤ l_max.
        for s in &res.segments {
            assert!(s.length_um <= tech.l_max + 1e-9, "span {}", s.length_um);
        }
        // Total span length = path length.
        let total: f64 = res.segments.iter().map(|s| s.length_um).sum();
        assert!((total - 11.0 * 500.0).abs() < 1e-9);
        // First span driven by the source, rest by repeaters.
        assert!(!res.segments[0].driven_by_repeater);
        assert!(res.segments[1..].iter().all(|s| s.driven_by_repeater));
        assert_eq!(res.segments.len(), res.repeater_cells.len() + 1);
    }

    #[test]
    fn repeaters_consume_capacity() {
        let grid = open_grid(12, 1);
        let mut ledger = CapacityLedger::new(&grid);
        let tech = Technology::default();
        let before: f64 = grid.tile_ids().map(|t| ledger.remaining(t)).sum();
        let path: Vec<usize> = (0..12).collect();
        let res = try_insert_repeaters(&path, &grid, &mut ledger, &tech).unwrap();
        let after: f64 = grid.tile_ids().map(|t| ledger.remaining(t)).sum();
        let spent = before - after;
        let expected = res.repeater_cells.len() as f64 * tech.repeater_area;
        assert!((spent - expected).abs() < 1e-6);
    }

    #[test]
    fn single_cell_path_is_empty() {
        let grid = open_grid(4, 1);
        let mut ledger = CapacityLedger::new(&grid);
        let res = try_insert_repeaters(&[2], &grid, &mut ledger, &Technology::default()).unwrap();
        assert!(res.segments.is_empty());
    }

    #[test]
    fn dp_prefers_cheap_sites() {
        // 7 cells, interval 3; site 3 expensive, sites 2 and 4/5 cheap.
        let pos = plan_positions(7, 3, |i| if i == 3 { 100.0 } else { 1.0 }).unwrap();
        assert!(!pos.contains(&3), "chose expensive site: {pos:?}");
        // validity
        let mut drivers = vec![0];
        drivers.extend(&pos);
        drivers.push(6);
        for w in drivers.windows(2) {
            assert!(w[1] - w[0] <= 3);
        }
    }

    #[test]
    fn dp_minimises_repeater_count_under_uniform_cost() {
        // 10 cells (9 steps), interval 4 → ceil(9/4) − 1 = 2 repeaters.
        let pos = plan_positions(10, 4, |_| 1.0).unwrap();
        assert_eq!(pos.len(), 2);
    }

    #[test]
    fn dp_zero_interval_unsatisfiable() {
        assert_eq!(plan_positions(5, 0, |_| 1.0), None);
        assert_eq!(plan_positions(1, 0, |_| 1.0), Some(vec![]));
    }

    #[test]
    fn dp_exact_fit_needs_no_repeater() {
        assert_eq!(plan_positions(5, 4, |_| 1.0), Some(vec![]));
    }

    #[test]
    fn try_insert_rejects_bad_inputs_with_typed_errors() {
        let grid = open_grid(4, 1);
        let mut ledger = CapacityLedger::new(&grid);
        let tech = Technology::default();
        assert_eq!(
            try_insert_repeaters(&[], &grid, &mut ledger, &tech),
            Err(RepeaterError::EmptyPath)
        );
        let mut tiny = tech.clone();
        tiny.l_max = grid.tile_size() / 2.0;
        let err = try_insert_repeaters(&[0, 1], &grid, &mut ledger, &tiny).unwrap_err();
        assert!(matches!(err, RepeaterError::IntervalUnsatisfiable { .. }));
        let mut nan = tech.clone();
        nan.l_max = f64::NAN;
        assert!(try_insert_repeaters(&[0, 1], &grid, &mut ledger, &nan).is_err());
    }

    #[test]
    fn full_tiles_are_overdrawn_not_skipped() {
        let grid = open_grid(12, 1);
        let mut ledger = CapacityLedger::new(&grid);
        // Exhaust every tile.
        for t in grid.tile_ids() {
            let r = ledger.remaining(t);
            ledger.consume_forced(t, r);
        }
        let tech = Technology::default();
        let path: Vec<usize> = (0..12).collect();
        let res = try_insert_repeaters(&path, &grid, &mut ledger, &tech).unwrap();
        assert!(!res.repeater_cells.is_empty());
        assert!(ledger.total_overflow() > 0.0);
    }
}
