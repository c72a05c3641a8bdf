//! Congestion-aware global routing on the tile-cell grid.
//!
//! The paper's first planning step "establishes the global routing so that
//! accurate estimation of delay and area consumption of global
//! interconnects ... can be obtained", with wirelength and congestion as
//! the primary objective (§4.1); it builds Steiner trees (after Ho,
//! Vijayan & Wong) and applies rip-up and re-routing. This crate provides
//! exactly that substrate:
//!
//! * multi-pin nets are routed as rectilinear Steiner trees grown
//!   nearest-connection-first, each connection found by a multi-source
//!   Dijkstra over congestion-weighted cell edges;
//! * edge usage is tracked against a per-edge capacity, and overflowed
//!   nets are ripped up and re-routed with escalating congestion penalties
//!   (PathFinder-style history costs);
//! * every routed net exposes per-sink driver→sink cell paths, which the
//!   repeater planner segments into interconnect units.
//!
//! # Examples
//!
//! ```
//! use lacr_route::{try_route, NetPins, RouteConfig};
//!
//! // A 4×4 grid; one net from cell 0 to the far corner.
//! let nets = vec![NetPins { driver: 0, sinks: vec![15] }];
//! let routing = try_route(4, 4, &nets, &RouteConfig::default())?;
//! let path = &routing.nets[0].sink_paths[0];
//! assert_eq!(path.first(), Some(&0));
//! assert_eq!(path.last(), Some(&15));
//! assert_eq!(path.len(), 7); // Manhattan distance 6 → 7 cells
//! # Ok::<(), lacr_route::RouteError>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Undirected edge usage, keyed by the two cell indices in ascending
/// order. A `BTreeMap` rather than a hash map: iteration feeds the
/// overflowed-edge set and the final usage report, and sorted-key order
/// keeps both independent of hash seeding.
type UsageMap = BTreeMap<(usize, usize), u64>;

/// The pins of one net, as linear cell indices on the routing grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPins {
    /// Driver cell.
    pub driver: usize,
    /// Sink cells (duplicates and sinks equal to the driver are fine).
    pub sinks: Vec<usize>,
}

/// Routing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Routing capacity of one cell-to-cell edge (tracks).
    pub edge_capacity: u32,
    /// Rip-up and re-route passes after the initial routing.
    pub passes: usize,
    /// Cost added per unit of overflow on an edge.
    pub overflow_penalty: f64,
    /// History cost increment per pass for edges that overflowed.
    pub history_penalty: f64,
    /// Optional wall-clock deadline, checked before each rip-up pass.
    /// Once expired, remaining passes are skipped and the current
    /// (possibly overflowing) routing is returned.
    pub deadline: Option<std::time::Instant>,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            edge_capacity: 24,
            passes: 3,
            overflow_penalty: 8.0,
            history_penalty: 2.0,
            deadline: None,
        }
    }
}

/// Typed failure of routing: the net list does not fit the grid. Routing
/// itself never fails — congested routes come back with overflow > 0
/// rather than an error — so bad pin indices are the only failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A net references a cell index outside the `nx × ny` grid.
    PinOutOfRange {
        /// Index of the offending net in the input slice.
        net: usize,
        /// The out-of-range cell index.
        pin: usize,
        /// Number of cells on the grid (`nx · ny`).
        num_cells: usize,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PinOutOfRange {
                net,
                pin,
                num_cells,
            } => write!(
                f,
                "net {net}: pin cell {pin} outside the {num_cells}-cell grid"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// One routed net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// Every cell the net's Steiner tree occupies.
    pub tree_cells: Vec<usize>,
    /// Per sink (same order as [`NetPins::sinks`]): the cell path from the
    /// driver to that sink, inclusive on both ends.
    pub sink_paths: Vec<Vec<usize>>,
}

/// The result of [`try_route`].
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Routed nets in input order.
    pub nets: Vec<RoutedNet>,
    /// Total wirelength in cell-to-cell steps.
    pub wirelength: usize,
    /// Total overflow (usage beyond capacity, summed over edges). `u64`:
    /// the per-edge terms are small, but the sum is over every edge of
    /// the grid and at stress scale a `u32` accumulator can truncate.
    pub overflow: u64,
    /// Maximum usage of any edge.
    pub max_usage: u64,
    /// Final usage per cell-to-cell edge (undirected, keyed by the two
    /// cell indices in ascending order).
    pub edge_usage: Vec<((usize, usize), u64)>,
}

impl Routing {
    /// Per-cell congestion: the maximum usage over a cell's four edges,
    /// as a fraction of `capacity` (may exceed 1 on overflow).
    pub fn cell_congestion(&self, num_cells: usize, capacity: u32) -> Vec<f64> {
        let mut worst = vec![0u64; num_cells];
        for &((a, b), u) in &self.edge_usage {
            worst[a] = worst[a].max(u);
            worst[b] = worst[b].max(u);
        }
        worst
            .into_iter()
            .map(|u| u as f64 / capacity.max(1) as f64)
            .collect()
    }
}

/// Undirected edge key between two adjacent cells.
fn edge_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Routes all `nets` on an `nx × ny` cell grid.
///
/// # Errors
///
/// [`RouteError::PinOutOfRange`] when a pin index does not fit the grid.
pub fn try_route(
    nx: usize,
    ny: usize,
    nets: &[NetPins],
    config: &RouteConfig,
) -> Result<Routing, RouteError> {
    let num_cells = nx * ny;
    for (i, n) in nets.iter().enumerate() {
        let bad = std::iter::once(n.driver)
            .chain(n.sinks.iter().copied())
            .find(|&p| p >= num_cells);
        if let Some(pin) = bad {
            return Err(RouteError::PinOutOfRange {
                net: i,
                pin,
                num_cells,
            });
        }
    }
    let _span = lacr_obs::span!("route.global", nets = nets.len(), cells = num_cells);
    let mut usage: UsageMap = UsageMap::new();
    let mut history: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut routed: Vec<RoutedNet> = Vec::with_capacity(nets.len());

    // Initial pass. Stays sequential-incremental by design: each net is
    // routed against the usage left by the nets before it, which is what
    // spreads identically-pinned nets apart in the first place.
    for net in nets {
        let r = route_one(nx, ny, net, &usage, &history, config);
        add_usage(&mut usage, &r);
        routed.push(r);
    }

    // Rip-up and re-route nets that use overflowed edges. The deadline
    // is consulted once per pass boundary only, so budget expiry is
    // deterministic under tracing.
    //
    // Each pass rips every offending net up front and re-routes the
    // batch against that *frozen* usage snapshot — a pure map over the
    // ripped indices, so the batch fans out across the deterministic
    // pool and the result does not depend on the thread count. Usage
    // deltas are then applied in ascending net order. (The ripped nets
    // no longer see each other's same-pass re-routes; separation between
    // conflicting nets comes from the history penalties that escalate
    // across passes.)
    for pass in 0..config.passes {
        if let Some(deadline) = config.deadline {
            if std::time::Instant::now() >= deadline {
                break; // budget expired: return the routing as-is
            }
        }
        let over: BTreeSet<(usize, usize)> = usage
            .iter()
            .filter(|(_, &u)| u > u64::from(config.edge_capacity))
            .map(|(&k, _)| k)
            .collect();
        if over.is_empty() {
            break;
        }
        lacr_obs::event!("route.pass", pass = pass, overflowed_edges = over.len(),);
        for k in &over {
            *history.entry(*k).or_insert(0.0) += config.history_penalty;
        }
        let ripped: Vec<usize> = (0..nets.len())
            .filter(|&i| tree_edges(&routed[i]).iter().any(|k| over.contains(k)))
            .collect();
        for &i in &ripped {
            remove_usage(&mut usage, &routed[i]);
        }
        let rerouted = lacr_par::Region::new("route.ripup_batch")
            .deadline(config.deadline)
            .map_indexed(&ripped, |_, &i| {
                route_one(nx, ny, &nets[i], &usage, &history, config)
            });
        for (&i, r) in ripped.iter().zip(rerouted) {
            add_usage(&mut usage, &r);
            routed[i] = r;
        }
    }
    let wirelength = routed.iter().map(|r| tree_edges(r).len()).sum();
    let (overflow, max_usage) = overflow_stats(&usage, config.edge_capacity);
    let edge_usage: Vec<((usize, usize), u64)> =
        usage.into_iter().filter(|&(_, u)| u > 0).collect();
    Ok(Routing {
        nets: routed,
        wirelength,
        overflow,
        max_usage,
        edge_usage,
    })
}

/// Total overflow and maximum usage over all edges. The sum is carried
/// in `u64` with checked arithmetic: per-edge overflows are small, but
/// summing across a stress-scale grid can exceed `u32`.
fn overflow_stats(usage: &UsageMap, capacity: u32) -> (u64, u64) {
    let mut overflow = 0_u64;
    let mut max_usage = 0_u64;
    for &u in usage.values() {
        overflow = overflow
            .checked_add(u.saturating_sub(u64::from(capacity)))
            .expect("total overflow exceeds u64");
        max_usage = max_usage.max(u);
    }
    (overflow, max_usage)
}

/// The undirected edges of a routed net's tree, in ascending key order
/// (so every consumer iterates deterministically).
fn tree_edges(net: &RoutedNet) -> Vec<(usize, usize)> {
    let mut edges = BTreeSet::new();
    for path in &net.sink_paths {
        for w in path.windows(2) {
            if w[0] != w[1] {
                edges.insert(edge_key(w[0], w[1]));
            }
        }
    }
    edges.into_iter().collect()
}

fn add_usage(usage: &mut UsageMap, net: &RoutedNet) {
    for k in tree_edges(net) {
        let u = usage.entry(k).or_insert(0);
        *u = u.checked_add(1).expect("edge usage exceeds u64");
    }
}

fn remove_usage(usage: &mut UsageMap, net: &RoutedNet) {
    for k in tree_edges(net) {
        if let Some(u) = usage.get_mut(&k) {
            *u = u.saturating_sub(1);
        }
    }
}

/// Routes one net: grows a Steiner tree from the driver, connecting the
/// remaining pins nearest-first via multi-source Dijkstra over the current
/// congestion costs.
fn route_one(
    nx: usize,
    ny: usize,
    net: &NetPins,
    usage: &UsageMap,
    history: &BTreeMap<(usize, usize), f64>,
    config: &RouteConfig,
) -> RoutedNet {
    let num_cells = nx * ny;
    // parent[c] = next cell toward the driver; driver points to itself.
    // A `BTreeMap` so that seeding the multi-source Dijkstra below from
    // `parent.keys()` happens in a run-stable order. (The search itself
    // is seed-order independent — the heap's `(cost, cell)` key is a
    // total order — but keeping every iteration deterministic is cheap.)
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    parent.insert(net.driver, net.driver);

    let edge_cost = |a: usize, b: usize| -> f64 {
        let k = edge_key(a, b);
        let u = *usage.get(&k).unwrap_or(&0);
        let h = *history.get(&k).unwrap_or(&0.0);
        let over = (u + 1).saturating_sub(u64::from(config.edge_capacity)) as f64;
        1.0 + h + over * config.overflow_penalty
    };

    let mut pending: Vec<usize> = net
        .sinks
        .iter()
        .copied()
        .filter(|&s| s != net.driver)
        .collect();
    pending.sort_unstable();
    pending.dedup();

    while !pending.is_empty() {
        // Multi-source Dijkstra from the entire current tree until the
        // first pending pin is reached.
        let mut dist: Vec<f64> = vec![f64::INFINITY; num_cells];
        let mut back: Vec<usize> = vec![usize::MAX; num_cells];
        let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
        for &c in parent.keys() {
            dist[c] = 0.0;
            heap.push(Reverse((OrdF64(0.0), c)));
        }
        let mut reached: Option<usize> = None;
        while let Some(Reverse((OrdF64(d), c))) = heap.pop() {
            if d > dist[c] {
                continue;
            }
            if pending.contains(&c) {
                reached = Some(c);
                break;
            }
            let (cx, cy) = (c % nx, c / nx);
            let mut push = |n: usize, heap: &mut BinaryHeap<Reverse<(OrdF64, usize)>>| {
                let nd = d + edge_cost(c, n);
                if nd < dist[n] {
                    dist[n] = nd;
                    back[n] = c;
                    heap.push(Reverse((OrdF64(nd), n)));
                }
            };
            if cx > 0 {
                push(c - 1, &mut heap);
            }
            if cx + 1 < nx {
                push(c + 1, &mut heap);
            }
            if cy > 0 {
                push(c - nx, &mut heap);
            }
            if cy + 1 < ny {
                push(c + nx, &mut heap);
            }
        }
        let target = reached.expect("grid is connected, pin must be reachable");
        // Walk back from the pin to the tree, recording parents toward the
        // join cell (and therefore toward the driver).
        let mut c = target;
        while back[c] != usize::MAX && !parent.contains_key(&c) {
            parent.insert(c, back[c]);
            c = back[c];
        }
        // `back == MAX` at the target only when the target is already a
        // tree cell; ensure membership either way.
        parent.entry(target).or_insert(target);
        pending.retain(|&p| p != target);
    }

    // Per-sink paths: follow parents to the driver.
    let sink_paths = net
        .sinks
        .iter()
        .map(|&s| {
            let mut path = vec![s];
            let mut c = s;
            let mut guard = 0;
            while c != net.driver {
                c = parent[&c];
                path.push(c);
                guard += 1;
                assert!(guard <= num_cells, "parent cycle");
            }
            path.reverse();
            path
        })
        .collect();
    let mut tree_cells: Vec<usize> = parent.keys().copied().collect();
    tree_cells.sort_unstable();
    RoutedNet {
        tree_cells,
        sink_paths,
    }
}

/// Total-order f64 wrapper for the Dijkstra heap (costs are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite route costs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_route() {
        let nets = vec![NetPins {
            driver: 0,
            sinks: vec![3],
        }];
        let r = try_route(4, 1, &nets, &RouteConfig::default()).unwrap();
        assert_eq!(r.nets[0].sink_paths[0], vec![0, 1, 2, 3]);
        assert_eq!(r.wirelength, 3);
        assert_eq!(r.overflow, 0);
    }

    #[test]
    fn multi_sink_shares_trunk() {
        // driver at left end, two sinks stacked on the right: the tree
        // should share the horizontal trunk.
        let nx = 5;
        let ny = 2;
        let driver = 0;
        let s1 = 4; // (4,0)
        let s2 = 9; // (4,1)
        let nets = vec![NetPins {
            driver,
            sinks: vec![s1, s2],
        }];
        let r = try_route(nx, ny, &nets, &RouteConfig::default()).unwrap();
        // Shared tree: ≤ 5 edges (4 horizontal + 1 vertical), vs 9 if the
        // two paths were disjoint.
        assert!(r.wirelength <= 5, "wirelength {}", r.wirelength);
        for (i, s) in [s1, s2].iter().enumerate() {
            let p = &r.nets[0].sink_paths[i];
            assert_eq!(p.first(), Some(&driver));
            assert_eq!(p.last(), Some(s));
        }
    }

    #[test]
    fn sink_equal_to_driver() {
        let nets = vec![NetPins {
            driver: 5,
            sinks: vec![5],
        }];
        let r = try_route(3, 3, &nets, &RouteConfig::default()).unwrap();
        assert_eq!(r.nets[0].sink_paths[0], vec![5]);
        assert_eq!(r.wirelength, 0);
    }

    #[test]
    fn duplicate_sinks_ok() {
        let nets = vec![NetPins {
            driver: 0,
            sinks: vec![2, 2],
        }];
        let r = try_route(3, 1, &nets, &RouteConfig::default()).unwrap();
        assert_eq!(r.nets[0].sink_paths.len(), 2);
        assert_eq!(r.nets[0].sink_paths[0], r.nets[0].sink_paths[1]);
    }

    #[test]
    fn paths_are_adjacent_cell_chains() {
        let nets = vec![NetPins {
            driver: 0,
            sinks: vec![24, 20, 4],
        }];
        let r = try_route(5, 5, &nets, &RouteConfig::default()).unwrap();
        for p in &r.nets[0].sink_paths {
            for w in p.windows(2) {
                let (ax, ay) = (w[0] % 5, w[0] / 5);
                let (bx, by) = (w[1] % 5, w[1] / 5);
                let d = ax.abs_diff(bx) + ay.abs_diff(by);
                assert_eq!(d, 1, "non-adjacent step {w:?}");
            }
        }
    }

    #[test]
    fn congestion_spreads_traffic() {
        // Many nets crossing the same column with capacity 1: rip-up
        // should spread them across rows, eliminating overflow.
        let nx = 5;
        let ny = 5;
        let mut nets = Vec::new();
        for row in 0..4 {
            nets.push(NetPins {
                driver: row * nx,
                sinks: vec![row * nx + 4],
            });
        }
        // All nets start on distinct rows; force conflict by capacity 1 on
        // a fabricated extra net sharing row 0.
        nets.push(NetPins {
            driver: 0,
            sinks: vec![4],
        });
        let cfg = RouteConfig {
            edge_capacity: 1,
            passes: 6,
            ..Default::default()
        };
        let r = try_route(nx, ny, &nets, &cfg).unwrap();
        assert_eq!(r.overflow, 0, "overflow remains: {}", r.overflow);
    }

    #[test]
    fn zero_capacity_still_routes_with_overflow_cost() {
        let nets = vec![NetPins {
            driver: 0,
            sinks: vec![1],
        }];
        let cfg = RouteConfig {
            edge_capacity: 0,
            ..Default::default()
        };
        let r = try_route(2, 1, &nets, &cfg).unwrap();
        assert_eq!(r.nets[0].sink_paths[0], vec![0, 1]);
        assert!(r.overflow >= 1);
    }

    #[test]
    fn try_route_reports_offending_pin() {
        let nets = vec![
            NetPins {
                driver: 0,
                sinks: vec![1],
            },
            NetPins {
                driver: 0,
                sinks: vec![99],
            },
        ];
        let err = try_route(3, 3, &nets, &RouteConfig::default()).unwrap_err();
        assert_eq!(
            err,
            RouteError::PinOutOfRange {
                net: 1,
                pin: 99,
                num_cells: 9
            }
        );
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn expired_deadline_skips_ripup_but_routes() {
        let nets = vec![NetPins {
            driver: 0,
            sinks: vec![1],
        }];
        let cfg = RouteConfig {
            edge_capacity: 0,
            passes: 1_000_000,
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let r = try_route(2, 1, &nets, &cfg).unwrap();
        assert_eq!(r.nets[0].sink_paths[0], vec![0, 1]);
        assert!(r.overflow >= 1);
    }

    #[test]
    fn edge_usage_reflects_traffic() {
        let nets = vec![
            NetPins {
                driver: 0,
                sinks: vec![2],
            },
            NetPins {
                driver: 0,
                sinks: vec![2],
            },
        ];
        let r = try_route(3, 1, &nets, &RouteConfig::default()).unwrap();
        // Both nets use edges (0,1) and (1,2) — unless congestion split
        // them, which a 1×3 grid cannot.
        assert_eq!(r.edge_usage, vec![((0, 1), 2), ((1, 2), 2)]);
        let cong = r.cell_congestion(3, 4);
        assert!((cong[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overflow_sum_does_not_truncate_at_u32_boundary() {
        // Synthetic usage straddling the u32 boundary: the old `u32`
        // accumulator truncated here; the sum must survive in u64.
        let mut usage = UsageMap::new();
        usage.insert((0, 1), u64::from(u32::MAX) + 5);
        usage.insert((1, 2), u64::from(u32::MAX));
        usage.insert((2, 3), 3);
        let (overflow, max_usage) = overflow_stats(&usage, 1);
        let expected = (u64::from(u32::MAX) + 4) + (u64::from(u32::MAX) - 1) + 2;
        assert_eq!(overflow, expected);
        assert!(
            overflow > u64::from(u32::MAX),
            "boundary case no longer exceeds u32; test needs rescaling"
        );
        assert_eq!(max_usage, u64::from(u32::MAX) + 5);
    }

    #[test]
    fn routing_is_byte_identical_across_runs_and_thread_counts() {
        // Over-subscribed on purpose (9 left→right nets against a total
        // vertical cut capacity of 3), so every pass rips a batch up and
        // the parallel re-route path is exercised, not just the initial
        // sequential pass.
        let nx = 5;
        let ny = 3;
        let mut nets = Vec::new();
        for row in 0..ny {
            for _ in 0..3 {
                nets.push(NetPins {
                    driver: row * nx,
                    sinks: vec![row * nx + nx - 1],
                });
            }
        }
        let cfg = RouteConfig {
            edge_capacity: 1,
            passes: 4,
            ..Default::default()
        };
        let baseline = try_route(nx, ny, &nets, &cfg).unwrap();
        assert!(baseline.overflow > 0, "grid not over-subscribed");
        let rerun = try_route(nx, ny, &nets, &cfg).unwrap();
        assert_eq!(baseline, rerun, "two identical sequential runs diverged");
        for threads in [2, 8] {
            lacr_par::set_threads(threads);
            let parallel = try_route(nx, ny, &nets, &cfg).unwrap();
            lacr_par::set_threads(0);
            assert_eq!(baseline, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn wirelength_counts_unique_tree_edges() {
        // A net whose two sinks share the full trunk: wirelength counts
        // each tree edge once.
        let nets = vec![NetPins {
            driver: 0,
            sinks: vec![2, 2],
        }];
        let r = try_route(3, 1, &nets, &RouteConfig::default()).unwrap();
        assert_eq!(r.wirelength, 2);
    }
}
