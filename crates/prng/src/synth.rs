//! Seeded synthetic netlist topologies for scale benchmarking.
//!
//! The bench89 suite tops out at a few thousand gates — far too small to
//! exercise the sparse W/D substrate or the FEAS-probe binary search at
//! the sizes the retiming literature cares about. This module generates
//! *abstract* netlists (delays + weighted edges, no logic functions) with
//! the two structural archetypes the scale campaign uses:
//!
//! * [`ring_of_rings`] — strongly connected: clusters of short
//!   combinational rings, each closed by a single heavily-registered
//!   edge, chained through a registered global ring plus a few random
//!   registered chords. Min-period retiming has to *move* registers
//!   around every cycle, and the binary search genuinely brackets.
//! * [`pipelined_mesh`] — a feed-forward `w x h` grid (east/south
//!   edges) with registers only on every eighth column crossing: an
//!   unbalanced pipeline whose min-area retiming must re-stage a long
//!   combinational wavefront.
//!
//! Everything is a pure function of `(cells, seed)` — same inputs, same
//! netlist, byte for byte — so scale artifacts are comparable across
//! runs and machines. The crate stays zero-dependency: the output is a
//! plain edge list that `lacr-bench` lowers into a `RetimeGraph`.
//!
//! Both topologies uphold the retiming validity invariant: every
//! directed cycle carries at least one flip-flop (the mesh has no cycles
//! at all; every ring/chord cycle passes a registered edge).

use crate::Rng;

/// One directed connection: `flops` flip-flops between two cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthEdge {
    /// Driving cell index.
    pub from: u32,
    /// Driven cell index.
    pub to: u32,
    /// Flip-flops on the connection.
    pub flops: u32,
}

/// An abstract netlist: per-cell delays plus a weighted edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthNetlist {
    /// Topology + size tag, e.g. `"ring_4096"`.
    pub name: String,
    /// Seed the netlist was generated from.
    pub seed: u64,
    /// Propagation delay of each cell, picoseconds (index = cell id).
    pub delays_ps: Vec<u64>,
    /// Directed connections between cells.
    pub edges: Vec<SynthEdge>,
}

impl SynthNetlist {
    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.delays_ps.len()
    }
}

/// Cell delay range, picoseconds: wide enough that min-period targets
/// and per-cell floors differ by an order of magnitude.
const DELAY_RANGE: std::ops::Range<u64> = 10..100;

/// A strongly connected ring-of-rings netlist with (almost exactly)
/// `cells` cells.
///
/// Local rings of 6–24 cells are combinational except for one closing
/// edge that carries all of the ring's registers; rings chain through a
/// registered global ring (port cell to port cell), and about one chord
/// per four rings adds a random registered shortcut. The unretimed
/// period is the longest combinational arc of the worst ring; retiming
/// re-spreads the banked registers.
///
/// # Panics
///
/// Panics if `cells < 3` (no room for a single ring).
pub fn ring_of_rings(cells: usize, seed: u64) -> SynthNetlist {
    assert!(cells >= 3, "ring_of_rings needs at least 3 cells");
    let mut rng = Rng::seed_from_u64(seed ^ 0x5269_6e67); // "Ring"
    let mut delays_ps = Vec::with_capacity(cells);
    let mut edges = Vec::new();
    // Ring extents: [base, base + len) per ring.
    let mut rings: Vec<(u32, u32)> = Vec::new();
    while delays_ps.len() < cells {
        let remaining = cells - delays_ps.len();
        let len = if remaining < 6 + 3 {
            // Too little left for another full ring after this one:
            // absorb the remainder so the total is exact.
            remaining
        } else {
            rng.gen_range(6..25usize).min(remaining - 3)
        };
        let base = delays_ps.len() as u32;
        for _ in 0..len {
            delays_ps.push(rng.gen_range(DELAY_RANGE));
        }
        for i in 0..len as u32 {
            let from = base + i;
            let to = base + (i + 1) % len as u32;
            // The closing edge banks every register the ring owns;
            // the rest of the ring is combinational.
            let flops = if i == len as u32 - 1 {
                1 + (len as u32) / 4
            } else {
                0
            };
            edges.push(SynthEdge { from, to, flops });
        }
        rings.push((base, len as u32));
    }
    // Global ring through the port cell (cell 0) of each ring.
    if rings.len() > 1 {
        for r in 0..rings.len() {
            let from = rings[r].0;
            let to = rings[(r + 1) % rings.len()].0;
            edges.push(SynthEdge { from, to, flops: 2 });
        }
    }
    // Registered chords: random ring-to-ring shortcuts.
    for _ in 0..rings.len() / 4 {
        let (a_base, a_len) = rings[rng.gen_range(0..rings.len())];
        let (b_base, b_len) = rings[rng.gen_range(0..rings.len())];
        let from = a_base + rng.gen_range(0..a_len);
        let to = b_base + rng.gen_range(0..b_len);
        if from != to {
            edges.push(SynthEdge {
                from,
                to,
                flops: rng.gen_range(1..4u32),
            });
        }
    }
    SynthNetlist {
        name: format!("ring_{cells}"),
        seed,
        delays_ps,
        edges,
    }
}

/// Columns per pipeline stage in [`pipelined_mesh`]: east edges leaving
/// a column divisible by this carry the stage registers.
const MESH_STAGE_COLS: usize = 8;

/// A feed-forward pipelined mesh with at most `cells` cells (the
/// largest `w x h` grid with `h = floor(sqrt(cells))` that fits).
///
/// Cells connect east and south; east edges leaving every
/// `MESH_STAGE_COLS`-th column carry two registers each, everything
/// else is combinational. The grid is a DAG — retiming is pure pipeline
/// re-staging: min-period drops to the slowest single cell and min-area
/// then minimises the registers needed to hold it.
///
/// # Panics
///
/// Panics if `cells < 4` (no room for a 2 x 2 grid).
pub fn pipelined_mesh(cells: usize, seed: u64) -> SynthNetlist {
    assert!(cells >= 4, "pipelined_mesh needs at least a 2x2 grid");
    let mut rng = Rng::seed_from_u64(seed ^ 0x4d65_7368); // "Mesh"
    let h = (cells as f64).sqrt() as usize;
    let w = cells / h;
    let n = w * h;
    let mut delays_ps = Vec::with_capacity(n);
    for _ in 0..n {
        delays_ps.push(rng.gen_range(DELAY_RANGE));
    }
    let id = |col: usize, row: usize| (col * h + row) as u32;
    let mut edges = Vec::with_capacity(2 * n);
    for col in 0..w {
        for row in 0..h {
            if col + 1 < w {
                let flops = if (col + 1) % MESH_STAGE_COLS == 0 {
                    2
                } else {
                    0
                };
                edges.push(SynthEdge {
                    from: id(col, row),
                    to: id(col + 1, row),
                    flops,
                });
            }
            if row + 1 < h {
                edges.push(SynthEdge {
                    from: id(col, row),
                    to: id(col, row + 1),
                    flops: 0,
                });
            }
        }
    }
    SynthNetlist {
        name: format!("mesh_{n}"),
        seed,
        delays_ps,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every directed cycle must carry a register: the subgraph of
    /// zero-flop edges has to be acyclic (checked with Kahn's
    /// algorithm).
    fn assert_no_combinational_cycle(net: &SynthNetlist) {
        let n = net.num_cells();
        let mut adj = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for e in &net.edges {
            if e.flops == 0 {
                adj[e.from as usize].push(e.to as usize);
                indeg[e.to as usize] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &t in &adj[v] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        assert_eq!(seen, n, "{}: zero-flop subgraph has a cycle", net.name);
    }

    fn assert_well_formed(net: &SynthNetlist, requested: usize) {
        assert!(net.num_cells() <= requested);
        assert!(net.num_cells() * 10 >= requested * 9, "size off by >10%");
        for e in &net.edges {
            assert!((e.from as usize) < net.num_cells());
            assert!((e.to as usize) < net.num_cells());
            assert_ne!(e.from, e.to, "self-loop");
        }
        for &d in &net.delays_ps {
            assert!(DELAY_RANGE.contains(&d));
        }
        assert_no_combinational_cycle(net);
    }

    #[test]
    fn ring_of_rings_is_well_formed_across_sizes() {
        for cells in [3, 7, 64, 1000, 4096] {
            let net = ring_of_rings(cells, 7);
            assert_eq!(net.num_cells(), cells, "ring sizes are exact");
            assert_well_formed(&net, cells);
        }
    }

    #[test]
    fn pipelined_mesh_is_well_formed_across_sizes() {
        for cells in [4, 100, 1000, 4096] {
            let net = pipelined_mesh(cells, 7);
            assert_well_formed(&net, cells);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        assert_eq!(ring_of_rings(512, 42), ring_of_rings(512, 42));
        assert_eq!(pipelined_mesh(512, 42), pipelined_mesh(512, 42));
        assert_ne!(
            ring_of_rings(512, 42).delays_ps,
            ring_of_rings(512, 43).delays_ps
        );
    }

    #[test]
    fn ring_of_rings_is_strongly_connected() {
        // Reachability from cell 0 and to cell 0 both cover the graph —
        // enough to certify strong connectivity.
        let net = ring_of_rings(1000, 3);
        let n = net.num_cells();
        let mut fwd = vec![Vec::new(); n];
        let mut rev = vec![Vec::new(); n];
        for e in &net.edges {
            fwd[e.from as usize].push(e.to as usize);
            rev[e.to as usize].push(e.from as usize);
        }
        for adj in [&fwd, &rev] {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                for &t in &adj[v] {
                    if !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "ring_of_rings not connected");
        }
    }

    #[test]
    fn mesh_has_registered_stage_boundaries() {
        let net = pipelined_mesh(4096, 7);
        assert!(net.edges.iter().any(|e| e.flops > 0), "mesh has registers");
        assert!(
            net.edges.iter().filter(|e| e.flops == 0).count() > net.num_cells(),
            "mesh is mostly combinational"
        );
    }
}
