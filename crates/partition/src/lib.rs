//! Recursive Fiduccia–Mattheyses netlist partitioning.
//!
//! The paper assumes "a partition of the RT level functional units into
//! circuit blocks" as an input (§2); its experiments "first partition those
//! circuits into soft blocks" (§5). This crate supplies that substrate: a
//! classic FM bipartitioner applied recursively until the requested block
//! count is reached, balancing block *areas* and minimising the hyperedge
//! (net) cut.
//!
//! # Examples
//!
//! ```
//! use lacr_netlist::bench89;
//! use lacr_partition::{partition, PartitionConfig};
//!
//! let c = bench89::generate("s344")?;
//! let p = partition(&c, &PartitionConfig { num_blocks: 6, ..Default::default() });
//! assert_eq!(p.blocks.len(), 6);
//! assert_eq!(p.block_of.len(), c.num_units());
//! # Ok::<(), lacr_netlist::UnknownBenchmarkError>(())
//! ```

mod fm;
mod multilevel;

pub use fm::bipartition;
pub use multilevel::multilevel_bipartition;

use lacr_netlist::{Circuit, UnitId};

/// Configuration for [`partition`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of blocks to produce.
    pub num_blocks: usize,
    /// Maximum relative area imbalance of a bipartition (0.1 = each side
    /// within ±10 % of half).
    pub balance_tolerance: f64,
    /// FM improvement passes per bipartition.
    pub fm_passes: usize,
    /// Groups at or above this many units are bisected with the
    /// multilevel (coarsen + refine) engine; smaller groups use flat FM.
    /// Flat FM is the better fit for the paper's circuit sizes; the
    /// multilevel engine keeps quality up on multi-thousand-unit circuits
    /// like s5378.
    pub multilevel_threshold: usize,
    /// PRNG seed for the initial random split.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            num_blocks: 8,
            balance_tolerance: 0.15,
            fm_passes: 6,
            multilevel_threshold: 1_500,
            seed: 0xb10c5,
        }
    }
}

/// One block of the partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Units assigned to this block.
    pub units: Vec<UnitId>,
    /// Sum of raw unit areas.
    pub area: f64,
}

/// A partitioning of a circuit's units into blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// The blocks, each with its unit list and area.
    pub blocks: Vec<Block>,
    /// Block index of every unit (indexed by [`UnitId::index`]).
    pub block_of: Vec<usize>,
}

impl Partitioning {
    /// Number of nets whose pins span more than one block.
    pub fn cut_size(&self, circuit: &Circuit) -> usize {
        circuit
            .nets()
            .iter()
            .filter(|net| {
                let b = self.block_of[net.driver.index()];
                net.sinks.iter().any(|s| self.block_of[s.unit.index()] != b)
            })
            .count()
    }
}

/// Partitions a circuit into `config.num_blocks` blocks by recursive FM
/// bisection, always splitting the largest-area remaining block.
///
/// Every unit (including primary I/O, which have zero area) is assigned to
/// exactly one block.
///
/// # Panics
///
/// Panics if `config.num_blocks == 0`.
pub fn partition(circuit: &Circuit, config: &PartitionConfig) -> Partitioning {
    assert!(config.num_blocks > 0, "need at least one block");
    let _span = lacr_obs::span!(
        "partition.recursive",
        units = circuit.num_units(),
        blocks = config.num_blocks
    );
    let n = circuit.num_units();
    let all: Vec<UnitId> = circuit.unit_ids().collect();
    let mut groups: Vec<Vec<UnitId>> = vec![all];

    let mut seed = config.seed;
    while groups.len() < config.num_blocks {
        // Split the group with the largest area (ties: most units).
        let (idx, _) = groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let area: f64 = g.iter().map(|&u| circuit.unit(u).area).sum();
                (i, (area, g.len()))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite areas"))
            .expect("non-empty group list");
        if groups[idx].len() < 2 {
            // Cannot split further; give up early (fewer blocks than asked).
            break;
        }
        let group = groups.swap_remove(idx);
        seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let (left, right) = if config.fm_passes > 0 && group.len() >= config.multilevel_threshold {
            multilevel_bipartition(
                circuit,
                &group,
                config.balance_tolerance,
                config.fm_passes,
                seed,
            )
        } else {
            bipartition(
                circuit,
                &group,
                config.balance_tolerance,
                config.fm_passes,
                seed,
            )
        };
        groups.push(left);
        groups.push(right);
    }

    let mut block_of = vec![usize::MAX; n];
    let blocks: Vec<Block> = groups
        .into_iter()
        .enumerate()
        .map(|(bi, units)| {
            let mut area = 0.0;
            for &u in &units {
                block_of[u.index()] = bi;
                area += circuit.unit(u).area;
            }
            Block { units, area }
        })
        .collect();
    debug_assert!(block_of.iter().all(|&b| b != usize::MAX));
    Partitioning { blocks, block_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_netlist::bench89;

    #[test]
    fn partitions_cover_all_units() {
        let c = bench89::generate("s641").unwrap();
        let p = partition(&c, &PartitionConfig::default());
        let total: usize = p.blocks.iter().map(|b| b.units.len()).sum();
        assert_eq!(total, c.num_units());
        for (u, &b) in p.block_of.iter().enumerate() {
            assert!(p.blocks[b].units.iter().any(|x| x.index() == u));
        }
    }

    #[test]
    fn block_count_honoured() {
        let c = bench89::generate("s953").unwrap();
        for k in [2, 5, 12] {
            let p = partition(
                &c,
                &PartitionConfig {
                    num_blocks: k,
                    ..Default::default()
                },
            );
            assert_eq!(p.blocks.len(), k);
        }
    }

    #[test]
    fn areas_are_reasonably_balanced() {
        let c = bench89::generate("s1196").unwrap();
        let p = partition(
            &c,
            &PartitionConfig {
                num_blocks: 8,
                ..Default::default()
            },
        );
        let total: f64 = p.blocks.iter().map(|b| b.area).sum();
        let avg = total / 8.0;
        for b in &p.blocks {
            assert!(
                b.area < 2.5 * avg,
                "block area {} far above average {avg}",
                b.area
            );
        }
    }

    #[test]
    fn fm_beats_random_cut() {
        let c = bench89::generate("s838").unwrap();
        let cfg = PartitionConfig {
            num_blocks: 2,
            fm_passes: 8,
            ..Default::default()
        };
        let with_fm = partition(&c, &cfg).cut_size(&c);
        let without = partition(
            &c,
            &PartitionConfig {
                fm_passes: 0,
                ..cfg
            },
        )
        .cut_size(&c);
        assert!(
            with_fm <= without,
            "FM cut {with_fm} worse than random {without}"
        );
    }

    #[test]
    fn single_block_is_identity() {
        let c = bench89::generate("s344").unwrap();
        let p = partition(
            &c,
            &PartitionConfig {
                num_blocks: 1,
                ..Default::default()
            },
        );
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(p.cut_size(&c), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = bench89::generate("s526").unwrap();
        let cfg = PartitionConfig::default();
        assert_eq!(partition(&c, &cfg), partition(&c, &cfg));
    }

    #[test]
    #[should_panic]
    fn zero_blocks_panics() {
        let c = bench89::generate("s344").unwrap();
        let _ = partition(
            &c,
            &PartitionConfig {
                num_blocks: 0,
                ..Default::default()
            },
        );
    }
}
