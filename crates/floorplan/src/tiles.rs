//! The tile graph of §4: regular tiles over channels, dead space and hard
//! blocks, plus one *merged* tile per soft block, each with a capacity for
//! repeater and flip-flop insertion.

use crate::Floorplan;

/// Identifier of a tile (regular or merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub usize);

impl TileId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a tile covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKind {
    /// Channel region or dead space: high insertion capacity.
    Channel,
    /// One grid cell of a hard block: capacity only from pre-allocated
    /// repeater/flip-flop sites.
    Hard(usize),
    /// The merged tile of a soft block: capacity is whatever the block's
    /// placed area leaves after its functional units.
    Soft(usize),
}

/// Configuration for [`TileGrid::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileGridConfig {
    /// Side length of a grid cell (µm).
    pub tile_size: f64,
    /// Usable fraction of a channel/dead-space cell.
    pub channel_utilization: f64,
    /// Pre-allocated site area per hard-block cell (µm²); the paper's
    /// "repeater and flip-flop sites inserted intentionally" (reference
    /// \[1\] of the paper).
    pub hard_site_area: f64,
}

impl Default for TileGridConfig {
    fn default() -> Self {
        Self {
            tile_size: 500.0,
            channel_utilization: 0.8,
            hard_site_area: 0.0,
        }
    }
}

/// The tile decomposition of a floorplan.
///
/// Grid *cells* (`nx × ny`) are the routing granularity; *tiles* are the
/// capacity granularity: channel and hard cells are their own tiles, soft
/// block cells all map to one merged tile per block.
///
/// # Examples
///
/// ```
/// use lacr_floorplan::{Floorplan, PlacedBlock, tiles::{TileGrid, TileGridConfig, TileKind}};
///
/// let fp = Floorplan {
///     blocks: vec![PlacedBlock { x: 0.0, y: 0.0, w: 600.0, h: 600.0, hard: false }],
///     chip_w: 1200.0,
///     chip_h: 600.0,
/// };
/// let grid = TileGrid::build(&fp, &[100_000.0], &TileGridConfig::default());
/// assert_eq!(grid.num_cells(), 3 * 2); // 1200×600 µm at 500 µm cells
/// let soft = grid.soft_tile_of_block(0).expect("block 0 has a merged tile");
/// assert!(matches!(grid.kind(soft), TileKind::Soft(0)));
/// assert_eq!(grid.capacity(soft), 600.0 * 600.0 - 100_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TileGrid {
    nx: usize,
    ny: usize,
    tile_size: f64,
    cell_tile: Vec<usize>,
    kinds: Vec<TileKind>,
    capacity: Vec<f64>,
    centers: Vec<(f64, f64)>,
}

impl TileGrid {
    /// Builds the tile grid for a floorplan. `used_area[b]` is the area
    /// already consumed by block `b`'s functional units; a soft block's
    /// merged-tile capacity is `w·h − used_area` (clamped at 0).
    ///
    /// # Panics
    ///
    /// Panics if `used_area.len() != fp.blocks.len()` or the config is
    /// non-positive.
    pub fn build(fp: &Floorplan, used_area: &[f64], config: &TileGridConfig) -> Self {
        assert_eq!(used_area.len(), fp.blocks.len());
        assert!(config.tile_size > 0.0);
        assert!((0.0..=1.0).contains(&config.channel_utilization));
        let ts = config.tile_size;
        let nx = ((fp.chip_w / ts).ceil() as usize).max(1);
        let ny = ((fp.chip_h / ts).ceil() as usize).max(1);
        let cell_area = ts * ts;

        let mut cell_tile = vec![usize::MAX; nx * ny];
        let mut kinds = Vec::new();
        let mut capacity = Vec::new();
        let mut centers = Vec::new();
        // Merged tile per soft block, created lazily.
        let mut soft_tile = vec![usize::MAX; fp.blocks.len()];

        for cy in 0..ny {
            for cx in 0..nx {
                let px = (cx as f64 + 0.5) * ts;
                let py = (cy as f64 + 0.5) * ts;
                let cell = cy * nx + cx;
                match fp.block_at(px, py) {
                    Some(b) if fp.blocks[b].hard => {
                        let t = kinds.len();
                        kinds.push(TileKind::Hard(b));
                        capacity.push(config.hard_site_area.max(0.0));
                        centers.push((px, py));
                        cell_tile[cell] = t;
                    }
                    Some(b) => {
                        if soft_tile[b] == usize::MAX {
                            soft_tile[b] = kinds.len();
                            kinds.push(TileKind::Soft(b));
                            let blk = &fp.blocks[b];
                            capacity.push((blk.w * blk.h - used_area[b]).max(0.0));
                            centers.push(blk.center());
                        }
                        cell_tile[cell] = soft_tile[b];
                    }
                    None => {
                        let t = kinds.len();
                        kinds.push(TileKind::Channel);
                        capacity.push(cell_area * config.channel_utilization);
                        centers.push((px, py));
                        cell_tile[cell] = t;
                    }
                }
            }
        }
        // A soft block so small that no cell centre fell inside it still
        // needs a tile for its units: attach it to the nearest cell's tile
        // by overriding nothing — instead create a merged tile with its
        // capacity but no cells (routing still works via the covering
        // tile).
        for (b, blk) in fp.blocks.iter().enumerate() {
            if !blk.hard && soft_tile[b] == usize::MAX {
                soft_tile[b] = kinds.len();
                kinds.push(TileKind::Soft(b));
                capacity.push((blk.w * blk.h - used_area[b]).max(0.0));
                centers.push(blk.center());
            }
        }
        TileGrid {
            nx,
            ny,
            tile_size: ts,
            cell_tile,
            kinds,
            capacity,
            centers,
        }
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell side length (µm).
    pub fn tile_size(&self) -> f64 {
        self.tile_size
    }

    /// Number of grid cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of (merged) tiles.
    pub fn num_tiles(&self) -> usize {
        self.kinds.len()
    }

    /// Linear cell index of grid coordinates.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn cell_index(&self, cx: usize, cy: usize) -> usize {
        assert!(cx < self.nx && cy < self.ny);
        cy * self.nx + cx
    }

    /// The cell containing point `(x, y)` (clamped to the chip).
    pub fn cell_of_point(&self, x: f64, y: f64) -> usize {
        let cx = ((x / self.tile_size) as isize).clamp(0, self.nx as isize - 1) as usize;
        let cy = ((y / self.tile_size) as isize).clamp(0, self.ny as isize - 1) as usize;
        self.cell_index(cx, cy)
    }

    /// The tile a cell belongs to.
    pub fn tile_of_cell(&self, cell: usize) -> TileId {
        TileId(self.cell_tile[cell])
    }

    /// Kind of a tile.
    pub fn kind(&self, t: TileId) -> TileKind {
        self.kinds[t.0]
    }

    /// Insertion capacity of a tile (µm²).
    pub fn capacity(&self, t: TileId) -> f64 {
        self.capacity[t.0]
    }

    /// Representative position of a tile (cell centre, or block centre for
    /// merged soft tiles).
    pub fn center(&self, t: TileId) -> (f64, f64) {
        self.centers[t.0]
    }

    /// The merged tile of soft block `b`, if that block exists and is soft.
    pub fn soft_tile_of_block(&self, b: usize) -> Option<TileId> {
        self.kinds
            .iter()
            .position(|k| matches!(k, TileKind::Soft(x) if *x == b))
            .map(TileId)
    }

    /// Iterator over all tile ids.
    pub fn tile_ids(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.kinds.len()).map(TileId)
    }
}

/// Tracks remaining insertion capacity per tile as repeaters and
/// flip-flops are committed.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityLedger {
    remaining: Vec<f64>,
}

impl CapacityLedger {
    /// Starts with every tile's full capacity.
    pub fn new(grid: &TileGrid) -> Self {
        Self {
            remaining: grid.capacity.clone(),
        }
    }

    /// Remaining capacity of a tile.
    pub fn remaining(&self, t: TileId) -> f64 {
        self.remaining[t.0]
    }

    /// Attempts to reserve `area` in tile `t`; returns `false` (and leaves
    /// the ledger unchanged) when the capacity would go negative.
    pub fn try_consume(&mut self, t: TileId, area: f64) -> bool {
        if self.remaining[t.0] + 1e-9 >= area {
            self.remaining[t.0] -= area;
            true
        } else {
            false
        }
    }

    /// Reserves `area` in tile `t` even if that overdraws the tile (the
    /// overflow is what `N_FOA` counts).
    pub fn consume_forced(&mut self, t: TileId, area: f64) {
        self.remaining[t.0] -= area;
    }

    /// Total overdraw across tiles (µm²).
    pub fn total_overflow(&self) -> f64 {
        self.remaining
            .iter()
            .filter(|r| **r < 0.0)
            .map(|r| -*r)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacedBlock;

    fn fp_one_soft() -> Floorplan {
        Floorplan {
            blocks: vec![PlacedBlock {
                x: 0.0,
                y: 0.0,
                w: 600.0,
                h: 600.0,
                hard: false,
            }],
            chip_w: 1000.0,
            chip_h: 1000.0,
        }
    }

    #[test]
    fn grid_dimensions() {
        let grid = TileGrid::build(&fp_one_soft(), &[0.0], &TileGridConfig::default());
        assert_eq!(grid.nx(), 2);
        assert_eq!(grid.ny(), 2);
        assert_eq!(grid.num_cells(), 4);
    }

    #[test]
    fn soft_block_cells_merge_into_one_tile() {
        let grid = TileGrid::build(&fp_one_soft(), &[0.0], &TileGridConfig::default());
        // cell (0,0) centre (250,250) inside block; others outside.
        let t00 = grid.tile_of_cell(grid.cell_index(0, 0));
        assert!(matches!(grid.kind(t00), TileKind::Soft(0)));
        let t10 = grid.tile_of_cell(grid.cell_index(1, 0));
        assert_eq!(grid.kind(t10), TileKind::Channel);
        // soft capacity = 600*600 − 0
        assert!((grid.capacity(t00) - 360_000.0).abs() < 1e-6);
        // channel capacity = 500*500*0.8
        assert!((grid.capacity(t10) - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn used_area_reduces_soft_capacity() {
        let grid = TileGrid::build(&fp_one_soft(), &[350_000.0], &TileGridConfig::default());
        let t = grid.soft_tile_of_block(0).unwrap();
        assert!((grid.capacity(t) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn overfull_soft_block_clamps_to_zero() {
        let grid = TileGrid::build(&fp_one_soft(), &[999_999.0], &TileGridConfig::default());
        let t = grid.soft_tile_of_block(0).unwrap();
        assert_eq!(grid.capacity(t), 0.0);
    }

    #[test]
    fn hard_blocks_get_per_cell_tiles() {
        let fp = Floorplan {
            blocks: vec![PlacedBlock {
                x: 0.0,
                y: 0.0,
                w: 1000.0,
                h: 500.0,
                hard: true,
            }],
            chip_w: 1000.0,
            chip_h: 1000.0,
        };
        let cfg = TileGridConfig {
            hard_site_area: 240.0,
            ..Default::default()
        };
        let grid = TileGrid::build(&fp, &[0.0], &cfg);
        let t0 = grid.tile_of_cell(grid.cell_index(0, 0));
        let t1 = grid.tile_of_cell(grid.cell_index(1, 0));
        assert_ne!(t0, t1, "hard cells are separate tiles");
        assert!(matches!(grid.kind(t0), TileKind::Hard(0)));
        assert_eq!(grid.capacity(t0), 240.0);
    }

    #[test]
    fn tiny_soft_block_still_gets_a_tile() {
        let fp = Floorplan {
            blocks: vec![PlacedBlock {
                x: 600.0,
                y: 600.0,
                w: 50.0,
                h: 50.0,
                hard: false,
            }],
            chip_w: 1000.0,
            chip_h: 1000.0,
        };
        let grid = TileGrid::build(&fp, &[100.0], &TileGridConfig::default());
        let t = grid.soft_tile_of_block(0).expect("tile exists");
        assert!((grid.capacity(t) - 2400.0).abs() < 1e-6);
    }

    #[test]
    fn point_lookup_clamps() {
        let grid = TileGrid::build(&fp_one_soft(), &[0.0], &TileGridConfig::default());
        let inside = grid.cell_of_point(-5.0, -5.0);
        assert_eq!(inside, grid.cell_index(0, 0));
        let far = grid.cell_of_point(99_999.0, 99_999.0);
        assert_eq!(far, grid.cell_index(1, 1));
    }

    #[test]
    fn ledger_consume_and_overdraw() {
        let grid = TileGrid::build(&fp_one_soft(), &[0.0], &TileGridConfig::default());
        let t = grid.soft_tile_of_block(0).unwrap();
        let mut ledger = CapacityLedger::new(&grid);
        assert!(ledger.try_consume(t, 100.0));
        assert!((ledger.remaining(t) - 359_900.0).abs() < 1e-6);
        assert!(!ledger.try_consume(t, 1e9));
        assert_eq!(ledger.total_overflow(), 0.0);
        ledger.consume_forced(t, 400_000.0);
        assert!(ledger.total_overflow() > 0.0);
    }
}
