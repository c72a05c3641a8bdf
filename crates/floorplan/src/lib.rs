//! Sequence-pair floorplanning and the LAC tile graph.
//!
//! The paper's experiments "partition those circuits into soft blocks and
//! use a sequence pair floorplanner to compute the floorplan" (§5); the
//! LAC formulation then divides the chip into *tiles* — regular tiles in
//! channels/dead space/hard blocks, plus one merged tile per soft block —
//! each with a capacity for repeater and flip-flop insertion (§4, Fig. 2).
//!
//! * [`seqpair`] — sequence-pair evaluation (block positions via the
//!   horizontal/vertical constraint longest paths);
//! * [`anneal`] — a simulated-annealing floorplanner over sequence pairs
//!   (area + wirelength cost, soft-block aspect moves);
//! * [`tiles`] — the tile graph with capacities and a consumption ledger.
//!
//! # Examples
//!
//! ```
//! use lacr_floorplan::{anneal::{floorplan, FloorplanConfig}, BlockSpec};
//!
//! let blocks = vec![
//!     BlockSpec::soft(400.0),
//!     BlockSpec::soft(300.0),
//!     BlockSpec::hard(20.0, 10.0),
//! ];
//! let fp = floorplan(&blocks, &[], &FloorplanConfig::default(), 0x00f1_0011);
//! assert_eq!(fp.blocks.len(), 3);
//! assert!(fp.utilization() > 0.3);
//! ```

pub mod anneal;
pub mod seqpair;
pub mod tiles;

/// Typed failure of floorplan construction: the input block list is
/// unusable. The annealer itself always produces *some* layout for
/// valid specs, so malformed specs are the only failure mode.
#[derive(Debug, Clone, PartialEq)]
pub enum FloorplanError {
    /// A block spec has a non-positive/non-finite area or dimension.
    InvalidBlock {
        /// Index of the offending block in the input slice.
        index: usize,
        /// Human-readable description of the defect.
        reason: String,
    },
}

impl std::fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidBlock { index, reason } => {
                write!(f, "block {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for FloorplanError {}

/// Checks every [`BlockSpec`] for positive, finite area and dimensions.
/// Returns the first defect found (blocks are checked in order, so the
/// reported index is deterministic).
pub fn validate_specs(blocks: &[BlockSpec]) -> Result<(), FloorplanError> {
    for (index, b) in blocks.iter().enumerate() {
        let reason = if !(b.area.is_finite() && b.area > 0.0) {
            Some(format!("area {} is not positive and finite", b.area))
        } else if !(b.width.is_finite() && b.width > 0.0) {
            Some(format!("width {} is not positive and finite", b.width))
        } else if !(b.height.is_finite() && b.height > 0.0) {
            Some(format!("height {} is not positive and finite", b.height))
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(FloorplanError::InvalidBlock { index, reason });
        }
    }
    Ok(())
}

/// Fallible front door for [`anneal::floorplan`]: validates the specs
/// and only then runs the annealer (which cannot fail on valid input).
pub fn try_floorplan(
    blocks: &[BlockSpec],
    nets: &[Vec<usize>],
    config: &anneal::FloorplanConfig,
    seed: u64,
) -> Result<Floorplan, FloorplanError> {
    validate_specs(blocks)?;
    Ok(anneal::floorplan(blocks, nets, config, seed))
}

/// Input description of one circuit block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSpec {
    /// Required area (µm², already including any whitespace budget).
    pub area: f64,
    /// `true` for hard blocks: fixed dimensions, only 90° rotation allowed.
    pub hard: bool,
    /// Width for hard blocks; initial aspect hint for soft blocks.
    pub width: f64,
    /// Height for hard blocks.
    pub height: f64,
}

impl BlockSpec {
    /// A soft block of the given area (aspect chosen by the annealer).
    ///
    /// # Panics
    ///
    /// Panics if `area` is not positive and finite.
    pub fn soft(area: f64) -> Self {
        assert!(area > 0.0 && area.is_finite());
        let side = area.sqrt();
        Self {
            area,
            hard: false,
            width: side,
            height: side,
        }
    }

    /// A hard block with fixed dimensions.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is not positive.
    pub fn hard(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && height > 0.0);
        Self {
            area: width * height,
            hard: true,
            width,
            height,
        }
    }
}

/// One placed block of a floorplan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedBlock {
    /// Lower-left corner x.
    pub x: f64,
    /// Lower-left corner y.
    pub y: f64,
    /// Width.
    pub w: f64,
    /// Height.
    pub h: f64,
    /// Whether the block is hard.
    pub hard: bool,
}

impl PlacedBlock {
    /// Centre of the block.
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Whether `(px, py)` lies inside the block (half-open rectangle).
    pub fn contains(&self, px: f64, py: f64) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }
}

/// A computed floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Placed blocks, in input order.
    pub blocks: Vec<PlacedBlock>,
    /// Chip width (bounding box).
    pub chip_w: f64,
    /// Chip height (bounding box).
    pub chip_h: f64,
}

impl Floorplan {
    /// Fraction of the chip bounding box covered by blocks.
    pub fn utilization(&self) -> f64 {
        let used: f64 = self.blocks.iter().map(|b| b.w * b.h).sum();
        let total = self.chip_w * self.chip_h;
        if total > 0.0 {
            used / total
        } else {
            0.0
        }
    }

    /// Index of the block containing `(x, y)`, if any.
    pub fn block_at(&self, x: f64, y: f64) -> Option<usize> {
        self.blocks.iter().position(|b| b.contains(x, y))
    }

    /// Checks the structural invariants: blocks inside the chip and
    /// pairwise non-overlapping (within `eps`). Returns problems.
    pub fn validate(&self, eps: f64) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            if b.x < -eps
                || b.y < -eps
                || b.x + b.w > self.chip_w + eps
                || b.y + b.h > self.chip_h + eps
            {
                problems.push(format!("block {i} escapes the chip"));
            }
        }
        for i in 0..self.blocks.len() {
            for j in i + 1..self.blocks.len() {
                let a = &self.blocks[i];
                let b = &self.blocks[j];
                let overlap_w = (a.x + a.w).min(b.x + b.w) - a.x.max(b.x);
                let overlap_h = (a.y + a.h).min(b.y + b.h) - a.y.max(b.y);
                if overlap_w > eps && overlap_h > eps {
                    problems.push(format!("blocks {i} and {j} overlap"));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_spec_square_by_default() {
        let s = BlockSpec::soft(100.0);
        assert!((s.width - 10.0).abs() < 1e-9);
        assert!((s.height - 10.0).abs() < 1e-9);
        assert!(!s.hard);
    }

    #[test]
    fn hard_spec_keeps_dims() {
        let s = BlockSpec::hard(4.0, 25.0);
        assert!((s.area - 100.0).abs() < 1e-9);
        assert!(s.hard);
    }

    #[test]
    fn placed_block_contains_and_center() {
        let b = PlacedBlock {
            x: 1.0,
            y: 2.0,
            w: 4.0,
            h: 6.0,
            hard: false,
        };
        assert_eq!(b.center(), (3.0, 5.0));
        assert!(b.contains(1.0, 2.0));
        assert!(!b.contains(5.0, 2.0)); // half-open
        assert!(b.contains(4.9, 7.9));
    }

    #[test]
    fn validate_catches_overlap() {
        let fp = Floorplan {
            blocks: vec![
                PlacedBlock {
                    x: 0.0,
                    y: 0.0,
                    w: 5.0,
                    h: 5.0,
                    hard: false,
                },
                PlacedBlock {
                    x: 3.0,
                    y: 3.0,
                    w: 5.0,
                    h: 5.0,
                    hard: false,
                },
            ],
            chip_w: 10.0,
            chip_h: 10.0,
        };
        assert!(fp.validate(1e-9).iter().any(|p| p.contains("overlap")));
    }

    #[test]
    fn validate_catches_escape() {
        let fp = Floorplan {
            blocks: vec![PlacedBlock {
                x: 8.0,
                y: 0.0,
                w: 5.0,
                h: 5.0,
                hard: false,
            }],
            chip_w: 10.0,
            chip_h: 10.0,
        };
        assert!(fp.validate(1e-9).iter().any(|p| p.contains("escapes")));
    }

    #[test]
    #[should_panic]
    fn zero_area_soft_block_panics() {
        let _ = BlockSpec::soft(0.0);
    }

    #[test]
    fn validate_specs_flags_bad_blocks() {
        let mut bad = BlockSpec::soft(100.0);
        bad.area = f64::NAN;
        let specs = [BlockSpec::soft(50.0), bad];
        let err = validate_specs(&specs).unwrap_err();
        let FloorplanError::InvalidBlock { index, reason } = err;
        assert_eq!(index, 1);
        assert!(reason.contains("area"), "{reason}");

        let mut zero_w = BlockSpec::hard(4.0, 4.0);
        zero_w.width = 0.0;
        assert!(validate_specs(&[zero_w]).is_err());
        assert!(validate_specs(&[BlockSpec::soft(1.0)]).is_ok());
        assert!(validate_specs(&[]).is_ok());
    }

    #[test]
    fn try_floorplan_rejects_then_accepts() {
        let mut bad = BlockSpec::soft(100.0);
        bad.area = -5.0;
        let cfg = anneal::FloorplanConfig {
            moves: 50,
            ..Default::default()
        };
        assert!(try_floorplan(&[bad], &[], &cfg, 0x00f1_0011).is_err());
        let good = [BlockSpec::soft(100.0), BlockSpec::soft(60.0)];
        let fp = try_floorplan(&good, &[], &cfg, 0x00f1_0011).unwrap();
        assert_eq!(fp.blocks.len(), 2);
    }

    #[test]
    fn expired_deadline_still_returns_valid_layout() {
        let specs: Vec<BlockSpec> = (0..8).map(|i| BlockSpec::soft(90.0 + i as f64)).collect();
        let cfg = anneal::FloorplanConfig {
            moves: 1_000_000,
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        // The annealer must bail out early yet produce a legal floorplan.
        let fp = anneal::floorplan(&specs, &[], &cfg, 0x00f1_0011);
        assert!(fp.validate(1e-6).is_empty(), "{:?}", fp.validate(1e-6));
    }
}
