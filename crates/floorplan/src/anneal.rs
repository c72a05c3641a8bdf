//! Simulated-annealing floorplanner over sequence pairs.

use crate::seqpair::SequencePair;
use crate::{BlockSpec, Floorplan, PlacedBlock};
use lacr_prng::{Rng, SliceRandom};

/// Aspect-ratio choices explored for soft blocks.
const SOFT_ASPECTS: [f64; 5] = [0.5, 0.75, 1.0, 4.0 / 3.0, 2.0];

/// Configuration for [`floorplan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanConfig {
    /// Number of annealing moves.
    pub moves: usize,
    /// Relative weight of wirelength against chip area in the cost.
    pub wirelength_weight: f64,
    /// Initial acceptance temperature as a fraction of the initial cost.
    pub initial_temp_frac: f64,
    /// Multiplicative cooling applied every `moves / 100` steps.
    pub cooling: f64,
    /// Optional wall-clock deadline. The annealer polls it periodically
    /// and, once expired, stops early and returns the best layout found
    /// so far (never worse than the initial packing).
    pub deadline: Option<std::time::Instant>,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        Self {
            moves: 20_000,
            wirelength_weight: 0.3,
            initial_temp_frac: 0.3,
            cooling: 0.95,
            deadline: None,
        }
    }
}

// Deadline polling happens once per *cooling round* (`moves / 100`
// moves), never mid-round: a poll between individual moves would let
// tracing overhead shift which move the deadline lands on, making
// `rounds_completed` differ between traced and untraced runs.

/// Computes a floorplan for `blocks`. `nets` lists, per net, the indices
/// of the blocks it touches (used for the half-perimeter wirelength term);
/// nets touching fewer than two distinct blocks are ignored. `seed` seeds
/// the annealer's PRNG.
///
/// The annealer explores sequence-pair swaps and soft-block aspect
/// changes, minimising `chip_area + λ · HPWL` (both normalised by their
/// initial values so `λ` is dimensionless).
///
/// # Examples
///
/// ```
/// use lacr_floorplan::{anneal::{floorplan, FloorplanConfig}, BlockSpec};
///
/// let blocks: Vec<BlockSpec> = (0..6).map(|i| BlockSpec::soft(100.0 + i as f64)).collect();
/// let nets = [vec![0, 5], vec![1, 2, 3]];
/// let fp = floorplan(&blocks, &nets, &FloorplanConfig::default(), 0x00f1_0011);
/// assert!(fp.validate(1e-6).is_empty());
/// ```
pub fn floorplan(
    blocks: &[BlockSpec],
    nets: &[Vec<usize>],
    config: &FloorplanConfig,
    seed: u64,
) -> Floorplan {
    let n = blocks.len();
    if n == 0 {
        return Floorplan {
            blocks: Vec::new(),
            chip_w: 0.0,
            chip_h: 0.0,
        };
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut sp = SequencePair::identity(n);
    sp.s1.shuffle(&mut rng);
    sp.s2.shuffle(&mut rng);
    // Aspect state: index into SOFT_ASPECTS for soft blocks; for hard
    // blocks, 0 = as-given, 1 = rotated.
    let mut aspect: Vec<usize> = blocks.iter().map(|b| if b.hard { 0 } else { 2 }).collect();

    let dims = |aspect: &[usize]| -> (Vec<f64>, Vec<f64>) {
        let mut w = Vec::with_capacity(n);
        let mut h = Vec::with_capacity(n);
        for (i, b) in blocks.iter().enumerate() {
            if b.hard {
                if aspect[i] == 0 {
                    w.push(b.width);
                    h.push(b.height);
                } else {
                    w.push(b.height);
                    h.push(b.width);
                }
            } else {
                let ar = SOFT_ASPECTS[aspect[i]];
                w.push((b.area * ar).sqrt());
                h.push((b.area / ar).sqrt());
            }
        }
        (w, h)
    };

    type Layout = (f64, f64, Vec<(f64, f64)>, Vec<f64>, Vec<f64>);
    let evaluate = |sp: &SequencePair, aspect: &[usize]| -> Layout {
        let (w, h) = dims(aspect);
        let (pos, cw, ch) = sp.pack(&w, &h);
        let area = cw * ch;
        let mut hpwl = 0.0;
        for net in nets {
            let mut minx = f64::INFINITY;
            let mut maxx = f64::NEG_INFINITY;
            let mut miny = f64::INFINITY;
            let mut maxy = f64::NEG_INFINITY;
            let mut count = 0;
            for &b in net {
                if b < n {
                    let cx = pos[b].0 + w[b] / 2.0;
                    let cy = pos[b].1 + h[b] / 2.0;
                    minx = minx.min(cx);
                    maxx = maxx.max(cx);
                    miny = miny.min(cy);
                    maxy = maxy.max(cy);
                    count += 1;
                }
            }
            if count >= 2 {
                hpwl += (maxx - minx) + (maxy - miny);
            }
        }
        (area, hpwl, pos, w, h)
    };

    let (area0, hpwl0, ..) = evaluate(&sp, &aspect);
    let area_norm = area0.max(1e-9);
    let hpwl_norm = hpwl0.max(1e-9);
    let cost_of = |area: f64, hpwl: f64| -> f64 {
        area / area_norm + config.wirelength_weight * hpwl / hpwl_norm
    };

    let mut cur_cost = cost_of(area0, hpwl0);
    let mut best = (sp.clone(), aspect.clone(), cur_cost);
    let mut temp = cur_cost * config.initial_temp_frac;
    let cool_every = (config.moves / 100).max(1);

    let _span = lacr_obs::span!("floorplan.anneal", blocks = n, moves = config.moves);

    for step in 0..config.moves {
        if step % cool_every == 0 {
            // Round boundary: the only place the deadline is consulted.
            if let Some(deadline) = config.deadline {
                if std::time::Instant::now() >= deadline {
                    break; // budget expired: keep the best layout so far
                }
            }
        }
        let mut cand_sp = sp.clone();
        let mut cand_aspect = aspect.clone();
        match rng.gen_range(0..4u32) {
            0 => {
                // swap two blocks in s1
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                cand_sp.s1.swap(i, j);
            }
            1 => {
                // swap two blocks in s2
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                cand_sp.s2.swap(i, j);
            }
            2 => {
                // swap the same pair in both sequences (position move)
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let (p1a, p1b) = (
                    cand_sp.s1.iter().position(|&x| x == a).expect("perm"),
                    cand_sp.s1.iter().position(|&x| x == b).expect("perm"),
                );
                cand_sp.s1.swap(p1a, p1b);
                let (p2a, p2b) = (
                    cand_sp.s2.iter().position(|&x| x == a).expect("perm"),
                    cand_sp.s2.iter().position(|&x| x == b).expect("perm"),
                );
                cand_sp.s2.swap(p2a, p2b);
            }
            _ => {
                // change a block's aspect / rotation
                let i = rng.gen_range(0..n);
                if blocks[i].hard {
                    cand_aspect[i] = 1 - cand_aspect[i];
                } else {
                    cand_aspect[i] = rng.gen_range(0..SOFT_ASPECTS.len());
                }
            }
        }
        let (area, hpwl, ..) = evaluate(&cand_sp, &cand_aspect);
        let cand_cost = cost_of(area, hpwl);
        let accept = cand_cost <= cur_cost
            || rng.gen_bool(
                ((cur_cost - cand_cost) / temp.max(1e-12))
                    .exp()
                    .clamp(0.0, 1.0),
            );
        if accept {
            sp = cand_sp;
            aspect = cand_aspect;
            cur_cost = cand_cost;
            if cur_cost < best.2 {
                best = (sp.clone(), aspect.clone(), cur_cost);
            }
        }
        if step % cool_every == cool_every - 1 {
            temp *= config.cooling;
        }
    }

    let (_, _, pos, w, h) = evaluate(&best.0, &best.1);
    let mut chip_w = 0.0f64;
    let mut chip_h = 0.0f64;
    for i in 0..n {
        chip_w = chip_w.max(pos[i].0 + w[i]);
        chip_h = chip_h.max(pos[i].1 + h[i]);
    }
    Floorplan {
        blocks: (0..n)
            .map(|i| PlacedBlock {
                x: pos[i].0,
                y: pos[i].1,
                w: w[i],
                h: h[i],
                hard: blocks[i].hard,
            })
            .collect(),
        chip_w,
        chip_h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed the planner's tests have always floorplanned with.
    const SEED: u64 = 0x00f1_0011;

    fn specs(k: usize) -> Vec<BlockSpec> {
        (0..k)
            .map(|i| BlockSpec::soft(80.0 + 10.0 * i as f64))
            .collect()
    }

    #[test]
    fn result_is_valid_floorplan() {
        let fp = floorplan(&specs(9), &[], &FloorplanConfig::default(), SEED);
        assert!(fp.validate(1e-6).is_empty(), "{:?}", fp.validate(1e-6));
        assert_eq!(fp.blocks.len(), 9);
    }

    #[test]
    fn annealing_beats_random_packing() {
        let blocks = specs(12);
        let quick = floorplan(
            &blocks,
            &[],
            &FloorplanConfig {
                moves: 0,
                ..Default::default()
            },
            SEED,
        );
        let tuned = floorplan(&blocks, &[], &FloorplanConfig::default(), SEED);
        assert!(
            tuned.chip_w * tuned.chip_h <= quick.chip_w * quick.chip_h * 1.001,
            "SA made packing worse: {} vs {}",
            tuned.chip_w * tuned.chip_h,
            quick.chip_w * quick.chip_h
        );
    }

    #[test]
    fn utilization_is_reasonable_for_soft_blocks() {
        let fp = floorplan(&specs(10), &[], &FloorplanConfig::default(), SEED);
        assert!(
            fp.utilization() > 0.6,
            "utilization only {}",
            fp.utilization()
        );
    }

    #[test]
    fn wirelength_pulls_connected_blocks_together() {
        // Two heavily connected blocks among 8: with a strong wirelength
        // weight they should end up closer than the average pair.
        let blocks = specs(8);
        let nets: Vec<Vec<usize>> = (0..20).map(|_| vec![0, 7]).collect();
        let fp = floorplan(
            &blocks,
            &nets,
            &FloorplanConfig {
                wirelength_weight: 3.0,
                ..Default::default()
            },
            SEED,
        );
        let d07 = {
            let (ax, ay) = fp.blocks[0].center();
            let (bx, by) = fp.blocks[7].center();
            (ax - bx).abs() + (ay - by).abs()
        };
        let mut sum = 0.0;
        let mut cnt = 0.0;
        for i in 0..8 {
            for j in i + 1..8 {
                let (ax, ay) = fp.blocks[i].center();
                let (bx, by) = fp.blocks[j].center();
                sum += (ax - bx).abs() + (ay - by).abs();
                cnt += 1.0;
            }
        }
        assert!(
            d07 <= sum / cnt,
            "connected pair distance {d07} above average {}",
            sum / cnt
        );
    }

    #[test]
    fn hard_blocks_keep_their_area_and_dims() {
        let blocks = vec![
            BlockSpec::hard(30.0, 10.0),
            BlockSpec::soft(200.0),
            BlockSpec::soft(150.0),
        ];
        let fp = floorplan(&blocks, &[], &FloorplanConfig::default(), SEED);
        let hb = &fp.blocks[0];
        assert!(hb.hard);
        let dims_ok = ((hb.w - 30.0).abs() < 1e-9 && (hb.h - 10.0).abs() < 1e-9)
            || ((hb.w - 10.0).abs() < 1e-9 && (hb.h - 30.0).abs() < 1e-9);
        assert!(dims_ok, "hard block resized to {}x{}", hb.w, hb.h);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let blocks = specs(6);
        let cfg = FloorplanConfig::default();
        assert_eq!(
            floorplan(&blocks, &[], &cfg, SEED),
            floorplan(&blocks, &[], &cfg, SEED)
        );
    }

    #[test]
    fn empty_input() {
        let fp = floorplan(&[], &[], &FloorplanConfig::default(), SEED);
        assert!(fp.blocks.is_empty());
        assert_eq!(fp.chip_w, 0.0);
    }

    #[test]
    fn single_block() {
        let fp = floorplan(
            &[BlockSpec::soft(100.0)],
            &[],
            &FloorplanConfig::default(),
            SEED,
        );
        assert_eq!(fp.blocks.len(), 1);
        assert!(fp.utilization() > 0.99);
    }
}
