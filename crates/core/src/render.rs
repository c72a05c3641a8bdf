//! Rendering of the tile graph (the paper's Figure 2) as ASCII and SVG.
//!
//! Figure 2 shows the chip divided into tiles: hard blocks, soft blocks
//! and dead-space/channel regions. [`tile_ascii`] draws the same picture
//! on a character grid (one char per routing cell); [`tile_svg`] produces
//! a standalone SVG with the floorplan, tile classes and per-tile
//! flip-flop occupancy after retiming.

use crate::lac::TileOccupancy;
use crate::planner::PhysicalPlan;
use lacr_floorplan::tiles::TileKind;
use std::fmt::Write as _;

/// ASCII map of the tile grid: soft blocks are letters (one per block),
/// hard blocks `#`, channels `.`.
///
/// Row 0 of the grid is printed at the bottom, like a floorplan plot.
pub fn tile_ascii(plan: &PhysicalPlan) -> String {
    let grid = &plan.grid;
    let mut out = String::new();
    for cy in (0..grid.ny()).rev() {
        for cx in 0..grid.nx() {
            let t = grid.tile_of_cell(grid.cell_index(cx, cy));
            let ch = match grid.kind(t) {
                TileKind::Channel => '.',
                TileKind::Hard(_) => '#',
                TileKind::Soft(b) => (b'a' + (b % 26) as u8) as char,
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Legend for [`tile_ascii`].
pub fn tile_ascii_legend(plan: &PhysicalPlan) -> String {
    let mut out = String::from("legend: '.' channel/dead space, '#' hard block");
    let nb = plan.partitioning.blocks.len();
    let _ = write!(
        out,
        ", 'a'..'{}' soft blocks",
        (b'a' + ((nb - 1) % 26) as u8) as char
    );
    out
}

/// Standalone SVG of the floorplan and tile grid, optionally colouring
/// tiles by flip-flop occupancy versus capacity (`occupancy` from a
/// retiming result: green = fits, red = violates).
pub fn tile_svg(plan: &PhysicalPlan, occupancy: Option<&TileOccupancy>) -> String {
    let grid = &plan.grid;
    let ts = grid.tile_size();
    let scale = 0.1; // µm → px
    let w = plan.floorplan.chip_w.max(grid.nx() as f64 * ts) * scale;
    let h = plan.floorplan.chip_h.max(grid.ny() as f64 * ts) * scale;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        w + 2.0,
        h + 2.0,
        w + 2.0,
        h + 2.0
    );
    // y is flipped so the origin sits bottom-left like a floorplan.
    let flip = |y: f64, hh: f64| h - y * scale - hh * scale;

    // Cells, coloured by tile kind / occupancy.
    for cy in 0..grid.ny() {
        for cx in 0..grid.nx() {
            let t = grid.tile_of_cell(grid.cell_index(cx, cy));
            let mut fill = match grid.kind(t) {
                TileKind::Channel => "#e8e8e8",
                TileKind::Hard(_) => "#8a8a8a",
                TileKind::Soft(_) => "#bcd8f0",
            }
            .to_string();
            if let Some(occ) = occupancy {
                if occ.violations[t.index()] > 0 {
                    fill = "#e06060".to_string();
                } else if occ.counts[t.index()] > 0 {
                    fill = "#8fd08f".to_string();
                }
            }
            let _ = writeln!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{fill}" stroke="#ffffff" stroke-width="0.4"/>"##,
                cx as f64 * ts * scale,
                flip(cy as f64 * ts, ts),
                ts * scale,
                ts * scale,
            );
        }
    }
    // Block outlines with labels.
    for (b, blk) in plan.floorplan.blocks.iter().enumerate() {
        let _ = writeln!(
            s,
            r#"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="none" stroke="{}" stroke-width="1.2"/>"#,
            blk.x * scale,
            flip(blk.y, blk.h),
            blk.w * scale,
            blk.h * scale,
            if blk.hard { "#303030" } else { "#2060a0" },
        );
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" font-size="8" fill="#123">{}{b}</text>"##,
            (blk.x + blk.w / 2.0) * scale - 4.0,
            flip(blk.y + blk.h / 2.0, 0.0),
            if blk.hard { "H" } else { "B" },
        );
    }
    s.push_str("</svg>\n");
    s
}

/// ASCII heat map of routing congestion: per cell, the worst adjacent
/// edge usage as a fraction of `capacity`, bucketed into
/// `' ' . : + * # @` (空 < 20 % … ≥ 120 % = overflow).
pub fn congestion_ascii(plan: &PhysicalPlan, capacity: u32) -> String {
    let grid = &plan.grid;
    let cong = plan.routing.cell_congestion(grid.num_cells(), capacity);
    let mut out = String::new();
    for cy in (0..grid.ny()).rev() {
        for cx in 0..grid.nx() {
            let c = cong[grid.cell_index(cx, cy)];
            let ch = match c {
                c if c >= 1.2 => '@',
                c if c >= 1.0 => '#',
                c if c >= 0.8 => '*',
                c if c >= 0.5 => '+',
                c if c >= 0.2 => ':',
                c if c > 0.0 => '.',
                _ => ' ',
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
    use lacr_floorplan::anneal::FloorplanConfig;
    use lacr_netlist::bench89;

    fn plan() -> PhysicalPlan {
        let c = bench89::generate("s344").unwrap();
        let cfg = PlannerConfig {
            floorplan: FloorplanConfig {
                moves: 500,
                ..Default::default()
            },
            ..Default::default()
        };
        try_build_physical_plan(&c, &cfg, &[]).unwrap()
    }

    #[test]
    fn ascii_covers_the_grid() {
        let p = plan();
        let art = tile_ascii(&p);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), p.grid.ny());
        assert!(lines.iter().all(|l| l.len() == p.grid.nx()));
        // Soft blocks must appear.
        assert!(art.chars().any(|c| c.is_ascii_lowercase()));
        assert!(tile_ascii_legend(&p).contains("soft blocks"));
    }

    #[test]
    fn svg_is_wellformed_enough() {
        let p = plan();
        let cfg = PlannerConfig::default();
        let report = try_plan_retimings(&p, &cfg).unwrap();
        let svg = tile_svg(&p, Some(&report.lac.result.occupancy));
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.matches("<rect").count() >= p.grid.num_cells());
    }

    #[test]
    fn congestion_map_covers_grid() {
        let p = plan();
        let map = congestion_ascii(&p, 24);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), p.grid.ny());
        assert!(lines.iter().all(|l| l.len() == p.grid.nx()));
        // Some routed traffic must be visible.
        assert!(map.chars().any(|c| c != ' '));
    }

    #[test]
    fn svg_without_occupancy() {
        let p = plan();
        let svg = tile_svg(&p, None);
        assert!(svg.contains("#bcd8f0"), "soft tiles coloured by kind");
    }
}
