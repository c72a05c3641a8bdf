//! Regenerates the paper's **Figure 2**: the tile graph for LAC-retiming,
//! with hard blocks, soft blocks and dead-space/channel regions.
//!
//! Prints the ASCII tile map to stdout and writes
//! `target/fig2_tilegraph.svg` with the floorplan overlay and per-tile
//! flip-flop occupancy after LAC-retiming.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin fig2_tilegraph [circuit]
//! ```

use lacr_core::planner::{try_build_physical_plan, try_plan_retimings};
use lacr_core::render::{congestion_ascii, tile_ascii, tile_ascii_legend, tile_svg};
use std::fs;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut args);
    let circuit_name = args.first().cloned().unwrap_or_else(|| "s953".to_string());
    let config = lacr_bench::experiment_planner();
    let circuit = match lacr_netlist::bench89::generate(&circuit_name) {
        Ok(c) => c,
        Err(e) => {
            lacr_obs::diag!("{e}");
            std::process::exit(1);
        }
    };
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
    println!(
        "{}: chip {:.1} x {:.1} mm, {} x {} cells, {} tiles ({} merged soft)",
        circuit_name,
        plan.floorplan.chip_w / 1000.0,
        plan.floorplan.chip_h / 1000.0,
        plan.grid.nx(),
        plan.grid.ny(),
        plan.grid.num_tiles(),
        plan.partitioning.blocks.len(),
    );
    println!("{}", tile_ascii(&plan));
    println!("{}", tile_ascii_legend(&plan));
    println!("\nrouting congestion (worst adjacent edge / capacity):");
    println!("{}", congestion_ascii(&plan, config.route.edge_capacity));

    let report = match try_plan_retimings(&plan, &config) {
        Ok(r) => r,
        Err(e) => {
            lacr_obs::diag!("retiming failed: {e}");
            std::process::exit(1);
        }
    };
    let svg = tile_svg(&plan, Some(&report.lac.result.occupancy));
    let path = "target/fig2_tilegraph.svg";
    if let Err(e) = fs::write(path, svg) {
        lacr_obs::diag!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "\nLAC occupancy rendered to {path} (green = occupied within capacity, red = violating); N_FOA = {}",
        report.lac.result.n_foa
    );
}
