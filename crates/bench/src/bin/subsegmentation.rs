//! Ablation **A3**: interconnect sub-segmentation (§3.2).
//!
//! "Even more flexibility can be introduced if we further divide the
//! interconnect segment between two repeaters into several interconnect
//! units. ... An approach around this problem is to find out the maximum
//! delay of an interconnect segment under all possible ways of inserting
//! flip-flops and assign that delay to the segment. The drawback is that
//! the accuracy of interconnect delay is sacrificed."
//!
//! This ablation compares units-per-span ∈ {1, 2, 4} with conservative
//! (max) delays against the natural segmentation, reporting `T_min`,
//! `T_clk` feasibility, `N_FOA` and the graph size.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin subsegmentation [circuit ...]
//! ```

use lacr_core::expand::ExpandOptions;
use lacr_core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};

fn main() {
    let mut circuits: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut circuits);
    if circuits.is_empty() {
        circuits = vec!["s953".into(), "s1196".into()];
    }
    let base = lacr_bench::experiment_planner();
    println!(
        "{:<8} {:>5} {:>12} | {:>8} {:>9} {:>9} | {:>6} {:>6}",
        "circuit", "subs", "delays", "vertices", "Tmin/ns", "Tclk/ns", "base", "lac"
    );
    for name in &circuits {
        let circuit = match lacr_netlist::bench89::generate(name) {
            Ok(c) => c,
            Err(e) => {
                lacr_obs::diag!("{e}");
                continue;
            }
        };
        for (subs, conservative) in [(1usize, false), (2, true), (4, true)] {
            let config = PlannerConfig {
                expand: ExpandOptions {
                    units_per_span: subs,
                    conservative_delays: conservative,
                    ..base.expand
                },
                ..base.clone()
            };
            let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
            match try_plan_retimings(&plan, &config) {
                Ok(report) => println!(
                    "{name:<8} {subs:>5} {:>12} | {:>8} {:>9.2} {:>9.2} | {:>6} {:>6}",
                    if conservative {
                        "conservative"
                    } else {
                        "exact"
                    },
                    plan.expanded.graph.num_vertices(),
                    plan.t_min as f64 / 1000.0,
                    plan.t_clk as f64 / 1000.0,
                    report.min_area.result.n_foa,
                    report.lac.result.n_foa,
                ),
                Err(e) => println!("{name:<8} {subs:>5}: error: {e}"),
            }
        }
    }
}
