//! Ablation **A4**: the W/D constraint reduction (Maheshwari–Sapatnekar
//! style), which the paper cites as the main avenue for further run-time
//! improvement (§5).
//!
//! Pruned generation is the only emission path; this bin reports how much
//! it buys per circuit — violating pairs versus constraints actually
//! emitted — plus the substrate amortisation: the cost of one W/D build
//! for the whole `[T_min, T_init]` bracket against re-emitting a probe's
//! constraint set from it (what every binary-search step after the first
//! costs).
//!
//! ```text
//! cargo run --release -p lacr-bench --bin constraint_pruning [circuit ...]
//! ```

use lacr_core::planner::try_build_physical_plan;
use lacr_retime::{generate_period_constraints, weighted_min_area_retiming, WdSubstrate};
use std::time::Instant;

fn main() {
    let mut circuits: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut circuits);
    if circuits.is_empty() {
        circuits = vec!["s641".into(), "s953".into(), "s1196".into()];
    }
    let config = lacr_bench::experiment_planner();
    println!(
        "{:<8} | {:>10} {:>10} {:>6} | {:>9} {:>9} {:>9} | {:>5}",
        "circuit", "pairs", "emitted", "kept%", "build t/s", "remit t/s", "solve t/s", "N_F"
    );
    for name in &circuits {
        let circuit = match lacr_netlist::bench89::generate(name) {
            Ok(c) => c,
            Err(e) => {
                lacr_obs::diag!("{e}");
                continue;
            }
        };
        let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
        let graph = &plan.expanded.graph;
        let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
        let t0 = Instant::now();
        let substrate = match WdSubstrate::build(graph, plan.t_min, plan.t_init) {
            Ok(s) => s,
            Err(e) => {
                println!("{name:<8} | error: {e}");
                continue;
            }
        };
        let build_t = t0.elapsed();
        let t1 = Instant::now();
        let pc = substrate.constraints_for(plan.t_clk);
        let remit_t = t1.elapsed();
        // Cross-check: the substrate probe is bit-identical to one-shot
        // generation at the same target.
        let fresh = generate_period_constraints(graph, plan.t_clk).expect("no overflow");
        assert_eq!(
            pc.constraints, fresh.constraints,
            "substrate probe diverged from one-shot generation"
        );
        let kept = if pc.pairs_before_pruning > 0 {
            100.0 * pc.constraints.len() as f64 / pc.pairs_before_pruning as f64
        } else {
            100.0
        };
        let t2 = Instant::now();
        match weighted_min_area_retiming(graph, &pc, &areas) {
            Ok(out) => println!(
                "{name:<8} | {:>10} {:>10} {:>6.1} | {:>9.3} {:>9.3} {:>9.3} | {:>5}",
                pc.pairs_before_pruning,
                pc.constraints.len(),
                kept,
                build_t.as_secs_f64(),
                remit_t.as_secs_f64(),
                t2.elapsed().as_secs_f64(),
                out.total_flops,
            ),
            Err(e) => println!("{name:<8} | error: {e}"),
        }
    }
}
