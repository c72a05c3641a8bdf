//! Ablation **A5** (extension): fanout register sharing.
//!
//! The paper's min-area objective counts flip-flops per connection
//! (`Σ_e w_r(e)`), treating parallel fanout registers as distinct. The
//! Leiserson–Saxe sharing model counts `Σ_u max_i w_r(u, v_i)` instead —
//! all fanouts of one driver tap a single register chain. This ablation
//! compares both models on the planned circuits: the per-connection
//! optimum scored under sharing, versus the sharing-aware optimum.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin sharing [circuit ...]
//! ```

use lacr_core::planner::{plan_constraints, try_build_physical_plan};
use lacr_retime::{shared_min_area_retiming, shared_register_count, weighted_min_area_retiming};

fn main() {
    let mut circuits: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut circuits);
    if circuits.is_empty() {
        circuits = vec!["s344".into(), "s641".into(), "s953".into()];
    }
    let config = lacr_bench::experiment_planner();
    println!(
        "{:<8} | {:>10} {:>13} | {:>10} {:>13} | {:>7}",
        "circuit", "sum N_F", "scored shared", "shared N_F", "shared regs", "saving"
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
        let pc =
            plan_constraints(&plan, plan.t_clk).expect("path delay accumulation overflowed u64");
        let graph = &plan.expanded.graph;
        let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
        let sum_opt = match weighted_min_area_retiming(graph, &pc, &areas) {
            Ok(o) => o,
            Err(e) => {
                lacr_obs::diag!("{name}: {e}");
                continue;
            }
        };
        let shared_opt = match shared_min_area_retiming(graph, &pc, &areas) {
            Ok(o) => o,
            Err(e) => {
                lacr_obs::diag!("{name}: {e}");
                continue;
            }
        };
        let scored = shared_register_count(graph, &sum_opt.weights);
        let saving = 100.0 * (scored - shared_opt.shared_registers) as f64 / scored.max(1) as f64;
        println!(
            "{name:<8} | {:>10} {:>13} | {:>10} {:>13} | {saving:>6.1}%",
            sum_opt.total_flops,
            scored,
            shared_opt.outcome.total_flops,
            shared_opt.shared_registers,
        );
    }
}
