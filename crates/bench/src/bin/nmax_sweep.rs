//! Ablation **A2**: sweep the LAC convergence patience `N_max`.
//!
//! The LAC loop "terminates either when all local area constraints are met
//! or when there is no improvement after some pre-specified number
//! (`N_max`) of consecutive iterations" (§4.2). This sweep shows the
//! quality/run-time trade-off of that knob.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin nmax_sweep [circuit ...]
//! ```

use lacr_core::lac::{lac_retiming, LacConfig};
use lacr_core::planner::{plan_constraints, try_build_physical_plan};
use std::time::Instant;

fn main() {
    let mut circuits: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut circuits);
    if circuits.is_empty() {
        circuits = vec!["s1196".into(), "s1269".into()];
    }
    let config = lacr_bench::experiment_planner();
    let patience = [1usize, 2, 5, 10, 20];
    println!(
        "{:<8} {:>5} | {:>6} {:>5} {:>5} {:>9}",
        "circuit", "N_max", "N_FOA", "N_wr", "N_F", "t/s"
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
        for &n_max in &patience {
            let lac_cfg = LacConfig {
                n_max,
                ..config.lac
            };
            let t0 = Instant::now();
            match lac_retiming(&plan.expanded.graph, &pc, &plan.expanded.caps_ff, &lac_cfg) {
                Ok(res) => println!(
                    "{name:<8} {n_max:>5} | {:>6} {:>5} {:>5} {:>9.2}",
                    res.n_foa,
                    res.n_wr,
                    res.n_f,
                    t0.elapsed().as_secs_f64()
                ),
                Err(e) => println!("{name:<8} {n_max:>5} | error: {e}"),
            }
        }
    }
}
