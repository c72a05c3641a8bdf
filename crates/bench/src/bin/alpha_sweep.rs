//! Ablation **A1**: sweep the LAC weight-update coefficient α.
//!
//! The paper reports that "a value of around 0.2 typically produces the
//! best results" (§4.2). This sweep fixes the physical plan and target
//! period and reruns only the LAC loop per α, reporting `N_FOA`, `N_wr`
//! and the flip-flop count.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin alpha_sweep [circuit ...]
//! ```

use lacr_core::lac::{lac_retiming, LacConfig};
use lacr_core::planner::{plan_constraints, try_build_physical_plan};

fn main() {
    let mut circuits: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut circuits);
    if circuits.is_empty() {
        circuits = vec!["s1196".into(), "s1423".into()];
    }
    let config = lacr_bench::experiment_planner();
    let alphas = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    println!(
        "{:<8} {:>5} | {:>6} {:>5} {:>5}",
        "circuit", "alpha", "N_FOA", "N_wr", "N_F"
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
        for &alpha in &alphas {
            let lac_cfg = LacConfig {
                alpha,
                ..config.lac
            };
            match lac_retiming(&plan.expanded.graph, &pc, &plan.expanded.caps_ff, &lac_cfg) {
                Ok(res) => println!(
                    "{name:<8} {alpha:>5.1} | {:>6} {:>5} {:>5}",
                    res.n_foa, res.n_wr, res.n_f
                ),
                Err(e) => println!("{name:<8} {alpha:>5.1} | error: {e}"),
            }
        }
    }
}
