//! Stress run on `s5378` (≈2 800 units — the largest ISCAS89 circuit the
//! paper's generation handles), with large-circuit settings: a 2 %
//! `T_min` search tolerance and a tighter LAC round budget.
//!
//! Writes a machine-readable perf record to `BENCH_stress.json` (stage
//! timings come from the observability report when a sink is installed).
//!
//! ```text
//! cargo run --release -p lacr-bench --bin stress \
//!     [--quiet] [--trace] [--metrics-out m.jsonl] [circuit]
//! ```

use lacr_bench::{write_bench_record, ObsOptions};
use lacr_core::lac::LacConfig;
use lacr_core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    ObsOptions::install_from_args(&mut args);
    let name = args.first().cloned().unwrap_or_else(|| "s5378".into());
    let config = PlannerConfig {
        t_min_tolerance_frac: 0.02,
        lac: LacConfig {
            n_max: 3,
            max_rounds: 12,
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    let circuit = match lacr_netlist::bench89::generate(&name) {
        Ok(c) => c,
        Err(e) => {
            lacr_obs::diag!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "{name}: {} units, {} flops — planning with 2% T_min tolerance...",
        circuit.num_units(),
        circuit.num_flops()
    );
    let t0 = Instant::now();
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
    let plan_s = t0.elapsed().as_secs_f64();
    println!(
        "physical plan in {:?}: V={} E={} wires={} repeaters={}",
        t0.elapsed(),
        plan.expanded.graph.num_vertices(),
        plan.expanded.graph.num_edges(),
        plan.expanded.num_interconnect_units,
        plan.expanded.num_repeaters
    );
    println!(
        "T_init {:.2} ns, T_min ≤ {:.2} ns, T_clk {:.2} ns",
        plan.t_init as f64 / 1000.0,
        plan.t_min as f64 / 1000.0,
        plan.t_clk as f64 / 1000.0
    );
    let t1 = Instant::now();
    let mut retime_fields = String::new();
    match try_plan_retimings(&plan, &config) {
        Ok(report) => {
            println!(
                "retimings in {:?}: baseline N_FOA {} | LAC N_FOA {} (N_wr {}, N_F {}, N_FN {})",
                t1.elapsed(),
                report.min_area.result.n_foa,
                report.lac.result.n_foa,
                report.lac.result.n_wr,
                report.lac.result.n_f,
                report.lac.result.n_fn,
            );
            retime_fields = format!(
                ",\"base_n_foa\":{},\"lac_n_foa\":{},\"n_wr\":{}",
                report.min_area.result.n_foa, report.lac.result.n_foa, report.lac.result.n_wr
            );
        }
        Err(e) => lacr_obs::diag!("retiming failed: {e}"),
    }
    println!("total {:?}", t0.elapsed());
    match write_bench_record(
        "stress",
        &[
            ("circuit", format!("\"{name}\"")),
            ("wall_s", format!("{:.3}", t0.elapsed().as_secs_f64())),
            (
                "stages",
                format!(
                    "{{\"plan_s\":{plan_s:.3},\"retime_s\":{:.3}{retime_fields}}}",
                    t1.elapsed().as_secs_f64()
                ),
            ),
        ],
    ) {
        Ok(path) => lacr_obs::diag!("perf record written to {path}"),
        Err(e) => lacr_obs::diag!("cannot write perf record: {e}"),
    }
    lacr_obs::finish();
}
