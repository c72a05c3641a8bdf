//! Stress run on `s5378` (≈2 800 units — the largest ISCAS89 circuit the
//! paper's generation handles), with an exact `T_min` search and a
//! tighter LAC round budget.
//!
//! Writes a machine-readable perf record to `BENCH_stress.json`: one
//! `circuits` entry with stage timings, the circuit's allocator peak and
//! a `quality` block (`t_min_ns`, `t_clk_ns`, `base_n_foa`, `lac_n_foa`,
//! `n_wr`), so `bench_compare` gates it like a Table-1 run.
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
        "{name}: {} units, {} flops — planning...",
        circuit.num_units(),
        circuit.num_flops()
    );
    let mem_before = lacr_obs::mem::stats();
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
        "T_init {:.2} ns, T_min {:.2} ns, T_clk {:.2} ns",
        plan.t_init as f64 / 1000.0,
        plan.t_min as f64 / 1000.0,
        plan.t_clk as f64 / 1000.0
    );
    let mut quality = format!(
        "\"t_min_ns\":{:.3},\"t_clk_ns\":{:.3}",
        plan.t_min as f64 / 1000.0,
        plan.t_clk as f64 / 1000.0
    );
    let t1 = Instant::now();
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
            quality.push_str(&format!(
                ",\"base_n_foa\":{},\"lac_n_foa\":{},\"n_wr\":{}",
                report.min_area.result.n_foa, report.lac.result.n_foa, report.lac.result.n_wr
            ));
        }
        Err(e) => lacr_obs::diag!("retiming failed: {e}"),
    }
    let retime_s = t1.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    println!("total {:?}", t0.elapsed());
    let mem = lacr_obs::mem::stats();
    let entry = format!(
        "{{\"circuit\":\"{name}\",\"wall_s\":{wall_s:.3},\"plan_s\":{plan_s:.3},\
         \"retime_s\":{retime_s:.3},\"vertices\":{},\"edges\":{},\
         \"mem\":{{\"peak_bytes\":{},\"net_bytes\":{},\"allocs\":{}}},\"quality\":{{{quality}}}}}",
        plan.expanded.graph.num_vertices(),
        plan.expanded.graph.num_edges(),
        mem.peak_bytes,
        mem.live_bytes as i64 - mem_before.live_bytes as i64,
        mem.allocs - mem_before.allocs,
    );
    match write_bench_record(
        "stress",
        &[
            ("wall_s", format!("{wall_s:.3}")),
            ("circuits", format!("[{entry}]")),
        ],
    ) {
        Ok(path) => lacr_obs::diag!("perf record written to {path}"),
        Err(e) => lacr_obs::diag!("cannot write perf record: {e}"),
    }
    lacr_obs::finish();
}
