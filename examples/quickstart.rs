//! Quickstart: plan one benchmark circuit and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lacr::core::experiment::run_circuit;
use lacr::core::planner::PlannerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let row = run_circuit("s344", &PlannerConfig::default())?;

    println!("circuit          : {}", row.circuit);
    println!(
        "T_init           : {:.2} ns (before any retiming)",
        row.t_init_ns
    );
    println!(
        "T_min            : {:.2} ns (best any retiming can do)",
        row.t_min_ns
    );
    println!(
        "T_clk            : {:.2} ns (target: T_min + 20% of the gap)",
        row.t_clk_ns
    );
    println!();
    println!(
        "min-area retiming: N_FOA = {:<4} N_F = {:<4} N_FN = {:<4} ({:.2?})",
        row.min_area.n_foa, row.min_area.n_f, row.min_area.n_fn, row.min_area.t_exec
    );
    println!(
        "LAC-retiming     : N_FOA = {:<4} N_F = {:<4} N_FN = {:<4} ({:.2?}, {} weighted rounds)",
        row.lac.n_foa, row.lac.n_f, row.lac.n_fn, row.lac.t_exec, row.n_wr
    );
    match row.decrease_pct {
        Some(p) => println!("violation decrease: {p:.0}%"),
        None => println!("violation decrease: baseline already met every local area constraint"),
    }
    match row.second_iteration {
        Some(Ok(n)) => println!("second planning iteration: N_FOA = {n}"),
        Some(Err(e)) => println!("second planning iteration failed: {e}"),
        None => println!("no second planning iteration needed"),
    }
    Ok(())
}
