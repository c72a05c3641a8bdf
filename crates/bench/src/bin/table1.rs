//! Regenerates the paper's **Table 1**: for each benchmark circuit, the
//! clock targets and the min-area vs LAC-retiming comparison
//! (`N_FOA`, `N_F`, `N_FN`, `N_wr`, execution times, `N_FOA` decrease, and
//! the second planning iteration's `N_FOA` in parentheses).
//!
//! Also writes two machine-readable perf records: `BENCH_table1.json`
//! (the historical shape — wall-clock plus per-circuit entries with
//! observability aggregates) and `RUN_table1.json`, whose per-circuit
//! `quality` blocks carry the solution-quality metrics the
//! `bench_compare` regression gate diffs. A `NullSink` collector is
//! installed when no explicit sink is requested, so the quality gauges
//! and histograms are aggregated (cheaply) on every run.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin table1 \
//!     [--quiet] [--trace] [--metrics-out m.jsonl] [circuit ...]
//! ```

use lacr_bench::{quality_json, write_bench_record, write_run_record, ObsOptions};
use lacr_core::experiment::{check_circuits, format_table, run_circuit};
use lacr_core::planner::PlannerConfig;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    ObsOptions::install_from_args(&mut args);
    if !lacr_obs::is_enabled() {
        // No sink requested: aggregate quietly so the RUN record still
        // gets its quality blocks.
        lacr_obs::init(Box::new(lacr_obs::NullSink));
    }
    let mut circuits = args;
    if circuits.is_empty() {
        circuits = lacr_netlist::bench89::table1_circuits()
            .into_iter()
            .map(String::from)
            .collect();
    }
    if let Err(e) = check_circuits(&circuits) {
        eprintln!("table1: {e}");
        std::process::exit(2);
    }
    lacr_obs::diag!(
        "table1: planning {} circuits (this reruns the full pipeline per circuit)...",
        circuits.len()
    );
    let t0 = Instant::now();
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    let mut circuit_records = Vec::new();
    let mut run_records = Vec::new();
    let planner = PlannerConfig::default();
    let mut process_peak = 0;
    for name in &circuits {
        let started = Instant::now();
        // Restart the high-water mark (no parallel region is open here),
        // so each circuit's `peak_bytes` is its own; the replaced marks
        // fold back into the process peak after the loop.
        process_peak = process_peak.max(lacr_obs::mem::reset_peak());
        let mem_before = lacr_obs::mem::stats();
        match run_circuit(name, &planner) {
            Ok(row) => {
                // Per-circuit perf record: reading the aggregates here and
                // resetting them scopes each entry to one circuit's run.
                let report = lacr_obs::take_snapshot();
                let wall_s = started.elapsed().as_secs_f64();
                // Per-circuit memory: the allocator's deltas over this
                // circuit's run, plus its own high-water mark.
                let mem_after = lacr_obs::mem::stats();
                let mem_json = format!(
                    "\"mem\":{{\"peak_bytes\":{},\"net_bytes\":{},\"allocs\":{}}}",
                    mem_after.peak_bytes,
                    mem_after.live_bytes as i64 - mem_before.live_bytes as i64,
                    mem_after.allocs - mem_before.allocs,
                );
                let obs_json = report
                    .as_ref()
                    .map(|r| format!(",\"obs\":{}", r.to_json()))
                    .unwrap_or_default();
                circuit_records.push(format!(
                    "{{\"circuit\":\"{name}\",\"wall_s\":{wall_s:.3},\"t_clk_ns\":{:.2},\
                     \"base_n_foa\":{},\"lac_n_foa\":{},\"n_wr\":{},{mem_json}{obs_json}}}",
                    row.t_clk_ns, row.min_area.n_foa, row.lac.n_foa, row.n_wr,
                ));
                run_records.push(format!(
                    "{{\"circuit\":\"{name}\",\"wall_s\":{wall_s:.3},{mem_json},\"quality\":{}}}",
                    quality_json(&row, report.as_ref()),
                ));
                rows.push(row);
            }
            Err(e) => {
                lacr_obs::diag!("{name}: {e}");
                failed.push(name.as_str());
            }
        }
    }
    lacr_obs::mem::raise_peak(process_peak);
    println!("{}", format_table(&rows));
    if !failed.is_empty() {
        // A partial table must not overwrite the records as if complete.
        eprintln!("table1: no row for {}", failed.join(", "));
        lacr_obs::finish();
        std::process::exit(1);
    }
    println!(
        "shape checks: LAC beats or matches the baseline on every circuit: {}",
        rows.iter().all(|r| r.lac.n_foa <= r.min_area.n_foa)
    );
    let resolved = rows
        .iter()
        .filter(|r| r.lac.n_foa > 0)
        .filter(|r| matches!(r.second_iteration, Some(Ok(0))))
        .count();
    let unresolved = rows.iter().filter(|r| r.lac.n_foa > 0).count();
    println!(
        "second planning iteration resolved {resolved}/{unresolved} circuits that kept violations"
    );
    let wall_s = format!("{:.3}", t0.elapsed().as_secs_f64());
    match write_bench_record(
        "table1",
        &[
            ("wall_s", wall_s.clone()),
            ("circuits", format!("[{}]", circuit_records.join(","))),
        ],
    ) {
        Ok(path) => lacr_obs::diag!("perf record written to {path}"),
        Err(e) => lacr_obs::diag!("cannot write perf record: {e}"),
    }
    match write_run_record(
        "table1",
        &[
            ("wall_s", wall_s),
            ("circuits", format!("[{}]", run_records.join(","))),
        ],
    ) {
        Ok(path) => lacr_obs::diag!("quality run record written to {path}"),
        Err(e) => lacr_obs::diag!("cannot write run record: {e}"),
    }
    lacr_obs::finish();
}
