//! The Table-1 experiment driver (§5).
//!
//! For every benchmark circuit: floorplan, route and insert repeaters;
//! measure `T_init`; compute `T_min` by min-period retiming; set
//! `T_clk = T_min + 0.2 (T_init − T_min)`; run min-area retiming and
//! LAC-retiming at `T_clk` and report `N_FOA`, `N_F`, `N_FN`, `N_wr` and
//! execution times, plus the second planning iteration's `N_FOA` for
//! circuits whose violations could not be removed in one pass.

use crate::error::PlanError;
use crate::planner::{try_plan_with_iterations, IteratedPlan, PlanReport, PlannerConfig};
use lacr_netlist::bench89;
use std::fmt::Write as _;
use std::time::Duration;

/// Metrics of one retimer on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct RetimerMetrics {
    /// Flip-flops violating local area constraints.
    pub n_foa: i64,
    /// Total flip-flops.
    pub n_f: i64,
    /// Flip-flops inserted into interconnects.
    pub n_fn: i64,
    /// Wall-clock execution time.
    pub t_exec: Duration,
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Circuit name.
    pub circuit: String,
    /// Target clock period (ns).
    pub t_clk_ns: f64,
    /// Initial (pre-retiming) period (ns).
    pub t_init_ns: f64,
    /// Minimum achievable period (ns) — not a paper column, but useful.
    pub t_min_ns: f64,
    /// Min-area retiming metrics.
    pub min_area: RetimerMetrics,
    /// LAC-retiming metrics.
    pub lac: RetimerMetrics,
    /// Weighted min-area retimings the LAC loop performed (`N_wr`).
    pub n_wr: usize,
    /// `N_FOA` decrease from min-area to LAC, percent (`None` when the
    /// baseline had no violations).
    pub decrease_pct: Option<f64>,
    /// Second-iteration `N_FOA` when the first left violations:
    /// `Some(Ok(n))`, or `Some(Err(_))` with the stage that failed, as
    /// when the frozen target period became infeasible after floorplan
    /// expansion (the paper's s1269).
    pub second_iteration: Option<Result<i64, PlanError>>,
    /// `N_FOA` after each weighted re-retiming round of the LAC loop
    /// (the convergence trajectory; its length tracks `n_wr`).
    pub n_foa_trajectory: Vec<i64>,
    /// FNV-1a 64 of the first iteration's min-area and LAC retimed edge
    /// weights: two rows with equal digests planned the same retimings.
    pub plan_digest: u64,
}

/// Runs the experiment for one circuit.
///
/// # Errors
///
/// Returns the first planning iteration's [`PlanError`] (should not
/// happen: `T_clk ≥ T_min` by construction), or a boxed error for
/// unknown benchmark names.
pub fn run_circuit(
    name: &str,
    config: &PlannerConfig,
) -> Result<TableRow, Box<dyn std::error::Error>> {
    let circuit = bench89::generate(name)?;
    let iterated = try_plan_with_iterations(&circuit, config)?;
    Ok(table_row(name, &iterated))
}

/// The Table-1 row of one circuit's iterated plan.
pub fn table_row(name: &str, iterated: &IteratedPlan) -> TableRow {
    let (plan, report) = &iterated.first;
    TableRow {
        circuit: name.to_string(),
        t_clk_ns: plan.t_clk as f64 / 1000.0,
        t_init_ns: plan.t_init as f64 / 1000.0,
        t_min_ns: plan.t_min as f64 / 1000.0,
        min_area: RetimerMetrics {
            n_foa: report.min_area.result.n_foa,
            n_f: report.min_area.result.n_f,
            n_fn: report.min_area.result.n_fn,
            t_exec: report.min_area.elapsed,
        },
        lac: RetimerMetrics {
            n_foa: report.lac.result.n_foa,
            n_f: report.lac.result.n_f,
            n_fn: report.lac.result.n_fn,
            t_exec: report.lac.elapsed,
        },
        n_wr: report.lac.result.n_wr,
        decrease_pct: report.n_foa_decrease_pct(),
        second_iteration: iterated.second_n_foa.clone(),
        n_foa_trajectory: report.lac.result.history.clone(),
        plan_digest: plan_digest(report),
    }
}

/// FNV-1a 64 over the little-endian bytes of the min-area, then the LAC,
/// retimed edge weights.
fn plan_digest(report: &PlanReport) -> u64 {
    let min_area = &report.min_area.result.outcome.weights;
    let lac = &report.lac.result.outcome.weights;
    lacr_obs::fnv1a64(min_area.iter().chain(lac).flat_map(|w| w.to_le_bytes()))
}

/// Checks that every requested circuit names a benchmark, before anything
/// is planned.
///
/// # Errors
///
/// The first unknown name.
pub fn check_circuits(names: &[String]) -> Result<(), bench89::UnknownBenchmarkError> {
    let suite = bench89::suite();
    match names.iter().find(|n| !suite.contains(&n.as_str())) {
        Some(name) => Err(bench89::UnknownBenchmarkError { name: name.clone() }),
        None => Ok(()),
    }
}

/// Formats rows as the paper's Table 1 (plain text).
pub fn format_table(rows: &[TableRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>7} {:>8} | {:>6} {:>5} {:>5} {:>8} | {:>6} {:>5} {:>5} {:>4} {:>8} | {:>7}",
        "circuit",
        "Tclk/ns",
        "Tinit/ns",
        "N_FOA",
        "N_F",
        "N_FN",
        "Texec/s",
        "N_FOA",
        "N_F",
        "N_FN",
        "N_wr",
        "Texec/s",
        "Decr."
    );
    let _ = writeln!(
        s,
        "{:<8} {:>7} {:>8} | {:^33} | {:^40} | {:>7}",
        "", "", "", "Min-Area Retiming", "LAC-Retiming", ""
    );
    let mut base_sum = 0i64;
    let mut lac_sum = 0i64;
    for r in rows {
        let foa2 = match &r.second_iteration {
            None => String::new(),
            Some(Ok(n)) => format!(" ({n})"),
            Some(Err(_)) => " (N/A)".to_string(),
        };
        let decr = match r.decrease_pct {
            Some(p) => format!("{p:.0}%"),
            None => "-".to_string(),
        };
        base_sum += r.min_area.n_foa;
        lac_sum += r.lac.n_foa;
        let _ = writeln!(
            s,
            "{:<8} {:>7.2} {:>8.2} | {:>6} {:>5} {:>5} {:>8.3} | {:>6} {:>5} {:>5} {:>4} {:>8.3} | {:>7}",
            r.circuit,
            r.t_clk_ns,
            r.t_init_ns,
            r.min_area.n_foa,
            r.min_area.n_f,
            r.min_area.n_fn,
            r.min_area.t_exec.as_secs_f64(),
            format!("{}{foa2}", r.lac.n_foa),
            r.lac.n_f,
            r.lac.n_fn,
            r.n_wr,
            r.lac.t_exec.as_secs_f64(),
            decr,
        );
    }
    let avg = average_decrease_pct(rows);
    let _ = writeln!(
        s,
        "{:<8} total baseline N_FOA = {base_sum}, total LAC N_FOA = {lac_sum}, average decrease = {}",
        "Average",
        match avg {
            Some(p) => format!("{p:.0}%"),
            None => "-".to_string(),
        }
    );
    s
}

/// Mean of the per-circuit decrease percentages (over circuits where the
/// baseline had violations), the paper's "84% on the average".
pub fn average_decrease_pct(rows: &[TableRow]) -> Option<f64> {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r.decrease_pct).collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_floorplan::anneal::FloorplanConfig;

    fn quick() -> PlannerConfig {
        PlannerConfig {
            floorplan: FloorplanConfig {
                moves: 800,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn single_circuit_row_is_sane() {
        let row = run_circuit("s344", &quick()).expect("s344 plans");
        assert!(row.t_clk_ns <= row.t_init_ns);
        assert!(row.t_min_ns <= row.t_clk_ns);
        assert!(row.lac.n_foa <= row.min_area.n_foa);
        assert!(row.lac.n_f >= 0 && row.min_area.n_f >= 0);
        assert!(row.n_wr >= 1);
        // The convergence trajectory exists and its best round is the
        // reported N_FOA (the loop keeps the best-seen result).
        assert!(!row.n_foa_trajectory.is_empty());
        assert_eq!(
            row.n_foa_trajectory.iter().copied().min(),
            Some(row.lac.n_foa)
        );
    }

    #[test]
    fn table_formatting_contains_rows() {
        let row = run_circuit("s344", &quick()).expect("s344 plans");
        let txt = format_table(&[row]);
        assert!(txt.contains("s344"));
        assert!(txt.contains("LAC-Retiming"));
    }

    #[test]
    fn average_decrease_ignores_clean_baselines() {
        assert_eq!(average_decrease_pct(&[]), None);
    }
}
