//! `table1`: the paper's ten Table-1 circuits, each planned once per pass
//! (`try_build_physical_plan` + `try_plan_retimings` with the default
//! `PlannerConfig`), in Table-1 order.

use crate::stats::{mean, median};
use crate::{allocs, input_seed, ms_since, setup, traced_phase, Outcome, Run, PLAN_SPANS};
use lacr_core::{
    try_build_physical_plan, try_plan_retimings, PhysicalPlan, PlanReport, PlannerConfig, Stage,
    TileOccupancy,
};
use lacr_netlist::{bench89, Circuit};
use lacr_retime::{verify_retiming, RetimingOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Wall time of one pass on the reference host (2 vCPU, par width 1),
/// 44–64 s as its speed drifts. A run plans
/// `max(1, round(seconds / PASS_S))` passes, so every `--seconds` below
/// 83 plans exactly one.
const PASS_S: f64 = 55.0;

/// The planner configuration for `seed`: the default configuration with
/// its master seed XOR-ed by the input seed, so every seed below 2^32
/// plans the committed Table-1 floorplans. A new planner seed moves a
/// pass by ±13 % and the per-op median by up to 2.5×.
pub fn planner(seed: u64) -> PlannerConfig {
    let default = PlannerConfig::default();
    PlannerConfig {
        seed: default.seed ^ input_seed(seed),
        ..default
    }
}

/// Benchmark timers and API-reported values of one op.
#[derive(Default, Clone, Copy)]
struct Op {
    op_ms: f64,
    build_ms: f64,
    retime_ms: f64,
    minarea_ms: f64,
    lac_ms: f64,
    constraints_ms: f64,
    build_allocs: u64,
    retime_allocs: u64,
    lac_rounds: u64,
    pairs: u64,
    constraints: u64,
    n_foa: u64,
}

/// Re-derives a retiming's legality and period with `verify_retiming`
/// at `target`, and its `N_FOA` from the weights with
/// `TileOccupancy::compute`, against the claimed value.
pub fn check_retiming(
    plan: &PhysicalPlan,
    outcome: &RetimingOutcome,
    target: u64,
    claimed_n_foa: i64,
) -> Result<(), String> {
    let graph = &plan.expanded.graph;
    verify_retiming(graph, outcome, target).map_err(|e| e.to_string())?;
    let recount =
        TileOccupancy::compute(graph, &outcome.weights, &plan.expanded.caps_ff).total_violations();
    if recount != claimed_n_foa {
        return Err(format!(
            "N_FOA reported {claimed_n_foa}, recounted {recount}"
        ));
    }
    Ok(())
}

/// Checks both retimings of a report. Residual LAC violations and
/// routing overflow are legitimate degraded outcomes; a fallback solver,
/// a failed stage, a budget expiry or any re-derived mismatch is a
/// failure.
fn check_report(plan: &PhysicalPlan, report: &PlanReport) -> Result<(), String> {
    if let Some(d) = report
        .degradations
        .iter()
        .chain(&plan.degradations)
        .find(|d| {
            d.stage == Stage::MinArea || d.reason.contains("budget") || d.reason.contains("failed")
        })
    {
        return Err(format!("degraded: {d}"));
    }
    if report.lac.result.timed_out {
        return Err("LAC timed out".into());
    }
    for (which, run) in [("min-area", &report.min_area), ("LAC", &report.lac)] {
        check_retiming(plan, &run.result.outcome, plan.t_clk, run.result.n_foa)
            .map_err(|e| format!("{which}: {e}"))?;
    }
    Ok(())
}

/// The checks must reject a tampered retiming and a misreported `N_FOA`.
fn tamper_probe(plan: &PhysicalPlan, report: &PlanReport) -> Result<(), String> {
    let lac = &report.lac.result;
    let mut bad = lac.outcome.clone();
    bad.weights[0] += 1;
    if check_retiming(plan, &bad, plan.t_clk, lac.n_foa).is_ok() {
        return Err("a tampered retiming passed the checks".into());
    }
    if check_retiming(plan, &lac.outcome, plan.t_clk, lac.n_foa + 1).is_ok() {
        return Err("a misreported N_FOA passed the checks".into());
    }
    Ok(())
}

/// Plans one circuit, timing each public call. `Err` is a failed op.
fn plan_one(circuit: &Circuit, config: &PlannerConfig, probe: bool) -> Result<Op, String> {
    let t = Instant::now();
    let a0 = allocs();
    let plan = try_build_physical_plan(circuit, config, &[]).map_err(|e| e.to_string())?;
    let build_ms = ms_since(t);
    let a1 = allocs();
    let t_retime = Instant::now();
    let report = try_plan_retimings(&plan, config).map_err(|e| e.to_string())?;
    let retime_ms = ms_since(t_retime);
    let op_ms = ms_since(t);
    let a2 = allocs();
    check_report(&plan, &report)?;
    if probe {
        tamper_probe(&plan, &report)?;
    }
    let constraints_ms = report.constraint_time.as_secs_f64() * 1e3;
    Ok(Op {
        op_ms,
        build_ms,
        retime_ms,
        // Both elapsed times include the shared constraint generation.
        minarea_ms: report.min_area.elapsed.as_secs_f64() * 1e3 - constraints_ms,
        lac_ms: report.lac.elapsed.as_secs_f64() * 1e3 - constraints_ms,
        constraints_ms,
        build_allocs: a1 - a0,
        retime_allocs: a2 - a1,
        lac_rounds: report.lac.result.n_wr as u64,
        pairs: report.pairs_before_pruning as u64,
        constraints: report.num_period_constraints as u64,
        n_foa: report.lac.result.n_foa as u64,
    })
}

/// Plans every pass; returns the ops that succeeded, the failure count
/// and the measured wall time in seconds.
fn measure(
    circuits: &[(String, Circuit)],
    config: &PlannerConfig,
    passes: usize,
    problems: &mut Vec<String>,
) -> (Vec<Op>, u64, f64) {
    let t = Instant::now();
    let mut ops = Vec::new();
    let mut failed = 0;
    for pass in 0..passes {
        for (i, (name, circuit)) in circuits.iter().enumerate() {
            let probe = pass == 0 && i == 0;
            match catch_unwind(AssertUnwindSafe(|| plan_one(circuit, config, probe))) {
                Ok(Ok(op)) => {
                    eprintln!("table1 {name}: {:.1} ms", op.op_ms);
                    ops.push(op);
                }
                Ok(Err(e)) => {
                    failed += 1;
                    problems.push(format!("{name}: {e}"));
                }
                Err(_) => {
                    failed += 1;
                    problems.push(format!("{name}: panicked"));
                }
            }
        }
    }
    (ops, failed, t.elapsed().as_secs_f64())
}

pub fn run(run: &Run) -> Outcome {
    let (circuits, setup_s) = setup(|| {
        bench89::table1_circuits()
            .into_iter()
            .map(|n| {
                let c = bench89::generate(n).expect("a Table-1 circuit");
                (n.to_string(), c)
            })
            .collect::<Vec<_>>()
    });
    let config = planner(run.seed);
    let passes = ((run.seconds / PASS_S).round() as usize).max(1);
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let (ops, failed, wall_s) = measure(&circuits, &config, passes, &mut out.problems);
    out.attempted = (circuits.len() * passes) as u64;
    out.failed = failed;
    let ops_per_s = ops.len() as f64 / wall_s;
    let col = |f: fn(&Op) -> f64| ops.iter().map(f).collect::<Vec<f64>>();
    out.metrics.add("ops_per_s", ops_per_s);
    out.metrics.add("latency_p50_ms", median(&col(|o| o.op_ms)));

    let sum = |f: fn(&Op) -> u64| ops.iter().map(f).sum::<u64>();
    out.counts = vec![
        ("core.build_allocs", sum(|o| o.build_allocs)),
        ("core.retime_allocs", sum(|o| o.retime_allocs)),
        ("core.lac_rounds", sum(|o| o.lac_rounds)),
        ("retime.pairs", sum(|o| o.pairs)),
        ("retime.constraints", sum(|o| o.constraints)),
        ("core.n_foa", sum(|o| o.n_foa)),
    ];
    let l = &mut out.metrics;
    l.add("samples", ops.len() as f64);
    l.add("core.build_ms", mean(&col(|o| o.build_ms)));
    l.add("core.retime_ms", mean(&col(|o| o.retime_ms)));
    l.add("retime.minarea_ms", mean(&col(|o| o.minarea_ms)));
    l.add("core.lac_ms", mean(&col(|o| o.lac_ms)));
    l.add("retime.constraints_ms", mean(&col(|o| o.constraints_ms)));

    if run.trace {
        out.metrics.extend(traced_phase(ops_per_s, PLAN_SPANS, || {
            let (traced, _, secs) = measure(&circuits, &config, passes, &mut Vec::new());
            (traced.len() as f64 / secs, traced.len())
        }));
    }
    out
}
