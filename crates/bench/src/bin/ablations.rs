//! The ablations of the design choices the paper calls out, one mode
//! each:
//!
//! | mode | ablation | default circuits |
//! |------|----------|------------------|
//! | `alpha` | A1: the α coefficient of the LAC weight update (§4.2) | s1196 s1423 |
//! | `nmax` | A2: the `N_max` convergence patience (§4.2) | s1196 s1269 |
//! | `subseg` | A3: interconnect sub-segmentation (§3.2) | s953 s1196 |
//! | `pruning` | A4: the W/D constraint reduction (§5) | s641 s953 s1196 |
//! | `sharing` | A5 (extension): fanout register sharing | s344 s641 s953 |
//!
//! ```text
//! cargo run --release -p lacr-bench --bin ablations -- \
//!     <alpha|nmax|subseg|pruning|sharing> [--quiet] [--threads N] [circuit ...]
//! ```
//!
//! Every mode plans each circuit with the default `PlannerConfig` (A3
//! also with its finer expansions) and prints one table. An unknown mode
//! or circuit exits 2, with a usage line, before anything is planned.

use lacr_core::expand::ExpandOptions;
use lacr_core::experiment::check_circuits;
use lacr_core::lac::{lac_retiming, LacConfig};
use lacr_core::planner::{
    try_build_physical_plan, try_plan_retimings, PhysicalPlan, PlannerConfig,
};
use lacr_netlist::Circuit;
use lacr_retime::{
    generate_period_constraints, shared_min_area_retiming, shared_register_count,
    weighted_min_area_retiming, PeriodConstraints, RetimeGraph,
};
use std::time::Instant;

/// One ablation: its mode name, its default circuits, its table header
/// and the rows it prints for one circuit and its default plan.
struct Ablation {
    name: &'static str,
    circuits: &'static [&'static str],
    header: &'static str,
    rows: fn(&str, &Circuit, &PhysicalPlan, &PlannerConfig),
}

const ABLATIONS: &[Ablation] = &[
    Ablation {
        name: "alpha",
        circuits: &["s1196", "s1423"],
        header: "circuit  alpha |  N_FOA  N_wr   N_F",
        rows: alpha,
    },
    Ablation {
        name: "nmax",
        circuits: &["s1196", "s1269"],
        header: "circuit  N_max |  N_FOA  N_wr   N_F       t/s",
        rows: nmax,
    },
    Ablation {
        name: "subseg",
        circuits: &["s953", "s1196"],
        header: "circuit   subs       delays | vertices   Tmin/ns   Tclk/ns |   base    lac",
        rows: subseg,
    },
    Ablation {
        name: "pruning",
        circuits: &["s641", "s953", "s1196"],
        header: "circuit  |      pairs    emitted  kept% | build t/s solve t/s |   N_F",
        rows: pruning,
    },
    Ablation {
        name: "sharing",
        circuits: &["s344", "s641", "s953"],
        header: "circuit  |    sum N_F scored shared | shared N_F   shared regs |  saving",
        rows: sharing,
    },
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut args);
    let Some(mode) = args.first() else {
        usage_exit("no mode given")
    };
    let Some(ablation) = ABLATIONS.iter().find(|a| a.name == mode) else {
        usage_exit(&format!("unknown mode {mode:?}"))
    };
    let mut circuits = args.split_off(1);
    if circuits.is_empty() {
        circuits = ablation.circuits.iter().map(|&c| c.to_string()).collect();
    }
    if let Err(e) = check_circuits(&circuits) {
        usage_exit(&e.to_string());
    }
    let config = PlannerConfig::default();
    println!("{}", ablation.header);
    for name in &circuits {
        let circuit = lacr_netlist::bench89::generate(name).expect("checked above");
        let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
        (ablation.rows)(name, &circuit, &plan, &config);
    }
}

fn usage_exit(problem: &str) -> ! {
    let modes: Vec<&str> = ABLATIONS.iter().map(|a| a.name).collect();
    eprintln!("ablations: {problem}");
    eprintln!("usage: ablations <{}> [circuit ...]", modes.join("|"));
    std::process::exit(2)
}

/// A1. The paper reports that "a value of around 0.2 typically produces
/// the best results" (§4.2).
fn alpha(name: &str, _: &Circuit, plan: &PhysicalPlan, config: &PlannerConfig) {
    let lac = &config.lac;
    let settings = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        .map(|alpha| (format!("{alpha:>5.1}"), LacConfig { alpha, ..*lac }));
    lac_sweep(name, plan, &settings, false);
}

/// A2. The LAC loop stops "when there is no improvement after some
/// pre-specified number (`N_max`) of consecutive iterations" (§4.2);
/// this shows the knob's quality/run-time trade-off.
fn nmax(name: &str, _: &Circuit, plan: &PhysicalPlan, config: &PlannerConfig) {
    let lac = &config.lac;
    let settings =
        [1, 2, 5, 10, 20].map(|n_max| (format!("{n_max:>5}"), LacConfig { n_max, ..*lac }));
    lac_sweep(name, plan, &settings, true);
}

/// Reruns only the LAC loop on the plan at its `T_clk`, once per labelled
/// setting: `N_FOA`, `N_wr`, `N_F` and, when `timed`, the loop's seconds.
fn lac_sweep(name: &str, plan: &PhysicalPlan, settings: &[(String, LacConfig)], timed: bool) {
    let pc = constraints_at_t_clk(plan);
    for (label, lac) in settings {
        let t0 = Instant::now();
        match lac_retiming(&plan.expanded.graph, &pc, &plan.expanded.caps_ff, lac) {
            Ok(res) => {
                let secs = t0.elapsed().as_secs_f64();
                let time = if timed {
                    format!(" {secs:>9.2}")
                } else {
                    String::new()
                };
                println!(
                    "{name:<8} {label} | {:>6} {:>5} {:>5}{time}",
                    res.n_foa, res.n_wr, res.n_f
                );
            }
            Err(e) => println!("{name:<8} {label} | error: {e}"),
        }
    }
}

/// A3. Finer interconnect units add retiming flexibility, but each unit
/// takes the segment's worst delay, and "the accuracy of interconnect
/// delay is sacrificed" (§3.2). The default expansion (one unit per
/// repeater span, exact delays) against two and four conservative units.
fn subseg(name: &str, circuit: &Circuit, plan: &PhysicalPlan, config: &PlannerConfig) {
    subseg_row(name, plan, config);
    for units_per_span in [2, 4] {
        let config = PlannerConfig {
            expand: ExpandOptions {
                units_per_span,
                conservative_delays: true,
                ..config.expand
            },
            ..config.clone()
        };
        let plan = try_build_physical_plan(circuit, &config, &[]).expect("plan builds");
        subseg_row(name, &plan, &config);
    }
}

fn subseg_row(name: &str, plan: &PhysicalPlan, config: &PlannerConfig) {
    let subs = config.expand.units_per_span;
    let delays = if config.expand.conservative_delays {
        "conservative"
    } else {
        "exact"
    };
    match try_plan_retimings(plan, config) {
        Ok(report) => println!(
            "{name:<8} {subs:>5} {delays:>12} | {:>8} {:>9.2} {:>9.2} | {:>6} {:>6}",
            plan.expanded.graph.num_vertices(),
            plan.t_min as f64 / 1000.0,
            plan.t_clk as f64 / 1000.0,
            report.min_area.result.n_foa,
            report.lac.result.n_foa,
        ),
        Err(e) => println!("{name:<8} {subs:>5}: error: {e}"),
    }
}

/// A4. The W/D constraint reduction, the paper's main avenue for further
/// run-time improvement (§5): violating pairs against the constraints
/// emitted, both at `T_clk`, with the time of that one build and of the
/// min-area solve on its constraints.
fn pruning(name: &str, _: &Circuit, plan: &PhysicalPlan, _: &PlannerConfig) {
    let graph = &plan.expanded.graph;
    let t0 = Instant::now();
    let pc = match generate_period_constraints(graph, plan.t_clk) {
        Ok(pc) => pc,
        Err(e) => {
            println!("{name:<8} | error: {e}");
            return;
        }
    };
    let build_t = t0.elapsed();
    let kept = if pc.pairs_before_pruning > 0 {
        100.0 * pc.constraints.len() as f64 / pc.pairs_before_pruning as f64
    } else {
        100.0
    };
    let t1 = Instant::now();
    match weighted_min_area_retiming(graph, &pc, &areas(graph)) {
        Ok(out) => println!(
            "{name:<8} | {:>10} {:>10} {:>6.1} | {:>9.3} {:>9.3} | {:>5}",
            pc.pairs_before_pruning,
            pc.constraints.len(),
            kept,
            build_t.as_secs_f64(),
            t1.elapsed().as_secs_f64(),
            out.total_flops,
        ),
        Err(e) => println!("{name:<8} | error: {e}"),
    }
}

/// A5. The paper's min-area objective counts flip-flops per connection;
/// the Leiserson–Saxe sharing model counts one register chain per
/// driver, `Σ_u max_i w_r(u, v_i)`. The per-connection optimum scored
/// under sharing, against the sharing-aware optimum.
fn sharing(name: &str, _: &Circuit, plan: &PhysicalPlan, _: &PlannerConfig) {
    let pc = constraints_at_t_clk(plan);
    let graph = &plan.expanded.graph;
    let areas = areas(graph);
    let solved = weighted_min_area_retiming(graph, &pc, &areas)
        .and_then(|sum| Ok((sum, shared_min_area_retiming(graph, &pc, &areas)?)));
    let (sum_opt, shared_opt) = match solved {
        Ok(solved) => solved,
        Err(e) => {
            lacr_obs::diag!("{name}: {e}");
            return;
        }
    };
    let scored = shared_register_count(graph, &sum_opt.weights);
    let saving = 100.0 * (scored - shared_opt.shared_registers) as f64 / scored.max(1) as f64;
    println!(
        "{name:<8} | {:>10} {:>13} | {:>10} {:>13} | {saving:>6.1}%",
        sum_opt.total_flops, scored, shared_opt.outcome.total_flops, shared_opt.shared_registers,
    );
}

fn constraints_at_t_clk(plan: &PhysicalPlan) -> PeriodConstraints {
    generate_period_constraints(&plan.expanded.graph, plan.t_clk)
        .expect("path delay accumulation overflowed u64")
}

fn areas(graph: &RetimeGraph) -> Vec<f64> {
    graph.vertex_ids().map(|v| graph.area(v)).collect()
}
