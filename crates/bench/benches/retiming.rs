//! Wall-clock benchmarks of the retiming kernels that produce Table 1:
//! constraint generation, min-period retiming, one weighted min-area
//! solve, and the full LAC loop, on a planned mid-size circuit; and the
//! LAC loop on a circuit whose round reaches the flip-flop legaliser's
//! beam search.

use lacr_core::lac::{lac_retiming, LacConfig};
use lacr_core::planner::{plan_constraints, try_build_physical_plan};
use lacr_netlist::bench89;
use lacr_prng::bench::Harness;
use lacr_retime::{
    generate_period_constraints, try_min_period_retiming, weighted_min_area_retiming, WdSubstrate,
};

fn bench_retiming(c: &mut Harness) {
    let config = lacr_bench::quick_planner();
    let circuit = bench89::generate("s344").expect("known circuit");
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
    let pc = plan_constraints(&plan, plan.t_clk).expect("path delay accumulation overflowed u64");
    let graph = &plan.expanded.graph;
    let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();

    let mut g = c.benchmark_group("retiming_s344");
    g.sample_size(10);
    g.bench_function("constraint_generation", |b| {
        b.iter(|| generate_period_constraints(graph, plan.t_clk).expect("no overflow"))
    });
    // Substrate amortisation: one W/D build serving a probe (what each
    // binary-search step costs after the first).
    let substrate = WdSubstrate::build(graph, plan.t_min, plan.t_init).expect("no overflow");
    g.bench_function("constraint_reemission_from_substrate", |b| {
        b.iter(|| substrate.constraints_for(plan.t_clk))
    });
    g.bench_function("min_period", |b| {
        b.iter(|| try_min_period_retiming(graph, 0).unwrap())
    });
    g.bench_function("min_area_single_solve", |b| {
        b.iter(|| weighted_min_area_retiming(graph, &pc, &areas).expect("feasible"))
    });
    g.bench_function("lac_full_loop", |b| {
        b.iter(|| {
            lac_retiming(graph, &pc, &plan.expanded.caps_ff, &LacConfig::default())
                .expect("feasible")
        })
    });
    g.finish();
}

/// s344 plans in one LAC round without a single slide attempt. s526 at
/// the experiment settings also plans in one round, but its legaliser
/// expands 21 beam states and offers 8,315 chain slides.
fn bench_legaliser(c: &mut Harness) {
    let config = lacr_bench::experiment_planner();
    let circuit = bench89::generate("s526").expect("known circuit");
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
    let pc = plan_constraints(&plan, plan.t_clk).expect("path delay accumulation overflowed u64");
    let graph = &plan.expanded.graph;

    let mut g = c.benchmark_group("retiming_s526");
    g.sample_size(10);
    g.bench_function("lac_full_loop", |b| {
        b.iter(|| lac_retiming(graph, &pc, &plan.expanded.caps_ff, &config.lac).expect("feasible"))
    });
    g.finish();
}

lacr_prng::bench_group!(benches, bench_retiming, bench_legaliser);
lacr_prng::bench_main!(benches);
