//! Wall-clock benchmark of the end-to-end interconnect-planning pipeline
//! (one full Table-1 cell: physical plan plus both retimers) on the
//! smallest benchmark circuit.

use lacr_core::planner::{try_build_physical_plan, try_plan_retimings};
use lacr_netlist::bench89;
use lacr_prng::bench::Harness;

fn bench_planning(c: &mut Harness) {
    let config = lacr_bench::quick_planner();
    let circuit = bench89::generate("s344").expect("known circuit");

    let mut g = c.benchmark_group("planning_s344");
    g.sample_size(10);
    g.bench_function("physical_plan", |b| {
        b.iter(|| try_build_physical_plan(&circuit, &config, &[]).expect("plan builds"))
    });
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
    g.bench_function("both_retimers", |b| {
        b.iter(|| try_plan_retimings(&plan, &config).expect("feasible"))
    });
    g.finish();
}

lacr_prng::bench_group!(benches, bench_planning);
lacr_prng::bench_main!(benches);
