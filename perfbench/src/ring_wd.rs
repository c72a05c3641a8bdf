//! `ring_wd`: host-free retiming of 4,096-cell `ring_of_rings` netlists,
//! a fresh netlist seed per op. An op is `try_min_period_retiming` →
//! `generate_period_constraints` at the optimum →
//! `weighted_min_area_retiming`.

use crate::stats::{mean, median};
use crate::{allocs, input_seed, ms_since, setup, traced_phase, Outcome, Run};
use lacr_prng::synth::ring_of_rings;
use lacr_retime::{
    generate_period_constraints, try_min_period_retiming, verify_retiming,
    weighted_min_area_retiming, RetimeGraph, RetimingOutcome, VertexKind,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Cells per netlist.
const CELLS: usize = 4096;

/// Wall time of one op on the reference host; a run retimes
/// `max(3, round(seconds / OP_S))` netlists.
const OP_S: f64 = 2.5;

/// The spans a host-free retiming reaches.
const SPANS: &[&str] = &[
    "retime.min_period",
    "par.region",
    "retime.wd_build",
    "retime.minarea_solve",
];

/// The netlist seed of op `k` for an input seed (SplitMix64 of both).
fn net_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64 + 1)
        .wrapping_add(2003);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lowers a synthetic netlist to a host-free retiming graph, as the
/// `bench_scale` campaign does.
fn lower(seed: u64) -> RetimeGraph {
    let net = ring_of_rings(CELLS, seed);
    let mut g = RetimeGraph::new();
    let ids: Vec<_> = net
        .delays_ps
        .iter()
        .map(|&d| g.add_vertex(VertexKind::Functional, d, 1.0, None))
        .collect();
    for e in &net.edges {
        g.add_edge(ids[e.from as usize], ids[e.to as usize], i64::from(e.flops));
    }
    g
}

#[derive(Default, Clone, Copy)]
struct Op {
    op_ms: f64,
    min_period_ms: f64,
    wd_build_ms: f64,
    minarea_ms: f64,
    allocs: u64,
    pairs: u64,
    constraints: u64,
    flops: u64,
}

/// The checks must reject a tampered retiming.
fn tamper_probe(graph: &RetimeGraph, out: &RetimingOutcome, period: u64) -> Result<(), String> {
    let mut bad = out.clone();
    bad.retiming[0] += 1;
    match verify_retiming(graph, &bad, period) {
        Ok(()) => Err("a tampered retiming passed the checks".into()),
        Err(_) => Ok(()),
    }
}

fn retime_one(graph: &RetimeGraph, probe: bool) -> Result<Op, String> {
    let t = Instant::now();
    let a0 = allocs();
    let mp = try_min_period_retiming(graph, 0).map_err(|e| e.to_string())?;
    let min_period_ms = ms_since(t);
    let period = mp.result.period;
    let t_wd = Instant::now();
    let pc = generate_period_constraints(graph, period).map_err(|e| e.to_string())?;
    let wd_build_ms = ms_since(t_wd);
    let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
    let t_ma = Instant::now();
    let out = weighted_min_area_retiming(graph, &pc, &areas).map_err(|e| e.to_string())?;
    let minarea_ms = ms_since(t_ma);
    let op_ms = ms_since(t);
    let op_allocs = allocs() - a0;
    // Independent checks: both retimings are legal and meet the period.
    let weights = graph.retimed_weights(&mp.result.retiming);
    let min_period = RetimingOutcome {
        total_flops: weights.iter().sum(),
        retiming: mp.result.retiming.clone(),
        period,
        weights,
    };
    verify_retiming(graph, &min_period, period).map_err(|e| format!("min-period: {e}"))?;
    verify_retiming(graph, &out, period).map_err(|e| format!("min-area: {e}"))?;
    if out.total_flops > min_period.total_flops {
        return Err(format!(
            "min-area kept {} flip-flops, more than the min-period retiming's {}",
            out.total_flops, min_period.total_flops
        ));
    }
    if probe {
        tamper_probe(graph, &out, period)?;
    }
    Ok(Op {
        op_ms,
        min_period_ms,
        wd_build_ms,
        minarea_ms,
        allocs: op_allocs,
        pairs: pc.pairs_before_pruning as u64,
        constraints: pc.constraints.len() as u64,
        flops: out.total_flops as u64,
    })
}

fn measure(graphs: &[RetimeGraph], problems: &mut Vec<String>) -> (Vec<Op>, u64, f64) {
    let t = Instant::now();
    let mut ops = Vec::new();
    let mut failed = 0;
    for (k, graph) in graphs.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| retime_one(graph, k == 0))) {
            Ok(Ok(op)) => ops.push(op),
            Ok(Err(e)) => {
                failed += 1;
                problems.push(format!("op {k}: {e}"));
            }
            Err(_) => {
                failed += 1;
                problems.push(format!("op {k}: panicked"));
            }
        }
    }
    (ops, failed, t.elapsed().as_secs_f64())
}

pub fn run(run: &Run) -> Outcome {
    let n_ops = ((run.seconds / OP_S).round() as usize).max(3);
    let (graphs, setup_s) = setup(|| {
        (0..n_ops)
            .map(|k| lower(net_seed(input_seed(run.seed), k)))
            .collect::<Vec<_>>()
    });
    let mut out = Outcome {
        setup_s,
        attempted: n_ops as u64,
        ..Outcome::default()
    };
    let (ops, failed, wall_s) = measure(&graphs, &mut out.problems);
    out.failed = failed;
    let ops_per_s = ops.len() as f64 / wall_s;
    let col = |f: fn(&Op) -> f64| ops.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&Op) -> u64| ops.iter().map(f).sum::<u64>();
    out.metrics.add("ops_per_s", ops_per_s);
    out.metrics.add("latency_p50_ms", median(&col(|o| o.op_ms)));
    let (pairs, constraints) = (sum(|o| o.pairs), sum(|o| o.constraints));
    out.counts = vec![
        ("retime.allocs", sum(|o| o.allocs)),
        ("retime.pairs", pairs),
        ("retime.constraints", constraints),
        ("retime.min_area_flops", sum(|o| o.flops)),
    ];
    let l = &mut out.metrics;
    l.add("samples", ops.len() as f64);
    l.add("retime.min_period_ms", mean(&col(|o| o.min_period_ms)));
    l.add("retime.wd_build_ms", mean(&col(|o| o.wd_build_ms)));
    l.add("retime.minarea_ms", mean(&col(|o| o.minarea_ms)));
    l.add(
        "retime.pairs_per_constraint",
        pairs as f64 / constraints.max(1) as f64,
    );

    if run.trace {
        out.metrics.extend(traced_phase(ops_per_s, SPANS, || {
            let (traced, _, secs) = measure(&graphs, &mut Vec::new());
            (traced.len() as f64 / secs, traced.len())
        }));
    }
    out
}
