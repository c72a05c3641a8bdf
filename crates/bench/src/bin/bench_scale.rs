//! The scale campaign: retiming on seeded synthetic netlists far beyond
//! the bench89 suite, proving the sparse W/D substrate and FEAS-probe
//! search hold up at 10^5–10^6 cells.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin bench_scale -- \
//!     [--seed N] [ring:<cells>|mesh:<cells> ...]
//! ```
//!
//! Each spec generates a deterministic abstract netlist
//! ([`lacr_prng::synth`]), lowers it to a host-free [`RetimeGraph`], and
//! runs the full retiming stack under the default (unlimited)
//! [`Budget`]: unretimed period, `try_min_period_retiming`, pruned
//! constraint generation at the optimum, and one
//! `weighted_min_area_retiming` solve. Per-circuit wall times for every
//! stage land in `BENCH_scale.json` alongside a `quality` block
//! (`t_clk_ns`, `min_area_flops`) so the `bench_compare` gate can diff
//! scale artifacts exactly like Table-1 runs — the topology is a pure
//! function of `(spec, seed)`, so quality is bit-identical across runs.
//!
//! With no specs the default campaign runs: three fast-subset sizes (the
//! ones `scripts/verify.sh --regress` regenerates and gates) plus the
//! flagship >= 100k-cell runs recorded in the committed artifact.

use lacr_core::budget::Budget;
use lacr_prng::synth::{pipelined_mesh, ring_of_rings, SynthNetlist};
use lacr_retime::{
    generate_period_constraints, try_min_period_retiming, weighted_min_area_retiming, RetimeGraph,
    VertexKind,
};
use std::time::Instant;

/// Default campaign: fast-subset sizes first (CI regenerates these),
/// then the flagship scale points.
const DEFAULT_SPECS: &[&str] = &[
    "ring:4096",
    "mesh:4096",
    "ring:20000",
    "mesh:102400",
    "ring:100000",
];

fn parse_spec(spec: &str, seed: u64) -> Result<SynthNetlist, String> {
    let (topology, cells) = spec
        .split_once(':')
        .ok_or_else(|| format!("{spec}: expected <topology>:<cells>"))?;
    let cells: usize = cells
        .parse()
        .map_err(|_| format!("{spec}: cell count is not a number"))?;
    match topology {
        "ring" => Ok(ring_of_rings(cells, seed)),
        "mesh" => Ok(pipelined_mesh(cells, seed)),
        other => Err(format!("{other}: unknown topology (ring|mesh)")),
    }
}

/// Lowers an abstract netlist to a host-free retiming graph.
fn lower(net: &SynthNetlist) -> RetimeGraph {
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    lacr_bench::ObsOptions::install_from_args(&mut args);
    if !lacr_obs::is_enabled() {
        lacr_obs::init(Box::new(lacr_obs::NullSink));
    }
    let mut seed = 2003; // the paper's year; any fixed value works
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        args.remove(pos);
        seed = args
            .get(pos)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--seed needs an integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let specs: Vec<String> = if args.is_empty() {
        DEFAULT_SPECS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let budget = Budget::unlimited();
    println!(
        "{:<12} | {:>8} {:>8} | {:>8} {:>8} | {:>10} {:>10} | {:>8} {:>8} {:>8} {:>8}",
        "circuit",
        "cells",
        "edges",
        "T_init",
        "T_min",
        "flops_0",
        "flops_min",
        "gen t/s",
        "mp t/s",
        "wd t/s",
        "ma t/s"
    );
    let t0 = Instant::now();
    let mut records = Vec::new();
    let mut process_peak = 0;
    for spec in &specs {
        let t_gen = Instant::now();
        // Restart the high-water mark (no parallel region is open here),
        // so each point's `peak_bytes` is its own; the replaced marks fold
        // back into the process peak after the loop.
        process_peak = process_peak.max(lacr_obs::mem::reset_peak());
        let mem_before = lacr_obs::mem::stats();
        let net = match parse_spec(spec, seed) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        let graph = lower(&net);
        let gen_s = t_gen.elapsed().as_secs_f64();
        let started = Instant::now();
        let t_init = graph
            .try_clock_period(&graph.weights())
            .expect("synthetic netlists never have combinational cycles");
        let t_mp = Instant::now();
        let mp = try_min_period_retiming(&graph, 0).expect("synthetic netlists retime cleanly");
        let mp_s = t_mp.elapsed().as_secs_f64();
        let t_wd = Instant::now();
        // Host-free searches probe with arrival-time FEAS, so this is
        // the run's single W/D build: the pruned constraint system at
        // the optimum that weighted min-area re-solves.
        let pc = generate_period_constraints(&graph, mp.result.period).expect("no overflow");
        let wd_s = t_wd.elapsed().as_secs_f64();
        let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
        let t_ma = Instant::now();
        let out = weighted_min_area_retiming(&graph, &pc, &areas).expect("optimum is feasible");
        let ma_s = t_ma.elapsed().as_secs_f64();
        let wall_s = started.elapsed().as_secs_f64();
        assert!(!budget.expired(), "{}: blew the default budget", net.name);
        println!(
            "{:<12} | {:>8} {:>8} | {:>8} {:>8} | {:>10} {:>10} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            net.name,
            graph.num_vertices(),
            graph.num_edges(),
            t_init,
            mp.result.period,
            graph.total_flops(),
            out.total_flops,
            gen_s,
            mp_s,
            wd_s,
            ma_s,
        );
        let obs_json = lacr_obs::take_snapshot()
            .map(|r| format!(",\"obs\":{}", r.to_json()))
            .unwrap_or_default();
        // Per-size-point memory curve: allocator deltas over this spec
        // (generation through min-area), plus its own high-water mark.
        let mem_after = lacr_obs::mem::stats();
        let mem_json = format!(
            "\"mem\":{{\"peak_bytes\":{},\"net_bytes\":{},\"allocs\":{}}}",
            mem_after.peak_bytes,
            mem_after.live_bytes as i64 - mem_before.live_bytes as i64,
            mem_after.allocs - mem_before.allocs,
        );
        records.push(format!(
            "{{\"circuit\":\"{}\",\"wall_s\":{wall_s:.3},\"cells\":{},\"edges\":{},\
             \"t_init_ns\":{:.3},\"min_period_s\":{mp_s:.3},\"wd_build_s\":{wd_s:.3},\
             \"min_area_s\":{ma_s:.3},\"constraints\":{},\"pairs\":{},{mem_json},\
             \"quality\":{{\"t_clk_ns\":{:.3},\"min_area_flops\":{},\"flops_before\":{}}}\
             {obs_json}}}",
            net.name,
            graph.num_vertices(),
            graph.num_edges(),
            t_init as f64 / 1000.0,
            pc.constraints.len(),
            pc.pairs_before_pruning,
            mp.result.period as f64 / 1000.0,
            out.total_flops,
            graph.total_flops(),
        ));
    }
    lacr_obs::mem::raise_peak(process_peak);
    match lacr_bench::write_bench_record(
        "scale",
        &[
            ("seed", seed.to_string()),
            ("wall_s", format!("{:.3}", t0.elapsed().as_secs_f64())),
            ("circuits", format!("[{}]", records.join(","))),
        ],
    ) {
        Ok(path) => lacr_obs::diag!("scale record written to {path}"),
        Err(e) => lacr_obs::diag!("cannot write scale record: {e}"),
    }
    lacr_obs::finish();
}
