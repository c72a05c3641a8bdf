//! `lacr-perfbench`: the planner's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|ring_wd|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload in-process at par width 1. It times every call into a layer's public API from outside the program
//! and re-checks every output independently. Standard output lists
//! every metric by name and unit; its last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/README.md` documents the workloads and metrics.

mod ring_wd;
mod serve_mix;
mod stats;
mod table1;

use stats::{median, Metrics};
use std::hint::black_box;
use std::time::Instant;

/// The seed that reproduces the committed Table-1 run.
pub const DEFAULT_SEED: u64 = 0;

/// The part of `--seed` that picks a workload's inputs: its high 32 bits.
/// Every seed below 2^32 runs the same inputs in the same order, because
/// a new input set moves a run's cost by 13–50 % and a new order moved
/// `table1`'s per-op median by up to 25 %, more than the host does.
/// Seeds from 2^32 up are the unseen-input check.
pub fn input_seed(seed: u64) -> u64 {
    seed >> 32
}

/// Set-up is timed in this many batches; `setup_s` is the median of the
/// batches' mean repetition times...
const SETUP_BATCHES: usize = 9;
/// ...and each batch repeats set-up until it has taken this long. On the
/// reference host one repetition of a millisecond set-up takes one of two
/// times about 60 % apart, switching with the host's state within a run,
/// so the median repetition jumped between them from run to run; a batch
/// mean moves only with the share of time spent in each.
const SETUP_BATCH_S: f64 = 0.2;

/// Where runs at one seed leave their exact counts for the next run of
/// the same build at that seed to compare against (relative to the
/// working directory).
pub const RECORD_DIR: &str = ".perfbench";

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Runs `make` in [`SETUP_BATCHES`] timed batches, dropping each result
/// before the next, and returns the last result with the set-up time in
/// seconds: the median batch's mean repetition time.
pub fn setup<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut means = Vec::with_capacity(SETUP_BATCHES);
    let mut last = None;
    for _ in 0..SETUP_BATCHES {
        let (mut busy_s, mut reps) = (0.0, 0);
        while busy_s < SETUP_BATCH_S {
            drop(last.take());
            let t = Instant::now();
            last = Some(make());
            busy_s += t.elapsed().as_secs_f64();
            reps += 1;
        }
        means.push(busy_s / f64::from(reps));
    }
    (last.expect("at least one set-up"), median(&means))
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// `ops_per_s`, `latency_p50_ms` and the per-layer values: benchmark
    /// timers from the untraced phase, values the API reports and, on
    /// traced runs, span aggregates.
    pub metrics: Metrics,
    /// Counts that must repeat exactly at one seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Benchmark-level check failures (tamper probes, cache invariants).
    pub problems: Vec<String>,
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Allocation events since process start (the counting allocator).
pub fn allocs() -> u64 {
    lacr_obs::mem::stats().allocs
}

/// The planning pipeline's spans that traced runs report.
pub const PLAN_SPANS: &[&str] = &[
    "plan.partition",
    "floorplan.anneal",
    "route.global",
    "plan.expand",
    "retime.min_period",
    "par.region",
    "retime.wd_build",
    "retime.minarea_solve",
    "lac.round",
];

/// The traced phase: `replay` runs the workload's inputs again with the
/// aggregating collector installed (`NullSink`, as the `table1` bin does)
/// and returns its ops/s and how many plans ran the spans. Yields each
/// span's self time and self bytes per plan (`span.<name>.self_ms`,
/// `.self_mb`) and the tracing overhead against the untraced ops/s.
pub fn traced_phase(
    untraced_ops_per_s: f64,
    spans: &[&str],
    replay: impl FnOnce() -> (f64, usize),
) -> Metrics {
    lacr_obs::init(Box::new(lacr_obs::NullSink));
    let (traced_ops_per_s, plans) = replay();
    let report = lacr_obs::finish().unwrap_or_default();
    let mut m = Metrics::default();
    let per_plan = plans.max(1) as f64;
    for name in spans {
        let stat = report.span(name).unwrap_or_default();
        m.add(
            format!("span.{name}.self_ms"),
            stat.excl_ns as f64 / 1e6 / per_plan,
        );
        m.add(
            format!("span.{name}.self_mb"),
            stat.self_bytes as f64 / 1e6 / per_plan,
        );
    }
    m.add("trace.ops_per_s", traced_ops_per_s);
    m.add(
        "trace.overhead_pct",
        (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0,
    );
    m
}

/// Host calibration: a fixed single-threaded CPU-bound kernel and a fixed
/// allocation-bound kernel, in milliseconds. Recorded beside each run,
/// never gated, so two sets of runs that straddle a host-speed change
/// show it.
fn calibrate() -> (f64, f64) {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..black_box(40_000_000_u64) {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(29);
    }
    black_box(x);
    let cpu_ms = ms_since(t);
    let t = Instant::now();
    let mut keep: Vec<Vec<u64>> = Vec::with_capacity(1024);
    for i in 0..black_box(400_000_usize) {
        let v = vec![i as u64; 4 + i % 61];
        if keep.len() == 1024 {
            keep.swap_remove(i % 1024);
        }
        keep.push(black_box(v));
    }
    drop(black_box(keep));
    (cpu_ms, ms_since(t))
}

/// FNV-1a of the running benchmark binary, which links the code under
/// test: a code change gives a new id and so a fresh count record.
fn build_id() -> Result<u64, String> {
    use std::io::Read;
    let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
    let mut file = std::fs::File::open(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut buf = [0u8; 1 << 16];
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if n == 0 {
            return Ok(hash);
        }
        for &b in &buf[..n] {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Compares `counts` with the record the first run of this build at this
/// seed left, or leaves that record. A difference means the workload is
/// not deterministic.
fn check_repeat(workload: &str, run: &Run, counts: &[(&'static str, u64)]) -> Result<(), String> {
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let path = std::path::Path::new(RECORD_DIR).join(format!(
        "counts-{workload}-seed{}-{}s-{:016x}.txt",
        run.seed,
        run.seconds,
        build_id()?
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => Ok(()),
        Ok(previous) => Err(format!(
            "counts differ from the earlier run at seed {} ({}):\nearlier:\n{previous}now:\n{text}",
            run.seed,
            path.display()
        )),
        Err(_) => std::fs::create_dir_all(RECORD_DIR)
            .and_then(|()| std::fs::write(&path, &text))
            .map_err(|e| format!("cannot record counts at {}: {e}", path.display())),
    }
}

/// The end-to-end metrics of every run, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_mb", "MB"),
];

/// The per-layer metrics of every traced run, as `BENCHMARK.json` lists
/// them. A layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("samples", "count"),
    ("failed_frac", "ratio"),
    ("core.build_ms", "ms"),
    ("core.retime_ms", "ms"),
    ("core.lac_ms", "ms"),
    ("retime.minarea_ms", "ms"),
    ("retime.constraints_ms", "ms"),
    ("core.build_allocs", "count"),
    ("core.retime_allocs", "count"),
    ("core.lac_rounds", "count"),
    ("core.n_foa", "count"),
    ("retime.pairs", "count"),
    ("retime.constraints", "count"),
    ("retime.min_period_ms", "ms"),
    ("retime.wd_build_ms", "ms"),
    ("retime.pairs_per_constraint", "ratio"),
    ("retime.allocs", "count"),
    ("retime.min_area_flops", "count"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.plan_ms", "ms"),
    ("serve.mem_mb", "MB"),
    ("serve.queue_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("netlist.canon_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("serve.degraded", "count"),
    ("span.plan.partition.self_ms", "ms"),
    ("span.plan.partition.self_mb", "MB"),
    ("span.floorplan.anneal.self_ms", "ms"),
    ("span.floorplan.anneal.self_mb", "MB"),
    ("span.route.global.self_ms", "ms"),
    ("span.route.global.self_mb", "MB"),
    ("span.plan.expand.self_ms", "ms"),
    ("span.plan.expand.self_mb", "MB"),
    ("span.retime.min_period.self_ms", "ms"),
    ("span.retime.min_period.self_mb", "MB"),
    ("span.par.region.self_ms", "ms"),
    ("span.par.region.self_mb", "MB"),
    ("span.retime.wd_build.self_ms", "ms"),
    ("span.retime.wd_build.self_mb", "MB"),
    ("span.retime.minarea_solve.self_ms", "ms"),
    ("span.retime.minarea_solve.self_mb", "MB"),
    ("span.lac.round.self_ms", "ms"),
    ("span.lac.round.self_mb", "MB"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("host.cpu_ms_before", "ms"),
    ("host.cpu_ms_after", "ms"),
    ("host.alloc_ms_before", "ms"),
    ("host.alloc_ms_after", "ms"),
];

const USAGE: &str = "usage: lacr-perfbench --workload table1|ring_wd|serve_mix \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    // Every workload plans at par width 1, and serve_mix runs one worker
    // behind one client connection: one thread plans at a time.
    lacr_par::set_threads(1);
    lacr_obs::set_diag_level(lacr_obs::DiagLevel::Silent);

    let workload: fn(&Run) -> Outcome = match args.workload.as_str() {
        "table1" => table1::run,
        "ring_wd" => ring_wd::run,
        "serve_mix" => serve_mix::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let calib_before = calibrate();
    let mut outcome = workload(&run);
    let calib_after = calibrate();

    let peak_mb = lacr_obs::mem::stats().peak_bytes as f64 / 1e6;
    if let Err(e) = check_repeat(&args.workload, &run, &outcome.counts) {
        outcome.problems.push(e);
    }
    let mut measured = std::mem::take(&mut outcome.metrics);
    measured.add("setup_s", outcome.setup_s);
    measured.add("peak_mb", peak_mb);
    for (name, value) in &outcome.counts {
        if measured.get(name).is_none() {
            measured.add(*name, *value as f64);
        }
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    measured.add("failed_frac", failed_frac);
    measured.add("host.cpu_ms_before", calib_before.0);
    measured.add("host.cpu_ms_after", calib_after.0);
    measured.add("host.alloc_ms_before", calib_before.1);
    measured.add("host.alloc_ms_after", calib_after.1);
    let end_to_end = measured.select(END_TO_END);
    let layers = measured.select(PER_LAYER);

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "attempted {} failed {} failed_frac {failed_frac}",
        outcome.attempted, outcome.failed
    );
    for (kind, metrics) in [("end_to_end", &end_to_end), ("per_layer", &layers)] {
        for (name, unit, value) in metrics {
            println!("{kind} {name} = {value:.6} {unit}");
        }
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        stats::to_json(if args.trace { &layers } else { &end_to_end })
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists match `BENCHMARK.json` name for name, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = lacr_bench::json::parse_json(&text).expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = json
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
    }
}
