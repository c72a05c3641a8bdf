//! `lacr` — command-line front end for the interconnect planner.
//!
//! ```text
//! lacr list                      # available benchmark circuits
//! lacr plan <circuit|file.bench> [--budget-ms N]
//!                                # plan one circuit, print the report
//! lacr run <circuit|file.bench> [--budget-ms N]
//!                                # same as plan (canonical observability entry)
//! lacr fig2 <circuit|file.bench> [out.svg]
//!                                # render the tile graph (Figure 2)
//! lacr retime <file.bench> <out.bench> [period_ps]
//!                                # min-area retime a .bench netlist
//! lacr serve [--workers N] [--queue-cap N] [--socket path] ...
//!                                # long-lived daemon: line-JSON requests in,
//!                                # one JSON response line per request out
//! ```
//!
//! Global flags (any command): `--trace` streams pipeline spans to
//! stderr, `--metrics-out <path>` writes the JSONL record stream,
//! `--report` prints the per-stage self-time table after the run,
//! `--report-json <path>` writes the same aggregate report as
//! schema-versioned JSON, `--quiet` silences `[lacr]` diagnostics,
//! and `--threads N` caps the
//! worker pool for parallel regions (overriding the `LACR_THREADS`
//! environment variable; output is bit-identical at any thread count).
//! `--flight-recorder-out <path>` redirects the always-on flight
//! recorder's postmortem dump (default `target/flight/last-run.jsonl`;
//! set `LACR_FLIGHT=off` to disable recording entirely). The dump is
//! written automatically on panic, on degraded exit (3) and on budget
//! expiry.
//!
//! Exit codes: 0 success, 1 error (one-line diagnostic on stderr),
//! 2 usage, 3 the run finished but the plan is *degraded* (budget
//! expiry, fallback solver, residual overflow — reasons on stderr).

use lacr::bench::ObsOptions;
use lacr::core::experiment::{format_table, table_row};
use lacr::core::planner::{
    try_build_physical_plan, try_plan_retimings, try_plan_retimings_at, IteratedPlan, PlannerConfig,
};
use lacr::core::render::{congestion_ascii, tile_ascii, tile_ascii_legend, tile_svg};
use lacr::core::{summarize, try_retimed_circuit, Budget, Degradation};
use lacr::netlist::{bench89, bench_format, stats::CircuitStats, Circuit};
use lacr::serve::ServeConfig;
use std::process::ExitCode;
use std::time::Duration;

/// The CLI's own report flags, stripped from the argument list after the
/// shared [`ObsOptions`]: `--report` prints the self-time table,
/// `--report-json <path>` writes it as JSON.
fn report_flags(args: &mut Vec<String>) -> Result<(bool, Option<String>), String> {
    let (mut report, mut report_json) = (false, None);
    let mut rest = Vec::with_capacity(args.len());
    let mut it = std::mem::take(args).into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report" => report = true,
            "--report-json" => report_json = Some(it.next().ok_or("--report-json needs a path")?),
            _ => rest.push(a),
        }
    }
    *args = rest;
    Ok((report, report_json))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parsed =
        ObsOptions::from_args(&mut args).and_then(|obs| Ok((obs, report_flags(&mut args)?)));
    let (mut obs, (report, report_json)) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            lacr::obs::diag!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The flight recorder is always on (LACR_FLIGHT=off opts out): arm the
    // postmortem path so a crash, a degraded exit or a budget expiry
    // leaves a debuggable artifact behind.
    obs.flight_out
        .get_or_insert_with(|| "target/flight/last-run.jsonl".to_string());
    if let Err(e) = obs.install() {
        lacr::obs::diag!("error: {e}");
        return ExitCode::FAILURE;
    }
    // `--report` / `--report-json` alone aggregate into a null sink.
    if (report || report_json.is_some()) && !lacr::obs::is_enabled() {
        lacr::obs::init(Box::new(lacr::obs::sink::NullSink));
    }
    let result = match args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name.as_str()))
    {
        Some(command) => (command.run)(&args[1..]),
        None => {
            print_usage();
            return ExitCode::from(2);
        }
    };
    // Flush the sinks (writing the JSONL summary line, if any), then
    // render the aggregate report as asked.
    let obs_report = lacr::obs::finish();
    if report {
        match &obs_report {
            Some(r) => print!("{}", r.self_time_table()),
            None => eprintln!("--report: no observability data collected"),
        }
    }
    if let Some(path) = &report_json {
        match &obs_report {
            Some(r) => {
                if let Some(parent) = std::path::Path::new(path).parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                if let Err(e) = std::fs::write(path, r.ranked_json() + "\n") {
                    lacr::obs::diag!("--report-json: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("--report-json: no observability data collected"),
        }
    }
    match result {
        Ok(degradations) if degradations.is_empty() => ExitCode::SUCCESS,
        Ok(degradations) => {
            lacr::obs::diag!("plan is degraded:");
            for d in &degradations {
                lacr::obs::diag!("  {d}");
            }
            if let Some(path) = lacr::obs::flight::dump("degraded exit (3)") {
                lacr::obs::diag!("flight recorder dumped to {}", path.display());
            }
            ExitCode::from(3)
        }
        Err(e) => {
            lacr::obs::diag!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Success carries the degradation notes of the run (empty → exit 0,
/// otherwise they are printed and the process exits 3).
type CliResult = Result<Vec<Degradation>, Box<dyn std::error::Error>>;

/// One dispatched subcommand: its name, its usage lines, its handler.
/// Dispatch and the usage text are generated from this one table, so a
/// subcommand can never be runnable but undocumented (tests/cli.rs
/// audits the rendered usage against the table's names).
struct Command {
    name: &'static str,
    usage: &'static [&'static str],
    run: fn(&[String]) -> CliResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        usage: &["list                        available benchmark circuits"],
        run: cmd_list,
    },
    Command {
        name: "plan",
        usage: &[
            "plan <circuit|file.bench> [--budget-ms N]",
            "                            run the planner on one circuit",
        ],
        run: cmd_plan,
    },
    // `run` is the canonical observability entry point; it plans one
    // circuit exactly like `plan` (kept as an alias for scripts).
    Command {
        name: "run",
        usage: &[
            "run <circuit|file.bench> [--budget-ms N]",
            "                            alias of plan",
        ],
        run: cmd_plan,
    },
    Command {
        name: "fig2",
        usage: &[
            "fig2 <circuit|file.bench> [out.svg]",
            "                            render the tile graph (Figure 2)",
        ],
        run: cmd_fig2,
    },
    Command {
        name: "retime",
        usage: &["retime <in.bench> <out.bench> [period_ps]"],
        run: cmd_retime,
    },
    Command {
        name: "serve",
        usage: &[
            "serve [--workers N] [--queue-cap N] [--default-budget-ms N]",
            "      [--max-line-bytes N] [--socket <path>] [--stats-interval-ms N]",
            "      [--cache-entries N] [--cache-bytes N] [--max-connections N]",
            "                            daemon: line-JSON requests on stdin/socket,",
            "                            one JSON response line per request;",
            "                            all connections share one pool + plan cache",
        ],
        run: cmd_serve,
    },
];

fn print_usage() {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    eprintln!("usage: lacr <{}> [args]", names.join("|"));
    for command in COMMANDS {
        for line in command.usage {
            eprintln!("  {line}");
        }
    }
    eprintln!(
        "global flags: --trace --metrics-out <path> --report --report-json <path> \
         --quiet --threads <n> --flight-recorder-out <path>"
    );
    eprintln!("exit codes: 0 ok, 1 error, 2 usage, 3 degraded plan");
}

fn load_circuit(spec: &str) -> Result<Circuit, Box<dyn std::error::Error>> {
    if spec.ends_with(".bench") {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        let name = std::path::Path::new(spec)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("netlist")
            .to_string();
        let c = bench_format::parse(&name, &text).map_err(|e| format!("{spec}: {e}"))?;
        let problems = c.validate();
        if !problems.is_empty() {
            return Err(format!("{spec}: invalid netlist: {}", problems.join("; ")).into());
        }
        Ok(c)
    } else {
        Ok(bench89::generate(spec)?)
    }
}

fn cmd_list(args: &[String]) -> CliResult {
    if let Some(stray) = args.first() {
        return Err(format!("list: unexpected argument {stray:?}").into());
    }
    println!("synthetic ISCAS89-class circuits (lacr-netlist::bench89):");
    for name in bench89::suite() {
        let c = bench89::generate(name)?;
        let s = CircuitStats::compute(&c);
        println!(
            "  {name:<7} {:>5} units  {:>4} flops  {:>3} PI  {:>3} PO",
            s.logic_units, s.flops, s.inputs, s.outputs
        );
    }
    println!("(any .bench file path is also accepted by `plan` and `retime`)");
    println!("(for many plans in one process, see `lacr serve` — line-JSON daemon mode)");
    Ok(Vec::new())
}

/// Parses a serve limit flag where `0` is a meaningful setting
/// (disable the cache / lift the connection cap), unlike the sizing
/// flags that must stay positive.
fn next_limit<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<usize, Box<dyn std::error::Error>> {
    Ok(it
        .next()
        .ok_or_else(|| format!("{flag} needs a value (0 disables)"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?)
}

/// `lacr serve`: the long-lived planning daemon (see `lacr::serve`).
/// Per-request outcomes travel in-band as response lines; the process
/// itself exits 0 on a graceful shutdown (EOF, shutdown command, or
/// SIGINT/SIGTERM) and 1 only on a transport-level I/O failure.
fn cmd_serve(args: &[String]) -> CliResult {
    let mut config = ServeConfig::default();
    let mut socket: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // Sizes that must be positive (a zero pool or line bound is
        // never meaningful)…
        let mut next_usize = |flag: &str| -> Result<usize, Box<dyn std::error::Error>> {
            let v: usize = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse()
                .map_err(|e| format!("{flag}: {e}"))?;
            if v == 0 {
                return Err(format!("{flag} must be at least 1").into());
            }
            Ok(v)
        };
        // …versus limits where 0 is a valid setting (cache disabled,
        // unlimited connections).
        match a.as_str() {
            "--workers" => config.workers = next_usize("--workers")?,
            "--queue-cap" => config.queue_capacity = next_usize("--queue-cap")?,
            "--max-line-bytes" => config.max_line_bytes = next_usize("--max-line-bytes")?,
            "--cache-entries" => config.cache_entries = next_limit(&mut it, "--cache-entries")?,
            "--cache-bytes" => config.cache_bytes = next_limit(&mut it, "--cache-bytes")?,
            "--max-connections" => {
                config.max_connections = next_limit(&mut it, "--max-connections")?;
            }
            "--default-budget-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--default-budget-ms needs a value in milliseconds")?
                    .parse()
                    .map_err(|e| format!("--default-budget-ms: {e}"))?;
                config.default_budget_ms = Some(ms);
            }
            "--stats-interval-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--stats-interval-ms needs a value in milliseconds")?
                    .parse()
                    .map_err(|e| format!("--stats-interval-ms: {e}"))?;
                if ms == 0 {
                    return Err("--stats-interval-ms must be at least 1".into());
                }
                config.stats_interval_ms = Some(ms);
            }
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?.clone()),
            other => return Err(format!("serve: unexpected argument {other:?}").into()),
        }
    }
    lacr::serve::install_signal_handlers();
    match socket {
        Some(path) => lacr::serve::serve_unix_socket(&config, std::path::Path::new(&path))?,
        None => {
            lacr::serve::serve(
                &config,
                std::io::BufReader::new(std::io::stdin()),
                std::io::stdout(),
            )?;
        }
    }
    Ok(Vec::new())
}

/// Parses `plan` arguments: a circuit spec plus an optional
/// `--budget-ms N` wall-clock budget.
fn parse_plan_args(args: &[String]) -> Result<(String, Budget), Box<dyn std::error::Error>> {
    let mut spec: Option<String> = None;
    let mut budget = Budget::unlimited();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--budget-ms" {
            let ms: u64 = it
                .next()
                .ok_or("--budget-ms needs a value in milliseconds")?
                .parse()
                .map_err(|e| format!("--budget-ms: {e}"))?;
            budget = Budget::with_timeout(Duration::from_millis(ms));
        } else if spec.is_none() {
            spec = Some(a.clone());
        } else {
            return Err(format!("unexpected argument {a:?}").into());
        }
    }
    Ok((
        spec.ok_or("plan needs a circuit name or .bench path")?,
        budget,
    ))
}

fn cmd_plan(args: &[String]) -> CliResult {
    let (spec, budget) = parse_plan_args(args)?;
    let config = PlannerConfig {
        budget,
        ..PlannerConfig::default()
    };
    if spec.ends_with(".bench") {
        let circuit = load_circuit(&spec)?;
        let plan = try_build_physical_plan(&circuit, &config, &[])?;
        let report = try_plan_retimings(&plan, &config)?;
        // The shared summary renderer — `lacr serve` embeds the same
        // lines in its responses, byte for byte.
        let summary = summarize(circuit.name(), &plan, &report);
        for line in summary.text_lines() {
            println!("{line}");
        }
        Ok(summary.degradations)
    } else {
        let circuit = bench89::generate(&spec)?;
        let plan = try_build_physical_plan(&circuit, &config, &[])?;
        let report = try_plan_retimings(&plan, &config)?;
        let mut notes = plan.degradations.clone();
        notes.extend(report.degradations.iter().cloned());
        // The paper-style table row, with the second iteration whenever
        // LAC left violations and the budget allows it.
        let iterated = IteratedPlan::from_first(&circuit, &config, plan, report);
        println!("{}", format_table(&[table_row(&spec, &iterated)]));
        Ok(notes)
    }
}

/// `lacr fig2`: the paper's Figure 2. Prints the chip size, the ASCII
/// tile map and the routing congestion map; with `out.svg`, also runs
/// both retimers and writes the tile graph with LAC's per-tile
/// flip-flop occupancy.
fn cmd_fig2(args: &[String]) -> CliResult {
    let spec = args
        .first()
        .ok_or("fig2 needs a circuit name or .bench path")?;
    let circuit = load_circuit(spec)?;
    let config = PlannerConfig::default();
    let plan = try_build_physical_plan(&circuit, &config, &[])?;
    println!(
        "{}: chip {:.1} x {:.1} mm, {} x {} cells, {} tiles ({} merged soft)",
        circuit.name(),
        plan.floorplan.chip_w / 1000.0,
        plan.floorplan.chip_h / 1000.0,
        plan.grid.nx(),
        plan.grid.ny(),
        plan.grid.num_tiles(),
        plan.partitioning.blocks.len(),
    );
    println!("{}", tile_ascii(&plan));
    println!("{}", tile_ascii_legend(&plan));
    println!("\nrouting congestion (worst adjacent edge / capacity):");
    println!("{}", congestion_ascii(&plan, config.route.edge_capacity));
    let mut notes = plan.degradations.clone();
    if let Some(path) = args.get(1) {
        let report = try_plan_retimings(&plan, &config)?;
        std::fs::write(path, tile_svg(&plan, Some(&report.lac.result.occupancy)))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "\nLAC occupancy rendered to {path} (green = occupied within capacity, \
             red = violating); N_FOA = {}",
            report.lac.result.n_foa
        );
        notes.extend(report.degradations.iter().cloned());
    }
    Ok(notes)
}

fn cmd_retime(args: &[String]) -> CliResult {
    let input = args.first().ok_or("retime needs an input .bench path")?;
    let output = args.get(1).ok_or("retime needs an output .bench path")?;
    let circuit = load_circuit(input)?;
    let config = PlannerConfig::default();
    let plan = try_build_physical_plan(&circuit, &config, &[])?;
    let target: u64 = match args.get(2) {
        Some(t) => t.parse()?,
        None => plan.t_clk,
    };
    if target < plan.t_min {
        return Err(format!(
            "target {target} ps below the minimum feasible period {} ps",
            plan.t_min
        )
        .into());
    }
    let report = try_plan_retimings_at(&plan, &config, target)?;
    let retimed =
        try_retimed_circuit(&circuit, &plan.expanded, &report.lac.result.outcome.weights)?;
    std::fs::write(output, bench_format::write(&retimed))
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "retimed {} at {:.2} ns: {} flip-flops ({} in wires), {} area violations; wrote {output}",
        circuit.name(),
        target as f64 / 1000.0,
        report.lac.result.n_f,
        report.lac.result.n_fn,
        report.lac.result.n_foa
    );
    let mut notes = plan.degradations.clone();
    notes.extend(report.degradations.iter().cloned());
    Ok(notes)
}
