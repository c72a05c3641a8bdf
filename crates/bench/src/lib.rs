//! Benchmark harness reproducing the paper's experimental artifacts.
//!
//! Binaries (run with `cargo run --release -p lacr-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |--------|-----------|
//! | `table1` | Table 1: per-circuit min-area vs LAC-retiming metrics |
//! | `ablations` | the ablations: `alpha`, `nmax`, `subseg`, `pruning`, `sharing` |
//! | `bench_scale` | the scale campaign on synthetic ring and mesh netlists |
//! | `stress` | s5378 at the large-circuit settings |
//! | `check_metrics` | validator for JSONL streams, perf records, flight dumps |
//! | `bench_compare` | regression gate: diffs two run artifacts |
//!
//! Figure 2 is `lacr fig2 <circuit> [out.svg]`, in the root crate.
//!
//! # Run artifacts
//!
//! Every artifact binary writes a versioned perf record. `BENCH_<bench>
//! .json` keeps the historical shape (wall-clock + per-circuit entries);
//! `table1` additionally writes `RUN_<bench>.json`, whose per-circuit
//! `quality` blocks carry the paper's solution-quality numbers (`N_FOA`,
//! `N_wr`, `T_clk`, router overflow, repeater count, the per-round
//! `N_FOA` trajectory, occupancy histograms). Both carry provenance
//! (`schema_version`, `threads`, `git_rev`) so [`compare`] can refuse
//! artifacts it does not understand. Records land in the directory named
//! by `LACR_RECORD_DIR` (default: the working directory), so CI can
//! regenerate artifacts without clobbering committed baselines.

pub mod compare;
pub mod json;

use lacr_core::experiment::TableRow;
use std::io::Write as _;

/// Observability flags shared by the `lacr` CLI and every artifact
/// binary: `--quiet` silences the `[lacr]` stderr diagnostics, `--trace`
/// streams spans to stderr, `--metrics-out <path>` writes the full JSONL
/// record stream, `--threads <n>` caps the parallel-region worker pool
/// (results are bit-identical at any thread count),
/// `--flight-recorder-out <path>` arms the always-on flight recorder to
/// dump its postmortem there.
#[derive(Debug, Default)]
pub struct ObsOptions {
    /// Suppress `[lacr]` diagnostics on stderr.
    pub quiet: bool,
    /// Stream spans/counters to stderr as they happen.
    pub trace: bool,
    /// Write every record to this JSONL file.
    pub metrics_out: Option<String>,
    /// Worker-pool cap for parallel regions.
    pub threads: Option<usize>,
    /// Arm the flight recorder to dump its ring here on panic or
    /// budget expiry.
    pub flight_out: Option<String>,
}

impl ObsOptions {
    /// Extracts the observability flags from `args`, removing them so
    /// only the caller's own arguments remain.
    ///
    /// # Errors
    ///
    /// A usage message when a path flag has no value, `--threads` is
    /// not a positive integer, or the removed `--trace-chrome` is given.
    pub fn from_args(args: &mut Vec<String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut rest = Vec::with_capacity(args.len());
        let mut it = std::mem::take(args).into_iter();
        while let Some(a) = it.next() {
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
            match a.as_str() {
                "--quiet" => opts.quiet = true,
                "--trace" => opts.trace = true,
                "--metrics-out" => opts.metrics_out = Some(value("a path")?),
                "--trace-chrome" => {
                    return Err("--trace-chrome was removed; --metrics-out <path> \
                                writes the record stream"
                        .into())
                }
                "--flight-recorder-out" => opts.flight_out = Some(value("a path")?),
                "--threads" => {
                    let n: usize = value("a worker count")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    opts.threads = Some(n);
                }
                _ => rest.push(a),
            }
        }
        *args = rest;
        Ok(opts)
    }

    /// Installs the requested diagnostics level and sinks. Several
    /// sinks at once fan out through a [`lacr_obs::sink::TeeSink`].
    /// Always installs the flight recorder's panic hook;
    /// `--flight-recorder-out` additionally arms an automatic dump
    /// path.
    ///
    /// # Errors
    ///
    /// The `--metrics-out` file cannot be created; nothing is installed
    /// then.
    pub fn install(&self) -> Result<(), String> {
        let mut sinks: Vec<Box<dyn lacr_obs::sink::Sink + Send>> = Vec::new();
        if let Some(path) = &self.metrics_out {
            let sink =
                lacr_obs::sink::JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
            sinks.push(Box::new(sink));
        }
        // Allocation counting honors `LACR_MEM=0|off`; applied here (not
        // inside the allocator, which must never read the environment).
        lacr_obs::mem::init_tracking_from_env();
        if let Some(n) = self.threads {
            lacr_par::set_threads(n);
        }
        if self.quiet {
            lacr_obs::set_diag_level(lacr_obs::DiagLevel::Silent);
        }
        if self.trace {
            sinks.push(Box::new(lacr_obs::sink::StderrSink));
        }
        match sinks.len() {
            0 => {}
            1 => lacr_obs::init(sinks.pop().expect("one sink")),
            _ => lacr_obs::init(Box::new(lacr_obs::sink::TeeSink::new(sinks))),
        }
        if let Some(path) = &self.flight_out {
            lacr_obs::flight::arm(path);
        }
        lacr_obs::flight::install_panic_hook();
        Ok(())
    }

    /// [`Self::from_args`] then [`Self::install`] for an artifact
    /// binary: a usage error exits 2 and a sink that cannot be created
    /// exits 1, each with a one-line diagnostic.
    pub fn install_from_args(args: &mut Vec<String>) {
        let opts = Self::from_args(args).unwrap_or_else(|e| {
            lacr_obs::diag!("error: {e}");
            std::process::exit(2)
        });
        if let Err(e) = opts.install() {
            lacr_obs::diag!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The short commit hash of the repository `HEAD`, read straight from
/// `.git` (no `git` subprocess, so it works in sandboxes without one).
/// Walks up from the working directory; follows one level of `ref:`
/// indirection and falls back to `packed-refs`. Returns `"unknown"`
/// when anything is missing — provenance must never fail a run.
pub fn git_rev() -> String {
    fn lookup() -> Option<String> {
        let mut dir = std::env::current_dir().ok()?;
        let git = loop {
            let candidate = dir.join(".git");
            if candidate.join("HEAD").is_file() {
                break candidate;
            }
            if !dir.pop() {
                return None;
            }
        };
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let sha = if let Some(refname) = head.strip_prefix("ref: ") {
            match std::fs::read_to_string(git.join(refname)) {
                Ok(s) => s.trim().to_string(),
                // Not a loose ref — scan packed-refs for it.
                Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|l| l.strip_suffix(refname).map(|sha| sha.trim().to_string()))?,
            }
        } else {
            head.to_string()
        };
        if sha.len() >= 12 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
            Some(sha[..12].to_string())
        } else {
            None
        }
    }
    lookup().unwrap_or_else(|| "unknown".to_string())
}

/// The directory perf records are written to: `LACR_RECORD_DIR`, or the
/// working directory when unset. Created on demand.
pub fn record_dir() -> std::path::PathBuf {
    let dir = std::env::var("LACR_RECORD_DIR").unwrap_or_else(|_| ".".to_string());
    std::path::PathBuf::from(dir)
}

fn write_record(
    kind: &str,
    prefix: &str,
    bench: &str,
    fields: &[(&str, String)],
) -> std::io::Result<String> {
    let dir = record_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{prefix}_{bench}.json"));
    let mut body = String::new();
    body.push_str(&format!(
        "{{\"t\":\"{kind}\",\"schema_version\":{},\"bench\":\"{bench}\",\
         \"threads\":{},\"git_rev\":\"{}\"",
        lacr_obs::SCHEMA_VERSION,
        lacr_par::max_threads(),
        git_rev(),
    ));
    for (k, v) in fields {
        body.push_str(&format!(",\"{k}\":{v}"));
    }
    if let Some(report) = lacr_obs::snapshot() {
        body.push_str(&format!(",\"obs\":{}", report.to_json()));
    }
    // Process-level memory provenance: the counting allocator's totals
    // plus kernel peak RSS, so `bench_compare` can gate peak footprint
    // the same way it gates wall-clock.
    let mem = lacr_obs::mem::stats();
    body.push_str(&format!(
        ",\"mem\":{{\"live_bytes\":{},\"peak_bytes\":{},\"allocs\":{},\"deallocs\":{},\"peak_rss_bytes\":{}}}",
        mem.live_bytes,
        mem.peak_bytes,
        mem.allocs,
        mem.deallocs,
        lacr_obs::mem::peak_rss_bytes().unwrap_or(0)
    ));
    body.push_str("}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    Ok(path.display().to_string())
}

/// Writes a machine-readable perf record to `BENCH_<bench>.json` (in
/// [`record_dir`]).
///
/// `fields` are pre-rendered JSON fragments (`("wall_s", "1.25")`,
/// `("rows", "[...]")`); the aggregated observability report — when a
/// sink is installed — is appended under `"obs"`. Every record carries
/// provenance — `schema_version`, `threads` (the worker-pool width the
/// run executed with) and `git_rev` — so wall-clock numbers from
/// different machines/configurations stay comparable and the
/// `bench_compare` gate can reject artifacts it does not understand.
/// Returns the path written.
pub fn write_bench_record(bench: &str, fields: &[(&str, String)]) -> std::io::Result<String> {
    write_record("bench", "BENCH", bench, fields)
}

/// Writes a solution-quality run artifact to `RUN_<bench>.json` (in
/// [`record_dir`]): same provenance header as [`write_bench_record`],
/// but the `fields` are expected to include a `"circuits"` array whose
/// entries carry `quality` blocks (see [`quality_json`]). This is the
/// artifact `bench_compare` diffs. Returns the path written.
pub fn write_run_record(bench: &str, fields: &[(&str, String)]) -> std::io::Result<String> {
    write_record("run", "RUN", bench, fields)
}

/// Renders one circuit's solution-quality block as a JSON object: the
/// paper's Table-1 quantities and the plan digest (16 hex digits) from
/// the [`TableRow`] plus — when the per-circuit observability snapshot
/// is supplied — the quality gauges and histograms emitted by the
/// planner (`quality.*` names, stripped of their prefix here).
pub fn quality_json(row: &TableRow, report: Option<&lacr_obs::Report>) -> String {
    let mut q = String::from("{");
    q.push_str(&format!(
        "\"base_n_foa\":{},\"lac_n_foa\":{},\"n_f\":{},\"n_fn\":{},\"n_wr\":{},\
         \"t_clk_ns\":{:.3},\"t_init_ns\":{:.3},\"t_min_ns\":{:.3}",
        row.min_area.n_foa,
        row.lac.n_foa,
        row.lac.n_f,
        row.lac.n_fn,
        row.n_wr,
        row.t_clk_ns,
        row.t_init_ns,
        row.t_min_ns,
    ));
    if let Some(p) = row.decrease_pct {
        q.push_str(&format!(",\"decrease_pct\":{p:.1}"));
    }
    let trajectory = row
        .n_foa_trajectory
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    q.push_str(&format!(",\"n_foa_trajectory\":[{trajectory}]"));
    q.push_str(&format!(",\"plan_digest\":\"{:016x}\"", row.plan_digest));
    if let Some(r) = report {
        for (gauge, field) in [
            ("quality.route_overflow", "route_overflow"),
            ("quality.repeaters", "repeaters"),
            ("quality.t_clk_slack_ps", "t_clk_slack_ps"),
            ("quality.relocated_vertices", "relocated_vertices"),
        ] {
            if let Some(v) = r.gauge(gauge) {
                q.push_str(&format!(
                    ",\"{field}\":{}",
                    lacr_obs::Value::Float(v).to_json()
                ));
            }
        }
        for (hist, field) in [
            ("quality.tile_occupancy_ff", "tile_occupancy"),
            ("quality.tile_capacity_ff", "tile_capacity"),
            ("quality.ff_relocation", "ff_relocation"),
        ] {
            if let Some(h) = r.hist(hist) {
                q.push_str(&format!(",\"{field}\":{}", h.to_json()));
            }
        }
    }
    q.push('}');
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_flags_are_stripped_from_args() {
        let mut args: Vec<String> = [
            "s344",
            "--quiet",
            "--metrics-out",
            "m.jsonl",
            "--flight-recorder-out",
            "f.jsonl",
            "s1423",
        ]
        .map(String::from)
        .to_vec();
        let o = ObsOptions::from_args(&mut args).expect("well-formed flags");
        assert!(o.quiet && !o.trace);
        assert_eq!(o.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(o.flight_out.as_deref(), Some("f.jsonl"));
        assert_eq!(args, ["s344", "s1423"]);
    }

    #[test]
    fn malformed_obs_flags_are_usage_errors() {
        for (argv, msg) in [
            (
                &["--quiet", "s344", "--metrics-out"][..],
                "--metrics-out needs a path",
            ),
            (
                &["--threads", "0", "s344"][..],
                "--threads must be at least 1",
            ),
            (
                &["--threads", "abc", "s344"][..],
                "--threads: invalid digit",
            ),
        ] {
            let mut args: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            let err = ObsOptions::from_args(&mut args).expect_err(&argv.join(" "));
            assert!(err.starts_with(msg), "{argv:?}: {err}");
        }
    }

    #[test]
    fn an_uncreatable_metrics_path_fails_install() {
        // A path under a regular file can never be created.
        let opts = ObsOptions {
            metrics_out: Some(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/m.jsonl").into()),
            ..ObsOptions::default()
        };
        let err = opts.install().expect_err("install must fail");
        assert!(err.contains("Cargo.toml/m.jsonl"), "{err}");
    }

    #[test]
    fn git_rev_is_hex_or_unknown() {
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 12 && rev.bytes().all(|b| b.is_ascii_hexdigit())),
            "{rev}"
        );
    }

    #[test]
    fn quality_json_is_parseable_and_carries_the_row() {
        use lacr_core::experiment::RetimerMetrics;
        use std::time::Duration;
        let row = TableRow {
            circuit: "s344".into(),
            t_clk_ns: 2.5,
            t_init_ns: 3.0,
            t_min_ns: 2.0,
            min_area: RetimerMetrics {
                n_foa: 10,
                n_f: 20,
                n_fn: 4,
                t_exec: Duration::from_millis(5),
            },
            lac: RetimerMetrics {
                n_foa: 2,
                n_f: 22,
                n_fn: 6,
                t_exec: Duration::from_millis(9),
            },
            n_wr: 4,
            decrease_pct: Some(80.0),
            second_iteration: None,
            n_foa_trajectory: vec![5, 3, 2],
            plan_digest: 0xab,
        };
        let q = quality_json(&row, None);
        let v = json::parse_json(&q).expect("quality block parses");
        assert_eq!(v.get("lac_n_foa").and_then(json::Json::as_num), Some(2.0));
        assert_eq!(v.get("n_wr").and_then(json::Json::as_num), Some(4.0));
        assert_eq!(
            v.get("n_foa_trajectory")
                .and_then(json::Json::as_arr)
                .map(<[json::Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("plan_digest").and_then(json::Json::as_str),
            Some("00000000000000ab")
        );
    }
}
