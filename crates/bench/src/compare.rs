//! The benchmark-regression gate: diffs two run artifacts.
//!
//! [`compare`] takes a committed baseline `RUN_<bench>.json` and a
//! freshly generated one and checks, per circuit:
//!
//! - **hard quality gates** ([`GATED_METRICS`]): `lac_n_foa`, `n_wr`,
//!   `t_clk_ns` and `route_overflow` are lower-is-better and must not
//!   increase at all — the pipeline is deterministic, so any increase
//!   is a real quality regression, not noise. A gated metric present in
//!   the baseline but missing from the current artifact also fails (the
//!   telemetry contract regressed).
//! - **plan identity**: a circuit whose `plan_digest` (a hash of the
//!   first iteration's min-area and LAC retimed edge weights) differs
//!   from the baseline's is `CHANGED` and fails, even when every count
//!   matches. Baselines without a digest are not gated.
//! - **soft wall-clock gate**: `wall_s` may drift up to the configured
//!   tolerance (±15 % by default) before it counts as a regression,
//!   because wall-clock is machine-noisy. CI disables it entirely
//!   (`check_wall = false`).
//! - **soft memory gate**: peak heap bytes — the artifact-level
//!   `mem.peak_bytes` from the counting allocator, and any per-circuit
//!   `peak_bytes` — may grow up to the configured tolerance (±15 % by
//!   default, `--no-mem` / `--mem-tolerance` on the CLI). Allocation is
//!   deterministic but allocator-version sensitive, so the gate is soft
//!   like wall-clock, not hard like quality. Artifacts predating the
//!   memory schema (v1) carry no `mem` block and are simply not gated.
//!
//! Coverage direction is explicit. By default every baseline circuit
//! must be present in the current artifact — a circuit that silently
//! vanishes from a run is a *dropped* gate failure, not a skip. When the
//! caller declares a deliberate subset comparison ([`CompareConfig::
//! allow_subset`], `--subset` on the CLI) those circuits are *skipped*
//! instead — that is how CI compares a fast subset against the full
//! committed baseline. Circuits only in the current artifact (a superset
//! run) are never failures in either mode. Artifacts without a
//! `schema_version`, or with one newer than this tool understands, are
//! rejected outright.

use crate::json::{parse_json, Json};
use lacr_obs::Value;

/// Lower-is-better quality metrics that must not increase at all.
/// `min_area_flops` only appears in `BENCH_scale.json` artifacts;
/// metrics a baseline never carried are not gated, so the table1 gate
/// is unaffected.
pub const GATED_METRICS: &[&str] = &[
    "lac_n_foa",
    "n_wr",
    "t_clk_ns",
    "route_overflow",
    "min_area_flops",
];

/// Relative slack for "did not increase" on gated metrics — covers
/// decimal round-tripping, nothing more.
const REL_EPS: f64 = 1e-9;

/// One circuit's flattened metrics: top-level numeric fields overlaid
/// with the numeric fields of its `quality` block (quality wins).
#[derive(Debug, Clone)]
pub struct CircuitMetrics {
    /// Circuit name.
    pub name: String,
    /// Metric name → value, in artifact order.
    pub metrics: Vec<(String, f64)>,
    /// The `quality.plan_digest` hex string, when the artifact has one.
    pub plan_digest: Option<String>,
}

impl CircuitMetrics {
    /// A metric by name.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
    }
}

/// A parsed `RUN_*.json` / `BENCH_*.json` artifact.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Benchmark name (`"table1"`).
    pub bench: String,
    /// Artifact schema version.
    pub schema_version: u32,
    /// Worker-pool width of the recorded run, when present.
    pub threads: Option<u64>,
    /// Commit the run was built from, when present.
    pub git_rev: Option<String>,
    /// Process peak heap bytes from the artifact's `mem` block (absent
    /// in schema-v1 artifacts, which predate memory observability).
    pub mem_peak_bytes: Option<f64>,
    /// Per-circuit metrics.
    pub circuits: Vec<CircuitMetrics>,
}

impl RunArtifact {
    /// A circuit by name.
    pub fn circuit(&self, name: &str) -> Option<&CircuitMetrics> {
        self.circuits.iter().find(|c| c.name == name)
    }
}

/// Parses a run artifact, rejecting unversioned or too-new ones.
///
/// # Errors
///
/// A one-line message: JSON syntax errors, a missing/unsupported
/// `schema_version`, or a missing `circuits` array.
pub fn parse_artifact(text: &str) -> Result<RunArtifact, String> {
    let v = parse_json(text)?;
    let version = v
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("artifact has no schema_version (regenerate it with this tree's binaries)")?
        as u32;
    if version > lacr_obs::SCHEMA_VERSION {
        return Err(format!(
            "artifact schema_version {version} is newer than this tool's {}",
            lacr_obs::SCHEMA_VERSION
        ));
    }
    let bench = v
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let threads = v.get("threads").and_then(Json::as_num).map(|n| n as u64);
    let git_rev = v.get("git_rev").and_then(Json::as_str).map(str::to_string);
    let mem_peak_bytes = v
        .get("mem")
        .and_then(|m| m.get("peak_bytes"))
        .and_then(Json::as_num);
    let circuits = v
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("artifact has no circuits array")?
        .iter()
        .map(|c| {
            let name = c
                .get("circuit")
                .and_then(Json::as_str)
                .ok_or("circuit entry without a \"circuit\" name")?
                .to_string();
            let mut metrics: Vec<(String, f64)> = Vec::new();
            let mut absorb = |obj: &Json| {
                if let Json::Obj(fields) = obj {
                    for (k, val) in fields {
                        if let Some(n) = val.as_num() {
                            if let Some(slot) = metrics.iter_mut().find(|(m, _)| m == k) {
                                slot.1 = n;
                            } else {
                                metrics.push((k.clone(), n));
                            }
                        }
                    }
                }
            };
            absorb(c);
            if let Some(q) = c.get("quality") {
                absorb(q);
            }
            if let Some(m) = c.get("mem") {
                absorb(m); // flattens per-circuit peak_bytes for gating
            }
            let plan_digest = c
                .get("quality")
                .and_then(|q| q.get("plan_digest"))
                .and_then(Json::as_str)
                .map(str::to_string);
            Ok(CircuitMetrics {
                name,
                metrics,
                plan_digest,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunArtifact {
        bench,
        schema_version: version,
        threads,
        git_rev,
        mem_peak_bytes,
        circuits,
    })
}

/// Tuning knobs of the gate.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Allowed relative wall-clock growth, percent.
    pub wall_tolerance_pct: f64,
    /// Whether wall-clock is checked at all (CI turns this off).
    pub check_wall: bool,
    /// Allowed relative peak-heap growth, percent.
    pub mem_tolerance_pct: f64,
    /// Whether peak heap bytes are checked at all.
    pub check_mem: bool,
    /// Whether the current artifact is a declared subset run: baseline
    /// circuits absent from it are skipped instead of failing as
    /// dropped. Off by default — coverage loss must be opted into.
    pub allow_subset: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            wall_tolerance_pct: 15.0,
            check_wall: true,
            mem_tolerance_pct: 15.0,
            check_mem: true,
            allow_subset: false,
        }
    }
}

/// Verdict on one (circuit, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Unchanged (within epsilon / tolerance).
    Ok,
    /// Strictly better than the baseline.
    Improved,
    /// Worse than the baseline — fails the gate.
    Regressed,
    /// Present in the baseline, missing from the current artifact —
    /// fails the gate (the telemetry contract regressed).
    Missing,
    /// A plan digest that differs from the baseline's — fails the gate
    /// (the retimings changed, whatever the counts say).
    Changed,
    /// Circuit not in the current artifact of a *declared* subset run
    /// ([`CompareConfig::allow_subset`]) — informational.
    Skipped,
    /// Circuit not in the current artifact of a run that should cover
    /// the whole baseline — fails the gate (coverage silently shrank).
    Dropped,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "REGRESSED",
            Status::Missing => "MISSING",
            Status::Changed => "CHANGED",
            Status::Skipped => "skipped",
            Status::Dropped => "DROPPED",
        }
    }

    fn fails(self) -> bool {
        matches!(
            self,
            Status::Regressed | Status::Missing | Status::Changed | Status::Dropped
        )
    }
}

/// One line of the diff.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Circuit name.
    pub circuit: String,
    /// Metric name (`"-"` for circuit-level notes).
    pub metric: String,
    /// Baseline value: a number, or a plan digest's hex string.
    pub base: Option<Value>,
    /// Current value, likewise.
    pub current: Option<Value>,
    /// Verdict.
    pub status: Status,
}

/// The full diff of two artifacts.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One finding per checked (circuit, metric) pair.
    pub findings: Vec<Finding>,
    /// Circuits compared (present in both artifacts).
    pub compared: usize,
    /// Baseline circuits skipped (absent from a declared subset run).
    pub skipped: usize,
}

impl Comparison {
    /// Whether the gate passes: no regressed and no missing metrics.
    pub fn pass(&self) -> bool {
        !self.findings.iter().any(|f| f.status.fails())
    }

    /// The human-readable table: every failing finding, plus improved
    /// metrics, plus a one-line summary.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<16} {:>12} {:>12}  {}\n",
            "circuit", "metric", "base", "current", "status"
        ));
        let fmt = |v: &Option<Value>| match v {
            Some(Value::Float(n)) => format!("{n:.3}"),
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        let mut shown = 0;
        for f in &self.findings {
            if matches!(f.status, Status::Ok) {
                continue;
            }
            shown += 1;
            out.push_str(&format!(
                "{:<10} {:<16} {:>12} {:>12}  {}\n",
                f.circuit,
                f.metric,
                fmt(&f.base),
                fmt(&f.current),
                f.status.label()
            ));
        }
        if shown == 0 {
            out.push_str("(all metrics unchanged)\n");
        }
        let failures = self.findings.iter().filter(|f| f.status.fails()).count();
        out.push_str(&format!(
            "{} circuit(s) compared, {} skipped, {} finding(s) checked, {} failure(s): {}\n",
            self.compared,
            self.skipped,
            self.findings.len(),
            failures,
            if self.pass() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// The machine-readable verdict as one JSON object.
    pub fn to_json(&self) -> String {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let json =
                    |v: &Option<Value>| v.as_ref().map_or("null".to_string(), Value::to_json);
                format!(
                    "{{\"circuit\":\"{}\",\"metric\":\"{}\",\"base\":{},\
                     \"current\":{},\"status\":\"{}\"}}",
                    lacr_obs::json_escape(&f.circuit),
                    lacr_obs::json_escape(&f.metric),
                    json(&f.base),
                    json(&f.current),
                    f.status.label()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"t\":\"bench_compare\",\"schema_version\":{},\"pass\":{},\
             \"compared\":{},\"skipped\":{},\"findings\":[{findings}]}}",
            lacr_obs::SCHEMA_VERSION,
            self.pass(),
            self.compared,
            self.skipped
        )
    }
}

/// The soft-gate verdict: growth beyond `tolerance_pct` regresses, any
/// shrink is an improvement, drift inside the band is Ok.
fn soft_status(b: f64, c: f64, tolerance_pct: f64) -> Status {
    if c > b * (1.0 + tolerance_pct / 100.0) {
        Status::Regressed
    } else if c < b {
        Status::Improved
    } else {
        Status::Ok
    }
}

/// Diffs `current` against `base` under `config`.
pub fn compare(base: &RunArtifact, current: &RunArtifact, config: &CompareConfig) -> Comparison {
    let mut findings = Vec::new();
    let mut compared = 0;
    let mut skipped = 0;
    for bc in &base.circuits {
        let Some(cc) = current.circuit(&bc.name) else {
            // The direction matters: absence from a *declared* subset
            // run is a skip; absence from a run that should cover the
            // baseline means coverage silently shrank — fail the gate.
            let status = if config.allow_subset {
                skipped += 1;
                Status::Skipped
            } else {
                Status::Dropped
            };
            findings.push(Finding {
                circuit: bc.name.clone(),
                metric: "-".into(),
                base: None,
                current: None,
                status,
            });
            continue;
        };
        compared += 1;
        for &metric in GATED_METRICS {
            let Some(b) = bc.get(metric) else {
                continue; // the baseline never had it — nothing to gate
            };
            let status = match cc.get(metric) {
                None => Status::Missing,
                Some(c) if c > b + b.abs() * REL_EPS => Status::Regressed,
                Some(c) if c < b - b.abs() * REL_EPS => Status::Improved,
                Some(_) => Status::Ok,
            };
            findings.push(Finding {
                circuit: bc.name.clone(),
                metric: metric.into(),
                base: Some(Value::Float(b)),
                current: cc.get(metric).map(Value::Float),
                status,
            });
        }
        if let Some(b) = &bc.plan_digest {
            let status = match &cc.plan_digest {
                None => Status::Missing,
                Some(c) if c != b => Status::Changed,
                Some(_) => Status::Ok,
            };
            findings.push(Finding {
                circuit: bc.name.clone(),
                metric: "plan_digest".into(),
                base: Some(Value::Str(b.clone())),
                current: cc.plan_digest.clone().map(Value::Str),
                status,
            });
        }
        if config.check_wall {
            if let (Some(b), Some(c)) = (bc.get("wall_s"), cc.get("wall_s")) {
                findings.push(Finding {
                    circuit: bc.name.clone(),
                    metric: "wall_s".into(),
                    base: Some(Value::Float(b)),
                    current: Some(Value::Float(c)),
                    status: soft_status(b, c, config.wall_tolerance_pct),
                });
            }
        }
        // Per-circuit peak footprint, where the artifact carries it
        // (schema ≥ 2): soft like wall-clock, since allocation volume is
        // allocator-version sensitive even when planning is bit-stable.
        if config.check_mem {
            if let (Some(b), Some(c)) = (bc.get("peak_bytes"), cc.get("peak_bytes")) {
                findings.push(Finding {
                    circuit: bc.name.clone(),
                    metric: "peak_bytes".into(),
                    base: Some(Value::Float(b)),
                    current: Some(Value::Float(c)),
                    status: soft_status(b, c, config.mem_tolerance_pct),
                });
            }
        }
    }
    // Artifact-level process peak: the whole run's high-water mark, from
    // the record's `mem` block. Baselines without one are not gated.
    if config.check_mem {
        if let (Some(b), Some(c)) = (base.mem_peak_bytes, current.mem_peak_bytes) {
            findings.push(Finding {
                circuit: "(process)".into(),
                metric: "mem.peak_bytes".into(),
                base: Some(Value::Float(b)),
                current: Some(Value::Float(c)),
                status: soft_status(b, c, config.mem_tolerance_pct),
            });
        }
    }
    Comparison {
        findings,
        compared,
        skipped,
    }
}

/// The CLI driver behind the `bench_compare` binary: parses `<base>
/// <current> [--no-wall] [--wall-tolerance <pct>] [--no-mem]
/// [--mem-tolerance <pct>] [--subset] [--json <out>]`, prints the human
/// table, and returns whether the gate passed. `--subset` declares the
/// current artifact a deliberate subset run, so baseline circuits it
/// omits are skipped instead of failing as dropped.
///
/// # Errors
///
/// A usage or I/O message suitable for stderr.
pub fn cli_main(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut config = CompareConfig::default();
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-wall" => config.check_wall = false,
            "--no-mem" => config.check_mem = false,
            "--subset" => config.allow_subset = true,
            "--wall-tolerance" => {
                config.wall_tolerance_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--wall-tolerance needs a numeric percentage")?;
            }
            "--mem-tolerance" => {
                config.mem_tolerance_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--mem-tolerance needs a numeric percentage")?;
            }
            "--json" => json_out = it.next().cloned(),
            other => paths.push(other.to_string()),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        return Err("usage: bench_compare <base.json> <current.json> \
             [--no-wall] [--wall-tolerance <pct>] [--no-mem] \
             [--mem-tolerance <pct>] [--subset] [--json <out>]"
            .to_string());
    };
    let load = |path: &str| -> Result<RunArtifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_artifact(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(base_path)?;
    let current = load(cur_path)?;
    if base.bench != current.bench {
        return Err(format!(
            "artifacts are different benches ({} vs {})",
            base.bench, current.bench
        ));
    }
    let cmp = compare(&base, &current, &config);
    println!(
        "bench_compare: {} ({} @ {}) vs ({} @ {})",
        base.bench,
        base_path,
        base.git_rev.as_deref().unwrap_or("?"),
        cur_path,
        current.git_rev.as_deref().unwrap_or("?"),
    );
    print!("{}", cmp.table());
    if let Some(out) = json_out {
        std::fs::write(&out, format!("{}\n", cmp.to_json())).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(cmp.pass())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = include_str!("../tests/fixtures/run_base.json");
    const REGRESSED: &str = include_str!("../tests/fixtures/run_regressed.json");

    #[test]
    fn parses_the_fixture_artifact() {
        let a = parse_artifact(BASE).expect("base fixture parses");
        assert_eq!(a.bench, "table1");
        assert_eq!(a.schema_version, 1);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.git_rev.as_deref(), Some("0123456789ab"));
        assert_eq!(a.circuits.len(), 3);
        let s344 = a.circuit("s344").expect("s344 present");
        // quality-block value wins over any top-level duplicate.
        assert_eq!(s344.get("lac_n_foa"), Some(2.0));
        assert_eq!(s344.get("wall_s"), Some(1.0));
    }

    #[test]
    fn rejects_unversioned_and_future_artifacts() {
        let unversioned = "{\"bench\":\"table1\",\"circuits\":[]}";
        assert!(parse_artifact(unversioned)
            .unwrap_err()
            .contains("schema_version"));
        let future = "{\"schema_version\":999,\"bench\":\"t\",\"circuits\":[]}";
        assert!(parse_artifact(future).unwrap_err().contains("newer"));
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = parse_artifact(BASE).unwrap();
        let cmp = compare(&a, &a, &CompareConfig::default());
        assert!(cmp.pass(), "{}", cmp.table());
        assert_eq!(cmp.compared, 3);
        assert_eq!(cmp.skipped, 0);
    }

    #[test]
    fn quality_regressions_fail_the_gate() {
        let base = parse_artifact(BASE).unwrap();
        let bad = parse_artifact(REGRESSED).unwrap();
        let cmp = compare(&base, &bad, &CompareConfig::default());
        assert!(!cmp.pass(), "{}", cmp.table());
        // s344's lac_n_foa went 2 → 5: a hard quality failure.
        assert!(cmp.findings.iter().any(|f| {
            f.circuit == "s344" && f.metric == "lac_n_foa" && f.status == Status::Regressed
        }));
        // s382 dropped its route_overflow metric entirely.
        assert!(cmp.findings.iter().any(|f| {
            f.circuit == "s382" && f.metric == "route_overflow" && f.status == Status::Missing
        }));
        // s526's wall_s grew 1.0 → 1.5, beyond the ±15% tolerance.
        assert!(cmp.findings.iter().any(|f| {
            f.circuit == "s526" && f.metric == "wall_s" && f.status == Status::Regressed
        }));
    }

    #[test]
    fn wall_clock_gate_is_soft_and_optional() {
        let base = parse_artifact(BASE).unwrap();
        let bad = parse_artifact(REGRESSED).unwrap();
        // Without the wall gate, only the two quality failures remain.
        let cmp = compare(
            &base,
            &bad,
            &CompareConfig {
                check_wall: false,
                ..Default::default()
            },
        );
        assert!(!cmp.findings.iter().any(|f| f.metric == "wall_s"));
        assert!(!cmp.pass());
        // A generous tolerance forgives the 50% slowdown.
        let cmp = compare(
            &base,
            &bad,
            &CompareConfig {
                wall_tolerance_pct: 100.0,
                check_wall: true,
                ..Default::default()
            },
        );
        assert!(!cmp
            .findings
            .iter()
            .any(|f| f.metric == "wall_s" && f.status.fails()));
    }

    #[test]
    fn memory_gate_is_soft_and_fails_inflated_peaks() {
        // Schema-v1 fixtures carry no mem block: nothing to gate.
        let base = parse_artifact(BASE).unwrap();
        assert_eq!(base.mem_peak_bytes, None);
        let cmp = compare(&base, &base, &CompareConfig::default());
        assert!(!cmp.findings.iter().any(|f| f.metric == "mem.peak_bytes"));
        // Grow peaks onto clones: within tolerance passes, beyond fails.
        let mut with_mem = base.clone();
        with_mem.mem_peak_bytes = Some(100.0e6);
        with_mem.circuits[0]
            .metrics
            .push(("peak_bytes".into(), 10.0e6));
        let mut ok = with_mem.clone();
        ok.mem_peak_bytes = Some(110.0e6); // +10% < 15% tolerance
        ok.circuits[0].metrics.last_mut().unwrap().1 = 11.0e6;
        let cmp = compare(&with_mem, &ok, &CompareConfig::default());
        assert!(cmp.pass(), "{}", cmp.table());
        // The negative control: an inflated peak must FAIL the gate.
        let mut bad = with_mem.clone();
        bad.mem_peak_bytes = Some(200.0e6); // +100% ≫ 15% tolerance
        let cmp = compare(&with_mem, &bad, &CompareConfig::default());
        assert!(!cmp.pass(), "inflated process peak must fail");
        assert!(cmp.findings.iter().any(|f| {
            f.circuit == "(process)"
                && f.metric == "mem.peak_bytes"
                && f.status == Status::Regressed
        }));
        // Per-circuit inflation fails the same way.
        let mut bad_circuit = with_mem.clone();
        bad_circuit.circuits[0].metrics.last_mut().unwrap().1 = 20.0e6;
        let cmp = compare(&with_mem, &bad_circuit, &CompareConfig::default());
        assert!(!cmp.pass());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.metric == "peak_bytes" && f.status == Status::Regressed));
        // `--no-mem` semantics: the gate disappears entirely.
        let cmp = compare(
            &with_mem,
            &bad,
            &CompareConfig {
                check_mem: false,
                ..Default::default()
            },
        );
        assert!(cmp.pass());
        assert!(!cmp.findings.iter().any(|f| f.metric.contains("peak")));
        // A generous tolerance forgives the doubling, mirroring wall_s.
        let cmp = compare(
            &with_mem,
            &bad,
            &CompareConfig {
                mem_tolerance_pct: 150.0,
                ..Default::default()
            },
        );
        assert!(cmp.pass());
    }

    #[test]
    fn mem_blocks_parse_from_artifacts() {
        let text = r#"{"t":"run","schema_version":2,"bench":"table1",
            "mem":{"live_bytes":1,"peak_bytes":5000000,"allocs":9,"deallocs":8,"peak_rss_bytes":0},
            "circuits":[{"circuit":"s344","wall_s":1.0,
                "mem":{"peak_bytes":2000000,"net_bytes":100,"allocs":50}}]}"#;
        let a = parse_artifact(text).expect("schema-2 artifact parses");
        assert_eq!(a.mem_peak_bytes, Some(5_000_000.0));
        let c = a.circuit("s344").expect("s344 present");
        assert_eq!(c.get("peak_bytes"), Some(2_000_000.0));
        assert_eq!(c.get("allocs"), Some(50.0));
    }

    /// The `stress` record: one circuit whose quality block the hard
    /// gates read and whose `mem` block the soft gate reads.
    #[test]
    fn the_stress_record_is_gated_like_a_run() {
        let text = r#"{"t":"bench","schema_version":2,"bench":"stress","threads":1,
            "git_rev":"0123456789ab","wall_s":31.4,
            "circuits":[{"circuit":"s5378","wall_s":31.4,"plan_s":20.0,"retime_s":11.4,
                "vertices":53939,"edges":56965,
                "mem":{"peak_bytes":330000000,"net_bytes":100,"allocs":50},
                "quality":{"t_min_ns":13.387,"t_clk_ns":16.090,"base_n_foa":736,
                    "lac_n_foa":457,"n_wr":4}}],
            "mem":{"live_bytes":1,"peak_bytes":331000000,"allocs":9,"deallocs":8,"peak_rss_bytes":0}}"#;
        let base = parse_artifact(text).expect("stress record parses");
        assert_eq!(base.bench, "stress");
        let c = base.circuit("s5378").expect("one circuit entry");
        for (metric, value) in [
            ("t_min_ns", 13.387),
            ("t_clk_ns", 16.09),
            ("base_n_foa", 736.0),
            ("lac_n_foa", 457.0),
            ("n_wr", 4.0),
            ("peak_bytes", 330.0e6),
        ] {
            assert_eq!(c.get(metric), Some(value), "{metric}");
        }
        let no_wall = CompareConfig {
            check_wall: false,
            ..Default::default()
        };
        assert!(compare(&base, &base, &no_wall).pass());
        // A worse clock or more violations fail; so does a doubled peak.
        for (metric, value) in [
            ("t_clk_ns", 16.1),
            ("lac_n_foa", 458.0),
            ("peak_bytes", 660.0e6),
        ] {
            let mut worse = base.clone();
            worse.circuits[0]
                .metrics
                .iter_mut()
                .find(|(m, _)| m == metric)
                .expect("metric present")
                .1 = value;
            let cmp = compare(&base, &worse, &no_wall);
            assert!(!cmp.pass(), "{metric}: {}", cmp.table());
        }
    }

    #[test]
    fn declared_subset_runs_skip_missing_circuits() {
        let base = parse_artifact(BASE).unwrap();
        let mut subset = base.clone();
        subset.circuits.retain(|c| c.name == "s344");
        let cmp = compare(
            &base,
            &subset,
            &CompareConfig {
                allow_subset: true,
                ..Default::default()
            },
        );
        assert!(cmp.pass(), "declared-subset skips are not failures");
        assert_eq!(cmp.compared, 1);
        assert_eq!(cmp.skipped, 2);
        assert_eq!(
            cmp.findings
                .iter()
                .filter(|f| f.status == Status::Skipped)
                .count(),
            2
        );
    }

    #[test]
    fn silently_dropped_circuits_fail_the_gate() {
        // Same shrunken artifact, but without declaring a subset run:
        // the missing circuits are dropped coverage, a hard failure.
        let base = parse_artifact(BASE).unwrap();
        let mut shrunk = base.clone();
        shrunk.circuits.retain(|c| c.name == "s344");
        let cmp = compare(&base, &shrunk, &CompareConfig::default());
        assert!(!cmp.pass(), "dropped circuits must fail: {}", cmp.table());
        assert_eq!(cmp.compared, 1);
        assert_eq!(cmp.skipped, 0, "drops are not counted as skips");
        for name in ["s382", "s526"] {
            assert!(cmp
                .findings
                .iter()
                .any(|f| f.circuit == name && f.status == Status::Dropped));
        }
    }

    #[test]
    fn superset_runs_pass_in_both_modes() {
        // The other direction: the current artifact covers *more* than
        // the baseline. Extra circuits are never failures.
        let full = parse_artifact(BASE).unwrap();
        let mut baseline = full.clone();
        baseline.circuits.retain(|c| c.name == "s344");
        for config in [
            CompareConfig::default(),
            CompareConfig {
                allow_subset: true,
                ..Default::default()
            },
        ] {
            let cmp = compare(&baseline, &full, &config);
            assert!(cmp.pass(), "superset run failed: {}", cmp.table());
            assert_eq!(cmp.compared, 1);
            assert_eq!(cmp.skipped, 0);
        }
    }

    #[test]
    fn a_changed_plan_digest_fails_the_gate() {
        let with_digest = |digest: &str| {
            parse_artifact(&format!(
                r#"{{"schema_version":2,"bench":"table1","circuits":[{{"circuit":"s344",
                    "quality":{{"lac_n_foa":2,"plan_digest":"{digest}"}}}}]}}"#
            ))
            .expect("artifact parses")
        };
        let base = with_digest("5dc456d13623515c");
        assert_eq!(
            base.circuit("s344").unwrap().plan_digest.as_deref(),
            Some("5dc456d13623515c")
        );
        assert!(compare(&base, &base, &CompareConfig::default()).pass());
        // One hex digit differs while every count matches: a new plan.
        let cmp = compare(
            &base,
            &with_digest("5dc456d13623515d"),
            &CompareConfig::default(),
        );
        assert!(!cmp.pass(), "{}", cmp.table());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.metric == "plan_digest" && f.status == Status::Changed));
        assert!(cmp.table().contains("5dc456d13623515d  CHANGED"));
        assert!(parse_json(&cmp.to_json()).is_ok());
        // A current artifact that lost the digest fails as missing.
        let mut lost = base.clone();
        lost.circuits[0].plan_digest = None;
        assert!(!compare(&base, &lost, &CompareConfig::default()).pass());
    }

    #[test]
    fn baselines_without_a_plan_digest_are_not_gated_on_it() {
        let base = parse_artifact(BASE).unwrap();
        assert!(base.circuits.iter().all(|c| c.plan_digest.is_none()));
        let mut current = base.clone();
        for c in &mut current.circuits {
            c.plan_digest = Some("0123456789abcdef".into());
        }
        let cmp = compare(&base, &current, &CompareConfig::default());
        assert!(cmp.pass(), "{}", cmp.table());
        assert!(!cmp.findings.iter().any(|f| f.metric == "plan_digest"));
    }

    #[test]
    fn verdict_json_is_parseable() {
        let base = parse_artifact(BASE).unwrap();
        let bad = parse_artifact(REGRESSED).unwrap();
        let cmp = compare(&base, &bad, &CompareConfig::default());
        let v = parse_json(&cmp.to_json()).expect("verdict parses");
        assert_eq!(v.get("t").and_then(Json::as_str), Some("bench_compare"));
        assert_eq!(v.get("pass"), Some(&Json::Bool(false)));
        assert!(v
            .get("findings")
            .and_then(Json::as_arr)
            .is_some_and(|f| !f.is_empty()));
    }
}
