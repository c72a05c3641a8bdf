//! Seeded fault-injection harness for the fail-soft planning pipeline.
//!
//! Every property drives the pipeline with hostile inputs derived
//! deterministically from a seed ([`FaultPlan`]) and asserts the
//! fail-soft contract: each seed yields either a usable
//! (`verify_retiming`-clean) plan or a typed error — **never a panic**.
//! Panics are audited with `catch_unwind`, so an escaping unwind anywhere
//! in the pipeline fails the property with its replay seed.
//!
//! Five fault families × 16 seeded cases = 80 cases per run:
//! corrupted `.bench` text, absurd technology parameters, absurd planner
//! configuration, degenerate random netlists, and zero-capacity /
//! tight-budget planning runs.

use lacr_core::{try_build_physical_plan, try_plan_retimings, LacConfig, PlanError, PlannerConfig};
use lacr_floorplan::anneal::FloorplanConfig;
use lacr_netlist::{bench89, bench_format, Circuit, Sink, Unit};
use lacr_prng::{prop_assert, FaultPlan, Rng};
use lacr_retime::verify_retiming;
use lacr_timing::Technology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Parallel variant of [`lacr_prng::run_property`] for pure (`Fn`)
/// properties: the seeded cases fan out across the deterministic pool
/// (each case's [`Rng`] comes from the same [`lacr_prng::case_seed`]
/// lanes as the sequential driver, so replay seeds are unchanged), and
/// failures are reported for the lowest failing case index regardless of
/// scheduling. `LACR_PROP_REPLAY` falls back to the sequential driver.
fn run_property_par(
    name: &str,
    cases: u64,
    property: impl Fn(&mut Rng) -> Result<(), String> + Sync,
) {
    if std::env::var("LACR_PROP_REPLAY").is_ok() {
        lacr_prng::run_property(name, cases, |rng| property(rng));
        return;
    }
    let seeds: Vec<u64> = (0..cases).map(|c| lacr_prng::case_seed(name, c)).collect();
    let results = lacr_par::Region::new("prop.cases").map_indexed(&seeds, |_, &seed| {
        let mut rng = Rng::seed_from_u64(seed);
        property(&mut rng)
    });
    for (case, result) in results.into_iter().enumerate() {
        if let Err(msg) = result {
            panic!(
                "property `{name}` falsified on case {case}/{cases}:\n  {msg}\n  \
                 replay with: LACR_PROP_REPLAY={:#x} cargo test {name}",
                seeds[case]
            );
        }
    }
}

/// Declares `#[test]` functions whose seeded cases run through
/// [`run_property_par`] — the fan-out counterpart of
/// `lacr_prng::properties!`, with identical seed lanes.
macro_rules! properties_par {
    (
        cases = $cases:expr;
        $(
            $(#[$attr:meta])*
            fn $name:ident($rng:ident) $body:block
        )*
    ) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                run_property_par(
                    stringify!($name),
                    $cases,
                    |$rng: &mut Rng| -> Result<(), String> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// A planner configuration fast enough to run inside a 16-case property.
fn quick_config() -> PlannerConfig {
    PlannerConfig {
        floorplan: FloorplanConfig {
            moves: 300,
            ..Default::default()
        },
        lac: LacConfig {
            max_rounds: 6,
            n_max: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A small but non-trivial sequential circuit (one DFF loop, fanout).
fn tiny_circuit() -> Circuit {
    bench_format::parse(
        "tiny",
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = NAND(a, q)\nh = NOR(g, b)\nz = BUF(h)\n",
    )
    .expect("tiny circuit parses")
}

/// Renders a caught panic payload for the failure report.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the physical-planning front end under `catch_unwind`; `Err` is
/// the escaped panic message.
fn plan_no_panic(
    circuit: &Circuit,
    config: &PlannerConfig,
) -> Result<Result<lacr_core::PhysicalPlan, PlanError>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        try_build_physical_plan(circuit, config, &[])
    }))
    .map_err(panic_message)
}

properties_par! {
    cases = 16;

    /// Corrupted `.bench` text parses to a valid circuit or reports a
    /// typed `ParseBenchError` — the parser never panics, and whatever it
    /// accepts passes `Circuit::validate` or is rejected by the planner's
    /// own validation stage (also without panicking).
    fn corrupted_bench_text_never_panics(rng) {
        let mut fp = FaultPlan::from_rng(rng);
        let base = bench_format::write(&bench89::generate("s344").expect("s344 generates"));
        let hostile = fp.corrupt_text(&base);
        let parsed = catch_unwind(AssertUnwindSafe(|| bench_format::parse("hostile", &hostile)));
        let parsed = match parsed {
            Ok(r) => r,
            Err(p) => {
                return Err(format!("parse panicked: {}", panic_message(p)));
            }
        };
        if let Ok(circuit) = parsed {
            // Whatever the parser vouched for either passes the
            // circuit-level validator or is rejected by the planner with
            // a typed error — never a crash mid-pipeline.
            if !circuit.validate().is_empty() {
                let outcome = plan_no_panic(&circuit, &quick_config())?;
                prop_assert!(
                    outcome.is_err(),
                    "planner accepted a circuit validate() rejects"
                );
            }
        }
    }

    /// Absurd technology parameters (zero / negative / NaN / ±∞ /
    /// magnitude extremes) are rejected with a typed error or survive to
    /// a verifiable plan; the pipeline never panics.
    fn absurd_technology_never_panics(rng) {
        let mut fp = FaultPlan::from_rng(rng);
        let base = Technology::default();
        let tech = Technology {
            unit_res: fp.maybe_absurd(base.unit_res, 0.3),
            unit_cap: fp.maybe_absurd(base.unit_cap, 0.3),
            repeater_delay_ps: fp.maybe_absurd(base.repeater_delay_ps, 0.3),
            repeater_res: fp.maybe_absurd(base.repeater_res, 0.3),
            repeater_cap: fp.maybe_absurd(base.repeater_cap, 0.3),
            repeater_area: fp.maybe_absurd(base.repeater_area, 0.3),
            ff_area: fp.maybe_absurd(base.ff_area, 0.3),
            ff_overhead_ps: fp.maybe_absurd(base.ff_overhead_ps, 0.3),
            l_max: fp.maybe_absurd(base.l_max, 0.3),
            tile_size: fp.maybe_absurd(base.tile_size, 0.3),
            unit_delay_scale: fp.maybe_absurd(base.unit_delay_scale, 0.3),
            unit_area_scale: fp.maybe_absurd(base.unit_area_scale, 0.3),
        };
        let config = PlannerConfig {
            technology: tech,
            ..quick_config()
        };
        let outcome = plan_no_panic(&tiny_circuit(), &config)?;
        if let Ok(plan) = outcome {
            prop_assert!(plan.t_clk >= plan.t_min, "inconsistent plan periods");
        }
    }

    /// Absurd planner-configuration knobs (fractions, weights, penalties)
    /// are rejected at the validation stage or survive to a plan; the
    /// pipeline never panics.
    fn absurd_config_never_panics(rng) {
        let mut fp = FaultPlan::from_rng(rng);
        let base = quick_config();
        let config = PlannerConfig {
            channel_utilization: fp.maybe_absurd(base.channel_utilization, 0.4),
            block_slack: fp.maybe_absurd(base.block_slack, 0.4),
            hard_site_area: fp.maybe_absurd(base.hard_site_area, 0.4),
            pad_ff_per_io: fp.maybe_absurd(base.pad_ff_per_io, 0.4),
            clock_slack_frac: fp.maybe_absurd(base.clock_slack_frac, 0.4),
            lac: LacConfig {
                alpha: fp.maybe_absurd(base.lac.alpha, 0.4),
                ..base.lac
            },
            floorplan: FloorplanConfig {
                wirelength_weight: fp.maybe_absurd(base.floorplan.wirelength_weight, 0.4),
                cooling: fp.maybe_absurd(base.floorplan.cooling, 0.4),
                ..base.floorplan
            },
            ..base
        };
        let _ = plan_no_panic(&tiny_circuit(), &config)?;
    }

    /// Random degenerate netlists — disconnected units, self-loops,
    /// zero/NaN-area blocks, flop-heavy edges, no I/O — are planned or
    /// rejected with a typed error, never a panic.
    fn degenerate_netlists_never_panic(rng) {
        let mut fp = FaultPlan::from_rng(rng);
        let circuit = random_degenerate_circuit(&mut fp);
        let outcome = plan_no_panic(&circuit, &quick_config())?;
        if let Ok(plan) = outcome {
            // Whatever the planner accepted must also retime cleanly or
            // fail with a typed error.
            let report = catch_unwind(AssertUnwindSafe(|| {
                try_plan_retimings(&plan, &quick_config())
            }))
            .map_err(|p| format!("retiming panicked: {}", panic_message(p)))?;
            if let Ok(report) = report {
                prop_assert!(
                    verify_retiming(
                        &plan.expanded.graph,
                        &report.lac.result.outcome,
                        plan.t_clk
                    )
                    .is_ok(),
                    "accepted plan does not verify"
                );
            }
        }
    }

    /// Zero-capacity tiles and near-zero wall-clock budgets force the
    /// degradation ladder end to end: the pipeline returns a degraded but
    /// `verify_retiming`-clean plan (or a typed error), and never panics.
    fn zero_capacity_and_tight_budget_degrade(rng) {
        let mut fp = FaultPlan::from_rng(rng);
        let mut config = quick_config();
        // Starve the flip-flop capacity model from a random direction.
        match fp.rng().gen_range(0..3u32) {
            0 => config.technology.ff_area = 1e6, // bigger than a tile: fits no flop
            1 => config.channel_utilization = 0.0, // no channel capacity
            _ => config.pad_ff_per_io = 0.0,      // no pad-ring capacity
        }
        let ms = fp.rng().gen_range(0..5u64);
        config.budget = lacr_core::Budget::with_timeout(Duration::from_millis(ms));
        let circuit = tiny_circuit();
        let outcome = plan_no_panic(&circuit, &config)?;
        let plan = match outcome {
            Ok(plan) => plan,
            Err(_typed) => return Ok(()),
        };
        let report = catch_unwind(AssertUnwindSafe(|| try_plan_retimings(&plan, &config)))
            .map_err(|p| format!("retiming panicked: {}", panic_message(p)))?;
        if let Ok(report) = report {
            prop_assert!(
                verify_retiming(&plan.expanded.graph, &report.lac.result.outcome, plan.t_clk)
                    .is_ok(),
                "degraded plan does not verify"
            );
        }
    }
}

/// A random, frequently-malformed circuit: a handful of units with
/// possibly absurd areas/delays, random connections including self-loops
/// and disconnected islands, and possibly no inputs or outputs at all.
fn random_degenerate_circuit(fp: &mut FaultPlan) -> Circuit {
    let mut c = Circuit::new("degenerate");
    let n_in = fp.rng().gen_range(0..3usize);
    let n_logic = fp.rng().gen_range(0..7usize);
    let n_out = fp.rng().gen_range(0..3usize);
    let mut ids = Vec::new();
    for i in 0..n_in {
        ids.push(c.add_unit(Unit::input(format!("in{i}"))));
    }
    for i in 0..n_logic {
        let delay = fp.maybe_absurd(1.0 + i as f64, 0.25);
        let area = fp.maybe_absurd(1.0 + i as f64, 0.25);
        ids.push(c.add_unit(Unit::logic(format!("g{i}"), delay, area)));
    }
    let mut outs = Vec::new();
    for i in 0..n_out {
        outs.push(c.add_unit(Unit::output(format!("out{i}"))));
    }
    if ids.is_empty() {
        return c; // no drivers: nothing to connect
    }
    // Random fanout from each unit, occasionally to itself.
    let num_nets = fp.rng().gen_range(0..=ids.len());
    for d in 0..num_nets {
        let driver = ids[d];
        let mut sinks = Vec::new();
        for _ in 0..fp.rng().gen_range(0..3usize) {
            let all: Vec<_> = ids.iter().chain(outs.iter()).copied().collect();
            let target = *fp.rng().choose(&all).expect("non-empty");
            let flops = fp.rng().gen_range(0..4u32);
            sinks.push(Sink::new(target, flops));
        }
        if !sinks.is_empty() {
            c.add_net(driver, sinks);
        }
    }
    c
}
