//! End-to-end contracts of the flight recorder's automatic triggers.
//!
//! The recorder is always on; these tests arm a temp dump path and
//! drive the two in-library triggers for real: a panic escaping the
//! pipeline (induced with a [`FaultPlan`]-corrupted technology) and a
//! budget whose sticky expiry latch trips mid-plan. Both must leave a
//! postmortem JSONL behind whose header names the trigger.

use lacr_core::planner::{try_build_physical_plan, PlannerConfig};
use lacr_core::Budget;
use lacr_netlist::bench89;
use lacr_prng::FaultPlan;
use lacr_timing::Technology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that arm the process-global dump path.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dump(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lacr_flight_{tag}_{}.jsonl", std::process::id()))
}

/// A technology the validator rejects, derived from a seeded
/// [`FaultPlan`] (falling back to a guaranteed-invalid tile size for
/// seeds whose absurd draws happen to validate).
fn broken_technology(seed: u64) -> Technology {
    let mut fp = FaultPlan::new(seed);
    let base = Technology::default();
    let tech = Technology {
        tile_size: fp.absurd_f64(),
        l_max: fp.absurd_f64(),
        ..base.clone()
    };
    if tech.validate().is_empty() {
        Technology {
            tile_size: -1.0,
            ..base
        }
    } else {
        tech
    }
}

#[test]
fn injected_panic_dumps_a_postmortem() {
    let _g = gate();
    let path = temp_dump("panic");
    let _ = std::fs::remove_file(&path);
    lacr_obs::flight::install_panic_hook();
    lacr_obs::flight::arm(&path);
    let circuit = bench89::generate("s344").expect("known benchmark");
    let config = PlannerConfig {
        technology: broken_technology(0xF11),
        ..PlannerConfig::default()
    };
    // Unwrapping the validation error turns it into an unwind; the hook
    // must dump before the unwind reaches us.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _ = try_build_physical_plan(&circuit, &config, &[]).unwrap();
    }));
    lacr_obs::flight::disarm();
    assert!(unwound.is_err(), "broken technology must panic");
    let text = std::fs::read_to_string(&path).expect("panic postmortem written");
    let header = text.lines().next().expect("header line");
    assert!(header.starts_with("{\"t\":\"flight\""), "{header}");
    assert!(
        header.contains("panic"),
        "reason names the trigger: {header}"
    );
    // The panic itself is in the ring as an event.
    assert!(text.contains("\"name\":\"panic\""), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn budget_expiry_dumps_a_postmortem() {
    let _g = gate();
    let path = temp_dump("budget");
    let _ = std::fs::remove_file(&path);
    lacr_obs::flight::arm(&path);
    let circuit = bench89::generate("s344").expect("known benchmark");
    let config = PlannerConfig {
        budget: Budget::with_timeout(Duration::ZERO),
        ..PlannerConfig::default()
    };
    // An already-expired budget trips the sticky latch at the first
    // round boundary; the plan degrades instead of failing.
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("degraded, not failed");
    lacr_obs::flight::disarm();
    assert!(
        !plan.degradations.is_empty(),
        "zero budget must degrade the plan"
    );
    let text = std::fs::read_to_string(&path).expect("budget postmortem written");
    let header = text.lines().next().expect("header line");
    assert!(header.starts_with("{\"t\":\"flight\""), "{header}");
    assert!(
        header.contains("budget expiry"),
        "reason names the trigger: {header}"
    );
    let _ = std::fs::remove_file(&path);
}
