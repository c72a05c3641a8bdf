//! Integration test: planning `s344` under a capture sink emits a span
//! for every pipeline stage, in pipeline order, with balanced nesting
//! (no orphaned opens), no span per item, and the headline counters
//! populated.

use lacr_core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
use lacr_floorplan::anneal::FloorplanConfig;
use lacr_netlist::bench89;
use lacr_obs::sink::Record;

#[test]
fn s344_pipeline_emits_stage_spans_in_order() {
    let circuit = bench89::generate("s344").expect("known benchmark");
    let config = PlannerConfig {
        floorplan: FloorplanConfig {
            moves: 1_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let ((n_foa, n_wr), records, report) = lacr_obs::run_captured(|| {
        let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan builds");
        let report = try_plan_retimings(&plan, &config).expect("retiming succeeds");
        (report.lac.result.n_foa, report.lac.result.n_wr)
    });
    assert!(n_foa >= 0);

    // Every stage of the pipeline must open exactly one top-level span,
    // and the first open of each stage must respect pipeline order.
    let stage_order = [
        "plan.partition",
        "plan.floorplan",
        "plan.route",
        "plan.expand",
        "plan.timing",
        "plan.constraints",
        "plan.minarea",
        "plan.lac",
    ];
    let first_open = |stage: &str| {
        records
            .iter()
            .position(|(_, r)| matches!(r, Record::SpanOpen { name, .. } if name == stage))
            .unwrap_or_else(|| panic!("no span_open for stage {stage}"))
    };
    let positions: Vec<usize> = stage_order.iter().map(|s| first_open(s)).collect();
    for (w, stages) in positions.windows(2).zip(stage_order.windows(2)) {
        assert!(
            w[0] < w[1],
            "stage {} opened after {} (records {} vs {})",
            stages[0],
            stages[1],
            w[0],
            w[1]
        );
    }

    // Span opens and closes balance like parentheses: each close matches
    // the most recent open by name, and nothing is left open at the end.
    let mut stack: Vec<&str> = Vec::new();
    for (_, r) in &records {
        match r {
            Record::SpanOpen { name, depth, .. } => {
                assert_eq!(*depth, stack.len(), "open {name} at wrong depth");
                stack.push(name);
            }
            Record::SpanClose { name, .. } => {
                let open = stack.pop().expect("close without open");
                assert_eq!(open, name, "mismatched span close");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "orphaned span opens: {stack:?}");

    // The aggregated report carries the headline metrics of each stage.
    for stage in stage_order {
        let stat = report
            .span(stage)
            .unwrap_or_else(|| panic!("report missing span {stage}"));
        assert_eq!(stat.count, 1, "{stage} should run exactly once");
        assert!(stat.incl_ns >= stat.excl_ns);
    }
    // Spans time stages and rounds, never single items: no name closes
    // more often than the minimum-area solve, once per LAC round plus
    // the baseline.
    for (name, stat) in &report.spans {
        assert!(
            stat.count <= n_wr as u64 + 1,
            "span {name} closed {} times for {n_wr} LAC rounds",
            stat.count
        );
    }
    for counter in ["mcmf.ssp_iterations", "mcmf.dijkstra_phases"] {
        assert!(
            report.counter(counter).is_some_and(|v| v > 0),
            "counter {counter} missing or zero"
        );
    }
    // Every repricing is followed by a maximum flow that augments at
    // least once.
    let repricings = report.counter("mcmf.dijkstra_phases").unwrap_or(0);
    let augmentations = report.counter("mcmf.ssp_iterations").unwrap_or(0);
    assert!(
        augmentations >= repricings,
        "{augmentations} augmentations for {repricings} repricings"
    );
    // Exclusive times partition each top-level span's wall-clock: the
    // nested retime spans must not exceed their parents.
    let lac = report.span("plan.lac").unwrap();
    assert!(lac.excl_ns <= lac.incl_ns);
}
