//! Writing a retiming result back into the RT-level netlist.
//!
//! The planner's contract (§1) is that "correct timing and system
//! behaviors are guaranteed; thus the iterations between high level
//! designs and physical designs can be avoided" — the high-level design
//! receives an updated netlist whose per-connection flip-flop counts
//! reflect the relocations. [`try_retimed_circuit`] produces exactly that: a
//! copy of the input circuit with every connection's flip-flop count
//! replaced by the sum of the retimed weights along its interconnect
//! chain.

use crate::error::{PlanError, PlanErrorKind, Stage};
use crate::expand::ExpandedDesign;
use lacr_netlist::Circuit;

/// Builds the retimed netlist: the input circuit with each connection's
/// flip-flop count updated from `weights` (an edge-weight vector of the
/// expanded graph, e.g. [`lacr_retime::RetimingOutcome::weights`]).
///
/// The total flip-flop count of the result equals the sum of `weights`
/// (every expanded edge belongs to exactly one connection chain).
///
/// # Errors
///
/// Returns a [`PlanError`] at [`Stage::Writeback`] when `weights` is not
/// parallel to the expanded graph, `expanded` was built from a different
/// circuit, or a chain's total weight falls outside `0..=u32::MAX`.
pub fn try_retimed_circuit(
    circuit: &Circuit,
    expanded: &ExpandedDesign,
    weights: &[i64],
) -> Result<Circuit, PlanError> {
    let fail = |msg: String| PlanError::new(Stage::Writeback, PlanErrorKind::Writeback(msg));
    if weights.len() != expanded.graph.num_edges() {
        return Err(fail(format!(
            "weights mismatch: {} weights for {} graph edges",
            weights.len(),
            expanded.graph.num_edges()
        )));
    }
    let num_connections: usize = circuit.nets().iter().map(|n| n.sinks.len()).sum();
    if expanded.connection_chains.len() != num_connections {
        return Err(fail(format!(
            "expansion does not belong to this circuit: {} chains for {} connections",
            expanded.connection_chains.len(),
            num_connections
        )));
    }

    let mut out = circuit.clone();
    let mut chain_iter = expanded.connection_chains.iter();
    for ni in 0..out.num_nets() {
        let num_sinks = out.net(lacr_netlist::NetId(ni as u32)).sinks.len();
        for si in 0..num_sinks {
            let chain = chain_iter.next().expect("chain count checked above");
            let flops: i64 = chain.iter().map(|e| weights[e.index()]).sum();
            if !(0..=i64::from(u32::MAX)).contains(&flops) {
                return Err(fail(format!(
                    "net {ni} sink {si}: illegal chain weight {flops}"
                )));
            }
            out.net_mut(lacr_netlist::NetId(ni as u32)).sinks[si].flops = flops as u32;
        }
    }
    debug_assert_eq!(
        out.num_flops() as i64,
        weights.iter().sum::<i64>(),
        "flip-flop conservation through write-back"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
    use lacr_floorplan::anneal::FloorplanConfig;
    use lacr_netlist::{bench89, bench_format, UnitKind};

    fn quick() -> PlannerConfig {
        PlannerConfig {
            floorplan: FloorplanConfig {
                moves: 800,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn writeback_conserves_and_validates() {
        let cfg = quick();
        let circuit = bench89::generate("s344").unwrap();
        let plan = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();
        let report = try_plan_retimings(&plan, &cfg).unwrap();
        let out = &report.lac.result.outcome;
        let retimed = try_retimed_circuit(&circuit, &plan.expanded, &out.weights).unwrap();
        assert_eq!(retimed.num_flops() as i64, out.total_flops);
        assert_eq!(retimed.num_units(), circuit.num_units());
        assert_eq!(retimed.num_nets(), circuit.num_nets());
        assert!(retimed.validate().is_empty(), "{:?}", retimed.validate());
        // `.bench` is the interchange format: the retimed netlist must
        // re-parse with the same flip-flops and outputs.
        let text = bench_format::write(&retimed);
        let back = bench_format::parse("s344-retimed", &text)
            .unwrap_or_else(|e| panic!("retimed .bench does not re-parse: {e}"));
        assert_eq!(back.num_flops(), retimed.num_flops());
        assert_eq!(
            back.units_of_kind(UnitKind::Output).count(),
            retimed.units_of_kind(UnitKind::Output).count()
        );
    }

    #[test]
    fn identity_weights_reproduce_the_input() {
        let cfg = quick();
        let circuit = bench89::generate("s382").unwrap();
        let plan = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();
        let identity = plan.expanded.graph.weights();
        let same = try_retimed_circuit(&circuit, &plan.expanded, &identity).unwrap();
        // Flop counts per connection are unchanged.
        let orig: Vec<u32> = circuit.edges().map(|e| e.flops).collect();
        let back: Vec<u32> = same.edges().map(|e| e.flops).collect();
        assert_eq!(orig, back);
    }

    #[test]
    fn replanning_the_retimed_circuit_is_already_balanced() {
        // After write-back, the circuit's flip-flops sit where retiming
        // put them, so T_init of a fresh plan should be near the old
        // T_clk rather than the old T_init.
        let cfg = quick();
        let circuit = bench89::generate("s526").unwrap();
        let plan = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();
        let report = try_plan_retimings(&plan, &cfg).unwrap();
        let retimed =
            try_retimed_circuit(&circuit, &plan.expanded, &report.lac.result.outcome.weights)
                .unwrap();
        let plan2 = try_build_physical_plan(&retimed, &cfg, &[]).unwrap();
        assert!(
            plan2.t_init < plan.t_init,
            "rebalanced circuit should start faster: {} !< {}",
            plan2.t_init,
            plan.t_init
        );
    }

    #[test]
    fn try_writeback_reports_typed_errors() {
        let cfg = quick();
        let circuit = bench89::generate("s344").unwrap();
        let plan = try_build_physical_plan(&circuit, &cfg, &[]).unwrap();

        let err = try_retimed_circuit(&circuit, &plan.expanded, &[0, 1, 2]).unwrap_err();
        assert_eq!(err.stage, crate::error::Stage::Writeback);
        assert!(err.to_string().contains("weights mismatch"), "{err}");

        let negative = vec![-1i64; plan.expanded.graph.num_edges()];
        let err = try_retimed_circuit(&circuit, &plan.expanded, &negative).unwrap_err();
        assert!(err.to_string().contains("illegal chain weight"), "{err}");

        let other = bench89::generate("s382").unwrap();
        let err = try_retimed_circuit(&other, &plan.expanded, &plan.expanded.graph.weights())
            .unwrap_err();
        assert!(err.to_string().contains("does not belong"), "{err}");
    }
}
