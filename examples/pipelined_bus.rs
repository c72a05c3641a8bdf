//! Interconnect retiming on a hand-built RT-level design: a DSP-style
//! datapath whose two register banks talk across the chip over a long bus.
//!
//! The paper's motivation: in deep submicron, a cross-chip wire takes
//! multiple clock cycles, so flip-flops must move *into the interconnect*
//! (pipelined signal transmission) without breaking system behaviour —
//! which is exactly what interconnect retiming guarantees. This example
//! builds the netlist with the `lacr` circuit API (no benchmark
//! generator), runs the planner, and shows registers migrating from the
//! producer pipeline into the bus.
//!
//! ```text
//! cargo run --release --example pipelined_bus
//! ```

use lacr::core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
use lacr::netlist::{Circuit, Sink, Unit};

/// A producer pipeline (MAC-like chain), a long bus, and a consumer
/// pipeline, plus a feedback path for an accumulator.
fn build_datapath() -> Circuit {
    let mut c = Circuit::new("pipelined_bus");
    let x_in = c.add_unit(Unit::input("x_in"));
    let coef = c.add_unit(Unit::input("coef"));
    let y_out = c.add_unit(Unit::output("y_out"));

    // Producer: 4 multiply/accumulate stages, heavily registered at the
    // back (a naive RTL writer put the whole register budget after the
    // last stage).
    let mul = c.add_unit(Unit::logic("mul", 2.0, 260.0));
    let add1 = c.add_unit(Unit::logic("add1", 1.5, 190.0));
    let add2 = c.add_unit(Unit::logic("add2", 1.5, 190.0));
    let sat = c.add_unit(Unit::logic("sat", 1.0, 190.0));
    c.add_net(x_in, vec![Sink::new(mul, 0)]);
    c.add_net(coef, vec![Sink::new(add1, 0)]);
    c.add_net(mul, vec![Sink::new(add1, 0)]);
    c.add_net(add1, vec![Sink::new(add2, 0)]);
    // Four registers piled on one edge: the producer's output FIFO.
    c.add_net(add2, vec![Sink::new(sat, 4)]);

    // Consumer: filter + accumulator with a registered feedback loop.
    let filt = c.add_unit(Unit::logic("filt", 1.8, 210.0));
    let acc = c.add_unit(Unit::logic("acc", 1.2, 190.0));
    let rnd = c.add_unit(Unit::logic("rnd", 0.8, 90.0));
    // The long bus: sat drives filt; the planner will route this across
    // the chip because the partitioner separates the two pipelines.
    c.add_net(sat, vec![Sink::new(filt, 0)]);
    c.add_net(filt, vec![Sink::new(acc, 0)]);
    c.add_net(acc, vec![Sink::new(rnd, 0), Sink::new(acc, 1)]);
    c.add_net(rnd, vec![Sink::new(y_out, 1)]);

    assert!(c.validate().is_empty(), "{:?}", c.validate());
    c
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = build_datapath();
    // Two blocks force the producer and consumer apart; a small chip would
    // not need pipelined wires, so keep the default technology (RT-scale
    // unit areas make even this 8-unit design span millimetres).
    let config = PlannerConfig {
        num_blocks: Some(2),
        // Plan right at the retiming limit so the cross-chip bus genuinely
        // needs in-wire registers.
        clock_slack_frac: 0.0,
        ..Default::default()
    };
    let plan = try_build_physical_plan(&circuit, &config, &[])?;
    println!(
        "chip {:.1} x {:.1} mm, {} interconnect units, {} repeaters on the bus and feedback nets",
        plan.floorplan.chip_w / 1000.0,
        plan.floorplan.chip_h / 1000.0,
        plan.expanded.num_interconnect_units,
        plan.expanded.num_repeaters
    );
    println!(
        "T_init = {:.2} ns (registers parked at the producer output), T_min = {:.2} ns",
        plan.t_init as f64 / 1000.0,
        plan.t_min as f64 / 1000.0
    );

    let report = try_plan_retimings(&plan, &config)?;
    let lac = &report.lac.result;
    println!(
        "after LAC-retiming at T_clk = {:.2} ns: {} flip-flops total, {} now inside wires, {} violations",
        plan.t_clk as f64 / 1000.0,
        lac.n_f,
        lac.n_fn,
        lac.n_foa
    );
    assert!(
        lac.outcome.period <= plan.t_clk,
        "retimed design must meet the target period"
    );
    if lac.n_fn > 0 {
        println!(
            "→ the producer's register pile was redistributed into the cross-chip bus: \
             pipelined signal transmission with behaviour preserved by retiming"
        );
    } else {
        println!("→ the bus was short enough that no wire pipelining was required");
    }
    Ok(())
}
