//! Library-level retiming, without the planner: build a retiming graph by
//! hand, compute the minimum period, then trade flip-flops for area
//! weights with weighted min-area retiming.
//!
//! ```text
//! cargo run --release --example retiming_playground
//! ```

use lacr::retime::{
    generate_period_constraints, min_area_retiming, try_min_period_retiming, MinAreaSolver,
    RetimeGraph, VertexKind,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The classic shape: a host-closed pipeline with all registers at the
    // input boundary.
    //
    //      host --3--> a --0--> b --0--> c --0--> host
    //                   \_________2_______/   (feedback through two regs)
    let mut g = RetimeGraph::new();
    let host = g.add_vertex(VertexKind::Host, 0, 1.0, None);
    g.set_host(host);
    let a = g.add_vertex(VertexKind::Functional, 4, 1.0, Some(0));
    let b = g.add_vertex(VertexKind::Functional, 6, 1.0, Some(1));
    let c = g.add_vertex(VertexKind::Functional, 5, 1.0, Some(2));
    g.add_edge(host, a, 3);
    g.add_edge(a, b, 0);
    g.add_edge(b, c, 0);
    g.add_edge(c, host, 0);
    g.add_edge(c, a, 2);

    let unretimed = g.try_clock_period(&g.weights()).expect("valid circuit");
    let mp = try_min_period_retiming(&g, 0)?.result;
    println!("unretimed period: {unretimed} ps");
    println!(
        "min-period retiming reaches {} ps with r = {:?}",
        mp.period, mp.retiming
    );

    // Min-area at the optimum period.
    let out = min_area_retiming(&g, mp.period)?;
    println!(
        "min-area retiming at {} ps: {} flip-flops, weights {:?}",
        mp.period, out.total_flops, out.weights
    );

    // Weighted: pretend vertex b's tile is crowded — flip-flops charged to
    // b cost 10x. The solver re-places registers while keeping the period.
    let pc = generate_period_constraints(&g, mp.period)?;
    let mut solver = MinAreaSolver::new(&g, &pc)?;
    let crowded = solver.solve(&[1.0, 1.0, 10.0, 1.0])?;
    println!(
        "with A(b) = 10: {} flip-flops, weights {:?} (registers avoid b's fanout)",
        crowded.total_flops, crowded.weights
    );
    assert!(crowded.period <= mp.period);
    Ok(())
}
