//! Wall-clock benchmarks of the substrate kernels: min-cost flow,
//! partitioning, sequence-pair packing + annealing, global routing and the
//! repeater DP.

use lacr_floorplan::anneal::{floorplan, FloorplanConfig};
use lacr_floorplan::seqpair::SequencePair;
use lacr_floorplan::tiles::{CapacityLedger, TileGrid, TileGridConfig};
use lacr_floorplan::{BlockSpec, Floorplan};
use lacr_mcmf::{Constraint, DualSolver};
use lacr_netlist::bench89;
use lacr_partition::{partition, PartitionConfig};
use lacr_prng::bench::Harness;
use lacr_prng::Rng;
use lacr_repeater::try_insert_repeaters;
use lacr_route::{try_route, NetPins, RouteConfig};
use lacr_timing::Technology;

fn bench_flow(c: &mut Harness) {
    // A ring + chords constraint system with a balanced cost vector.
    let n = 400usize;
    let mut rng = Rng::seed_from_u64(17);
    let mut cons = Vec::new();
    for i in 0..n {
        cons.push(Constraint::new(i, (i + 1) % n, rng.gen_range(0..4)));
    }
    for _ in 0..3 * n {
        cons.push(Constraint::new(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..6),
        ));
    }
    let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-8..=8)).collect();
    let s: i64 = cost.iter().sum();
    cost[0] -= s;
    c.bench_function("mcmf_dual_solver_cold_400v", |b| {
        b.iter(|| {
            DualSolver::new(n, &cons)
                .and_then(|mut solver| solver.solve(&cost))
                .expect("bounded")
        })
    });
}

fn bench_partition(c: &mut Harness) {
    let circuit = bench89::generate("s953").expect("known circuit");
    c.bench_function("partition_s953_8way", |b| {
        b.iter(|| {
            partition(
                &circuit,
                &PartitionConfig {
                    num_blocks: 8,
                    ..Default::default()
                },
            )
        })
    });
}

fn bench_floorplan(c: &mut Harness) {
    let blocks: Vec<BlockSpec> = (0..12)
        .map(|i| BlockSpec::soft(1e6 + 2e5 * i as f64))
        .collect();
    let sp = SequencePair::identity(blocks.len());
    let w: Vec<f64> = blocks.iter().map(|b| b.width).collect();
    let h: Vec<f64> = blocks.iter().map(|b| b.height).collect();
    c.bench_function("seqpair_pack_12", |b| b.iter(|| sp.pack(&w, &h)));
    let mut g = c.benchmark_group("floorplan");
    g.sample_size(10);
    g.bench_function("anneal_12_blocks_2k_moves", |b| {
        b.iter(|| {
            floorplan(
                &blocks,
                &[],
                &FloorplanConfig {
                    moves: 2_000,
                    ..Default::default()
                },
            )
        })
    });
    g.finish();
}

fn bench_route(c: &mut Harness) {
    let mut rng = Rng::seed_from_u64(7);
    let (nx, ny) = (16usize, 16usize);
    let nets: Vec<NetPins> = (0..200)
        .map(|_| NetPins {
            driver: rng.gen_range(0..nx * ny),
            sinks: (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..nx * ny))
                .collect(),
        })
        .collect();
    c.bench_function("route_200nets_16x16", |b| {
        b.iter(|| try_route(nx, ny, &nets, &RouteConfig::default()).unwrap())
    });
}

fn bench_repeater(c: &mut Harness) {
    let fp = Floorplan {
        blocks: vec![],
        chip_w: 16_000.0,
        chip_h: 500.0,
    };
    let grid = TileGrid::build(&fp, &[], &TileGridConfig::default());
    let tech = Technology::default();
    let path: Vec<usize> = (0..32).collect();
    c.bench_function("repeater_dp_32cell_path", |b| {
        b.iter(|| {
            let mut ledger = CapacityLedger::new(&grid);
            try_insert_repeaters(&path, &grid, &mut ledger, &tech).unwrap()
        })
    });
}

lacr_prng::bench_group!(
    benches,
    bench_flow,
    bench_partition,
    bench_floorplan,
    bench_route,
    bench_repeater
);
lacr_prng::bench_main!(benches);
