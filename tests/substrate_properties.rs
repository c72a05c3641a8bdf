//! Property-based tests of the physical-design substrates: floorplanning,
//! tiling, routing, repeater planning, partitioning and netlist I/O.
//!
//! Driven by the in-repo seeded property harness ([`lacr_prng::properties!`]):
//! every case is deterministic and a failure reports its replay seed.

use lacr::floorplan::seqpair::SequencePair;
use lacr::floorplan::tiles::{CapacityLedger, TileGrid, TileGridConfig};
use lacr::floorplan::{BlockSpec, Floorplan, PlacedBlock};
use lacr::netlist::{bench89, bench_format, Circuit, Sink, Unit, UnitKind};
use lacr::partition::{partition, PartitionConfig};
use lacr::repeater::{plan_positions, try_insert_repeaters};
use lacr::route::{try_route, NetPins, RouteConfig};
use lacr::timing::Technology;
use lacr_prng::{prop_assert, prop_assert_eq};

lacr_prng::properties! {
    cases = 64;

    /// Sequence-pair packing never overlaps blocks and never exceeds the
    /// reported chip bounding box.
    fn seqpair_packs_legally(rng) {
        let sp = SequencePair {
            s1: rng.permutation(6),
            s2: rng.permutation(6),
        };
        prop_assert!(sp.is_valid());
        let w: Vec<f64> = (0..6).map(|_| rng.gen_range(1.0f64..20.0)).collect();
        let h: Vec<f64> = (0..6).map(|_| rng.gen_range(1.0f64..20.0)).collect();
        let (pos, cw, ch) = sp.pack(&w, &h);
        for i in 0..6 {
            prop_assert!(pos[i].0 + w[i] <= cw + 1e-9);
            prop_assert!(pos[i].1 + h[i] <= ch + 1e-9);
            for j in i + 1..6 {
                let ow = (pos[i].0 + w[i]).min(pos[j].0 + w[j]) - pos[i].0.max(pos[j].0);
                let oh = (pos[i].1 + h[i]).min(pos[j].1 + h[j]) - pos[i].1.max(pos[j].1);
                prop_assert!(ow <= 1e-9 || oh <= 1e-9, "blocks {i},{j} overlap");
            }
        }
    }

    /// Routing always produces adjacent-cell paths with correct endpoints.
    fn routed_paths_are_valid(rng) {
        let nets: Vec<NetPins> = (0..rng.gen_range(1..8usize))
            .map(|_| NetPins {
                driver: rng.gen_range(0..36usize),
                sinks: (0..rng.gen_range(1..4usize))
                    .map(|_| rng.gen_range(0..36usize))
                    .collect(),
            })
            .collect();
        let r = try_route(6, 6, &nets, &RouteConfig::default()).unwrap();
        for (ni, net) in nets.iter().enumerate() {
            for (si, &sink) in net.sinks.iter().enumerate() {
                let p = &r.nets[ni].sink_paths[si];
                prop_assert_eq!(*p.first().unwrap(), net.driver);
                prop_assert_eq!(*p.last().unwrap(), sink);
                for w in p.windows(2) {
                    let (ax, ay) = (w[0] % 6, w[0] / 6);
                    let (bx, by) = (w[1] % 6, w[1] / 6);
                    prop_assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by), 1);
                }
            }
        }
    }

    /// The repeater DP always honours the interval bound and places the
    /// minimum count under uniform costs.
    fn repeater_dp_honours_interval(rng) {
        let len = rng.gen_range(2usize..40);
        let interval = rng.gen_range(1usize..8);
        let pos = plan_positions(len, interval, |_| 1.0).expect("satisfiable");
        let mut drivers = vec![0usize];
        drivers.extend(&pos);
        drivers.push(len - 1);
        for w in drivers.windows(2) {
            prop_assert!(w[1] > w[0]);
            prop_assert!(w[1] - w[0] <= interval);
        }
        let optimal = (len - 1).div_ceil(interval) - 1;
        prop_assert_eq!(pos.len(), optimal);
    }

    /// Partitioning covers every unit exactly once for any block count.
    fn partition_is_a_cover(rng) {
        let k = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..50);
        let c = bench89::generate("s344").expect("known");
        let p = partition(&c, &PartitionConfig { num_blocks: k, seed, ..Default::default() });
        let mut seen = vec![0u32; c.num_units()];
        for b in &p.blocks {
            for u in &b.units {
                seen[u.index()] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }
}

lacr_prng::properties! {
    cases = 32;

    /// Every cell of a tile grid maps to a tile, capacities are
    /// non-negative, and the ledger's arithmetic is exact.
    fn tile_grid_is_total(rng) {
        // Candidate blocks may overlap in this synthetic input; keep only
        // non-overlapping prefixes to stay a legal floorplan.
        let mut placed: Vec<PlacedBlock> = Vec::new();
        'outer: for _ in 0..rng.gen_range(0..4usize) {
            let cand = PlacedBlock {
                x: rng.gen_range(0.0f64..3000.0),
                y: rng.gen_range(0.0f64..3000.0),
                w: rng.gen_range(400.0f64..2000.0),
                h: rng.gen_range(400.0f64..2000.0),
                hard: false,
            };
            for b in &placed {
                let ow = (b.x + b.w).min(cand.x + cand.w) - b.x.max(cand.x);
                let oh = (b.y + b.h).min(cand.y + cand.h) - b.y.max(cand.y);
                if ow > 0.0 && oh > 0.0 {
                    continue 'outer;
                }
            }
            placed.push(cand);
        }
        let fp = Floorplan { blocks: placed.clone(), chip_w: 6000.0, chip_h: 6000.0 };
        let used = vec![0.0; placed.len()];
        let grid = TileGrid::build(&fp, &used, &TileGridConfig::default());
        for cell in 0..grid.num_cells() {
            let t = grid.tile_of_cell(cell);
            prop_assert!(t.index() < grid.num_tiles());
            prop_assert!(grid.capacity(t) >= 0.0);
        }
        // soft blocks all have a merged tile
        for b in 0..placed.len() {
            prop_assert!(grid.soft_tile_of_block(b).is_some());
        }
    }

    /// Repeater insertion spans exactly the routed length and drains
    /// exactly `count × repeater_area` from the ledger.
    fn repeater_insertion_conserves_length(rng) {
        let len = rng.gen_range(2usize..30);
        let fp = Floorplan { blocks: vec![], chip_w: len as f64 * 500.0, chip_h: 500.0 };
        let grid = TileGrid::build(&fp, &[], &TileGridConfig::default());
        let mut ledger = CapacityLedger::new(&grid);
        let tech = Technology::default();
        let before: f64 = grid.tile_ids().map(|t| ledger.remaining(t)).sum();
        let path: Vec<usize> = (0..len).collect();
        let res = try_insert_repeaters(&path, &grid, &mut ledger, &tech).unwrap();
        let total: f64 = res.segments.iter().map(|s| s.length_um).sum();
        prop_assert!((total - (len - 1) as f64 * 500.0).abs() < 1e-6);
        for s in &res.segments {
            prop_assert!(s.length_um <= tech.l_max + 1e-9);
        }
        let after: f64 = grid.tile_ids().map(|t| ledger.remaining(t)).sum();
        prop_assert!(
            (before - after - res.repeater_cells.len() as f64 * tech.repeater_area).abs() < 1e-6
        );
    }

    /// `.bench` write→parse round-trips preserve flop and I/O counts for
    /// generated circuits.
    fn bench_roundtrip_preserves_structure(rng) {
        let units = rng.gen_range(3usize..25);
        let flops = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..30);
        let spec = bench89::GenSpec::new("prop", units, flops, 2, 2, seed);
        let c = bench89::generate_spec(&spec);
        let text = bench_format::write(&c);
        let c2 = bench_format::parse("prop2", &text).expect("reparse");
        prop_assert_eq!(c.num_flops(), c2.num_flops());
        prop_assert_eq!(
            c.units_of_kind(UnitKind::Input).count(),
            c2.units_of_kind(UnitKind::Input).count()
        );
        prop_assert!(c2.validate().is_empty());
    }
}

#[test]
fn floorplanner_handles_extreme_aspect_blocks() {
    use lacr::floorplan::anneal::{floorplan, FloorplanConfig};
    let blocks = vec![
        BlockSpec::hard(5_000.0, 100.0),
        BlockSpec::soft(1e6),
        BlockSpec::hard(100.0, 5_000.0),
        BlockSpec::soft(2e5),
    ];
    let fp = floorplan(
        &blocks,
        &[],
        &FloorplanConfig {
            moves: 2_000,
            ..Default::default()
        },
        0x00f1_0011,
    );
    assert!(fp.validate(1e-6).is_empty(), "{:?}", fp.validate(1e-6));
}

#[test]
fn circuit_validation_rejects_mixed_failures() {
    let mut c = Circuit::new("bad");
    let a = c.add_unit(Unit::input("x"));
    let g = c.add_unit(Unit::logic("x", f64::NAN, -1.0)); // dup name + bad delay + bad area
    let z = c.add_unit(Unit::output("z"));
    c.add_net(g, vec![Sink::new(z, 0), Sink::new(g, 0)]); // comb self-loop
    let _ = a;
    let problems = c.validate();
    assert!(problems.len() >= 4, "{problems:?}");
}
