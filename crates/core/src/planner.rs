//! The interconnect-planning pipeline of Figure 1.
//!
//! `partition → floorplan → tile grid → global routing → repeater
//! planning → interconnect retiming graph → (min-area | LAC) retiming`,
//! with the floorplan-expansion feedback loop for planning iteration 2
//! (§5: "we expand those congested soft blocks and channel, and then
//! perform another iteration of interconnect planning").

use crate::budget::Budget;
use crate::error::{Degradation, PlanError, PlanErrorKind, Stage};
use crate::expand::{try_expand, ExpandOptions, ExpandedDesign};
use crate::lac::{lac_retiming, score_outcome, LacConfig, LacResult};
use lacr_floorplan::anneal::FloorplanConfig;
use lacr_floorplan::tiles::{CapacityLedger, TileGrid, TileGridConfig, TileKind};
use lacr_floorplan::{try_floorplan, BlockSpec, Floorplan};
use lacr_netlist::{Circuit, UnitKind};
use lacr_partition::{partition, PartitionConfig, Partitioning};
use lacr_retime::{
    feasible_min_area_fallback, generate_period_constraints, try_min_period_retiming, RetimeError,
};
use lacr_route::{try_route, NetPins, RouteConfig, Routing};
use lacr_timing::Technology;
use std::time::{Duration, Instant};

/// Configuration of the whole planner.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Process and library parameters.
    pub technology: Technology,
    /// Number of soft blocks; `None` chooses from the circuit size.
    pub num_blocks: Option<usize>,
    /// Whitespace budget added to each block's required area. The paper's
    /// first-iteration floorplan estimates block area "based on the
    /// original netlist without any physical information", so this slack
    /// is all the room relocated flip-flops initially have.
    pub block_slack: f64,
    /// Floorplanner settings; the annealer's seed derives from
    /// [`Self::seed`].
    pub floorplan: FloorplanConfig,
    /// Global-routing settings.
    pub route: RouteConfig,
    /// Usable fraction of channel/dead-space tiles.
    pub channel_utilization: f64,
    /// Pre-allocated site area per hard-block cell — the paper's
    /// "repeater and flip-flop sites inserted intentionally" in hard
    /// blocks (Alpert et al., reference \[1\] of the paper).
    pub hard_site_area: f64,
    /// Treat the `num_hard_blocks` largest partitions as hard blocks with
    /// fixed (square) dimensions; their only insertion capacity comes from
    /// [`Self::hard_site_area`]. 0 (the default, matching the paper's
    /// experiments) keeps every block soft.
    pub num_hard_blocks: usize,
    /// Pad-ring flip-flop capacity, per primary I/O.
    pub pad_ff_per_io: f64,
    /// `T_clk = T_min + clock_slack_frac · (T_init − T_min)` (§5 uses 0.2).
    pub clock_slack_frac: f64,
    /// LAC loop parameters.
    pub lac: LacConfig,
    /// Interconnect-unit expansion options.
    pub expand: ExpandOptions,
    /// Master seed for partitioning and floorplanning.
    pub seed: u64,
    /// Wall-clock budget for the whole run. Unlimited by default.
    /// The deadline is merged (earliest wins) into the floorplan, route
    /// and LAC stage configs; an expired budget degrades the plan to
    /// best-so-far results instead of aborting.
    pub budget: Budget,
}

impl PlannerConfig {
    /// Checks the numeric parameters for usability. Returns problems;
    /// empty means valid. [`try_build_physical_plan`] rejects invalid
    /// configs with [`PlanErrorKind::InvalidConfig`].
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut frac = |name: &str, v: f64| {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                problems.push(format!("{name} {v} outside [0, 1]"));
            }
        };
        frac("channel_utilization", self.channel_utilization);
        frac("clock_slack_frac", self.clock_slack_frac);
        frac("lac.alpha", self.lac.alpha);
        let mut nonneg = |name: &str, v: f64| {
            if !(v.is_finite() && v >= 0.0) {
                problems.push(format!("{name} {v} is not a finite non-negative number"));
            }
        };
        nonneg("block_slack", self.block_slack);
        nonneg("hard_site_area", self.hard_site_area);
        nonneg("pad_ff_per_io", self.pad_ff_per_io);
        nonneg(
            "floorplan.wirelength_weight",
            self.floorplan.wirelength_weight,
        );
        nonneg(
            "floorplan.initial_temp_frac",
            self.floorplan.initial_temp_frac,
        );
        nonneg("route.overflow_penalty", self.route.overflow_penalty);
        nonneg("route.history_penalty", self.route.history_penalty);
        if !(self.floorplan.cooling.is_finite()
            && self.floorplan.cooling > 0.0
            && self.floorplan.cooling <= 1.0)
        {
            problems.push(format!(
                "floorplan.cooling {} outside (0, 1]",
                self.floorplan.cooling
            ));
        }
        if self.num_blocks == Some(0) {
            problems.push("num_blocks must be at least 1".into());
        }
        if self.lac.max_rounds == 0 {
            problems.push("lac.max_rounds must be at least 1".into());
        }
        if self.lac.n_max == 0 {
            problems.push("lac.n_max must be at least 1".into());
        }
        if self.expand.units_per_span == 0 {
            problems.push("expand.units_per_span must be at least 1".into());
        }
        problems
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            technology: Technology::default(),
            num_blocks: None,
            block_slack: 0.15,
            floorplan: FloorplanConfig {
                moves: 6_000,
                ..Default::default()
            },
            route: RouteConfig::default(),
            channel_utilization: 0.8,
            hard_site_area: 0.0,
            num_hard_blocks: 0,
            pad_ff_per_io: 1.0,
            clock_slack_frac: 0.2,
            lac: LacConfig::default(),
            // Tile-crossing segmentation: every tile a route passes
            // through is a flip-flop site, which LAC retiming needs to
            // relocate flip-flops along wires into tiles with slack.
            expand: ExpandOptions {
                tile_crossing_units: true,
                ..ExpandOptions::default()
            },
            seed: 0x1acc,
            budget: Budget::default(),
        }
    }
}

/// Everything physical planning produces before retiming.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The partitioning into blocks.
    pub partitioning: Partitioning,
    /// The floorplan of those blocks.
    pub floorplan: Floorplan,
    /// The tile grid with capacities.
    pub grid: TileGrid,
    /// Routing cell of each unit.
    pub unit_cell: Vec<usize>,
    /// The global routing of all nets.
    pub routing: Routing,
    /// The expanded retiming graph and tile capacities.
    pub expanded: ExpandedDesign,
    /// Smallest period with the *initial* flip-flop placement (ps) — the
    /// paper's `T_init`.
    pub t_init: u64,
    /// Minimum period achievable by retiming (ps) — the paper's `T_min`.
    pub t_min: u64,
    /// The target period for this planning run (ps).
    pub t_clk: u64,
    /// Quality losses absorbed while building the plan (expired budget,
    /// residual routing overflow, skipped `T_min` search). Empty for a
    /// pristine plan.
    pub degradations: Vec<Degradation>,
}

impl PhysicalPlan {
    /// Whether any stage degraded while building this plan.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// One timed retiming run.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Metrics of the run.
    pub result: LacResult,
    /// Wall-clock time of the retiming itself.
    pub elapsed: Duration,
}

/// The two retiming flavours compared by the paper, plus shared stats.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Min-area retiming baseline, scored against the tile capacities.
    pub min_area: TimedRun,
    /// LAC-retiming.
    pub lac: TimedRun,
    /// Period constraints generated (after pruning).
    pub num_period_constraints: usize,
    /// Violating pairs before pruning.
    pub pairs_before_pruning: usize,
    /// Time to generate the period constraints (shared by both runs).
    pub constraint_time: Duration,
    /// Quality losses absorbed during retiming (fallback solver taken,
    /// LAC budget expiry, residual capacity violations). Empty for a
    /// pristine report.
    pub degradations: Vec<Degradation>,
}

impl PlanReport {
    /// Whether any retiming stage degraded.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// The paper's headline metric: percentage decrease of `N_FOA` from
    /// min-area to LAC. `None` when the baseline has no violations.
    pub fn n_foa_decrease_pct(&self) -> Option<f64> {
        let base = self.min_area.result.n_foa;
        if base == 0 {
            None
        } else {
            Some(100.0 * (base - self.lac.result.n_foa) as f64 / base as f64)
        }
    }
}

/// Builds the physical plan: partition, floorplan (with optional per-block
/// area `growth` from a previous iteration), tile grid, routing, repeater
/// insertion and graph expansion, plus the `T_init`/`T_min`/`T_clk`
/// analysis. Budget expiry degrades the plan
/// ([`PhysicalPlan::degradations`]) instead of running unbounded.
///
/// # Errors
///
/// Every input defect — malformed circuit/technology/config, or a
/// `growth` vector that does not have one entry per block — comes back
/// as a stage-tagged [`PlanError`].
pub fn try_build_physical_plan(
    circuit: &Circuit,
    config: &PlannerConfig,
    growth: &[f64],
) -> Result<PhysicalPlan, PlanError> {
    let tech = &config.technology;
    let problems = tech.validate();
    if !problems.is_empty() {
        return Err(PlanError::new(
            Stage::Validate,
            PlanErrorKind::InvalidTechnology(problems),
        ));
    }
    let problems = circuit.validate();
    if !problems.is_empty() {
        return Err(PlanError::new(
            Stage::Validate,
            PlanErrorKind::InvalidCircuit(problems),
        ));
    }
    let problems = config.validate();
    if !problems.is_empty() {
        return Err(PlanError::new(
            Stage::Validate,
            PlanErrorKind::InvalidConfig(problems),
        ));
    }
    if let Some(g) = growth.iter().find(|g| !(g.is_finite() && **g >= 0.0)) {
        return Err(PlanError::new(
            Stage::Validate,
            PlanErrorKind::InvalidConfig(vec![format!(
                "growth entry {g} is not a finite non-negative number"
            )]),
        ));
    }

    let budget = &config.budget;
    let mut degradations: Vec<Degradation> = Vec::new();
    // The first stage observed past the deadline; later stages still run
    // (each bounded by the same deadline) but the plan is tagged once.
    let mut deadline_hit: Option<Stage> = None;
    let check_deadline = |stage: Stage, hit: &mut Option<Stage>| {
        if hit.is_none() && budget.expired() {
            *hit = Some(stage);
        }
    };

    let logic_units = circuit.units_of_kind(UnitKind::Logic).count();
    let num_blocks = config
        .num_blocks
        .unwrap_or_else(|| (logic_units / 40).clamp(4, 20));

    let span_partition = lacr_obs::span!(
        "plan.partition",
        units = circuit.num_units(),
        blocks = num_blocks
    );
    let partitioning = partition(
        circuit,
        &PartitionConfig {
            num_blocks,
            seed: config.seed,
            ..Default::default()
        },
    );
    let nb = partitioning.blocks.len();
    if !growth.is_empty() && growth.len() != nb {
        return Err(PlanError::new(
            Stage::Partition,
            PlanErrorKind::GrowthMismatch {
                expected: nb,
                got: growth.len(),
            },
        ));
    }
    check_deadline(Stage::Partition, &mut deadline_hit);
    drop(span_partition);
    let span_floorplan = lacr_obs::span!("plan.floorplan", blocks = nb);

    // Block area requirements: scaled functional units plus the *initial*
    // flip-flops (charged to the block of their fanin unit) plus slack.
    let mut unit_area = vec![0.0f64; nb];
    for (b, blk) in partitioning.blocks.iter().enumerate() {
        unit_area[b] = blk
            .units
            .iter()
            .map(|&u| tech.unit_area(circuit.unit(u).area))
            .sum();
    }
    let mut initial_ff_area = vec![0.0f64; nb];
    for e in circuit.edges() {
        let b = partitioning.block_of[e.from.index()];
        initial_ff_area[b] += f64::from(e.flops) * tech.ff_area;
    }
    // The largest `num_hard_blocks` partitions become hard macros.
    let mut by_area: Vec<usize> = (0..nb).collect();
    by_area.sort_by(|&a, &b| {
        (unit_area[b] + initial_ff_area[b]).total_cmp(&(unit_area[a] + initial_ff_area[a]))
    });
    let hard: std::collections::HashSet<usize> = by_area
        .iter()
        .take(config.num_hard_blocks)
        .copied()
        .collect();
    let block_area: Vec<f64> = (0..nb)
        .map(|b| {
            let base = (unit_area[b] + initial_ff_area[b]) * (1.0 + config.block_slack)
                + growth.get(b).copied().unwrap_or(0.0);
            base.max(tech.tile_size * tech.tile_size * 0.25)
        })
        .collect();
    // Technology::validate checks each scale individually, but the
    // *products* (unit area × scale, flops × ff_area) can still overflow
    // to infinity — or underflow to zero for subnormal scales — on
    // extreme-yet-finite inputs. Either would panic `BlockSpec::soft`
    // and poison every stage after it.
    if let Some(b) = (0..nb).find(|&b| !(block_area[b] > 0.0 && block_area[b].is_finite())) {
        return Err(PlanError::new(
            Stage::Validate,
            PlanErrorKind::InvalidConfig(vec![format!(
                "block {b} area is not positive and finite ({:.3e} µm² logic + {:.3e} µm² \
                 flip-flops): technology scales and circuit areas combine out of range",
                unit_area[b], initial_ff_area[b]
            )]),
        ));
    }
    let specs: Vec<BlockSpec> = (0..nb)
        .map(|b| {
            let area = block_area[b];
            if hard.contains(&b) {
                let side = area.sqrt();
                BlockSpec::hard(side, side)
            } else {
                BlockSpec::soft(area)
            }
        })
        .collect();

    // Block-level nets for the floorplanner's wirelength term.
    let block_nets: Vec<Vec<usize>> = circuit
        .nets()
        .iter()
        .map(|net| {
            let mut blocks: Vec<usize> = std::iter::once(net.driver)
                .chain(net.sinks.iter().map(|s| s.unit))
                .map(|u| partitioning.block_of[u.index()])
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            blocks
        })
        .filter(|b| b.len() >= 2)
        .collect();

    let fp_config = FloorplanConfig {
        deadline: budget.min_deadline(config.floorplan.deadline),
        ..config.floorplan.clone()
    };
    let fp = try_floorplan(&specs, &block_nets, &fp_config, config.seed ^ 0xf00d)
        .map_err(|e| PlanError::new(Stage::Floorplan, PlanErrorKind::Floorplan(e)))?;
    debug_assert!(fp.validate(1e-6).is_empty(), "{:?}", fp.validate(1e-6));
    check_deadline(Stage::Floorplan, &mut deadline_hit);
    drop(span_floorplan);
    let span_route = lacr_obs::span!("plan.route", nets = circuit.num_nets());

    // A tiny (yet positive and finite, so `Technology::validate`-clean)
    // tile_size against a large chip yields a cell count that overflows
    // `usize` and would abort on allocation. 2^24 cells is far beyond any
    // realistic planning instance; refuse rather than thrash.
    let cells_x = (fp.chip_w / tech.tile_size).ceil().max(1.0);
    let cells_y = (fp.chip_h / tech.tile_size).ceil().max(1.0);
    const MAX_GRID_CELLS: f64 = (1u64 << 24) as f64;
    if !(cells_x * cells_y).is_finite() || cells_x * cells_y > MAX_GRID_CELLS {
        return Err(PlanError::new(
            Stage::Floorplan,
            PlanErrorKind::InvalidConfig(vec![format!(
                "tile grid of {cells_x:.0} x {cells_y:.0} cells (chip {:.3e} x {:.3e} µm, \
                 tile_size {:.3e} µm) exceeds the 2^24-cell sanity bound",
                fp.chip_w, fp.chip_h, tech.tile_size
            )]),
        ));
    }

    let grid = TileGrid::build(
        &fp,
        &unit_area,
        &TileGridConfig {
            tile_size: tech.tile_size,
            channel_utilization: config.channel_utilization,
            hard_site_area: config.hard_site_area,
        },
    );

    // Deterministic unit placement: a sub-grid inside each block.
    let mut unit_cell = vec![0usize; circuit.num_units()];
    for (b, blk) in partitioning.blocks.iter().enumerate() {
        let placed = &fp.blocks[b];
        let k = blk.units.len().max(1);
        let cols = (k as f64).sqrt().ceil() as usize;
        let rows = k.div_ceil(cols);
        for (i, &u) in blk.units.iter().enumerate() {
            let col = i % cols;
            let row = i / cols;
            let x = placed.x + (col as f64 + 0.5) * placed.w / cols as f64;
            let y = placed.y + (row as f64 + 0.5) * placed.h / rows as f64;
            unit_cell[u.index()] = grid.cell_of_point(x, y);
        }
    }

    let net_pins: Vec<NetPins> = circuit
        .nets()
        .iter()
        .map(|net| NetPins {
            driver: unit_cell[net.driver.index()],
            sinks: net
                .sinks
                .iter()
                .map(|s| unit_cell[s.unit.index()])
                .collect(),
        })
        .collect();
    let route_config = RouteConfig {
        deadline: budget.min_deadline(config.route.deadline),
        ..config.route.clone()
    };
    let routing = try_route(grid.nx(), grid.ny(), &net_pins, &route_config)
        .map_err(|e| PlanError::new(Stage::Route, PlanErrorKind::Route(e)))?;
    check_deadline(Stage::Route, &mut deadline_hit);
    drop(span_route);

    let io_count = circuit.units_of_kind(UnitKind::Input).count()
        + circuit.units_of_kind(UnitKind::Output).count();
    let span_expand = lacr_obs::span!("plan.expand", nets = circuit.num_nets());
    let mut ledger = CapacityLedger::new(&grid);
    let expanded = try_expand(
        circuit,
        tech,
        &grid,
        &mut ledger,
        &unit_cell,
        &routing,
        config.pad_ff_per_io * io_count as f64,
        &config.expand,
    )?;
    drop(span_expand);

    if routing.overflow > 0 {
        degradations.push(Degradation::new(
            Stage::Route,
            format!(
                "routing overflow of {} track-unit(s) remains after rip-up \
                 (max edge usage {} of capacity {})",
                routing.overflow, routing.max_usage, config.route.edge_capacity
            ),
        ));
    }

    let span_timing = lacr_obs::span!("plan.timing");
    let t_init = expanded
        .graph
        .try_clock_period(&expanded.graph.weights())
        .map_err(|e| match e {
            RetimeError::CombinationalCycle => {
                PlanError::new(Stage::Timing, PlanErrorKind::CombinationalCycle)
            }
            other => PlanError::new(Stage::Timing, PlanErrorKind::Retime(other)),
        })?;
    let (t_min, t_clk) = if budget.expired() {
        // No time left for the T_min binary search: plan at the initial
        // period, which any legal retiming (including the identity)
        // satisfies.
        degradations.push(Degradation::new(
            Stage::Timing,
            "wall-clock budget expired: T_min search skipped, T_clk = T_init",
        ));
        (t_init, t_init)
    } else {
        let t_min = try_min_period_retiming(&expanded.graph, 0)
            .map_err(|e| PlanError::new(Stage::Timing, PlanErrorKind::Retime(e)))?
            .result
            .period;
        let t_clk = t_min + ((t_init - t_min) as f64 * config.clock_slack_frac).round() as u64;
        (t_min, t_clk)
    };
    check_deadline(Stage::Timing, &mut deadline_hit);
    drop(span_timing);

    if let Some(stage) = deadline_hit {
        degradations.insert(
            0,
            Degradation::new(
                stage,
                "wall-clock budget expired here; stages ran on best-so-far results",
            ),
        );
    }

    Ok(PhysicalPlan {
        partitioning,
        floorplan: fp,
        grid,
        unit_cell,
        routing,
        expanded,
        t_init,
        t_min,
        t_clk,
        degradations,
    })
}

/// Runs both retimers (min-area baseline and LAC) on a physical plan at
/// its own `T_clk`; see [`try_plan_retimings_at`].
///
/// # Errors
///
/// As [`try_plan_retimings_at`].
pub fn try_plan_retimings(
    plan: &PhysicalPlan,
    config: &PlannerConfig,
) -> Result<PlanReport, PlanError> {
    try_plan_retimings_at(plan, config, plan.t_clk)
}

/// Runs both retimers at an explicit target period (iteration 2 keeps
/// the first iteration's `T_clk`) with the full degradation ladder:
///
/// 1. the min-area baseline falls back to a Bellman-Ford feasible
///    retiming if the min-cost-flow dual solve fails unexpectedly;
/// 2. a LAC run that errors mid-loop falls back to the min-area result;
/// 3. residual capacity violations and LAC budget expiry are reported as
///    [`PlanReport::degradations`] with per-tile overflow diagnostics.
///
/// # Errors
///
/// A [`PlanError`] at [`Stage::MinArea`] when the target period is
/// infeasible ([`RetimeError::PeriodInfeasible`], possible when the plan
/// was built for a different target, as in iteration 2 of planning) or
/// path-delay arithmetic overflows; every other failure degrades the
/// plan instead.
pub fn try_plan_retimings_at(
    plan: &PhysicalPlan,
    config: &PlannerConfig,
    t_clk: u64,
) -> Result<PlanReport, PlanError> {
    let graph = &plan.expanded.graph;
    let caps = &plan.expanded.caps_ff;
    let budget = &config.budget;
    let mut degradations: Vec<Degradation> = Vec::new();

    // Ladder rung 0: the budget is already spent and the target is no
    // tighter than the initial period, so the identity retiming is legal
    // by construction. Return it scored instead of starting the W/D
    // constraint generation — on a budget-truncated floorplan the
    // expanded graph can be enormous, and constraint generation alone
    // would burn minutes the caller explicitly refused to grant.
    if budget.expired() && t_clk >= plan.t_init {
        let weights: Vec<i64> = graph.edges().iter().map(|e| e.weight).collect();
        let identity = lacr_retime::RetimingOutcome {
            total_flops: weights.iter().sum(),
            retiming: vec![0; graph.num_vertices()],
            period: plan.t_init,
            weights,
        };
        let mut result = score_outcome(graph, identity, caps);
        result.n_wr = 0;
        result.timed_out = true;
        degradations.push(Degradation::new(
            Stage::MinArea,
            "wall-clock budget expired before retiming; identity retiming kept",
        ));
        if result.n_foa > 0 {
            degradations.push(Degradation::new(
                Stage::Lac,
                format!(
                    "{} flip-flop(s) still violate local area constraints: {}",
                    result.n_foa,
                    result.occupancy.overflow_summary()
                ),
            ));
        }
        return Ok(PlanReport {
            min_area: TimedRun {
                result: result.clone(),
                elapsed: Duration::ZERO,
            },
            lac: TimedRun {
                result,
                elapsed: Duration::ZERO,
            },
            num_period_constraints: 0,
            pairs_before_pruning: 0,
            constraint_time: Duration::ZERO,
            degradations,
        });
    }

    let t0 = Instant::now();
    let span_constraints = lacr_obs::span!(
        "plan.constraints",
        vertices = graph.num_vertices(),
        t_clk = t_clk
    );
    let pc = generate_period_constraints(graph, t_clk)
        .map_err(|e| PlanError::new(Stage::MinArea, PlanErrorKind::Retime(e)))?;
    drop(span_constraints);
    let constraint_time = t0.elapsed();

    // Min-area baseline: the graph's base areas (uniform, with the ε
    // wire-flip-flop premium from expansion as a pure tie-break), one
    // solve. Shares the generated constraints, exactly as an
    // implementation of [13] would.
    let t1 = Instant::now();
    let span_minarea = lacr_obs::span!("plan.minarea", constraints = pc.constraints.len());
    let base_areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
    let base = match lacr_retime::weighted_min_area_retiming(graph, &pc, &base_areas) {
        Ok(base) => base,
        Err(
            e @ (RetimeError::PeriodInfeasible { .. }
            | RetimeError::DelayOverflow
            | RetimeError::CombinationalCycle),
        ) => {
            return Err(PlanError::new(Stage::MinArea, PlanErrorKind::Retime(e)));
        }
        Err(RetimeError::Internal(msg)) => {
            match feasible_min_area_fallback(graph, t_clk) {
                // Ladder rung 1: the dual solve failed, but Bellman-Ford can
                // still prove feasibility and hand back a legal retiming.
                Some(fallback) => {
                    degradations.push(Degradation::new(
                    Stage::MinArea,
                    format!("min-cost-flow solve failed ({msg}); Bellman-Ford feasible retiming used"),
                ));
                    fallback
                }
                None => {
                    return Err(PlanError::new(
                        Stage::MinArea,
                        PlanErrorKind::Retime(RetimeError::PeriodInfeasible { target: t_clk }),
                    ));
                }
            }
        }
    };
    let min_area = TimedRun {
        result: score_outcome(graph, base, caps),
        elapsed: t1.elapsed() + constraint_time,
    };
    drop(span_minarea);

    let lac_config = LacConfig {
        deadline: budget.min_deadline(config.lac.deadline),
        ..config.lac
    };
    let t2 = Instant::now();
    let span_lac = lacr_obs::span!("plan.lac", max_rounds = lac_config.max_rounds);
    let lac_result = match lac_retiming(graph, &pc, caps, &lac_config) {
        Ok(result) => result,
        // Ladder rung 2: LAC could not finish a single round; the scored
        // min-area result is still a legal plan for the same period.
        Err(e) => {
            degradations.push(Degradation::new(
                Stage::Lac,
                format!("LAC retiming failed ({e}); min-area result reused"),
            ));
            min_area.result.clone()
        }
    };
    if lac_result.timed_out {
        degradations.push(Degradation::new(
            Stage::Lac,
            format!(
                "wall-clock budget expired after {} re-weight round(s); best round kept",
                lac_result.n_wr
            ),
        ));
    }
    if lac_result.n_foa > 0 {
        // Ladder rung 3: the result is legal but not fully legalized;
        // report exactly which tiles still overflow.
        degradations.push(Degradation::new(
            Stage::Lac,
            format!(
                "{} flip-flop(s) still violate local area constraints: {}",
                lac_result.n_foa,
                lac_result.occupancy.overflow_summary()
            ),
        ));
    }
    drop(span_lac);
    emit_quality_metrics(plan, caps, &lac_result, t_clk);
    let lac = TimedRun {
        result: lac_result,
        elapsed: t2.elapsed() + constraint_time,
    };

    Ok(PlanReport {
        min_area,
        lac,
        num_period_constraints: pc.constraints.len(),
        pairs_before_pruning: pc.pairs_before_pruning,
        constraint_time,
        degradations,
    })
}

/// Emits the paper's solution-quality metrics for the final LAC result
/// through the sink API, under the `quality.*` namespace: the per-tile
/// FF occupancy vs. capacity distributions (Fig. 2's tile view), the
/// retiming-label magnitudes of the relocated flip-flops, the target
/// period's slack under `T_init`, the residual routing overflow and the
/// repeater count. Aggregate-only — gated on a collector so default
/// runs pay nothing for the per-tile loops.
fn emit_quality_metrics(plan: &PhysicalPlan, caps: &[f64], lac: &LacResult, t_clk: u64) {
    if !lacr_obs::recording() {
        return;
    }
    for (tile, &cap) in caps.iter().enumerate() {
        lacr_obs::histogram!("quality.tile_capacity_ff", cap.floor().max(0.0) as u64);
        let occ = lac.occupancy.counts.get(tile).copied().unwrap_or(0);
        lacr_obs::histogram!("quality.tile_occupancy_ff", occ.max(0) as u64);
    }
    // One record per distinct lag, carrying its repeat count.
    let mut lags = std::collections::BTreeMap::<u64, u64>::new();
    for &r in lac.outcome.retiming.iter().filter(|&&r| r != 0) {
        *lags.entry(r.unsigned_abs()).or_default() += 1;
    }
    for (&lag, &count) in &lags {
        lacr_obs::histogram!("quality.ff_relocation", lag, count);
    }
    lacr_obs::gauge!("quality.relocated_vertices", lags.values().sum::<u64>());
    lacr_obs::gauge!("quality.t_clk_slack_ps", plan.t_init.saturating_sub(t_clk));
    lacr_obs::gauge!("quality.route_overflow", plan.routing.overflow);
    lacr_obs::gauge!("quality.repeaters", plan.expanded.num_repeaters);
}

/// Per-block area growth derived from a retiming's tile violations: every
/// overflowing soft tile asks its block for the overflow area (with a
/// safety factor); channel-tile overflow is redistributed uniformly.
pub fn growth_from_violations(
    plan: &PhysicalPlan,
    result: &LacResult,
    technology: &Technology,
    factor: f64,
) -> Vec<f64> {
    let nb = plan.partitioning.blocks.len();
    let mut growth = vec![0.0f64; nb];
    let mut channel_overflow = 0.0f64;
    for t in plan.grid.tile_ids() {
        let v = result.occupancy.violations[t.index()];
        if v <= 0 {
            continue;
        }
        let area = v as f64 * technology.ff_area * factor;
        match plan.grid.kind(t) {
            TileKind::Soft(b) => growth[b] += area,
            TileKind::Hard(b) => growth[b] += area,
            TileKind::Channel => channel_overflow += area,
        }
    }
    if channel_overflow > 0.0 && nb > 0 {
        // Growing blocks indirectly grows the chip, recreating channel
        // room next to the congested regions after re-packing.
        for g in &mut growth {
            *g += channel_overflow / nb as f64;
        }
    }
    if growth.iter().any(|&g| g > 0.0) {
        // Re-planning shifts flip-flop demand between blocks (routing and
        // the floorplan both change), so an expansion that exactly covers
        // the observed overflow tends to chase it around; give every block
        // a small uniform bump on top of the targeted growth.
        for (g, placed) in growth.iter_mut().zip(&plan.floorplan.blocks) {
            *g += 0.06 * placed.w * placed.h;
        }
    }
    growth
}

/// Outcome of the full multi-iteration planning flow.
#[derive(Debug, Clone)]
pub struct IteratedPlan {
    /// The physical plan and report of the first iteration.
    pub first: (PhysicalPlan, PlanReport),
    /// `N_FOA` of the second planning iteration (after floorplan
    /// expansion), when one was needed. `Err` keeps the stage that failed;
    /// a [`Stage::MinArea`] error carrying
    /// [`RetimeError::PeriodInfeasible`] mirrors the paper's s1269 case:
    /// the frozen target period became infeasible after the floorplan
    /// changed drastically.
    pub second_n_foa: Option<Result<i64, PlanError>>,
}

/// Runs interconnect planning; when LAC-retiming still has violations,
/// expands the congested blocks and runs a second planning iteration at
/// the *same* target period (the paper's protocol).
///
/// # Errors
///
/// Returns the first iteration's [`PlanError`]; a failed second
/// iteration, whether it fails to build or to retime, is reported inside
/// [`IteratedPlan::second_n_foa`].
pub fn try_plan_with_iterations(
    circuit: &Circuit,
    config: &PlannerConfig,
) -> Result<IteratedPlan, PlanError> {
    let plan1 = try_build_physical_plan(circuit, config, &[])?;
    let report1 = try_plan_retimings(&plan1, config)?;
    Ok(IteratedPlan::from_first(circuit, config, plan1, report1))
}

impl IteratedPlan {
    /// Completes the flow of [`try_plan_with_iterations`] from a first
    /// iteration the caller already planned, so nothing is planned twice.
    pub fn from_first(
        circuit: &Circuit,
        config: &PlannerConfig,
        plan1: PhysicalPlan,
        report1: PlanReport,
    ) -> Self {
        let second_n_foa = if report1.lac.result.n_foa > 0 && !config.budget.expired() {
            let growth =
                growth_from_violations(&plan1, &report1.lac.result, &config.technology, 1.5);
            Some(
                try_build_physical_plan(circuit, config, &growth)
                    .and_then(|plan2| try_plan_retimings_at(&plan2, config, plan1.t_clk))
                    .map(|r| r.lac.result.n_foa),
            )
        } else {
            None
        };
        Self {
            first: (plan1, report1),
            second_n_foa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_netlist::bench89;

    fn quick_config() -> PlannerConfig {
        PlannerConfig {
            floorplan: FloorplanConfig {
                moves: 1_000,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn physical_plan_is_consistent() {
        let c = bench89::generate("s344").unwrap();
        let cfg = quick_config();
        let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        assert!(plan.t_min <= plan.t_clk && plan.t_clk <= plan.t_init);
        assert_eq!(plan.unit_cell.len(), c.num_units());
        assert_eq!(plan.routing.nets.len(), c.num_nets());
        // flop conservation through expansion
        assert_eq!(plan.expanded.graph.total_flops() as u64, c.num_flops());
        // caps cover all tiles + pad
        assert_eq!(plan.expanded.caps_ff.len(), plan.grid.num_tiles() + 1);
    }

    #[test]
    fn retimings_meet_target_period() {
        let c = bench89::generate("s344").unwrap();
        let cfg = quick_config();
        let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        let report = try_plan_retimings(&plan, &cfg).expect("t_clk >= t_min is feasible");
        assert!(report.min_area.result.outcome.period <= plan.t_clk);
        assert!(report.lac.result.outcome.period <= plan.t_clk);
        // LAC never does worse on violations than the baseline.
        assert!(report.lac.result.n_foa <= report.min_area.result.n_foa);
    }

    #[test]
    fn growth_targets_violating_blocks() {
        let c = bench89::generate("s344").unwrap();
        let cfg = quick_config();
        let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        let report = try_plan_retimings(&plan, &cfg).unwrap();
        let growth = growth_from_violations(&plan, &report.lac.result, &cfg.technology, 1.5);
        assert_eq!(growth.len(), plan.partitioning.blocks.len());
        let has_violations = report.lac.result.n_foa > 0;
        let has_growth = growth.iter().any(|&g| g > 0.0);
        assert_eq!(has_violations, has_growth);
    }

    #[test]
    fn deterministic_planning() {
        let c = bench89::generate("s344").unwrap();
        let cfg = quick_config();
        let p1 = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        let p2 = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        assert_eq!(p1.t_init, p2.t_init);
        assert_eq!(p1.t_min, p2.t_min);
        assert_eq!(p1.unit_cell, p2.unit_cell);
    }
}

#[cfg(test)]
mod hard_block_tests {
    use super::*;
    use lacr_floorplan::anneal::FloorplanConfig;
    use lacr_floorplan::tiles::TileKind;
    use lacr_netlist::bench89;

    #[test]
    fn hard_blocks_appear_with_site_capacity() {
        let c = bench89::generate("s344").unwrap();
        let tech = Technology::default();
        let cfg = PlannerConfig {
            num_hard_blocks: 2,
            hard_site_area: 2.0 * tech.ff_area,
            floorplan: FloorplanConfig {
                moves: 800,
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = try_build_physical_plan(&c, &cfg, &[]).unwrap();
        let hard_blocks = plan.floorplan.blocks.iter().filter(|b| b.hard).count();
        assert_eq!(hard_blocks, 2);
        // Hard cells are individual tiles with exactly the site capacity.
        let mut saw_hard_tile = false;
        for t in plan.grid.tile_ids() {
            if let TileKind::Hard(_) = plan.grid.kind(t) {
                saw_hard_tile = true;
                assert_eq!(plan.grid.capacity(t), 2.0 * tech.ff_area);
            }
        }
        assert!(saw_hard_tile, "expected per-cell hard tiles");
        // Planning still succeeds end to end.
        let report = try_plan_retimings(&plan, &cfg).expect("feasible");
        assert!(report.lac.result.n_foa <= report.min_area.result.n_foa);
    }

    #[test]
    fn zero_site_hard_blocks_have_no_ff_capacity() {
        let c = bench89::generate("s382").unwrap();
        let hard_cfg = PlannerConfig {
            num_hard_blocks: 3,
            hard_site_area: 0.0,
            floorplan: FloorplanConfig {
                moves: 800,
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = try_build_physical_plan(&c, &hard_cfg, &[]).unwrap();
        let mut hard_tiles = 0usize;
        for t in plan.grid.tile_ids() {
            if let TileKind::Hard(_) = plan.grid.kind(t) {
                hard_tiles += 1;
                // No sites: zero insertion capacity even before repeaters.
                assert_eq!(plan.grid.capacity(t), 0.0);
                assert_eq!(plan.expanded.caps_ff[t.index()], 0.0);
            }
        }
        assert!(hard_tiles > 0, "expected hard-block tiles in the grid");
    }
}
