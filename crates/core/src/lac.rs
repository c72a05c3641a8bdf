//! Local area constrained retiming (§4.2) — the paper's contribution.
//!
//! The LAC-retiming problem asks for a retiming satisfying the edge-weight
//! constraints (Eqn. 1), the clocking constraints (Eqn. 2) **and** the
//! local area constraints (Eqn. 3): the flip-flops charged to each tile
//! (every flip-flop is placed in the tile of its fanin unit) must fit that
//! tile's capacity. The constraints are linear but couple many retiming
//! variables per tile, so the ILP is NP-complete; the paper's heuristic
//! solves a series of *weighted* min-area retimings, re-weighting each
//! tile by its utilisation:
//!
//! ```text
//! new_weight(t) = old_weight(t) · ((1 − α) + α · AC(t) / C(t))
//! ```
//!
//! until no tile overflows or no improvement is seen for `N_max`
//! consecutive rounds. Generating the clock-period constraints **once**
//! keeps the total run time in the same order as a single min-area
//! retiming.

use lacr_mcmf::Constraint;
use lacr_prng::Rng;
use lacr_retime::{
    edge_constraints, EdgeId, MinAreaSolver, PeriodConstraints, RetimeError, RetimeGraph,
    RetimingOutcome, VertexId, VertexKind,
};

/// Parameters of the LAC loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LacConfig {
    /// Blend factor α between the previous weight and the utilisation
    /// ratio; the paper reports α ≈ 0.2 works best.
    pub alpha: f64,
    /// Give up after this many consecutive non-improving rounds.
    pub n_max: usize,
    /// Hard cap on total weighted retimings (safety bound).
    pub max_rounds: usize,
    /// Optional wall-clock deadline: once passed, the loop stops after
    /// the current round and returns its best-so-far result with
    /// [`LacResult::timed_out`] set.
    pub deadline: Option<std::time::Instant>,
}

impl Default for LacConfig {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            n_max: 10,
            max_rounds: 60,
            deadline: None,
        }
    }
}

/// Per-tile flip-flop occupancy and violation accounting for one retiming.
#[derive(Debug, Clone, PartialEq)]
pub struct TileOccupancy {
    /// Flip-flops charged to each tile (`AC(t)` in flip-flop counts).
    pub counts: Vec<i64>,
    /// Flip-flops exceeding each tile's capacity.
    pub violations: Vec<i64>,
}

impl TileOccupancy {
    /// Computes `AC(t)` under the fanin-placement rule and the violation
    /// counts against integer tile capacities `⌊caps_ff⌋`.
    ///
    /// Vertices without a tile contribute to no tile (their flip-flops are
    /// unconstrained).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not parallel to the graph's edges.
    pub fn compute(graph: &RetimeGraph, weights: &[i64], caps_ff: &[f64]) -> Self {
        assert_eq!(weights.len(), graph.num_edges());
        let mut counts = vec![0i64; caps_ff.len()];
        for (ei, e) in graph.edges().iter().enumerate() {
            if weights[ei] == 0 {
                continue;
            }
            if let Some(t) = graph.tile(e.from) {
                counts[t] += weights[ei];
            }
        }
        let violations = counts
            .iter()
            .zip(caps_ff)
            .map(|(&ac, &cap)| (ac - cap.floor().max(0.0) as i64).max(0))
            .collect();
        Self { counts, violations }
    }

    /// Total flip-flops violating their tile capacity — the paper's
    /// `N_FOA`.
    pub fn total_violations(&self) -> i64 {
        self.violations.iter().sum()
    }

    /// The tiles still overflowing, as `(tile index, excess flip-flops)`
    /// pairs — the per-tile diagnostic attached to degraded plans.
    pub fn overflowing_tiles(&self) -> Vec<(usize, i64)> {
        self.violations
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(t, &v)| (t, v))
            .collect()
    }

    /// One-line human-readable overflow report, e.g.
    /// `"3 flip-flops over capacity in 2 tiles: tile 4 (+2), tile 7 (+1)"`.
    pub fn overflow_summary(&self) -> String {
        let over = self.overflowing_tiles();
        if over.is_empty() {
            return "no tile overflow".into();
        }
        let detail: Vec<String> = over
            .iter()
            .take(8)
            .map(|(t, v)| format!("tile {t} (+{v})"))
            .collect();
        let ellipsis = if over.len() > 8 { ", …" } else { "" };
        format!(
            "{} flip-flops over capacity in {} tile(s): {}{}",
            self.total_violations(),
            over.len(),
            detail.join(", "),
            ellipsis
        )
    }
}

/// Result of [`lac_retiming`] (or of scoring a plain min-area retiming
/// with [`score_outcome`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LacResult {
    /// The chosen retiming.
    pub outcome: RetimingOutcome,
    /// `N_FOA`: flip-flops violating local area constraints.
    pub n_foa: i64,
    /// `N_F`: total flip-flops.
    pub n_f: i64,
    /// `N_FN`: flip-flops inserted into interconnects (on edges driven by
    /// an interconnect unit).
    pub n_fn: i64,
    /// `N_wr`: weighted min-area retimings performed.
    pub n_wr: usize,
    /// Per-tile occupancy of the chosen retiming.
    pub occupancy: TileOccupancy,
    /// `N_FOA` of each round, for convergence analysis.
    pub history: Vec<i64>,
    /// Whether the loop stopped on an expired deadline rather than on
    /// convergence (the result is the best seen up to that point).
    pub timed_out: bool,
}

impl LacResult {
    /// Ranking key for comparing outcomes: fewer violations first, then
    /// fewer flip-flops. Any legal plan (`n_foa == 0`) ranks strictly
    /// above every fallback that still overflows.
    pub fn score_key(&self) -> (i64, i64) {
        (self.n_foa, self.n_f)
    }
}

/// Counts flip-flops sitting inside interconnects: weight on edges whose
/// tail is an interconnect unit (the flip-flop physically lives in the
/// wire's tile).
pub fn flops_in_interconnect(graph: &RetimeGraph, weights: &[i64]) -> i64 {
    graph
        .edges()
        .iter()
        .zip(weights)
        .filter(|(e, _)| graph.kind(e.from) == VertexKind::Interconnect)
        .map(|(_, &w)| w)
        .sum()
}

/// Wraps an existing retiming outcome with LAC metrics (used to score the
/// min-area baseline against the same tile capacities).
pub fn score_outcome(graph: &RetimeGraph, outcome: RetimingOutcome, caps_ff: &[f64]) -> LacResult {
    let occupancy = TileOccupancy::compute(graph, &outcome.weights, caps_ff);
    LacResult {
        n_foa: occupancy.total_violations(),
        n_f: outcome.total_flops,
        n_fn: flops_in_interconnect(graph, &outcome.weights),
        n_wr: 1,
        history: vec![occupancy.total_violations()],
        occupancy,
        outcome,
        timed_out: false,
    }
}

/// Per-vertex view of the difference-constraint system `r(u) − r(v) ≤ b`,
/// for O(deg) legality checks of single-vertex retiming moves.
struct ConstraintIndex {
    /// `by_u[x]`: constraints `r(x) − r(other) ≤ bound`.
    by_u: Vec<Vec<(usize, i64)>>,
    /// `by_v[x]`: constraints `r(other) − r(x) ≤ bound`.
    by_v: Vec<Vec<(usize, i64)>>,
}

impl ConstraintIndex {
    fn new(n: usize, constraints: &[Constraint]) -> Self {
        let mut by_u = vec![Vec::new(); n];
        let mut by_v = vec![Vec::new(); n];
        for c in constraints {
            by_u[c.u].push((c.v, c.bound));
            by_v[c.v].push((c.u, c.bound));
        }
        Self { by_u, by_v }
    }

    /// Would `r[x] += 1` keep every constraint satisfied?
    fn can_increment(&self, r: &[i64], x: usize) -> bool {
        self.by_u[x].iter().all(|&(v, b)| r[x] + 1 - r[v] <= b)
    }

    /// Would `r[x] -= 1` keep every constraint satisfied?
    fn can_decrement(&self, r: &[i64], x: usize) -> bool {
        self.by_v[x].iter().all(|&(u, b)| r[u] - (r[x] - 1) <= b)
    }
}

/// What the legaliser reads but never changes, built once per
/// [`lac_retiming`] call and shared by all of its rounds.
struct LegalizeIndex {
    /// The full constraint system (edge legality + clock period).
    cons: ConstraintIndex,
    /// Integer per-tile capacities `⌊caps_ff⌋`.
    cap: Vec<i64>,
    /// Single in/out edge of chain-interior interconnect vertices.
    only_in: Vec<Option<EdgeId>>,
    only_out: Vec<Option<EdgeId>>,
    /// The tile each edge's flip-flops are charged to (its tail's tile).
    charged: Vec<Option<usize>>,
    /// The edges charged to each tile, in ascending edge order.
    tile_edges: Vec<Vec<EdgeId>>,
}

impl LegalizeIndex {
    fn new(graph: &RetimeGraph, constraints: &[Constraint], caps_ff: &[f64]) -> Self {
        let n = graph.num_vertices();
        let mut only_in = vec![None; n];
        let mut only_out = vec![None; n];
        for v in graph.vertex_ids() {
            if graph.kind(v) == VertexKind::Interconnect
                && graph.in_edges(v).count() == 1
                && graph.out_edges(v).count() == 1
            {
                only_in[v.index()] = graph.in_edges(v).next();
                only_out[v.index()] = graph.out_edges(v).next();
            }
        }
        let charged: Vec<Option<usize>> =
            graph.edges().iter().map(|e| graph.tile(e.from)).collect();
        let mut tile_edges = vec![Vec::new(); caps_ff.len()];
        for (ei, t) in charged.iter().enumerate() {
            if let Some(t) = *t {
                tile_edges[t].push(EdgeId(ei as u32));
            }
        }
        Self {
            cons: ConstraintIndex::new(n, constraints),
            cap: caps_ff.iter().map(|c| c.floor().max(0.0) as i64).collect(),
            only_in,
            only_out,
            charged,
            tile_edges,
        }
    }
}

/// One journalled change to the legaliser's state.
#[derive(Clone, Copy)]
enum Change {
    /// `r[vertex] += delta`.
    Lag(usize, i64),
    /// `weights[edge] += delta`, with the charged tile's count and the
    /// flip-flop total.
    Weight(usize, i64),
}

/// A beam-search state: a copy of the legaliser's vectors.
#[derive(Clone)]
struct State {
    excess: i64,
    r: Vec<i64>,
    weights: Vec<i64>,
    counts: Vec<i64>,
    flops: i64,
}

/// Legaliser statistics, accumulated locally (the search is hot) and
/// flushed as counters once per call.
#[derive(Default)]
struct LegalizeStats {
    beam_states: u64,
    cluster_tries: u64,
    cluster_moves: u64,
    tabu_hits: u64,
    slide_tries: u64,
    slides: u64,
}

impl LegalizeStats {
    fn flush(&self) {
        lacr_obs::counter!("lac.beam_states", self.beam_states);
        lacr_obs::counter!("lac.cluster_tries", self.cluster_tries);
        lacr_obs::counter!("lac.cluster_moves", self.cluster_moves);
        lacr_obs::counter!("lac.tabu_hits", self.tabu_hits);
        lacr_obs::counter!("lac.slide_tries", self.slide_tries);
        lacr_obs::counter!("lac.slides", self.slides);
    }
}

/// Working state of the flip-flop placement legaliser. Every change to
/// `r` and `weights` goes through [`Self::shift_lag`] or
/// [`Self::add_weight`], which log it in `journal`, so [`Self::undo_to`]
/// reverts any suffix of moves in time proportional to its size.
struct Legalizer<'a> {
    graph: &'a RetimeGraph,
    ix: &'a LegalizeIndex,
    r: Vec<i64>,
    weights: Vec<i64>,
    /// Flip-flops charged to each tile.
    counts: Vec<i64>,
    /// Total flip-flops (the sum of `weights`).
    flops: i64,
    /// Changes since the last loaded state, oldest first.
    journal: Vec<Change>,
    /// Cluster buffers: `x` is in the cluster being grown iff
    /// `stamp[x] == epoch`; `members` lists it in joining order.
    stamp: Vec<u32>,
    epoch: u32,
    members: Vec<usize>,
    stack: Vec<usize>,
    stats: LegalizeStats,
}

/// Flip-flop placement legalisation: clears residual local-area violations
/// a weighted min-area round leaves behind. A weighted retiming always
/// lands on an extreme point of the constraint polytope, and near a tight
/// packing every extreme point over- or under-shoots, so a few excess
/// flip-flops remain that only *local* moves can place. Two move kinds,
/// each a sequence of single-vertex retimings validated against the full
/// constraint system (edge legality + clock period):
///
/// * **chain slides** — a flip-flop on a connection chain slides along the
///   chain (the route the wire actually takes) into any tile with spare
///   capacity; interconnect units have exactly one fanin and fanout, so
///   the total flip-flop count never changes;
/// * **cluster moves** — when a chain never leaves the overfull tile, the
///   flip-flop can only escape by retiming a functional endpoint of its
///   connection. A unit retiming of a vertex *set* S (`r(S) ± 1`) moves
///   flip-flops across S's boundary only: every boundary edge that loses a
///   flip-flop must carry one, and every constraint that tightens must
///   have slack. Growing S from a seed gate by closure — absorb the far
///   endpoint of any flop-less losing edge and of any tight constraint —
///   always yields a legal composite move (or swallows the whole graph
///   and is abandoned). Single-gate retimings, chain re-staging and
///   multi-fanin pull-throughs all arise as special cases.
fn legalize_flop_placement(
    graph: &RetimeGraph,
    ix: &LegalizeIndex,
    caps_ff: &[f64],
    outcome: &mut RetimingOutcome,
) {
    let weights = std::mem::take(&mut outcome.weights);
    let counts = TileOccupancy::compute(graph, &weights, caps_ff).counts;
    let mut lg = Legalizer {
        graph,
        ix,
        r: std::mem::take(&mut outcome.retiming),
        flops: weights.iter().sum(),
        weights,
        counts,
        journal: Vec::new(),
        stamp: vec![0; graph.num_vertices()],
        epoch: 0,
        members: Vec::new(),
        stack: Vec::new(),
        stats: LegalizeStats::default(),
    };

    lg.slide_pass();

    // Cluster moves, explored with a small beam search; a flip-flop
    // budget keeps N_F within a few percent of the optimum.
    //
    // A single move often trades one violation for another (the freed
    // flip-flops land on chains that are also tight), so greedy descent
    // dead-ends: reaching zero can require passing through states whose
    // violation count is temporarily worse. The beam keeps the BEAM_WIDTH
    // best new states per depth, never revisits a state (fingerprint
    // tabu), and returns the best state seen anywhere. Each candidate is
    // applied to the loaded beam state and undone through the journal.
    let budget = lg.flops + (lg.flops / 20).max(2);
    const BEAM_WIDTH: usize = 4;
    const MAX_DEPTH: usize = 24;
    // FNV-style fingerprint of the retiming vector, for the tabu set.
    fn fingerprint(r: &[i64]) -> u64 {
        r.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
            (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    // Membership-only tabu set — never iterated, so hash ordering cannot
    // leak into which states the beam explores. (The frontier itself is
    // kept in order of excess, equal-excess states in the deterministic
    // order they were found.)
    let mut seen = std::collections::HashSet::new();
    seen.insert(fingerprint(&lg.r));
    let mut best = lg.snapshot();
    let mut beam = vec![best.clone()];
    let mut candidates = Vec::new();
    for _depth in 0..MAX_DEPTH {
        if best.excess == 0 {
            break;
        }
        let mut frontier: Vec<State> = Vec::with_capacity(BEAM_WIDTH + 1);
        for state in &beam {
            lg.load(state);
            lg.stats.beam_states += 1;
            lg.collect_candidates(&mut candidates);
            for &(seed, up) in &candidates {
                if lg.try_cluster_move(seed, up, budget) {
                    lg.slide_pass();
                    if seen.insert(fingerprint(&lg.r)) {
                        let excess = lg.total_excess();
                        let at = frontier.partition_point(|s| s.excess <= excess);
                        if at < BEAM_WIDTH {
                            frontier.insert(at, lg.snapshot());
                            frontier.truncate(BEAM_WIDTH);
                        }
                    } else {
                        lg.stats.tabu_hits += 1;
                    }
                }
                lg.undo_to(0);
            }
        }
        if frontier.is_empty() {
            break;
        }
        if frontier[0].excess < best.excess {
            best = frontier[0].clone();
        }
        beam = frontier;
    }
    lg.load(&best);
    lg.stats.flush();

    outcome.total_flops = lg.flops;
    outcome.period = graph
        .clock_period(&lg.weights)
        .expect("legalised weights stay acyclic on zero-weight subgraph");
    outcome.retiming = lg.r;
    outcome.weights = lg.weights;
}

impl Legalizer<'_> {
    /// `r[x] += d`, journalled.
    fn shift_lag(&mut self, x: usize, d: i64) {
        self.apply(Change::Lag(x, d), 1);
        self.journal.push(Change::Lag(x, d));
    }

    /// `weights[e] += d`, journalled.
    fn add_weight(&mut self, e: usize, d: i64) {
        self.apply(Change::Weight(e, d), 1);
        debug_assert!(self.weights[e] >= 0, "moves keep every edge weight legal");
        self.journal.push(Change::Weight(e, d));
    }

    /// Applies `change` (`sign = 1`) or reverts it (`sign = -1`).
    fn apply(&mut self, change: Change, sign: i64) {
        match change {
            Change::Lag(x, d) => self.r[x] += sign * d,
            Change::Weight(e, d) => {
                self.weights[e] += sign * d;
                self.flops += sign * d;
                if let Some(t) = self.ix.charged[e] {
                    self.counts[t] += sign * d;
                }
            }
        }
    }

    /// Reverts the journal, newest change first, until `mark` changes
    /// remain.
    fn undo_to(&mut self, mark: usize) {
        while self.journal.len() > mark {
            let change = self.journal.pop().expect("journal is longer than mark");
            self.apply(change, -1);
        }
    }

    fn snapshot(&self) -> State {
        State {
            excess: self.total_excess(),
            r: self.r.clone(),
            weights: self.weights.clone(),
            counts: self.counts.clone(),
            flops: self.flops,
        }
    }

    /// Makes `state` the current state, with an empty journal.
    fn load(&mut self, state: &State) {
        self.r.copy_from_slice(&state.r);
        self.weights.copy_from_slice(&state.weights);
        self.counts.copy_from_slice(&state.counts);
        self.flops = state.flops;
        self.journal.clear();
    }

    fn total_excess(&self) -> i64 {
        self.counts
            .iter()
            .zip(&self.ix.cap)
            .map(|(&c, &k)| (c - k).max(0))
            .sum()
    }

    /// The functional (or host) vertex driving the connection `e` lies on,
    /// found by walking upstream through the chain's interconnect units.
    fn connection_source(&self, e: EdgeId) -> VertexId {
        let mut tail = self.graph.edge(e).from;
        while let Some(prev) = self.ix.only_in[tail.index()] {
            tail = self.graph.edge(prev).from;
        }
        tail
    }

    /// The functional (or host) vertex the connection `e` lies on feeds,
    /// found by walking downstream through the chain's interconnect units.
    fn connection_sink(&self, e: EdgeId) -> VertexId {
        let mut head = self.graph.edge(e).to;
        while let Some(next) = self.ix.only_out[head.index()] {
            head = self.graph.edge(next).to;
        }
        head
    }

    /// Cluster-move seeds, sorted and deduplicated, at most 64: the two
    /// endpoints of every connection holding a flip-flop charged to an
    /// overfull tile. Retiming the source side up (a cluster grown from
    /// it) frees the flip-flop backwards onto the source's fanins;
    /// retiming the sink side down pulls it forwards onto the sink's
    /// fanouts.
    fn collect_candidates(&self, out: &mut Vec<(usize, bool)>) {
        const MAX_CANDIDATES: usize = 64;
        out.clear();
        for (t, edges) in self.ix.tile_edges.iter().enumerate() {
            if self.counts[t] <= self.ix.cap[t] {
                continue;
            }
            for &e in edges {
                if self.weights[e.index()] > 0 {
                    out.push((self.connection_source(e).index(), true));
                    out.push((self.connection_sink(e).index(), false));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out.truncate(MAX_CANDIDATES);
    }

    /// Grows the closure of `{seed}` for a legal unit retiming of a whole
    /// vertex set (`r[S] += 1` when `increment`, else `r[S] -= 1`) into
    /// `members`:
    ///
    /// * a boundary edge that would lose a flip-flop but carries none
    ///   forces its far endpoint into S (edges inside S never change);
    /// * a constraint that would tighten and is already tight forces its
    ///   far endpoint into S (constraints inside S never change).
    ///
    /// Returns `false` when the closure swallows the whole graph (a no-op
    /// shift). The host may join S: weights and constraints only depend on
    /// retiming differences, and moves through the host are how flip-flops
    /// reach the pad ring.
    fn grow_cluster(&mut self, seed: usize, increment: bool) -> bool {
        let (graph, cons) = (self.graph, &self.ix.cons);
        self.epoch += 1;
        self.members.clear();
        self.stack.clear();
        self.absorb(seed);
        while let Some(x) = self.stack.pop() {
            if self.members.len() >= graph.num_vertices() {
                return false;
            }
            let v = VertexId(x as u32);
            if increment {
                for e in graph.out_edges(v) {
                    if self.weights[e.index()] == 0 {
                        self.absorb(graph.edge(e).to.index());
                    }
                }
                for &(y, b) in &cons.by_u[x] {
                    if self.r[x] - self.r[y] >= b {
                        self.absorb(y);
                    }
                }
            } else {
                for e in graph.in_edges(v) {
                    if self.weights[e.index()] == 0 {
                        self.absorb(graph.edge(e).from.index());
                    }
                }
                for &(y, b) in &cons.by_v[x] {
                    if self.r[y] - self.r[x] >= b {
                        self.absorb(y);
                    }
                }
            }
        }
        true
    }

    fn in_cluster(&self, v: VertexId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// Adds `y` to the cluster being grown, unless it is already in.
    fn absorb(&mut self, y: usize) {
        if self.stamp[y] != self.epoch {
            self.stamp[y] = self.epoch;
            self.members.push(y);
            self.stack.push(y);
        }
    }

    /// Grows a cluster from `seed` and applies its unit retiming unless it
    /// would exceed the flip-flop `budget`. `true` iff applied.
    fn try_cluster_move(&mut self, seed: usize, increment: bool, budget: i64) -> bool {
        self.stats.cluster_tries += 1;
        if !self.grow_cluster(seed, increment) {
            return false;
        }
        let graph = self.graph;
        let d: i64 = if increment { 1 } else { -1 };
        // Only the boundary edges change: an out-edge leaving S loses d
        // flip-flops, an in-edge entering S gains d.
        let mut flop_delta = 0i64;
        for &x in &self.members {
            let v = VertexId(x as u32);
            for e in graph.out_edges(v) {
                if !self.in_cluster(graph.edge(e).to) {
                    flop_delta -= d;
                }
            }
            for e in graph.in_edges(v) {
                if !self.in_cluster(graph.edge(e).from) {
                    flop_delta += d;
                }
            }
        }
        if self.flops + flop_delta > budget {
            return false;
        }
        for i in 0..self.members.len() {
            let x = self.members[i];
            let v = VertexId(x as u32);
            self.shift_lag(x, d);
            for e in graph.out_edges(v) {
                if !self.in_cluster(graph.edge(e).to) {
                    self.add_weight(e.index(), -d);
                }
            }
            for e in graph.in_edges(v) {
                if !self.in_cluster(graph.edge(e).from) {
                    self.add_weight(e.index(), d);
                }
            }
        }
        self.stats.cluster_moves += 1;
        true
    }

    /// Runs chain slides to exhaustion: every flip-flop charged to an
    /// overfull tile is offered a slide towards spare capacity, until a
    /// full sweep makes no progress.
    fn slide_pass(&mut self) {
        let ix = self.ix;
        loop {
            let mut progress = false;
            for (t, edges) in ix.tile_edges.iter().enumerate() {
                while self.counts[t] > ix.cap[t] {
                    let mut moved = false;
                    for &e in edges {
                        if self.counts[t] <= ix.cap[t] {
                            break;
                        }
                        if self.weights[e.index()] > 0 && self.slide_flop(e, t) {
                            moved = true;
                        }
                    }
                    progress |= moved;
                    if !moved {
                        break;
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Tries to move one flip-flop off edge `e` (charged to overfull tile
    /// `from_tile`) by sliding it downstream, then upstream, along its
    /// connection chain until it lands in a tile with spare capacity; an
    /// untiled chain unit charges no tile and is no landing spot. Applies
    /// the move and returns `true` on success; leaves all state untouched
    /// and returns `false` otherwise.
    fn slide_flop(&mut self, e: EdgeId, from_tile: usize) -> bool {
        self.stats.slide_tries += 1;
        let (graph, ix) = (self.graph, self.ix);
        let mark = self.journal.len();
        // Downstream: repeatedly decrement the head of the flop's edge.
        let mut cur = e;
        loop {
            let x = graph.edge(cur).to.index();
            let Some(eout) = ix.only_out[x] else {
                break;
            };
            if self.weights[cur.index()] < 1 || !ix.cons.can_decrement(&self.r, x) {
                break;
            }
            self.shift_lag(x, -1);
            self.add_weight(cur.index(), -1);
            self.add_weight(eout.index(), 1);
            if self.lands(eout, from_tile) {
                self.stats.slides += 1;
                return true;
            }
            cur = eout;
        }
        self.undo_to(mark);

        // Upstream: repeatedly increment the tail of the flop's edge.
        let mut cur = e;
        loop {
            let x = graph.edge(cur).from.index();
            let Some(ein) = ix.only_in[x] else {
                break;
            };
            if self.weights[cur.index()] < 1 || !ix.cons.can_increment(&self.r, x) {
                break;
            }
            self.shift_lag(x, 1);
            self.add_weight(cur.index(), -1);
            self.add_weight(ein.index(), 1);
            if self.lands(ein, from_tile) {
                self.stats.slides += 1;
                return true;
            }
            cur = ein;
        }
        self.undo_to(mark);
        false
    }

    /// Whether the flip-flop just moved onto edge `e` sits in a tile other
    /// than `from_tile` that has room for it.
    fn lands(&self, e: EdgeId, from_tile: usize) -> bool {
        self.ix.charged[e.index()]
            .is_some_and(|t| t != from_tile && self.counts[t] <= self.ix.cap[t])
    }
}

/// Runs LAC-retiming: the adaptive weighted min-area loop of §4.2.
///
/// `period_constraints` must have been generated for the target period on
/// this same graph; `caps_ff` gives each tile's flip-flop capacity, with
/// one entry per tile (including the virtual pad tile, see
/// [`crate::expand::ExpandedDesign::caps_ff`]).
///
/// The best solution seen (fewest violations, then fewest flip-flops) is
/// returned; the loop exits early at zero violations.
///
/// # Errors
///
/// Propagates [`RetimeError::PeriodInfeasible`] when the target period
/// cannot be met at all.
///
/// # Panics
///
/// Panics if some vertex's tile index is out of `caps_ff` range.
pub fn lac_retiming(
    graph: &RetimeGraph,
    period_constraints: &PeriodConstraints,
    caps_ff: &[f64],
    config: &LacConfig,
) -> Result<LacResult, RetimeError> {
    let num_tiles = caps_ff.len();
    for v in graph.vertex_ids() {
        if let Some(t) = graph.tile(v) {
            assert!(t < num_tiles, "vertex tile {t} out of range {num_tiles}");
        }
    }
    let mut solver = MinAreaSolver::new(graph, period_constraints)?;
    // The full constraint system (edge legality + clock period), indexed
    // per vertex so the legaliser can validate single-vertex moves in
    // O(deg).
    let mut all_cons = edge_constraints(graph);
    all_cons.extend(period_constraints.constraints.iter().copied());
    let legalize_index = LegalizeIndex::new(graph, &all_cons, caps_ff);
    let mut tile_weight = vec![1.0f64; num_tiles];
    let mut best: Option<LacResult> = None;
    let mut history = Vec::new();
    let mut stale = 0usize;
    let mut rounds = 0usize;
    let mut timed_out = false;

    let mut prev_counts: Option<Vec<i64>> = None;
    while rounds < config.max_rounds {
        // Deadline check: after at least one round has produced a result,
        // an expired budget stops the loop and returns best-so-far. The
        // first round always runs so the caller gets *some* retiming.
        // Polling only at this round boundary keeps the degradation path
        // deterministic under tracing.
        if best.is_some() {
            if config.deadline.is_some() {
                lacr_obs::counter!("budget.deadline_checks", 1);
            }
            if config
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
            {
                timed_out = true;
                break;
            }
        }
        rounds += 1;
        let _round_span = lacr_obs::span!("lac.round", round = rounds);
        // Tile weight times the vertex's base area, so the expansion's
        // ε tie-break (prefer flip-flops at functional outputs over wires)
        // persists underneath the LAC re-weighting. A tiny deterministic
        // per-vertex perturbation (< 1/1024, strictly below the ε premium)
        // breaks the LP's degeneracy: same-tile vertices otherwise share
        // one price, so re-weighting jumps between extreme points that
        // move whole tiles' worth of flip-flops at once instead of
        // migrating them one at a time. The perturbation is seeded from
        // the tile-weight vector itself: every re-weighting round then
        // lands on a fresh extreme point of the optimal face rather than
        // retrying the corner the legaliser already got stuck on, while
        // rounds with unchanged weights (e.g. α = 0) stay bit-identical.
        let wfp = tile_weight.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, &w| {
            (h ^ w.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut jitter = Rng::seed_from_u64(wfp);
        let areas: Vec<f64> = graph
            .vertex_ids()
            .map(|v| {
                let perturb = 1.0 + (jitter.next_u64() >> 52) as f64 / 4_194_304.0;
                match graph.tile(v) {
                    Some(t) => tile_weight[t] * graph.area(v) * perturb,
                    None => graph.area(v) * perturb,
                }
            })
            .collect();
        let mut outcome = match solver.solve(&areas) {
            Ok(o) => o,
            // A solver failure on a later re-weight round degrades to the
            // best-so-far result instead of throwing away earlier rounds;
            // only a first-round failure is a hard error.
            Err(_) if best.is_some() => break,
            Err(e) => return Err(e),
        };
        // Flip-flop placement repair: the weighted solve lands on an
        // extreme point; slide residual excess flops along their
        // connection chains into tiles with spare capacity.
        legalize_flop_placement(graph, &legalize_index, caps_ff, &mut outcome);
        let occupancy = TileOccupancy::compute(graph, &outcome.weights, caps_ff);
        let n_foa = occupancy.total_violations();
        history.push(n_foa);

        let improved = match &best {
            None => true,
            Some(b) => n_foa < b.n_foa || (n_foa == b.n_foa && outcome.total_flops < b.n_f),
        };
        // Per-tile occupancy churn against the previous round: how many
        // tiles changed and by how much in total.
        if lacr_obs::recording() {
            let (tiles_changed, abs_delta) = match &prev_counts {
                Some(prev) => {
                    occupancy
                        .counts
                        .iter()
                        .zip(prev)
                        .fold((0u64, 0u64), |(n, s), (&a, &b)| {
                            let d = (a - b).unsigned_abs();
                            (n + u64::from(d != 0), s + d)
                        })
                }
                None => (0, 0),
            };
            lacr_obs::counter!("lac.rounds", 1);
            lacr_obs::counter!("lac.occupancy_delta", abs_delta);
            lacr_obs::histogram!("lac.round_n_foa", n_foa.max(0) as u64);
            lacr_obs::event!(
                "lac.round_result",
                round = rounds,
                n_foa = n_foa,
                flops = outcome.total_flops,
                improved = improved,
                tiles_changed = tiles_changed
            );
            prev_counts = Some(occupancy.counts.clone());
        }
        if improved {
            best = Some(LacResult {
                n_foa,
                n_f: outcome.total_flops,
                n_fn: flops_in_interconnect(graph, &outcome.weights),
                n_wr: rounds,
                occupancy: occupancy.clone(),
                outcome,
                history: Vec::new(),
                timed_out: false,
            });
            stale = 0;
        } else {
            stale += 1;
        }
        if n_foa == 0 || stale >= config.n_max {
            break;
        }

        // Re-weight every tile by its utilisation (Step 6 of the paper's
        // algorithm). Tiles with zero capacity but non-zero occupancy get
        // a strong push.
        let mut ratcheted = 0_u64;
        for t in 0..num_tiles {
            let ac = occupancy.counts[t] as f64;
            let cap = caps_ff[t];
            let ratio = if cap > 1e-9 {
                ac / cap
            } else if ac > 0.0 {
                8.0
            } else {
                0.0
            };
            // Monotone ratchet: only ever raise a tile's weight. Letting
            // under-utilised tiles decay below 1 makes their vertices
            // cheaper than the ε interconnect premium and floods wires
            // with flip-flops.
            let factor = (1.0 - config.alpha) + config.alpha * ratio;
            if factor > 1.0 {
                tile_weight[t] = (tile_weight[t] * factor).min(1e6);
                ratcheted += 1;
            }
        }
        lacr_obs::counter!("lac.tiles_ratcheted", ratcheted);
        lacr_obs::gauge!(
            "lac.max_tile_weight",
            tile_weight.iter().fold(1.0f64, |a, &b| a.max(b))
        );
    }

    let mut result = best.expect("at least one round ran");
    result.n_wr = rounds;
    result.history = history;
    result.timed_out = timed_out;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_retime::{generate_period_constraints, min_area_retiming};

    /// Two-tile ring: one flop must live on the cycle; tile 0 has no
    /// capacity, tile 1 has plenty. LAC must steer the flop to tile 1.
    fn ring_graph() -> (RetimeGraph, Vec<f64>) {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(0));
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(1));
        g.add_edge(a, b, 1); // flop at tile(a) = 0 initially
        g.add_edge(b, a, 0);
        (g, vec![0.0, 10.0])
    }

    #[test]
    fn lac_moves_flop_off_full_tile() {
        let (g, caps) = ring_graph();
        let pc = generate_period_constraints(&g, 100).unwrap();
        let res = lac_retiming(&g, &pc, &caps, &LacConfig::default()).expect("feasible");
        assert_eq!(res.n_foa, 0, "history {:?}", res.history);
        assert_eq!(res.n_f, 1);
        // the flop is now on the edge driven by b (tile 1)
        assert_eq!(res.occupancy.counts, vec![0, 1]);
    }

    #[test]
    fn plain_min_area_violates_where_lac_does_not() {
        let (g, caps) = ring_graph();
        // min-area has no tile preference: either placement gives 1 flop;
        // the initial placement (tile 0) violates.
        let base = min_area_retiming(&g, 100).expect("feasible");
        let scored = score_outcome(&g, base, &caps);
        // Baseline may or may not violate (solver tie), but LAC never does.
        let pc = generate_period_constraints(&g, 100).unwrap();
        let lac = lac_retiming(&g, &pc, &caps, &LacConfig::default()).unwrap();
        assert!(lac.n_foa <= scored.n_foa);
        assert_eq!(lac.n_foa, 0);
    }

    #[test]
    fn occupancy_counts_follow_fanin_rule() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(0));
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(1));
        g.add_edge(a, b, 3);
        g.add_edge(b, a, 2);
        let occ = TileOccupancy::compute(&g, &[3, 2], &[1.0, 1.0]);
        assert_eq!(occ.counts, vec![3, 2]);
        assert_eq!(occ.violations, vec![2, 1]);
        assert_eq!(occ.total_violations(), 3);
    }

    #[test]
    fn untiled_vertices_are_unconstrained() {
        let mut g = RetimeGraph::new();
        let a = g.add_vertex(VertexKind::Host, 0, 1.0, None);
        let b = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(0));
        g.add_edge(a, b, 5);
        g.add_edge(b, a, 0);
        let occ = TileOccupancy::compute(&g, &[5, 0], &[0.0]);
        assert_eq!(occ.total_violations(), 0);
    }

    #[test]
    fn flops_in_interconnect_counts_tails() {
        let mut g = RetimeGraph::new();
        let f = g.add_vertex(VertexKind::Functional, 1, 1.0, Some(0));
        let i = g.add_vertex(VertexKind::Interconnect, 1, 1.0, Some(0));
        g.add_edge(f, i, 2); // at functional tail: not "in interconnect"
        g.add_edge(i, f, 3); // at interconnect tail: counted
        assert_eq!(flops_in_interconnect(&g, &[2, 3]), 3);
    }

    #[test]
    fn infeasible_period_propagates() {
        let (g, caps) = ring_graph();
        // period 1 cannot be met: the cycle has 2 delay per 1 flop.
        let pc = generate_period_constraints(&g, 1).unwrap();
        let err = lac_retiming(&g, &pc, &caps, &LacConfig::default()).unwrap_err();
        assert!(matches!(err, RetimeError::PeriodInfeasible { .. }));
    }

    #[test]
    fn history_records_every_round() {
        let (g, caps) = ring_graph();
        let pc = generate_period_constraints(&g, 100).unwrap();
        let res = lac_retiming(&g, &pc, &caps, &LacConfig::default()).unwrap();
        assert_eq!(res.history.len(), res.n_wr);
        assert_eq!(*res.history.last().unwrap(), 0);
    }

    #[test]
    fn alpha_zero_never_reweights() {
        // With α = 0 the weights stay uniform, so every round repeats the
        // same solution and the loop stops after n_max stale rounds.
        let (g, caps) = ring_graph();
        let tight_caps = vec![0.0, 0.0]; // unavoidable violation
        let pc = generate_period_constraints(&g, 100).unwrap();
        let cfg = LacConfig {
            alpha: 0.0,
            n_max: 3,
            max_rounds: 50,
            ..Default::default()
        };
        let res = lac_retiming(&g, &pc, &tight_caps, &cfg).unwrap();
        assert_eq!(res.n_foa, 1); // one flop must exist somewhere
        assert!(res.n_wr <= 4, "stopped after n_max stale rounds");
        let _ = caps;
    }

    #[test]
    fn max_rounds_caps_the_loop() {
        let (g, _) = ring_graph();
        let caps = vec![0.0, 0.0];
        let pc = generate_period_constraints(&g, 100).unwrap();
        let cfg = LacConfig {
            alpha: 0.5,
            n_max: 1_000,
            max_rounds: 2,
            ..Default::default()
        };
        let res = lac_retiming(&g, &pc, &caps, &cfg).unwrap();
        assert_eq!(res.n_wr, 2);
    }

    #[test]
    fn expired_deadline_returns_best_so_far_as_timed_out() {
        let (g, _) = ring_graph();
        let caps = vec![0.0, 0.0]; // unavoidable violation keeps the loop busy
        let pc = generate_period_constraints(&g, 100).unwrap();
        let cfg = LacConfig {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let res = lac_retiming(&g, &pc, &caps, &cfg).unwrap();
        // The first round always runs; the second never starts.
        assert_eq!(res.n_wr, 1);
        assert!(res.timed_out);
        assert_eq!(res.n_f, 1);
    }

    #[test]
    fn overflow_summary_names_tiles() {
        let occ = TileOccupancy {
            counts: vec![3, 0, 2],
            violations: vec![2, 0, 1],
        };
        assert_eq!(occ.overflowing_tiles(), vec![(0, 2), (2, 1)]);
        let s = occ.overflow_summary();
        assert!(s.contains("tile 0 (+2)"), "{s}");
        assert!(s.contains("tile 2 (+1)"), "{s}");
        let clean = TileOccupancy {
            counts: vec![1],
            violations: vec![0],
        };
        assert_eq!(clean.overflow_summary(), "no tile overflow");
    }

    #[test]
    fn score_key_ranks_legal_above_overflowing() {
        let (g, caps) = ring_graph();
        let pc = generate_period_constraints(&g, 100).unwrap();
        let legal = lac_retiming(&g, &pc, &caps, &LacConfig::default()).unwrap();
        let squeezed = lac_retiming(&g, &pc, &[0.0, 0.0], &LacConfig::default()).unwrap();
        assert!(legal.score_key() < squeezed.score_key());
    }
}
