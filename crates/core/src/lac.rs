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

/// A compressed sparse row list: row `i` is `items[start[i]..start[i + 1]]`.
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Builds `rows` rows from `(row, item)` pairs by one counting pass;
    /// each row keeps its items in the order the pairs give them.
    fn new(rows: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut start = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            start[row + 1] += 1;
        }
        for i in 0..rows {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut items = vec![T::default(); start[rows] as usize];
        for (row, item) in pairs {
            items[next[row] as usize] = item;
            next[row] += 1;
        }
        Self { start, items }
    }
}

impl<T> Csr<T> {
    fn rows(&self) -> usize {
        self.start.len() - 1
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Per-vertex view of the difference-constraint system `r(u) − r(v) ≤ b`,
/// for O(deg) legality checks of single-vertex retiming moves. Rows keep
/// the order of the constraint list.
struct ConstraintIndex {
    /// Row `x`: `(y, b)` for each constraint `r(x) − r(y) ≤ b`.
    by_u: Csr<(u32, i64)>,
    /// Row `x`: `(y, b)` for each constraint `r(y) − r(x) ≤ b`.
    by_v: Csr<(u32, i64)>,
}

impl ConstraintIndex {
    fn new(n: usize, cons: impl Iterator<Item = Constraint> + Clone) -> Self {
        Self {
            by_u: Csr::new(n, cons.clone().map(|c| (c.u, (c.v as u32, c.bound)))),
            by_v: Csr::new(n, cons.map(|c| (c.v, (c.u as u32, c.bound)))),
        }
    }

    /// Would `r[x] += 1` keep every constraint satisfied?
    fn can_increment(&self, r: &[i64], x: usize) -> bool {
        let rx = r[x] + 1;
        self.by_u
            .row(x)
            .iter()
            .all(|&(y, b)| rx - r[y as usize] <= b)
    }

    /// Would `r[x] -= 1` keep every constraint satisfied?
    fn can_decrement(&self, r: &[i64], x: usize) -> bool {
        let rx = r[x] - 1;
        self.by_v
            .row(x)
            .iter()
            .all(|&(y, b)| r[y as usize] - rx <= b)
    }

    /// The constraints at `x` that a unit retiming of a vertex set holding
    /// `x` (`r[S] += 1` when `increment`, else `r[S] -= 1`) tightens unless
    /// their far end `y` joins the set, as `(y, b)` pairs, and the sign `s`
    /// with which each reads `s · (r(x) − r(y)) ≤ b`. A pair is tight at
    /// `r` when equality holds; the edge constraint of an edge is tight
    /// exactly when the edge holds no flip-flop.
    fn tightened(&self, x: usize, increment: bool) -> (&[(u32, i64)], i64) {
        if increment {
            (self.by_u.row(x), 1)
        } else {
            (self.by_v.row(x), -1)
        }
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
    /// Tile `t`'s loaded-edge bits are words `tile_words[t]..tile_words[t
    /// + 1]` of [`Legalizer::loaded`], one bit per `tile_edges[t]` entry.
    tile_words: Vec<u32>,
    /// Each charged edge's bit in [`Legalizer::loaded`].
    bit_of: Vec<u32>,
    /// The connection chain each edge lies on: edges joined through
    /// chain-interior units form one chain.
    chain_of: Vec<u32>,
    /// Per chain: the vertices that drive it and that it feeds, or `None`
    /// for a ring of interior units, which has neither.
    chain_ends: Vec<Option<(VertexId, VertexId)>>,
    /// Row `c`: the tiles chain `c`'s edges are charged to.
    chain_tiles: Csr<usize>,
    /// Row `x`: the chains whose slides read `r[x]`, because `x` is one of
    /// their interior units or a constraint partner of one.
    readers: Csr<u32>,
    /// `indeg(x) − outdeg(x)`. A unit retiming `r[S] += d` changes the
    /// flip-flop total by `d` times its sum over S (edges inside S cancel).
    in_minus_out: Vec<i64>,
    /// Fixed odd per-vertex keys of the tabu fingerprint `Σ r[x]·keys[x]`.
    keys: Vec<u64>,
}

impl LegalizeIndex {
    fn new(
        graph: &RetimeGraph,
        constraints: impl Iterator<Item = Constraint> + Clone,
        caps_ff: &[f64],
    ) -> Self {
        let n = graph.num_vertices();
        let edges = graph.edges();
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
        let charged: Vec<Option<usize>> = edges.iter().map(|e| graph.tile(e.from)).collect();
        let mut tile_edges = vec![Vec::new(); caps_ff.len()];
        for (ei, t) in charged.iter().enumerate() {
            if let Some(t) = *t {
                tile_edges[t].push(EdgeId(ei as u32));
            }
        }
        let mut tile_words = vec![0u32];
        let mut bit_of = vec![u32::MAX; edges.len()];
        for (t, edges) in tile_edges.iter().enumerate() {
            for (i, e) in edges.iter().enumerate() {
                bit_of[e.index()] = 64 * tile_words[t] + i as u32;
            }
            tile_words.push(tile_words[t] + edges.len().div_ceil(64) as u32);
        }

        // Chains are paths (or, in degenerate graphs, rings) of edges
        // through interior units: walk up to a chain's first edge, then
        // number the chain walking down.
        let mut chain_of = vec![u32::MAX; edges.len()];
        let mut chain_ends = Vec::new();
        for e0 in 0..edges.len() {
            if chain_of[e0] != u32::MAX {
                continue;
            }
            let (mut e, mut ring) = (e0, false);
            while let Some(prev) = only_in[edges[e].from.index()] {
                if prev.index() == e0 {
                    ring = true;
                    break;
                }
                e = prev.index();
            }
            let source = edges[e].from;
            loop {
                chain_of[e] = chain_ends.len() as u32;
                match only_out[edges[e].to.index()] {
                    Some(next) if chain_of[next.index()] == u32::MAX => e = next.index(),
                    _ => break,
                }
            }
            chain_ends.push((!ring).then_some((source, edges[e].to)));
        }
        let mut chain_tiles: Vec<(usize, usize)> = (0..edges.len())
            .filter_map(|e| charged[e].map(|t| (chain_of[e] as usize, t)))
            .collect();
        chain_tiles.sort_unstable();
        chain_tiles.dedup();

        let cons = ConstraintIndex::new(n, constraints);
        // Each interior unit is the head of exactly one edge, its chain's,
        // which reads the unit and the unit's constraint partners.
        let interior = edges
            .iter()
            .enumerate()
            .map(|(e, edge)| (e, edge.to.index()));
        let interior = interior.filter(|&(_, x)| only_out[x].is_some());
        let degree = |x: usize| cons.by_u.row(x).len() + cons.by_v.row(x).len();
        let len = interior.clone().map(|(_, x)| 1 + degree(x)).sum();
        let mut readers: Vec<(u32, u32)> = Vec::with_capacity(len);
        for (e, x) in interior {
            let c = chain_of[e];
            readers.push((x as u32, c));
            let partners = cons.by_u.row(x).iter().chain(cons.by_v.row(x));
            readers.extend(partners.map(|&(y, _)| (y, c)));
        }
        readers.sort_unstable();
        readers.dedup();

        let mut in_minus_out = vec![0i64; n];
        for edge in edges {
            in_minus_out[edge.to.index()] += 1;
            in_minus_out[edge.from.index()] -= 1;
        }
        let mut rng = Rng::seed_from_u64(0x7ab0_f1a9_c0de_5eed);
        let keys = (0..n).map(|_| rng.next_u64() | 1).collect();
        Self {
            cons,
            cap: caps_ff.iter().map(|c| c.floor().max(0.0) as i64).collect(),
            only_in,
            only_out,
            charged,
            tile_edges,
            tile_words,
            bit_of,
            chain_tiles: Csr::new(chain_ends.len(), chain_tiles.iter().copied()),
            chain_of,
            chain_ends,
            readers: Csr::new(n, readers.iter().map(|&(x, c)| (x as usize, c))),
            in_minus_out,
            keys,
        }
    }
}

/// One journalled change to the legaliser's state.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Change {
    /// `r[vertex] += delta`.
    Lag(usize, i64),
    /// `weights[edge] += delta`, with the charged tile's count and
    /// loaded-edge bit and the flip-flop total.
    Weight(usize, i64),
}

/// A beam-search state: a copy of the legaliser's vectors.
#[derive(Clone)]
struct State {
    excess: i64,
    r: Vec<i64>,
    weights: Vec<i64>,
    counts: Vec<i64>,
    loaded: Vec<u64>,
    flops: i64,
    hash: u64,
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
    slide_skips: u64,
    slides: u64,
}

impl LegalizeStats {
    fn flush(&self) {
        lacr_obs::counter!("lac.beam_states", self.beam_states);
        lacr_obs::counter!("lac.cluster_tries", self.cluster_tries);
        lacr_obs::counter!("lac.cluster_moves", self.cluster_moves);
        lacr_obs::counter!("lac.tabu_hits", self.tabu_hits);
        lacr_obs::counter!("lac.slide_tries", self.slide_tries);
        lacr_obs::counter!("lac.slide_skips", self.slide_skips);
        lacr_obs::counter!("lac.slides", self.slides);
    }
}

/// The most cluster-move candidates a beam state offers; each is one bit
/// of a [`ClosureSweep`] mask.
const MAX_CANDIDATES: usize = 64;
const _: () = assert!(MAX_CANDIDATES <= u64::BITS as usize);

/// Marks a vertex the sweep has not reached, or one still on Tarjan's
/// stack.
const UNSEEN: u32 = u32::MAX;

/// The closure digraph at one state: an arc `x → y` for each constraint
/// `r(x) − r(y) ≤ b` tight at `r`. The edge constraints are among them, so
/// a zero-weight edge `x → y` is an arc too. An increment grows a cluster
/// forward along it, a decrement backward.
#[derive(Clone, Copy)]
struct ClosureArcs<'a> {
    ix: &'a LegalizeIndex,
    r: &'a [i64],
    increment: bool,
}

impl ClosureArcs<'_> {
    /// Appends the vertices a cluster holding `x` must also hold.
    fn successors(&self, x: usize, out: &mut Vec<u32>) {
        let (row, s) = self.ix.cons.tightened(x, self.increment);
        let (r, rx) = (self.r, self.r[x]);
        let tight = row.iter().filter(|&&(y, b)| s * (rx - r[y as usize]) >= b);
        out.extend(tight.map(|&(y, _)| y));
    }
}

/// Decides every cluster-move candidate of a beam state in one sweep per
/// direction. The candidates all start from the same state (each move is
/// undone before the next), so each closure is the set its seed reaches in
/// the [`ClosureArcs`] digraph. Tarjan's algorithm condenses the part the
/// seeds reach into strongly connected components; one pass in
/// topological order then spreads a 64-bit candidate mask per component,
/// from which each closure's size and flip-flop change are read off.
/// Buffers are reused across beam states and rounds.
struct ClosureSweep {
    /// Per vertex: its discovery index, or `UNSEEN`.
    index: Vec<u32>,
    /// Per vertex: Tarjan's low-link.
    low: Vec<u32>,
    /// Per vertex: its component, or `UNSEEN` until it has one.
    comp: Vec<u32>,
    /// Per vertex: its successors' range in `arcs`.
    arc_range: Vec<(u32, u32)>,
    arcs: Vec<u32>,
    /// The vertices reached, in discovery order.
    reached: Vec<u32>,
    /// Depth-first frames: a vertex and the position of its next arc.
    frames: Vec<(u32, u32)>,
    stack: Vec<u32>,
    /// Component `c` is `members[comp_start[c]..comp_start[c + 1]]`.
    /// Components are numbered as Tarjan finishes them, so every arc runs
    /// from a component to itself or to a lower-numbered one.
    members: Vec<u32>,
    comp_start: Vec<u32>,
    /// Per component: a bit for each candidate whose closure contains it.
    mask: Vec<u64>,
    /// Per candidate: its closure's size and `Σ (indeg − outdeg)` over it.
    verdicts: Vec<(usize, i64)>,
}

impl ClosureSweep {
    fn new(n: usize) -> Self {
        Self {
            index: vec![UNSEEN; n],
            low: vec![0; n],
            comp: vec![UNSEEN; n],
            arc_range: vec![(0, 0); n],
            arcs: Vec::new(),
            reached: Vec::new(),
            frames: Vec::new(),
            stack: Vec::new(),
            members: Vec::new(),
            comp_start: Vec::new(),
            mask: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Fills `verdicts`, parallel to `candidates`: `(seed, increment)`
    /// pairs, at most [`MAX_CANDIDATES`], at the state `arcs` reads.
    fn run(&mut self, arcs: ClosureArcs<'_>, candidates: &[(usize, bool)]) {
        debug_assert!(candidates.len() <= MAX_CANDIDATES);
        self.verdicts.clear();
        self.verdicts.resize(candidates.len(), (0, 0));
        for increment in [true, false] {
            let arcs = ClosureArcs { increment, ..arcs };
            let seeds = || {
                candidates
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.1 == increment)
            };
            self.comp_start.clear();
            self.comp_start.push(0);
            for (_, &(seed, _)) in seeds() {
                if self.index[seed] == UNSEEN {
                    self.condense(seed, arcs);
                }
            }
            let comps = self.comp_start.len() - 1;
            self.mask.clear();
            self.mask.resize(comps, 0);
            for (i, &(seed, _)) in seeds() {
                self.mask[self.comp[seed] as usize] |= 1u64 << i;
            }
            // Highest component first: every mask is complete before it
            // spreads to the components its arcs reach. Consecutive
            // components mostly share a mask, so each run of equal masks
            // is summed first and added to its candidates once.
            let mut run = (0u64, 0usize, 0i64);
            for c in (0..comps).rev() {
                let m = self.mask[c];
                let vs =
                    &self.members[self.comp_start[c] as usize..self.comp_start[c + 1] as usize];
                if m != run.0 {
                    add_to_candidates(&mut self.verdicts, run);
                    run = (m, 0, 0);
                }
                run.1 += vs.len();
                for &v in vs {
                    run.2 += arcs.ix.in_minus_out[v as usize];
                    let (a, b) = self.arc_range[v as usize];
                    for &w in &self.arcs[a as usize..b as usize] {
                        let cw = self.comp[w as usize] as usize;
                        if cw != c {
                            self.mask[cw] |= m;
                        }
                    }
                }
            }
            add_to_candidates(&mut self.verdicts, run);
            for &v in &self.reached {
                self.index[v as usize] = UNSEEN;
                self.comp[v as usize] = UNSEEN;
            }
            self.reached.clear();
            self.arcs.clear();
            self.members.clear();
        }
    }

    /// Tarjan's algorithm from `root`, without recursion: numbers the
    /// components of everything `root` reaches that no earlier call did.
    fn condense(&mut self, root: usize, arcs: ClosureArcs<'_>) {
        self.discover(root, arcs);
        while let Some(&(v, next)) = self.frames.last() {
            let v = v as usize;
            if next < self.arc_range[v].1 {
                self.frames.last_mut().expect("a frame is open").1 += 1;
                let w = self.arcs[next as usize] as usize;
                if self.index[w] == UNSEEN {
                    self.discover(w, arcs);
                } else if self.comp[w] == UNSEEN {
                    self.low[v] = self.low[v].min(self.index[w]);
                }
                continue;
            }
            self.frames.pop();
            if let Some(&(parent, _)) = self.frames.last() {
                let parent = parent as usize;
                self.low[parent] = self.low[parent].min(self.low[v]);
            }
            if self.low[v] == self.index[v] {
                let c = (self.comp_start.len() - 1) as u32;
                loop {
                    let w = self.stack.pop().expect("v is on the stack");
                    self.comp[w as usize] = c;
                    self.members.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                self.comp_start.push(self.members.len() as u32);
            }
        }
    }

    /// Numbers `v`, pushes it and lists its successors.
    fn discover(&mut self, v: usize, arcs: ClosureArcs<'_>) {
        let i = self.reached.len() as u32;
        self.index[v] = i;
        self.low[v] = i;
        self.reached.push(v as u32);
        self.stack.push(v as u32);
        let start = self.arcs.len() as u32;
        arcs.successors(v, &mut self.arcs);
        self.arc_range[v] = (start, self.arcs.len() as u32);
        self.frames.push((v as u32, start));
    }
}

/// Adds a run of components, `(mask, size, flow)`, to the verdict of each
/// candidate in its mask.
fn add_to_candidates(verdicts: &mut [(usize, i64)], (mask, size, flow): (u64, usize, i64)) {
    let mut bits = mask;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        verdicts[i].0 += size;
        verdicts[i].1 += flow;
    }
}

/// Working state of the flip-flop placement legaliser, built once per
/// [`lac_retiming`] call and reused by every round. Every change to `r`
/// and `weights` goes through [`Self::record`], which logs it in
/// `journal`, so [`Self::undo_to`] reverts any suffix of moves in time
/// proportional to its size. (A slide probe shifts `r` without it, and
/// puts it back before returning.)
struct Legalizer<'a> {
    graph: &'a RetimeGraph,
    ix: &'a LegalizeIndex,
    r: Vec<i64>,
    weights: Vec<i64>,
    /// Flip-flops charged to each tile.
    counts: Vec<i64>,
    /// A bit per charged edge, set while it holds a flip-flop (see
    /// [`LegalizeIndex::tile_words`]).
    loaded: Vec<u64>,
    /// Total flip-flops (the sum of `weights`).
    flops: i64,
    /// Tabu fingerprint of `r`: `Σ r[x]·ix.keys[x]`, wrapping.
    hash: u64,
    /// Changes since the last loaded state, oldest first.
    journal: Vec<Change>,
    /// Cluster buffers: `x` is in the cluster being grown iff
    /// `stamp[x] == epoch`; `members` lists it in joining order.
    stamp: Vec<u32>,
    epoch: u32,
    members: Vec<usize>,
    stack: Vec<usize>,
    /// The steps of the last probed slide walk (see
    /// [`Self::probe_walk`]).
    walk: Vec<(usize, EdgeId)>,
    /// Slide skipping, in `clock` ticks (one per failed slide).
    /// `failed_at[e]`: when a slide of `e` last failed (0: not this
    /// round). `chain_stamp[c]`: when `r` last changed at one of chain
    /// `c`'s readers. `room_stamp[t]`: when tile `t` last went from full to
    /// having room.
    clock: u64,
    failed_at: Vec<u64>,
    chain_stamp: Vec<u64>,
    room_stamp: Vec<u64>,
    sweep: ClosureSweep,
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
///   the total flip-flop count never changes. A slide that failed is
///   skipped until something it reads changes ([`Legalizer::try_slide`]);
/// * **cluster moves** — when a chain never leaves the overfull tile, the
///   flip-flop can only escape by retiming a functional endpoint of its
///   connection. A unit retiming of a vertex *set* S (`r(S) ± 1`) moves
///   flip-flops across S's boundary only: every boundary edge that loses a
///   flip-flop must carry one, and every constraint that tightens must
///   have slack. Growing S from a seed gate by closure — absorb the far
///   endpoint of any flop-less losing edge and of any tight constraint —
///   always yields a legal composite move (or swallows the whole graph
///   and is abandoned). Single-gate retimings, chain re-staging and
///   multi-fanin pull-throughs all arise as special cases. One
///   [`ClosureSweep`] per beam state sizes every candidate's closure, so
///   only moves within the flip-flop budget are grown.
fn legalize_flop_placement(lg: &mut Legalizer<'_>, outcome: &mut RetimingOutcome) {
    // The closures read a zero-weight edge as its tight edge constraint,
    // which holds while every weight is the retimed one.
    debug_assert_eq!(
        outcome.weights,
        lg.graph.retimed_weights(&outcome.retiming),
        "weights follow the retiming"
    );
    lg.start(&outcome.retiming, &outcome.weights);
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
    // Membership-only tabu set — never iterated, so hash ordering cannot
    // leak into which states the beam explores. (The frontier itself is
    // kept in order of excess, equal-excess states in the deterministic
    // order they were found.)
    let mut seen = std::collections::HashSet::new();
    seen.insert(lg.hash);
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
            lg.sweep_closures(&candidates);
            for (i, &(seed, up)) in candidates.iter().enumerate() {
                if lg.try_cluster_move(i, seed, up, budget) {
                    lg.slide_pass();
                    if seen.insert(lg.hash) {
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
    std::mem::take(&mut lg.stats).flush();

    outcome.total_flops = lg.flops;
    outcome.period = lg
        .graph
        .try_clock_period(&lg.weights)
        .expect("legalised weights stay acyclic on zero-weight subgraph");
    outcome.retiming.copy_from_slice(&lg.r);
    outcome.weights.copy_from_slice(&lg.weights);
}

impl<'a> Legalizer<'a> {
    fn new(graph: &'a RetimeGraph, ix: &'a LegalizeIndex) -> Self {
        let (n, m) = (graph.num_vertices(), graph.num_edges());
        Self {
            graph,
            ix,
            r: vec![0; n],
            weights: vec![0; m],
            counts: vec![0; ix.cap.len()],
            loaded: vec![0; *ix.tile_words.last().expect("one more start than tiles") as usize],
            flops: 0,
            hash: 0,
            journal: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
            members: Vec::new(),
            stack: Vec::new(),
            walk: Vec::new(),
            clock: 0,
            failed_at: vec![0; m],
            chain_stamp: vec![0; ix.chain_tiles.rows()],
            room_stamp: vec![0; ix.cap.len()],
            sweep: ClosureSweep::new(n),
            stats: LegalizeStats::default(),
        }
    }

    /// Makes `(r, weights)` the current state, with an empty journal, and
    /// forgets every slide failure seen so far.
    fn start(&mut self, r: &[i64], weights: &[i64]) {
        self.r.copy_from_slice(r);
        self.weights.copy_from_slice(weights);
        let ix = self.ix;
        self.counts.fill(0);
        self.loaded.fill(0);
        for (e, (&w, t)) in weights.iter().zip(&ix.charged).enumerate() {
            if let Some(t) = *t {
                self.counts[t] += w;
                self.set_loaded(e);
            }
        }
        self.flops = weights.iter().sum();
        self.hash = r.iter().zip(&ix.keys).fold(0u64, |h, (&x, &k)| {
            h.wrapping_add((x as u64).wrapping_mul(k))
        });
        self.journal.clear();
        self.failed_at.fill(0);
    }
}

impl Legalizer<'_> {
    /// Applies `change` and journals it.
    fn record(&mut self, change: Change) {
        self.apply(change, 1);
        self.journal.push(change);
    }

    /// `r[x] += d`, journalled, marking the chains that read `r[x]`.
    fn shift_lag(&mut self, x: usize, d: i64) {
        self.record(Change::Lag(x, d));
        self.touch(x);
    }

    /// `weights[e] += d`, journalled. An edge's weight moves only with the
    /// lags at its ends, so the lag shifts mark the chains it matters to.
    fn add_weight(&mut self, e: usize, d: i64) {
        self.record(Change::Weight(e, d));
        debug_assert!(self.weights[e] >= 0, "moves keep every edge weight legal");
    }

    /// Applies `change` (`sign = 1`) or reverts it (`sign = -1`), keeping
    /// the fingerprint in step and stamping a tile that gains room.
    fn apply(&mut self, change: Change, sign: i64) {
        match change {
            Change::Lag(x, d) => {
                self.r[x] += sign * d;
                let key = self.ix.keys[x];
                self.hash = self
                    .hash
                    .wrapping_add(((sign * d) as u64).wrapping_mul(key));
            }
            Change::Weight(e, d) => {
                self.weights[e] += sign * d;
                self.flops += sign * d;
                if let Some(t) = self.ix.charged[e] {
                    let (cap, was) = (self.ix.cap[t], self.counts[t]);
                    self.counts[t] += sign * d;
                    if was >= cap && self.counts[t] < cap {
                        self.room_stamp[t] = self.clock;
                    }
                    self.set_loaded(e);
                }
            }
        }
    }

    /// Makes charged edge `e`'s loaded bit say whether it holds a
    /// flip-flop.
    fn set_loaded(&mut self, e: usize) {
        let bit = self.ix.bit_of[e] as usize;
        let (word, mask) = (&mut self.loaded[bit / 64], 1u64 << (bit % 64));
        if self.weights[e] > 0 {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The first edge at position `from` or later in `tile_edges[t]` that
    /// holds a flip-flop, and its position.
    fn next_loaded(&self, t: usize, from: usize) -> Option<(usize, EdgeId)> {
        let ix = self.ix;
        let (first, end) = (ix.tile_words[t] as usize, ix.tile_words[t + 1] as usize);
        let mut word = first + from / 64;
        if word >= end {
            return None;
        }
        let mut bits = self.loaded[word] & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            if word == end {
                return None;
            }
            bits = self.loaded[word];
        }
        let i = 64 * (word - first) + bits.trailing_zeros() as usize;
        Some((i, ix.tile_edges[t][i]))
    }

    /// Marks every chain whose slides read `r[x]` as changed.
    fn touch(&mut self, x: usize) {
        let ix = self.ix;
        for &c in ix.readers.row(x) {
            self.chain_stamp[c as usize] = self.clock;
        }
    }

    /// Reverts the journal, newest change first, until `mark` changes
    /// remain, marking the chains that read each reverted lag.
    fn undo_to(&mut self, mark: usize) {
        while self.journal.len() > mark {
            let change = self.journal.pop().expect("journal is longer than mark");
            self.apply(change, -1);
            if let Change::Lag(x, _) = change {
                self.touch(x);
            }
        }
    }

    /// [`Self::undo_to`] for a failed slide walk, which marks nothing: the
    /// walk leaves no net change, and no tile gains room on the way.
    #[cfg(any(test, debug_assertions))]
    fn unwind_to(&mut self, mark: usize) {
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
            loaded: self.loaded.clone(),
            flops: self.flops,
            hash: self.hash,
        }
    }

    /// Makes `state` the current state, with an empty journal, marking only
    /// the lags and tiles that differ from the state it replaces.
    fn load(&mut self, state: &State) {
        let ix = self.ix;
        for x in 0..self.r.len() {
            if self.r[x] != state.r[x] {
                self.r[x] = state.r[x];
                self.touch(x);
            }
        }
        self.weights.copy_from_slice(&state.weights);
        for (t, (cur, &new)) in self.counts.iter_mut().zip(&state.counts).enumerate() {
            if *cur >= ix.cap[t] && new < ix.cap[t] {
                self.room_stamp[t] = self.clock;
            }
            *cur = new;
        }
        self.loaded.copy_from_slice(&state.loaded);
        self.flops = state.flops;
        self.hash = state.hash;
        self.journal.clear();
    }

    fn total_excess(&self) -> i64 {
        self.counts
            .iter()
            .zip(&self.ix.cap)
            .map(|(&c, &k)| (c - k).max(0))
            .sum()
    }

    /// Cluster-move seeds, sorted and deduplicated, at most
    /// [`MAX_CANDIDATES`]: the two ends of every connection holding a
    /// flip-flop charged to an overfull tile (a ring of interconnect units
    /// has none). Retiming the source side up (a cluster grown from it)
    /// frees the flip-flop backwards onto the source's fanins; retiming the
    /// sink side down pulls it forwards onto the sink's fanouts.
    fn collect_candidates(&self, out: &mut Vec<(usize, bool)>) {
        let ix = self.ix;
        out.clear();
        for t in 0..ix.cap.len() {
            if self.counts[t] <= ix.cap[t] {
                continue;
            }
            let mut from = 0;
            while let Some((i, e)) = self.next_loaded(t, from) {
                if let Some((source, sink)) = ix.chain_ends[ix.chain_of[e.index()] as usize] {
                    out.push((source.index(), true));
                    out.push((sink.index(), false));
                }
                from = i + 1;
            }
        }
        out.sort_unstable();
        out.dedup();
        out.truncate(MAX_CANDIDATES);
    }

    /// Sizes every candidate's closure at the current state.
    fn sweep_closures(&mut self, candidates: &[(usize, bool)]) {
        let arcs = ClosureArcs {
            ix: self.ix,
            r: &self.r,
            increment: true,
        };
        self.sweep.run(arcs, candidates);
    }

    /// Grows the closure of `{seed}` for a legal unit retiming of a whole
    /// vertex set (`r[S] += 1` when `increment`, else `r[S] -= 1`) into
    /// `members`: a constraint that would tighten and is already tight
    /// forces its far endpoint into S (constraints inside S never change).
    /// The edge constraints are among them, so a boundary edge that would
    /// lose a flip-flop but carries none pulls its far end in too.
    ///
    /// Returns `false` when the closure swallows the whole graph (a no-op
    /// shift). The host may join S: weights and constraints only depend on
    /// retiming differences, and moves through the host are how flip-flops
    /// reach the pad ring.
    fn grow_cluster(&mut self, seed: usize, increment: bool) -> bool {
        let ix = self.ix;
        self.epoch += 1;
        self.members.clear();
        self.stack.clear();
        self.absorb(seed);
        while let Some(x) = self.stack.pop() {
            if self.members.len() >= self.graph.num_vertices() {
                return false;
            }
            let (row, s) = ix.cons.tightened(x, increment);
            for &(y, b) in row {
                if s * (self.r[x] - self.r[y as usize]) >= b {
                    self.absorb(y as usize);
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

    /// The reference for a [`ClosureSweep`] verdict: grows the closure of
    /// `seed` alone and counts the flip-flops crossing its boundary.
    /// `None` if it swallows the graph, else its size and the change in
    /// total flip-flops its unit retiming would make.
    #[cfg(any(test, debug_assertions))]
    fn grown_verdict(&mut self, seed: usize, increment: bool) -> Option<(usize, i64)> {
        if !self.grow_cluster(seed, increment) {
            return None;
        }
        let graph = self.graph;
        let d: i64 = if increment { 1 } else { -1 };
        // An out-edge leaving S loses d flip-flops, an in-edge entering S
        // gains d.
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
        Some((self.members.len(), flop_delta))
    }

    /// Applies the unit retiming of `candidate`'s closure (grown from
    /// `seed`) unless the sweep found that it swallows the graph or would
    /// exceed the flip-flop `budget`. `true` iff applied.
    fn try_cluster_move(
        &mut self,
        candidate: usize,
        seed: usize,
        increment: bool,
        budget: i64,
    ) -> bool {
        self.stats.cluster_tries += 1;
        let d: i64 = if increment { 1 } else { -1 };
        let (size, flow) = self.sweep.verdicts[candidate];
        let swallowed = size == self.graph.num_vertices();
        #[cfg(debug_assertions)]
        assert_eq!(
            self.grown_verdict(seed, increment),
            (!swallowed).then_some((size, d * flow)),
            "closure sweep verdict for seed {seed} (increment: {increment})"
        );
        if swallowed || self.flops + d * flow > budget {
            return false;
        }
        self.grow_cluster(seed, increment);
        let graph = self.graph;
        // Only the boundary edges change: an out-edge leaving S loses d
        // flip-flops, an in-edge entering S gains d.
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
    /// full sweep makes no progress. A sweep visits only a tile's loaded
    /// edges, in ascending order.
    fn slide_pass(&mut self) {
        let ix = self.ix;
        loop {
            let mut progress = false;
            for t in 0..ix.cap.len() {
                while self.counts[t] > ix.cap[t] {
                    let (mut moved, mut from) = (false, 0);
                    while self.counts[t] > ix.cap[t] {
                        let Some((i, e)) = self.next_loaded(t, from) else {
                            break;
                        };
                        moved |= self.try_slide(e, t);
                        from = i + 1;
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

    /// Offers the flip-flops on `e` (charged to overfull tile `from_tile`)
    /// a slide; `true` iff one moved. Besides `weights[e] > 0`, a slide
    /// reads only `r` at its chain's [`LegalizeIndex::readers`] (the
    /// chain's ends among them, so they also fix its weights) and whether
    /// each of the chain's other tiles has room: the walk carries one
    /// flip-flop, so it lands in a tile exactly when that tile had room
    /// before. A slide that failed therefore fails again until one of
    /// those changes, and is skipped until then.
    fn try_slide(&mut self, e: EdgeId, from_tile: usize) -> bool {
        if self.slide_must_fail(e) {
            self.stats.slide_skips += 1;
            // Debug builds replay the skipped slide through the journal:
            // it must fail, which leaves the state as it was.
            #[cfg(debug_assertions)]
            assert!(
                !self.slide_journalled(e, from_tile),
                "skipped slide of edge {} succeeds",
                e.index()
            );
            return false;
        }
        self.stats.slide_tries += 1;
        let mark = self.journal.len();
        if !self.slide_flop(e, from_tile) {
            self.clock += 1;
            self.failed_at[e.index()] = self.clock;
            return false;
        }
        self.stats.slides += 1;
        for i in mark..self.journal.len() {
            if let Change::Lag(x, _) = self.journal[i] {
                self.touch(x);
            }
        }
        true
    }

    /// Whether a slide of `e` failed and nothing it reads has changed
    /// since. Its own tile is never a landing spot, so only the chain's
    /// other tiles count.
    fn slide_must_fail(&self, e: EdgeId) -> bool {
        let (failed, c) = (
            self.failed_at[e.index()],
            self.ix.chain_of[e.index()] as usize,
        );
        let own = self.ix.charged[e.index()];
        failed > self.chain_stamp[c]
            && self
                .ix
                .chain_tiles
                .row(c)
                .iter()
                .all(|&t| Some(t) == own || failed > self.room_stamp[t])
    }

    /// Tries to move one flip-flop off edge `e` (charged to overfull tile
    /// `from_tile`) by sliding it downstream, then upstream, along its
    /// connection chain until it lands in a tile with spare capacity; an
    /// untiled chain unit charges no tile and is no landing spot. Applies
    /// and journals the move, unmarked, and returns `true` on success;
    /// leaves all state untouched and returns `false` otherwise.
    ///
    /// Each walk is first probed without the journal; only a walk that
    /// lands is journalled, with the changes [`Self::slide_journalled`]
    /// makes, in its order.
    fn slide_flop(&mut self, e: EdgeId, from_tile: usize) -> bool {
        for down in [true, false] {
            if self.probe_walk(e, from_tile, down) {
                let mut cur = e;
                for i in 0..self.walk.len() {
                    let (x, next) = self.walk[i];
                    self.record(Change::Lag(x, if down { -1 } else { 1 }));
                    self.record(Change::Weight(cur.index(), -1));
                    self.record(Change::Weight(next.index(), 1));
                    cur = next;
                }
                return true;
            }
        }
        false
    }

    /// Walks a flip-flop off `e` (`down`: downstream) into `walk`, one
    /// `(retimed unit, next edge)` pair per step, and tells whether it
    /// lands; the state is left as it was. A walk reads only `r`, which
    /// the probe shifts in place and restores: each step's edge holds the
    /// flip-flop it carries, and the chain edges it passes get their
    /// weights back, so the flip-flop lands on `e'` exactly when `e'` is
    /// charged to a tile other than `from_tile` that had room before.
    fn probe_walk(&mut self, e: EdgeId, from_tile: usize, down: bool) -> bool {
        debug_assert!(self.weights[e.index()] > 0 && self.ix.charged[e.index()] == Some(from_tile));
        let d = if down { -1 } else { 1 };
        self.walk.clear();
        let (mut cur, mut landed) = (e, false);
        while let Some((x, next)) = self.slide_step(e, cur, down) {
            self.r[x] += d;
            self.walk.push((x, next));
            if self.lands(next, from_tile, 1) {
                landed = true;
                break;
            }
            cur = next;
        }
        for &(x, _) in &self.walk {
            self.r[x] -= d;
        }
        landed
    }

    /// The next step of a slide that carries a flip-flop from `e` and has
    /// it on `cur`: the unit it retimes (the head when `down`, else the
    /// tail) and the edge the flip-flop moves onto. `None` at the end of
    /// the chain, where the retiming breaks a constraint, and after one lap
    /// of a ring, since a second lap passes the same edges at the same
    /// counts.
    fn slide_step(&self, e: EdgeId, cur: EdgeId, down: bool) -> Option<(usize, EdgeId)> {
        let (edge, ix) = (self.graph.edge(cur), self.ix);
        let (x, next) = if down {
            let x = edge.to.index();
            (x, ix.only_out[x]?)
        } else {
            let x = edge.from.index();
            (x, ix.only_in[x]?)
        };
        if next == e {
            return None;
        }
        let legal = if down {
            ix.cons.can_decrement(&self.r, x)
        } else {
            ix.cons.can_increment(&self.r, x)
        };
        legal.then_some((x, next))
    }

    /// Whether edge `e` is charged to a tile other than `from_tile` whose
    /// count, plus `pending` flip-flops not counted yet, fits its
    /// capacity.
    fn lands(&self, e: EdgeId, from_tile: usize, pending: i64) -> bool {
        self.ix.charged[e.index()]
            .is_some_and(|t| t != from_tile && self.counts[t] + pending <= self.ix.cap[t])
    }

    /// The reference for [`Self::slide_flop`]: walks the flip-flop through
    /// the journal, step by step, and unwinds a walk that does not land.
    #[cfg(any(test, debug_assertions))]
    fn slide_journalled(&mut self, e: EdgeId, from_tile: usize) -> bool {
        let mark = self.journal.len();
        for down in [true, false] {
            let mut cur = e;
            while let Some((x, next)) = self.slide_step(e, cur, down) {
                if self.weights[cur.index()] < 1 {
                    break;
                }
                self.record(Change::Lag(x, if down { -1 } else { 1 }));
                self.record(Change::Weight(cur.index(), -1));
                self.record(Change::Weight(next.index(), 1));
                if self.lands(next, from_tile, 0) {
                    return true;
                }
                cur = next;
            }
            self.unwind_to(mark);
        }
        false
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
    let legalize_index = {
        let edge_cons = edge_constraints(graph);
        let cons = edge_cons.iter().chain(&period_constraints.constraints);
        LegalizeIndex::new(graph, cons.copied(), caps_ff)
    };
    let mut legalizer = Legalizer::new(graph, &legalize_index);
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
        if best.is_some()
            && config
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
        {
            timed_out = true;
            break;
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
        legalize_flop_placement(&mut legalizer, &mut outcome);
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
            lacr_obs::counter!("lac.occupancy_delta", abs_delta);
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

    /// Chain `a → i1 → b` and chain `c → i2 → d`, through interconnect
    /// units `i1` (tile 1) and `i2` (tile 2), plus a lone vertex `p`.
    /// Tile 0 holds `a`'s flip-flop, whose only slide lands in tile 1, and
    /// tile 1 holds `c`'s. Returns the graph and the edges `a → i1`,
    /// `c → i2`, `i2 → d`.
    fn two_chains() -> (RetimeGraph, [usize; 3]) {
        let mut g = RetimeGraph::new();
        let mut unit = |kind, tile| g.add_vertex(kind, 1, 1.0, Some(tile));
        let a = unit(VertexKind::Functional, 0);
        let i1 = unit(VertexKind::Interconnect, 1);
        let b = unit(VertexKind::Functional, 1);
        let c = unit(VertexKind::Functional, 1);
        let i2 = unit(VertexKind::Interconnect, 2);
        let d = unit(VertexKind::Functional, 2);
        unit(VertexKind::Functional, 2); // p
        let a_i1 = g.add_edge(a, i1, 1);
        g.add_edge(i1, b, 0);
        let c_i2 = g.add_edge(c, i2, 1);
        let i2_d = g.add_edge(i2, d, 0);
        (g, [a_i1.index(), c_i2.index(), i2_d.index()])
    }

    const I1: usize = 1;
    const I2: usize = 4;
    const P: usize = 6;

    fn slide_stats(lg: &Legalizer<'_>) -> (u64, u64, u64) {
        (lg.stats.slide_tries, lg.stats.slide_skips, lg.stats.slides)
    }

    #[test]
    fn a_slide_blocked_by_a_full_tile_is_retried_once_that_tile_has_room() {
        let (g, [_, c_i2, i2_d]) = two_chains();
        let ix = LegalizeIndex::new(&g, edge_constraints(&g).into_iter(), &[0.0, 1.0, 5.0]);
        let mut lg = Legalizer::new(&g, &ix);
        lg.start(&[0; 7], &g.weights());
        lg.slide_pass();
        assert_eq!(slide_stats(&lg), (1, 0, 0), "tile 1 is full");
        lg.slide_pass();
        assert_eq!(slide_stats(&lg), (1, 1, 0), "nothing changed: skipped");
        // A move on the other chain: c's flip-flop steps past i2 into
        // tile 2. Nothing chain a → i1 → b reads changes except tile 1's
        // room.
        lg.shift_lag(I2, -1);
        lg.add_weight(c_i2, -1);
        lg.add_weight(i2_d, 1);
        assert_eq!(lg.counts, [1, 0, 1]);
        lg.slide_pass();
        assert_eq!(slide_stats(&lg), (2, 1, 1), "retried once tile 1 has room");
        assert_eq!(lg.counts, [0, 1, 1]);
    }

    #[test]
    fn a_slide_blocked_by_a_constraint_is_retried_once_its_partner_moves() {
        let (g, _) = two_chains();
        // r(p) − r(i1) ≤ 0 forbids sliding a's flip-flop past i1 until p
        // moves down.
        let mut cons = edge_constraints(&g);
        cons.push(Constraint::new(P, I1, 0));
        let ix = LegalizeIndex::new(&g, cons.iter().copied(), &[0.0, 5.0, 5.0]);
        let mut lg = Legalizer::new(&g, &ix);
        lg.start(&[0; 7], &g.weights());
        lg.slide_pass();
        lg.slide_pass();
        assert_eq!(slide_stats(&lg), (1, 1, 0));
        lg.shift_lag(P, -1);
        lg.slide_pass();
        assert_eq!(slide_stats(&lg), (2, 1, 1), "retried once p moved");
        assert_eq!(lg.counts, [0, 2, 0]);
    }

    #[test]
    fn closure_sweep_verdicts_match_individual_grows() {
        let (mut swallowed, mut over, mut within, mut full_lists) = (0, 0, 0, 0);
        for case in 0..300u64 {
            let mut rng = Rng::seed_from_u64(0x5eed_c105 ^ case);
            let n = rng.gen_range(2..=48usize);
            let mut g = RetimeGraph::new();
            for _ in 0..n {
                let kind = if rng.gen_bool(0.3) {
                    VertexKind::Interconnect
                } else {
                    VertexKind::Functional
                };
                g.add_vertex(kind, 1, 1.0, Some(rng.gen_range(0..2)));
            }
            let vertex = |rng: &mut Rng| VertexId(rng.gen_range(0..n) as u32);
            for _ in 0..rng.gen_range(n..=3 * n) {
                let (u, v) = (vertex(&mut rng), vertex(&mut rng));
                g.add_edge(u, v, rng.gen_range(0..3));
            }
            let r: Vec<i64> = (0..n).map(|_| rng.gen_range(-2..=2)).collect();
            let weights: Vec<i64> = (0..g.num_edges()).map(|_| rng.gen_range(0..3)).collect();
            // Edge constraints plus extra ones, about half tight at `r`.
            let mut cons = edge_constraints(&g);
            for _ in 0..rng.gen_range(0..=n) {
                let (u, v) = (vertex(&mut rng).index(), vertex(&mut rng).index());
                cons.push(Constraint::new(u, v, r[u] - r[v] + rng.gen_range(0..2i64)));
            }
            let ix = LegalizeIndex::new(&g, cons.iter().copied(), &[1.0, 1.0]);
            let mut lg = Legalizer::new(&g, &ix);
            lg.start(&r, &weights);
            let mut candidates: Vec<(usize, bool)> = (0..rng.gen_range(1..=150))
                .map(|_| (vertex(&mut rng).index(), rng.gen_bool(0.5)))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            candidates.truncate(MAX_CANDIDATES);
            full_lists += usize::from(candidates.len() == MAX_CANDIDATES);
            lg.sweep_closures(&candidates);
            for (i, &(seed, up)) in candidates.iter().enumerate() {
                let (size, flow) = lg.sweep.verdicts[i];
                let d = if up { 1 } else { -1 };
                let verdict = (size < n).then_some((size, d * flow));
                assert_eq!(
                    lg.grown_verdict(seed, up),
                    verdict,
                    "case {case}: candidate {i} ({seed}, {up})"
                );
                // Against a budget at the current total: a move that adds
                // flip-flops is over it.
                match verdict {
                    None => swallowed += 1,
                    Some((_, delta)) if delta > 0 => over += 1,
                    Some(_) => within += 1,
                }
            }
        }
        assert!(
            swallowed > 0 && over > 0 && within > 0 && full_lists > 0,
            "{swallowed} swallowed, {over} over budget, {within} within, {full_lists} full lists"
        );
    }

    /// Three interconnect units in a ring, a flip-flop on each edge, all in
    /// tile 0 of capacity 0. No slide can land, and the ring has no ends to
    /// seed a cluster move; the walks must still end.
    #[test]
    fn a_ring_of_interconnect_units_ends() {
        let mut g = RetimeGraph::new();
        let units: Vec<VertexId> = (0..3)
            .map(|_| g.add_vertex(VertexKind::Interconnect, 1, 1.0, Some(0)))
            .collect();
        for i in 0..3 {
            g.add_edge(units[i], units[(i + 1) % 3], 1);
        }
        let pc = generate_period_constraints(&g, 100).unwrap();
        let res = lac_retiming(&g, &pc, &[0.0], &LacConfig::default()).expect("feasible");
        assert_eq!(res.n_foa, 3);
    }

    /// A random legal legaliser input: a retiming `r`, the weights it
    /// gives, the edge constraints followed by extra ones (about half of
    /// them tight at `r`), and capacities at or near each tile's count.
    struct Case {
        g: RetimeGraph,
        cons: Vec<Constraint>,
        caps: Vec<f64>,
        r: Vec<i64>,
        weights: Vec<i64>,
    }

    /// Functional units joined by connections through chains of up to
    /// four interconnect units, plus a few rings of interconnect units;
    /// about one unit in ten has no tile.
    fn random_case(rng: &mut Rng) -> Case {
        let tiles = rng.gen_range(2..=4usize);
        let mut g = RetimeGraph::new();
        let mut r = Vec::new();
        let mut unit = |g: &mut RetimeGraph, rng: &mut Rng, kind| {
            r.push(rng.gen_range(-1..=1i64));
            let tile = (!rng.gen_bool(0.1)).then(|| rng.gen_range(0..tiles));
            g.add_vertex(kind, 1, 1.0, tile)
        };
        let functional: Vec<VertexId> = (0..rng.gen_range(2..=8))
            .map(|_| unit(&mut g, rng, VertexKind::Functional))
            .collect();
        let mut paths = Vec::new();
        for _ in 0..rng.gen_range(functional.len()..=3 * functional.len()) {
            let mut path = vec![functional[rng.gen_range(0..functional.len())]];
            for _ in 0..rng.gen_range(0..=4) {
                path.push(unit(&mut g, rng, VertexKind::Interconnect));
            }
            path.push(functional[rng.gen_range(0..functional.len())]);
            paths.push(path);
        }
        for _ in 0..rng.gen_range(0..=2) {
            let mut ring: Vec<VertexId> = (0..rng.gen_range(1..=4))
                .map(|_| unit(&mut g, rng, VertexKind::Interconnect))
                .collect();
            ring.push(ring[0]);
            paths.push(ring);
        }
        for path in &paths {
            for pair in path.windows(2) {
                let (u, v) = (pair[0], pair[1]);
                // A retimed weight of 0–2, raised where the original one
                // would be negative.
                let w = (rng.gen_range(0..=2i64) + r[u.index()] - r[v.index()]).max(0);
                g.add_edge(u, v, w);
            }
        }
        let n = g.num_vertices();
        let mut cons = edge_constraints(&g);
        for _ in 0..rng.gen_range(0..=n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            cons.push(Constraint::new(u, v, r[u] - r[v] + rng.gen_range(0..=1i64)));
        }
        let weights = g.retimed_weights(&r);
        let occupancy = TileOccupancy::compute(&g, &weights, &vec![0.0; tiles]);
        let caps = occupancy
            .counts
            .iter()
            .map(|&c| (c + rng.gen_range(-2..=1i64)).max(0) as f64)
            .collect();
        Case {
            g,
            cons,
            caps,
            r,
            weights,
        }
    }

    /// Everything a slide may change: `r`, the weights, the tile counts,
    /// the loaded-edge bits, the flip-flop total, the fingerprint, the
    /// journal and the room stamps.
    type SlideState = (
        Vec<i64>,
        Vec<i64>,
        Vec<i64>,
        Vec<u64>,
        i64,
        u64,
        Vec<Change>,
        Vec<u64>,
    );

    fn slide_state(lg: &Legalizer<'_>) -> SlideState {
        (
            lg.r.clone(),
            lg.weights.clone(),
            lg.counts.clone(),
            lg.loaded.clone(),
            lg.flops,
            lg.hash,
            lg.journal.clone(),
            lg.room_stamp.clone(),
        )
    }

    #[test]
    fn probed_slides_match_journalled_walks() {
        let (mut landed, mut failed, mut ring_tries) = (0, 0, 0);
        for case in 0..300u64 {
            let mut rng = Rng::seed_from_u64(0x0051_1de5 ^ case);
            let c = random_case(&mut rng);
            let ix = LegalizeIndex::new(&c.g, c.cons.iter().copied(), &c.caps);
            let (mut probe, mut journal) = (Legalizer::new(&c.g, &ix), Legalizer::new(&c.g, &ix));
            probe.start(&c.r, &c.weights);
            journal.start(&c.r, &c.weights);
            // Slide passes without skipping, the two legalisers in step.
            for _pass in 0..3 {
                for t in 0..c.caps.len() {
                    let mut from = 0;
                    while probe.counts[t] > ix.cap[t] {
                        let Some((i, e)) = probe.next_loaded(t, from) else {
                            break;
                        };
                        from = i + 1;
                        let before = slide_state(&probe);
                        let verdict = probe.slide_flop(e, t);
                        assert_eq!(
                            verdict,
                            journal.slide_journalled(e, t),
                            "case {case}: edge {}",
                            e.index()
                        );
                        assert_eq!(slide_state(&probe), slide_state(&journal), "case {case}");
                        if verdict {
                            landed += 1;
                        } else {
                            assert_eq!(slide_state(&probe), before, "case {case}: failed probe");
                            failed += 1;
                        }
                        let chain = ix.chain_of[e.index()] as usize;
                        ring_tries += usize::from(ix.chain_ends[chain].is_none());
                    }
                }
            }
        }
        assert!(
            landed > 0 && failed > 0 && ring_tries > 0,
            "{landed} landed, {failed} failed, {ring_tries} on rings"
        );
    }

    /// The closure as grown with an arc for each zero-weight edge besides
    /// the tight constraints: `None` if it swallows the graph, else its
    /// members in joining order.
    fn grown_with_edge_arcs(
        lg: &Legalizer<'_>,
        seed: usize,
        increment: bool,
    ) -> Option<Vec<usize>> {
        let (g, n) = (lg.graph, lg.r.len());
        let mut inside = vec![false; n];
        let (mut members, mut stack) = (vec![seed], vec![seed]);
        inside[seed] = true;
        while let Some(x) = stack.pop() {
            if members.len() >= n {
                return None;
            }
            let v = VertexId(x as u32);
            let mut far: Vec<usize> = if increment {
                let zero = g.out_edges(v).filter(|e| lg.weights[e.index()] == 0);
                zero.map(|e| g.edge(e).to.index()).collect()
            } else {
                let zero = g.in_edges(v).filter(|e| lg.weights[e.index()] == 0);
                zero.map(|e| g.edge(e).from.index()).collect()
            };
            let (row, s) = lg.ix.cons.tightened(x, increment);
            let tight = row
                .iter()
                .filter(|&&(y, b)| s * (lg.r[x] - lg.r[y as usize]) >= b);
            far.extend(tight.map(|&(y, _)| y as usize));
            for y in far {
                if !inside[y] {
                    inside[y] = true;
                    members.push(y);
                    stack.push(y);
                }
            }
        }
        Some(members)
    }

    /// The loaded-edge bits `weights` calls for.
    fn loaded_bits(ix: &LegalizeIndex, weights: &[i64]) -> Vec<u64> {
        let mut words = vec![0u64; *ix.tile_words.last().unwrap() as usize];
        for (e, &w) in weights.iter().enumerate() {
            if w > 0 && ix.charged[e].is_some() {
                let bit = ix.bit_of[e] as usize;
                words[bit / 64] |= 1 << (bit % 64);
            }
        }
        words
    }

    /// Random sequences of slide passes, cluster moves, undos, snapshots
    /// and loads, from legal states: the loaded-edge bits stay equal to
    /// the edges holding a flip-flop, and every closure grown without
    /// edge arcs equals the one grown with them, in joining order.
    #[test]
    fn loaded_bits_and_closures_hold_through_random_moves() {
        let (mut moves, mut undos, mut loads, mut closures) = (0, 0, 0, 0);
        for case in 0..200u64 {
            let mut rng = Rng::seed_from_u64(0x00b1_75e7 ^ case);
            let c = random_case(&mut rng);
            let ix = LegalizeIndex::new(&c.g, c.cons.iter().copied(), &c.caps);
            let mut lg = Legalizer::new(&c.g, &ix);
            lg.start(&c.r, &c.weights);
            let mut saved = vec![lg.snapshot()];
            // The journal lengths between moves, the marks undos may use.
            let mut marks = vec![0];
            let mut candidates = Vec::new();
            for step in 0..30 {
                match rng.gen_range(0..5) {
                    0 => lg.slide_pass(),
                    1 => {
                        candidates.clear();
                        let n = c.g.num_vertices();
                        candidates.extend((0..n).flat_map(|x| [(x, false), (x, true)]));
                        candidates.truncate(MAX_CANDIDATES);
                        lg.sweep_closures(&candidates);
                        let i = rng.gen_range(0..candidates.len());
                        let (seed, up) = candidates[i];
                        moves += usize::from(lg.try_cluster_move(i, seed, up, i64::MAX));
                    }
                    2 => {
                        let mark = marks[rng.gen_range(0..marks.len())];
                        lg.undo_to(mark);
                        marks.retain(|&m| m <= mark);
                        undos += 1;
                    }
                    3 => saved.push(lg.snapshot()),
                    _ => {
                        lg.load(&saved[rng.gen_range(0..saved.len())]);
                        marks = vec![0];
                        loads += 1;
                    }
                }
                marks.push(lg.journal.len());
                assert_eq!(lg.weights, c.g.retimed_weights(&lg.r), "case {case}");
                assert_eq!(
                    lg.loaded,
                    loaded_bits(&ix, &lg.weights),
                    "case {case}, step {step}"
                );
                for x in 0..c.g.num_vertices() {
                    for up in [false, true] {
                        let reference = grown_with_edge_arcs(&lg, x, up);
                        let grown = lg.grow_cluster(x, up).then(|| lg.members.clone());
                        assert_eq!(grown, reference, "case {case}: seed {x} ({up})");
                        closures += 1;
                    }
                }
            }
        }
        assert!(
            moves > 0 && undos > 0 && loads > 0 && closures > 0,
            "{moves} moves, {undos} undos, {loads} loads"
        );
    }
}
